"""Hosts, links and routing.

The topology is an undirected graph of named hosts joined by links with a
bandwidth (bits/s), a one-way latency (s) and a packet-loss probability.
Routing picks the minimum-latency path.  :class:`PathStats` summarizes a
path for the TCP/UDT models: round-trip time, bottleneck bandwidth
(including the end-host NICs) and aggregate loss.

Hosts double as the attachment points for services (GridFTP servers,
MyProxy CAs, OAuth servers) via :mod:`repro.net.sockets`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import networkx as nx

from repro.errors import NetworkError, NoRouteError
from repro.util.units import gbps

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.world import World


@dataclass(frozen=True)
class Link:
    """A bidirectional network link.

    ``loss`` is the per-packet loss probability seen by a TCP flow crossing
    the link (already including any queueing effects we care to model).
    """

    link_id: str
    a: str
    b: str
    bandwidth_bps: float
    latency_s: float
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("link latency cannot be negative")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("link loss must be in [0, 1)")

    def other_end(self, host: str) -> str:
        """The host on the far side of the link from ``host``."""
        if host == self.a:
            return self.b
        if host == self.b:
            return self.a
        raise ValueError(f"{host} is not an endpoint of {self.link_id}")


@dataclass
class Host:
    """A named machine attached to the network.

    ``nic_bps`` caps any flow terminating here regardless of path
    bandwidth — a 1 Gb/s NIC on a 10 Gb/s WAN is a real and common
    bottleneck for data transfer nodes.

    ``transit`` marks a host that forwards traffic (a router/switch).
    End hosts do not forward: a path never runs *through* a
    ``transit=False`` host, only starts or ends there.
    """

    name: str
    nic_bps: float = gbps(10)
    transit: bool = False
    tags: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nic_bps <= 0:
            raise ValueError("NIC bandwidth must be positive")

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass(frozen=True)
class PathStats:
    """Summary of a routed path, consumed by the transport models."""

    src: str
    dst: str
    rtt_s: float
    bottleneck_bps: float
    loss: float
    link_ids: tuple[str, ...]
    hosts: tuple[str, ...]

    @property
    def hop_count(self) -> int:
        """Number of links on the path."""
        return len(self.link_ids)


class Network:
    """The topology graph plus the listener registry.

    ``world`` supplies the clock (for connection timing) and the fault
    plan (links/hosts may be down).
    """

    #: loopback paths (host talking to itself) get this nominal RTT
    LOOPBACK_RTT = 50e-6
    LOOPBACK_BW = gbps(40)

    def __init__(self, world: "World") -> None:
        self.world = world
        self._graph = nx.Graph()
        self._hosts: dict[str, Host] = {}
        self._links: dict[str, Link] = {}
        self._link_seq = itertools.count(1)
        # sockets.Listeners keyed by (host, port); managed via sockets module
        self.listeners: dict[tuple[str, int], object] = {}
        self._ephemeral = itertools.count(50000)
        # route memoization: fleets hammer the same (src, dst) pairs, so
        # re-walking the graph per transfer is pure waste.  Both caches are
        # dropped on any topology mutation (add_host/add_link).
        self._path_cache: dict[tuple[str, str], PathStats] = {}
        self._path_links_cache: dict[tuple[str, str], tuple[Link, ...]] = {}
        self._route_cache_hits = 0
        self._route_cache_misses = 0
        #: bumped on every topology mutation; callers may cache derived
        #: route state (e.g. transfer profiles) keyed by this counter
        self.topology_version = 0

    # -- route cache ---------------------------------------------------------

    def invalidate_routes(self) -> None:
        """Drop every memoized route (called on any topology mutation)."""
        self.topology_version += 1
        self._path_cache.clear()
        self._path_links_cache.clear()

    def route_cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters for tests and the profiling tool."""
        return {
            "hits": self._route_cache_hits,
            "misses": self._route_cache_misses,
            "cached_paths": len(self._path_cache),
            "cached_link_walks": len(self._path_links_cache),
        }

    # -- construction ------------------------------------------------------

    def add_host(self, name: str, nic_bps: float = gbps(10), transit: bool = False, **tags) -> Host:
        """Create and register a host (``transit=True`` for routers)."""
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(name=name, nic_bps=nic_bps, transit=transit, tags=dict(tags))
        self._hosts[name] = host
        self._graph.add_node(name)
        self.invalidate_routes()
        return host

    def add_router(self, name: str, nic_bps: float = gbps(100), **tags) -> Host:
        """Create a forwarding node (core/border router)."""
        return self.add_host(name, nic_bps=nic_bps, transit=True, **tags)

    def add_link(
        self,
        a: str | Host,
        b: str | Host,
        bandwidth_bps: float,
        latency_s: float,
        loss: float = 0.0,
        link_id: str | None = None,
    ) -> Link:
        """Join two hosts with a link (both must already exist)."""
        a_name = a.name if isinstance(a, Host) else a
        b_name = b.name if isinstance(b, Host) else b
        for name in (a_name, b_name):
            if name not in self._hosts:
                raise NetworkError(f"unknown host {name!r}")
        if a_name == b_name:
            raise NetworkError("cannot link a host to itself")
        if link_id is None:
            link_id = f"link{next(self._link_seq)}:{a_name}--{b_name}"
        if link_id in self._links:
            raise NetworkError(f"link id {link_id!r} already exists")
        link = Link(
            link_id=link_id,
            a=a_name,
            b=b_name,
            bandwidth_bps=bandwidth_bps,
            latency_s=latency_s,
            loss=loss,
        )
        self._links[link_id] = link
        self._graph.add_edge(a_name, b_name, link=link, weight=latency_s)
        self.invalidate_routes()
        return link

    # -- lookup --------------------------------------------------------------

    @property
    def hosts(self) -> dict[str, Host]:
        """All registered hosts by name."""
        return dict(self._hosts)

    @property
    def links(self) -> dict[str, Link]:
        """All registered links by id."""
        return dict(self._links)

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    def link(self, link_id: str) -> Link:
        """Look up a link by id."""
        try:
            return self._links[link_id]
        except KeyError:
            raise NetworkError(f"unknown link {link_id!r}") from None

    # -- routing ---------------------------------------------------------------

    def path_links(self, src: str, dst: str) -> list[Link]:
        """The links along the minimum-latency route from src to dst.

        Routes only transit through hosts marked ``transit=True``; end
        hosts never forward other hosts' traffic.  Results are memoized
        per (src, dst) until the topology next mutates.
        """
        if src == dst:
            return []
        cached = self._path_links_cache.get((src, dst))
        if cached is not None:
            self._route_cache_hits += 1
            return list(cached)
        self._route_cache_misses += 1
        if src not in self._hosts or dst not in self._hosts:
            raise NetworkError(f"unknown host in route {src!r} -> {dst!r}")
        allowed = {
            name for name, host in self._hosts.items()
            if host.transit or name in (src, dst)
        }
        view = self._graph.subgraph(allowed)
        try:
            nodes = nx.shortest_path(view, src, dst, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            raise NoRouteError(f"no route from {src!r} to {dst!r}") from None
        links = [self._graph.edges[u, v]["link"] for u, v in zip(nodes, nodes[1:])]
        self._path_links_cache[(src, dst)] = tuple(links)
        return links

    def path(self, src: str | Host, dst: str | Host) -> PathStats:
        """Routing summary used by the transport models.

        A host talking to itself gets nominal loopback characteristics so
        local transfers (``file:///`` to a local server) still have finite,
        fast timing.  :class:`PathStats` is frozen, so the memoized object
        is shared safely across callers until the topology next mutates.
        """
        src_name = src.name if isinstance(src, Host) else src
        dst_name = dst.name if isinstance(dst, Host) else dst
        cached = self._path_cache.get((src_name, dst_name))
        if cached is not None:
            self._route_cache_hits += 1
            return cached
        self._route_cache_misses += 1
        src_host = self.host(src_name)
        dst_host = self.host(dst_name)
        if src_name == dst_name:
            stats = PathStats(
                src=src_name,
                dst=dst_name,
                rtt_s=self.LOOPBACK_RTT,
                bottleneck_bps=min(self.LOOPBACK_BW, src_host.nic_bps),
                loss=0.0,
                link_ids=(),
                hosts=(src_name,),
            )
            self._path_cache[(src_name, dst_name)] = stats
            return stats
        links = self.path_links(src_name, dst_name)
        one_way = sum(l.latency_s for l in links)
        bottleneck = min(
            [l.bandwidth_bps for l in links] + [src_host.nic_bps, dst_host.nic_bps]
        )
        ok_prob = 1.0
        for l in links:
            ok_prob *= 1.0 - l.loss
        stats = PathStats(
            src=src_name,
            dst=dst_name,
            rtt_s=2.0 * one_way,
            bottleneck_bps=bottleneck,
            loss=1.0 - ok_prob,
            link_ids=tuple(l.link_id for l in links),
            hosts=(src_name, *(l.other_end(h) for h, l in self._walk(src_name, links))),
        )
        self._path_cache[(src_name, dst_name)] = stats
        return stats

    def _walk(self, start: str, links: Iterable[Link]):
        """Yield (current_host, link) pairs walking the path from start."""
        here = start
        for l in links:
            yield here, l
            here = l.other_end(here)

    # -- fault awareness -----------------------------------------------------

    @staticmethod
    def _faulted_targets(stats: PathStats, faults) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The subset of the path's links/hosts with any scheduled fault.

        Up-ness queries run per control-channel request, but most paths
        never intersect the fault plan (chaos campaigns target specific
        hosts); the filtered view is cached on the (frozen, per-pair
        route-cached) ``PathStats`` and invalidated by the plan's
        mutation epoch.
        """
        cached = stats.__dict__.get("_faulted_targets")
        if cached is not None and cached[0] == faults.epoch:
            return cached[1], cached[2]
        links = tuple(lid for lid in stats.link_ids if faults.has_link_faults(lid))
        hosts = tuple(h for h in stats.hosts if faults.has_host_faults(h))
        object.__setattr__(stats, "_faulted_targets", (faults.epoch, links, hosts))
        return links, hosts

    def check_path_up(self, stats: PathStats, t: float | None = None) -> None:
        """Raise :class:`~repro.errors.LinkDownError` if the path is down."""
        faults = self.world.faults
        links, hosts = self._faulted_targets(stats, faults)
        if not links and not hosts:
            return
        t = self.world.now if t is None else t
        for lid in links:
            if faults.link_down(lid, t):
                from repro.errors import LinkDownError

                raise LinkDownError(f"link {lid} is down at t={t:.3f}", link=lid)
        for h in hosts:
            if faults.host_down(h, t):
                from repro.errors import LinkDownError

                raise LinkDownError(f"host {h} is down at t={t:.3f}", link=h)

    # -- ports -----------------------------------------------------------------

    def ephemeral_port(self) -> int:
        """Allocate a unique ephemeral port number (global pool, simplicity)."""
        return next(self._ephemeral)
