"""Per-layer attribution from outside the program.

The traced run wraps the public entry points of each ``src/repro/``
layer from here; nothing inside ``src/`` changes.  Every call through a
wrapped entry point records one span: name, start, end and the span that
was open when it began (its parent).  A span's self time is its duration
minus the durations of its child spans, less the wrapper's own cost per
call, measured on a no-op in the same process.  The self times of all
spans plus the root span's own self time (``unattributed``: benchmark
code and program code reached without passing a wrapped entry point)
sum exactly to the traced ``run_s``: the root span less that cost.

Time spent in builtins, the standard library or unwrapped helpers counts
toward the nearest wrapped caller: ``pki`` includes the modular
exponentiation and prime search it drives, ``gridftp`` the reply parsing
its client and server do inline.

Each entry point is wrapped at the name its callers look up: a method on
its class, a module-level function in every loaded module that bound it
by name (``from repro.pki.validation import validate_chain``).  If some
caller reached a layer by another path, that entry point records no
calls, and the self-check in :meth:`LayerTrace.missing` reports it as
missing rather than the layer showing zero cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Any, Callable

GO = ("go_storm", "go_onboard")
DATA = GO + ("archive_campaign",)
ALL = DATA + ("control_wide",)

#: (layer, "module:qualified.name", workloads that must call it).  The
#: layer is the ``src/repro/`` package that owns the work; the one
#: exception is ``World.emit``, the always-on event log's front door,
#: which lives in ``sim/world.py`` but does telemetry's work.
ENTRY_POINTS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("globusonline", "repro.globusonline.service:GlobusOnline.register_user", GO),
    ("globusonline", "repro.globusonline.service:GlobusOnline.activate", GO),
    ("globusonline", "repro.globusonline.service:GlobusOnline.submit_transfer", GO),
    ("globusonline", "repro.globusonline.service:GlobusOnline.process_queue", GO),
    ("globusonline", "repro.globusonline.transfer:run_job", GO),
    ("globusonline", "repro.globusonline.transfer:run_batch_job", ("go_storm",)),
    ("scheduler", "repro.scheduler.workers:FleetScheduler.submit", ALL),
    ("scheduler", "repro.scheduler.workers:FleetScheduler.run_until_idle", DATA),
    ("scheduler", "repro.scheduler.sharding:ShardedFleetScheduler.submit", ("control_wide",)),
    ("scheduler", "repro.scheduler.sharding:ShardedFleetScheduler.set_weight", ("control_wide",)),
    ("scheduler", "repro.scheduler.sharding:ShardedFleetScheduler.run_until_idle",
     ("control_wide",)),
    ("scheduler", "repro.scheduler.leases:LeaseTable.grant", ALL),
    ("scheduler", "repro.scheduler.leases:LeaseTable.renew", ("archive_campaign",)),
    ("scheduler", "repro.scheduler.leases:LeaseTable.release", ALL),
    ("gridftp", "repro.gridftp.server:GridFTPSession.handle", GO),
    ("gridftp", "repro.gridftp.client:GridFTPClient.connect", GO),
    ("gridftp", "repro.gridftp.client:ControlChannelPool.checkout", GO),
    ("gridftp", "repro.gridftp.client:ControlChannelPool.release", GO),
    ("gridftp", "repro.gridftp.third_party:third_party_transfer", GO),
    ("gridftp", "repro.gridftp.transfer:TransferEngine.execute", DATA),
    ("gridftp", "repro.gridftp.dcau:DataChannelAuthCache.authenticate", GO),
    ("gsi", "repro.gsi.delegation:delegate_credential", GO),
    ("gsi", "repro.gsi.session_cache:caching_enabled", DATA),
    ("pki", "repro.pki.ca:CertificateAuthority.issue_credential", GO),
    ("pki", "repro.pki.validation:validate_chain", GO),
    ("pki", "repro.pki.proxy:create_proxy", GO),
    ("pki", "repro.pki.rsa:generate_keypair", GO),
    ("pki", "repro.pki.rsa:sign", GO),
    ("pki", "repro.pki.rsa:verify", GO),
    ("myproxy", "repro.myproxy.client:myproxy_logon", GO),
    ("myproxy", "repro.myproxy.server:MyProxySession.handle", GO),
    ("auth", "repro.auth.pam:PamStack.authenticate", GO),
    ("auth", "repro.auth.accounts:AccountDatabase.get", GO),
    ("net", "repro.net.channel:ControlChannel.request", GO),
    ("net", "repro.net.channel:ControlChannel.pipeline", GO),
    ("net", "repro.net.topology:Network.path", DATA),
    ("net", "repro.net.topology:Network.check_path_up", DATA),
    ("net", "repro.net.sockets:connect", GO),
    ("storage", "repro.storage.posix:PosixStorage.open_read", DATA),
    ("storage", "repro.storage.posix:PosixStorage.open_write", DATA),
    ("storage", "repro.storage.posix:PosixStorage.stat", DATA),
    ("storage", "repro.storage.posix:PosixStorage.write_file", DATA),
    ("storage", "repro.storage.posix:PosixStorage.exists", DATA),
    ("storage", "repro.storage.posix:PosixStorage.delete", ("archive_campaign",)),
    ("storage", "repro.storage.dsi:WriteSink.close", DATA),
    ("storage", "repro.storage.data:checksum", DATA),
    ("sim", "repro.sim.world:World.advance", ALL),
    ("sim", "repro.sim.world:World.advance_to", ("archive_campaign",)),
    ("sim", "repro.sim.faults:FaultPlan.first_interruption", ALL),
    ("sim", "repro.sim.faults:FaultPlan.host_down", ALL),
    ("sim", "repro.sim.faults:FaultPlan.next_clear_time", ("archive_campaign",)),
    ("sim", "repro.sim.faults:FaultInjector.arm", ("go_storm", "archive_campaign", "control_wide")),
    ("recovery", "repro.recovery.engine:RecoveryEngine.run", DATA),
    ("recovery", "repro.recovery.breaker:CircuitBreaker.check", GO),
    ("recovery", "repro.recovery.breaker:CircuitBreaker.record_success", GO),
    ("archive", "repro.archive.campaign:ArchivalCampaign.run", ("archive_campaign",)),
    ("archive", "repro.archive.base:ArchiveComponent.cycle", ("archive_campaign",)),
    ("archive", "repro.archive.replicator:Replicator.collect_cycle", ("archive_campaign",)),
    ("archive", "repro.archive.catalog:Catalog.submit", ("archive_campaign",)),
    ("archive", "repro.archive.catalog:Catalog.claim_bundle", ("archive_campaign",)),
    ("archive", "repro.archive.catalog:Catalog.commit", ("archive_campaign",)),
    ("archive", "repro.archive.catalog:Catalog.requeue_lapsed", ("archive_campaign",)),
    ("telemetry", "repro.sim.world:World.emit", ALL),
    ("telemetry", "repro.util.logging:EventLog.emit_event", ALL),
    ("telemetry", "repro.telemetry.trace:Tracer.span", ALL),
    ("telemetry", "repro.telemetry.trace:_SpanHandle.__exit__", ALL),
    ("telemetry", "repro.telemetry.metrics:Counter.inc", ALL),
    ("telemetry", "repro.telemetry.metrics:CounterChild.inc", GO),
    ("telemetry", "repro.telemetry.metrics:Gauge.set", ALL),
    ("telemetry", "repro.telemetry.metrics:Gauge.inc", ALL),
    ("telemetry", "repro.telemetry.metrics:Gauge.dec", ALL),
    ("telemetry", "repro.telemetry.metrics:Histogram.observe", ALL),
    ("telemetry", "repro.telemetry.metrics:HistogramChild.observe", GO),
    ("telemetry", "repro.telemetry.slo:SLOEngine.record", ("archive_campaign",)),
    ("telemetry", "repro.telemetry.slo:SLOEngine.observe_latency", ("archive_campaign",)),
)

LAYERS = ("globusonline", "scheduler", "gridftp", "gsi", "pki", "myproxy", "auth",
          "net", "storage", "sim", "recovery", "archive", "telemetry")

#: exact work counts taken from wrapper call counts
CALL_COUNTS = {
    "gridftp.commands": ("repro.gridftp.server:GridFTPSession.handle",),
    "telemetry.spans": ("repro.telemetry.trace:Tracer.span",),
    "telemetry.metric_updates": tuple(
        target for _, target, _ in ENTRY_POINTS
        if target.startswith("repro.telemetry.metrics:")),
}

ROOT = "<run>"


def _resolve(target: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw attribute value) for ``module:qualname``."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr]  # KeyError: not defined where the table says
    return owner, attr, raw


class LayerTrace:
    """Span recorder over the :data:`ENTRY_POINTS` table."""

    def __init__(self, entry_points=ENTRY_POINTS) -> None:
        self.entry_points = entry_points
        self.names: list[str] = [ROOT] + [target for _, target, _ in entry_points]
        self.layer_of = {ROOT: "unattributed"}
        self.layer_of.update({target: layer for layer, target, _ in entry_points})
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn: Callable, name_id: int) -> Callable:
        starts, ends, names, parents = self.starts, self.ends, self.name_ids, self.parents
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point where its callers look it up."""
        resolved = [_resolve(target) for _, target, _ in self.entry_points]
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "repro" or name.startswith("repro."))]
        for name_id, ((_, target, _), (owner, attr, raw)) in enumerate(
                zip(self.entry_points, resolved), start=1):
            if not inspect.isfunction(raw) or inspect.isgeneratorfunction(raw):
                raise TypeError(f"{target} is not a plain function; cannot time its calls")
            wrapped = self._wrap(raw, name_id)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, wrapped)

    def uninstall(self) -> None:
        """Put every original back (in reverse, so repeats unwind cleanly)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the root span ---------------------------------------------------------

    def open_root(self) -> None:
        """Start the span every other span descends from."""
        self.name_ids.append(0)
        self.parents.append(-1)
        self.ends.append(0.0)
        self._stack.append(0)
        self.starts.append(time.perf_counter())

    def close_root(self) -> None:
        """End the root span; later calls are no longer recorded."""
        self.ends[0] = time.perf_counter()
        self._stack.pop()
        self.uninstall()

    # -- results ---------------------------------------------------------------

    @property
    def raw_run_s(self) -> float:
        """Duration of the root span, wrapper cost included."""
        return self.ends[0] - self.starts[0]

    def per_name(self, cost_in: float, cost_out: float) -> dict[str, dict[str, float]]:
        """Calls and self seconds per entry point (and the root).

        A wrapped call costs ``cost_in`` seconds inside its own span (the
        clock read and the extra call level) and ``cost_out`` seconds in
        its parent's span (span bookkeeping before and after).  Both are
        taken out, so a layer is not charged for being traced.
        """
        n = len(self.name_ids)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        child = [0.0] * n
        nchild = [0] * n
        for i in range(1, n):
            p = parents[i]
            child[p] += ends[i] - starts[i]
            nchild[p] += 1
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[name_ids[i]]]
            row["calls"] += 1
            row["self_s"] += (ends[i] - starts[i] - child[i] - nchild[i] * cost_out
                              - (cost_in if i else 0.0))
        return out

    def calibrate(self, calls: int = 20_000, rounds: int = 5) -> tuple[float, float]:
        """(cost_in, cost_out) of one wrapped call, measured on a no-op.

        The minimum over a few rounds: the cost itself, not the host's
        interruptions of it.
        """
        clock = time.perf_counter

        def noop() -> None:
            return None

        best_in = best_total = float("inf")
        for _ in range(rounds):
            probe = LayerTrace(entry_points=())
            traced = probe._wrap(noop, 0)
            t0 = clock()
            for _ in range(calls):
                noop()
            direct = (clock() - t0) / calls
            t0 = clock()
            for _ in range(calls):
                traced()
            total = (clock() - t0) / calls - direct
            window = sum(probe.ends) - sum(probe.starts)
            best_in = min(best_in, window / calls - direct)
            best_total = min(best_total, total)
        return best_in, best_total - best_in

    def missing(self, workload: str, per_name: dict[str, dict[str, float]]) -> list[str]:
        """Entry points the table says ``workload`` calls, but it did not."""
        return [target for _, target, workloads in self.entry_points
                if workload in workloads and per_name[target]["calls"] == 0]

    def summary(self, workload: str) -> dict[str, Any]:
        """Per-layer self time, calls and share, plus the self-check.

        ``run_s`` is the root span less the calibrated cost of every
        wrapped call, so the layers' and ``unattributed`` self times sum
        to it exactly; ``raw_run_s`` keeps the cost in.
        """
        cost_in, cost_out = self.calibrate()
        per_name = self.per_name(cost_in, cost_out)
        spans = len(self.name_ids)
        run_s = self.raw_run_s - (spans - 1) * (cost_in + cost_out)
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS + ("unattributed",)}
        for name, row in per_name.items():
            layer = layers[self.layer_of[name]]
            layer["self_s"] += row["self_s"]
            if name != ROOT:
                layer["calls"] += row["calls"]
        for row in layers.values():
            row["self_share"] = row["self_s"] / run_s if run_s else 0.0
        counts = {key: sum(per_name[t]["calls"] for t in targets)
                  for key, targets in CALL_COUNTS.items()}
        return {
            "run_s": run_s,
            "raw_run_s": self.raw_run_s,
            "wrapper_cost_s": [cost_in, cost_out],
            "spans": spans,
            "layers": layers,
            "counts": counts,
            "entry_points": per_name,
            "missing": self.missing(workload, per_name),
        }
