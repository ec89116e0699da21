"""The GridFTP client PI and the ``globus-url-copy``-style API.

A :class:`GridFTPClient` holds a user's credential and trust roots on a
client host; :meth:`~GridFTPClient.connect` opens a control channel and
performs the mutual GSI handshake (client validates the server's host
certificate; server validates the user's delegated proxy).  The session
object then exposes the protocol commands plus high-level ``get``/
``put``/``get_many`` operations that drive the transfer engine.

``globus_url_copy`` mirrors the command from paper Section IV.E::

    globus-url-copy gsiftp://<server>/<path> file:/<path>
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AuthenticationError, ProtocolError, TransferError
from repro.gridftp.dcau import DataChannelSecurity, DCAUMode
from repro.gridftp.replies import Reply, raise_for_reply
from repro.gridftp.restart import ByteRangeSet, format_restart_marker
from repro.gridftp.server import GridFTPServer, GridFTPSession, TransferIntent
from repro.gridftp.transfer import (
    SinkSpec,
    SourceSpec,
    TransferEngine,
    TransferOptions,
    TransferResult,
)
from repro.gsi.delegation import delegate_credential
from repro.gsi.session_cache import caching_enabled
from repro.net.channel import ControlChannel
from repro.util import opcount
from repro.pki.certificate import Certificate
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName
from repro.xio.drivers import Protection
from repro.pki.validation import TrustStore, validate_chain
from repro.sim.world import World
from repro.storage.dsi import DataStorageInterface
from repro.util.encoding import b64decode_str, b64encode_str, pem_decode_all


@dataclass(frozen=True)
class GridFTPUrl:
    """A parsed ``gsiftp://host[:port]/path`` or ``file:///path`` URL."""

    scheme: str
    host: str
    port: int
    path: str

    @staticmethod
    def parse(url: str) -> "GridFTPUrl":
        """Parse from the textual form."""
        scheme, sep, rest = url.partition("://")
        if not sep:
            # accept the paper's "file:/<path>" single-slash spelling
            if url.startswith("file:/"):
                return GridFTPUrl(scheme="file", host="", port=0, path=url[len("file:") :])
            raise ProtocolError(f"malformed URL {url!r}", code=501)
        scheme = scheme.lower()
        if scheme == "file":
            return GridFTPUrl(scheme="file", host="", port=0, path="/" + rest.lstrip("/"))
        if scheme not in ("gsiftp", "ftp"):
            raise ProtocolError(f"unsupported URL scheme {scheme!r}", code=501)
        hostport, slash, path = rest.partition("/")
        host, _, port_s = hostport.partition(":")
        port = int(port_s) if port_s else GridFTPServer.DEFAULT_PORT
        return GridFTPUrl(scheme=scheme, host=host, port=port, path="/" + path)

    def __str__(self) -> str:
        if self.scheme == "file":
            return f"file://{self.path}"
        return f"{self.scheme}://{self.host}:{self.port}{self.path}"


@dataclass
class _PooledSession:
    """One idle, authenticated control channel awaiting reuse."""

    session: "ClientSession"
    #: the delegated proxy's validity onset and memo half-life horizon;
    #: inside [not_before, fresh_until] a fresh login's delegation memo
    #: replays the *identical* proxy, so resuming this session's
    #: server-side ``delegated`` is bit-for-bit what a fresh handshake
    #: would have installed
    delegated_not_before: float
    fresh_until: float
    client_trust: tuple[int, int]  # (uid, version) at release
    server_trust: tuple[int, int]
    server_credential_fp: str
    released_at: float


class ControlChannelPool:
    """Per-world pool of authenticated GridFTP control channels.

    Real GridFTP clients and Globus Online hold control connections open
    across transfers; this pool gives the simulation the same amortized
    behaviour *without changing any virtual outcome*.  A checkout replays
    exactly the per-step fault checks and clock charges a fresh
    ``connect()`` + AUTH/ADAT/USER login would make (TCP handshake
    1.5 RTT, then three command round trips) and skips only the pure
    wall-clock work: chain walks, RSA verification, proxy delegation and
    PEM codec traffic.  That skip is sound because an entry is reused
    only while every input that work depends on is pinned:

    * same client credential (leaf fingerprint in the key) and the same
      requested username mapping;
    * inside the delegated proxy's memo half-life, where a fresh login's
      delegation memo would reproduce the identical proxy;
    * both trust stores unchanged — (uid, version) recorded at release;
    * same server object behind the listener, same server credential;
    * no host crash or control-channel drop touched either endpoint
      while the channel sat idle (``FaultPlan.endpoint_disrupted``) —
      faults active *now* are caught by the replayed checks themselves.

    Any condition failing silently discards the entry and reports a
    miss; the caller then performs the real handshake, which reproduces
    whatever the fresh world would have done — success or failure — with
    identical charges.  Entries are LRU-bounded; ``REPRO_NO_SESSION_CACHE``
    disables pooling entirely.

    This pool is the only cache in front of GSI mutual authentication:
    there is no GSI context resumption, so every miss walks both chains
    (:meth:`ClientSession.login` and the server's ADAT handler).
    """

    MAX_ENTRIES = 256

    def __init__(self, world: World) -> None:
        self.world = world
        self._entries: dict[tuple, _PooledSession] = {}
        self.reuses = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self._reuse_c = world.metrics.counter(
            "control_channel_pool_reuses_total",
            "Authenticated control channels reused from the pool",
        )
        self._miss_c = world.metrics.counter(
            "control_channel_pool_misses_total",
            "Pool misses (full GSI handshake performed)",
        )
        self._invalidate_c = world.metrics.counter(
            "control_channel_pool_invalidations_total",
            "Pooled channels discarded by fault/expiry/trust invalidation",
        )
        self._size_g = world.metrics.gauge(
            "control_channel_pooled_sessions", "Idle authenticated channels held"
        )

    @classmethod
    def for_world(cls, world: World) -> "ControlChannelPool":
        """The world's pool, created on first use."""
        pool = getattr(world, "_control_channel_pool", None)
        if pool is None:
            pool = cls(world)
            world._control_channel_pool = pool
        return pool

    @staticmethod
    def _key(client: "GridFTPClient", address: tuple[str, int], username: str | None) -> tuple:
        return (
            client.host,
            address,
            client.credential.certificate.fingerprint(),
            username,
        )

    def checkout(
        self,
        client: "GridFTPClient",
        address: tuple[str, int],
        username: str | None,
    ) -> "ClientSession | None":
        """An authenticated session to ``address``, or None (do a real login)."""
        key = self._key(client, address, username)
        entry = self._entries.pop(key, None)
        if entry is None:
            self._miss()
            return None
        world = self.world
        now = world.now
        session = entry.session
        channel = session.channel
        server_session = channel._session
        ok = (
            entry.delegated_not_before <= now <= entry.fresh_until
            and client.credential.valid_at(now)
            and (client.trust.uid, client.trust.version) == entry.client_trust
            and not channel.closed
            and isinstance(server_session, GridFTPSession)
            and not server_session.closed
        )
        if ok:
            server = server_session.server
            listener = world.network.listeners.get(address)
            ok = (
                (server.trust.uid, server.trust.version) == entry.server_trust
                and server.credential.certificate.fingerprint()
                == entry.server_credential_fp
                and listener is not None
                and listener.service is server
                # chaos while the channel sat idle kills the connection;
                # faults active at `now` are re-checked by the replay below
                and not world.faults.endpoint_disrupted(
                    (address[0], client.host), entry.released_at, now
                )
            )
        if not ok:
            self._discard(entry)
            self._miss()
            return None
        # Replay the handshake's network behaviour.  Failures before any
        # clock advance are treated as misses (the caller's real handshake
        # re-raises them identically, still at zero charge); failures after
        # an advance must raise here, at the exact virtual instant the
        # fresh world would have raised.
        network = world.network
        try:
            path = network.path(client.host, address[0])
            network.check_path_up(path)
        except Exception:
            self._discard(entry)
            self._miss()
            return None
        world.clock.advance(1.5 * path.rtt_s)  # TCP handshake, as sockets.connect
        channel._path = path
        try:
            for _ in range(3):  # the AUTH, ADAT, USER round trips
                channel._check_open()
                world.clock.advance(path.rtt_s + channel.proc_time_s)
        except Exception:
            self._discard(entry)
            raise
        session.client = client
        session.authenticated = True
        session.logged_in_as = server_session.account.username
        # The options pipeline is re-charged per lease; a reused session
        # may take the charge-only fast path (see apply_options).
        session._options_applied = None
        session._options_fastpath = True
        self.reuses += 1
        self._reuse_c.inc()
        self._size_g.set(len(self._entries))
        opcount.bump("gsi.handshake.resumed")
        world.emit(
            "globusonline.session.reused",
            "pooled control channel reused",
            endpoint=f"{address[0]}:{address[1]}",
            client=client.host,
            user=client.username,
        )
        return session

    def release(self, session: "ClientSession") -> bool:
        """Park a session for reuse; closes it instead when ineligible."""
        client = session.client
        channel = session.channel
        server_session = channel._session
        now = self.world.now
        eligible = (
            caching_enabled()
            and session.authenticated
            and session.logged_in_as is not None
            and not channel.closed
            and isinstance(server_session, GridFTPSession)
            and not server_session.closed
            and client.credential is not None
            and server_session.delegated is not None
            and client.credential.valid_at(now)
        )
        if not eligible:
            channel.close()
            return False
        leaf = server_session.delegated.chain[0]
        fresh_until = leaf.not_before + (leaf.not_after - leaf.not_before) / 2.0
        if not leaf.not_before <= now <= fresh_until:
            channel.close()
            return False
        server = server_session.server
        key = self._key(client, channel.address, session._pool_username)
        old = self._entries.pop(key, None)
        if old is not None and old.session is not session:
            self._discard(old)
        server_session.reset_for_reuse()
        self._entries[key] = _PooledSession(
            session=session,
            delegated_not_before=leaf.not_before,
            fresh_until=fresh_until,
            client_trust=(client.trust.uid, client.trust.version),
            server_trust=(server.trust.uid, server.trust.version),
            server_credential_fp=server.credential.certificate.fingerprint(),
            released_at=now,
        )
        if len(self._entries) > self.MAX_ENTRIES:
            oldest = next(iter(self._entries))
            self._discard(self._entries.pop(oldest))
            self.evictions += 1
        self._size_g.set(len(self._entries))
        return True

    def invalidate_host(self, host: str) -> int:
        """Drop every pooled channel touching ``host`` (either end)."""
        doomed = [
            k for k in self._entries if k[0] == host or k[1][0] == host
        ]
        for k in doomed:
            self._discard(self._entries.pop(k))
        if doomed:
            self.invalidations += len(doomed)
            self._invalidate_c.inc(len(doomed))
            self._size_g.set(len(self._entries))
        return len(doomed)

    def clear(self) -> int:
        """Close and drop every pooled channel."""
        n = len(self._entries)
        for entry in list(self._entries.values()):
            self._discard(entry)
        self._entries.clear()
        self._size_g.set(0)
        return n

    def stats(self) -> dict[str, int]:
        """Point-in-time counters for ops tables and tests."""
        return {
            "pooled": len(self._entries),
            "reuses": self.reuses,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }

    def _miss(self) -> None:
        self.misses += 1
        self._miss_c.inc()

    def _discard(self, entry: _PooledSession) -> None:
        try:
            entry.session.channel.close()
        except Exception:
            pass


class GridFTPClient:
    """A user's GridFTP client on a particular host."""

    def __init__(
        self,
        world: World,
        host: str,
        credential: Credential | None = None,
        trust: TrustStore | None = None,
        local_storage: DataStorageInterface | None = None,
        username: str = "user",
    ) -> None:
        self.world = world
        self.host = host
        self.credential = credential
        self.trust = trust or TrustStore()
        self.local_storage = local_storage
        self.username = username
        self.engine = TransferEngine.for_world(world)
        # data_channel_security() memo: (inputs..., result) — see method
        self._dcs_memo: tuple | None = None

    # -- connection ----------------------------------------------------------

    def connect(
        self,
        server: GridFTPServer | tuple[str, int],
        login: bool = True,
        username: str | None = None,
        pooled: bool = False,
    ) -> "ClientSession":
        """Open a control channel; optionally authenticate and log in.

        With ``pooled=True`` an idle authenticated channel to the same
        endpoint (same credential, same username mapping) is reused from
        the world's :class:`ControlChannelPool` when one is available,
        and the returned session goes back to the pool on
        :meth:`ClientSession.release` instead of closing.
        """
        address = server.address if isinstance(server, GridFTPServer) else server
        if pooled and login and self.credential is not None and caching_enabled():
            hit = ControlChannelPool.for_world(self.world).checkout(
                self, address, username
            )
            if hit is not None:
                return hit
        channel = ControlChannel(self.world.network, self.host, address)
        session = ClientSession(self, channel)
        session._pooled = pooled
        session._pool_username = username
        if login:
            session.login(username=username)
        return session

    # -- local data-channel posture --------------------------------------------

    def data_channel_security(self, mode: DCAUMode) -> DataChannelSecurity:
        """The client side of a two-party data channel."""
        # pure function of (mode, credential, trust) — memoize per client
        # so batch jobs reuse one posture object (and its _side_key memo)
        m = self._dcs_memo
        if (
            m is not None
            and m[0] is mode
            and m[1] is self.credential
            and m[2] is self.trust
            and m[3] == self.trust.version
        ):
            return m[4]
        expected = self.credential.identity if self.credential else None
        sec = DataChannelSecurity(
            mode=mode,
            credential=self.credential,
            trust=self.trust,
            expected_identity=expected,
            endpoint_name=f"client@{self.host}",
        )
        self._dcs_memo = (mode, self.credential, self.trust, self.trust.version, sec)
        return sec


def _options_server_state(options: TransferOptions) -> list[tuple[str, object]] | None:
    """The server-session mutations the options pipeline would make.

    Mirrors ``_cmd_type``/``_cmd_mode``/``_cmd_opts``/``_cmd_prot``/
    ``_cmd_dcau``/``_cmd_sbuf`` for well-formed options.  Returns None
    whenever any value could draw a protocol error from the real
    handlers (non-int parallelism, missing DCAU subject, ...), so the
    caller runs the genuine pipeline and errors surface as uncached.
    """
    if type(options.parallelism) is not int:
        return None
    if options.tcp_window_bytes and type(options.tcp_window_bytes) is not int:
        return None
    if not isinstance(options.protection, Protection):
        return None
    if not isinstance(options.dcau, DCAUMode):
        return None
    updates: list[tuple[str, object]] = [
        ("type_", "I"),
        ("mode", "E"),
        ("parallelism", max(1, options.parallelism)),
        ("protection", options.protection),
    ]
    if options.dcau is DCAUMode.SUBJECT:
        if not options.dcau_subject:
            return None  # "DCAU S" with no subject is a 501 on the wire
        try:
            subject = DistinguishedName.parse(str(options.dcau_subject))
        except Exception:
            return None
        updates.append(("dcau_mode", DCAUMode.SUBJECT))
        updates.append(("dcau_subject", subject))
    else:
        updates.append(("dcau_mode", options.dcau))
        updates.append(("dcau_subject", None))
    if options.tcp_window_bytes:
        updates.append(("tcp_window", options.tcp_window_bytes))
    return updates


class ClientSession:
    """A logged-in control-channel session, with high-level operations."""

    def __init__(self, client: GridFTPClient, channel: ControlChannel) -> None:
        self.client = client
        self.channel = channel
        self.world = client.world
        self.authenticated = False
        self.logged_in_as: str | None = None
        self._options_applied: TransferOptions | None = None
        # pool bookkeeping (set by GridFTPClient.connect / pool checkout)
        self._pooled = False
        self._pool_username: str | None = None
        self._options_fastpath = False

    # -- low-level helpers ---------------------------------------------------

    @property
    def server_session(self) -> GridFTPSession:
        """The server-side session object (introspection)."""
        session = self.channel.session
        assert isinstance(session, GridFTPSession)
        return session

    @property
    def server(self) -> GridFTPServer:
        """The GridFTP server this session talks to."""
        return self.server_session.server

    def command(self, line: str) -> Reply:
        """Send one command; return the final reply (raise on 4xx/5xx)."""
        lines = self.channel.request(line)
        if not lines:
            raise ProtocolError(f"no reply to {line!r}")
        return raise_for_reply(Reply.parse(lines[-1]))

    def command_lines(self, line: str) -> list[str]:
        """Send one command; return every reply line (multiline replies)."""
        lines = self.channel.request(line)
        raise_for_reply(Reply.parse(lines[-1]))
        return lines

    # -- the GSI handshake -------------------------------------------------------

    def login(self, username: str | None = None) -> str:
        """AUTH/ADAT mutual authentication, then USER mapping.

        Returns the local account name the server mapped us to.
        """
        client = self.client
        if client.credential is None:
            raise AuthenticationError(
                f"client {client.username!r} has no credential to authenticate with"
            )
        opcount.bump("gsi.handshake.full")
        reply = self.command("AUTH GSSAPI")
        # the 334 carries the server's certificate chain; validate it
        # against *our* trust roots (the client half of mutual auth).
        if not reply.text.startswith("ADAT="):
            raise AuthenticationError(f"unexpected AUTH reply: {reply}")
        try:
            chain = _parse_cert_chain(b64decode_str(reply.text[len("ADAT=") :]))
            validate_chain(chain, client.trust, self.world.now)
        except Exception as exc:
            raise AuthenticationError(f"client rejected server certificate: {exc}") from exc
        # delegate a proxy to the server and present it
        delegated = delegate_credential(
            client.credential, self.world.clock, self.world.rng.python("delegation")
        )
        blob = b64encode_str(delegated.to_pem(include_key=True).encode("ascii"))
        user_arg = username if username is not None else ":globus-mapping:"
        try:
            self.command(f"ADAT {blob}")
            self.authenticated = True
            self.command(f"USER {user_arg}")
        except ProtocolError as exc:
            if exc.code in (530, 535):
                raise AuthenticationError(str(exc)) from exc
            raise
        self.logged_in_as = self.server_session.account.username
        return self.logged_in_as

    # -- session parameter helpers ---------------------------------------------------

    def apply_options(self, options: TransferOptions) -> None:
        """Push transfer options to the server (idempotent per option set)."""
        if self._options_applied == options:
            return
        commands = ["TYPE I", "MODE E", f"OPTS RETR Parallelism={options.parallelism};"]
        commands.append("PBSZ 0")
        commands.append(f"PROT {options.protection.value}")
        if options.dcau is DCAUMode.SUBJECT and options.dcau_subject:
            commands.append(f"DCAU S {options.dcau_subject}")
        else:
            commands.append(f"DCAU {options.dcau.value}")
        if options.tcp_window_bytes:
            commands.append(f"SBUF {options.tcp_window_bytes}")
        if self._options_fastpath:
            # Charge-only replay for a pooled session: every command in
            # this pipeline is a deterministic state-setter on the server
            # session (TYPE/MODE/OPTS/PBSZ/PROT/DCAU/SBUF), so we apply
            # the identical state mutations directly and advance the
            # clock by exactly what ControlChannel.pipeline would charge.
            # Anything malformed falls through to the real pipeline so
            # protocol errors surface exactly as uncached.
            self._options_fastpath = False
            updates = _options_server_state(options)
            if updates is not None:
                channel = self.channel
                channel._check_open()
                self.world.clock.advance(
                    channel.rtt_s + channel.proc_time_s * len(commands)
                )
                server_session = self.server_session
                for attr, value in updates:
                    setattr(server_session, attr, value)
                self._options_applied = options
                return
        for lines in self.channel.pipeline(commands):
            raise_for_reply(Reply.parse(lines[-1]))
        self._options_applied = options

    def dcsc(self, blob_or_default: str) -> Reply:
        """Send a DCSC command: a P blob, or "D" to revert."""
        if blob_or_default.upper() == "D":
            return self.command("DCSC D")
        return self.command(f"DCSC P {blob_or_default}")

    # -- namespace convenience ------------------------------------------------------

    def pwd(self) -> str:
        """Current working directory (PWD)."""
        reply = self.command("PWD")
        return reply.text.split('"')[1]

    def cwd(self, path: str) -> None:
        """Change working directory (CWD)."""
        self.command(f"CWD {path}")

    def mkdir(self, path: str) -> None:
        """Create a directory (MKD)."""
        self.command(f"MKD {path}")

    def delete(self, path: str) -> None:
        """Remove a file (DELE)."""
        self.command(f"DELE {path}")

    def rename(self, old: str, new: str) -> None:
        """Move a file (RNFR/RNTO)."""
        self.command(f"RNFR {old}")
        self.command(f"RNTO {new}")

    def size(self, path: str) -> int:
        """Remote file size in bytes (SIZE)."""
        return int(self.command(f"SIZE {path}").text)

    def checksum(self, path: str, algorithm: str = "sha256") -> str:
        """Server-side checksum of a file (CKSM)."""
        return self.command(f"CKSM {algorithm} {path}").text

    def list_dir(self, path: str = "") -> list[str]:
        """Names in a directory (LIST)."""
        lines = self.command_lines(f"LIST {path}".strip())
        return [l.strip() for l in lines[1:-1]]

    def features(self) -> list[str]:
        """The server's FEAT extension labels."""
        lines = self.command_lines("FEAT")
        return [l.strip() for l in lines[1:-1]]

    def supports(self, feature: str) -> bool:
        """True if the server advertises ``feature`` in FEAT."""
        return feature.upper() in {f.upper() for f in self.features()}

    def quit(self) -> None:
        """Close the session (QUIT)."""
        self.command("QUIT")
        self.channel.close()

    def release(self) -> None:
        """Give the session back: to the pool if pooled, else close it.

        Pool-ineligible sessions (failed auth, chaos-closed channel,
        credential past its delegation half-life) are closed outright,
        exactly as a non-pooled caller would.
        """
        if self._pooled and caching_enabled():
            ControlChannelPool.for_world(self.world).release(self)
        else:
            self.channel.close()

    # -- data port negotiation ----------------------------------------------------------

    def passive(self) -> tuple[str, int]:
        """PASV; returns the server's data address."""
        reply = self.command("PASV")
        addr = reply.text.split("(", 1)[1].rstrip(")")
        host, _, port_s = addr.rpartition(":")
        return (host, int(port_s))

    def striped_passive(self) -> list[tuple[str, int]]:
        """SPAS; returns one data address per stripe."""
        lines = self.command_lines("SPAS")
        out: list[tuple[str, int]] = []
        for line in lines[1:-1]:
            host, _, port_s = line.strip().rpartition(":")
            out.append((host, int(port_s)))
        return out

    def port(self, addr: tuple[str, int]) -> None:
        """Tell the server where to connect (PORT)."""
        self.command(f"PORT {addr[0]}:{addr[1]}")

    def striped_port(self, addrs: list[tuple[str, int]]) -> None:
        """Striped PORT (SPOR) with one address per stripe."""
        arg = " ".join(f"{h}:{p}" for h, p in addrs)
        self.command(f"SPOR {arg}")

    def rest(self, ranges: ByteRangeSet) -> None:
        """Send a restart marker (REST) with the held ranges."""
        self.command(f"REST {format_restart_marker(ranges)}")

    # -- whole-file operations ------------------------------------------------------------

    def get(
        self,
        remote_path: str,
        local_path: str,
        options: TransferOptions | None = None,
        restart: ByteRangeSet | None = None,
    ) -> TransferResult:
        """RETR ``remote_path`` into the client's local storage."""
        client = self.client
        if client.local_storage is None:
            raise TransferError("client has no local storage configured")
        options = options or TransferOptions()
        self.apply_options(options)
        if restart is not None:
            self.rest(restart)  # the ranges we already hold
        self.command(f"RETR {remote_path}")
        intent = self.server_session.take_intent()
        assert intent.data is not None
        source = SourceSpec(
            hosts=self.server.dtp_hosts,
            data=intent.data,
            security=self.server_session.data_channel_security(),
            needed=intent.needed,
        )
        sink = client.local_storage.open_write(
            local_path, 0, intent.data.size, resume=restart is not None
        )
        sink_spec = SinkSpec(
            hosts=(client.host,),
            sink=sink,
            security=client.data_channel_security(options.dcau),
        )
        result = client.engine.execute(source, sink_spec, options)
        self.server.record_transfer(result, "retrieve", intent.path,
                                    mode=self.server_session.mode)
        return result

    def put(
        self,
        local_path: str,
        remote_path: str,
        options: TransferOptions | None = None,
        restart: ByteRangeSet | None = None,
    ) -> TransferResult:
        """STOR the client's local file to ``remote_path``."""
        client = self.client
        if client.local_storage is None:
            raise TransferError("client has no local storage configured")
        options = options or TransferOptions()
        self.apply_options(options)
        data = client.local_storage.open_read(local_path, 0)
        needed = None
        if restart is not None:
            needed = restart.complement(data.size)
            self.rest(restart)
        self.passive()
        self.command(f"STOR {remote_path}")
        intent = self.server_session.take_intent()
        sink = self.server_session.make_sink(intent, data.size)
        source = SourceSpec(
            hosts=(client.host,),
            data=data,
            security=client.data_channel_security(options.dcau),
            needed=needed,
        )
        sink_spec = SinkSpec(
            hosts=self.server.dtp_hosts,
            sink=sink,
            security=self.server_session.data_channel_security(),
        )
        result = client.engine.execute(source, sink_spec, options)
        self.server.record_transfer(result, "store", intent.path,
                                    mode=self.server_session.mode)
        return result

    def get_partial(
        self,
        remote_path: str,
        offset: int,
        length: int,
        local_path: str,
        options: TransferOptions | None = None,
    ) -> TransferResult:
        """ERET: retrieve only [offset, offset+length) of a remote file.

        The local file is created at the remote file's full size with
        just that window populated (the partial persists, so later
        windows can fill in around it).
        """
        client = self.client
        if client.local_storage is None:
            raise TransferError("client has no local storage configured")
        options = options or TransferOptions()
        self.apply_options(options)
        size = self.size(remote_path)
        self.command(f"ERET P {offset} {length} {remote_path}")
        intent = self.server_session.take_intent()
        assert intent.data is not None
        source = SourceSpec(
            hosts=self.server.dtp_hosts,
            data=intent.data,
            security=self.server_session.data_channel_security(),
            needed=intent.needed,
        )
        sink = client.local_storage.open_write(local_path, 0, size, resume=True)
        sink_spec = SinkSpec(
            hosts=(client.host,),
            sink=sink,
            security=client.data_channel_security(options.dcau),
        )
        # a window transfer cannot verify the whole-file fingerprint;
        # finalize only once the accumulated windows cover the file.
        complete = sink.received.union(
            intent.needed if intent.needed is not None else sink.received
        ).covers(size)
        result = client.engine.execute(source, sink_spec, options,
                                       finalize=complete)
        self.server.record_transfer(result, "retrieve-partial", intent.path,
                                    mode=self.server_session.mode)
        return result

    def get_many(
        self,
        paths: list[tuple[str, str]],
        options: TransferOptions | None = None,
    ) -> list[TransferResult]:
        """Fetch many (remote, local) files.

        Honours the two lots-of-small-files optimizations from the paper:

        * **pipelining** — all RETR commands stream back-to-back in one
          round trip instead of one round trip each;
        * **concurrency** — ``options.concurrency`` files move at once;
          the elapsed virtual time is the concurrent makespan.

        Data channels are mode E cached: only the first file pays
        channel setup.
        """
        client = self.client
        if client.local_storage is None:
            raise TransferError("client has no local storage configured")
        options = options or TransferOptions()
        self.apply_options(options)

        intents: list[tuple[TransferIntent, str]] = []
        if options.pipelining:
            batches = self.channel.pipeline([f"RETR {r}" for r, _ in paths])
            for (remote, local), lines in zip(paths, batches):
                raise_for_reply(Reply.parse(lines[-1]))
                intents.append((self.server_session.take_intent(), local))
        else:
            for remote, local in paths:
                self.command(f"RETR {remote}")
                intents.append((self.server_session.take_intent(), local))

        results: list[TransferResult] = []
        k = max(1, options.concurrency)
        lane_time = [0.0] * k
        for i, (intent, local) in enumerate(intents):
            assert intent.data is not None
            source = SourceSpec(
                hosts=self.server.dtp_hosts,
                data=intent.data,
                security=self.server_session.data_channel_security(),
            )
            sink = client.local_storage.open_write(local, 0, intent.data.size)
            sink_spec = SinkSpec(
                hosts=(client.host,),
                sink=sink,
                security=client.data_channel_security(options.dcau),
            )
            result = client.engine.execute(
                source,
                sink_spec,
                options,
                charge_setup=(i < k),  # one channel set per lane
                advance_clock=False,
            )
            lane = min(range(k), key=lane_time.__getitem__)
            lane_time[lane] += result.duration_s
            results.append(result)
            self.server.record_transfer(result, "retrieve", intent.path,
                                        mode=self.server_session.mode)
        self.world.advance(max(lane_time) if lane_time else 0.0)
        return results


def _parse_cert_chain(pem_bytes: bytes) -> list[Certificate]:
    """Certificates from concatenated PEM (server AUTH reply)."""
    text = pem_bytes.decode("ascii", errors="replace")
    return [Certificate.from_der(der)
            for label, der in pem_decode_all(text)
            if label == "CERTIFICATE"]


def globus_url_copy(
    world: World,
    src_url: str,
    dst_url: str,
    client: GridFTPClient,
    options: TransferOptions | None = None,
) -> TransferResult:
    """The command-line workhorse from paper Section IV.E.

    Supports ``gsiftp -> file`` (get), ``file -> gsiftp`` (put), and
    ``gsiftp -> gsiftp`` (third-party transfer).
    """
    src = GridFTPUrl.parse(src_url)
    dst = GridFTPUrl.parse(dst_url)
    options = options or TransferOptions()
    if src.scheme == "gsiftp" and dst.scheme == "file":
        session = client.connect((src.host, src.port))
        try:
            return session.get(src.path, dst.path, options)
        finally:
            session.quit()
    if src.scheme == "file" and dst.scheme == "gsiftp":
        session = client.connect((dst.host, dst.port))
        try:
            return session.put(src.path, dst.path, options)
        finally:
            session.quit()
    if src.scheme == "gsiftp" and dst.scheme == "gsiftp":
        from repro.gridftp.third_party import third_party_transfer

        src_session = client.connect((src.host, src.port))
        dst_session = client.connect((dst.host, dst.port))
        try:
            return third_party_transfer(
                src_session, src.path, dst_session, dst.path, options
            )
        finally:
            src_session.quit()
            dst_session.quit()
    raise ProtocolError(f"unsupported URL pair {src_url!r} -> {dst_url!r}", code=501)
