"""The GridFTP server protocol interpreter (server PI).

One :class:`GridFTPServer` listens on a control port; each accepted
connection gets a :class:`GridFTPSession` implementing the command state
machine: RFC 2228 security (AUTH/ADAT), the authorization callout and
setuid (Section II.C), transfer parameter commands (TYPE/MODE/OPTS/
PBSZ/PROT/DCAU/SBUF/REST), data port negotiation (PASV/PORT and striped
SPAS/SPOR), transfer verbs (RETR/STOR), and the Section V DCSC command.

Deviation from the wire protocol, documented here once: directory
listings (LIST) return their lines inline in the reply rather than over
a data channel — the simulation gains nothing from shipping listings
through the transfer engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import (
    AuthorizationError,
    CertificateError,
    PamError,
    ProtocolError,
    StorageError,
)
from repro.gridftp import replies as R
from repro.gridftp.commands import feature_labels, known_verbs, lookup, parse_command
from repro.gridftp.dcau import DataChannelSecurity, DCAUMode
from repro.gridftp.dcsc import DcscContext, decode_dcsc_blob
from repro.gridftp.restart import ByteRangeSet, parse_restart_marker
from repro.gridftp.transfer import TransferResult
from repro.net.sockets import Listener, ServerSession, Service, listen, listen_ephemeral, close_listener
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName
from repro.pki.validation import TrustStore, ValidationResult, validate_chain
from repro.storage.data import FileData
from repro.storage.dsi import DataStorageInterface, WriteSink
from repro.util.encoding import b64decode_str, b64encode_str
from repro.xio.drivers import Protection

if TYPE_CHECKING:  # pragma: no cover
    from repro.auth.accounts import Account, AccountDatabase
    from repro.gsi.authz import AuthorizationCallout
    from repro.sim.world import World


@dataclass
class TransferIntent:
    """What a RETR or STOR set up, awaiting the data channel."""

    direction: str  # "send" | "recv"
    path: str
    data: FileData | None = None  # send
    sink: WriteSink | None = None  # recv
    needed: ByteRangeSet | None = None  # restart ranges (send side)


class _DataPortService(Service):
    """Placeholder service bound to a PASV/SPAS data port.

    Nothing connects through the socket layer — the transfer engine is
    handed endpoints directly — but third-party orchestration resolves a
    PORT address back to the owning session through this object.
    """

    def __init__(self, session: "GridFTPSession") -> None:
        self.session = session

    def open_session(self, client_host: str) -> ServerSession:  # pragma: no cover
        """Accept one connection (Service interface)."""
        raise ProtocolError("data ports do not accept control sessions")


class GridFTPServer(Service):
    """One Globus GridFTP server deployment."""

    DEFAULT_PORT = 2811

    def __init__(
        self,
        world: "World",
        host: str,
        credential: Credential,
        trust: TrustStore,
        authz: "AuthorizationCallout",
        accounts: "AccountDatabase",
        dsi: DataStorageInterface,
        port: int = DEFAULT_PORT,
        dcsc_enabled: bool = True,
        usage_reporting: bool = True,
        name: str | None = None,
    ) -> None:
        self.world = world
        self.host = host
        self.port = port
        self.credential = credential
        self.trust = trust
        self.authz = authz
        self.accounts = accounts
        self.dsi = dsi
        self.dcsc_enabled = dcsc_enabled
        self.usage_reporting = usage_reporting
        self.name = name or f"gridftp@{host}"
        self.sessions: list[GridFTPSession] = []
        self._listener: Listener | None = None
        #: stripe data-mover hosts; plain servers move data themselves
        self.dtp_hosts: tuple[str, ...] = (host,)
        # bound metric children, resolved once per labelset: every
        # control-channel command and usage record goes through these
        self._cmd_counters: dict[str, Any] = {}
        self._bytes_counters: dict[tuple[str, str], Any] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "GridFTPServer":
        """Bind the control port."""
        self._listener = listen(self.world.network, self.host, self.port, self)
        self.world.emit("gridftp.server.start", "server listening", server=self.name,
                        address=f"{self.host}:{self.port}", dcsc=self.dcsc_enabled)
        return self

    def stop(self) -> None:
        """Release the listening port."""
        if self._listener is not None:
            close_listener(self.world.network, self._listener)
            self._listener = None

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) this service listens on."""
        return (self.host, self.port)

    def open_session(self, client_host: str) -> "GridFTPSession":
        """Accept one connection (Service interface)."""
        session = GridFTPSession(self, client_host)
        self.sessions.append(session)
        return session

    # -- usage telemetry (Figure 1 pipeline) -----------------------------------

    def record_transfer(
        self, result: TransferResult, direction: str, path: str, mode: str = "E"
    ) -> None:
        """Emit a usage record, if this deployment enabled reporting.

        Figure 1's caveat applies: "these numbers are based on reporting
        from GridFTP servers that choose to enable reporting".  The
        ``bytes_transferred_total`` counter is always fed — it is this
        deployment's own telemetry, not the opt-in usage pipeline.
        """
        child = self._bytes_counters.get((direction, mode))
        if child is None:
            child = self._bytes_counters[(direction, mode)] = self.world.metrics.counter(
                "bytes_transferred_total",
                "Payload bytes in server-reported transfers",
                labelnames=("direction", "mode"),
            ).labels(direction=direction, mode=mode)
        child.inc(result.nbytes)
        if not self.usage_reporting:
            return
        self.world.emit(
            "usage.record",
            "transfer usage report",
            server=self.name,
            host=self.host,
            nbytes=result.nbytes,
            duration=result.duration_s,
            direction=direction,
            path=path,
            streams=result.streams,
            stripes=result.stripes,
        )


class GridFTPSession(ServerSession):
    """Per-connection server PI state machine."""

    def __init__(self, server: GridFTPServer, client_host: str) -> None:
        self.server = server
        self.client_host = client_host
        self.world = server.world
        # security state
        self.auth_pending = False
        self.peer: ValidationResult | None = None
        self.delegated: Credential | None = None
        self.account: "Account | None" = None
        # session parameters
        self.cwd = "/"
        self.type_ = "A"
        self.mode = "S"
        self.parallelism = 1
        self.protection = Protection.CLEAR
        self.dcau_mode = DCAUMode.SELF
        self.dcau_subject: DistinguishedName | None = None
        self.tcp_window: int | None = None
        self.restart: ByteRangeSet | None = None
        self.dcsc: DcscContext | None = None
        # data channel negotiation
        self.passive_listeners: list[Listener] = []
        self.remote_ports: list[tuple[str, int]] = []
        self.pending: list[TransferIntent] = []
        self._rnfr: str | None = None
        self._stor_resume = False
        self.closed = False
        self.banner = str(R.BANNER)
        # data_channel_security() memo: (inputs..., result) — see method
        self._dcs_memo: tuple | None = None

    # -- dispatch -----------------------------------------------------------------

    def handle(self, line: str) -> list[str]:
        """Process one command line; return reply lines."""
        if self.closed:
            return [str(R.SERVICE_UNAVAILABLE)]
        try:
            cmd = parse_command(line)
        except ProtocolError:
            return [str(R.UNRECOGNIZED)]
        spec = lookup(cmd.verb)
        world = self.world
        server_name = self.server.name
        with world.tracer.span(
            "gridftp.command", verb=cmd.verb, server=server_name
        ):
            world.emit("gridftp.command", "command", server=server_name,
                       verb=cmd.verb, client=self.client_host)
            counter = self.server._cmd_counters.get(cmd.verb)
            if counter is None:
                counter = self.server._cmd_counters[cmd.verb] = self.world.metrics.counter(
                    "gridftp_commands_total", "Control-channel commands dispatched",
                    labelnames=("verb",),
                ).labels(verb=cmd.verb)
            counter.inc()
            if spec is None:
                return [str(R.UNRECOGNIZED)]
            if spec.requires_auth and self.account is None:
                return [str(R.NOT_LOGGED_IN)]
            handler = _HANDLERS.get(cmd.verb)
            if handler is None:
                return [str(R.UNRECOGNIZED)]
            try:
                return handler(self, cmd.arg)
            except ProtocolError as exc:
                return [f"{exc.code} {exc}"]
            except StorageError as exc:
                return [str(R.file_unavailable(cmd.arg or self.cwd, str(exc)))]

    def close(self) -> None:
        """Tear down per-connection state."""
        self._release_data_ports()
        self.closed = True

    def reset_for_reuse(self) -> None:
        """Restore just-logged-in defaults, keeping the security state.

        The control-channel pool parks sessions between jobs; a reused
        session must present exactly the state a freshly authenticated
        one would (transfer parameters at their defaults, no pending
        intents or data ports, cwd back at the account home) so that the
        client's option pipeline and data-port negotiation replay
        identically.  ``peer``/``delegated``/``account`` survive — they
        are what reuse amortizes.
        """
        self._release_data_ports()
        self.remote_ports = []
        self.pending.clear()
        self.restart = None
        self.dcsc = None
        self._rnfr = None
        self._stor_resume = False
        self.type_ = "A"
        self.mode = "S"
        self.parallelism = 1
        self.protection = Protection.CLEAR
        self.dcau_mode = DCAUMode.SELF
        self.dcau_subject = None
        self.tcp_window = None
        if self.account is not None:
            self.cwd = self.account.home

    # -- security ------------------------------------------------------------------

    def _cmd_auth(self, arg: str) -> list[str]:
        if arg.upper() != "GSSAPI":
            return ["504 Unknown security mechanism."]
        self.auth_pending = True
        # present the server's certificate chain (never the key) so the
        # client can authenticate *us* — the mutual half of GSI.
        chain_pem = "".join(c.to_pem() for c in self.server.credential.chain)
        return [f"334 ADAT={b64encode_str(chain_pem.encode('ascii'))}"]

    def _cmd_adat(self, arg: str) -> list[str]:
        if not self.auth_pending:
            return ["503 Bad sequence of commands: send AUTH first."]
        try:
            pem = b64decode_str(arg).decode("ascii", errors="replace")
            credential = Credential.from_pem(pem)
            self.peer = validate_chain(credential.chain, self.server.trust, self.world.now)
        except (ProtocolError, CertificateError) as exc:
            # "If authentication is not successful, the connection is dropped."
            self.closed = True
            self.world.emit("gridftp.auth.fail", "control channel auth failed",
                            server=self.server.name, reason=str(exc))
            return [f"535 Authentication failed: {exc}"]
        self.delegated = credential
        self.auth_pending = False
        self.world.emit("gridftp.auth.ok", "control channel authenticated",
                        server=self.server.name, subject=str(self.peer.subject))
        return [str(R.SECURITY_OK)]

    def _cmd_user(self, arg: str) -> list[str]:
        if self.peer is None:
            return [str(R.NOT_LOGGED_IN)]
        requested = None if arg in ("", ":globus-mapping:") else arg
        try:
            username = self.server.authz.map_subject(self.peer, requested)
            self.account = self.server.accounts.setuid(username)
        except (AuthorizationError, PamError) as exc:
            self.world.emit("gridftp.authz.fail", "authorization failed",
                            server=self.server.name, subject=str(self.peer.identity),
                            reason=str(exc))
            return [f"530 Authorization failed: {exc}"]
        self.cwd = self.account.home
        self.world.emit("gridftp.authz.ok", "authorized",
                        server=self.server.name, subject=str(self.peer.identity),
                        local_user=self.account.username, callout=self.server.authz.name)
        return [str(R.LOGGED_IN)]

    def _cmd_pass(self, arg: str) -> list[str]:
        # GSI servers do not use passwords; accept as a no-op after USER.
        return [str(R.COMMAND_OK)] if self.account else [str(R.NOT_LOGGED_IN)]

    # -- session parameters ------------------------------------------------------------

    def _cmd_type(self, arg: str) -> list[str]:
        if arg.upper() not in ("I", "A"):
            return [str(R.BAD_PARAMETER)]
        self.type_ = arg.upper()
        return [str(R.COMMAND_OK)]

    def _cmd_mode(self, arg: str) -> list[str]:
        if arg.upper() not in ("S", "E"):
            return [str(R.BAD_PARAMETER)]
        self.mode = arg.upper()
        return [str(R.COMMAND_OK)]

    def _cmd_opts(self, arg: str) -> list[str]:
        # OPTS RETR Parallelism=8,8,8;
        head, _, rest = arg.partition(" ")
        if head.upper() != "RETR":
            return [str(R.BAD_PARAMETER)]
        for clause in rest.strip().rstrip(";").split(";"):
            key, _, value = clause.partition("=")
            if key.strip().lower() == "parallelism":
                try:
                    self.parallelism = max(1, int(value.split(",")[0]))
                except ValueError:
                    return [str(R.BAD_PARAMETER)]
        return [str(R.COMMAND_OK)]

    def _cmd_pbsz(self, arg: str) -> list[str]:
        try:
            int(arg)
        except ValueError:
            return [str(R.BAD_PARAMETER)]
        return [str(R.COMMAND_OK)]

    def _cmd_prot(self, arg: str) -> list[str]:
        try:
            self.protection = Protection(arg.strip().upper())
        except ValueError:
            return [str(R.BAD_PARAMETER)]
        return [str(R.COMMAND_OK)]

    def _cmd_dcau(self, arg: str) -> list[str]:
        parts = arg.split(None, 1)
        if not parts:
            return [str(R.BAD_PARAMETER)]
        try:
            self.dcau_mode = DCAUMode.parse(parts[0])
        except Exception:
            return [str(R.BAD_PARAMETER)]
        self.dcau_subject = None
        if self.dcau_mode is DCAUMode.SUBJECT:
            if len(parts) < 2:
                return [str(R.BAD_PARAMETER)]
            self.dcau_subject = DistinguishedName.parse(parts[1])
        return [str(R.COMMAND_OK)]

    def _cmd_sbuf(self, arg: str) -> list[str]:
        try:
            self.tcp_window = int(arg)
        except ValueError:
            return [str(R.BAD_PARAMETER)]
        return [str(R.COMMAND_OK)]

    def _cmd_rest(self, arg: str) -> list[str]:
        self.restart = parse_restart_marker(arg)
        return [str(R.NEED_MORE_INFO)]

    def _cmd_dcsc(self, arg: str) -> list[str]:
        if not self.server.dcsc_enabled:
            # "a legacy GridFTP server that knows nothing about DCSC"
            return [str(R.UNRECOGNIZED)]
        parts = arg.split(None, 1)
        if not parts:
            return [str(R.BAD_PARAMETER)]
        ctx_type = parts[0].upper()
        if ctx_type == "D":
            self.dcsc = None
            self.world.emit("gridftp.dcsc", "context reverted to default",
                            server=self.server.name)
            return [str(R.COMMAND_OK)]
        if ctx_type == "P":
            if len(parts) < 2:
                return [str(R.BAD_PARAMETER)]
            self.dcsc = decode_dcsc_blob(parts[1], self.world.now)
            self.world.emit("gridftp.dcsc", "context installed",
                            server=self.server.name,
                            subject=str(self.dcsc.credential.subject))
            return [str(R.COMMAND_OK)]
        return [f"501 Unknown DCSC context type {ctx_type!r}."]

    # -- data port negotiation -----------------------------------------------------------

    def _release_data_ports(self) -> None:
        for listener in self.passive_listeners:
            close_listener(self.world.network, listener)
        self.passive_listeners = []

    def _cmd_pasv(self, arg: str) -> list[str]:
        self._release_data_ports()
        listener = listen_ephemeral(
            self.world.network, self.server.dtp_hosts[0], _DataPortService(self)
        )
        self.passive_listeners = [listener]
        return [R.PASSIVE_FMT.format(addr=f"{listener.host}:{listener.port}")]

    def _cmd_spas(self, arg: str) -> list[str]:
        self._release_data_ports()
        lines = ["229-Entering Striped Passive Mode"]
        for dtp_host in self.server.dtp_hosts:
            listener = listen_ephemeral(self.world.network, dtp_host, _DataPortService(self))
            self.passive_listeners.append(listener)
            lines.append(f" {listener.host}:{listener.port}")
        lines.append("229 End")
        return lines

    def _cmd_port(self, arg: str) -> list[str]:
        host, _, port_s = arg.rpartition(":")
        try:
            self.remote_ports = [(host, int(port_s))]
        except ValueError:
            return [str(R.BAD_PARAMETER)]
        return [str(R.COMMAND_OK)]

    def _cmd_spor(self, arg: str) -> list[str]:
        ports: list[tuple[str, int]] = []
        for item in arg.split():
            host, _, port_s = item.rpartition(":")
            try:
                ports.append((host, int(port_s)))
            except ValueError:
                return [str(R.BAD_PARAMETER)]
        if not ports:
            return [str(R.BAD_PARAMETER)]
        self.remote_ports = ports
        return [str(R.COMMAND_OK)]

    # -- namespace commands ------------------------------------------------------------

    def _resolve(self, path: str) -> str:
        if path.startswith("/"):
            return path
        base = self.cwd.rstrip("/")
        return f"{base}/{path}"

    @property
    def uid(self) -> int:
        """The setuid'd local uid of this session."""
        assert self.account is not None
        return self.account.uid

    def _cmd_pwd(self, arg: str) -> list[str]:
        return [f'257 "{self.cwd}" is the current directory.']

    def _cmd_cwd(self, arg: str) -> list[str]:
        target = self._resolve(arg)
        st = self.server.dsi.stat(target, self.uid)
        if not st.is_dir:
            return [str(R.file_unavailable(target, "Not a directory"))]
        self.cwd = target
        return ["250 CWD command successful."]

    def _cmd_mkd(self, arg: str) -> list[str]:
        target = self._resolve(arg)
        self.server.dsi.mkdir(target, self.uid)
        return [f'257 "{target}" created.']

    def _cmd_dele(self, arg: str) -> list[str]:
        self.server.dsi.delete(self._resolve(arg), self.uid)
        return ["250 DELE command successful."]

    def _cmd_rnfr(self, arg: str) -> list[str]:
        target = self._resolve(arg)
        self.server.dsi.stat(target, self.uid)  # 550 if missing
        self._rnfr = target
        return [str(R.NEED_MORE_INFO)]

    def _cmd_rnto(self, arg: str) -> list[str]:
        if self._rnfr is None:
            return ["503 Bad sequence of commands: send RNFR first."]
        self.server.dsi.rename(self._rnfr, self._resolve(arg), self.uid)
        self._rnfr = None
        return ["250 RNTO command successful."]

    def _cmd_list(self, arg: str) -> list[str]:
        target = self._resolve(arg) if arg else self.cwd
        names = self.server.dsi.listdir(target, self.uid)
        lines = ["250-Directory listing"]
        lines.extend(f" {name}" for name in names)
        lines.append("250 End")
        return lines

    def _cmd_size(self, arg: str) -> list[str]:
        st = self.server.dsi.stat(self._resolve(arg), self.uid)
        return [R.SIZE_FMT.format(size=st.size)]

    def _cmd_mdtm(self, arg: str) -> list[str]:
        st = self.server.dsi.stat(self._resolve(arg), self.uid)
        return [f"213 {st.mtime:.0f}"]

    def _cmd_cksm(self, arg: str) -> list[str]:
        # CKSM <algorithm> <path>   (offset/length args of the real
        # command are accepted and ignored when numeric)
        parts = [p for p in arg.split() if p]
        if len(parts) < 2:
            return [str(R.BAD_PARAMETER)]
        algorithm = parts[0]
        path = parts[-1]
        try:
            digest = self.server.dsi.checksum(self._resolve(path), self.uid, algorithm)
        except ValueError as exc:
            return [f"504 {exc}"]
        return [f"213 {digest}"]

    def _cmd_feat(self, arg: str) -> list[str]:
        lines = [f"{R.FEATURES_FOLLOW.code}-{R.FEATURES_FOLLOW.text}"]
        lines.extend(f" {label}" for label in feature_labels(self.server.dcsc_enabled))
        lines.append("211 End")
        return lines

    def _cmd_noop(self, arg: str) -> list[str]:
        return [str(R.COMMAND_OK)]

    def _cmd_quit(self, arg: str) -> list[str]:
        self.close()
        return [str(R.GOODBYE)]

    def _cmd_abor(self, arg: str) -> list[str]:
        self.pending.clear()
        self.restart = None
        return [str(R.TRANSFER_COMPLETE)]

    # -- transfers ---------------------------------------------------------------------

    def _cmd_retr(self, arg: str) -> list[str]:
        path = self._resolve(arg)
        data = self.server.dsi.open_read(path, self.uid)
        # REST carried the ranges the client already holds; send the rest.
        needed = self.restart.complement(data.size) if self.restart is not None else None
        self.pending.append(
            TransferIntent(direction="send", path=path, data=data, needed=needed)
        )
        self.restart = None
        return [str(R.OPENING_DATA)]

    def _cmd_stor(self, arg: str) -> list[str]:
        path = self._resolve(arg)
        resume = self.restart is not None
        # the expected size arrives with the data in mode E; the sink is
        # created lazily by take_sink() once the engine knows the size.
        self.pending.append(
            TransferIntent(direction="recv", path=path, needed=self.restart)
        )
        self._stor_resume = resume
        self.restart = None
        return [str(R.OPENING_DATA)]

    def _cmd_eret(self, arg: str) -> list[str]:
        # ERET P <offset> <length> <path> — partial retrieve
        parts = arg.split()
        if len(parts) != 4 or parts[0].upper() != "P":
            return [str(R.BAD_PARAMETER)]
        try:
            offset, length = int(parts[1]), int(parts[2])
        except ValueError:
            return [str(R.BAD_PARAMETER)]
        path = self._resolve(parts[3])
        data = self.server.dsi.open_read(path, self.uid)
        needed = ByteRangeSet([(offset, min(offset + length, data.size))])
        self.pending.append(
            TransferIntent(direction="send", path=path, data=data, needed=needed)
        )
        return [str(R.OPENING_DATA)]

    def _cmd_esto(self, arg: str) -> list[str]:
        # ESTO A <offset> <path> — adjusted store (append at offset)
        parts = arg.split()
        if len(parts) != 3 or parts[0].upper() != "A":
            return [str(R.BAD_PARAMETER)]
        path = self._resolve(parts[2])
        self.pending.append(TransferIntent(direction="recv", path=path))
        self._stor_resume = True
        return [str(R.OPENING_DATA)]

    # -- engine-facing accessors -----------------------------------------------------

    def take_intent(self) -> TransferIntent:
        """Claim the oldest pending transfer (FIFO: pipelined RETRs queue)."""
        if not self.pending:
            raise ProtocolError("no transfer pending on this session", code=503)
        return self.pending.pop(0)

    def make_sink(self, intent: TransferIntent, expected_size: int) -> WriteSink:
        """Open the storage sink for a recv intent."""
        resume = getattr(self, "_stor_resume", False) or intent.needed is not None
        return self.server.dsi.open_write(intent.path, self.uid, expected_size, resume=resume)

    def data_channel_security(self) -> DataChannelSecurity:
        """This endpoint's DCAU posture, honouring any DCSC context.

        Default: present the user's delegated proxy, accept what the
        endpoint's trust roots validate, and (mode A) expect the peer to
        be the same user.  With DCSC installed: present the blob
        credential, extend validation with the blob's certificates, and
        expect the blob's identity (paper Section V: "tell it to both
        send and accept the user credential used by the other server").
        """
        trust = self.server.trust
        # the posture is a pure function of (delegated, dcsc, dcau mode +
        # subject, peer, trust) — all rebound, never mutated, by the
        # handlers — so identity checks make a safe per-session memo;
        # trust mutates in place but bumps .version on every change
        m = self._dcs_memo
        if (
            m is not None
            and m[0] is self.delegated
            and m[1] is self.dcsc
            and m[2] is self.dcau_mode
            and m[3] is self.dcau_subject
            and m[4] is self.peer
            and m[5] is trust
            and m[6] == trust.version
        ):
            return m[7]
        credential = self.delegated
        extra_anchors: tuple = ()
        extra_intermediates: tuple = ()
        override = None
        if self.dcsc is not None:
            credential = self.dcsc.credential
            extra_anchors = self.dcsc.anchors
            extra_intermediates = self.dcsc.intermediates
            override = self.dcsc.credential.identity
        expected = None
        if self.dcau_mode is DCAUMode.SELF and self.peer is not None:
            expected = self.peer.identity
        elif self.dcau_mode is DCAUMode.SUBJECT:
            expected = self.dcau_subject
        sec = DataChannelSecurity(
            mode=self.dcau_mode,
            credential=credential,
            trust=trust,
            extra_anchors=extra_anchors,
            extra_intermediates=extra_intermediates,
            expected_identity=expected,
            expected_subject_override=override,
            endpoint_name=self.server.name,
        )
        self._dcs_memo = (
            self.delegated, self.dcsc, self.dcau_mode, self.dcau_subject,
            self.peer, trust, trust.version, sec,
        )
        return sec


#: verb -> unbound handler, resolved once at import time (the
#: per-command f-string + getattr was measurable at fleet drain rates)
_HANDLERS = {
    verb: getattr(GridFTPSession, "_cmd_" + verb.lower())
    for verb in known_verbs()
    if hasattr(GridFTPSession, "_cmd_" + verb.lower())
}
