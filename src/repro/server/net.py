"""The network layer: a framed asyncio TCP server over the session layer.

This module puts :class:`~repro.server.service.QuantumServer` on the wire.
Each TCP connection is adapted to one ordinary
:class:`~repro.server.session.Session`, and every request but HELLO, PING,
GROUND_ALL and STATS is that session's call, so every decision path — the
single-writer admission queue, group-commit drains, cancellation
semantics — is reused *unchanged*: the network layer parses
frames and marshals results, nothing more.  Decisions over TCP are
therefore identical to in-process sessions fed the same admission order
(pinned by ``tests/server/test_net_identity.py``).

A connection handles one request at a time, so its session never has
more than one commit queued, and everything but a commit is answered at
once, between two writer steps.  Such answers never suspend, so a
connection yields the loop every
:data:`~repro.server.session.YIELD_EVERY` requests, whoever answered them.
That is the one yield rule on the wire: the session's own rule, which
paces in-process callers, never fires under a connection.

Design points (see ``docs/architecture.md``, "The network layer"):

* **Framed protocol.**  Length-prefixed JSON messages with typed opcodes
  (:mod:`repro.server.protocol`).  Malformed frames produce a typed error
  frame and a clean close — never an unhandled exception near the writer
  loop.  :func:`~repro.server.protocol.request_fields` validates each
  request once, before anything is queued (``protocol_error``).

* **Backpressure ladder.**  Tenant quota (the queued commits of all
  connections of one tenant, summed) → per-connection write buffer.  The
  first surfaces as a typed error frame (``tenant_backpressure``); the
  second guards
  the server against *slow readers*: a reply is written straight to the
  connection's transport, and a client that stops reading until the
  transport holds more than the bound unsent is disconnected
  (``slow_client_disconnects``) instead of wedging the writer or growing
  the heap.

* **Graceful drain.**  On SIGTERM (or :meth:`NetworkServer.drain`): stop
  accepting connections, refuse new requests with a ``draining`` error
  frame, let in-flight requests complete, shut the session layer down
  (which drains the admission queue and checkpoints the WAL —
  a full-snapshot fold on the in-memory log; on the segmented engine a
  base/delta lineage record plus one final compaction sweep before the
  compactor thread is joined), then push a ``goodbye`` frame and close
  every socket.
  Commits in flight at the moment of the signal keep their guarantee:
  the store and the in-memory pending set agree exactly afterwards.

* **Disconnect semantics.**  A client that vanishes mid-commit behaves
  exactly like a post-admission cancellation: the request already queued
  is processed normally (the decision stands and is durable), only the
  acknowledgement is dropped.
"""

from __future__ import annotations

import asyncio
import signal as signal_module
import socket as socket_module
from dataclasses import dataclass
from typing import Any

from repro.core.quantum_database import QuantumDatabase
from repro.errors import ProtocolError, QuantumError, ReproError
from repro.server.protocol import (
    DRAINING_CODE,
    MAX_FRAME_BYTES,
    FrameDecoder,
    Opcode,
    commit_value,
    encode_frame,
    error_frame,
    grounded_value,
    request_fields,
    result_frame,
)
from repro.server.service import QuantumServer, ServerConfig
from repro.server.session import YIELD_EVERY, Session


@dataclass(frozen=True)
class NetConfig:
    """Configuration of a :class:`NetworkServer`.

    Attributes:
        host: interface to bind (default loopback).
        port: TCP port; ``0`` (default) lets the OS pick a free one —
            read it back from :attr:`NetworkServer.port`.
        max_frame_bytes: ceiling on one frame's payload, both directions.
        write_buffer_bytes: per-connection bound on the response bytes the
            transport holds unsent; a connection that would exceed it (a
            slow reader) is disconnected rather than buffered without bound.
        drain_timeout_s: how long a graceful drain waits for in-flight
            requests before shutting the session layer down anyway.
        sock_sndbuf: when set, shrink each connection's kernel send buffer
            (``SO_SNDBUF``) — mainly for tests that need to exercise the
            slow-reader path without pumping megabytes through loopback.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_frame_bytes: int = MAX_FRAME_BYTES
    write_buffer_bytes: int = 1 << 20
    drain_timeout_s: float = 10.0
    sock_sndbuf: int | None = None

    def __post_init__(self) -> None:
        if self.max_frame_bytes < 64:
            raise QuantumError("NetConfig.max_frame_bytes must be at least 64")
        if self.write_buffer_bytes < 1:
            raise QuantumError(
                "NetConfig.write_buffer_bytes must be positive"
            )
        if self.drain_timeout_s < 0:
            raise QuantumError("NetConfig.drain_timeout_s must not be negative")


@dataclass
class NetStatistics:
    """Network-layer counters (exposed via ``statistics_report()``).

    Attributes:
        connections_opened / connections_closed: TCP connection lifecycle.
        frames_in / frames_out: complete frames decoded / written.
        bytes_in / bytes_out: raw socket bytes received / written.
        requests: request frames dispatched to a session.
        errors_sent: typed error frames answered.
        protocol_errors: connections killed by a malformed frame.
        slow_client_disconnects: connections killed by the write-buffer
            bound (the slow-reader rung of the backpressure ladder).
        draining_rejections: requests refused with a ``draining`` frame
            during graceful drain.
    """

    connections_opened: int = 0
    connections_closed: int = 0
    frames_in: int = 0
    frames_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    requests: int = 0
    errors_sent: int = 0
    protocol_errors: int = 0
    slow_client_disconnects: int = 0
    draining_rejections: int = 0


class _Connection:
    """One accepted TCP connection: a framed adapter around one Session.

    Requests on a connection are handled strictly in arrival order (the
    closed-loop client model); concurrency comes from many connections
    sharing the single-writer admission queue.  Replies go straight to the
    transport, whose buffer holds what the kernel has not taken yet; a
    reader that lets it grow past the bound is dropped.
    """

    def __init__(
        self,
        net: "NetworkServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.net = net
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder(max_frame_bytes=net.config.max_frame_bytes)
        self.session: Session | None = None
        self.closed = False
        #: True while a request handler is running (graceful drain waits
        #: for this to clear before shutting the session layer down).
        self.busy = False
        #: Requests handled so far; every YIELD_EVERY-th yields the loop.
        self.handled = 0

    # -- outbound path -------------------------------------------------------

    def send(self, message: dict[str, Any]) -> bool:
        """Write one frame to the transport; False if the connection is gone.

        This is the slow-reader guard: a connection whose transport would
        hold more than ``NetConfig.write_buffer_bytes`` unsent with this
        frame (its reader cannot keep up) is aborted here instead of
        buffering without limit or stalling the event loop.
        """
        if self.closed:
            return False
        try:
            data = encode_frame(
                message, max_frame_bytes=self.net.config.max_frame_bytes
            )
        except ProtocolError:
            # A response too large for the frame bound (e.g. a huge read
            # result): answer with a typed error instead of dying silently.
            data = encode_frame(
                error_frame(
                    message.get("id"),
                    "frame_too_large",
                    "response exceeded the frame size bound",
                )
            )
        unsent = self.writer.transport.get_write_buffer_size() + len(data)
        if unsent > self.net.config.write_buffer_bytes:
            self.net.statistics.slow_client_disconnects += 1
            self.abort()
            return False
        self.writer.write(data)
        self.net.statistics.frames_out += 1
        self.net.statistics.bytes_out += len(data)
        return True

    def abort(self) -> None:
        """Tear the connection down immediately (no flush)."""
        if self.closed:
            return
        self.closed = True
        self.writer.transport.abort()

    # -- inbound path --------------------------------------------------------

    async def run(self) -> None:
        """Read frames until EOF/error, handling each request in order."""
        try:
            while not self.closed:
                data = await self.reader.read(65536)
                if not data:
                    break  # clean EOF (possibly with a half-written frame buffered)
                self.net.statistics.bytes_in += len(data)
                try:
                    messages = self.decoder.feed(data)
                except ProtocolError as exc:
                    # Framing is byte-positional: after a corrupt frame
                    # there is no resynchronization point, so answer with
                    # one final typed error and close.
                    self.net.statistics.protocol_errors += 1
                    self.send(error_frame(None, exc))
                    break
                for message in messages:
                    self.net.statistics.frames_in += 1
                    await self._handle(message)
                    if self.closed:
                        break
                    self.handled += 1
                    if self.session is not None:
                        # The connection's rule below is the wire's one
                        # yield rule, whoever answered: its session's own
                        # run of answers never reaches YIELD_EVERY.
                        self.session._unqueued = 0
                    if self.handled % YIELD_EVERY == 0:
                        # An answer that is not a commit never suspends,
                        # nor does a read of bytes already buffered: a
                        # pipelining client would hold the loop, writer
                        # included.
                        await asyncio.sleep(0)
        except ConnectionError:
            pass
        finally:
            await self._close()

    async def _handle(self, message: dict[str, Any]) -> None:
        request_id = message.get("id")
        op = Opcode(message["op"])  # validated by the decoder
        if op in (Opcode.RESULT, Opcode.ERROR, Opcode.GOODBYE):
            self.net.statistics.protocol_errors += 1
            self.send(
                error_frame(
                    request_id,
                    "protocol_error",
                    f"{op.value} is a response opcode; clients must not send it",
                )
            )
            # Stop reading; run() falls through to _close, whose close
            # flushes the error frame before the socket goes.
            self.closed = True
            return
        if self.net.draining:
            # Stop-accepting applies to requests too: anything arriving
            # after the drain began was never processed, and the client
            # should fail over rather than wait.
            self.net.statistics.draining_rejections += 1
            self.send(
                error_frame(
                    request_id, DRAINING_CODE, "server is draining; reconnect elsewhere"
                )
            )
            return
        self.net.statistics.requests += 1
        self.busy = True
        try:
            value = await self._dispatch(op, request_fields(message))
        except ReproError as exc:
            self.net.statistics.errors_sent += 1
            self.send(error_frame(request_id, exc))
        except Exception as exc:  # pragma: no cover - defensive
            self.net.statistics.errors_sent += 1
            self.send(error_frame(request_id, "internal", repr(exc)))
        else:
            self.send(result_frame(request_id, value))
        finally:
            self.busy = False

    def _session(self) -> Session:
        """The connection's session, created lazily on first use."""
        if self.session is None:
            peer = self.writer.get_extra_info("peername")
            client = f"{peer[0]}:{peer[1]}" if peer else None
            self.session = self.net.server.session(client=client)
        return self.session

    async def _dispatch(self, op: Opcode, fields: dict[str, Any]) -> Any:
        if op is Opcode.HELLO:
            if self.session is not None:
                raise ProtocolError("hello must be the connection's first request")
            self.session = self.net.server.session(**fields)
            return {"session": self.session.session_id}
        if op is Opcode.PING:
            return {"pong": True}
        session = self._session()
        if op is Opcode.COMMIT:
            return commit_value(await session.commit(fields.pop("text"), **fields))
        if op is Opcode.COMMIT_BATCH:
            results = await session.commit_batch(
                [session._build(item.pop("text"), item) for item in fields["transactions"]]
            )
            return [commit_value(result) for result in results]
        if op is Opcode.READ:
            return await session.read(**fields)
        if op is Opcode.GROUND:
            records = await session.ground(fields["transaction_ids"])
            return [grounded_value(record) for record in records]
        if op is Opcode.GROUND_ALL:
            records = await self.net.server.ground_all()
            return [grounded_value(record) for record in records]
        if op is Opcode.CHECK_IN:
            record = await session.check_in(fields["transaction_id"])
            return grounded_value(record) if record is not None else None
        if op is Opcode.STATS:
            return self.net.statistics_report()
        raise ProtocolError(f"unhandled opcode {op.value!r}")  # pragma: no cover

    # -- teardown ------------------------------------------------------------

    async def _close(self) -> None:
        self.closed = True
        if self.session is not None:
            await self.session.close()
        # Closing flushes what the transport still holds (e.g. the final
        # error frame after a protocol violation); a peer that does not
        # take it within the bound is cut off.
        self.writer.close()
        try:
            await asyncio.wait_for(self.writer.wait_closed(), 1.0)
        except asyncio.TimeoutError:
            self.writer.transport.abort()
        except (ConnectionError, OSError):
            pass
        # Count every connection exactly once (run() reaches here once).
        self.net.statistics.connections_closed += 1
        self.net._connections.discard(self)


class NetworkServer:
    """A framed asyncio TCP front end over one :class:`QuantumServer`.

    Usable as an async context manager::

        qdb = QuantumDatabase()
        ...schema + data...
        async with NetworkServer(qdb) as net:
            client = await NetClient.connect("127.0.0.1", net.port)
            ...

    Serves a :class:`QuantumDatabase` through a fresh :class:`QuantumServer`
    built from ``server_config``.  ``__aexit__`` performs a full graceful
    drain, including the session layer's queue drain and WAL checkpoint.
    """

    def __init__(
        self,
        qdb: QuantumDatabase,
        config: NetConfig | None = None,
        *,
        server_config: ServerConfig | None = None,
    ) -> None:
        if not isinstance(qdb, QuantumDatabase):
            raise TypeError(
                f"NetworkServer serves a QuantumDatabase, not {type(qdb).__name__}"
            )
        self.server = QuantumServer(qdb, server_config)
        self.config = config or NetConfig()
        self.statistics = NetStatistics()
        self.draining = False
        self._listener: asyncio.base_events.Server | None = None
        self._port: int | None = None
        self._connections: set[_Connection] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._drain_task: asyncio.Task | None = None
        self._drained = asyncio.Event()
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``NetConfig(port=0)``)."""
        if self._port is None:
            raise QuantumError("server is not started")
        return self._port

    async def start(self) -> "NetworkServer":
        """Start the session layer (if needed) and begin accepting."""
        if self._started:
            return self
        await self.server.start()
        self._listener = await asyncio.start_server(
            self._accept, self.config.host, self.config.port
        )
        self._port = self._listener.sockets[0].getsockname()[1]
        self._started = True
        return self

    async def __aenter__(self) -> "NetworkServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.drain()

    def install_signal_handlers(
        self, signals: tuple[int, ...] = (signal_module.SIGTERM, signal_module.SIGINT)
    ) -> None:
        """Trigger a graceful drain on SIGTERM/SIGINT (idempotent)."""
        loop = asyncio.get_running_loop()
        for sig in signals:
            loop.add_signal_handler(sig, self._signal_drain)

    def _signal_drain(self) -> None:
        if self._drain_task is None:
            self._drain_task = asyncio.get_event_loop().create_task(
                self.drain(), name="repro-net-drain"
            )

    async def wait_drained(self) -> None:
        """Block until a graceful drain (e.g. from SIGTERM) completed."""
        await self._drained.wait()

    async def drain(self) -> None:
        """Graceful shutdown, in the documented order.

        1. Stop accepting TCP connections.
        2. Refuse new requests with a ``draining`` error frame while the
           in-flight ones complete (bounded by ``drain_timeout_s``).
        3. Shut the session layer down: the admission queue drains,
           grounding futures resolve, and the WAL folds into a
           snapshot checkpoint.
        4. Push a ``goodbye`` frame to every connection, then close all
           sockets.
        """
        if self.draining:
            await self._drained.wait()
            return
        self.draining = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        deadline = (
            asyncio.get_running_loop().time() + self.config.drain_timeout_s
        )
        while any(conn.busy for conn in self._connections):
            if asyncio.get_running_loop().time() >= deadline:
                break
            await asyncio.sleep(0.005)
        await self.server.shutdown()
        for conn in list(self._connections):
            # Closing flushes the goodbye; `_close` bounds the wait.
            conn.send({"op": Opcode.GOODBYE.value})
            conn.closed = True
            conn.writer.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._drained.set()

    # -- accept path ---------------------------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.draining:
            writer.close()
            return
        if self.config.sock_sndbuf is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket_module.SOL_SOCKET,
                    socket_module.SO_SNDBUF,
                    self.config.sock_sndbuf,
                )
        self.statistics.connections_opened += 1
        connection = _Connection(self, reader, writer)
        self._connections.add(connection)
        task = asyncio.get_running_loop().create_task(connection.run())
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    # -- reporting -----------------------------------------------------------

    @property
    def connection_count(self) -> int:
        """Currently open TCP connections."""
        return len(self._connections)

    def statistics_report(self) -> dict[str, Any]:
        """The session layer's report plus a ``net.*`` section."""
        report = self.server.statistics_report()
        for name, value in vars(self.statistics).items():
            report[f"net.{name}"] = value
        report["net.connections"] = self.connection_count
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "draining"
            if self.draining
            else ("listening" if self._started else "new")
        )
        return f"<NetworkServer {state} connections={self.connection_count}>"


async def serve(
    qdb: QuantumDatabase,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    config: NetConfig | None = None,
    server_config: ServerConfig | None = None,
    install_signals: bool = True,
    ready: "asyncio.Future[NetworkServer] | None" = None,
) -> None:
    """Serve ``qdb`` over TCP until a graceful drain completes.

    The one-call entry point: wraps the database in a
    :class:`QuantumServer`, starts a :class:`NetworkServer`, installs
    SIGTERM/SIGINT handlers (so ``kill <pid>`` performs the documented
    drain sequence), and returns once the drain finished.  Pass a
    ``ready`` future to learn the bound port (it resolves with the
    running :class:`NetworkServer`)::

        ready = asyncio.get_running_loop().create_future()
        task = asyncio.create_task(serve(qdb, ready=ready))
        net = await ready          # net.port is now bound
        ...
        await net.drain()          # or: os.kill(os.getpid(), SIGTERM)
        await task
    """
    if config is None:
        config = NetConfig(host=host, port=port)
    net = NetworkServer(qdb, config, server_config=server_config)
    await net.start()
    if install_signals:
        net.install_signal_handlers()
    if ready is not None and not ready.done():
        ready.set_result(net)
    await net.wait_drained()
