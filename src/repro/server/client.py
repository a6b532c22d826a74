"""A framed asyncio TCP client for the quantum database network server.

:class:`NetClient` is the in-tree counterpart of
:class:`~repro.server.net.NetworkServer`: it speaks the length-prefixed
JSON protocol (:mod:`repro.server.protocol`), matches responses to
requests by ``id``, and rebuilds typed exceptions from ``error`` frames —
so a remote ``tenant_backpressure`` raises
:class:`~repro.errors.TenantBackpressure` exactly like an in-process
session would.

The client is also the reference implementation for other languages:
everything it needs is the frame format and the opcode tables in
:mod:`repro.server.protocol`.

Typical usage::

    client = await NetClient.connect("127.0.0.1", port, client="mickey")
    result = await client.commit(
        "-Available(?f, ?s), +Bookings('Mickey', ?f, ?s)"
        " :-1 Available(?f, ?s)"
    )
    assert result.committed
    await client.close()
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ProtocolError, QuantumError
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    Opcode,
    encode_frame,
    exception_for,
)


@dataclass(frozen=True)
class RemoteCommitResult:
    """Client-side view of one commit decision.

    The wire analogue of :class:`~repro.server.session.AdmissionResult`
    (minus the parsed transaction object, which stays server-side).
    ``grounded`` carries ``{"transaction_id", "valuation"}`` dictionaries
    for transactions grounded as a side effect of this admission.
    """

    transaction_id: int
    committed: bool
    pending: bool
    rejection_reason: str | None
    grounded: tuple[dict[str, Any], ...] = ()
    #: Which admission search decided the submission ("witness",
    #: "backtracking" or "sampled").
    method: str = "backtracking"
    #: False when the decision came from the opt-in sampling estimator.
    exact: bool = True

    def __bool__(self) -> bool:
        return self.committed

    @classmethod
    def from_value(cls, value: dict[str, Any]) -> "RemoteCommitResult":
        return cls(
            transaction_id=value["transaction_id"],
            committed=value["committed"],
            pending=value["pending"],
            rejection_reason=value.get("rejection_reason"),
            grounded=tuple(value.get("grounded") or ()),
            method=value.get("method", "backtracking"),
            exact=value.get("exact", True),
        )


class ConnectionClosed(QuantumError):
    """The server closed the connection (drain, protocol kill, or crash)."""


class NetClient:
    """One framed TCP connection to a :class:`~repro.server.net.NetworkServer`.

    Create via :meth:`connect`; usable as an async context manager.  A
    single client handles its requests sequentially on the server (the
    closed-loop model) but may pipeline: every request gets a fresh ``id``
    and the reader task resolves them in any order.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder(max_frame_bytes=max_frame_bytes)
        self._max_frame_bytes = max_frame_bytes
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._reader_task: asyncio.Task | None = None
        self._closed = False
        #: Set once the server announced a graceful drain (``goodbye``).
        self.server_said_goodbye = False

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        client: str | None = None,
        tenant: str | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> "NetClient":
        """Open a connection and bind its session identity via ``hello``.

        Args:
            host / port: the network server's listening address.
            client: user name defaulted into parsed transactions (shows up
                in ``Bookings`` rows exactly like the in-process API).
            tenant: quota group for ``ServerConfig(tenant_quota=...)``.
        """
        reader, writer = await asyncio.open_connection(host, port)
        self = cls(reader, writer, max_frame_bytes=max_frame_bytes)
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )
        await self._call(Opcode.HELLO, client=client, tenant=tenant)
        return self

    async def close(self) -> None:
        """Close the connection; pending requests fail with ConnectionClosed."""
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._fail_pending(ConnectionClosed("client closed the connection"))

    async def __aenter__(self) -> "NetClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- wire plumbing -------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self._reader.read(65536)
                if not data:
                    self._fail_pending(
                        ConnectionClosed("server closed the connection")
                    )
                    return
                for message in self._decoder.feed(data):
                    self._on_message(message)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail_pending(exc)

    def _on_message(self, message: dict[str, Any]) -> None:
        op = message["op"]
        if op == Opcode.GOODBYE.value:
            self.server_said_goodbye = True
            self._fail_pending(
                ConnectionClosed("server is draining (goodbye received)")
            )
            return
        future = self._pending.pop(message.get("id"), None)
        if future is None or future.done():
            return
        if op == Opcode.ERROR.value:
            future.set_exception(
                exception_for(message.get("code", "error"), message.get("message", ""))
            )
        elif op == Opcode.RESULT.value:
            future.set_result(message.get("value"))
        else:  # pragma: no cover - server never sends request opcodes
            future.set_exception(
                ProtocolError(f"unexpected opcode {op!r} from server")
            )

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def _call(self, op: Opcode, **fields: Any) -> Any:
        if self._closed:
            raise ConnectionClosed("client is closed")
        request_id = next(self._ids)
        message = {"op": op.value, "id": request_id}
        message.update(
            {key: value for key, value in fields.items() if value is not None}
        )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(
            encode_frame(message, max_frame_bytes=self._max_frame_bytes)
        )
        try:
            await self._writer.drain()
        except ConnectionError as exc:
            self._pending.pop(request_id, None)
            raise ConnectionClosed(str(exc)) from exc
        return await future

    # -- operations ----------------------------------------------------------

    async def commit(
        self, text: str, *, client: str | None = None, partner: str | None = None
    ) -> RemoteCommitResult:
        """Submit one resource transaction (text form) and await the decision."""
        value = await self._call(
            Opcode.COMMIT, text=text, client=client, partner=partner
        )
        return RemoteCommitResult.from_value(value)

    async def commit_batch(
        self, transactions: Sequence[str | dict[str, Any]]
    ) -> list[RemoteCommitResult]:
        """Pipeline a batch; items are strings or ``{"text", "client", "partner"}``."""
        value = await self._call(
            Opcode.COMMIT_BATCH, transactions=list(transactions)
        )
        return [RemoteCommitResult.from_value(item) for item in value]

    async def read(
        self,
        request: str,
        terms: Sequence[Any] | None = None,
        *,
        mode: str | None = None,
        select: Sequence[str] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Answer a read query (``mode`` is a :class:`ReadMode` value string)."""
        return await self._call(
            Opcode.READ,
            request=request,
            terms=list(terms) if terms is not None else None,
            mode=mode,
            select=list(select) if select is not None else None,
            limit=limit,
        )

    async def ground(self, transaction_ids: Sequence[int]) -> list[dict[str, Any]]:
        """Collapse specific pending transactions; returns grounding records."""
        return await self._call(
            Opcode.GROUND, transaction_ids=list(transaction_ids)
        )

    async def ground_all(self) -> list[dict[str, Any]]:
        """Collapse every pending transaction."""
        return await self._call(Opcode.GROUND_ALL)

    async def check_in(self, transaction_id: int) -> dict[str, Any] | None:
        """Collapse one transaction and return its valuation record."""
        return await self._call(Opcode.CHECK_IN, transaction_id=transaction_id)

    async def stats(self) -> dict[str, Any]:
        """The server's merged statistics report (``server.*`` + ``net.*``)."""
        return await self._call(Opcode.STATS)

    async def ping(self) -> bool:
        """Liveness check."""
        value = await self._call(Opcode.PING)
        return bool(value.get("pong"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<NetClient {state} pending={len(self._pending)}>"
