"""Fault injection for the network layer: misbehaving peers, dying clients,
SIGTERM mid-commit.

Every failure mode a real deployment sees must map to a *typed*, bounded
reaction — an error frame, a clean disconnect, a drain that leaves the
store and the in-memory pending set in exact agreement — never an
unhandled exception near the writer loop or a wedged server.  The drain
test mirrors ``test_shutdown_sharded.py``'s no-orphans check through the
TCP path.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal

import pytest

from repro import (
    NetClient,
    NetConfig,
    NetworkServer,
    QuantumConfig,
    QuantumDatabase,
    ServerConfig,
    serve,
)
from repro.errors import QuantumError, TenantBackpressure
from repro.relational.wal import LogRecordType
from repro.server.client import ConnectionClosed
from repro.server.protocol import HEADER, encode_frame

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def make_qdb(*, flights=6, seats=3, k=16):
    qdb = QuantumDatabase(config=QuantumConfig(k=k))
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows(
        "Available",
        [(f, f"s{i}") for f in range(1, flights + 1) for i in range(seats)],
    )
    return qdb


def booking(user, flight):
    return (
        f"-Available({flight}, ?s), +Bookings('{user}', {flight}, ?s)"
        f" :-1 Available({flight}, ?s)"
    )


def run(coroutine, timeout=60):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=timeout))


async def raw_connection(port):
    """A protocol-less TCP connection, for byte-level misbehavior."""
    return await asyncio.open_connection("127.0.0.1", port)


async def read_frame(reader):
    header = await reader.readexactly(HEADER.size)
    (length,) = HEADER.unpack(header)
    return json.loads(await reader.readexactly(length))


# ---------------------------------------------------------------------------
# Protocol violations over a real socket
# ---------------------------------------------------------------------------


class TestProtocolViolations:
    def test_garbage_bytes_get_typed_error_and_clean_close(self):
        async def main():
            qdb = make_qdb()
            async with NetworkServer(qdb) as net:
                reader, writer = await raw_connection(net.port)
                payload = b"\xff\xfe this is not a frame"
                writer.write(HEADER.pack(len(payload)) + payload)
                frame = await read_frame(reader)
                assert frame["op"] == "error"
                assert frame["code"] == "frame_corrupt"
                # The server closed its end cleanly afterwards.
                assert await reader.read() == b""
                writer.close()
                # ... and the writer loop survived: a healthy client works.
                client = await NetClient.connect("127.0.0.1", net.port)
                assert (await client.commit(booking("ok", 1))).committed
                await client.close()
                assert net.statistics.protocol_errors == 1

        run(main())

    def test_oversized_length_declaration_rejected_before_buffering(self):
        async def main():
            qdb = make_qdb()
            async with NetworkServer(qdb) as net:
                reader, writer = await raw_connection(net.port)
                # Declare 2 GiB; send no body.  The reject must be
                # immediate — nothing waits for the bytes.
                writer.write(HEADER.pack(1 << 31))
                frame = await read_frame(reader)
                assert frame["code"] == "frame_too_large"
                assert await reader.read() == b""
                writer.close()

        run(main())

    def test_response_opcode_from_client_kills_connection(self):
        async def main():
            qdb = make_qdb()
            async with NetworkServer(qdb) as net:
                reader, writer = await raw_connection(net.port)
                writer.write(
                    encode_frame({"op": "result", "id": 1, "value": None})
                )
                frame = await read_frame(reader)
                assert frame["code"] == "protocol_error"
                writer.close()
                assert net.statistics.protocol_errors == 1

        run(main())

    def test_malformed_request_fields_answer_typed_error(self):
        async def main():
            qdb = make_qdb()
            async with NetworkServer(qdb) as net:
                reader, writer = await raw_connection(net.port)
                # Valid frame, valid opcode, missing required field: the
                # connection survives and answers a typed error.
                writer.write(encode_frame({"op": "commit", "id": 5}))
                frame = await read_frame(reader)
                assert frame["op"] == "error"
                assert frame["id"] == 5
                assert frame["code"] == "protocol_error"
                # Same connection still serves a correct request.
                writer.write(
                    encode_frame(
                        {"op": "commit", "id": 6, "text": booking("ok", 1)}
                    )
                )
                frame = await read_frame(reader)
                assert frame["op"] == "result" and frame["id"] == 6
                assert frame["value"]["committed"] is True
                writer.close()

        run(main())

    def test_parse_error_maps_to_typed_frame(self):
        async def main():
            qdb = make_qdb()
            async with NetworkServer(qdb) as net:
                client = await NetClient.connect("127.0.0.1", net.port)
                from repro.errors import ParseError

                with pytest.raises(ParseError):
                    await client.commit("this is not a transaction")
                await client.close()

        run(main())


# ---------------------------------------------------------------------------
# Dying clients
# ---------------------------------------------------------------------------


class TestClientDisconnects:
    def test_disconnect_mid_commit_decision_stands(self):
        """A client that sends a commit and vanishes behaves like a
        post-admission cancellation: the decision is made and durable, only
        the acknowledgement is dropped."""

        async def main():
            qdb = make_qdb()
            async with NetworkServer(qdb) as net:
                _reader, writer = await raw_connection(net.port)
                writer.write(
                    encode_frame(
                        {"op": "commit", "id": 1, "text": booking("ghost", 1)}
                    )
                )
                await writer.drain()
                writer.close()  # gone before the response can be written
                # The admission still happens: wait (bounded) for the
                # writer to process the orphaned request.
                for _ in range(1000):
                    if qdb.pending_count == 1:
                        break
                    await asyncio.sleep(0.005)
                assert qdb.pending_count == 1
                # ... and it is durable, not just in memory.
                stored = [
                    t.transaction_id for _seq, t in qdb.pending_store.restore()
                ]
                assert len(stored) == 1
                # The grounded booking exists even though nobody is left
                # to hear about it.
                grounded = await net.server.ground_all()
                assert [g.valuation for g in grounded]

        run(main())

    def test_disconnect_with_half_written_frame_is_clean_eof(self):
        """EOF with a partial frame buffered is a normal hangup — no
        protocol error, no log noise, no effect on other connections."""

        async def main():
            qdb = make_qdb()
            async with NetworkServer(qdb) as net:
                _reader, writer = await raw_connection(net.port)
                frame = encode_frame(
                    {"op": "commit", "id": 1, "text": booking("half", 1)}
                )
                writer.write(frame[: len(frame) // 2])
                await writer.drain()
                writer.close()
                for _ in range(1000):
                    if net.statistics.connections_closed == 1:
                        break
                    await asyncio.sleep(0.005)
                assert net.statistics.connections_closed == 1
                assert net.statistics.protocol_errors == 0
                # The half frame was never dispatched.
                assert qdb.pending_count == 0
                assert net.statistics.requests == 0

        run(main())

    def test_slow_reader_is_disconnected_not_buffered_forever(self):
        """A client that requests data but never reads responses trips the
        per-connection write-buffer bound and is dropped — the third rung
        of the backpressure ladder."""

        async def main():
            qdb = make_qdb(flights=40, seats=10)
            # Tiny buffers so the test does not need to move megabytes:
            # the kernel send buffer fills after a few frames, the sender
            # task blocks in drain(), the outbound queue grows past the
            # bound, and `send` aborts the connection.
            config = NetConfig(write_buffer_bytes=4096, sock_sndbuf=2048)
            async with NetworkServer(qdb, config) as net:
                reader, writer = await raw_connection(net.port)
                sock = writer.get_extra_info("socket")
                import socket as socket_module

                sock.setsockopt(
                    socket_module.SOL_SOCKET, socket_module.SO_RCVBUF, 1024
                )
                # Ask for large read results, never read a byte back.
                request = encode_frame(
                    {
                        "op": "read",
                        "id": 1,
                        "request": "Available",
                        "terms": [None, None],
                    }
                )
                for _ in range(200):
                    writer.write(request)
                    try:
                        await writer.drain()
                    except ConnectionError:
                        break
                    if net.statistics.slow_client_disconnects:
                        break
                    await asyncio.sleep(0)
                for _ in range(1000):
                    if net.statistics.slow_client_disconnects:
                        break
                    await asyncio.sleep(0.005)
                assert net.statistics.slow_client_disconnects == 1
                writer.close()
                # The rest of the server is unaffected.
                client = await NetClient.connect("127.0.0.1", net.port)
                assert await client.ping()
                await client.close()

        run(main())


# ---------------------------------------------------------------------------
# Graceful drain (SIGTERM)
# ---------------------------------------------------------------------------


class TestGracefulDrain:
    def test_sigterm_drains_in_flight_commits_without_orphans(self):
        """SIGTERM with commits in flight: the signal handler runs the
        documented drain — in-flight requests complete and are durable, the
        WAL folds into a checkpoint, clients get goodbye frames, and the
        pending store agrees exactly with the in-memory pending set."""

        async def main():
            qdb = make_qdb(flights=8, seats=3)
            ready: asyncio.Future = asyncio.get_running_loop().create_future()
            server_task = asyncio.create_task(serve(qdb, ready=ready))
            net = await ready
            clients = [
                await NetClient.connect("127.0.0.1", net.port, client=f"c{i}")
                for i in range(4)
            ]
            in_flight = [
                asyncio.create_task(
                    clients[i % 4].commit(booking(f"u{i}", (i % 8) + 1))
                )
                for i in range(12)
            ]
            await asyncio.sleep(0)  # let the first frames hit the sockets
            os.kill(os.getpid(), signal.SIGTERM)
            await server_task  # serve() returns once the drain completed
            results = await asyncio.gather(*in_flight, return_exceptions=True)
            decided = [r for r in results if not isinstance(r, BaseException)]
            refused = [
                r
                for r in results
                if isinstance(r, (QuantumError, ConnectionClosed))
            ]
            assert len(decided) + len(refused) == 12
            assert decided, "commits in flight at SIGTERM must complete"
            # No orphans in either direction (the shutdown_sharded check,
            # through TCP): durable pending rows == in-memory pending set.
            stored = sorted(
                t.transaction_id for _seq, t in qdb.pending_store.restore()
            )
            in_memory = sorted(
                e.transaction_id for e in qdb.state.pending_transactions()
            )
            assert stored == in_memory
            records = list(qdb.database.wal.records())
            assert records and records[0].record_type is LogRecordType.CHECKPOINT
            # Every client saw the goodbye (unless it raced the close).
            assert any(c.server_said_goodbye for c in clients)
            for client in clients:
                await client.close()
            # New connections are refused after the drain.
            with pytest.raises((ConnectionError, ConnectionClosed, OSError)):
                await NetClient.connect("127.0.0.1", net.port)

        run(main())

    def test_requests_after_drain_start_get_draining_frames(self):
        async def main():
            qdb = make_qdb()
            net = await NetworkServer(qdb).start()
            client = await NetClient.connect("127.0.0.1", net.port)
            assert (await client.commit(booking("early", 1))).committed
            drain = asyncio.create_task(net.drain())
            await asyncio.sleep(0)  # the draining flag is set synchronously
            assert net.draining
            with pytest.raises((QuantumError, ConnectionClosed)) as excinfo:
                await client.commit(booking("late", 2))
            if not isinstance(excinfo.value, ConnectionClosed):
                assert "draining" in str(excinfo.value)
            await drain
            assert qdb.pending_count == 1  # only the early commit landed
            await client.close()

        run(main())

    def test_drain_is_idempotent_and_awaitable_concurrently(self):
        async def main():
            qdb = make_qdb()
            net = await NetworkServer(qdb).start()
            client = await NetClient.connect("127.0.0.1", net.port)
            assert await client.ping()
            await asyncio.gather(net.drain(), net.drain(), net.wait_drained())
            await net.drain()  # after completion: immediate no-op
            await client.close()

        run(main())


# ---------------------------------------------------------------------------
# Tenant backpressure over the wire
# ---------------------------------------------------------------------------


class TestTenantOverWire:
    def test_tenant_backpressure_maps_to_typed_frame(self):
        """The wire contract for the tenant rung: a server-side
        TenantBackpressure arrives client-side as the same typed exception
        (deterministically injected — the race itself is exercised by the
        in-process tests in test_backpressure.py)."""

        async def main():
            qdb = make_qdb()
            async with NetworkServer(
                qdb, server_config=ServerConfig(tenant_quota=8)
            ) as net:
                original = net.server._submit_commit

                async def refuse(parsed, session):
                    raise TenantBackpressure("tenant 'acme' is over quota")

                net.server._submit_commit = refuse
                client = await NetClient.connect(
                    "127.0.0.1", net.port, tenant="acme"
                )
                with pytest.raises(TenantBackpressure) as excinfo:
                    await client.commit(booking("t", 1))
                assert "over quota" in str(excinfo.value)
                # The connection survives backpressure (clients back off
                # and retry on the same socket).
                net.server._submit_commit = original
                assert (await client.commit(booking("t", 1))).committed
                await client.close()

        run(main())

    def test_two_connections_one_tenant_share_the_quota(self):
        """End-to-end: the tenant identity bound by ``hello`` reaches the
        quota accounting — both connections bill the same tenant (their
        sessions carry it), even though each has its own session."""

        async def main():
            qdb = make_qdb()
            async with NetworkServer(
                qdb, server_config=ServerConfig(tenant_quota=1)
            ) as net:
                a = await NetClient.connect("127.0.0.1", net.port, tenant="acme")
                b = await NetClient.connect("127.0.0.1", net.port, tenant="acme")
                sessions = [
                    s
                    for conn in net._connections
                    if (s := conn.session) is not None
                ]
                assert [s.tenant for s in sessions] == ["acme", "acme"]
                # Sequential traffic never trips the quota (slots recycle).
                assert (await a.commit(booking("a", 1))).committed
                assert (await b.commit(booking("b", 2))).committed
                await a.close()
                await b.close()

        run(main())
