"""Wire reads are answered on their connection, between two writer steps.

Only commits queue: a READ frame is the connection session's
``Session.read``, which makes the ``QuantumDatabase.read`` call at once,
whether the read touches nothing pending, collapses a pending booking or
peeks.  These tests hold the boundary of that rule over the wire: no read
makes a work item, a touched read still collapses what it touches, a
drain still refuses, and a connection pipelining reads does not starve
another connection's commit.
"""

from __future__ import annotations

import asyncio
import json
import sys
from collections import Counter

import pytest

from repro import NetClient, NetworkServer, QuantumConfig, QuantumDatabase
from repro.server.net import YIELD_EVERY
from repro.server.protocol import HEADER, encode_frame


def make_qdb() -> QuantumDatabase:
    qdb = QuantumDatabase(config=QuantumConfig(k=16))
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows("Available", [(f, f"s{i}") for f in (1, 2) for i in range(3)])
    qdb.load_rows("Bookings", [("Goofy", 2, "s9")])
    return qdb


def booking(user: str, flight: int) -> str:
    return (
        f"-Available({flight}, ?s), +Bookings('{user}', {flight}, ?s)"
        f" :-1 Available({flight}, ?s)"
    )


def run(coroutine, timeout=60):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=timeout))


async def read_frame(reader):
    header = await reader.readexactly(HEADER.size)
    (length,) = HEADER.unpack(header)
    return json.loads(await reader.readexactly(length))


def counters(net: NetworkServer) -> tuple[int, int]:
    stats = net.server.statistics
    return stats.items, stats.reads


def test_untouched_read_makes_no_work_item():
    async def main():
        qdb = make_qdb()
        async with NetworkServer(qdb) as net:
            client = await NetClient.connect("127.0.0.1", net.port)
            # A booking on flight 1 stays pending; a read of Goofy's
            # booking cannot unify with its +Bookings('Mickey', 1, ?s).
            assert (await client.commit(booking("Mickey", 1))).pending
            items, reads = counters(net)
            rows = await client.read("Bookings", ["Goofy", None, None])
            assert rows == [{"_1": 2, "_2": "s9"}]
            assert counters(net) == (items, reads + 1)
            assert qdb.pending_count == 1
            # Nor does a read of flight 2's free seats, and the stats
            # opcode shows the counters.
            rows = await client.read("Available", [2, None], limit=2)
            assert len(rows) == 2
            report = await client.stats()
            assert report["server.reads"] == reads + 2
            assert report["server.items"] == items == 1
            await client.close()

    run(main())


def test_read_touching_a_pending_booking_collapses_on_the_connection():
    async def main():
        qdb = make_qdb()
        async with NetworkServer(qdb) as net:
            client = await NetClient.connect("127.0.0.1", net.port)
            result = await client.commit(booking("Mickey", 1))
            assert result.pending
            items, reads = counters(net)
            rows = await client.read("Bookings", ["Mickey", None, None])
            assert len(rows) == 1 and rows[0]["_1"] == 1
            assert counters(net) == (items, reads + 1)
            assert qdb.pending_count == 0
            assert result.transaction_id in qdb.state.grounded_results
            await client.close()

    run(main())


def test_peek_read_makes_no_work_item():
    async def main():
        qdb = make_qdb()
        async with NetworkServer(qdb) as net:
            client = await NetClient.connect("127.0.0.1", net.port)
            assert (await client.commit(booking("Mickey", 1))).pending
            items, reads = counters(net)
            rows = await client.read("Bookings", ["Mickey", None, None], mode="PEEK")
            assert len(rows) == 1
            assert counters(net) == (items, reads + 1)
            assert qdb.pending_count == 1
            await client.close()

    run(main())


def test_read_during_a_drain_answers_draining():
    async def main():
        qdb = make_qdb()
        net = await NetworkServer(qdb).start()
        reader, writer = await asyncio.open_connection("127.0.0.1", net.port)
        writer.write(encode_frame({"op": "ping", "id": 1}))
        assert (await read_frame(reader))["op"] == "result"
        # Hold the drain after it began refusing requests, so the read
        # below arrives while it is in progress.
        release = asyncio.Event()
        shutdown = net.server.shutdown

        async def held_shutdown():
            await release.wait()
            await shutdown()

        net.server.shutdown = held_shutdown
        drain = asyncio.create_task(net.drain())
        await asyncio.sleep(0)
        assert net.draining
        writer.write(
            encode_frame(
                {"op": "read", "id": 2, "request": "Available", "terms": [1, None]}
            )
        )
        frame = await read_frame(reader)
        assert frame["op"] == "error" and frame["id"] == 2
        assert frame["code"] == "draining"
        assert net.server.statistics.reads == 0
        release.set()
        await drain
        writer.close()

    run(main())


def test_pipelined_reads_do_not_starve_another_connection():
    async def main():
        qdb = make_qdb()
        async with NetworkServer(qdb) as net:
            # A task that counts the loop turns other tasks get, and the
            # count at every read.
            turns, seen = 0, []

            async def ticker():
                nonlocal turns
                while True:
                    turns += 1
                    await asyncio.sleep(0)

            read = qdb.read

            def counted(*args, **kwargs):
                seen.append(turns)
                return read(*args, **kwargs)

            qdb.read = counted
            ticking = asyncio.create_task(ticker())
            reader, writer = await asyncio.open_connection("127.0.0.1", net.port)
            client = await NetClient.connect("127.0.0.1", net.port)
            frame = {"op": "read", "request": "Bookings", "terms": ["Goofy", None, None]}
            writer.write(
                b"".join(encode_frame({**frame, "id": i}) for i in range(1000))
            )
            commit = asyncio.create_task(client.commit(booking("Mickey", 1)))
            result = await asyncio.wait_for(commit, timeout=10)
            assert result.committed
            for i in range(1000):
                answer = await read_frame(reader)
                assert answer["id"] == i
                assert answer["value"] == [{"_1": 2, "_2": "s9"}]
            assert len(seen) == net.server.statistics.reads == 1000
            # The connection let the loop run at least every YIELD_EVERY
            # answers, however few socket reads the 1 000 requests took.
            assert seen[-1] - seen[0] >= 1000 // YIELD_EVERY - 1
            ticking.cancel()
            writer.close()
            await client.close()

    run(main())


def test_ground_and_check_in_of_an_unknown_huge_id_answer_empty():
    async def main():
        qdb = make_qdb()
        async with NetworkServer(qdb) as net:
            client = await NetClient.connect("127.0.0.1", net.port)
            assert (await client.commit(booking("Mickey", 1))).pending
            assert await client.ground([10**30]) == []
            assert await client.check_in(10**30) is None
            assert qdb.pending_count == 1
            await client.close()

    run(main())


def count_yields(monkeypatch) -> Counter:
    """``asyncio.sleep(0)`` calls, counted by the calling module."""
    counts: Counter = Counter()
    real_sleep = asyncio.sleep

    def sleep(delay, *args, **kwargs):
        if delay == 0:
            counts[sys._getframe(1).f_globals["__name__"]] += 1
        return real_sleep(delay, *args, **kwargs)

    monkeypatch.setattr(asyncio, "sleep", sleep)
    return counts


READ = {"op": "read", "request": "Bookings", "terms": ["Goofy", None, None]}
PING = {"op": "ping"}


@pytest.mark.parametrize(
    "stream",
    [[READ], [PING], [READ, PING]],
    ids=["reads", "pings", "reads and pings"],
)
def test_a_connection_yields_once_per_yield_every_requests(monkeypatch, stream):
    requests = 1024

    async def main():
        qdb = make_qdb()
        async with NetworkServer(qdb) as net:
            reader, writer = await asyncio.open_connection("127.0.0.1", net.port)
            yields = count_yields(monkeypatch)
            writer.write(
                b"".join(
                    encode_frame({**stream[i % len(stream)], "id": i})
                    for i in range(requests)
                )
            )
            for i in range(requests):
                assert (await read_frame(reader))["id"] == i
            # One rule per connection, whoever answered: the session
            # answering the reads does not yield on top of it.
            assert yields["repro.server.net"] == requests // YIELD_EVERY
            assert yields["repro.server.session"] == 0
            writer.close()

    run(main())
