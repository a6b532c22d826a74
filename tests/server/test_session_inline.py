"""Session operations that change nothing are answered without the queue.

An in-process ``Session.read`` that touches nothing pending, and a
``check_in`` or ``ground`` that names nothing pending, need no writer
step: the session answers at once (``QuantumServer.read_untouched`` /
``nothing_to_ground``), between two writer steps.  These tests hold the
boundary of that shortcut: a session's own queued work is never
overtaken, a session answering in a loop lets the writer run, the writer
steps it reads between are synchronous, and a closed server refuses an
inline answer exactly as it refuses a queued one.
"""

from __future__ import annotations

import ast
import asyncio
import inspect
import textwrap

import pytest

from repro import NetClient, NetworkServer, QuantumServer, ServerConfig
from repro.core.parser import parse_transaction
from repro.core.quantum_database import QuantumDatabase
from repro.errors import QuantumError
from repro.server.protocol import encode_frame
from repro.server.session import YIELD_EVERY
from tests.server.test_inline_reads import booking, make_qdb, read_frame, run

#: With and without a session quota: the in-flight count that keeps a
#: session's inline answers behind its own queued items must not depend
#: on it.
QUOTAS = pytest.mark.parametrize("quota", [None, 4], ids=["no-quota", "quota"])

GOOFY = ("Bookings", ["Goofy", None, None])
MICKEY = ("Bookings", ["Mickey", None, None])


def counters(server: QuantumServer) -> tuple[int, int, int, int, int]:
    stats = server.statistics
    return (
        stats.items,
        stats.reads,
        stats.reads_inline,
        stats.grounds,
        stats.grounds_inline,
    )


# ---------------------------------------------------------------------------
# What is answered at once, and what still queues
# ---------------------------------------------------------------------------


def test_untouched_read_and_settled_check_in_skip_the_queue():
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb) as server:
            async with server.session(client="Mickey") as session:
                pending = await session.commit(booking("Mickey", 1))
                grounded = await session.commit(booking("Minnie", 2))
                record = await session.check_in(grounded.transaction_id)
                items, reads, inline, grounds, grounds_inline = counters(server)
                assert await session.read(*GOOFY) == [{"_1": 2, "_2": "s9"}]
                assert await session.check_in(grounded.transaction_id) == record
                assert await session.ground([grounded.transaction_id]) == []
                assert await session.ground([]) == []
                assert counters(server) == (
                    items, reads, inline + 1, grounds, grounds_inline + 3
                )
                assert qdb.state.is_pending(pending.transaction_id)
                # PEEK keeps the queue, as does a read that touches the
                # pending booking (it collapses it).
                assert len(await session.read(*MICKEY, mode="PEEK")) == 1
                assert qdb.state.is_pending(pending.transaction_id)
                assert len(await session.read(*MICKEY)) == 1
                assert not qdb.state.is_pending(pending.transaction_id)
                assert counters(server)[:3] == (items + 2, reads + 2, inline + 1)

    run(main())


def test_check_in_of_an_unknown_huge_id_answers_none():
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb) as server:
            async with server.session() as session:
                assert (await session.commit(booking("Mickey", 1))).pending
                items = server.statistics.items
                assert await session.check_in(10**30) is None
                assert await session.ground([10**30]) == []
                assert server.statistics.items == items
                assert server.statistics.grounds_inline == 2
                assert qdb.pending_count == 1

    run(main())


def test_stats_opcode_carries_grounds_inline():
    async def main():
        qdb = make_qdb()
        async with NetworkServer(qdb) as net:
            client = await NetClient.connect("127.0.0.1", net.port)
            result = await client.commit(booking("Mickey", 1))
            assert (await client.check_in(result.transaction_id)) is not None
            items = net.server.statistics.items
            again = await client.check_in(result.transaction_id)
            assert again["transaction_id"] == result.transaction_id
            assert await client.ground([result.transaction_id]) == []
            report = await client.stats()
            assert report["server.grounds_inline"] == 2
            assert report["server.items"] == items
            await client.close()

    run(main())


# ---------------------------------------------------------------------------
# Order within a session
# ---------------------------------------------------------------------------


@QUOTAS
def test_a_read_pipelined_behind_the_sessions_commit_sees_it(quota):
    """Fails if the in-flight count is kept only under a session quota:
    the read would then be answered before its own commit was admitted."""

    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb, ServerConfig(session_quota=quota)) as server:
            async with server.session(client="Mickey") as session:
                result, rows = await asyncio.gather(
                    session.commit(booking("Mickey", 1)), session.read(*MICKEY)
                )
                assert result.committed
                assert len(rows) == 1 and rows[0]["_1"] == 1
                # The read collapsed the booking it saw.
                assert result.transaction_id in qdb.state.grounded_results
                assert qdb.pending_count == 0
                assert server.statistics.reads_inline == 0
                assert server.statistics.reads == 1

    run(main())


@QUOTAS
def test_a_check_in_pipelined_behind_the_sessions_commit_grounds_it(quota):
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb, ServerConfig(session_quota=quota)) as server:
            async with server.session(client="Mickey") as session:
                first = parse_transaction(booking("Mickey", 1))
                second = parse_transaction(booking("Minnie", 1))
                result, record, grounded = await asyncio.gather(
                    session.commit_batch([first, second]),
                    session.check_in(first.transaction_id),
                    session.ground([second.transaction_id]),
                )
                assert [r.committed for r in result] == [True, True]
                assert record.transaction_id == first.transaction_id
                assert record.valuation["s"]
                assert [g.transaction_id for g in grounded] == [
                    second.transaction_id
                ]
                assert qdb.pending_count == 0
                assert server.statistics.grounds == 2
                assert server.statistics.grounds_inline == 0

    run(main())


@QUOTAS
def test_in_flight_count_returns_to_zero(quota):
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb, ServerConfig(session_quota=quota)) as server:
            async with server.session(client="Mickey") as session:
                commit = asyncio.create_task(session.commit(booking("Mickey", 1)))
                await asyncio.sleep(0)
                assert session._in_flight == 1
                await commit
                assert session._in_flight == 0
                # With nothing queued, the next untouched read is inline.
                assert await session.read(*GOOFY)
                assert server.statistics.reads_inline == 1

    run(main())


# ---------------------------------------------------------------------------
# Fairness
# ---------------------------------------------------------------------------


def test_a_session_looping_on_untouched_reads_does_not_starve_a_commit():
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb) as server:
            # A task that counts the loop turns other tasks get, and the
            # count at every answer made without the queue.
            turns, seen = 0, []

            async def ticker():
                nonlocal turns
                while True:
                    turns += 1
                    await asyncio.sleep(0)

            answer = server.read_untouched

            def counted(request, session):
                seen.append(turns)
                return answer(request, session)

            server.read_untouched = counted
            ticking = asyncio.create_task(ticker())
            reader = server.session(client="Goofy")
            booker = server.session(client="Mickey")

            async def loop_reads():
                for _ in range(1000):
                    assert await reader.read(*GOOFY) == [{"_1": 2, "_2": "s9"}]

            async def book():
                result = await booker.commit(booking("Mickey", 1))
                return result, len(seen)

            reading = asyncio.create_task(loop_reads())
            result, answered = await asyncio.wait_for(book(), timeout=10)
            await reading
            assert result.committed
            assert answered < 1000  # the commit completed mid-loop
            assert len(seen) == server.statistics.reads_inline == 1000
            # The session let the loop run at least every YIELD_EVERY
            # answers.
            assert all(
                seen[i + YIELD_EVERY] > seen[i]
                for i in range(len(seen) - YIELD_EVERY)
            )
            # Queueing resets the run of unqueued answers.
            await reader.ground([result.transaction_id])
            assert reader._unqueued == 0
            ticking.cancel()

    run(main())


# ---------------------------------------------------------------------------
# The premise: an inline answer reads between two writer steps
# ---------------------------------------------------------------------------

WRITER_STEPS = [
    QuantumServer._process_drained,
    QuantumServer._process_commit_run,
    QuantumServer._process_item,
    QuantumServer._maybe_checkpoint,
    QuantumDatabase.commit_batch,
]


@pytest.mark.parametrize("step", WRITER_STEPS, ids=lambda step: step.__qualname__)
def test_writer_steps_are_synchronous(step):
    """An admission and its fsync happen inside one call that cannot
    suspend, so no other task can run between them."""
    assert not inspect.iscoroutinefunction(step)
    assert not inspect.isasyncgenfunction(step)
    assert not inspect.isgeneratorfunction(step)


def test_the_writer_loop_does_not_suspend_inside_a_drain():
    source = textwrap.dedent(inspect.getsource(QuantumServer._writer_loop))
    drains = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "drained"
    ]
    assert len(drains) == 1
    body = ast.Module(body=drains[0].body, type_ignores=[])
    assert not any(isinstance(node, ast.Await) for node in ast.walk(body))


# ---------------------------------------------------------------------------
# Refusals: inline answers refuse exactly as queued ones do
# ---------------------------------------------------------------------------


def prepared_qdb() -> tuple[QuantumDatabase, int, int]:
    """A database with Mickey's booking pending and Minnie's grounded."""
    qdb = make_qdb()
    pending = qdb.execute(booking("Mickey", 1)).transaction_id
    grounded = qdb.execute(booking("Minnie", 2)).transaction_id
    assert qdb.check_in(grounded) is not None
    return qdb, pending, grounded


def attempts(session, pending_id: int, grounded_id: int) -> dict:
    """Each operation once on the inline path and once on the queued one."""
    return {
        "read-untouched": lambda: session.read(*GOOFY),
        "read-touching": lambda: session.read(*MICKEY),
        "check-in-grounded": lambda: session.check_in(grounded_id),
        "check-in-pending": lambda: session.check_in(pending_id),
        "ground-unknown": lambda: session.ground([10**30]),
        "ground-pending": lambda: session.ground([pending_id]),
    }


async def refusals(operations: dict) -> dict[str, str]:
    refused = {}
    for name, operation in operations.items():
        with pytest.raises(QuantumError) as excinfo:
            await operation()
        refused[name] = str(excinfo.value)
    return refused


@pytest.mark.parametrize("moment", ["during", "after"])
def test_shutdown_refuses_inline_and_queued_answers_alike(moment):
    async def main():
        qdb, pending, grounded = prepared_qdb()
        server = await QuantumServer(qdb).start()
        session = server.session(client="Mickey")
        if moment == "during":
            stopping = asyncio.create_task(server.shutdown())
            await asyncio.sleep(0)
            assert server.closed and not stopping.done()
        else:
            await server.shutdown()
        refused = await refusals(attempts(session, pending, grounded))
        assert len(set(refused.values())) == 1, refused
        assert counters(server) == (0, 0, 0, 0, 0)
        if moment == "during":
            await stopping
        assert qdb.state.is_pending(pending)

    run(main())


def test_an_unstarted_server_refuses_inline_and_queued_answers_alike():
    async def main():
        qdb, pending, grounded = prepared_qdb()
        server = QuantumServer(qdb)
        session = server.session(client="Mickey")
        refused = await refusals(attempts(session, pending, grounded))
        assert len(set(refused.values())) == 1, refused
        assert "not accepting work" in refused["read-untouched"]
        assert counters(server) == (0, 0, 0, 0, 0)
        assert qdb.state.is_pending(pending)

    run(main())


@pytest.mark.parametrize(
    "request_fields",
    [
        {"op": "check_in", "transaction_id": 10**30},
        {"op": "ground", "transaction_ids": [10**30]},
    ],
    ids=["check-in", "ground"],
)
def test_check_in_and_ground_during_a_drain_answer_draining(request_fields):
    async def main():
        qdb = make_qdb()
        net = await NetworkServer(qdb).start()
        reader, writer = await asyncio.open_connection("127.0.0.1", net.port)
        writer.write(encode_frame({"op": "ping", "id": 1}))
        assert (await read_frame(reader))["op"] == "result"
        # Hold the drain after it began refusing requests, so the request
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
        writer.write(encode_frame({**request_fields, "id": 2}))
        frame = await read_frame(reader)
        assert frame["op"] == "error" and frame["id"] == 2
        assert frame["code"] == "draining"
        assert net.server.statistics.grounds_inline == 0
        release.set()
        await drain
        writer.close()

    run(main())
