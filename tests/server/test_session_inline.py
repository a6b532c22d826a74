"""Only commits queue: a session runs one operation at a time.

A session's commit joins the writer's admission queue and holds the
session's turn until its group-commit run admitted it.  Every other
operation (a read in any mode, a check-in or ground, a blind write, and
the server's ``ground_all`` / ``checkpoint``) is the same
``QuantumDatabase`` call, made at once on the caller, between two writer
steps.  These tests hold that rule: nothing but a commit makes a work
item, a session's operations run in the order they were issued and never
put two items in the queue, a commit cancelled while it waits for its
turn is withdrawn, a session answering in a loop lets the writer run, the
writer steps it runs between are synchronous, and a closed server refuses
every operation alike.
"""

from __future__ import annotations

import ast
import asyncio
import inspect
import textwrap

import pytest

from repro import NetClient, NetworkServer, QuantumServer
from repro.core.parser import parse_transaction
from repro.core.quantum_database import QuantumDatabase
from repro.errors import QuantumError
from repro.server.protocol import encode_frame
from repro.server.session import YIELD_EVERY
from tests.server.test_inline_reads import booking, make_qdb, read_frame, run

GOOFY = ("Bookings", ["Goofy", None, None])
MICKEY = ("Bookings", ["Mickey", None, None])


def counters(server: QuantumServer) -> tuple[int, int, int, int]:
    stats = server.statistics
    return stats.items, stats.reads, stats.writes, stats.grounds


def record_admission_order(qdb: QuantumDatabase) -> list:
    """Wrap ``commit_batch`` so the test sees the writer's admission order."""
    admitted: list = []
    original = qdb.commit_batch

    def recording(transactions, **kwargs):
        admitted.extend(transactions)
        return original(transactions, **kwargs)

    qdb.commit_batch = recording  # type: ignore[method-assign]
    return admitted


# ---------------------------------------------------------------------------
# Nothing but a commit makes a work item
# ---------------------------------------------------------------------------


def test_nothing_but_a_commit_makes_a_work_item():
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb) as server:
            async with server.session(client="Mickey") as session:
                mickey = await session.commit(booking("Mickey", 1))
                minnie = await session.commit(booking("Minnie", 1))
                assert qdb.pending_count == 2
                assert counters(server) == (2, 0, 0, 0)
                # PEEK and EXPOSE_ALL collapse nothing.
                assert len(await session.read(*MICKEY, mode="PEEK")) == 1
                worlds = await session.read(*MICKEY, mode="EXPOSE_ALL")
                assert worlds and all(row["_worlds"] >= 1 for row in worlds)
                assert qdb.pending_count == 2
                # A touched COLLAPSE read grounds the booking it reads.
                assert len(await session.read(*MICKEY)) == 1
                assert not qdb.state.is_pending(mickey.transaction_id)
                # A check-in that grounds.
                record = await session.check_in(minnie.transaction_id)
                assert record.transaction_id == minnie.transaction_id
                assert qdb.pending_count == 0
                # Blind writes.
                await session.insert("Available", (3, "s0"))
                await session.delete("Available", (3, "s0"))
                assert counters(server) == (2, 3, 2, 1)
                await server.ground_all()
                await server.checkpoint()
                assert counters(server) == (2, 3, 2, 2)
                assert server.statistics.queue_high_water == 1

    run(main())


def test_check_in_of_an_unknown_huge_id_answers_none():
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb) as server:
            async with server.session() as session:
                assert (await session.commit(booking("Mickey", 1))).pending
                assert await session.check_in(10**30) is None
                assert await session.ground([10**30]) == []
                assert counters(server) == (1, 0, 0, 2)
                assert qdb.pending_count == 1

    run(main())


def test_stats_opcode_counts_answers_made_on_the_caller():
    async def main():
        qdb = make_qdb()
        async with NetworkServer(qdb) as net:
            client = await NetClient.connect("127.0.0.1", net.port)
            result = await client.commit(booking("Mickey", 1))
            assert (await client.check_in(result.transaction_id)) is not None
            again = await client.check_in(result.transaction_id)
            assert again["transaction_id"] == result.transaction_id
            assert await client.ground([result.transaction_id]) == []
            report = await client.stats()
            assert report["server.grounds"] == 3
            assert report["server.items"] == 1
            await client.close()

    run(main())


# ---------------------------------------------------------------------------
# One operation at a time, in issue order
# ---------------------------------------------------------------------------


def test_commit_read_commit_gathered_on_one_session_answer_in_issue_order():
    """The read waits for the first commit and runs before the second: it
    collapses and sees the first booking, not the second."""

    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb) as server:
            session = server.session()
            first, rows, second = await asyncio.gather(
                session.commit(booking("Mickey", 1)),
                session.read("Bookings", [None, 1, None]),
                session.commit(booking("Minnie", 1)),
            )
            assert first.committed and second.committed
            assert [row["_0"] for row in rows] == ["Mickey"]
            assert first.transaction_id in qdb.state.grounded_results
            assert qdb.state.is_pending(second.transaction_id)
            assert counters(server)[:2] == (2, 1)

    run(main())


def test_a_read_issued_behind_the_sessions_commit_sees_it():
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb) as server:
            async with server.session(client="Mickey") as session:
                result, rows = await asyncio.gather(
                    session.commit(booking("Mickey", 1)), session.read(*MICKEY)
                )
                assert result.committed
                assert len(rows) == 1 and rows[0]["_1"] == 1
                # The read collapsed the booking it saw.
                assert result.transaction_id in qdb.state.grounded_results
                assert qdb.pending_count == 0
                assert counters(server)[:2] == (1, 1)

    run(main())


def test_a_check_in_issued_behind_the_sessions_commit_grounds_it():
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb) as server:
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
                assert counters(server) == (1, 0, 0, 2)

    run(main())


def test_eight_commits_gathered_on_one_session_never_queue_two_items():
    async def main():
        qdb = make_qdb()
        admitted = record_admission_order(qdb)
        async with QuantumServer(qdb) as server:
            session = server.session()
            sent = [
                parse_transaction(booking(f"u{i}", 1 + i % 2)) for i in range(8)
            ]
            results = await asyncio.gather(*(session.commit(t) for t in sent))
            assert [r.committed for r in results] == [True] * 6 + [False] * 2
            assert admitted == sent
            stats = server.statistics
            assert stats.queue_high_water == 1
            assert stats.items == stats.commit_runs == 8

    run(main())


def test_an_idle_session_answers_without_its_lock():
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb) as server:
            async with server.session(client="Mickey") as session:
                commit = asyncio.create_task(session.commit(booking("Mickey", 1)))
                await asyncio.sleep(0)
                assert session._active == 1 and session._turn.locked()
                await commit
                assert session._active == 0 and not session._turn.locked()
                # With nothing of the session in progress, an operation
                # never touches the turn.
                turn, session._turn = session._turn, None
                assert await session.read(*GOOFY) == [{"_1": 2, "_2": "s9"}]
                assert len(await session.read(*MICKEY)) == 1
                assert await session.ground([10**30]) == []
                session._turn = turn

    run(main())


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


def test_a_commit_cancelled_while_waiting_for_its_turn_is_withdrawn():
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb) as server:
            session = server.session()
            sent = [parse_transaction(booking(f"u{i}", 1)) for i in range(3)]
            tasks = [asyncio.create_task(session.commit(t)) for t in sent]
            await asyncio.sleep(0)
            # The first commit holds the turn; the other two wait for it.
            assert session._active == 3
            tasks[1].cancel()
            first, cancelled, last = await asyncio.gather(
                *tasks, return_exceptions=True
            )
            assert isinstance(cancelled, asyncio.CancelledError)
            assert first.committed and last.committed
            stats = server.statistics
            assert stats.cancelled_before_admission == 1
            assert stats.items == stats.commits == 2
            withdrawn = sent[1].transaction_id
            assert not qdb.state.is_pending(withdrawn)
            assert withdrawn not in qdb.state.grounded_results
            assert qdb.pending_store.pending_ids() == {
                first.transaction_id,
                last.transaction_id,
            }
            assert session._active == 0
            # The session goes on.
            assert (await session.commit(booking("after", 1))).committed

    run(main())


def test_a_read_cancelled_while_waiting_for_its_turn_runs_nothing():
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb) as server:
            session = server.session()
            commit = asyncio.create_task(session.commit(booking("Mickey", 1)))
            read = asyncio.create_task(session.read(*MICKEY))
            await asyncio.sleep(0)
            read.cancel()
            assert (await commit).pending
            with pytest.raises(asyncio.CancelledError):
                await read
            assert qdb.pending_count == 1
            assert counters(server)[:2] == (1, 0)
            assert session._active == 0

    run(main())


# ---------------------------------------------------------------------------
# Fairness
# ---------------------------------------------------------------------------


def grounding_qdb(flights: int) -> QuantumDatabase:
    """``flights`` pending bookings, one per flight, and one free flight."""
    qdb = make_qdb()
    qdb.load_rows("Available", [(f, "a") for f in range(10, 11 + flights)])
    qdb.commit_batch(
        [parse_transaction(booking(f"u{f}", f)) for f in range(10, 10 + flights)]
    )
    assert qdb.pending_count == flights
    return qdb


def test_a_session_looping_on_grounding_reads_does_not_starve_a_commit():
    async def main():
        qdb = grounding_qdb(1000)
        async with QuantumServer(qdb) as server:
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
            reader = server.session(client="reader")
            booker = server.session(client="Mickey")

            async def loop_reads():
                for f in range(10, 1010):
                    rows = await reader.read("Bookings", [f"u{f}", f, None])
                    assert rows == [{"_2": "a"}]

            async def book():
                result = await booker.commit(booking("Mickey", 1010))
                return result, len(seen)

            reading = asyncio.create_task(loop_reads())
            result, answered = await asyncio.wait_for(book(), timeout=10)
            await reading
            assert result.committed
            assert answered < 1000  # the commit completed mid-loop
            # Every read grounded its booking.
            assert qdb.pending_count == 1
            assert len(seen) == server.statistics.reads == 1000
            # The session let the loop run at least every YIELD_EVERY
            # answers.
            assert all(
                seen[i + YIELD_EVERY] > seen[i]
                for i in range(len(seen) - YIELD_EVERY)
            )
            # A commit suspends, which resets the run of answers.
            assert reader._unqueued > 0
            await reader.commit(booking("Goofy", 1))
            assert reader._unqueued == 0
            ticking.cancel()

    run(main())


# ---------------------------------------------------------------------------
# The premise: an answer on the caller runs between two writer steps
# ---------------------------------------------------------------------------

WRITER_STEPS = [
    QuantumServer._process_drained,
    QuantumServer._process_commit_run,
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
# Refusals: every operation refuses alike
# ---------------------------------------------------------------------------


def prepared_qdb() -> tuple[QuantumDatabase, int, int]:
    """A database with Mickey's booking pending and Minnie's grounded."""
    qdb = make_qdb()
    pending = qdb.execute(booking("Mickey", 1)).transaction_id
    grounded = qdb.execute(booking("Minnie", 2)).transaction_id
    assert qdb.check_in(grounded) is not None
    return qdb, pending, grounded


def attempts(session, pending_id: int, grounded_id: int) -> dict:
    """Every session operation, on what grounds and on what does not."""
    return {
        "read-untouched": lambda: session.read(*GOOFY),
        "read-touching": lambda: session.read(*MICKEY),
        "read-peek": lambda: session.read(*MICKEY, mode="PEEK"),
        "check-in-grounded": lambda: session.check_in(grounded_id),
        "check-in-pending": lambda: session.check_in(pending_id),
        "ground-unknown": lambda: session.ground([10**30]),
        "ground-pending": lambda: session.ground([pending_id]),
        "insert": lambda: session.insert("Available", (3, "s0")),
        "delete": lambda: session.delete("Available", (2, "s2")),
        "commit": lambda: session.commit(booking("Goofy", 2)),
        "commit-batch": lambda: session.commit_batch([booking("Goofy", 2)]),
    }


async def refusals(operations: dict) -> dict[str, str]:
    refused = {}
    for name, operation in operations.items():
        with pytest.raises(QuantumError) as excinfo:
            await operation()
        refused[name] = str(excinfo.value)
    return refused


@pytest.mark.parametrize("moment", ["during", "after"])
def test_shutdown_refuses_every_operation_alike(moment):
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
        for operation in (server.ground_all, server.checkpoint):
            with pytest.raises(QuantumError, match="not accepting work"):
                await operation()
        assert counters(server) == (0, 0, 0, 0)
        if moment == "during":
            await stopping
        assert qdb.state.is_pending(pending)

    run(main())


def test_a_commit_waiting_for_its_turn_at_shutdown_is_refused():
    """The commit already queued completes; the one waiting behind it for
    the session's turn never reaches the queue."""

    async def main():
        qdb = make_qdb()
        server = await QuantumServer(qdb).start()
        session = server.session()
        queued = asyncio.create_task(session.commit(booking("Mickey", 1)))
        waiting = asyncio.create_task(session.commit(booking("Minnie", 1)))
        await asyncio.sleep(0)
        await server.shutdown()
        assert (await queued).committed
        with pytest.raises(QuantumError, match="not accepting work"):
            await waiting
        assert server.statistics.items == 1
        assert qdb.pending_count == 1

    run(main())


def test_an_unstarted_server_refuses_every_operation_alike():
    async def main():
        qdb, pending, grounded = prepared_qdb()
        server = QuantumServer(qdb)
        session = server.session(client="Mickey")
        refused = await refusals(attempts(session, pending, grounded))
        assert len(set(refused.values())) == 1, refused
        assert "not accepting work" in refused["read-untouched"]
        assert counters(server) == (0, 0, 0, 0)
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
        assert net.server.statistics.grounds == 0
        release.set()
        await drain
        writer.close()

    run(main())
