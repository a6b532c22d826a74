"""Per-tenant backpressure.

The global queue bound still applies; ``ServerConfig(tenant_quota=N)``
additionally caps the *combined* queued commit items of every session
opened under the same tenant name, raising the typed
:class:`~repro.errors.TenantBackpressure` beyond it — a tenant opening
many sessions (or, over TCP, many connections) cannot multiply its share.
A session runs one operation at a time, so it holds at most one slot.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.errors import TenantBackpressure
from repro.server import QuantumServer, ServerConfig
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database

SPEC = FlightDatabaseSpec(num_flights=2, rows_per_flight=6)


def make_qdb() -> QuantumDatabase:
    return QuantumDatabase(build_flight_database(SPEC), QuantumConfig(k=16))


def booking(name: str, flight: int) -> str:
    return (
        f"-Available({flight}, ?s), +Bookings('{name}', {flight}, ?s)"
        f" :-1 Available({flight}, ?s)"
    )


def test_quota_slots_recycle_after_completion():
    async def scenario():
        qdb = make_qdb()
        config = ServerConfig(tenant_quota=1)
        async with QuantumServer(qdb, config) as server:
            async with server.session(client="steady", tenant="acme") as session:
                # Sequential awaits never trip the quota: each slot is
                # released when its item resolves.
                for index in range(5):
                    result = await session.commit(booking(f"s{index}", 100))
                    assert result.committed
                assert server.statistics.tenant_rejections == 0

    asyncio.run(scenario())


def test_no_quota_means_no_typed_errors():
    async def scenario():
        qdb = make_qdb()
        async with QuantumServer(qdb, ServerConfig()) as server:
            sessions = [
                server.session(client=f"burst{i}", tenant="acme") for i in range(8)
            ]
            tasks = [
                asyncio.ensure_future(session.commit(booking(f"b{i}", 100)))
                for i, session in enumerate(sessions)
            ]
            results = await asyncio.gather(*tasks)
            assert all(r.committed for r in results)
            assert server.statistics.tenant_rejections == 0
            assert server.statistics.queue_high_water == 8

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Tenant quota: the second rung of the backpressure ladder
# ---------------------------------------------------------------------------


def test_tenant_quota_caps_combined_sessions():
    """Four sessions of one tenant share the tenant's quota: scheduling a
    commit on each against ``tenant_quota=2`` refuses two with the typed
    error, regardless of which session carried them."""

    async def scenario():
        qdb = make_qdb()
        config = ServerConfig(tenant_quota=2)
        async with QuantumServer(qdb, config) as server:
            sessions = [
                server.session(client=f"c{i}", tenant="acme") for i in range(4)
            ]
            futures = [
                asyncio.ensure_future(session.commit(booking(f"u{i}", 100)))
                for i, session in enumerate(sessions)
            ]
            results = await asyncio.gather(*futures, return_exceptions=True)
            refused = [r for r in results if isinstance(r, TenantBackpressure)]
            committed = [r for r in results if not isinstance(r, Exception)]
            assert len(refused) == 2
            assert len(committed) == 2
            assert server.statistics.tenant_rejections == 2
            # The refused submissions never entered the system.
            assert server.statistics.commits == 2
            # Refusals must not leak quota slots: sequential submissions
            # afterwards sail through.
            for index, session in enumerate(sessions):
                assert (await session.commit(booking(f"v{index}", 101))).committed
                await session.close()

    asyncio.run(scenario())


def test_tenant_quota_isolates_other_tenants():
    """A flooding tenant trips only its own quota; a different tenant and a
    tenant-less session submit untouched."""

    async def scenario():
        qdb = make_qdb()
        config = ServerConfig(tenant_quota=1)
        async with QuantumServer(qdb, config) as server:
            flooders = [
                server.session(client=f"flooder{i}", tenant="noisy")
                for i in range(4)
            ]
            other = server.session(client="other", tenant="quiet")
            free = server.session(client="free")  # no tenant: exempt
            flood = [
                asyncio.ensure_future(flooder.commit(booking(f"f{i}", 100)))
                for i, flooder in enumerate(flooders)
            ]
            other_future = asyncio.ensure_future(other.commit(booking("o", 101)))
            free_future = asyncio.ensure_future(free.commit(booking("n", 101)))
            results = await asyncio.gather(*flood, return_exceptions=True)
            refused = [r for r in results if isinstance(r, TenantBackpressure)]
            assert len(refused) == 3
            assert (await other_future).committed
            assert (await free_future).committed
            # Every refusal was the flooding tenant's.
            assert server.statistics.tenant_rejections == len(refused)
            for session in (*flooders, other, free):
                await session.close()

    asyncio.run(scenario())


def test_tenant_quota_validated_at_configuration_time():
    from repro.errors import QuantumError

    with pytest.raises(QuantumError):
        ServerConfig(tenant_quota=0)
    with pytest.raises(QuantumError):
        ServerConfig(tenant_quota=-3)


def test_zero_queue_depth_rejected_at_configuration_time():
    # ``asyncio.Queue(maxsize=0)`` is unbounded: a zero depth would turn
    # the global bound off instead of refusing every commit.
    from repro.errors import QuantumError

    with pytest.raises(QuantumError):
        ServerConfig(queue_depth=0)
    with pytest.raises(QuantumError):
        ServerConfig(queue_depth=-1)
    assert ServerConfig(queue_depth=1).queue_depth == 1


def test_one_session_pipelining_never_trips_its_tenant_quota():
    """A session runs one operation at a time, so it holds one tenant
    slot at most: commits gathered on it wait for their turn instead of
    being refused, even against ``tenant_quota=1``."""

    async def scenario():
        qdb = make_qdb()
        config = ServerConfig(tenant_quota=1)
        async with QuantumServer(qdb, config) as server:
            async with server.session(client="eager", tenant="acme") as session:
                results = await asyncio.gather(
                    *(session.commit(booking(f"e{i}", 100)) for i in range(4))
                )
                assert all(result.committed for result in results)
                assert server.statistics.tenant_rejections == 0
                assert server.statistics.queue_high_water == 1
                assert server.statistics.commits == 4

    asyncio.run(scenario())


def _cancel_one_waiting_on_the_full_queue(config: ServerConfig, tenant=None):
    """Three sessions commit at once against ``queue_depth=1``; the second
    is cancelled while it waits for room in the queue.  Returns the
    server's statistics, the three outcomes and the server's tenant map
    after the run."""

    async def scenario():
        qdb = make_qdb()
        async with QuantumServer(qdb, config) as server:
            sessions = [
                server.session(client=f"q{i}", tenant=tenant) for i in range(3)
            ]
            tasks = [
                asyncio.ensure_future(session.commit(booking(f"q{i}", 100)))
                for i, session in enumerate(sessions)
            ]
            await asyncio.sleep(0)
            tasks[1].cancel()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            tenants = dict(server._tenant_in_flight)
            for session in sessions:
                await session.close()
            return server.statistics, outcomes, tenants

    return asyncio.run(scenario())


def test_a_commit_cancelled_on_the_full_queue_is_withdrawn_and_counted():
    statistics, outcomes, _ = _cancel_one_waiting_on_the_full_queue(
        ServerConfig(queue_depth=1)
    )
    assert isinstance(outcomes[1], asyncio.CancelledError)
    assert outcomes[0].committed and outcomes[2].committed
    # It never reached the queue: the writer saw two items, two commits.
    assert statistics.items == 2
    assert statistics.commits == 2
    assert statistics.cancelled_before_admission == 1


def test_a_commit_cancelled_on_the_full_queue_returns_its_tenant_slot():
    statistics, outcomes, tenants = _cancel_one_waiting_on_the_full_queue(
        ServerConfig(queue_depth=1, tenant_quota=3), tenant="acme"
    )
    assert isinstance(outcomes[1], asyncio.CancelledError)
    assert statistics.tenant_rejections == 0
    assert statistics.cancelled_before_admission == 1
    assert tenants.get("acme", 0) == 0
