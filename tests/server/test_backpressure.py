"""Per-session and per-tenant backpressure.

The global queue bound still applies; ``ServerConfig(session_quota=N)``
additionally caps how many items a single session may have queued at once,
raising the typed :class:`~repro.errors.SessionBackpressure` instead of
letting that session occupy the shared queue.  One rung up,
``ServerConfig(tenant_quota=N)`` caps the *combined* in-flight items of
every session opened under the same tenant name — a tenant opening many
sessions (or, over TCP, many connections) cannot multiply its share.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.errors import SessionBackpressure, TenantBackpressure
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


def test_session_over_quota_gets_typed_error():
    async def scenario():
        qdb = make_qdb()
        config = ServerConfig(session_quota=2)
        async with QuantumServer(qdb, config) as server:
            session = server.session(client="flooder")
            # Schedule three submissions before the writer runs once: the
            # third exceeds the quota of two and must fail fast with the
            # typed error instead of queueing.
            first = asyncio.ensure_future(session.commit(booking("a", 100)))
            second = asyncio.ensure_future(session.commit(booking("b", 100)))
            third = asyncio.ensure_future(session.commit(booking("c", 100)))
            results = await asyncio.gather(first, second, third, return_exceptions=True)
            committed = [r for r in results if not isinstance(r, Exception)]
            refused = [r for r in results if isinstance(r, SessionBackpressure)]
            assert len(committed) == 2
            assert len(refused) == 1
            assert server.statistics.backpressure_rejections == 1
            # The refused submission never entered the system.
            assert server.statistics.commits == 2
            await session.close()

    asyncio.run(scenario())


def test_other_sessions_unaffected_by_backpressured_peer():
    async def scenario():
        qdb = make_qdb()
        config = ServerConfig(session_quota=1)
        async with QuantumServer(qdb, config) as server:
            flooder = server.session(client="flooder")
            polite = server.session(client="polite")
            flood = [
                asyncio.ensure_future(flooder.commit(booking(f"f{i}", 100)))
                for i in range(4)
            ]
            polite_result = asyncio.ensure_future(polite.commit(booking("p", 101)))
            results = await asyncio.gather(*flood, return_exceptions=True)
            refused = [r for r in results if isinstance(r, SessionBackpressure)]
            assert refused, "the flooder should have been backpressured"
            # The polite session's commit went through untouched.
            assert (await polite_result).committed
            # Every refusal was the flooder's.
            assert server.statistics.backpressure_rejections == len(refused)
            await flooder.close()
            await polite.close()

    asyncio.run(scenario())


def test_quota_slots_recycle_after_completion():
    async def scenario():
        qdb = make_qdb()
        config = ServerConfig(session_quota=1)
        async with QuantumServer(qdb, config) as server:
            async with server.session(client="steady") as session:
                # Sequential awaits never trip the quota: each slot is
                # released when its item resolves.
                for index in range(5):
                    result = await session.commit(booking(f"s{index}", 100))
                    assert result.committed
                assert server.statistics.backpressure_rejections == 0

    asyncio.run(scenario())


def test_zero_quota_rejected_at_configuration_time():
    from repro.errors import QuantumError

    with pytest.raises(QuantumError):
        ServerConfig(session_quota=0)
    with pytest.raises(QuantumError):
        ServerConfig(session_quota=-1)


def test_no_quota_means_no_typed_errors():
    async def scenario():
        qdb = make_qdb()
        async with QuantumServer(qdb, ServerConfig()) as server:
            async with server.session(client="burst") as session:
                tasks = [
                    asyncio.ensure_future(session.commit(booking(f"b{i}", 100)))
                    for i in range(8)
                ]
                results = await asyncio.gather(*tasks)
                assert all(r.committed for r in results)
                assert server.statistics.backpressure_rejections == 0

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Tenant quota: the second rung of the backpressure ladder
# ---------------------------------------------------------------------------


def test_tenant_quota_caps_combined_sessions():
    """Two sessions of one tenant share the tenant's quota: scheduling four
    submissions against ``tenant_quota=2`` refuses two with the typed
    error, regardless of which session carried them."""

    async def scenario():
        qdb = make_qdb()
        config = ServerConfig(tenant_quota=2)
        async with QuantumServer(qdb, config) as server:
            left = server.session(client="left", tenant="acme")
            right = server.session(client="right", tenant="acme")
            futures = [
                asyncio.ensure_future(left.commit(booking("l0", 100))),
                asyncio.ensure_future(right.commit(booking("r0", 100))),
                asyncio.ensure_future(left.commit(booking("l1", 100))),
                asyncio.ensure_future(right.commit(booking("r1", 100))),
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
            assert (await left.commit(booking("l2", 100))).committed
            assert (await right.commit(booking("r2", 100))).committed
            await left.close()
            await right.close()

    asyncio.run(scenario())


def test_tenant_quota_isolates_other_tenants():
    """A flooding tenant trips only its own quota; a different tenant and a
    tenant-less session submit untouched."""

    async def scenario():
        qdb = make_qdb()
        config = ServerConfig(tenant_quota=1)
        async with QuantumServer(qdb, config) as server:
            flooder = server.session(client="flooder", tenant="noisy")
            other = server.session(client="other", tenant="quiet")
            free = server.session(client="free")  # no tenant: exempt
            flood = [
                asyncio.ensure_future(flooder.commit(booking(f"f{i}", 100)))
                for i in range(4)
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
            for session in (flooder, other, free):
                await session.close()

    asyncio.run(scenario())


def test_session_quota_checked_before_tenant_quota():
    """The ladder's order is observable: a submission that trips *both*
    rungs reports the session quota (the lower rung), and — critically —
    the refusal consumes no tenant slot."""

    async def scenario():
        qdb = make_qdb()
        config = ServerConfig(session_quota=1, tenant_quota=1)
        async with QuantumServer(qdb, config) as server:
            session = server.session(client="both", tenant="acme")
            first = asyncio.ensure_future(session.commit(booking("a", 100)))
            second = asyncio.ensure_future(session.commit(booking("b", 100)))
            results = await asyncio.gather(first, second, return_exceptions=True)
            assert isinstance(results[1], SessionBackpressure)
            assert server.statistics.tenant_rejections == 0
            # The tenant slot released with the first commit; a fresh
            # session of the same tenant is not blocked by residue.
            other = server.session(client="sibling", tenant="acme")
            assert (await other.commit(booking("c", 100))).committed
            await session.close()
            await other.close()

    asyncio.run(scenario())


def test_tenant_quota_validated_at_configuration_time():
    from repro.errors import QuantumError

    with pytest.raises(QuantumError):
        ServerConfig(tenant_quota=0)
    with pytest.raises(QuantumError):
        ServerConfig(tenant_quota=-3)
