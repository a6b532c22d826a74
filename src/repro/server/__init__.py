"""Asyncio session layer: concurrent clients over one quantum database.

The paper's admission model holds transactions in superposition and grounds
them lazily — the expensive work (composition + grounding search) is
naturally deferrable, and the PR-1 witness cache keeps the admission
critical section short.  This package turns that into a serving layer:

* :class:`QuantumServer` — owns the single-writer admission queue (every
  mutation of the shared database flows through one audited entry point),
  a group-commit drain (concurrent clients' commits share one durability
  write), and graceful shutdown (drain, WAL flush, snapshot checkpoint).
  The writer runs every admission and every grounding itself.
* :class:`Session` — one client's transaction stream: ``await
  session.commit(tx)`` for the admission guarantee (the writer's
  :class:`~repro.core.quantum_database.CommitResult`, as the synchronous
  path returns it), ``commit_batch`` to pipeline, ``read`` with isolated
  results, and ``on_grounding`` futures that resolve when value
  assignments are finally fixed.
* :class:`NetworkServer` — a framed TCP front end over a database: each
  connection is one session, and each reply is written straight to the
  connection's transport.  A COLLAPSE read that touches nothing pending
  is answered by the connection itself
  (:meth:`QuantumServer.read_untouched`); every other request queues.

Because the writer admits strictly in queue order through the ordinary
synchronous path, accept/reject decisions are identical to calling
:meth:`~repro.core.quantum_database.QuantumDatabase.execute` in the same
arrival order — concurrency never changes semantics, only interleaving.
A read that skips the queue is linearizable too: every writer step runs
synchronously on the event loop, so a connection handler only ever sees
the durable state between two steps.
See ``docs/architecture.md`` for the full design; the repository
benchmark's ``mixed_session`` workload measures its throughput.

Quickstart::

    import asyncio
    from repro import QuantumDatabase, QuantumServer

    async def main():
        qdb = QuantumDatabase()
        qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
        qdb.create_table("Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"])
        qdb.load_rows("Available", [(123, "5A"), (123, "5B")])
        async with QuantumServer(qdb) as server:
            async with server.session(client="Mickey") as session:
                result = await session.commit(
                    "-Available(?f, ?s), +Bookings('Mickey', ?f, ?s)"
                    " :-1 Available(?f, ?s)"
                )
                assert result.committed and result.pending
                seat = session.on_grounding(result.transaction_id)
                await session.check_in(result.transaction_id)
                print((await seat).valuation)

    asyncio.run(main())
"""

from repro.server.client import ConnectionClosed, NetClient, RemoteCommitResult
from repro.server.net import NetConfig, NetStatistics, NetworkServer, serve
from repro.server.protocol import FrameDecoder, Opcode, encode_frame
from repro.server.service import (
    CheckpointPolicy,
    QuantumServer,
    ServerConfig,
    ServerStatistics,
)
from repro.server.session import GroundingTarget, Session

__all__ = [
    "CheckpointPolicy",
    "ConnectionClosed",
    "FrameDecoder",
    "GroundingTarget",
    "NetClient",
    "NetConfig",
    "NetStatistics",
    "NetworkServer",
    "Opcode",
    "QuantumServer",
    "RemoteCommitResult",
    "ServerConfig",
    "ServerStatistics",
    "Session",
    "encode_frame",
    "serve",
]
