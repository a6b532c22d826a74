"""A read the schema check refuses collapses nothing, over the wire too.

A wire read that touches a pending booking queues on the writer
(``Session.read`` → ``QuantumDatabase.read``), which checks the read
against the store's schema before it grounds anything.  So a refused read
answers ``schema_error`` and the booking it touched is still pending.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import NetworkServer, QuantumServer
from repro.errors import SchemaError, UnknownTableError
from repro.server.protocol import encode_frame
from tests.server.test_inline_reads import booking, make_qdb, read_frame, run

#: Wire reads of Mickey's booking the check refuses (all ``schema_error``).
MICKEY = {"request": "Bookings", "terms": ["Mickey", None, None]}
REFUSED = {
    "unbound-select": {**MICKEY, "select": ["nope"]},
    "wrong-arity": {**MICKEY, "terms": ["Mickey", None]},
    "unknown-table": {**MICKEY, "request": "Nope"},
}


@pytest.mark.parametrize("read", REFUSED.values(), ids=REFUSED.keys())
def test_a_refused_wire_read_answers_schema_error_and_collapses_nothing(read):
    async def main():
        qdb = make_qdb()
        async with NetworkServer(qdb) as net:
            reader, writer = await asyncio.open_connection("127.0.0.1", net.port)
            commit = {"op": "commit", "id": 1, "text": booking("Mickey", 1)}
            writer.write(encode_frame(commit))
            assert (await read_frame(reader))["value"]["pending"]
            writer.write(encode_frame({"op": "read", "id": 2, **read}))
            frame = await read_frame(reader)
            assert frame["op"] == "error" and frame["id"] == 2
            assert frame["code"] == "schema_error"
            assert qdb.pending_count == 1
            # The connection still serves, and a well-formed read collapses.
            writer.write(encode_frame({"op": "read", "id": 3, **MICKEY}))
            frame = await read_frame(reader)
            assert frame["op"] == "result" and len(frame["value"]) == 1
            assert qdb.pending_count == 0
            writer.close()

    run(main())


@pytest.mark.parametrize(
    "terms, shape, error",
    [
        (["Mickey", None, None], {"select": ["nope"]}, SchemaError),
        (["Mickey", None, None], {"limit": -1}, SchemaError),
        (["Mickey", None], {}, SchemaError),
    ],
    ids=["unbound-select", "negative-limit", "wrong-arity"],
)
def test_a_refused_session_read_collapses_nothing(terms, shape, error):
    async def main():
        qdb = make_qdb()
        async with QuantumServer(qdb) as server:
            async with server.session(client="Mickey") as session:
                result = await session.commit(booking("Mickey", 1))
                assert result.pending
                with pytest.raises(error):
                    await session.read("Bookings", terms, **shape)
                assert qdb.pending_count == 1
                with pytest.raises(UnknownTableError):
                    await session.read("Nope", ["Mickey"])
                assert qdb.pending_count == 1
                assert len(await session.read("Bookings", ["Mickey", None, None])) == 1
                assert qdb.pending_count == 0

    run(main())
