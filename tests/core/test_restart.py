"""A restart is equivalent: what recovery restores, and what it costs.

``QuantumDatabase.recover`` decodes the pending rows, routes them into
partitions in sequence order, solves each rebuilt partition once and
enforces the ``k`` bound.  This suite holds it to the pending set it
restarts from:

* **Row forms** (``TestRowForms``): a pending row in the textual notation,
  or a malformed stored row, is a ``QuantumRecoveryError`` naming its
  transaction; the stored form is the only one recovery reads, so a table
  mixing both forms restarts only at cuts where no textual row is pending.
* **The stored form** (``TestStoredForm``): every constant type and the
  benchmark generator's transactions survive encode → decode exactly.
* **Every cut** (``TestEveryCut``): at every COMMIT boundary of the
  crash-atomicity streams each recovered partition's solution holds, the
  restart searched at most once per rebuilt partition, and a restart under
  a smaller ``k`` grounds every partition down to it.
* **The rename** (``TestTrustedRename``): the copy ``rename_variables``
  builds without validation equals the validated construction.
* **Transaction ids** (``TestTransactionIdsAfterRestart``): a new process
  hands out ids past the recovered ones.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from bench import generator as gen
from repro import QuantumConfig, QuantumDatabase, WriteAheadLog
from repro.core.parser import format_transaction, parse_transaction
from repro.core.recovery import (
    PENDING_TABLE,
    decode_transaction,
    encode_transaction,
)
from repro.core.resource_transaction import ResourceTransaction
from repro.errors import QuantumRecoveryError
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.relational import recover_database
from repro.relational.wal import LogRecordType, encode_frame

from tests.conftest import first_frames
from tests.core.test_crash_atomicity import MODES, SEEDS, drive, seat_schema
from tests.test_properties_admission import (
    booking_text,
    generate_stream,
    seat_database,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def pending_view(qdb: QuantumDatabase):
    """What a restart must reproduce, as plain comparable data."""
    entries = qdb.state.pending_transactions()
    return (
        {entry.transaction_id: entry.sequence for entry in entries},
        frozenset(
            frozenset(partition.transaction_ids()) for partition in qdb.state.partitions
        ),
        {
            entry.transaction_id: (entry.original.client, entry.original.partner)
            for entry in entries
        },
    )


def exact(transaction: ResourceTransaction):
    """A transaction's atoms with every constant's type and repr (NaN-safe)."""

    def term(t):
        if isinstance(t, Variable):
            return ("var", t.name)
        return (type(t.value), repr(t.value))

    return [
        (atom.relation, atom.kind, atom.optional, [term(t) for t in atom.terms])
        for atom in (*transaction.updates, *transaction.body)
    ]


# -- row forms -------------------------------------------------------------------


def with_rows(log: bytes, write) -> bytes:
    """``log`` with every pending row's text rewritten by ``write``."""
    frames = []
    for record in WriteAheadLog.load(log).records():
        assert not record.record_type.is_snapshot
        if record.table == PENDING_TABLE:
            values = list(record.values)
            assert values[4].startswith("[")  # what the live run wrote
            values[4] = write(decode_transaction(values[4], transaction_id=values[0]))
            record = record._replace(values=tuple(values))
        frames.append(encode_frame(record.to_bytes()))
    return b"".join(frames)


def odd_rows_textual(transaction: ResourceTransaction) -> str:
    """Odd-numbered transactions in the textual notation, the rest stored."""
    if transaction.transaction_id % 2:
        return format_transaction(transaction)
    return encode_transaction(transaction)


class TestRowForms:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_textual_row_names_its_transaction(self, seed):
        refused = 0
        for cut in cuts_of(seed, "execute"):
            log = WriteAheadLog.load(with_rows(cut, format_transaction))
            database = recover_database(seat_schema, log)
            pending = {row[0] for row in database.table(PENDING_TABLE).snapshot()}
            if not pending:
                continue
            with pytest.raises(QuantumRecoveryError) as caught:
                QuantumDatabase.recover(database)
            named = re.search(r"pending transaction (\d+):", str(caught.value))
            assert named is not None and int(named[1]) in pending
            refused += 1
        assert refused > 3

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_mixed_table_restarts_only_without_textual_rows(self, seed):
        refused = 0
        for cut in cuts_of(seed, "execute"):
            stored = QuantumDatabase.recover(
                recover_database(seat_schema, WriteAheadLog.load(cut))
            )
            log = WriteAheadLog.load(with_rows(cut, odd_rows_textual))
            database = recover_database(seat_schema, log)
            textual = {
                row[0] for row in database.table(PENDING_TABLE).snapshot() if row[0] % 2
            }
            if not textual:
                recovered = QuantumDatabase.recover(database)
                assert pending_view(recovered) == pending_view(stored)
                assert (
                    recovered.state.allocate_sequence()
                    == stored.state.allocate_sequence()
                )
                continue
            with pytest.raises(QuantumRecoveryError) as caught:
                QuantumDatabase.recover(database)
            named = re.search(r"pending transaction (\d+):", str(caught.value))
            assert named is not None and int(named[1]) in textual
            refused += 1
        assert refused > 0

    @pytest.mark.parametrize(
        "text",
        [
            '[["-Available",1,"?s"]',  # not JSON
            '[["+Bookings",["u0"],1,"?s"],["Available",1,"?s"]]',  # list term
            '[["-Available",1,"?s"],["+Bookings","u0",1,"?s"],2]',  # no atom 2
            '[["-Available",1,"?s"],-1]',  # negative index
            '[["-Available",1,"?s"],["+Bookings","u0",1,"?t"],0]',  # ?t unbound
            "[7]",  # not an atom
        ],
    )
    def test_a_malformed_stored_row_names_its_transaction(self, text):
        database = seat_schema()
        with database.begin() as txn:
            txn.insert(PENDING_TABLE, (4242, 1, "u0", None, text))
        with pytest.raises(QuantumRecoveryError, match="transaction 4242"):
            QuantumDatabase.recover(database)


# -- the stored form ---------------------------------------------------------------


CONSTANTS = [
    0, -7, 2**70, 1.5, -0.0, float("inf"), float("nan"), True, False, None,
    "x", "", "?q", "\\y", "\\", "?", "it's \"quoted\"", "é ü 東京", "[", "+",
]


class TestStoredForm:
    @pytest.mark.parametrize("value", CONSTANTS, ids=repr)
    def test_every_constant_type_round_trips(self, value):
        s = Variable("s")
        transaction = ResourceTransaction(
            body=(
                Atom.body("R", [value, s]),
                Atom.body("R", [value, s], optional=True),
                Atom.body("S", [s, value]),
            ),
            updates=(Atom.delete("R", [value, s]), Atom.insert("T", [value])),
            transaction_id=11,
        )
        restored = decode_transaction(
            encode_transaction(transaction), transaction_id=11
        )
        assert exact(restored) == exact(transaction)
        if not (isinstance(value, float) and math.isnan(value)):
            assert restored == transaction

    def test_only_an_exact_duplicate_of_an_update_is_written_as_its_index(self):
        transaction = ResourceTransaction(
            body=(
                Atom.body("R", [1]),
                Atom.body("R", [1.0]),
                Atom.body("R", [True]),
                Atom.body("R", [1], optional=True),
                Atom.body("+R", [1]),
            ),
            updates=(Atom.insert("R", [1]), Atom.delete("+R", [1])),
            transaction_id=3,
        )
        stored = json.loads(encode_transaction(transaction))
        assert stored[:2] == [["+R", 1], ["-+R", 1]]
        assert stored[2:] == [0, ["R", 1.0], ["R", True], ["[R", 1], 1]
        restored = decode_transaction(encode_transaction(transaction), transaction_id=3)
        assert exact(restored) == exact(transaction)

    def test_plain_body_relations_that_look_like_markers_are_escaped(self):
        x = Variable("x")
        body = tuple(Atom.body(name, [x]) for name in ("+A", "-B", "[C", "\\D", "E"))
        transaction = ResourceTransaction(
            body=body, updates=(Atom.insert("Log", [x]),), transaction_id=5
        )
        stored = json.loads(encode_transaction(transaction))
        assert [atom[0] for atom in stored[1:]] == [
            "\\+A", "\\-B", "\\[C", "\\\\D", "E"
        ]
        assert decode_transaction(json.dumps(stored), transaction_id=5) == transaction

    def test_a_constant_without_a_json_form_is_refused(self):
        transaction = ResourceTransaction(
            body=(Atom.body("R", [Constant((1, 2))]),),
            updates=(Atom.insert("T", [1]),),
        )
        with pytest.raises(TypeError, match="no stored form"):
            encode_transaction(transaction)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_the_benchmark_generator_transactions_round_trip(self, seed):
        flights = gen.flight_numbers(6)
        bookings = [
            op.booking
            for stream in (
                *gen.booking_streams(seed, flights, 2),
                *gen.mixed_streams(seed, flights, 2),
            )
            for op in stream
            if op.kind == "book"
        ]
        assert len(bookings) > 100
        for number, booking in enumerate(bookings):
            transaction = parse_transaction(
                booking.text,
                transaction_id=number,
                client=booking.client,
                partner=booking.partner,
            )
            stored = encode_transaction(transaction)
            restored = decode_transaction(
                stored,
                transaction_id=number,
                client=booking.client,
                partner=booking.partner,
            )
            assert restored == transaction
            assert exact(restored) == exact(transaction)
            # The body atom a booking's delete consumes is written once.
            assert json.loads(stored)[2] == 0
            # JSON-escaped, the row grows by at most a tenth over the
            # notation (which quotes its constants with ', the row with ").
            assert len(json.dumps(stored)) <= 1.1 * len(
                json.dumps(format_transaction(transaction))
            )


# -- every cut ---------------------------------------------------------------------


def cuts_of(seed: int, mode: str) -> list[bytes]:
    """The dumped log of a crash-atomicity stream, cut at every COMMIT."""
    run, config = MODES[mode]
    seats_per_flight, ops = generate_stream(seed)
    qdb = QuantumDatabase(seat_database(seats_per_flight), config)
    wal = qdb.database.wal
    loaded = len(wal)
    try:
        drive(qdb, ops, run, lambda committed: None)
    finally:
        qdb.close()
    dump = wal.dump()
    return [
        first_frames(dump, index + 1)
        for index, record in enumerate(wal.records())
        if record.record_type is LogRecordType.COMMIT and index + 1 >= loaded
    ]


class TestEveryCut:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_restart_solves_each_partition_once(self, seed, mode):
        rebuilt_some = False
        for cut in cuts_of(seed, mode):
            recovered = QuantumDatabase.recover(
                recover_database(seat_schema, WriteAheadLog.load(cut))
            )
            partitions = list(recovered.state.partitions)
            rebuilt_some = rebuilt_some or bool(partitions)
            report = recovered.statistics_report()
            assert report["search.searches"] <= len(partitions)
            assert report["state.forced_groundings"] == 0
            for partition in partitions:
                solution = partition.solution
                assert solution is not None
                assert partition.composition().program().holds(
                    recovered.database, solution.substitution
                )
        assert rebuilt_some

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_restart_under_a_smaller_k_grounds_down_to_it(self, seed):
        wider = 0
        for cut in cuts_of(seed, "execute"):
            before = QuantumDatabase.recover(
                recover_database(seat_schema, WriteAheadLog.load(cut))
            )
            sizes = [len(partition) for partition in before.state.partitions]
            wider += any(size > 1 for size in sizes)
            recovered = QuantumDatabase.recover(
                recover_database(seat_schema, WriteAheadLog.load(cut)),
                QuantumConfig(k=1),
            )
            assert all(len(p) <= 1 for p in recovered.state.partitions)
            forced = recovered.statistics_report()["state.forced_groundings"]
            assert forced == sum(size - 1 for size in sizes if size > 1)
            pending = {
                entry.transaction_id
                for entry in recovered.state.pending_transactions()
            }
            # The forced groundings removed their rows in the same unit.
            assert recovered.pending_store.pending_ids() == pending
            recovered.ground_all()
            assert not recovered.pending_store.pending_ids()
        assert wider, f"seed {seed} never rebuilds a partition wider than 1"


# -- the rename ---------------------------------------------------------------------


def validated_rename(transaction: ResourceTransaction, suffix: str):
    """The renamed copy built through every constructor check."""

    def atom(a: Atom) -> Atom:
        terms = tuple(
            Variable(t.name + suffix) if isinstance(t, Variable) else t
            for t in a.terms
        )
        return Atom(a.relation, terms, a.kind, a.optional)

    return ResourceTransaction(
        body=tuple(map(atom, transaction.body)),
        updates=tuple(map(atom, transaction.updates)),
        choose=transaction.choose,
        transaction_id=transaction.transaction_id,
        client=transaction.client,
        partner=transaction.partner,
    )


class TestTrustedRename:
    @pytest.mark.parametrize("seed", (1, 2))
    def test_the_trusted_copy_equals_the_validated_one(self, seed):
        flights = gen.flight_numbers(4)
        streams = gen.mixed_streams(seed, flights, 2)
        texts = [op.booking.text for s in streams for op in s if op.kind == "book"]
        _seats, ops = generate_stream(seed)
        texts += [booking_text(op) for op in ops if op.kind == "book"]
        texts.append(
            "-A(1, 'x'), +B(?y) :-1 A(1, ?y), [C(?y, ?z)], D(?z, 2.5, true, null)"
        )
        assert len(texts) > 50
        for number, text in enumerate(texts):
            transaction = parse_transaction(text, transaction_id=number)
            suffix = f"@{number}"
            trusted = transaction.rename_variables(suffix)
            validated = validated_rename(transaction, suffix)
            assert trusted == validated
            assert hash(trusted) == hash(validated)
            assert type(trusted) is ResourceTransaction
            assert trusted.hard_variables() == validated.hard_variables()
            assert trusted.optional_body == validated.optional_body
            for mine, theirs in zip(
                (*trusted.body, *trusted.updates),
                (*validated.body, *validated.updates),
            ):
                assert mine == theirs and hash(mine) == hash(theirs)


# -- transaction ids after a restart ------------------------------------------------


FIRST_PROCESS = """
    import sys
    from repro import QuantumDatabase
    from repro.storage import DurabilityConfig, SegmentedWriteAheadLog
    from tests.conftest import make_tiny_flight_db

    database = make_tiny_flight_db(seats=2)
    engine = SegmentedWriteAheadLog(sys.argv[1], DurabilityConfig(
        mode="segmented", directory=sys.argv[1]))
    engine.adopt(database.wal)
    database.wal = engine
    qdb = QuantumDatabase(database)
    result = qdb.execute(
        "-Available(123, ?s), +Bookings('Mickey', 123, ?s) :-1 Available(123, ?s)")
    assert result.committed and result.pending
    print(result.transaction_id)
"""

SECOND_PROCESS = """
    import sys
    from repro import QuantumDatabase
    from repro.core.recovery import PendingTransactionStore
    from repro.storage import DurabilityConfig, recover
    from tests.conftest import make_tiny_flight_db

    def schema():
        database = make_tiny_flight_db(seats=0)
        PendingTransactionStore(database)
        return database

    qdb = QuantumDatabase.recover(recover(sys.argv[1], schema, DurabilityConfig(
        mode="segmented", directory=sys.argv[1])))
    (recovered,) = qdb.pending_store.pending_ids()
    result = qdb.execute(
        "-Available(123, ?s), +Bookings('Goofy', 123, ?s) :-1 Available(123, ?s)")
    print(recovered, result.transaction_id, result.committed)
    qdb.ground_all()
    print(sorted(name for name, _f, _s in qdb.table("Bookings").snapshot()))
"""


def run_process(script: str, directory: Path) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), str(directory)],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": f"{REPO_ROOT / 'src'}:{REPO_ROOT}", "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestTransactionIdsAfterRestart:
    def test_a_new_process_does_not_reuse_a_recovered_id(self, tmp_path):
        directory = tmp_path / "log"
        mickey = int(run_process(FIRST_PROCESS, directory))
        ids, bookings = run_process(SECOND_PROCESS, directory).splitlines()
        recovered, goofy, committed = ids.split()
        assert int(recovered) == mickey
        assert int(goofy) != mickey
        assert committed == "True"
        assert bookings == "['Goofy', 'Mickey']"
