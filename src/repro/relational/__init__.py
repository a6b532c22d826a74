"""Relational storage substrate for the quantum database reproduction.

The CIDR 2013 prototype is a Java middle tier layered over MySQL/InnoDB.  We
do not have MySQL (and the point of this reproduction is to be
self-contained), so this subpackage provides the extensional store the
quantum middle tier needs:

* key-enforced tables with secondary hash indexes, every equality lookup
  one ``Table.probe`` (:mod:`.table`, :mod:`.index`),
* a one-table read with ``LIMIT`` (``Database.execute``: one probe, then
  the repeated-variable check and the projection); joins are the search
  kernel's (:mod:`repro.solver.kernel`), the paper's ``LIMIT 1`` SQL join,
* single-row insert/delete statements (:mod:`.dml`),
* transactions with undo and a write-ahead log plus recovery
  (:mod:`.transaction`, :mod:`.wal`, :mod:`.recovery`),
* a :class:`~repro.relational.database.Database` facade tying it together.

The names re-exported here are the ones imported through the package
(``tests/test_config_census.py`` holds every subpackage to that rule).
"""

from repro.relational.database import Database
from repro.relational.recovery import recover_database

__all__ = [
    "Database",
    "recover_database",
]
