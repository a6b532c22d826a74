"""Relational storage substrate for the quantum database reproduction.

The CIDR 2013 prototype is a Java middle tier layered over MySQL/InnoDB.  We
do not have MySQL (and the point of this reproduction is to be
self-contained), so this subpackage provides the extensional store the
quantum middle tier needs:

* key-enforced tables with secondary hash indexes (:mod:`.table`,
  :mod:`.index`),
* a conjunctive query facility with ``LIMIT`` support, a greedy join order
  and pipelined index-nested-loop execution (:mod:`.query`,
  :mod:`.planner`, :mod:`.executor`),
* single-row insert/delete statements (:mod:`.dml`),
* transactions with undo and a write-ahead log plus recovery
  (:mod:`.transaction`, :mod:`.wal`, :mod:`.recovery`),
* a :class:`~repro.relational.database.Database` facade tying it together.

The public names re-exported here form the stable API used by the rest of
the library and by applications that want to populate the extensional store
directly.
"""

from repro.relational.database import Database
from repro.relational.datatypes import DataType
from repro.relational.dml import Delete, Insert
from repro.relational.index import HashIndex
from repro.relational.query import ConjunctiveQuery, QueryAtom, QueryResult
from repro.relational.recovery import recover_database
from repro.relational.row import Row
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.transaction import Transaction
from repro.relational.wal import LogRecord, WriteAheadLog

__all__ = [
    "Column",
    "ConjunctiveQuery",
    "DataType",
    "Database",
    "Delete",
    "HashIndex",
    "Insert",
    "LogRecord",
    "QueryAtom",
    "QueryResult",
    "Row",
    "Table",
    "TableSchema",
    "Transaction",
    "WriteAheadLog",
    "recover_database",
]
