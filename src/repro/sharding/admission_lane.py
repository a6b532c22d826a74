"""The name of the retired admission-lane dispatcher.

Admission is serial: :meth:`QuantumDatabase.commit_batch
<repro.core.quantum_database.QuantumDatabase.commit_batch>` admits every
batch in one loop on the writer.  The per-shard lane threads that used to
run batched admissions beside it are gone — under CPython's GIL two lanes
never searched at the same time, so they added only dispatch, queue,
barrier and lock costs (``docs/architecture.md``, "Why admission is
serial").

:class:`AdmissionController` stays only because the repository benchmark's
traced pass (``bench/spans.py``) wraps ``AdmissionController.commit_many``
by name and raises if it is missing — just as ``DurabilityConfig.mode``
stays for ``bench/settings.py``.  Nothing in ``repro`` calls it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.quantum_database import CommitResult, QuantumDatabase
    from repro.core.resource_transaction import ResourceTransaction


class AdmissionController:
    """Kept for ``bench/spans.py``; holds no thread and no state."""

    @staticmethod
    def commit_many(
        qdb: "QuantumDatabase",
        transactions: Sequence["ResourceTransaction | str"],
    ) -> list["CommitResult"]:
        """Admit a batch: exactly :meth:`QuantumDatabase.commit_batch`."""
        return qdb.commit_batch(transactions)
