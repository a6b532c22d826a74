"""The routing reference: the exhaustive pairwise-unification scan.

:class:`~repro.core.partition.PartitionManager` answers every overlap query
from its signature index.  :class:`ExhaustiveScan` answers it the way the
paper states the independence test — every probe atom against every atom of
every partition — so tests can hold index routing to it on the same stream.
"""

from __future__ import annotations

from repro.core.partition import PartitionManager


class ExhaustiveScan(PartitionManager):
    """The reference: scan every atom of every partition, pairwise."""

    def overlapping_partitions(self, atoms):
        self.statistics.scanned_partitions += len(self.partitions)
        return [
            p for p in self.partitions if p.overlaps_atoms(atoms, self.statistics)
        ]
