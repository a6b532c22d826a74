"""Configuration of the durability engine."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DurabilityError

#: Fields that accept one value only, with why.  They stay because the
#: benchmark's pinned settings still pass them.
_SINGLE_VALUED = {
    "fsync_window_s": (0, "every commit flush syncs on the writer"),
    "incremental_bases": (
        True,
        "later base checkpoints are built only by compaction passes",
    ),
    "compaction": (True, "a durable server always runs the compactor"),
}


@dataclass(frozen=True)
class DurabilityConfig:
    """How the store makes its write-ahead log durable.

    There is one file-backed engine, the log-structured
    :class:`repro.storage.SegmentedWriteAheadLog`: CRC-framed records in
    sealed segments under ``directory``, a manifest with atomic
    rename-based updates, delta checkpoints whose pause is proportional to
    churn rather than store size, and background compaction of sealed
    segments.  The in-memory log's ``WriteAheadLog.dump`` is the same
    frame stream; ``WriteAheadLog.load`` it, then ``recover_database`` and
    ``QuantumDatabase.recover``.

    The writer folds a full-store snapshot once, for the first base
    checkpoint; every later checkpoint is a delta.  Later bases are built
    only by compaction passes — the server's compactor,
    :meth:`~repro.storage.SegmentedWriteAheadLog.start_compactor` or
    :meth:`~repro.storage.SegmentedWriteAheadLog.compact_now` — which
    fold the previous base with the sealed delta chain.  An engine that
    is never compacted keeps its delta chain, and that chain still
    recovers correctly.

    Attributes:
        mode: always ``"segmented"``, the default; any other value raises
            :class:`~repro.errors.DurabilityError`.
        directory: segment/manifest directory (required; created if
            missing).
        segment_max_bytes: seal the live segment once it reaches this many
            bytes of framed records.
        segment_max_records: seal the live segment once it holds this many
            records.
        base_interval: delta checkpoints after which the next compaction
            pass synthesizes a fresh base.  Larger values mean fewer folds
            at the cost of a longer delta chain to replay on recovery.
        fsync: ``os.fsync`` the live segment at every commit flush (and
            the directory at every seal, and the manifest and its
            directory at every save), so
            durability survives OS crashes, not just process crashes.
            Off by default.
        fsync_window_s: accepts only ``0``; any other value raises
            :class:`~repro.errors.DurabilityError`.
        incremental_bases: accepts only ``True``, the default.
        compaction: accepts only ``True``, the default.
    """

    mode: str = "segmented"
    directory: str | None = None
    segment_max_bytes: int = 256 * 1024
    segment_max_records: int = 512
    base_interval: int = 8
    fsync: bool = False
    fsync_window_s: float = 0.0
    incremental_bases: bool = True
    compaction: bool = True

    def __post_init__(self) -> None:
        if self.mode != "segmented":
            raise DurabilityError(
                f"unknown durability mode {self.mode!r}; the segmented engine "
                "is the only file-backed log.  An in-memory log's dump "
                "recovers through WriteAheadLog.load + recover_database + "
                "QuantumDatabase.recover"
            )
        for name, (pinned, reason) in _SINGLE_VALUED.items():
            value = getattr(self, name)
            if value != pinned:
                raise DurabilityError(
                    f"DurabilityConfig.{name} accepts only {pinned!r}, not "
                    f"{value!r}: {reason}"
                )
        if not self.directory:
            raise DurabilityError(
                "DurabilityConfig needs a directory for its segments and "
                "manifest"
            )
        if self.segment_max_bytes < 1 or self.segment_max_records < 1:
            raise DurabilityError(
                "segment_max_bytes and segment_max_records must be at least 1"
            )
        if self.base_interval < 1:
            raise DurabilityError(
                "base_interval must be at least 1 (delta checkpoints between "
                "base snapshots)"
            )
