"""Configuration of the durability engine."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DurabilityError


@dataclass(frozen=True)
class DurabilityConfig:
    """How the store makes its write-ahead log durable.

    There is one file-backed engine, the log-structured
    :class:`repro.storage.SegmentedWriteAheadLog`: CRC-framed records in
    sealed segments under ``directory``, a manifest with atomic
    rename-based updates, delta checkpoints whose pause is proportional to
    churn rather than store size, and background compaction of sealed
    segments.  A JSON-lines log written by the single-file log of older
    versions still recovers: ``WriteAheadLog.load`` its text, then
    ``recover_database`` and ``QuantumDatabase.recover``.

    Attributes:
        mode: always ``"segmented"``, the default; any other value raises
            :class:`~repro.errors.DurabilityError`.
        directory: segment/manifest directory (required; created if
            missing).
        segment_max_bytes: seal the live segment once it reaches this many
            bytes of framed records.
        segment_max_records: seal the live segment once it holds this many
            records.
        base_interval: number of delta checkpoints taken between full
            ``CHECKPOINT_BASE`` snapshots.  Larger values keep checkpoint
            pauses small for longer at the cost of a longer delta chain to
            replay on recovery.
        fsync: ``os.fsync`` the live segment at every group-commit flush
            (and the manifest at every update), so durability survives OS
            crashes, not just process crashes.  Off by default.
        fsync_window_s: group-fsync commit window (needs ``fsync=True``).
            ``0`` (the default) keeps per-commit syncs: every commit
            flush is its own ``os.fsync``.  A positive window defers the
            sync: commits
            append and flush immediately but share one ``os.fsync`` issued
            when the window (measured from the first uncovered commit)
            expires, and commit acknowledgement blocks until the covering
            sync lands — durability semantics are unchanged while
            fsyncs-per-commit drops well below 1 under load.
        incremental_bases: synthesize base checkpoints off the writer.
            When enabled, every checkpoint after the first base is a delta
            (``wants_delta_checkpoint()`` stays true), and once
            ``base_interval`` deltas have accrued the *compactor* folds
            the previous ``CHECKPOINT_BASE`` with the sealed delta chain
            into a fresh synthesized base, installed by an atomic manifest
            swap — no full-store snapshot fold ever runs on the writer
            after the first base, so the worst-case checkpoint pause is
            capped by churn too.
        compaction: run the background compactor thread while a server
            owns the engine (synchronous ``compact_now()`` remains
            available either way).
        compaction_interval_s: how often the idle compactor wakes to look
            for reclaimable sealed segments (it is also triggered
            explicitly at every seal and checkpoint).
    """

    mode: str = "segmented"
    directory: str | None = None
    segment_max_bytes: int = 256 * 1024
    segment_max_records: int = 512
    base_interval: int = 8
    fsync: bool = False
    fsync_window_s: float = 0.0
    incremental_bases: bool = False
    compaction: bool = True
    compaction_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.mode != "segmented":
            raise DurabilityError(
                f"unknown durability mode {self.mode!r}; the segmented engine "
                "is the only file-backed log.  A JSON-lines log of the "
                "single-file log that older versions wrote recovers through "
                "WriteAheadLog.load + recover_database + QuantumDatabase.recover"
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
        if self.compaction_interval_s <= 0:
            raise DurabilityError("compaction_interval_s must be positive")
        if self.fsync_window_s < 0:
            raise DurabilityError("fsync_window_s must be zero or positive")
        if self.fsync_window_s > 0 and not self.fsync:
            raise DurabilityError(
                "fsync_window_s only defers syncs that fsync=True would "
                "issue; enable fsync to use a group-fsync window"
            )
