"""Exception hierarchy shared across the quantum database reproduction.

Every subpackage raises exceptions derived from :class:`ReproError` so that
applications embedding the library can catch a single base class.  The
hierarchy mirrors the layering of the system:

* ``relational`` errors concern the extensional store (schema violations,
  key conflicts, missing rows, transaction aborts).
* ``logic`` errors concern malformed terms, atoms, or substitutions.
* ``core`` (quantum database) errors concern resource-transaction admission,
  grounding, and recovery.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Relational substrate
# ---------------------------------------------------------------------------


class RelationalError(ReproError):
    """Base class for errors raised by :mod:`repro.relational`."""


class SchemaError(RelationalError):
    """A table or column definition is invalid or referenced incorrectly."""


class UnknownTableError(SchemaError):
    """A statement referenced a table that is not in the catalog."""


class UnknownColumnError(SchemaError):
    """A statement referenced a column that does not exist on its table."""


class TypeMismatchError(SchemaError):
    """A value does not conform to the declared column type."""


class KeyViolationError(RelationalError):
    """An insert would duplicate a primary-key value (set semantics)."""


class MissingRowError(RelationalError):
    """A delete targeted a row that does not exist."""


class TransactionError(RelationalError):
    """A transaction on the extensional store failed or was misused."""


class RecoveryError(RelationalError):
    """Write-ahead-log replay or snapshot restore failed."""


class DurabilityError(RelationalError):
    """The segmented durability engine was misconfigured or misused.

    Raised by :mod:`repro.storage` for configuration errors (e.g. a
    segmented :class:`~repro.storage.DurabilityConfig` without a
    directory) and for operations the segmented engine cannot honour
    (e.g. a delta checkpoint before any base snapshot exists).  On-disk
    damage discovered during replay keeps raising :class:`RecoveryError`.
    """


# ---------------------------------------------------------------------------
# Logic layer
# ---------------------------------------------------------------------------


class LogicError(ReproError):
    """Base class for errors raised by :mod:`repro.logic`."""


class SubstitutionError(LogicError):
    """A substitution is inconsistent (a variable bound to two values)."""


class FormulaError(LogicError):
    """A formula is malformed or evaluated with unbound variables."""


# ---------------------------------------------------------------------------
# Quantum database (core)
# ---------------------------------------------------------------------------


class QuantumError(ReproError):
    """Base class for errors raised by :mod:`repro.core`."""


class ParseError(QuantumError):
    """A resource transaction's textual representation is malformed."""


class InvalidTransactionError(QuantumError):
    """A resource transaction violates a structural rule.

    Examples: range restriction (an update variable that does not occur in
    the body), reads inside the FOLLOWED BY block, or an empty update
    portion.
    """


class TransactionRejected(QuantumError):
    """Admitting the transaction would empty the set of possible worlds.

    ``method`` says which admission search decided the rejection (the
    provenance a ``CommitResult`` carries).
    """

    def __init__(self, message: str, *, method: str = "backtracking") -> None:
        super().__init__(message)
        self.method = method


class AdmissionSearchExhausted(TransactionRejected):
    """The admission search hit its configured node budget undecided.

    A typed outcome for ``AdmissionSearchConfig(node_budget=...)``: the
    search gave up before proving satisfiability either way, so the
    transaction is rejected *conservatively* — the invariant is never at
    risk, but callers that want to retry with a larger budget (or force a
    grounding) can distinguish this from a genuine unsatisfiability.
    Subclasses :class:`TransactionRejected`, so existing handlers keep
    working unchanged.
    """


class WriteRejected(QuantumError):
    """A blind write would invalidate a pending transaction's invariant."""


class WorldLimitExceeded(QuantumError, ValueError):
    """Enumerating the possible worlds would pass its ``max_worlds`` bound.

    Raised before any world beyond the bound is built; an ``EXPOSE_ALL``
    read over that many worlds answers the ``world_limit`` wire code.
    Also a :class:`ValueError`, what the bound raised before it was typed.
    """


class QuantumStateError(QuantumError):
    """The quantum state violates its invariant (internal error)."""


class SessionBackpressure(QuantumError):
    """A session exceeded its per-session queue quota.

    Raised by the server instead of letting one client's backlog occupy
    the whole admission queue and starve other sessions.  The submission
    was *not* enqueued; the client should retry after its in-flight
    operations complete.
    """


class TenantBackpressure(QuantumError):
    """A tenant exceeded its per-tenant queue quota.

    One rung above :class:`SessionBackpressure` on the backpressure ladder
    (session quota → tenant quota → connection write buffer): a tenant is a
    named group of sessions — typically every network connection opened
    with the same ``tenant`` identity — and
    ``ServerConfig(tenant_quota=N)`` caps the group's *combined*
    queued-but-unprocessed items.  A tenant that opens many connections
    cannot multiply its share of the admission queue; the submission was
    not enqueued, and the network layer maps the error to a
    ``tenant_backpressure`` protocol error frame so remote clients can
    back off.
    """


class ProtocolError(QuantumError):
    """A network peer violated the framed wire protocol.

    Raised by the frame codec (:mod:`repro.server.protocol`) while
    decoding bytes from a socket.  The server answers with a final
    ``protocol_error`` frame when possible and closes the connection
    cleanly — a malformed peer can never leave an unhandled exception in
    the writer loop or wedge other connections.
    """


class FrameTooLarge(ProtocolError):
    """An incoming frame declared a length beyond the configured maximum.

    The length prefix is read before the payload, so an oversized (or
    garbage) declaration is rejected without ever buffering the body —
    a hostile peer cannot make the server allocate unbounded memory.
    """


class FrameCorrupt(ProtocolError):
    """An incoming frame's payload was not a valid protocol message.

    Covers undecodable bytes (not UTF-8 JSON), well-formed JSON that is
    not an object, and objects without a known ``op`` code.
    """


class QuantumRecoveryError(QuantumError):
    """The pending-transactions table could not be restored after a crash."""
