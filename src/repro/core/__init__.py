"""The paper's primary contribution: the quantum database middle tier.

The public entry point is :class:`~repro.core.quantum_database.QuantumDatabase`,
which wraps a :class:`~repro.relational.database.Database` and adds:

* **resource transactions** (:mod:`.resource_transaction`, :mod:`.parser`) —
  SQL/Datalog-style transactions with OPTIONAL preferences, ``CHOOSE 1`` and
  a blind-write ``FOLLOWED BY`` block;
* **deferred value assignment** — committed transactions stay *pending*; the
  system maintains the invariant that a consistent grounding exists for all
  of them (:mod:`.quantum_state`, :mod:`.composition`, :mod:`.partition`
  with its routing index :mod:`.signature`, :mod:`.solution_cache`);
* **read-induced collapse** and blind-write admission checks
  (:mod:`.reads`; ``QuantumState.validate_write`` in :mod:`.quantum_state`);
* **grounding policies** (the ``k`` bound, oldest-first forced grounding)
  and **serializability modes** (strict vs. semantic)
  (:mod:`.grounding_policy`, :mod:`.serializability`);
* **durability** of pending transactions through a pending-transactions
  table (:mod:`.recovery`);
* **entangled resource transactions** for cross-user coordination
  (:mod:`.entanglement`);
* an explicit **possible-worlds** enumeration used to validate the
  intensional representation on small instances (:mod:`.worlds`).

Concurrent clients are served by the asyncio session layer on top of this
tier (:mod:`repro.server`); the admission flow, the witness-cache fast
path and the session/queue model are documented in ``docs/architecture.md``.
"""
