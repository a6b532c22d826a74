"""The baseline the paper compares against.

* :mod:`.intelligent_social` — the paper's "intelligent social" (IS) user:
  a client-side strategy over an ordinary database that checks whether the
  friend already has a reservation and books accordingly.  This is "the kind
  of coordination that is achievable without using a quantum database".
"""
