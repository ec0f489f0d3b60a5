"""Durable engine state: snapshots plus a write-ahead churn journal.

The engine's live state — grid, WPG, cluster tree, region cache,
registries — is expensive to rebuild and, until this package, died
with the process.  Durability here is the classic two-piece design:

* :mod:`repro.persist.snapshot` — a versioned point-in-time capture:
  one ``state.npz`` of numpy columns for the array-shaped state and one
  ``meta.json`` for everything JSON-shaped, written atomically
  (temp-then-rename, ``meta.json`` last as the commit marker);
* :mod:`repro.persist.journal` — an append-only, CRC-framed,
  fsync-per-batch log of churn move batches, written *before* the live
  structures mutate.  A torn tail (the batch being appended when the
  process died) is detected and discarded, never half-applied.

:class:`repro.persist.store.PersistentStore` binds the two under one
directory and owns rotation; ``CloakingEngine.checkpoint`` /
``CloakingEngine.restore`` are the engine-side entry points.  Restore =
latest snapshot + journal replay through the same incremental kernels
the live path uses, so the restarted engine is bit-identical to the
uninterrupted run — the ``snapshot-replay-equal`` fuzz invariant and the
crash-point suite in ``tests/test_persist_recovery.py`` hold that line.
"""

from repro.persist.journal import ChurnJournal, JournalRecord
from repro.persist.snapshot import (
    SNAPSHOT_FORMAT,
    read_snapshot,
    write_snapshot,
)
from repro.persist.store import PersistentStore

__all__ = [
    "ChurnJournal",
    "JournalRecord",
    "PersistentStore",
    "SNAPSHOT_FORMAT",
    "read_snapshot",
    "write_snapshot",
]
