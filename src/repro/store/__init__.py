"""Content-addressed experiment result store (the sixth subsystem's core).

A :class:`~repro.store.sqlite_store.ResultStore` persists
:class:`~repro.experiments.sweep.ExperimentRecord`\\ s keyed by
``(spec_key, code_fingerprint)``:

* ``spec_key`` — a stable hash of the spec's **canonical JSON** (the PR-2
  canonicalization guarantees equivalent spellings of one experiment produce
  one key, and the backend/trace fields are part of the JSON, so a
  vectorized run never masquerades as a message-kernel run);
* ``code_fingerprint`` — a hash of the ``repro`` package's source (plus the
  Python and numpy versions), so results computed by different code never
  collide, an uncommitted edit included.

Any sweep or report run against a warm store is *incremental*: records
already computed are served from SQLite, only the delta executes — see
``SweepRunner.run(store=...)`` and ``ReportBuilder(store_path=...)``.  The
storage engine is SQLite in WAL mode, so many reader processes (and the
experiment service's request threads) can query while a sweep writes.
"""

from repro.store.keys import code_fingerprint, plan_key, spec_key
from repro.store.sqlite_store import (
    SCHEMA_VERSION,
    ResultStore,
    StoreError,
    default_store_path,
    resolve_store,
)

__all__ = [
    "ResultStore",
    "StoreError",
    "SCHEMA_VERSION",
    "spec_key",
    "plan_key",
    "code_fingerprint",
    "default_store_path",
    "resolve_store",
]
