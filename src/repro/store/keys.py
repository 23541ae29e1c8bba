"""Content-addressing keys: canonical spec/plan hashes and the code fingerprint.

The store's keying invariant (pinned by ``tests/test_store.py``):

* ``spec_key(spec)`` hashes the spec's **canonical JSON** — the same
  normalization :class:`~repro.experiments.plan.ExperimentSpec` applies to
  its ``params`` field (sorted keys, no whitespace), extended to the whole
  spec dict.  Two spellings of one experiment (``params={"b":1,"a":2}`` vs
  ``params='{"a":2,"b":1}'``) therefore produce one key, and every field
  that changes what a run computes (``backend``, ``trace``, scenario knobs)
  is part of the hash.
* ``code_fingerprint()`` is :func:`git_commit` — the short git commit with a
  ``+dirty`` marker for uncommitted trees, the one provenance stamp shared
  with ``python -m repro bench`` and ``report --timings`` — so records
  measured on different code never serve each other.
  ``$REPRO_CODE_FINGERPRINT`` overrides it (tests, and deployments without a
  git checkout).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.plan import ExperimentPlan, ExperimentSpec

#: digest size of the blake2b spec/plan hashes (hex length = 2x)
_DIGEST_BYTES = 16

_fingerprint_cache: Optional[str] = None


def _canonical_digest(data: object) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=_DIGEST_BYTES).hexdigest()


def spec_key(spec: "ExperimentSpec") -> str:
    """Stable content hash of one spec's canonical JSON."""
    return _canonical_digest(spec.to_dict())


def plan_key(plan: "ExperimentPlan") -> str:
    """Stable content hash of a whole plan (the service's coalescing key)."""
    return _canonical_digest(plan.to_dict())


def git_commit() -> str:
    """Short HEAD commit (``+dirty`` if the tree has uncommitted changes).

    The dirty marker keeps provenance honest: a sweep, report or benchmark
    measured on top of uncommitted work used to be silently attributed to
    the parent commit, so ``BENCH_kernel.json`` could claim numbers for a
    tree that never existed.  ``"unknown"`` outside a git checkout.
    """
    import subprocess  # not at module level: a fingerprint override never needs git

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):  # pragma: no cover - git missing/hung
        return "unknown"
    commit = out.stdout.strip() or "unknown"
    if commit != "unknown" and status.stdout.strip():
        commit += "+dirty"
    return commit


def code_fingerprint(refresh: bool = False) -> str:
    """The code identity records are stamped with.

    ``$REPRO_CODE_FINGERPRINT`` wins when set (checked on every call, so
    tests can flip it); otherwise :func:`git_commit`, cached per process
    (two subprocess calls are too slow for per-record use).
    """
    override = os.environ.get("REPRO_CODE_FINGERPRINT")
    if override:
        return override
    global _fingerprint_cache
    if _fingerprint_cache is None or refresh:
        _fingerprint_cache = git_commit()
    return _fingerprint_cache
