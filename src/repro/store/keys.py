"""Content-addressing keys: canonical spec/plan hashes and the code fingerprint.

The store's keying invariant (pinned by ``tests/test_store.py``):

* ``spec_key(spec)`` hashes the spec's **canonical JSON** — the same
  normalization :class:`~repro.experiments.plan.ExperimentSpec` applies to
  its ``params`` field (sorted keys, no whitespace), extended to the whole
  spec dict.  Two spellings of one experiment (``params={"b":1,"a":2}`` vs
  ``params='{"a":2,"b":1}'``) therefore produce one key, and every field
  that changes what a run computes (``backend``, ``trace``, scenario knobs)
  is part of the hash.
* ``code_fingerprint()`` is :func:`code_digest` — a hash of the source of
  every module of the imported ``repro`` package, plus the Python and numpy
  versions — so records computed by different code never serve each other,
  an edited, uncommitted tree included.  ``$REPRO_CODE_FINGERPRINT``
  overrides it (tests, and deployments that pin one identity).
  :func:`git_commit` is provenance only (``python -m repro bench``,
  ``report --timings``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.plan import ExperimentPlan, ExperimentSpec

#: digest size of the blake2b spec/plan hashes (hex length = 2x)
_DIGEST_BYTES = 16

#: digest size of the code fingerprint (16 hex digits)
_CODE_DIGEST_BYTES = 8


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
    import subprocess  # not at module level: only provenance stamps need git

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


def _numpy_version() -> str:
    """numpy's version, read from its ``version.py`` without importing numpy."""
    from importlib.util import find_spec

    spec = find_spec("numpy")
    if spec is None or spec.origin is None:
        return "none"
    try:
        text = (Path(spec.origin).parent / "version.py").read_text()
    except OSError:
        return "unknown"
    match = re.search(r"""^version\s*=\s*['"]([^'"]+)['"]""", text, re.MULTILINE)
    return match.group(1) if match else "unknown"


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """Hash of the code a record is computed by (computed once per process).

    A blake2b digest over the sorted ``(relative path, bytes)`` of every
    ``*.py`` in the imported ``repro`` package, then Python's major.minor
    and numpy's version.  Nothing outside the package counts.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.blake2b(digest_size=_CODE_DIGEST_BYTES)
    for rel, path in sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    runtime = f"python {sys.version_info[0]}.{sys.version_info[1]}\0numpy {_numpy_version()}"
    digest.update(runtime.encode())
    return digest.hexdigest()


def code_fingerprint() -> str:
    """The code identity records are stamped with.

    ``$REPRO_CODE_FINGERPRINT`` wins when set (checked on every call, so
    tests can flip it); otherwise :func:`code_digest`.
    """
    return os.environ.get("REPRO_CODE_FINGERPRINT") or code_digest()
