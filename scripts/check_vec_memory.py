"""Memory guard: the vectorized backend's peak-RSS contract at n = 10⁵.

The ``n = 10⁶`` scaling work (bit-packed tables, streamed Fw1/Fw2
accumulation, the ``vec_memory_mb`` budget) is only durable if CI pins it.
This guard runs the ``sync:none:n100000:s0:vec`` case cold — one fresh
subprocess per measurement, so ``ru_maxrss`` is the honest per-case
high-water mark (the larger of the case's process and its largest forked
table-hashing child) — at the default memory budget *and* at a deliberately
tight ``vec_memory_mb=16``, and fails when either peak RSS exceeds its
pinned reference by more than the tolerance (default 20%).

The references were recorded on the machine that records the committed
BENCH baselines; RSS is far more stable across hosts than wall-clock (it
is dominated by numpy array footprints, not CPU speed), so the guard is
meaningful on shared runners too.  Message/bit totals are asserted
exactly — the budget knob must never change results, only memory.  Each
line also reports the case's wall-clock seconds, for the record only:
nothing is gated on them.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/check_vec_memory.py [--tolerance 0.20]
        [--large]

``--large`` additionally smokes the n = 10⁶ case (minutes of wall-clock;
not part of the default CI invocation).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from repro.experiments.plan import ExperimentSpec

_CHILD = """\
import json, resource, sys, time
from repro.experiments.plan import ExperimentSpec
spec = ExperimentSpec.from_dict(json.loads(sys.argv[1]))
start = time.perf_counter()
result = spec.run()
print(json.dumps({
    "wall_s": time.perf_counter() - start,
    "rss_mb": max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0,
    "msgs": int(result.total_messages),
    "bits": int(result.total_bits),
}))
"""

#: (label, vec_memory_mb, pinned peak-RSS reference in MB) at n = 10⁵.
#: ``None`` budget exercises the default (DEFAULT_VEC_MEMORY_MB).
N_GUARD = 100_000
GUARD_CASES = (
    ("default budget", None, 215.0),
    ("vec_memory_mb=16", 16.0, 200.0),
)
#: exact totals of the n = 10⁵ case — identical under every budget
EXPECTED_MSGS = 3_086_043_844
EXPECTED_BITS = 430_025_526_439

N_LARGE = 1_000_000


def _spec(n: int, vec_memory_mb) -> ExperimentSpec:
    params = {} if vec_memory_mb is None else {"vec_memory_mb": vec_memory_mb}
    return ExperimentSpec(
        n=n, adversary="none", mode="sync", seed=0,
        wrong_candidate_mode="common_wrong", backend="vectorized",
        params=params,
    )


def _run_cold(spec: ExperimentSpec, timeout: int = 3600) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(spec.to_dict())],
        capture_output=True, text=True, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child failed for {spec.key}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_guard(tolerance: float, large: bool) -> int:
    failures = []
    for label, budget, reference in GUARD_CASES:
        out = _run_cold(_spec(N_GUARD, budget))
        ceiling = reference * (1.0 + tolerance)
        verdict = "OK" if out["rss_mb"] <= ceiling else "FAIL"
        print(
            f"n={N_GUARD} {label}: peak_rss={out['rss_mb']:.1f}MB "
            f"(reference {reference:.0f}MB, ceiling {ceiling:.0f}MB) {verdict} "
            f"wall={out['wall_s']:.1f}s"
        )
        if out["rss_mb"] > ceiling:
            failures.append(f"{label}: {out['rss_mb']:.1f}MB > {ceiling:.0f}MB")
        if (out["msgs"], out["bits"]) != (EXPECTED_MSGS, EXPECTED_BITS):
            failures.append(
                f"{label}: totals diverged — msgs={out['msgs']} bits={out['bits']} "
                f"(expected msgs={EXPECTED_MSGS} bits={EXPECTED_BITS})"
            )
    if large:
        out = _run_cold(_spec(N_LARGE, None))
        print(
            f"n={N_LARGE} default budget: peak_rss={out['rss_mb']:.1f}MB "
            f"msgs={out['msgs']} bits={out['bits']} wall={out['wall_s']:.1f}s"
        )
    if failures:
        print("vec memory guard FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("vec memory guard OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional regression over the pinned reference (default 0.20)",
    )
    parser.add_argument(
        "--large", action="store_true",
        help="also smoke the n=10^6 case (minutes of wall-clock)",
    )
    args = parser.parse_args()
    return run_guard(args.tolerance, args.large)


if __name__ == "__main__":
    sys.exit(main())
