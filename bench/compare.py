"""``run.py --compare A B``: apply the bounds in BENCHMARK.json to two result sets.

``A`` (the base) and ``B`` are result files written by an all-workloads run,
or directories of them.  One row per end-to-end metric x workload, every
ratio with its base, and a verdict:

``worse``       B's median is worse than A's by more than the metric's bound;
``unresolved``  not worse, but a side's quartile spread is wider than the
                bound — unless every run of B is better than every run of A;
``better``      that exception, or B's median is better by more than the bound;
``unchanged``   anything else.

Counts that must repeat exactly are listed after the table.  Exit status 1 on
any ``worse`` or any rise in ``failed / attempted``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import List, Tuple

from harness import ROOT, median

#: per-layer counts of the untraced cycle that two runs of one seed must share
EXACT = (
    "net.msgs", "net.bits", "net.rounds", "net.span", "core.agreement_rate",
    "core.decided_fraction", "vec.engine.rounds", "store.hit_ratio", "report.specs",
    "dist.shards_issued", "dist.lease_expiries", "dist.duplicate_completions",
)


def _load(path: str) -> List[dict]:
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not files:
        raise SystemExit(f"error: no result files in {path}")
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def _values(results: List[dict], workload: str, kind: str, metric: str) -> List[float]:
    out = []
    for result in results:
        run = result.get("workloads", {}).get(workload, {}).get(kind)
        if run and metric in run["metrics"]:
            out.append(run["metrics"][metric]["value"])
    return out


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def _failure_rate(results: List[dict], workload: str) -> Tuple[int, int]:
    failed = attempted = 0
    for result in results:
        for run in result.get("workloads", {}).get(workload, {}).values():
            failed += run["failed"]
            attempted += run["attempted"]
    return failed, attempted


def verdict(a: List[float], b: List[float], lower_is_better: bool, bound: float) -> Tuple[str, float]:
    base, new = median(a), median(b)
    ratio = new / base if base else float("inf")
    worsening = (ratio - 1.0) if lower_is_better else (1.0 - ratio)
    all_better = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
    if worsening > bound:
        return "worse", ratio
    if max(_spread(a), _spread(b)) > bound:
        return ("better" if all_better else "unresolved"), ratio
    if worsening < -bound:
        return "better", ratio
    return "unchanged", ratio


def main(path_a: str, path_b: str) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a, b = _load(path_a), _load(path_b)
    workloads = [w["name"] for w in manifest["workloads"]]
    status = 0
    print(f"base A: {path_a} ({len(a)} run(s))   B: {path_b} ({len(b)} run(s))")
    print(f"{'workload':12s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for workload in workloads:
        for metric in manifest["end_to_end"]:
            va = _values(a, workload, "untraced", metric["name"])
            vb = _values(b, workload, "untraced", metric["name"])
            if not va or not vb:
                continue
            word, ratio = verdict(va, vb, metric["better"] == "lower", metric["bound"])
            if word == "worse":
                status = 1
            print(f"{workload:12s} {metric['name']:16s} {median(va):12.5g} {median(vb):12.5g} "
                  f"{ratio:7.3f} {_spread(va):9.3f} {_spread(vb):9.3f} {metric['bound']:6.2f}  "
                  f"{word} ({metric['unit']}, {metric['better']} is better)")
        fa, na = _failure_rate(a, workload)
        fb, nb = _failure_rate(b, workload)
        if na and nb:
            rose = fb * na > fa * nb
            print(f"{workload:12s} {'ops_failed':16s} {fa:>8d}/{na:<5d} {fb:>8d}/{nb:<5d} "
                  f"{'rose' if rose else 'ok'}")
            if rose:
                status = 1
    print("\ncounts that must repeat exactly (first run of each side):")
    for workload in workloads:
        for name in EXACT:
            va = _values(a[:1], workload, "traced", name)
            vb = _values(b[:1], workload, "traced", name)
            if va and vb and (va[0] or vb[0]):
                same = "equal" if va[0] == vb[0] else "DIFFERENT"
                print(f"{workload:12s} {name:28s} {va[0]:.10g} {vb[0]:.10g}  {same}")
    return status
