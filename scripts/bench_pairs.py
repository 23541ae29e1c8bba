#!/usr/bin/env python
"""Alternating pairs of benchmark runs: a base checkout against this one.

The sandbox slows down by tens of percent for seconds to minutes at a time,
so a performance claim rests on *pairs* of runs taken back to back, not on
two single runs (choosing-metrics §8)::

    git clone . /tmp/base && git -C /tmp/base checkout <parent>
    python scripts/bench_pairs.py /tmp/base --workload msg_async --workload msg_sync

Pair ``k`` runs ``BENCHMARK.json``'s command with ``--workload W --seed S+k
--seconds <run_seconds> --trace 0`` once in ``BASE_CHECKOUT`` and once here —
the same seed on both sides, the base first in even pairs and this checkout
first in odd ones — and keeps each run's final JSON line.  Per workload and
end-to-end metric it prints each side's median and quartiles, the ratio of
the medians (change / base), the pairs the change won, and whether that
amounts to a gain by the rule of §8: at least nine tenths of the pairs won
(ties count for neither side) and medians further apart than the base's own
quartiles.  The results are also written as one all-workloads result file
per pair and side (``base/pair-NN.json``, ``change/pair-NN.json``) into a
temporary directory and handed to ``bench/run.py --compare``, whose bounds
verdict and exit status end the run; the directory is removed afterwards,
also on an error or an interrupt.

This script only *calls* the benchmark; it defines no workload and no metric.
One pair of one workload takes about ``run_seconds`` + 10 s per side.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("base", metavar="BASE_CHECKOUT", type=Path,
                        help="a checkout of the commit to compare against")
    parser.add_argument("--workload", action="append", metavar="W",
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=0, metavar="S",
                        help="pair k runs both sides at seed S+k (default 0)")
    return parser.parse_args(argv)


def run_once(checkout: Path, command: List[str]) -> dict:
    """One benchmark run in ``checkout``; its final stdout line is the result."""
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"error: `{' '.join(command)}` in {checkout} printed no result "
            f"(exit {done.returncode})\n{done.stderr.strip()}"
        ) from None


def quartiles(values: List[float]) -> Tuple[float, ...]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def summarize(manifest: dict, workloads: List[str], runs: Dict[str, Dict[str, List[dict]]]) -> None:
    """Print the per-metric table from ``runs[side][workload]`` (pair order)."""
    for workload in workloads:
        pairs = len(runs["base"][workload])
        failed = ", ".join(
            f"{side} {sum(run['failed'] for run in runs[side][workload])}"
            f"/{sum(run['attempted'] for run in runs[side][workload])}"
            for side in SIDES
        )
        print(f"\n{workload}: {pairs} pair(s); failed/attempted {failed}")
        print(f"  {'metric':16s} {'base q1 / median / q3':>32s} {'change q1 / median / q3':>32s} "
              f"{'ratio':>6s} {'won':>6s} {'ties':>4s}  gain by §8")
        for metric in manifest["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            base, change = (
                [run["metrics"][name]["value"] for run in runs[side][workload]] for side in SIDES
            )
            won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
            ties = sum(b == c for b, c in zip(base, change))
            (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
            improvement = (b2 - c2) if lower else (c2 - b2)
            gain = won >= 0.9 * pairs and improvement > b3 - b1
            print(f"  {name:16s} {f'{b1:.5g} / {b2:.5g} / {b3:.5g}':>32s} "
                  f"{f'{c1:.5g} / {c2:.5g} / {c3:.5g}':>32s} {c2 / b2 if b2 else float('inf'):6.3f} "
                  f"{f'{won}/{pairs}':>6s} {ties:4d}  {'yes' if gain else 'no'} "
                  f"({metric['unit']}, {metric['better']} is better)")


def main(argv=None) -> int:
    args = parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in manifest["workloads"]]
    workloads = args.workload or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r} (known: {', '.join(known)})", file=sys.stderr)
        return 2
    checkouts = {"base": args.base.resolve(), "change": ROOT}
    script = manifest["command"][-1]
    if not (checkouts["base"] / script).is_file():
        print(f"error: {checkouts['base']} has no {script}: not a checkout of this repo",
              file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2

    out = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        for side in SIDES:
            (out / side).mkdir()
        runs: Dict[str, Dict[str, List[dict]]] = {side: {w: [] for w in workloads} for side in SIDES}
        for pair in range(args.pairs):
            seed = args.seed_base + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                command = [
                    *manifest["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(manifest["run_seconds"]), "--trace", "0",
                ]
                for side in order:
                    result = run_once(checkouts[side], command)
                    runs[side][workload].append(result)
                    print(f"pair {pair} seed {seed} {workload} {side}: " + "  ".join(
                        f"{name} {entry['value']:.4g}" for name, entry in result["metrics"].items()
                    ) + f"  failed {result['failed']}/{result['attempted']}", file=sys.stderr)
            for side in SIDES:
                # the all-workloads result format, which is what --compare reads
                results = {"workloads": {w: {"untraced": runs[side][w][pair]} for w in workloads}}
                (out / side / f"pair-{pair:02d}.json").write_text(
                    json.dumps(results, indent=1), encoding="utf-8"
                )

        summarize(manifest, workloads, runs)
        print(flush=True)  # ahead of the child's own output
        compare = subprocess.run(
            [*manifest["command"], "--compare", str(out / "base"), str(out / "change")],
            cwd=ROOT, check=False,
        )
        return compare.returncode
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
