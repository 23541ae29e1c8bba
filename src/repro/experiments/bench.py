"""``python -m repro bench`` — a thin entry over the repo benchmark.

``BENCHMARK.json`` and ``bench/`` own the workloads, the metric names and
their bounds; nothing here redefines them.  This module runs the manifest's
``command`` as a subprocess for its ``run_seconds`` and reads the result file
that run writes.  With ``--update`` it appends one generation — the commit
captured *before* the run, the benchmark's python / numpy / nproc and, per
workload, the end-to-end metrics, the per-layer block and ``attempted`` /
``failed`` — under the ``trajectory`` key of ``BENCH_kernel.json``, leaving
every older generation exactly as it was.  A plain run never writes.
"""

from __future__ import annotations

import json
import subprocess
import tempfile
from pathlib import Path
from typing import Dict

from repro.store.keys import git_commit

MANIFEST = "BENCHMARK.json"

DESCRIPTION = (
    "Performance trajectory: one generation per `python -m repro bench --update`, keyed by the "
    "commit measured, newest last.  Generations with a `workloads` block hold the metrics "
    "BENCHMARK.json names; `pr1`, `d567550` and `e2fcf78` are the min-of-N fixed-sweep history."
)


class BenchError(RuntimeError):
    """The benchmark could not be run (``exit_code`` 2) or did not pass (1)."""

    def __init__(self, message: str, exit_code: int = 1) -> None:
        super().__init__(message)
        self.exit_code = exit_code


def run_benchmark() -> Dict[str, object]:
    """Run the manifest's command; return the ``workloads`` block of the result file it wrote.

    A failed benchmark is not a measurement: raises :class:`BenchError` outside a checkout, on a
    non-zero exit, when a workload of the manifest printed no result and when any op failed a check.
    """
    manifest = json.loads(Path(MANIFEST).read_text(encoding="utf-8")) if Path(MANIFEST).is_file() else {}
    # (the command is an interpreter plus a script path relative to the checkout)
    if not any(Path(arg).is_file() for arg in manifest.get("command", ())):
        raise BenchError(
            f"{MANIFEST} and the benchmark it names are not in the working directory; "
            "run `python -m repro bench` from the root of a source checkout", exit_code=2,
        )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "result.json"
        seconds = str(manifest["run_seconds"])
        done = subprocess.run([*manifest["command"], "--seconds", seconds, "--out", str(out)], check=False)
        try:
            runs = json.loads(out.read_text(encoding="utf-8"))["workloads"]
        except (OSError, ValueError, KeyError):
            raise BenchError(f"benchmark exited {done.returncode} and wrote no result") from None
    for name in (workload["name"] for workload in manifest["workloads"]):
        for kind in ("untraced", "traced"):
            run = runs.get(name, {}).get(kind)
            if run is None:
                raise BenchError(f"workload {name} printed no {kind} result")
            if run["failed"]:
                raise BenchError(f"workload {name}: {run['failed']} of {run['attempted']} {kind} ops failed")
    if done.returncode != 0:
        raise BenchError(f"benchmark exited {done.returncode}")
    return runs


def _values(run: Dict[str, object]) -> Dict[str, float]:
    return {name: float(f"{metric['value']:.6g}") for name, metric in run["metrics"].items()}


def generation(runs: Dict[str, object], commit: str) -> Dict[str, object]:
    """One trajectory entry; metric names are whatever the result file holds."""
    header = next(iter(runs.values()))["untraced"]["header"]
    return {
        "commit": commit,
        **{key: header[key] for key in ("seconds", "python", "numpy", "nproc")},
        "workloads": {
            name: {
                "end_to_end": _values(run["untraced"]),
                "per_layer": _values(run["traced"]),
                "attempted": run["untraced"]["attempted"] + run["traced"]["attempted"],
                "failed": run["untraced"]["failed"] + run["traced"]["failed"],
            }
            for name, run in runs.items()
        },
    }


def run_bench(path: str = "BENCH_kernel.json", update: bool = False) -> Dict[str, object]:
    """Run the benchmark; with ``update`` append its generation to ``path``."""
    report: Dict[str, object] = {"description": DESCRIPTION, "trajectory": {}}
    if update and Path(path).exists():  # read first: a corrupt file fails before the long run
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    # The numbers belong to the tree as it stood when measurement started.
    commit = git_commit()
    entry = generation(run_benchmark(), commit)
    if update:
        trajectory = report.setdefault("trajectory", {})
        trajectory.pop(commit, None)  # re-measuring a commit replaces its entry, as the newest
        trajectory[commit] = entry
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return entry


def verify_provenance(path: str = "BENCH_kernel.json") -> str:
    """Assert the newest generation of ``path`` was measured at the checked-out HEAD; return its label.

    The ``+dirty`` marker is not compared: writing ``path`` itself dirties a clean checkout.
    """
    with open(path, encoding="utf-8") as fh:
        trajectory = json.load(fh).get("trajectory") or {}
    recorded = next(reversed(trajectory), None)
    head = git_commit()
    if recorded is None or recorded.removesuffix("+dirty") != head.removesuffix("+dirty"):
        raise RuntimeError(
            f"stale benchmark provenance in {path}: the newest generation is "
            f"{recorded!r} but HEAD is {head!r}; re-run `python -m repro bench "
            "--update` at the commit being measured"
        )
    return recorded
