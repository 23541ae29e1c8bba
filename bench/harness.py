"""Shared machinery of the benchmark: hermetic environment, op runner, checks.

A *run* is one workload executed in one process: set-up (repeated, timed),
then cycles of the workload's fixed op schedule in a closed loop until the
time budget is spent.  Every op goes through :meth:`Run.op`, which collects
garbage (timed on its own), times the work, catches its exceptions, and
afterwards — outside the timed region — inspects the result: invariant checks always, pinned statistics from
``expected.json`` when the op id is listed there (the default seed).
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: code identity every store/dist handshake of a run is pinned to, so records
#: written by one phase serve the next no matter what git says
FINGERPRINT = "bench"

#: the simulated statistics pinned per op at the default seed
STAT_FIELDS = (
    "total_messages", "total_bits", "rounds", "span",
    "decided_count", "correct_count", "agreement",
)


def hermetic_env() -> Dict[str, str]:
    """The environment of every child process (and, via re-exec, our own)."""
    env = dict(os.environ)
    for name in ("REPRO_STORE", "REPRO_TRACE_DIR"):
        env.pop(name, None)
    path = [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env.update(
        PYTHONHASHSEED="0",
        REPRO_CODE_FINGERPRINT=FINGERPRINT,
        PYTHONPATH=os.pathsep.join(dict.fromkeys(path)),
    )
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def peak_rss_mb() -> float:
    """High-water resident set of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_python(args: Sequence[str]) -> subprocess.CompletedProcess:
    """Run ``python <args>`` hermetically and wait for it."""
    return subprocess.run(
        [sys.executable, *args], env=hermetic_env(), capture_output=True, text=True, check=False,
    )


def record_stats(record) -> Dict[str, object]:
    """The pinned simulated statistics of one ExperimentRecord."""
    return {name: getattr(record, name) for name in STAT_FIELDS}


def safety_failures(record) -> List[str]:
    """Lemma 7 safety: no correct node decides anything but ``gstring``.

    Read off the record alone: the adapters report ``decided_gstring`` (the
    fraction of correct nodes that decided gstring, rounded to 4 places), and
    ``decided_count`` counts every decision.  The two round identically iff
    every decider decided gstring, so there are no false alarms; one wrong
    decision is visible while ``correct_count`` stays below ~20 000.
    """
    gstring = record.extras.get("decided_gstring")
    if gstring is None or not record.correct_count:
        return []
    if round(record.decided_count / record.correct_count, 4) != gstring:
        return [
            f"safety: {record.decided_count}/{record.correct_count} decided but "
            f"decided_gstring={gstring}"
        ]
    return []


@dataclass
class Sample:
    """One timed op."""

    op_id: str
    cls: str
    cycle: int
    #: position of the op within its cycle (the same op kind in every cycle)
    slot: int
    traced: bool
    seconds: float
    stats: Dict[str, object] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    layers: Optional[Dict[str, Dict[str, float]]] = None
    #: seconds of the full collection that preceded the op
    gc_s: float = 0.0


#: what an op's ``inspect`` callback returns: (stats, extra, failures)
Inspection = Tuple[Dict[str, object], Dict[str, object], List[str]]


class Run:
    """State of one workload run: samples, temp space, tracer, pins."""

    def __init__(
        self,
        seed: int,
        smoke: bool,
        expected: Dict[str, Dict[str, object]],
        update_expected: bool = False,
    ) -> None:
        self.seed = seed
        self.smoke = smoke
        self.expected = expected
        self.update_expected = update_expected
        self.samples: List[Sample] = []
        self.cycle = 0
        self.tracer = None  # set while a traced pass is running
        OUT_DIR.mkdir(exist_ok=True)
        #: everything a run writes lives under here and is removed at the end
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fresh_dir(self, label: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.tmp))

    # ------------------------------------------------------------------
    def op(
        self,
        op_id: str,
        cls: str,
        work: Callable[[], object],
        inspect: Callable[[object], Inspection],
    ) -> Optional[object]:
        """Time ``work()``, then check its result; returns the result (or
        ``None`` if it raised — the op is then counted as failed)."""
        tracer = self.tracer
        traced = tracer is not None
        sample = Sample(
            op_id=op_id, cls=cls, cycle=self.cycle, traced=traced, seconds=0.0,
            slot=len(self.select(traced=traced, cycle=self.cycle)),
        )
        payload = None
        error: Optional[BaseException] = None
        # Every op starts on a collected heap.  A full collection of the
        # cached sampler suites costs 0.1-1.5 s and would otherwise land on
        # whichever op happens to cross the allocation threshold (one op in
        # ~15 reads 2.5x); here it is paid before each op, timed on its own
        # and charged to the cycle, not to the op's latency.
        start = time.perf_counter()
        gc.collect()
        sample.gc_s = time.perf_counter() - start
        if tracer is None:
            start = time.perf_counter()
            try:
                payload = work()
            except Exception as exc:  # an op must never take the run down
                error = exc
            sample.seconds = time.perf_counter() - start
        else:
            with tracer.span("op", op_id=op_id, collect=True) as span:
                try:
                    payload = work()
                except Exception as exc:
                    error = exc
            sample.seconds = span["end"] - span["start"]
            sample.layers = span["layers"]
            sample.layers["bench.harness"] = {
                "calls": 1, "total_s": sample.seconds, "self_s": span["self_s"], "units": 0,
            }
        if error is not None:
            sample.failures.append(f"exception: {type(error).__name__}: {error}")
        else:
            try:
                sample.stats, sample.extra, failures = inspect(payload)
                sample.failures.extend(failures)
            except Exception as exc:
                sample.failures.append(f"check raised: {type(exc).__name__}: {exc}")
            pinned = self.expected.get(op_id)
            if pinned is not None and not self.update_expected and sample.stats != pinned:
                diff = {
                    k: (pinned.get(k), sample.stats.get(k))
                    for k in set(pinned) | set(sample.stats)
                    if pinned.get(k) != sample.stats.get(k)
                }
                sample.failures.append(f"pinned statistics differ (expected, got): {diff}")
        self.samples.append(sample)
        for failure in sample.failures:
            print(f"FAILED {op_id}: {failure}", file=sys.stderr)
        return payload if error is None else None

    # ------------------------------------------------------------------
    def select(self, cls: Optional[Sequence[str]] = None, traced: bool = False,
               cycle: Optional[int] = None) -> List[Sample]:
        return [
            s for s in self.samples
            if s.traced == traced
            and (cls is None or s.cls in cls)
            and (cycle is None or s.cycle == cycle)
        ]

    def cycles(self, traced: bool = False) -> List[int]:
        return sorted({s.cycle for s in self.samples if s.traced == traced})
