"""Backend-equivalence harness: message kernel vs the vectorized engine.

Two guarantees back the ``backend="vectorized"`` axis, and this module checks
both (see ARCHITECTURE.md "engine backends"):

**Exact** (:func:`check_exact`) — at any size where the vectorized engine
replays the per-node RNG draw order of the message kernel, the two backends
must agree *bit for bit*: same decisions, same decision times, same rounds,
same message and bit totals.  This holds for the failure-free and ``silent``
/ flooding adversaries; CI runs it at small ``n`` on every push.

**Statistical** (:func:`check_statistical`) — at sizes or under adversaries
where draw orders legitimately diverge (the cornering family merges
forwarding across labels differently), per-seed equality is not promised.
Instead the *distributions* across seeds must be indistinguishable: for each
metric the cross-seed confidence intervals of the two backends must overlap
(:func:`repro.analysis.statistics.distributions_equivalent`).  This is the
harness behind the large-``n`` acceptance gate (``n ∈ {4096, 10⁴}``, ≥10
seeds).

Both entry points are wired into ``python -m repro equivalence``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.statistics import distributions_equivalent, mean_ci
from repro.backends import BACKENDS
from repro.experiments.plan import ExperimentSpec

#: metrics whose cross-seed distributions the statistical check compares
STATISTICAL_METRICS = ("rounds", "total_bits", "total_messages", "decided_fraction")

#: adversaries with exact (bit-for-bit) vectorized replay of the kernel
EXACT_ADVERSARIES = ("none", "silent", "push_flood", "quorum_flood")


def _run(n: int, adversary: str, seed: int, backend: str, wrong_candidate_mode: str):
    return ExperimentSpec(
        n=n,
        adversary=adversary,
        seed=seed,
        wrong_candidate_mode=wrong_candidate_mode,
        backend=backend,
    ).run().raw


def _fingerprint(result) -> Dict[str, object]:
    """Everything the exact check compares, as one flat dict."""
    return {
        "decisions": dict(result.decisions),
        "decision_times": dict(result.metrics.decision_times),
        "rounds": result.rounds,
        "total_messages": result.metrics.total_messages,
        "total_bits": result.metrics.total_bits,
        "max_node_bits": result.metrics.max_node_bits,
        "total_messages_all": result.metrics_all.total_messages,
        "total_bits_all": result.metrics_all.total_bits,
    }


def _metric_values(result) -> Dict[str, float]:
    gstring = result.agreement_value()
    decided = result.fraction_decided(gstring) if gstring is not None else 0.0
    return {
        "rounds": float(result.rounds or 0),
        "total_bits": float(result.metrics.total_bits),
        "total_messages": float(result.metrics.total_messages),
        "decided_fraction": float(decided),
    }


@dataclass
class ExactReport:
    """Outcome of the bit-for-bit comparison over a (n, adversary, seed) grid."""

    cases: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_exact(
    ns: Sequence[int] = (48, 64),
    adversaries: Sequence[str] = EXACT_ADVERSARIES,
    seeds: Sequence[int] = (0, 1),
    wrong_candidate_mode: str = "common_wrong",
) -> ExactReport:
    """Run both backends on every grid point and demand identical results."""
    report = ExactReport()
    for n in ns:
        for adversary in adversaries:
            for seed in seeds:
                report.cases += 1
                msg = _fingerprint(_run(n, adversary, seed, "message", wrong_candidate_mode))
                vec = _fingerprint(_run(n, adversary, seed, "vectorized", wrong_candidate_mode))
                for key, expected in msg.items():
                    if vec[key] != expected:
                        report.mismatches.append(
                            f"n={n} adversary={adversary} seed={seed}: {key} "
                            f"message={expected!r} vectorized={vec[key]!r}"
                        )
    return report


@dataclass
class StatisticalReport:
    """Per-(n, metric) CI-overlap verdicts of the cross-seed comparison."""

    seeds: int = 0
    #: ``(n, metric) -> (message_ci, vectorized_ci, overlap)``
    verdicts: Dict[Tuple[int, str], Tuple[str, str, bool]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(overlap for _, _, overlap in self.verdicts.values())

    def failures(self) -> List[str]:
        return [
            f"n={n} {metric}: message CI {a} vs vectorized CI {b} are disjoint"
            for (n, metric), (a, b, overlap) in sorted(self.verdicts.items())
            if not overlap
        ]


def check_statistical(
    ns: Sequence[int] = (4096, 10_000),
    adversary: str = "none",
    seeds: Sequence[int] = tuple(range(10)),
    wrong_candidate_mode: str = "common_wrong",
    metrics: Sequence[str] = STATISTICAL_METRICS,
) -> StatisticalReport:
    """Cross-seed CI overlap between the backends for every metric at every n.

    The message backend dominates the cost (it is the slow engine at these
    sizes); both backends see the same seed list so scenario draws match.
    """
    report = StatisticalReport(seeds=len(seeds))
    for n in ns:
        samples: Dict[str, Dict[str, List[float]]] = {
            backend: {metric: [] for metric in metrics}
            for backend in BACKENDS
        }
        for backend in BACKENDS:
            for seed in seeds:
                values = _metric_values(_run(n, adversary, seed, backend, wrong_candidate_mode))
                for metric in metrics:
                    samples[backend][metric].append(values[metric])
        for metric in metrics:
            a = samples["message"][metric]
            b = samples["vectorized"][metric]
            overlap = distributions_equivalent(a, b)
            report.verdicts[(n, metric)] = (
                mean_ci(a).format(2),
                mean_ci(b).format(2),
                overlap,
            )
    return report
