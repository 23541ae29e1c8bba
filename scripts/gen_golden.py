"""Generate the golden-seed engine-equivalence fixture.

The fixture (``tests/golden/engine_golden.json``) pins the externally visible
outcome of the simulation engine — decisions, rounds/span, bit metrics — for a
matrix of (mode, adversary, n, seed) cases, plus the fault-injection cases and
the full normalized record of every ae-stage composition, of the baselines
and of async runs whose multicasts the calendar queue holds as delay runs.  ``tests/test_engine_golden.py``
asserts the current engine reproduces these values exactly, which is what makes
engine refactors provably behavior-preserving.

The committed fixture was produced by the pre-kernel seed engine (PR 1); only
regenerate it when an *intentional* behaviour change is made, and say so in the
commit message:

    PYTHONPATH=src python scripts/gen_golden.py tests/golden/engine_golden.json
"""

from __future__ import annotations

import json
import sys

from repro.experiments.plan import ExperimentSpec

#: (mode, rushing, adversary, n, seed) matrix pinned by the fixture
GOLDEN_MATRIX = [
    ("sync", False, "none", 24, 3),
    ("sync", False, "none", 40, 5),
    ("sync", False, "silent", 24, 3),
    ("sync", False, "equivocate", 24, 3),
    ("sync", False, "wrong_answer", 40, 5),
    ("sync", True, "equivocate", 24, 3),
    ("sync", True, "cornering_nodelay", 24, 3),
    ("async", False, "none", 24, 3),
    ("async", False, "none", 40, 5),
    ("async", False, "silent", 40, 5),
    ("async", False, "equivocate", 24, 3),
    ("async", False, "slow_knowledgeable", 24, 3),
    ("async", False, "cornering_nodelay", 24, 3),
]


#: fault-injection cases (PR 8): full specs pinned alongside their outcome.
#: Keys start with ``fault:`` and the entry carries its own ``"spec"`` dict,
#: so the legacy positional-key parser never sees them.
FAULT_MATRIX = [
    (
        "fault:churn:sync:n24:s3",
        dict(n=24, mode="sync", seed=3,
             faults={"churn_rate": 0.05, "recovery_rate": 0.5}),
    ),
    (
        "fault:loss:async:n24:s3",
        dict(n=24, mode="async", seed=3, faults={"loss_rate": 0.1}),
    ),
    (
        "fault:partition-heal:sync:n24:s5",
        dict(n=24, mode="sync", seed=5,
             faults={"partitions": [{"start": 1.0, "end": 3.0, "fraction": 0.5}]}),
    ),
]


#: composition cases (PR 15): every caller of the ae-stage, pinned on the full
#: normalized record.  Keys start with ``compose:``; the entry carries its
#: ``"spec"`` dict and the ``RunResult.to_dict()`` under ``"result"``.
COMPOSITION_MATRIX = [
    ("compose:full_ba:sync:n48:s3", dict(n=48, protocol="full_ba", seed=3)),
    ("compose:full_ba:async:n48:s6",
     dict(n=48, protocol="full_ba", mode="async", seed=6)),
    ("compose:full_ba:sync-traced:n32:s3",
     dict(n=32, protocol="full_ba", seed=3, trace="summary")),
    ("compose:full_ba:sync-rushing:equivocate:n48:s5",
     dict(n=48, protocol="full_ba", adversary="equivocate", rushing=True,
          seed=5, t=6)),
    ("compose:composed_ba:sample_majority:n48:s2",
     dict(n=48, protocol="composed_ba", seed=2,
          params={"strategy": "sample_majority"})),
    ("compose:composed_ba:naive:n48:s2",
     dict(n=48, protocol="composed_ba", seed=2, params={"strategy": "naive"})),
    ("compose:aer:from_ae:n48:s3",
     dict(n=48, seed=3, params={"scenario": "from_ae"})),
]


#: baseline cases: the Figure-1 comparators on their own, untraced, pinned on
#: the full normalized record like the composition cases.  Keys start with
#: ``baseline:``; the entry carries its ``"spec"`` dict and ``"result"``.
BASELINE_MATRIX = [
    (f"baseline:{protocol}:sync:{adversary}:n24:s1",
     dict(n=24, protocol=protocol, adversary=adversary, seed=1))
    for protocol in ("naive_broadcast", "sample_majority")
    for adversary in ("none", "silent")
]


#: async cases whose multicasts share one arrival time (a constant delay, or
#: the cornering adversary's 1.0 / MIN_DELAY), so the calendar queue holds
#: them as delay runs; one drops messages inside a run.  Keys start with
#: ``async_run:``; the entry carries its ``"spec"`` dict and ``"result"``.
ASYNC_RUN_MATRIX = [
    ("async_run:cornering:n24:s3",
     dict(n=24, mode="async", adversary="cornering", seed=3)),
    ("async_run:constant:none:n24:s3",
     dict(n=24, mode="async", seed=3, params={"delay_policy": "constant"})),
    ("async_run:constant:quorum_flood:n24:s3",
     dict(n=24, mode="async", adversary="quorum_flood", seed=3,
          params={"delay_policy": "constant"})),
    ("async_run:cornering-loss:n24:s3",
     dict(n=24, mode="async", adversary="cornering", seed=3,
          faults={"loss_rate": 0.1})),
]


def case_key(mode: str, rushing: bool, adversary: str, n: int, seed: int) -> str:
    return f"{mode}{'-rushing' if rushing else ''}:{adversary}:n{n}:s{seed}"


def run_case(mode: str, rushing: bool, adversary: str, n: int, seed: int) -> dict:
    result = ExperimentSpec(
        n=n, adversary=adversary, mode=mode, rushing=rushing, seed=seed
    ).run().raw
    return {
        "decisions": {str(i): v for i, v in sorted(result.decisions.items())},
        "rounds": result.rounds,
        "span": result.span,
        "total_messages": result.metrics_all.total_messages,
        "total_bits": result.metrics_all.total_bits,
        "max_node_bits": result.metrics.max_node_bits,
        "per_node_bits": {
            str(i): b for i, b in sorted(result.metrics.per_node_bits.items())
        },
        "decision_times": {
            str(i): t for i, t in sorted(result.metrics.decision_times.items())
        },
    }


def run_fault_case(spec_kwargs: dict) -> dict:
    spec = ExperimentSpec(**spec_kwargs)
    result = spec.run()
    raw = result.raw
    return {
        "spec": spec.to_dict(),
        "decisions": {str(i): v for i, v in sorted(raw.decisions.items())},
        "rounds": result.rounds,
        "span": result.span,
        "decided_count": result.decided_count,
        "agreement": result.agreement,
        "total_messages": result.total_messages,
        "total_bits": result.total_bits,
        "max_node_bits": result.max_node_bits,
        "decision_times": {
            str(i): t for i, t in sorted(raw.metrics.decision_times.items())
        },
        "extras": {k: v for k, v in sorted(result.extras.items())
                   if k.startswith("fault_")},
    }


def run_composition_case(spec_kwargs: dict) -> dict:
    spec = ExperimentSpec(**spec_kwargs)
    return {"spec": spec.to_dict(), "result": spec.run().to_dict()}


def main(out_path: str) -> None:
    golden = {
        case_key(*case): run_case(*case) for case in GOLDEN_MATRIX
    }
    golden.update(
        {key: run_fault_case(kwargs) for key, kwargs in FAULT_MATRIX}
    )
    golden.update(
        {key: run_composition_case(kwargs) for key, kwargs in COMPOSITION_MATRIX}
    )
    golden.update(
        {key: run_composition_case(kwargs) for key, kwargs in BASELINE_MATRIX}
    )
    golden.update(
        {key: run_composition_case(kwargs) for key, kwargs in ASYNC_RUN_MATRIX}
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
    print(f"wrote {len(golden)} golden cases to {out_path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "tests/golden/engine_golden.json")
