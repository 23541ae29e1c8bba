"""Randomized spec fuzzer: ~500 seeded valid/invalid ExperimentSpec spellings.

The spec layer's contract is that an :class:`ExperimentSpec` is a *value*:
any spelling of the same run — params as a dict or as JSON text, faults as a
dict, JSON text or :class:`~repro.faults.FaultSchedule`, defaults written
out or omitted — collapses to one canonical frozen object with one
content-addressed ``spec_key``, and every malformed spelling is rejected
with the offending key named.  Hand-written examples cannot cover that
combinatorially, so this module drives a *seeded* generator (fixed seed →
the suite is deterministic) through hundreds of spellings:

* **valid specs** must construct, survive a canonical-JSON round-trip
  (``to_dict`` → ``json`` → ``from_dict``) as an *equal* object with a
  *stable* ``spec_key``, and equal-meaning spellings must be equal objects;
* **invalid specs** must raise ``ValueError`` from construction or
  ``validate()`` with the offending key (or mode/backend value) named in
  the message — a fuzzer-found rejection that does not say *what* was wrong
  is a bug here, even if rejecting was right.
"""

from __future__ import annotations

import json
import random

from repro.experiments.plan import ExperimentSpec
from repro.faults import FaultSchedule
from repro.store.keys import spec_key

import pytest

#: fixed fuzz seed — the whole suite is deterministic and reproducible
FUZZ_SEED = 0xAE12
VALID_CASES = 300
INVALID_CASES = 200

ADVERSARIES = ("none", "silent", "equivocate", "wrong_answer", "noise")
TRACE_MODES = ("off", "summary", "full")
DELAY_POLICIES = ("random", "constant", "pareto", "lognormal")


def _random_faults(rng: random.Random, mode: str) -> dict:
    """A random *valid* fault-knob dict (possibly empty) for ``mode``."""
    faults: dict = {}
    if rng.random() < 0.4:
        faults["loss_rate"] = round(rng.uniform(0.0, 0.9), 3)
    if rng.random() < 0.3:
        faults["churn_rate"] = round(rng.uniform(0.01, 0.5), 3)
        if rng.random() < 0.5:
            faults["recovery_rate"] = round(rng.uniform(0.0, 1.0), 3)
        if rng.random() < 0.3:
            faults["churn_start"] = float(rng.randrange(0, 5))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.0, 3.0), 2)
        faults["partitions"] = [
            {
                "start": start,
                "end": round(start + rng.uniform(0.5, 3.0), 2),
                "fraction": round(rng.uniform(0.1, 0.9), 2),
            }
        ]
    if mode == "async" and rng.random() < 0.3:
        faults["slow_fraction"] = round(rng.uniform(0.1, 1.0), 2)
        faults["slow_factor"] = round(rng.uniform(1.0, 8.0), 2)
        if rng.random() < 0.5:
            faults["byzantine_factor"] = round(rng.uniform(0.1, 4.0), 2)
    return faults


def _feasible_kf_bound(n: int) -> float:
    """The largest knowledge fraction a synthetic scenario can meet at ``n``
    with the default ``t``: more than ``kf · n`` of the ``n − t`` correct
    nodes must know ``gstring``, so ``⌊kf · n⌋ ≤ n − t − 1``."""
    t = ExperimentSpec(n=n).byzantine_count
    return (n - t - 1) / n


def _random_valid_spec(rng: random.Random) -> ExperimentSpec:
    mode = rng.choice(("sync", "async"))
    params: dict = {}
    if mode == "async" and rng.random() < 0.3:
        params["delay_policy"] = rng.choice(DELAY_POLICIES)
    if rng.random() < 0.2:
        params["max_rounds"] = rng.randrange(8, 64)
    faults = _random_faults(rng, mode)
    spelling = rng.random()
    n = rng.randrange(8, 256)
    return ExperimentSpec(
        n=n,
        adversary=rng.choice(ADVERSARIES),
        mode=mode,
        rushing=(mode == "sync" and rng.random() < 0.2),
        seed=rng.randrange(0, 1000),
        # rounding to 3 places moves kf · n by < 0.13 at n < 256: still feasible
        knowledge_fraction=round(rng.uniform(0.7, min(0.95, _feasible_kf_bound(n))), 3),
        quorum_multiplier=round(rng.uniform(1.5, 3.0), 2),
        trace=rng.choice(TRACE_MODES),
        label=rng.choice(("", "fuzz", "series-a")),
        params=json.dumps(params) if spelling < 0.3 else params,
        faults=(
            json.dumps(faults)
            if spelling < 0.3
            else FaultSchedule.from_dict(faults) if spelling < 0.5 else faults
        ),
    )


def test_valid_specs_round_trip_canonically():
    rng = random.Random(FUZZ_SEED)
    for case in range(VALID_CASES):
        spec = _random_valid_spec(rng)
        context = f"case {case}: {spec!r}"

        # canonical-JSON round-trip equality (through real JSON text, as the
        # sweep files and the experiment service do)
        data = json.loads(json.dumps(spec.to_dict()))
        rebuilt = ExperimentSpec.from_dict(data)
        assert rebuilt == spec, context
        assert rebuilt.to_dict() == spec.to_dict(), context

        # spec_key stability across the round-trip and across re-spellings
        key = spec_key(spec)
        assert spec_key(rebuilt) == key, context
        respelled = spec.with_(
            params=spec.params_dict(), faults=spec.faults_dict()
        )
        assert respelled == spec and spec_key(respelled) == key, context

        # the spec is actually runnable as described
        spec.validate()


def test_infeasible_knowledge_fractions_are_rejected_at_validate():
    # just above the bound: too few correct nodes to reach the target, which
    # validate() must say before any run (the spec itself constructs fine)
    rng = random.Random(FUZZ_SEED + 3)
    for case in range(100):
        n = rng.randrange(8, 256)
        kf = rng.uniform(_feasible_kf_bound(n) + 1.01 / n, 1.0)
        spec = ExperimentSpec(n=n, knowledge_fraction=kf)
        with pytest.raises(ValueError, match="cannot make") as err:
            spec.validate()
        assert "knowledge_fraction" in str(err.value), f"case {case}: {spec!r}"


def test_equal_meaning_spellings_are_equal_objects():
    rng = random.Random(FUZZ_SEED + 1)
    for case in range(50):
        faults = _random_faults(rng, "async")
        as_dict = ExperimentSpec(n=32, mode="async", faults=faults)
        as_json = ExperimentSpec(n=32, mode="async", faults=json.dumps(faults))
        as_schedule = ExperimentSpec(
            n=32, mode="async", faults=FaultSchedule.from_dict(faults)
        )
        assert as_dict == as_json == as_schedule, f"case {case}: {faults}"
        assert spec_key(as_dict) == spec_key(as_json) == spec_key(as_schedule)


def _invalid_case(rng: random.Random):
    """One random malformed spelling: (builder, substring the error must name)."""
    fault_knob = rng.choice(
        ("loss_rate", "churn_rate", "recovery_rate", "slow_fraction")
    )
    bad_value = rng.choice((-0.5, 1.5, 7.0, "high", True))
    unknown_key = rng.choice(("drop_rate", "crashes", "lossrate", "jitter"))
    kind = rng.randrange(11)
    if kind == 0:
        data = ExperimentSpec(n=24).to_dict()
        data[unknown_key] = 1
        return (lambda: ExperimentSpec.from_dict(data)), unknown_key
    if kind == 1:
        return (lambda: ExperimentSpec(n=24, faults={unknown_key: 0.1})), unknown_key
    if kind == 2:
        return (
            lambda: ExperimentSpec(n=24, faults={fault_knob: bad_value})
        ), fault_knob
    if kind == 3:
        window = rng.choice(
            (
                {"start": 5.0, "end": 1.0},
                {"start": 0.0, "end": 2.0, "fraction": rng.choice((0.0, 1.0))},
                {"end": 3.0},
                {"start": 0.0, "end": 2.0, unknown_key: 1},
                "both-sides",
            )
        )
        return (
            lambda: ExperimentSpec(n=24, faults={"partitions": [window]})
        ), "partitions"
    if kind == 4:
        return (
            lambda: ExperimentSpec(n=24, faults={"churn_start": 3.0})
        ), "churn_start"
    if kind == 5:
        knob = rng.choice(("slow_fraction", "byzantine_factor"))
        faults = (
            {"slow_fraction": 0.5, "slow_factor": 2.0}
            if knob == "slow_fraction"
            else {"byzantine_factor": 0.5}
        )
        spec = ExperimentSpec(n=24, mode="sync", faults=faults)
        return spec.validate, knob
    if kind == 6:
        spec = ExperimentSpec(n=24, mode=rng.choice(("synch", "both", "")))
        return spec.validate, "mode"
    if kind == 7:
        spec = ExperimentSpec(n=24, trace=rng.choice(("on", "verbose")))
        return spec.validate, "trace"
    if kind == 8:
        spec = ExperimentSpec(n=24, backend=rng.choice(("numpy", "gpu")))
        return spec.validate, "backend"
    if kind == 9:
        spec = ExperimentSpec(
            n=24, backend="vectorized", faults={"loss_rate": 0.2}
        )
        return spec.validate, "vectorized"
    # a knob spelled as a params entry, even at its default value
    knob = rng.choice(ExperimentSpec.KNOBS)
    spec = ExperimentSpec(n=24, params={knob: getattr(ExperimentSpec, knob)})
    return spec.validate, f"ExperimentSpec.{knob}"


def test_invalid_specs_are_rejected_naming_the_offender():
    rng = random.Random(FUZZ_SEED + 2)
    for case in range(INVALID_CASES):
        builder, needle = _invalid_case(rng)
        with pytest.raises(ValueError) as err:
            builder()
        assert needle in str(err.value), f"case {case}: {needle!r} not in {err.value}"
