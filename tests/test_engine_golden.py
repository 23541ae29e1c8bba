"""Golden-seed engine equivalence tests.

``tests/golden/engine_golden.json`` pins the externally visible outcome of
the simulation engine — per-node decisions, round/span timing, per-node and
total bit metrics — for a matrix of (mode, adversary, n, seed) cases, as
produced by the pre-columnar engine (the original entries by the pre-kernel
seed engine).  These tests assert the current engine reproduces every pinned
value *exactly*, which is what makes kernel and sampler refactors provably
behavior-preserving.  The matrix deliberately covers both scheduler paths of
the columnar engine: the fast paths nobody observes per message (grouped
sync inboxes; the async calendar queue with no adversary or a send-blind
one, ``watches_sends`` false) and the observed ones — the rushing observation
list, and the per-destination ``SendRecord`` observations of ``cornering``
and the ``cornering_nodelay`` delay adversary inside one grouped async
record — and the async delay runs (``async_run:`` keys: ``cornering``, the
``constant`` policy, and loss dropping destinations inside a run).  The one
traced case is sync (``compose:full_ba:sync-traced``).  A
traced async run with an adversary, the one configuration that still
dispatches a multicast message by message, is not pinned here;
``tests/test_trace.py`` checks it against its untraced twin.

If a PR intentionally changes engine behaviour, regenerate the fixture with
``scripts/gen_golden.py`` and call the change out explicitly.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import fields

import pytest

from repro.experiments.plan import ExperimentSpec

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "engine_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

#: legacy positional-key cases vs the spec-keyed ones (these carry a "spec"
#: dict): fault cases, and the composition and baseline cases pinning a full
#: "result"
LEGACY_CASES = sorted(k for k, v in GOLDEN.items() if "spec" not in v)
FAULT_CASES = sorted(k for k, v in GOLDEN.items() if "spec" in v and "result" not in v)
COMPOSITION_CASES = sorted(k for k, v in GOLDEN.items() if k.startswith("compose:"))
BASELINE_CASES = sorted(k for k, v in GOLDEN.items() if k.startswith("baseline:"))
ASYNC_RUN_CASES = sorted(k for k, v in GOLDEN.items() if k.startswith("async_run:"))


def _parse_case(key: str):
    mode_part, adversary, n_part, seed_part = key.split(":")
    rushing = mode_part.endswith("-rushing")
    mode = mode_part.replace("-rushing", "")
    return mode, rushing, adversary, int(n_part[1:]), int(seed_part[1:])


@pytest.mark.parametrize("case_key", LEGACY_CASES, ids=LEGACY_CASES)
def test_engine_reproduces_golden_case(case_key):
    mode, rushing, adversary, n, seed = _parse_case(case_key)
    expected = GOLDEN[case_key]

    result = ExperimentSpec(
        n=n, adversary=adversary, mode=mode, rushing=rushing, seed=seed
    ).run().raw

    assert {str(i): v for i, v in result.decisions.items()} == expected["decisions"]
    assert result.rounds == expected["rounds"]
    assert result.span == expected["span"]
    assert result.metrics_all.total_messages == expected["total_messages"]
    assert result.metrics_all.total_bits == expected["total_bits"]
    assert result.metrics.max_node_bits == expected["max_node_bits"]
    assert {
        str(i): b for i, b in result.metrics.per_node_bits.items()
    } == expected["per_node_bits"]
    assert {
        str(i): t for i, t in result.metrics.decision_times.items()
    } == expected["decision_times"]


@pytest.mark.parametrize("case_key", FAULT_CASES, ids=FAULT_CASES)
def test_engine_reproduces_golden_fault_case(case_key):
    """The fault-injection cases (churn, loss, partition-heal) are pinned too.

    Each entry stores its full spec dict, so the case round-trips through
    ``ExperimentSpec.from_dict`` — exercising the canonical ``faults``
    spelling — before running on the message kernel.
    """
    expected = GOLDEN[case_key]
    spec = ExperimentSpec.from_dict(expected["spec"])
    result = spec.run()
    raw = result.raw

    assert spec.to_dict() == expected["spec"]
    assert {str(i): v for i, v in raw.decisions.items()} == expected["decisions"]
    assert result.rounds == expected["rounds"]
    assert result.span == expected["span"]
    assert result.decided_count == expected["decided_count"]
    assert result.agreement == expected["agreement"]
    assert result.total_messages == expected["total_messages"]
    assert result.total_bits == expected["total_bits"]
    assert result.max_node_bits == expected["max_node_bits"]
    assert {
        str(i): t for i, t in raw.metrics.decision_times.items()
    } == expected["decision_times"]
    fault_extras = {
        k: v for k, v in result.extras.items() if k.startswith("fault_")
    }
    assert fault_extras == expected["extras"]


@pytest.mark.parametrize("case_key", COMPOSITION_CASES, ids=COMPOSITION_CASES)
def test_engine_reproduces_golden_composition_case(case_key):
    """Every caller of the ae-stage is pinned on its full normalized record.

    ``full_ba`` (sync, async, traced, rushing adversary), ``composed_ba`` with
    both everywhere stages and ``aer`` on the ``from_ae`` scenario: the whole
    ``RunResult.to_dict()`` — stage sums, node-wise load, extras, trace block —
    must survive a JSON round trip equal to what the fixture recorded.
    """
    _assert_record_case(case_key)


@pytest.mark.parametrize("case_key", BASELINE_CASES, ids=BASELINE_CASES)
def test_engine_reproduces_golden_baseline_case(case_key):
    """The Figure-1 baselines on their own, pinned on the full record.

    ``naive_broadcast`` and ``sample_majority``, untraced, sync, with no
    adversary and with silent corrupt nodes: every field of
    ``RunResult.to_dict()`` — message and bit totals, node-wise load,
    decision times — must equal what the fixture recorded, so a change to
    how the baselines put their multicasts on the wire cannot drift them.
    """
    _assert_record_case(case_key)


@pytest.mark.parametrize("case_key", ASYNC_RUN_CASES, ids=ASYNC_RUN_CASES)
def test_engine_reproduces_golden_async_run_case(case_key):
    """Async multicasts queued as delay runs, pinned on the full record.

    ``cornering`` (honest traffic held at 1.0, its own at ``MIN_DELAY``), the
    ``constant`` delay policy with no adversary and with ``quorum_flood``,
    and ``cornering`` under 10 % loss, which drops destinations in the
    middle of a run: every destination of such a multicast arrives at one
    time, so the calendar queue holds it as one entry, and the record must
    equal the one of per-destination queuing.
    """
    _assert_record_case(case_key)


def _assert_record_case(case_key):
    expected = GOLDEN[case_key]
    spec = ExperimentSpec.from_dict(expected["spec"])

    assert spec.to_dict() == expected["spec"]
    assert json.loads(json.dumps(spec.run().to_dict())) == expected["result"]


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_faults_off_equals_plain(mode):
    """An empty fault schedule must be byte-identical to no schedule at all.

    Mirrors the trace-off equality test: every no-op spelling of ``faults``
    collapses to ``"{}"`` at spec construction, no injector is built, and
    every normalized field of the result agrees exactly with the plain run.
    """
    base = ExperimentSpec(n=128, adversary="none", mode=mode, seed=2)
    plain = base.run()
    faulted_off = base.with_(
        faults={"loss_rate": 0.0, "churn_rate": 0.0, "slow_factor": 1.0}
    ).run()

    assert base.with_(faults={}) == base
    for field in fields(type(plain)):
        if field.name in ("trace", "raw"):
            continue
        assert getattr(faulted_off, field.name) == getattr(plain, field.name), field.name


def test_trace_summary_equals_off_async_n256():
    """``trace="summary"`` must not perturb the async fast path at bench scale.

    The BENCH_kernel async case (n=256, no adversary) runs once with tracing
    off and once with the summary collector attached; every normalized
    metric must agree exactly — probes observe the grouped dispatch records,
    they never change scheduling, RNG consumption or accounting.  The
    ``trace="off"`` totals are the ones every recorded fixed-sweep generation
    of ``BENCH_kernel.json`` carries for this spec.
    """
    base = ExperimentSpec(n=256, adversary="none", mode="async", seed=0)
    off = base.run()
    summary = base.with_(trace="summary").run()

    assert (off.total_messages, off.total_bits) == (940353, 63192476)
    assert off.trace is None
    assert summary.trace is not None and summary.trace["mode"] == "summary"
    for field in fields(type(off)):
        if field.name in ("trace", "raw"):
            continue
        assert getattr(summary, field.name) == getattr(off, field.name), field.name
    # the trace block itself must agree with the kernel's own accounting
    dispatched = sum(
        kinds["messages"]
        for kinds in summary.trace["message_kinds"].values()
    )
    assert dispatched == off.total_messages
