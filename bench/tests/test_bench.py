"""Tests of the benchmark itself (not part of tier-1):

    python -m pytest bench/tests -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def run_bench(*args):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    lines = done.stdout.strip().splitlines()
    return done, (json.loads(lines[-1]) if lines else None)


def test_manifest_matches_the_metric_definitions():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_exactly_the_manifest_metrics(workload, trace, tmp_path):
    done, result = run_bench(
        "--workload", workload, "--smoke", "--trace", str(trace),
        "--expected", str(tmp_path / "none.json"),
    )
    assert done.returncode == 0, done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert (harness.OUT_DIR / f"trace-{workload}.json").exists()


def test_seed_changes_every_op_key():
    keys = []
    for seed in ("0", "1"):
        done, _ = run_bench("--workload", "msg_sync", "--smoke", "--trace", "0", "--seed", seed)
        assert done.returncode == 0, done.stderr
        header = json.loads((harness.OUT_DIR / "run-msg_sync-trace0.json").read_text())
        keys.append({s["op_id"] for s in header["samples"]})
    assert keys[0] and not keys[0] & keys[1]


def test_corrupted_expected_entry_fails_one_op(tmp_path):
    pins = tmp_path / "expected.json"
    args = ("--workload", "msg_sync", "--smoke", "--trace", "0", "--expected", str(pins))
    done, _ = run_bench(*args, "--update-expected")
    assert done.returncode == 0, done.stderr
    data = json.loads(pins.read_text())
    op_id = sorted(data["ops"]["msg_sync"])[0]
    data["ops"]["msg_sync"][op_id]["total_messages"] += 1
    pins.write_text(json.dumps(data))
    done, result = run_bench(*args)
    assert done.returncode != 0
    assert result["failed"] == 1 and result["correct"] is False
    assert op_id in done.stderr


def _canonical(record):
    data = record.to_dict()
    data["seconds"] = 0.0
    return json.dumps(data, sort_keys=True)


def test_tracing_wrappers_are_fully_removed():
    from repro.experiments.plan import ExperimentSpec
    from repro.experiments.sweep import execute_spec

    spec = ExperimentSpec(n=24, adversary="silent", mode="async", seed=3)
    before = _canonical(execute_spec(spec))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracing.find_wrapped()
        with tracer.span("op", op_id="x", collect=True) as span:
            # the module attribute, not our from-import: that is what is wrapped
            from repro.experiments import sweep
            traced = _canonical(sweep.execute_spec(spec))
    assert not tracer.missing
    assert traced == before
    assert span["layers"]["core.node"]["calls"] > 0
    assert tracing.find_wrapped() == []
    assert _canonical(execute_spec(spec)) == before


def test_self_times_sum_to_the_root_duration():
    now = [0.0]

    def clock():
        now[0] += 1.0  # every reading advances time: wrappers cost time too
        return now[0]

    tracer = tracing.Tracer(clock=clock)

    def leaf():
        now[0] += 5.0

    def branch():
        now[0] += 2.0
        inner()
        inner()

    inner = tracer._wrap(leaf, "core.node", None)
    outer = tracer._wrap(branch, "net.loop", None)
    with tracer.span("root", collect=True) as root:
        with tracer.span("op") as op:
            outer()
            inner()
    layers = root["layers"]
    assert layers["core.node"]["calls"] == 3 and layers["net.loop"]["calls"] == 1
    total_self = root["self_s"] + op["self_s"] + sum(v["self_s"] for v in layers.values())
    assert total_self == pytest.approx(root["end"] - root["start"])
    assert layers["net.loop"]["self_s"] == pytest.approx(
        layers["net.loop"]["total_s"] - 2 * layers["core.node"]["total_s"] / 3
    )


def test_compare_verdicts():
    assert compare.verdict([10.0], [10.5], True, 0.10)[0] == "unchanged"
    assert compare.verdict([10.0], [11.5], True, 0.10)[0] == "worse"
    assert compare.verdict([10.0], [8.0], True, 0.10)[0] == "better"
    assert compare.verdict([100.0], [80.0], False, 0.10)[0] == "worse"
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert compare.verdict(noisy, [9.0, 10.0, 11.0, 13.0], True, 0.10)[0] == "unresolved"
    assert compare.verdict(noisy, [4.0, 5.0, 6.0, 7.0], True, 0.10)[0] == "better"
