"""Tests for the thin ``python -m repro bench`` entry (``experiments/bench.py``).

No benchmark runs here.  The entry is driven inside a scratch "checkout" (a
two-workload ``BENCHMARK.json`` with made-up metric names next to an empty
``bench/run.py``) with ``subprocess.run`` replaced by a fake that writes a
canned result file where ``--out`` says — so every name the entry records is
shown to come from the manifest and the result file, not from ``src/``.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.experiments import bench
from repro.experiments.cli import main as cli_main

REPO = Path(__file__).resolve().parents[1]
MANIFEST = {
    "command": ["python3", "bench/run.py"],
    "run_seconds": 7,
    "workloads": [{"name": "alpha"}, {"name": "beta"}],
}
HISTORY = {
    "description": "kept as is",
    "trajectory": {"pr1": {"seconds": {"k": 1.0}}, "0ld": {"commit": "0ld", "workloads": {}}},
}


def canned_result(scale=1.0, failed=0):
    def run(metrics, attempted, failed=0):
        return {
            "correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value * scale, "unit": "s"} for name, value in metrics.items()},
            "header": {"seconds": 7.0, "python": "3.11.7", "numpy": "1.26.4", "nproc": 2, "git": "ignored"},
        }

    return {"workloads": {
        "alpha": {"untraced": run({"wall_s": 1.23456789, "rss_mb": 64.0}, 5),
                  "traced": run({"layer.a_s": 0.5, "layer.b.calls": 12.0, "layer.c_s": 0.0}, 10)},
        "beta": {"untraced": run({"wall_s": 2.5, "rss_mb": 80.0}, 3),
                 "traced": run({"layer.a_s": 0.25, "layer.b.calls": 7.0, "layer.c_s": 0.125}, 6, failed)},
    }}


class FakeBenchmark:
    """Stands in for ``subprocess.run``: writes ``result`` (unless ``None``) to ``--out``."""

    def __init__(self):
        self.result = canned_result()
        self.returncode = 0
        self.commands = []

    def __call__(self, command, check=False):
        self.commands.append(list(command))
        if self.result is not None:
            Path(command[command.index("--out") + 1]).write_text(json.dumps(self.result))
        return subprocess.CompletedProcess(command, self.returncode)


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A scratch checkout as cwd; ``git_commit`` reads ``abc1234+dirty`` once, then moves on."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(MANIFEST))
    (tmp_path / "BENCH_kernel.json").write_text(json.dumps(HISTORY, indent=1) + "\n")
    monkeypatch.chdir(tmp_path)
    commits = iter(["abc1234+dirty", "fff9999", "fff9999"])
    monkeypatch.setattr(bench, "git_commit", lambda: next(commits))
    fake = FakeBenchmark()
    monkeypatch.setattr(bench.subprocess, "run", fake)
    return fake


def trajectory(path="BENCH_kernel.json"):
    return json.loads(Path(path).read_text())["trajectory"]


def test_plain_bench_runs_prints_and_writes_nothing(checkout, capsys):
    before = Path("BENCH_kernel.json").read_bytes()
    assert cli_main(["bench"]) == 0
    assert Path("BENCH_kernel.json").read_bytes() == before
    (command,) = checkout.commands
    assert command[:5] == ["python3", "bench/run.py", "--seconds", "7", "--out"]
    out = capsys.readouterr().out
    assert "abc1234+dirty" in out and "wall_s" in out and "rss_mb" in out
    assert cli_main(["bench", "--out", "never-created.json"]) == 0
    assert not Path("never-created.json").exists()


def test_update_appends_one_generation_under_the_pre_run_commit(checkout):
    assert cli_main(["bench", "--update"]) == 0
    report = json.loads(Path("BENCH_kernel.json").read_text())
    assert report["description"] == HISTORY["description"]
    assert list(report["trajectory"]) == ["pr1", "0ld", "abc1234+dirty"]
    for label, entry in HISTORY["trajectory"].items():
        assert report["trajectory"][label] == entry
    entry = report["trajectory"]["abc1234+dirty"]
    assert {k: v for k, v in entry.items() if k != "workloads"} == {
        "commit": "abc1234+dirty", "seconds": 7.0, "python": "3.11.7", "numpy": "1.26.4", "nproc": 2,
    }
    # metric names are exactly the keys of the result file
    for name, runs in checkout.result["workloads"].items():
        recorded = entry["workloads"][name]
        assert list(recorded["end_to_end"]) == list(runs["untraced"]["metrics"])
        assert list(recorded["per_layer"]) == list(runs["traced"]["metrics"])
        assert recorded["attempted"] == runs["untraced"]["attempted"] + runs["traced"]["attempted"]
        assert recorded["failed"] == 0
    assert entry["workloads"]["alpha"]["end_to_end"] == {"wall_s": 1.23457, "rss_mb": 64.0}


def test_update_creates_a_missing_file(checkout):
    assert cli_main(["bench", "--update", "--out", "fresh.json"]) == 0
    assert list(trajectory("fresh.json")) == ["abc1234+dirty"]


def test_second_update_at_the_same_commit_replaces_its_entry(checkout, monkeypatch):
    monkeypatch.setattr(bench, "git_commit", lambda: "0ld")
    assert cli_main(["bench", "--update"]) == 0
    checkout.result = canned_result(scale=2.0)
    assert cli_main(["bench", "--update"]) == 0
    assert list(trajectory()) == ["pr1", "0ld"]  # once, and as the newest
    assert trajectory()["0ld"]["workloads"]["beta"]["end_to_end"]["wall_s"] == 5.0
    assert trajectory()["pr1"] == HISTORY["trajectory"]["pr1"]


@pytest.mark.parametrize(
    "result, returncode, message",
    [
        (canned_result(), 1, "benchmark exited 1"),
        (None, 2, "exited 2 and wrote no result"),
        (
            {"workloads": {"alpha": canned_result()["workloads"]["alpha"]}}, 1,
            "workload beta printed no untraced result",
        ),
        (canned_result(failed=2), 1, "workload beta: 2 of 6 traced ops failed"),
    ],
    ids=["nonzero_exit", "no_result_file", "workload_missing", "failed_ops"],
)
def test_a_failed_benchmark_is_not_a_measurement(checkout, capsys, result, returncode, message):
    checkout.result, checkout.returncode = result, returncode
    before = Path("BENCH_kernel.json").read_bytes()
    assert cli_main(["bench", "--update"]) == 1
    assert Path("BENCH_kernel.json").read_bytes() == before
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["BENCHMARK.json", "bench/run.py"])
def test_outside_a_checkout_exits_2_with_one_line(checkout, capsys, missing):
    Path(missing).unlink()
    assert cli_main(["bench", "--update"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert checkout.commands == [] and list(trajectory()) == ["pr1", "0ld"]


def test_verify_provenance_accepts_the_newest_generation_and_rejects_a_stale_one(
    checkout, monkeypatch, capsys
):
    for head in ("0ld", "0ld+dirty"):  # writing the file itself dirties a clean checkout
        monkeypatch.setattr(bench, "git_commit", lambda: head)
        assert bench.verify_provenance("BENCH_kernel.json") == "0ld"
    monkeypatch.setattr(bench, "git_commit", lambda: "pr1")  # an older generation is stale
    with pytest.raises(RuntimeError, match="stale benchmark provenance"):
        bench.verify_provenance("BENCH_kernel.json")
    assert cli_main(["bench", "--verify-provenance"]) == 1
    assert "newest generation is '0ld' but HEAD is 'pr1'" in capsys.readouterr().err
    assert checkout.commands == []


def test_bench_takes_three_options_and_no_others():
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["bench", "--repeats", "1"])
    assert exit_info.value.code == 2


def test_committed_trajectory_keeps_the_folded_fixed_sweep_history():
    """The one-time migration: ``e2fcf78`` moved under ``trajectory`` with its protocol and ratios."""
    report = json.loads((REPO / "BENCH_kernel.json").read_text())
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(report) == {"description", "trajectory"}
    labels = list(report["trajectory"])
    assert labels[:3] == ["pr1", "d567550", "e2fcf78"] and len(labels) > 3
    folded = report["trajectory"]["e2fcf78"]
    assert folded["repeats"] == 2  # a min-of-2 generation is never read as anything else
    assert len(folded["cases"]) == 8 and len(folded["seconds"]) == 8
    assert folded["speedup_total"] == 5.5 and folded["speedup_vectorized_n4096"] == 434.78
    assert folded["speedup_vs_previous_total"] == 0.8 and "machine noise" in folded["note"]
    for label in labels[3:]:
        entry = report["trajectory"][label]
        assert entry["commit"] == label
        assert list(entry["workloads"]) == [w["name"] for w in manifest["workloads"]]
        for run in entry["workloads"].values():
            assert list(run["end_to_end"]) == [m["name"] for m in manifest["end_to_end"]]
            assert run["per_layer"] and run["attempted"] > 0 and run["failed"] == 0
