"""Tests for ``scripts/bench_pairs.py`` (alternating base/change benchmark pairs).

No benchmark runs here.  The script is pointed at two scratch "checkouts",
each holding a tiny stand-in ``bench/run.py`` that prints a canned result
line scaled by its checkout's ``scale.txt`` and logs who was called in which
order — so the pairing, the alternation, the summary arithmetic and the
hand-off to ``--compare`` are checked with real subprocesses in well under a
second.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

FAKE_RUN = '''
import json, pathlib, sys
args = sys.argv[1:]
here = pathlib.Path.cwd()
if args[0] == "--compare":
    print("compare", *(sorted(p.name for p in pathlib.Path(d).iterdir()) for d in args[1:]))
    sys.exit(3)
seed = int(args[args.index("--seed") + 1])
workload = args[args.index("--workload") + 1]
with open(here.parent / "order.log", "a") as log:
    log.write(f"{here.name} {workload} {seed} {args[args.index('--seconds') + 1]}\\n")
scale = float((here / "scale.txt").read_text())
print("# a progress line")
print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
    "wall_s": {"value": scale * (10 + seed), "unit": "s"},
    "rate": {"value": 100.0, "unit": "1/s"},
}}))
'''


@pytest.fixture
def pairs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    manifest = {
        "command": [sys.executable, "bench/run.py"],
        "run_seconds": 7,
        "workloads": [{"name": "alpha"}, {"name": "beta"}],
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
        ],
    }
    for name, scale in (("base", 1.0), ("change", 0.5)):
        checkout = tmp_path / name
        (checkout / "bench").mkdir(parents=True)
        (checkout / "bench" / "run.py").write_text(FAKE_RUN)
        (checkout / "scale.txt").write_text(str(scale))
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(module, "ROOT", tmp_path / "change")
    return module, tmp_path


def test_pairs_alternate_share_a_seed_and_end_in_compare(pairs, capfd):
    module, tmp = pairs
    status = module.main([str(tmp / "base"), "--workload", "alpha", "--pairs", "3", "--seed-base", "4"])
    assert status == 3  # --compare's exit status is the script's
    assert (tmp / "order.log").read_text().splitlines() == [
        "base alpha 4 7", "change alpha 4 7",
        "change alpha 5 7", "base alpha 5 7",
        "base alpha 6 7", "change alpha 6 7",
    ]
    out = capfd.readouterr().out
    # base 14, 15, 16 -> quartiles 14 / 15 / 16; change is half of it
    row = next(line for line in out.splitlines() if line.lstrip().startswith("wall_s"))
    assert "14 / 15 / 16" in row and "7 / 7.5 / 8" in row
    assert " 0.500 " in row and "3/3" in row and "yes" in row
    tie = next(line for line in out.splitlines() if line.lstrip().startswith("rate"))
    assert "0/3" in tie and "   3  no" in tie  # three ties, no gain
    assert "failed/attempted base 0/15, change 0/15" in out
    assert "compare ['pair-00.json', 'pair-01.json', 'pair-02.json'] " \
           "['pair-00.json', 'pair-01.json', 'pair-02.json']" in out
    results = Path(next(line for line in out.splitlines() if line.startswith("result files: "))
                   .split(": ", 1)[1])
    saved = json.loads((results / "change" / "pair-01.json").read_text())
    assert saved["workloads"]["alpha"]["untraced"]["metrics"]["wall_s"]["value"] == 7.5


def test_default_is_every_workload_of_the_manifest(pairs):
    module, tmp = pairs
    module.main([str(tmp / "base"), "--pairs", "1"])
    assert [line.split()[1] for line in (tmp / "order.log").read_text().splitlines()] == [
        "alpha", "alpha", "beta", "beta",
    ]


@pytest.mark.parametrize("argv", [["--workload", "gamma"], ["--pairs", "0"]])
def test_bad_arguments_exit_2_before_any_run(pairs, argv):
    module, tmp = pairs
    assert module.main([str(tmp / "base"), *argv]) == 2
    assert not (tmp / "order.log").exists()


def test_a_base_without_the_benchmark_exits_2(pairs):
    module, tmp = pairs
    (tmp / "empty").mkdir()
    assert module.main([str(tmp / "empty")]) == 2


def test_a_run_that_prints_no_result_stops_the_script(pairs):
    module, tmp = pairs
    (tmp / "base" / "bench" / "run.py").write_text("import sys; sys.exit('boom')")
    with pytest.raises(SystemExit, match="printed no result"):
        module.main([str(tmp / "base"), "--workload", "alpha", "--pairs", "1"])
