"""What a CLI path loads, checked in a fresh interpreter.

Naming, validating, storing or rendering a spec never imports the engine
(ARCHITECTURE.md, "Invariants to preserve"): only the code that runs a spec
does.  A report or sweep served from a warm store therefore loads neither
the simulator nor numpy nor ``multiprocessing`` — and since every process
compiles what it imports, that is its start-up latency.  Each check here
runs in its own interpreter, because the test process has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)

#: modules (and their submodules) a served path must not load
ENGINE = (
    "repro.runner",
    "repro.net.kernel",
    "repro.core.aer",
    "repro.adversary.base",
    "repro.ae.protocol",
    "repro.vec",
    "numpy",
    "multiprocessing",
)

#: runs the CLI with argv[2:], then writes the loaded module names to argv[1]
_CLI = """
import json, sys
from repro.experiments.cli import main
status = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"status": status, "modules": sorted(sys.modules)}, fh)
"""


def _python(code: str, *args: str, cwd: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, REPRO_CODE_FINGERPRINT="import-set-test")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    return done


def _cli_modules(tmp_path: pathlib.Path, *argv: str) -> list:
    out = tmp_path / "modules.json"
    _python(_CLI, str(out), *argv, cwd=tmp_path)
    result = json.loads(out.read_text())
    assert result["status"] == 0
    return result["modules"]


def _engine(modules) -> list:
    return [m for m in modules if any(m == e or m.startswith(e + ".") for e in ENGINE)]


def test_a_served_report_loads_no_engine(tmp_path):
    args = ["report", "--quick", "--sections", "lemma3", "--jobs", "1", "--store", str(tmp_path / "s.db")]
    cold = _cli_modules(tmp_path, *args, "-o", str(tmp_path / "cold.md"))
    assert "repro.runner" in cold  # the cold run did simulate
    served = _cli_modules(tmp_path, *args, "-o", str(tmp_path / "served.md"))
    assert _engine(served) == []
    assert (tmp_path / "served.md").read_bytes() == (tmp_path / "cold.md").read_bytes()


def test_a_served_sweep_loads_no_engine(tmp_path):
    args = ["sweep", "--ns", "24", "--seeds", "1,2", "--jobs", "1", "--store", str(tmp_path / "s.db")]
    assert "repro.runner" in _cli_modules(tmp_path, *args)
    assert _engine(_cli_modules(tmp_path, *args)) == []


def test_validating_a_vectorized_spec_loads_no_numpy(tmp_path):
    done = _python(
        "import sys\n"
        "from repro.experiments.plan import ExperimentSpec\n"
        "ExperimentSpec(n=10**5, backend='vectorized', adversary='cornering').validate()\n"
        "ExperimentSpec(n=10**5, protocol='sample_majority', backend='vectorized').validate()\n"
        "try:\n"
        "    ExperimentSpec(n=64, backend='vectorized', adversary='wrong_answer').validate()\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('repro.vec')))\n",
        cwd=tmp_path,
    )
    rejected, loaded = done.stdout.strip().splitlines()
    assert "does not support adversary 'wrong_answer'" in rejected
    assert loaded == "[]"


def test_the_vectorized_engines_read_their_adversaries_from_one_place():
    from repro import backends
    from repro.vec import engine, majority

    assert engine.VEC_ADVERSARIES is backends.VEC_ADVERSARIES
    assert majority.VEC_MAJORITY_ADVERSARIES is backends.VEC_MAJORITY_ADVERSARIES


@pytest.mark.parametrize(
    "package", ["repro", "repro.core", "repro.net", "repro.samplers", "repro.trace", "repro.vec"]
)
def test_every_re_exported_name_resolves(package, tmp_path):
    done = _python(
        "import importlib, sys\n"
        f"package = importlib.import_module({package!r})\n"
        "missing = [name for name in package.__all__ if not hasattr(package, name)]\n"
        "print(len(package.__all__), missing)\n",
        cwd=tmp_path,
    )
    count, missing = done.stdout.split(" ", 1)
    assert int(count) > 0 and missing.strip() == "[]"


def test_lazy_names_are_the_defining_modules_objects():
    import repro.core
    import repro.net
    from repro.core.scenario import build_aer_nodes
    from repro.net.kernel import EventKernel
    from repro.runner import run_aer

    assert repro.run_aer is run_aer
    assert repro.core.build_aer_nodes is build_aer_nodes
    assert repro.net.EventKernel is EventKernel
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        repro.core.nope  # noqa: B018


def test_from_repro_import_a_submodule_still_imports_it(tmp_path):
    done = _python(
        "import sys\n"
        "from repro import dist\n"
        "print(dist.__name__, 'repro.dist' in sys.modules)\n",
        cwd=tmp_path,
    )
    assert done.stdout.split() == ["repro.dist", "True"]
