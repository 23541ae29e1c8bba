"""Every ``examples/*.py`` runs to completion as a user would run it.

The examples are the library surface's documentation; they drive the message
kernel end to end (sync and async, adversaries, the full BA pipeline), so a
change that breaks one should fail here and not in a reader's terminal.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_runs(script):
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
