"""Every script in ``examples/`` runs to completion.

The examples are the library as a newcomer first meets it; each is a
few seconds of real work with its own asserts, run here in a fresh
interpreter so that an import cycle or a removed name cannot hide
behind modules the suite already loaded.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                         capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
