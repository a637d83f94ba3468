"""Smoke test of the demos: each ``demos/0*.py`` script runs to the end.

Each demo runs in its own interpreter, with the ``adatm`` the tests import
first on its path, and must exit 0 with nothing on stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import adatm

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))
SRC = str(Path(adatm.__file__).resolve().parent.parent)


def test_the_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
