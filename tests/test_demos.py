"""Smoke test of the demos: each ``demos/0*.py`` script runs to the end and
prints what it printed when its pin was taken.

Each demo runs in its own interpreter, with the ``adatm`` the tests import
first on its path, and must exit 0 with nothing on stderr.  Its standard
output, with the tree's path replaced by ``TREE``, has the SHA-256 pinned
below, the digest ``tools/digests.py`` prints for it.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adatm

TREE = Path(__file__).resolve().parent.parent
DEMOS = sorted((TREE / "demos").glob("0*.py"))
SRC = str(Path(adatm.__file__).resolve().parent.parent)

#: SHA-256 of each demo's standard output.
PINS = {
    "01_self_describing_data.py":
        "f187b567110d6afec559e226d55e261463305d995afa5fbfbc8efe0d3bc26b90",
    "02_nearness_queries.py":
        "75d70b42cd7dafdf43c810d0d4540636ad15ef7c91032db7ff13d30f013f2e96",
    "03_activation_runtime.py":
        "b6fea7c54eb00a68995e24675ca73caf80cac404d2f9dd3ad0cfb8157cde6416",
    "04_congestion_prediction.py":
        "457ac46b4ad5e262a9eb544f5b1f5f928085745ecdc4360211dfb7954e7954ca",
    "05_storm_reaction.py":
        "72f0c0a65ab739cc682ec891c0b041a9199130057c00e1747677627a112fdf41",
}


def test_the_five_demos_are_found():
    assert len(DEMOS) == 5
    assert sorted(PINS) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    text = done.stdout.replace(str(TREE), "TREE")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINS[demo.name], text
