"""Print the SHA-256 digests of a tree's outputs, one line per input.

Usage::

    python tools/digests.py TREE

``TREE`` is a checkout of this repository.  The script imports ``adatm``
from ``TREE/src`` and ``TREE/tests/test_golden.py``, and for each input
prints its name, then the SHA-256 of the report JSON, the report CSV, the
event log and the ``run_oracle`` JSON, computed as ``test_golden`` computes
its pins.  The 125 inputs are the demo scenario files, the ``FIXTURES`` of
``test_golden`` and every scenario of the three benchmark workloads
(``TREE/bench/workloads.py``) at seeds 3 and 7.  Then, for each demo
(``TREE/demos/0*.py``), it prints its name and the SHA-256 of its standard
output, run with ``adatm`` from ``TREE/src`` and with every occurrence of
the tree's path replaced by ``TREE``, so that two checkouts compare equal.

A change that must keep every output byte for byte prints the same lines
on the tree before it and on the tree after it::

    python tools/digests.py ../before > before.txt
    python tools/digests.py . > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import Callable

#: Seeds of the benchmark workloads, every scenario of which is an input.
BENCH_SEEDS = (3, 7)


def golden_module(tree: Path):
    """``TREE/tests/test_golden.py``, with ``adatm`` imported from ``TREE/src``."""
    sys.dont_write_bytecode = True  # leave the tree as it was
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]
    import test_golden
    return test_golden


def inputs(golden) -> list[tuple[str, Callable]]:
    """Each input's name and a call that builds its scenario; none is built."""
    names = sorted(path.name for path in golden.DEMO_SCENARIOS.glob("*.json"))
    out = [(name, partial(golden._scenario, name)) for name in names + sorted(golden.FIXTURES)]
    for workload, spec in sorted(golden._bench_workloads().WORKLOADS.items()):
        for seed in BENCH_SEEDS:
            for index in range(spec.scenarios):
                text = partial(spec.generate, seed, index)
                out.append((f"{workload}:{seed}:{index}",
                            lambda text=text: golden.load_scenario(text())))
    return out


def demo_digest(tree: Path, name: str) -> str:
    """The SHA-256 of demo ``name``'s standard output, with ``adatm`` imported
    from ``tree/src`` and the tree's path replaced by ``TREE``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, str(tree / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    text = done.stdout.replace(str(tree), "TREE")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/digests.py TREE", file=sys.stderr)
        return 1
    tree = Path(argv[1]).resolve()
    golden = golden_module(tree)
    for name, scenario in inputs(golden):
        print(name, *(golden._sha(text) for text in golden._outputs(scenario())))
    for demo in sorted((tree / "demos").glob("0*.py")):
        print(demo.name, demo_digest(tree, demo.name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
