"""The demo lines of the output digest tool ``tools/digests.py``."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digests():
    spec = importlib.util.spec_from_file_location("adatm_tools_digests",
                                                  ROOT / "tools" / "digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_demo_digest_does_not_depend_on_where_the_tree_is(tmp_path):
    # Demo 04 prints the path of its scenario directory, inside the tree.
    name = "04_congestion_prediction.py"
    for part in ("src", "demos"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    digests = _digests()
    here = digests.demo_digest(ROOT, name)
    assert len(here) == 64 and int(here, 16) >= 0
    assert digests.demo_digest(tmp_path, name) == here
