"""A fixed pure-Python loop that measures how fast the machine is right now.

The benchmark runs on shared machines whose speed drifts by up to 2x
over minutes, as other tenants come and go; a median over one 30 s run
cannot hide that.  So every timed call is bracketed by this loop, and
its wall time is scaled to a machine on which the loop takes
:data:`REFERENCE_SECONDS`.  The loop does the kind of work the program
does (small frozen dataclasses, floor division, dict and set updates,
sorting, string building, hashing) and never changes, so the program's
own speed-ups and slow-downs pass through the scaling untouched.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

#: Scaled times are seconds on a machine where :func:`_work` takes this long.
REFERENCE_SECONDS = 0.020


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    t: float


def _work(n: int = 8000) -> str:
    cells: dict[tuple[int, int, int], set[int]] = {}
    for i in range(n):
        p = _Point(i % 83 * 0.5, i % 71 * 0.5, i * 1.5)
        key = (math.floor(p.x / 10), math.floor(p.y / 10), math.floor(p.t / 60))
        cells.setdefault(key, set()).add(i)
    rows = sorted((k, len(v)) for k, v in cells.items())
    text = "\n".join(f"{k[0]},{k[1]},{k[2]},{c}" for k, c in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _loop_seconds() -> float:
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def timed(fn):
    """Call ``fn()``; return its result, wall time and scaled time.

    The scaled time is the wall time times :data:`REFERENCE_SECONDS` over
    the mean of the reference loop's time just before and just after.
    """
    before = _loop_seconds()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = _loop_seconds()
    return result, wall, wall * 2.0 * REFERENCE_SECONDS / (before + after)
