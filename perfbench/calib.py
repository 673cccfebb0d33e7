"""Host-speed reference: a fixed pure-Python kernel timed between operations.

A host whose cores other tenants share drifts in speed in phases lasting
from seconds to minutes (on a 2-vCPU Xeon VM the same code ran up to 1.8x
slower in one phase than in another).  The kernel below does a fixed
amount of the kind of work bafsynth does (unit propagation over a clause
list: list scans, dict lookups, small allocations) and does not touch the
program, so a change to bafsynth cannot move it.  run.py times one kernel pass before
the first operation of a round and one after every operation, and divides
every operation time of the round by the round's host factor:

    factor = median(pass times of the round) / REF_PASS_S
    normalized time = wall time / factor

A normalized time reads in seconds at the reference speed, the speed at
which one pass takes REF_PASS_S.  On a steady host it equals the wall time
scaled by a constant.
"""

from __future__ import annotations

import random
from time import perf_counter

# one pass's time on a 2-vCPU Xeon (2.0 GHz), Python 3.11, in a fast phase
REF_PASS_S = 0.0025

_rng = random.Random(1808)
_NVARS = 200
_CLAUSES = [
    tuple(_rng.choice((1, -1)) * _rng.randint(1, _NVARS) for _ in range(3)) for _ in range(800)
]
_OCC: dict[int, list[int]] = {}
for _i, _c in enumerate(_CLAUSES):
    for _lit in _c:
        _OCC.setdefault(-_lit, []).append(_i)
_ORDER = [_rng.choice((1, -1)) * v for v in range(1, _NVARS + 1)]
_REPS = 10


def kernel() -> int:
    """One pass: _REPS rounds of decide-and-propagate from a fixed order."""
    implied = 0
    for r in range(_REPS):
        val: dict[int, bool] = {}
        trail = []
        for lit in _ORDER[r % 7 :: 3]:
            if lit in val or -lit in val:
                continue
            val[lit] = True
            trail.append(lit)
            for ci in _OCC.get(lit, ()):
                free = [x for x in _CLAUSES[ci] if -x not in val]
                if len(free) == 1 and free[0] not in val:
                    val[free[0]] = True
                    trail.append(free[0])
                    implied += 1
    return implied


def pass_s() -> float:
    """Wall time of one kernel pass."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
