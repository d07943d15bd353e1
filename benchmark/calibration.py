"""A fixed reference computation that measures the machine's current speed.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts by a quarter or more within a minute. The harness
runs units before and after every pass and scales the pass's timings by
`REFERENCE_UNIT_S` over the median unit time around it, so that a pass
in a slow minute and one in a fast minute report alike.

A unit is made of what cfsurv's hot paths are made of, and of nothing of
cfsurv itself: fifteen times, a Gaussian Gram matrix of 150 points in 5
dimensions, built through the full (150, 150, 5) difference array, and a
Cholesky solve with it. Its inputs and buffers are fixed, so its work
never changes; a change to cfsurv moves the scaled timings in full. Its
memory traffic is what lets it follow the machine: a unit of only BLAS
calls or only interpreter work follows cfsurv's slow minutes less well.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.linalg import cho_factor, cho_solve

#: a unit's duration at reference speed, so one reference second is 50
#: units; on a two-vCPU Intel Xeon virtual machine (Python 3.11, numpy 2.4,
#: one OpenBLAS thread) the median over a run ranged from 0.020 to 0.028 s
REFERENCE_UNIT_S = 0.02

#: units run between two passes; a pass is scaled by the median of the
#: units just before it and just after it
UNITS_PER_GAP = 8

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((150, 5))
_Y = _RNG.standard_normal(150)
_DIFF = np.empty((150, 150, 5))
_GRAM = np.empty((150, 150))


def unit() -> float:
    """Run one unit; return its wall time in seconds."""
    diff, gram = _DIFF, _GRAM
    start = perf_counter()
    for _ in range(15):
        np.subtract(_X[:, None, :], _X[None, :, :], out=diff)
        np.square(diff, out=diff)
        np.sum(diff, axis=-1, out=gram)
        gram *= -0.1
        np.exp(gram, out=gram)
        gram[np.diag_indices_from(gram)] += 1.0
        cho_solve(cho_factor(gram), _Y)
    return perf_counter() - start


def gap() -> list[float]:
    """The units run between two passes."""
    return [unit() for _ in range(UNITS_PER_GAP)]
