"""The one tolerance policy: every limit a check uses is c · n · ε · max(1, scale).

n is the number of states and ε the double-precision machine epsilon. The
scale is a magnitude the caller already has: 1 for probability rows, pi
and the Laplacian's eigenvalues; pi_max · T for the entries of G, X and Z;
T (``time_scale`` of the hitting times) for expected times. c is RESIDUAL
for an identity evaluated on computed data, and ROUTE for a gap that also
carries the conditioning of a solve or an eigenproblem: two independent
routes to one quantity, or an identity only the exact solution meets
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 9).
The ``tolerance`` preset of ``scripts/sweep.py`` measures both.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator

import numpy as np

RESIDUAL = 16.0
ROUTE = 5e3
_BLOCK = 1 << 15  # entries per row block of a matrix reduction


def bound(n: int, scale: float, c: float) -> float:
    """The limit c · n · ε · max(1, scale) of a check on n states."""
    return c * n * sys.float_info.epsilon * max(1.0, float(scale))


def time_scale(*values) -> float:
    """T: max(1, largest magnitude in values), the scale of expected-step quantities."""
    # max(max v, -min v) is max |v| with no temporary the size of v
    return max([1.0] + [float(max(v.max(), -v.min())) for v in map(np.asarray, values) if v.size])


def gap(a, b) -> float:
    """max |a - b|, the residual of two routes to one quantity: b has a's shape, or is a scalar.

    Matrices are reduced a block of rows at a time, so no n x n difference
    is built; a NaN anywhere still makes the result NaN.
    """
    a = np.asarray(a)
    b = np.broadcast_to(b, a.shape)
    if a.ndim != 2:
        return float(np.abs(a - b).max())
    return float(np.max([np.abs(a[rows] - b[rows]).max() for rows in row_blocks(a.shape)]))


def row_blocks(shape: tuple[int, int]) -> Iterator[slice]:
    """Slices of whole rows that cover a matrix of this shape, about _BLOCK entries each."""
    step = max(1, _BLOCK // max(1, shape[1]))
    return (slice(i, i + step) for i in range(0, shape[0], step))
