"""The one tolerance policy: every limit a check uses is c · n · ε · max(1, scale).

n is the number of states and ε the double-precision machine epsilon. The
scale is a magnitude the caller already has: 1 for probability rows, pi,
the Laplacian and its eigenbasis; pi_max · T for the entries of G, X and Z;
T (``time_scale`` of the hitting times) for expected times; 1 / lambda_1
for the drift of the zero mode. c is RESIDUAL for an identity evaluated on
computed data, and ROUTE for a gap that also carries the conditioning of a
solve or an eigenproblem: two independent routes to one quantity, or an
identity only the exact solution meets (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 9). ``scripts/tolerance_sweep.py`` measures both.
"""

from __future__ import annotations

import sys

import numpy as np

RESIDUAL = 16.0
ROUTE = 5e3


def bound(n: int, scale: float, c: float) -> float:
    """The limit c · n · ε · max(1, scale) of a check on n states."""
    return c * n * sys.float_info.epsilon * max(1.0, float(scale))


def time_scale(*values) -> float:
    """T: max(1, largest magnitude in values), the scale of expected-step quantities."""
    return max([1.0] + [float(np.abs(v).max()) for v in map(np.asarray, values) if v.size])
