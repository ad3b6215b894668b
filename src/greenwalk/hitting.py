"""Hitting times via the fundamental matrix, and their classical identities.

``read_hitting`` reads every H(i, j) = (Z_jj - Z_ij) / pi_j, and the checks of
a solve and of its H are made in one place each, for the whole
Z = (I - P + 1 pi^T)^{-1} or for column j alone (``hitting_column``, all that
``simulate --stop j`` prints, so that command never builds ``ChainAnalysis.hitting``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import tolerance
from .errors import NumericalError, ValidationError, require
from .graph import Distribution, TransitionMatrix, walk_laplacian

if TYPE_CHECKING:
    from .greens import Rules

@dataclass(frozen=True)
class HittingTimeMatrix:
    """All pairwise expected first-arrival times, zero on the diagonal.

    A writable ``values`` that passes the checks is taken over, not copied:
    its diagonal is zeroed in place and it is made read-only. A read-only one
    is copied, and a rejected one is left as it was.
    """

    values: np.ndarray
    time_scale: float = field(init=False, repr=False, compare=False)  # T = max(1, max |H|), the expected-step scale

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError("hitting-time matrix must be square")
        if not np.all(np.isfinite(values)):
            raise ValidationError("hitting times must be finite")
        diag = float(np.abs(np.diag(values)).max()) if values.size else 0.0
        # a diagonal within the limit is far below max(1, T), so it leaves T as it is after zeroing
        scale = tolerance.time_scale(values)
        if diag > tolerance.bound(len(values), scale, tolerance.RESIDUAL):
            raise ValidationError(f"diagonal must be zero, found {diag:.3e}")
        if not values.flags.writeable:  # shared with its owner: zero the diagonal of a copy
            values = values.copy()
        np.fill_diagonal(values, 0.0)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "time_scale", scale)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, idx) -> float:
        return float(self.values[idx])


def _targets(Y: np.ndarray, j: int | None) -> slice | int:
    """Where Y.flat holds each target: the diagonal of a whole matrix (j None), or entry j of the column for target j."""
    return slice(None, None, len(Y) + 1) if j is None else j


def read_hitting(Y: np.ndarray, pi: Distribution, j: int | None = None) -> np.ndarray:
    """H(i, j) = (Y_jj - Y_ij) / pi_j, read off the whole of Y (j None) or its column j, in Y's place if it is writable.

    Y is any (I - P + 1 u^T)^{-1}, or a Green's function of P: any two differ by a constant in each column, which cancels.
    """
    H = np.subtract(Y.flat[_targets(Y, j)], Y, out=Y if Y.flags.writeable else None)  # Y.flat[...] is a copy
    H /= pi.probs if j is None else pi.probs[j]
    return H


def _solve_fundamental(P: TransitionMatrix, pi: Distribution, j: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(A, A^{-1}), or (A, A^{-1} e_j) for column j alone, with A = I - P + 1 pi^T: every fundamental-matrix solve.

    ``inv`` solves against an identity it builds itself: bit for bit ``solve(A, eye(n))``, one n x n array fewer held.
    """
    A = walk_laplacian(P)
    A += pi.probs  # the rank-one term 1 pi^T, by broadcast
    try:
        return A, np.linalg.inv(A) if j is None else np.linalg.solve(A, np.eye(1, P.n, j)[0])  # e_j, row 0 of eye
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"fundamental matrix solve failed: {exc}") from None


def _require_fundamental(A: np.ndarray, X: np.ndarray, j: int | None = None) -> None:
    """The check ``fundamental``: the residual A X - I of the solve for X, or A X - e_j for its column j alone."""
    limit = tolerance.bound(len(X), np.abs(X).max(), tolerance.RESIDUAL)
    # the solve controls the residual A Z - I; Z A - I can exceed it by up to cond(A) (Higham, ch. 14)
    R = A @ X
    R.flat[_targets(R, j)] -= 1.0
    require("fundamental", np.abs(R, out=R).max(), limit, NumericalError)


def _require_first_step(H: np.ndarray, P: TransitionMatrix, scale: float, j: int | None = None) -> None:
    """The check ``first_step``: H(i, j) = 1 + sum_k P(i, k) H(k, j) for i != j, on H or on its column j alone."""
    R = H - 1.0
    R -= P.probs @ H
    R.flat[_targets(R, j)] = 0.0
    require("first_step", np.abs(R, out=R).max(), tolerance.bound(P.n, scale, tolerance.ROUTE), NumericalError)


def fundamental_matrix(P: TransitionMatrix, pi: Distribution) -> np.ndarray:
    """Z = (I - P + 1 pi^T)^{-1}, confirmed to working accuracy: one solve serves every hitting time."""
    A, Z = _solve_fundamental(P, pi)
    _require_fundamental(A, Z)
    return Z


def hitting_column(P: TransitionMatrix, pi: Distribution, j: int) -> np.ndarray:
    """H(., j), the expected steps from each vertex to first reach j, from column j of Z alone.

    Read and checked as ``hitting_times`` reads and checks the whole Z, with matrix-vector products.
    """
    A, z = _solve_fundamental(P, pi, j)
    _require_fundamental(A, z, j)
    h = read_hitting(z, pi, j)
    _require_first_step(h, P, tolerance.time_scale(h), j)
    return h


def hitting_times(P: TransitionMatrix, pi: Distribution) -> HittingTimeMatrix:
    """Expected steps H(i, j) for the walk from i to first reach j.

    Parameters
    ----------
    P : TransitionMatrix
        Irreducible chain.
    pi : Distribution
        Its stationary distribution.

    Returns
    -------
    HittingTimeMatrix
        Read off the fundamental matrix Z as (Z_jj - Z_ij) / pi_j, in Z's
        place, and validated against the first-step equations
        H(i, j) = 1 + sum_k P(i, k) H(k, j) for i != j.
    """
    hits = HittingTimeMatrix(read_hitting(fundamental_matrix(P, pi), pi))
    _require_first_step(hits.values, P, hits.time_scale)
    return hits


def reversed_hitting_times(rules: Rules, P_rev: TransitionMatrix) -> HittingTimeMatrix:
    """The hitting times of the reverse chain P_rev, read off the forward chain's rules toward pi with no solve.

    The reverse chain's fundamental matrix is diag(pi)^{-1} Z^T diag(pi), so
    Hrev(i, j) = H(j, i) + H(pi, j) - H(pi, i), with H(pi, .) the rules'
    cached ``from_target``. The result is validated against the first-step
    equations of P_rev itself, as ``hitting_times`` validates a solved matrix.
    """
    h_pi = rules.from_target
    H = rules.hitting.values.T + h_pi
    H -= h_pi[:, None]
    hits = HittingTimeMatrix(H)
    _require_first_step(hits.values, P_rev, hits.time_scale)
    return hits


def hit_time(H: HittingTimeMatrix, pi: Distribution) -> tuple[float, float]:
    """The stationary-pair expected hitting time, with its start-independence residual.

    Returns (T_hit, r) where r = max_i |sum_k pi_k H(i, k) - T_hit|; the sum
    is the same for every start i, so r measures numerical drift only.
    """
    row = H.values @ pi.probs
    t = float(pi.probs @ row)
    return t, tolerance.gap(row, t)
