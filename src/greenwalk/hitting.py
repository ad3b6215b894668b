"""Hitting times via the fundamental matrix, and their classical identities.

``hitting_times`` derives every H(i, j) = (Z_jj - Z_ij) / pi_j from the whole
Z = (I - P + 1 pi^T)^{-1}. ``hitting_column`` solves for column j of Z alone,
which is all ``simulate --stop j`` prints, so that command never builds
``ChainAnalysis.hitting``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    ``first_step`` is the residual of the first-step equations when
    ``hitting_times`` or ``reversed_hitting_times`` built the matrix, and
    None otherwise. A writable ``values`` that passes the checks is taken
    over, not copied: its diagonal is zeroed in place and it is made
    read-only. A read-only one is copied, and a rejected one is left as it was.
    """

    values: np.ndarray
    first_step: float | None = None

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
        self.__dict__["time_scale"] = scale

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @cached_property
    def time_scale(self) -> float:
        """T, the largest hitting time (at least 1): the scale of every expected-step limit."""
        return tolerance.time_scale(self.values)

    def __getitem__(self, idx) -> float:
        return float(self.values[idx])


def _solve_fundamental(
    P: TransitionMatrix, pi: Distribution, rhs: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(A, A^{-1} rhs) with A = I - P + 1 pi^T, the system every fundamental-matrix route solves.

    With no rhs it is (A, A^{-1}): ``inv`` runs LAPACK's solve against an
    identity it builds itself, so the result is bit for bit
    ``solve(A, eye(n))`` with one n x n array fewer held.
    """
    A = walk_laplacian(P)
    A += pi.probs  # the rank-one term 1 pi^T, by broadcast
    try:
        return A, np.linalg.inv(A) if rhs is None else np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"fundamental matrix solve failed: {exc}") from None


def fundamental_matrix(P: TransitionMatrix, pi: Distribution) -> np.ndarray:
    """Z = (I - P + 1 pi^T)^{-1}, confirmed to working accuracy: one solve serves every hitting time."""
    n = P.n
    A, Z = _solve_fundamental(P, pi)
    limit = tolerance.bound(n, np.abs(Z).max(), tolerance.RESIDUAL)
    # the solve controls the residual A Z - I; Z A - I can exceed it by up to cond(A) (Higham, ch. 14)
    R = A @ Z
    R.flat[:: n + 1] -= 1.0
    require("fundamental", np.abs(R, out=R).max(), limit, NumericalError)
    return Z


def hitting_column(P: TransitionMatrix, pi: Distribution, j: int) -> np.ndarray:
    """H(., j), the expected steps from each vertex to first reach j, from column j of Z alone.

    One right-hand side: A z = e_j gives z = Z e_j, and H(i, j) = (z_j - z_i) / pi_j
    with H(j, j) = 0. The column passes the checks ``hitting_times`` makes on
    the whole matrix, under the same names and limits: ``fundamental``, the
    residual A z - e_j, and ``first_step``, the first-step equations into j.
    """
    n = P.n
    e = np.zeros(n)
    e[j] = 1.0
    A, z = _solve_fundamental(P, pi, e)
    residual = A @ z
    residual[j] -= 1.0
    limit = tolerance.bound(n, np.abs(z).max(), tolerance.RESIDUAL)
    require("fundamental", np.abs(residual).max(), limit, NumericalError)
    h = (z[j] - z) / pi.probs[j]
    h[j] = 0.0
    R = h - 1.0 - P.probs @ h
    R[j] = 0.0
    require("first_step", np.abs(R).max(), tolerance.bound(n, tolerance.time_scale(h), tolerance.ROUTE), NumericalError)
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
        Extracted from the fundamental matrix Z as (Z_jj - Z_ij) / pi_j
        and validated against the first-step equations
        H(i, j) = 1 + sum_k P(i, k) H(k, j) for i != j.
    """
    Z = fundamental_matrix(P, pi)
    H = np.subtract(Z.diagonal().copy(), Z, out=Z)  # Z_jj - Z_ij, in Z's place
    H /= pi.probs
    return _confirmed(H, P)


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
    return _confirmed(H, P_rev)


def _confirmed(H: np.ndarray, P: TransitionMatrix) -> HittingTimeMatrix:
    """H as a HittingTimeMatrix of P, once the first-step equations hold to working accuracy."""
    R = H - 1.0
    R -= P.probs @ H
    np.fill_diagonal(R, 0.0)
    hits = HittingTimeMatrix(H, float(np.abs(R, out=R).max()))
    require("first_step", hits.first_step, tolerance.bound(P.n, hits.time_scale, tolerance.ROUTE), NumericalError)
    return hits


def hit_time(H: HittingTimeMatrix, pi: Distribution) -> tuple[float, float]:
    """The stationary-pair expected hitting time, with its start-independence residual.

    Returns (T_hit, r) where r = max_i |sum_k pi_k H(i, k) - T_hit|; the sum
    is the same for every start i, so r measures numerical drift only.
    """
    row = H.values @ pi.probs
    t = float(pi.probs @ row)
    return t, tolerance.gap(row, t)
