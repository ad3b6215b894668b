"""Hitting times via the fundamental matrix, and their classical identities."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import tolerance
from .errors import NumericalError, ValidationError, require
from .graph import Distribution, TransitionMatrix

if TYPE_CHECKING:
    from .greens import Rules

CYCLE_SAMPLES = 10000  # random triples check_cycle_identities draws above n = 50
CYCLE_SEED = 0


@dataclass(frozen=True)
class HittingTimeMatrix:
    """All pairwise expected first-arrival times, zero on the diagonal.

    ``first_step`` is the residual of the first-step equations when
    ``hitting_times`` or ``reversed_hitting_times`` built the matrix, and
    None otherwise.
    """

    values: np.ndarray
    first_step: float | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError("hitting-time matrix must be square")
        if not np.all(np.isfinite(values)):
            raise ValidationError("hitting times must be finite")
        diag = float(np.abs(np.diag(values)).max()) if values.size else 0.0
        np.fill_diagonal(values, 0.0)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if diag > tolerance.bound(self.n, self.time_scale, tolerance.RESIDUAL):
            raise ValidationError(f"diagonal must be zero, found {diag:.3e}")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @cached_property
    def time_scale(self) -> float:
        """T, the largest hitting time (at least 1): the scale of every expected-step limit."""
        return tolerance.time_scale(self.values)

    def __getitem__(self, idx) -> float:
        return float(self.values[idx])


def fundamental_matrix(P: TransitionMatrix, pi: Distribution) -> np.ndarray:
    """Z = (I - P + 1 pi^T)^{-1}, confirmed to working accuracy: one solve serves every hitting time."""
    n = P.n
    A = np.eye(n) - P.probs + np.outer(np.ones(n), pi.probs)
    try:
        Z = np.linalg.solve(A, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"fundamental matrix solve failed: {exc}") from None
    limit = tolerance.bound(n, np.abs(Z).max(), tolerance.RESIDUAL)
    # the solve controls the residual A Z - I; Z A - I can exceed it by up to cond(A) (Higham, ch. 14)
    require("fundamental", np.abs(A @ Z - np.eye(n)).max(), limit, NumericalError)
    return Z


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
    return _confirmed((np.diag(Z)[None, :] - Z) / pi.probs[None, :], P)


def reversed_hitting_times(rules: Rules, P_rev: TransitionMatrix) -> HittingTimeMatrix:
    """The hitting times of the reverse chain P_rev, read off the forward chain's rules toward pi with no solve.

    The reverse chain's fundamental matrix is diag(pi)^{-1} Z^T diag(pi), so
    Hrev(i, j) = H(j, i) + H(pi, j) - H(pi, i), with H(pi, .) the rules'
    cached ``from_target``. The result is validated against the first-step
    equations of P_rev itself, as ``hitting_times`` validates a solved matrix.
    """
    h_pi = rules.from_target
    return _confirmed(rules.hitting.values.T + h_pi[None, :] - h_pi[:, None], P_rev)


def _confirmed(H: np.ndarray, P: TransitionMatrix) -> HittingTimeMatrix:
    """H as a HittingTimeMatrix of P, once the first-step equations hold to working accuracy."""
    R = H - 1.0 - P.probs @ H
    np.fill_diagonal(R, 0.0)
    residual = float(np.abs(R).max())
    hits = HittingTimeMatrix(H, residual)
    require("first_step", residual, tolerance.bound(P.n, hits.time_scale, tolerance.ROUTE), NumericalError)
    return hits


def hit_time(H: HittingTimeMatrix, pi: Distribution) -> tuple[float, float]:
    """The stationary-pair expected hitting time, with its start-independence residual.

    Returns (T_hit, r) where r = max_i |sum_k pi_k H(i, k) - T_hit|; the sum
    is the same for every start i, so r measures numerical drift only.
    """
    row = H.values @ pi.probs
    t = float(pi.probs @ row)
    return t, float(np.abs(row - t).max())


def check_cycle_identities(rules: Rules) -> tuple[float, float]:
    """Max residuals of the triple and pair reversal identities of the chain of ``rules`` toward pi.

    The triple identity is H(i,j) + H(j,k) + H(k,i) = H(j,i) + H(i,k) + H(k,j);
    averaging it against pi gives the pair form
    H(pi,i) + H(i,j) = H(pi,j) + H(j,i), read with the rules' cached H(pi, .).
    All triples are checked up to n = 50, after which CYCLE_SAMPLES random
    triples seeded with CYCLE_SEED are drawn. Residuals are reported, never
    asserted: directed chains genuinely violate both.
    """
    Hv, hpi, n = rules.hitting.values, rules.from_target, rules.hitting.n
    pair = float(np.abs(hpi[:, None] + Hv - hpi[None, :] - Hv.T).max())
    D = Hv - Hv.T
    if n <= 50:
        triple = float(np.abs(D[:, :, None] + D[None, :, :] - D[:, None, :]).max())
    else:
        rng = np.random.default_rng(CYCLE_SEED)
        i, j, k = rng.integers(0, n, size=(3, CYCLE_SAMPLES))
        triple = float(np.abs(D[i, j] + D[j, k] + D[k, i]).max())
    return triple, pair
