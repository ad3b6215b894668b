"""Green's function of the walk Laplacian, exit-frequency matrices, and mixing measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, ValidationError
from .graph import Distribution, TransitionMatrix
from .hitting import TIME_TOL, HittingTimeMatrix, hit_time, time_scale

ROW_SUM_TOL = 1e-10
CONSTRAINT_TOL = 1e-9  # scaled by n
HALTING_TOL = 1e-10
NEGATIVE_TOL = 1e-10


@dataclass(frozen=True)
class GreensMatrix:
    """Pseudo-inverse of I - P whose rows sum to zero.

    ``target`` is the distribution tau the matrix maps onto:
    M (I - P) = I - 1 tau^T. The classical case has tau equal to the
    stationary distribution.
    """

    values: np.ndarray
    target: Distribution

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, idx) -> float:
        return float(self.values[idx])


@dataclass(frozen=True)
class ExitFrequencyMatrix:
    """Expected exits per vertex under the optimal rules from each start to ``target``.

    Row i holds the exit frequencies of an optimal rule carrying the
    singleton start i to ``target``; ``access`` holds the rule lengths,
    which equal the row sums. Every row contains a zero (a halting state),
    which is what certifies optimality.
    """

    values: np.ndarray
    target: Distribution
    access: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        worst = float(values.min()) if values.size else 0.0
        if worst < -NEGATIVE_TOL:
            raise IntegrityError(
                f"exit frequency {worst:.3e} is negative beyond tolerance", residual=-worst
            )
        values = np.maximum(values, 0.0)
        row_min = float(values.min(axis=1).max()) if values.size else 0.0
        if row_min > HALTING_TOL:
            raise IntegrityError(f"a row has no halting state (min {row_min:.3e})", residual=row_min)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        access = np.array(self.access, dtype=float)
        access.setflags(write=False)
        object.__setattr__(self, "access", access)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, idx) -> float:
        return float(self.values[idx])


def access_times(H: HittingTimeMatrix, tau: Distribution) -> np.ndarray:
    """Optimal expected rule length H(i, tau) for every start i.

    Computed as max_j (H(i, j) - H(tau, j)); the argmax is a halting state
    of the optimal rule, so no rule needs to be constructed.
    """
    from_tau = tau.probs @ H.values
    return (H.values - from_tau[None, :]).max(axis=1)


def access_time(H: HittingTimeMatrix, sigma: Distribution, tau: Distribution) -> float:
    """Optimal expected rule length from distribution sigma to distribution tau."""
    from_sigma = sigma.probs @ H.values
    from_tau = tau.probs @ H.values
    return float((from_sigma - from_tau).max())


def greens_general(H: HittingTimeMatrix, pi: Distribution, tau: Distribution) -> GreensMatrix:
    """Green's function for an arbitrary target distribution tau.

    Entry (i, j) is pi_j (H(tau, j) - H(i, j)). With tau = pi this is the
    classical Green's function; rows always sum to zero.
    """
    from_tau = tau.probs @ H.values
    values = pi.probs[None, :] * (from_tau[None, :] - H.values)
    residual = float(np.abs(values.sum(axis=1)).max())
    if residual > ROW_SUM_TOL:
        raise IntegrityError(f"Green matrix rows sum to {residual:.3e}, not 0", residual=residual)
    return GreensMatrix(values, target=tau)


def greens_function(H: HittingTimeMatrix, pi: Distribution) -> GreensMatrix:
    """The classical Green's function pi_j (H(pi, j) - H(i, j))."""
    return greens_general(H, pi, pi)


def exit_frequency_matrix(
    H: HittingTimeMatrix, pi: Distribution, tau: Distribution
) -> ExitFrequencyMatrix:
    """Exit-frequency matrix X_tau for the optimal rules from singleton starts to tau.

    Entry (i, j) is pi_j (H(i, tau) + H(tau, j) - H(i, j)). Entries are
    nonnegative with at least one zero per row; row i sums to H(i, tau).
    A violation signals a wrong access time and raises IntegrityError.
    """
    from_tau = tau.probs @ H.values
    h = (H.values - from_tau[None, :]).max(axis=1)
    values = pi.probs[None, :] * (h[:, None] + from_tau[None, :] - H.values)
    X = ExitFrequencyMatrix(values, target=tau, access=h)
    residual = float(np.abs(X.values.sum(axis=1) - h).max())
    if residual > TIME_TOL * time_scale(h):
        raise IntegrityError(f"row sums disagree with access times by {residual:.3e}", residual=residual)
    return X


def verify_green_constraints(M: GreensMatrix | ExitFrequencyMatrix, P: TransitionMatrix) -> tuple[float, float]:
    """Residuals of the two defining constraints, as (constraint, row-sum).

    The first is the max-abs entry of M (I - P) - (I - 1 target^T), the
    second the max-abs row sum of M. Diagnostic only; nothing is raised.
    An exit-frequency matrix X_tau = G_tau + h pi^T meets the first one as
    its conservation law, since pi^T (I - P) = 0; its rows sum to h, not 0.
    """
    n = P.n
    lhs = M.values @ (np.eye(n) - P.probs) - (np.eye(n) - np.outer(np.ones(n), M.target.probs))
    return float(np.abs(lhs).max()), float(np.abs(M.values.sum(axis=1)).max())


def hitting_from_greens(M: GreensMatrix, pi: Distribution) -> HittingTimeMatrix:
    """Recover hitting times as (G(j,j) - G(i,j)) / pi_j from a classical Green's function."""
    values = (np.diag(M.values)[None, :] - M.values) / pi.probs[None, :]
    return HittingTimeMatrix(values)


@dataclass(frozen=True)
class MixingReport:
    """Mixing measures and halting structure read off one Green's function."""

    mixing_times: np.ndarray  # H(i, pi) per start
    t_mix: float
    t_reset: float
    t_hit: float
    pessimal: np.ndarray  # per vertex i, argmax_j H(j, i); ties break to the lowest index
    halting_states: tuple[tuple[int, ...], ...]
    mixing_pessimal: tuple[int, ...]


def mixing_report(
    H: HittingTimeMatrix,
    M: GreensMatrix,
    pi: Distribution,
    undirected: bool = False,
) -> MixingReport:
    """Assemble T_mix, T_reset, T_hit, pessimal vertices, and halting states.

    H(i, pi) is the largest entry of row i of -G diag(pi)^{-1}. T_hit is the
    trace of G and must match the stationary-pair hitting time. With
    ``undirected`` set, both pessimal-vertex formulas
    H(i, pi) = H(i', i) - H(pi, i) = H(i, i') - H(pi, i') are cross-checked
    and a failure raises IntegrityError naming the vertex.
    """
    Hv = H.values
    mix = (-M.values / pi.probs[None, :]).max(axis=1)
    t_mix = float(mix.max())
    t_reset = float(pi.probs @ mix)
    t_hit, _ = hit_time(H, pi)
    scale = time_scale(Hv)
    trace = float(np.trace(M.values))
    if abs(trace - t_hit) > TIME_TOL * scale:
        raise IntegrityError(
            f"trace of Green's function {trace!r} disagrees with hit time {t_hit!r}",
            residual=abs(trace - t_hit),
        )
    pess = Hv.argmax(axis=0)
    if undirected:
        hpi = pi.probs @ Hv
        for i in range(H.n):
            ip = int(pess[i])
            first = Hv[ip, i] - hpi[i]
            second = Hv[i, ip] - hpi[ip]
            worst = max(abs(mix[i] - first), abs(mix[i] - second))
            if worst > TIME_TOL * scale:
                raise IntegrityError(
                    f"pessimal-vertex mixing formulas disagree at vertex {i}", residual=worst
                )
    X = exit_frequency_matrix(H, pi, pi)
    halting = tuple(tuple(np.flatnonzero(row <= HALTING_TOL).tolist()) for row in X.values)
    mixing_pess = tuple(np.flatnonzero(mix >= t_mix - TIME_TOL * scale).tolist())
    return MixingReport(mix, t_mix, t_reset, t_hit, pess, halting, mixing_pess)
