"""Green's function of the walk Laplacian, exit-frequency matrices, and mixing measures."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import tolerance
from .errors import Check, require
from .graph import Distribution, TransitionMatrix
from .hitting import HittingTimeMatrix

if TYPE_CHECKING:
    from .pipeline import ChainAnalysis


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

    @cached_property
    def row_sum(self) -> float:
        """The max-abs row sum, zero for an exact Green matrix."""
        return float(np.abs(self.values.sum(axis=1)).max())

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
        for name in ("values", "access"):
            array = np.array(getattr(self, name), dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @cached_property
    def row_min(self) -> float:
        """The largest row minimum, zero when every row has a halting state."""
        return float(self.values.min(axis=1).max())

    @cached_property
    def access_gap(self) -> float:
        """The max-abs gap between the row sums and ``access``."""
        return float(np.abs(self.values.sum(axis=1) - self.access).max())

    def __getitem__(self, idx) -> float:
        return float(self.values[idx])


def entry_scale(H: HittingTimeMatrix, pi: Distribution) -> float:
    """pi_max · T, the magnitude of the entries of G, X and Z."""
    return float(pi.probs.max()) * H.time_scale


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
    G = GreensMatrix(values, target=tau)
    require("greens_row_sum", G.row_sum, tolerance.bound(H.n, entry_scale(H, pi), tolerance.RESIDUAL))
    return G


def greens_function(H: HittingTimeMatrix, pi: Distribution) -> GreensMatrix:
    """The classical Green's function pi_j (H(pi, j) - H(i, j))."""
    return greens_general(H, pi, pi)


def exit_frequency_matrix(
    H: HittingTimeMatrix, pi: Distribution, tau: Distribution
) -> ExitFrequencyMatrix:
    """Exit-frequency matrix X_tau for the optimal rules from singleton starts to tau.

    Entry (i, j) is pi_j (H(i, tau) + H(tau, j) - H(i, j)). Entries are
    nonnegative with at least one zero per row; row i sums to H(i, tau).
    A violation signals a wrong access time and raises IntegrityError;
    entries below zero by no more than the limit are rounding, set to zero.
    """
    from_tau = tau.probs @ H.values
    h = (H.values - from_tau[None, :]).max(axis=1)
    values = pi.probs[None, :] * (h[:, None] + from_tau[None, :] - H.values)
    limit = tolerance.bound(H.n, entry_scale(H, pi), tolerance.RESIDUAL)
    require("exit_negative", -values.min(), limit)
    X = ExitFrequencyMatrix(np.maximum(values, 0.0), target=tau, access=h)
    require("exit_row_min", X.row_min, limit)
    require("exit_row_sums", X.access_gap, tolerance.bound(H.n, H.time_scale, tolerance.RESIDUAL))
    return X


def verify_green_constraints(M: GreensMatrix | ExitFrequencyMatrix, P: TransitionMatrix) -> float:
    """The max-abs entry of M (I - P) - (I - 1 target^T), the residual of the defining constraint.

    Diagnostic only; nothing is raised. An exit-frequency matrix
    X_tau = G_tau + h pi^T meets it as its conservation law, since
    pi^T (I - P) = 0.
    """
    n = P.n
    lhs = M.values @ (np.eye(n) - P.probs) - (np.eye(n) - np.outer(np.ones(n), M.target.probs))
    return float(np.abs(lhs).max())


def green_checks(M: GreensMatrix, P: TransitionMatrix, scale: float, name: str = "greens") -> list[Check]:
    """The checks ``name``_constraint and ``name``_row_sum of a Green matrix for P with entries of size ``scale``."""
    limit = tolerance.bound(P.n, scale, tolerance.RESIDUAL)
    return [(f"{name}_constraint", verify_green_constraints(M, P), limit), (f"{name}_row_sum", M.row_sum, limit)]


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


def mixing_report(chain: ChainAnalysis) -> MixingReport:
    """Assemble T_mix, T_reset, T_hit, pessimal vertices, and halting states of a chain.

    H(i, pi) is the largest entry of row i of -G diag(pi)^{-1}. T_hit is the
    trace of G and must match the chain's stationary-pair hitting time. On
    an undirected graph, both pessimal-vertex formulas
    H(i, pi) = H(i', i) - H(pi, i) = H(i, i') - H(pi, i') are cross-checked
    and a failure raises IntegrityError naming the vertex. The halting
    states are read off the chain's X_pi.
    """
    H, G, pi = chain.hitting, chain.greens, chain.stationary
    Hv = H.values
    mix = (-G.values / pi.probs[None, :]).max(axis=1)
    t_mix = float(mix.max())
    t_reset = float(pi.probs @ mix)
    t_hit, _ = chain.hit_time
    limit = tolerance.bound(H.n, H.time_scale, tolerance.RESIDUAL)
    require("trace_vs_hit", abs(float(np.trace(G.values)) - t_hit), limit)
    pess = Hv.argmax(axis=0)
    if chain.graph is not None and chain.graph.undirected:
        hpi = pi.probs @ Hv
        vertices = np.arange(H.n)
        first = Hv[pess, vertices] - hpi
        second = Hv[vertices, pess] - hpi[pess]
        gaps = np.maximum(np.abs(mix - first), np.abs(mix - second))
        # both formulas hold only for the exact H of a reversible chain: they carry the solve's conditioning
        route = tolerance.bound(H.n, H.time_scale, tolerance.ROUTE)
        i = int(np.argmin(gaps <= route))  # the first vertex that fails (NaN fails), or 0 when none does
        require(f"pessimal_formulas_{i}", gaps[i], route)
    zero = tolerance.bound(H.n, chain.entry_scale, tolerance.RESIDUAL)  # exit_row_min's limit
    rows, cols = np.nonzero(chain.exit_pi.values <= zero)
    bounds = np.searchsorted(rows, np.arange(H.n + 1)).tolist()
    flat = cols.tolist()
    halting = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
    mixing_pess = tuple(np.flatnonzero(mix >= t_mix - limit).tolist())
    return MixingReport(mix, t_mix, t_reset, t_hit, pess, halting, mixing_pess)
