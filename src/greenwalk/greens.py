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


@dataclass(frozen=True)
class Rules:
    """The optimal rules to ``target`` tau: H(tau, .) and H(., tau), each computed once.

    G_tau and X_tau = G_tau + H(., tau) pi^T are built from these two vectors.
    """

    hitting: HittingTimeMatrix
    stationary: Distribution
    target: Distribution

    @property
    def entry_scale(self) -> float:
        """pi_max · T, the magnitude of the entries of G, X and Z."""
        return float(self.stationary.probs.max()) * self.hitting.time_scale

    @cached_property
    def from_target(self) -> np.ndarray:
        """H(tau, j) for every j."""
        return self.target.probs @ self.hitting.values

    @cached_property
    def access(self) -> np.ndarray:
        """H(i, tau) = max_j (H(i, j) - H(tau, j)); the argmax is a halting state of the optimal rule."""
        return (self.hitting.values - self.from_target[None, :]).max(axis=1)


def greens_general(rules: Rules) -> GreensMatrix:
    """Green's function for the target distribution tau of ``rules``.

    Entry (i, j) is pi_j (H(tau, j) - H(i, j)). With tau = pi this is the
    classical Green's function; rows always sum to zero.
    """
    values = rules.stationary.probs[None, :] * (rules.from_target[None, :] - rules.hitting.values)
    G = GreensMatrix(values, target=rules.target)
    require("greens_row_sum", G.row_sum, tolerance.bound(G.n, rules.entry_scale, tolerance.RESIDUAL))
    return G


def exit_frequency_matrix(rules: Rules) -> ExitFrequencyMatrix:
    """Exit-frequency matrix X_tau for the optimal rules from singleton starts to tau.

    Entry (i, j) is pi_j (H(i, tau) + H(tau, j) - H(i, j)). Entries are
    nonnegative with at least one zero per row; row i sums to H(i, tau).
    A violation signals a wrong access time and raises IntegrityError;
    entries below zero by no more than the limit are rounding, set to zero.
    """
    H, pi, h = rules.hitting, rules.stationary, rules.access
    values = pi.probs[None, :] * (h[:, None] + rules.from_target[None, :] - H.values)
    limit = tolerance.bound(H.n, rules.entry_scale, tolerance.RESIDUAL)
    require("exit_negative", -values.min(), limit)
    X = ExitFrequencyMatrix(np.maximum(values, 0.0), target=rules.target, access=h)
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


def green_checks(chain: ChainAnalysis, M: GreensMatrix, name: str = "greens") -> list[Check]:
    """The checks ``name``_constraint and ``name``_row_sum of a Green matrix for the chain, at its entry scale."""
    limit = tolerance.bound(chain.transition.n, chain.entry_scale, tolerance.RESIDUAL)
    return [
        (f"{name}_constraint", verify_green_constraints(M, chain.transition), limit),
        (f"{name}_row_sum", M.row_sum, limit),
    ]


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

    H(i, pi) is the access vector of the chain's rules toward pi. T_hit is the
    trace of G and must match the chain's stationary-pair hitting time. On
    an undirected graph, both pessimal-vertex formulas
    H(i, pi) = H(i', i) - H(pi, i) = H(i, i') - H(pi, i') are cross-checked
    and a failure raises IntegrityError naming the vertex. The halting
    states are read off the chain's X_pi.
    """
    H, G, pi, rules = chain.hitting, chain.greens, chain.stationary, chain.pi_rules
    Hv = H.values
    mix = rules.access
    t_mix = float(mix.max())
    t_reset = float(pi.probs @ mix)
    t_hit, _ = chain.hit_time
    limit = tolerance.bound(H.n, H.time_scale, tolerance.RESIDUAL)
    require("trace_vs_hit", abs(float(np.trace(G.values)) - t_hit), limit)
    pess = Hv.argmax(axis=0)
    if chain.graph is not None and chain.graph.undirected:
        vertices = np.arange(H.n)
        first = Hv[pess, vertices] - rules.from_target
        second = Hv[vertices, pess] - rules.from_target[pess]
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
