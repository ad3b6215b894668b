"""Green's function of the walk Laplacian, exit-frequency matrices, and mixing measures."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import tolerance
from .errors import require
from .graph import Distribution, TransitionMatrix, walk_laplacian
from .hitting import HittingTimeMatrix, read_hitting

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

    def __post_init__(self):
        self.values.setflags(write=False)

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
    which is what certifies optimality. Both arrays are taken over, not
    copied, and made read-only.
    """

    values: np.ndarray
    target: Distribution
    access: np.ndarray

    def __post_init__(self):
        for name in ("values", "access"):
            array = np.asarray(getattr(self, name), dtype=float)
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
        return tolerance.gap(self.values.sum(axis=1), self.access)

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
        h = self.target.probs @ self.hitting.values
        h.setflags(write=False)
        return h

    @cached_property
    def access(self) -> np.ndarray:
        """H(i, tau) = max_j (H(i, j) - H(tau, j)); the argmax is a halting state of the optimal rule."""
        h = (self.hitting.values - self.from_target[None, :]).max(axis=1)
        h.setflags(write=False)
        return h


def greens_general(rules: Rules) -> GreensMatrix:
    """Green's function for the target distribution tau of ``rules``.

    Entry (i, j) is pi_j (H(tau, j) - H(i, j)). With tau = pi this is the
    classical Green's function; rows always sum to zero.
    """
    values = rules.from_target[None, :] - rules.hitting.values
    values *= rules.stationary.probs
    G = GreensMatrix(values, target=rules.target)
    require("greens_row_sum", G.row_sum, tolerance.bound(G.n, rules.entry_scale, tolerance.RESIDUAL))
    return G


def exit_frequency_matrix(rules: Rules) -> ExitFrequencyMatrix:
    """Exit-frequency matrix X_tau for the optimal rules from singleton starts to tau.

    Entry (i, j) is pi_j (H(i, tau) + H(tau, j) - H(i, j)). Entries are
    nonnegative with at least one zero per row; row i sums to H(i, tau).
    A row with no zero or a row sum off H(i, tau) signals a wrong access
    time and raises IntegrityError. H(i, tau) is a row maximum, so entries
    below zero are rounding, set to zero.
    """
    H, pi, h = rules.hitting, rules.stationary, rules.access
    values = h[:, None] + rules.from_target[None, :]
    values -= H.values
    values *= pi.probs
    X = ExitFrequencyMatrix(np.maximum(values, 0.0, out=values), target=rules.target, access=h)
    require("exit_row_min", X.row_min, tolerance.bound(H.n, rules.entry_scale, tolerance.RESIDUAL))
    require("exit_row_sums", X.access_gap, tolerance.bound(H.n, H.time_scale, tolerance.RESIDUAL))
    return X


def verify_green_constraints(M: GreensMatrix | ExitFrequencyMatrix, P: TransitionMatrix) -> float:
    """The max-abs entry of M (I - P) - (I - 1 target^T), the residual of the defining constraint.

    Diagnostic only; nothing is raised. An exit-frequency matrix
    X_tau = G_tau + h pi^T meets it as its conservation law, since
    pi^T (I - P) = 0. I - 1 target^T is subtracted on the diagonal and by
    broadcast, rounded as the n x n array would be.
    """
    lhs = M.values @ walk_laplacian(P)
    tau = M.target.probs
    diagonal = lhs.diagonal() - (1.0 - tau)
    lhs += tau  # lhs - (0 - tau_j) off the diagonal
    np.fill_diagonal(lhs, diagonal)
    return float(np.abs(lhs, out=lhs).max())


def require_constraint(
    chain: ChainAnalysis, M: GreensMatrix | ExitFrequencyMatrix, name: str, row_sum: str | None = None
) -> float:
    """The check ``name`` of M's defining constraint (``verify_green_constraints``), and ``row_sum`` of its row sum."""
    limit = tolerance.bound(chain.transition.n, chain.entry_scale, tolerance.RESIDUAL)
    residual = require(name, verify_green_constraints(M, chain.transition), limit)
    if row_sum is not None:
        require(row_sum, M.row_sum, limit)
    return residual


def hitting_from_greens(M: GreensMatrix, pi: Distribution) -> HittingTimeMatrix:
    """Recover hitting times as (G(j,j) - G(i,j)) / pi_j from a classical Green's function."""
    values = read_hitting(M.values, pi)
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


def trace_gap(chain: ChainAnalysis) -> float:
    """|tr G - T_hit|, trace_vs_hit's residual: G's diagonal is pi_j H(pi, j) bit for bit, so no G is built."""
    return abs(float((chain.pi_rules.from_target * chain.stationary.probs).sum()) - chain.hit_time[0])


def mixing_report(chain: ChainAnalysis) -> MixingReport:
    """Assemble T_mix, T_reset, T_hit, pessimal vertices, and halting states of a chain.

    H(i, pi) is the access vector of the chain's rules toward pi. T_hit is the
    chain's stationary-pair hitting time, and must match the trace of G
    (``trace_gap``). On an undirected graph, both pessimal-vertex formulas
    H(i, pi) = H(i', i) - H(pi, i) = H(i, i') - H(pi, i') are cross-checked
    and a failure raises IntegrityError naming the vertex. The halting
    states are read off the chain's X_pi.
    """
    H, pi, rules = chain.hitting, chain.stationary, chain.pi_rules
    Hv = H.values
    mix = rules.access
    t_mix = float(mix.max())
    t_reset = float(pi.probs @ mix)
    t_hit, _ = chain.hit_time
    limit = tolerance.bound(H.n, H.time_scale, tolerance.RESIDUAL)
    require("trace_vs_hit", trace_gap(chain), limit)
    pess = Hv.argmax(axis=0)
    pess.setflags(write=False)
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
