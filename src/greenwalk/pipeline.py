"""One chain, solved once: hitting times, Green's function, X_pi, mixing and the reverse chain.

The check functions here audit a chain: each returns (name, residual, limit)
triples, and ``errors.failed`` decides which of them fail.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerance
from .duality import duality_checks, forget_distribution, reverse_chain
from .errors import Check, IntegrityError
from .graph import (
    Distribution,
    TransitionMatrix,
    WeightedDigraph,
    stationary_distribution,
    transition_matrix,
)
from .greens import (
    ExitFrequencyMatrix,
    GreensMatrix,
    MixingReport,
    Rules,
    exit_frequency_matrix,
    green_checks,
    greens_general,
    hitting_from_greens,
    mixing_report,
    trace_gap,
    verify_green_constraints,
)
from .hitting import HittingTimeMatrix, hit_time, hitting_times, reversed_hitting_times
from .spectral import SpectralDecomposition, decompose, spectral_greens


@dataclass(frozen=True)
class ChainAnalysis:
    """A chain P with its stationary distribution pi, and everything derived from them.

    Each derived quantity is built on first use and kept: ``hitting`` is the
    chain's one fundamental-matrix solve, and ``greens``, ``exit_pi`` (X_pi),
    ``hit_time`` and ``mixing`` are read off it (``mixing`` builds no G: it
    reads the trace of G off the rules toward pi); ``pi_rules`` and
    ``forget_rules`` hold H(tau, .) and H(., tau) toward pi and the forget
    distribution. A residual a builder checks is kept on what it certifies
    (``greens.row_sum``, ``exit_pi.row_min``), and the check lists read it
    there. ``reverse`` is the time-reversed chain over the same pi; its
    ``hitting`` is read off this chain's with no second solve, and confirmed
    against the reverse chain's own rows. While this chain is alive, its
    ``reverse`` is this chain. ``forget``, the forget distribution, is read off
    the reverse chain's hitting times. ``simulate --stop`` prints one hitting
    time, solved as a column by ``hitting.hitting_column``, and never builds
    ``hitting``.
    """

    transition: TransitionMatrix
    stationary: Distribution

    @property
    def graph(self) -> WeightedDigraph | None:
        return self.transition.graph

    @cached_property
    def hitting(self) -> HittingTimeMatrix:
        return hitting_times(self.transition, self.stationary)

    @cached_property
    def entry_scale(self) -> float:
        """pi_max · T, the magnitude of the entries of G, X and Z."""
        return self.pi_rules.entry_scale

    @cached_property
    def pi_rules(self) -> Rules:
        return Rules(self.hitting, self.stationary, self.stationary)

    @cached_property
    def forget_rules(self) -> Rules:
        return Rules(self.hitting, self.stationary, self.forget)

    @cached_property
    def greens(self) -> GreensMatrix:
        return greens_general(self.pi_rules)

    @cached_property
    def exit_pi(self) -> ExitFrequencyMatrix:
        return exit_frequency_matrix(self.pi_rules)

    @cached_property
    def hit_time(self) -> tuple[float, float]:
        """(T_hit, r): the stationary-pair hitting time and its start-independence residual."""
        return hit_time(self.hitting, self.stationary)

    @cached_property
    def forget(self) -> Distribution:
        return forget_distribution(self)

    @cached_property
    def mixing(self) -> MixingReport:
        return mixing_report(self)

    @property
    def reverse(self) -> ChainAnalysis:
        # The chain that builds its reverse holds it, and the reverse links back
        # weakly: the pair forms no reference cycle, so reference counting frees
        # both chains' matrices as soon as the forward chain goes.
        rev = self.__dict__.get("_reverse")
        if isinstance(rev, weakref.ref):
            rev = rev()
        if rev is None:
            rev = ChainAnalysis(reverse_chain(self.transition, self.stationary), self.stationary)
            rev.__dict__["hitting"] = reversed_hitting_times(self.pi_rules, rev.transition)
            self.__dict__["_reverse"] = rev
            rev.__dict__["_reverse"] = weakref.ref(self)
        return rev


def analyze(g: WeightedDigraph, beta: float = 0.0) -> ChainAnalysis:
    """The chain of the (optionally beta-lazy) random walk on a graph."""
    P = transition_matrix(g, beta)
    return ChainAnalysis(P, stationary_distribution(P))


def exit_checks(chain: ChainAnalysis, X: ExitFrequencyMatrix) -> list[Check]:
    """An exit-frequency matrix of the chain: its conservation law, a zero in every row, and row sums H(i, tau)."""
    entries = tolerance.bound(X.n, chain.entry_scale, tolerance.RESIDUAL)
    return [
        ("exit_conservation", verify_green_constraints(X, chain.transition), entries),
        ("exit_row_min", X.row_min, entries),
        ("exit_row_sums", X.access_gap, tolerance.bound(X.n, chain.hitting.time_scale, tolerance.RESIDUAL)),
    ]


def spectral_routes(
    chain: ChainAnalysis, dec: SpectralDecomposition, rep: MixingReport | None
) -> tuple[tuple[float, float, float] | None, list[Check]]:
    """The spectral (T_mix, T_reset, T_hit) of a chain, and the gap of each spectral route to the solved one.

    Every spectral quantity but T_hit = sum_{k>=1} 1 / lambda_k is read off the
    spectral G with its pi: H(i, j) = (G(j, j) - G(i, j)) / pi_j, so
    H(pi, j) = G(j, j) / pi_j and H(i, pi) = H(i', i) - H(pi, i) = -G(i', i) / pi_i
    for a pessimal vertex i' of i. The mixing measures need the chain's mixing
    report ``rep`` for i'; without it they are None and go unchecked.
    """
    n, H = chain.transition.n, chain.hitting
    factor = 1.0 / (1.0 - chain.transition.beta)  # laziness rescales every expected time

    def scaled(M):
        # x * 1.0 is x bit for bit, so a chain that is not lazy needs no scaled copy
        return M if factor == 1.0 else M * factor

    times = tolerance.bound(n, H.time_scale, tolerance.ROUTE)
    G_spec = spectral_greens(dec)
    pi = G_spec.target.probs
    gap_h = tolerance.gap(scaled(hitting_from_greens(G_spec, G_spec.target).values), H.values)
    # the chain's G is read once the spectral H is gone: the two are never held together
    gap_g = tolerance.gap(scaled(G_spec.values), chain.greens.values)
    gap_a = tolerance.gap(np.diag(G_spec.values) / pi * factor, chain.pi_rules.from_target)
    entries = tolerance.bound(n, chain.entry_scale, tolerance.ROUTE)
    checks = [("spectral_hitting", gap_h, times), ("spectral_greens", gap_g, entries)]
    checks.append(("spectral_access", gap_a, times))
    if rep is None:
        return None, checks
    mix = -G_spec.values[rep.pessimal, np.arange(n)] / pi  # H(i, pi) for every i
    t_hit = float((1.0 / dec.eigenvalues[1:]).sum())
    spectral = tuple(v * factor for v in (float(mix.max()), float(pi @ mix), t_hit))
    for key, value, solved in zip(("t_mix", "t_reset", "t_hit"), spectral, (rep.t_mix, rep.t_reset, rep.t_hit)):
        checks.append((f"spectral_{key}", abs(value - solved), times))
    return spectral, checks


def verify_checks(chain: ChainAnalysis) -> list[Check]:
    """Every invariant suite on the chain of a graph."""
    g, P, pi, H, G = chain.graph, chain.transition, chain.stationary, chain.hitting, chain.greens
    n, T = P.n, H.time_scale
    probs = tolerance.bound(n, 1.0, tolerance.RESIDUAL)
    times = tolerance.bound(n, T, tolerance.RESIDUAL)
    routes = tolerance.bound(n, T, tolerance.ROUTE)
    checks = [
        ("stationary", tolerance.gap(pi.probs @ P.probs, pi.probs), probs),
        ("first_step", H.first_step, routes),
        *green_checks(chain, G),
        ("trace_vs_hit", trace_gap(chain), times),
        *exit_checks(chain, chain.exit_pi),
    ]

    try:
        mixing = chain.mixing
    except IntegrityError as exc:
        mixing = None
        if exc.check[0] not in {name for name, _, _ in checks}:  # trace_vs_hit is listed above
            checks.append(exc.check)

    if P.beta == 0.0:
        # laziness never moves pi, so the lazy chain reuses it; its hitting times are solved anew
        lazy = ChainAnalysis(transition_matrix(g, 0.5), pi)
        checks.append(("laziness_scaling", tolerance.gap(lazy.hitting.values * 0.5, H.values), routes))
        del lazy  # its P and H go once the residual is read

    if g.undirected:
        checks += spectral_routes(chain, decompose(g), mixing)[1]
    return checks + duality_checks(chain).checks
