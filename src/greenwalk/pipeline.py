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
    verify_green_constraints,
)
from .hitting import HittingTimeMatrix, check_cycle_identities, hit_time, hitting_times, reversed_hitting_times
from .spectral import SpectralDecomposition, decompose, spectral_greens, spectral_hitting, spectral_mixing
from .spectral import spectral_access_from_stationary


@dataclass(frozen=True)
class ChainAnalysis:
    """A chain P with its stationary distribution pi, and everything derived from them.

    Each derived quantity is built on first use and kept: ``hitting`` is the
    chain's one fundamental-matrix solve, and ``greens``, ``exit_pi`` (X_pi),
    ``hit_time`` and ``mixing`` are read off it; ``pi_rules`` and
    ``forget_rules`` hold H(tau, .) and H(., tau) toward pi and the forget
    distribution. A residual a builder checks is kept on what it certifies
    (``greens.row_sum``, ``exit_pi.row_min``), and the check lists read it
    there. ``reverse`` is the time-reversed chain over the same pi; its
    ``hitting`` is read off this chain's with no second solve, and confirmed
    against the reverse chain's own rows. While this chain is alive, its
    ``reverse`` is this chain. ``forget``, the forget distribution, is read off
    the reverse chain's hitting times.
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

    The mixing measures need the chain's mixing report ``rep``; without it they are None and go unchecked.
    """
    n, H, G = chain.transition.n, chain.hitting, chain.greens
    factor = 1.0 / (1.0 - chain.transition.beta)  # laziness rescales every expected time
    times = tolerance.bound(n, H.time_scale, tolerance.ROUTE)
    gap_h = float(np.abs(spectral_hitting(dec).values * factor - H.values).max())
    gap_g = float(np.abs(spectral_greens(dec).values * factor - G.values).max())
    gap_a = float(np.abs(spectral_access_from_stationary(dec) * factor - chain.pi_rules.from_target).max())
    entries = tolerance.bound(n, chain.entry_scale, tolerance.ROUTE)
    checks = [("spectral_hitting", gap_h, times), ("spectral_greens", gap_g, entries)]
    checks.append(("spectral_access", gap_a, times))
    if rep is None:
        return None, checks
    spectral = tuple(v * factor for v in spectral_mixing(dec, rep.pessimal))
    for key, value, solved in zip(("t_mix", "t_reset", "t_hit"), spectral, (rep.t_mix, rep.t_reset, rep.t_hit)):
        checks.append((f"spectral_{key}", abs(value - solved), times))
    return spectral, checks


def verify_checks(chain: ChainAnalysis) -> list[Check]:
    """Every invariant suite on the chain of a graph."""
    g, P, pi, H, G, X = chain.graph, chain.transition, chain.stationary, chain.hitting, chain.greens, chain.exit_pi
    n, T, E = P.n, H.time_scale, chain.entry_scale
    probs = tolerance.bound(n, 1.0, tolerance.RESIDUAL)
    times = tolerance.bound(n, T, tolerance.RESIDUAL)
    entries = tolerance.bound(n, E, tolerance.RESIDUAL)
    routes = tolerance.bound(n, T, tolerance.ROUTE)
    t_hit, random_target = chain.hit_time
    checks = [
        ("row_stochastic", P.row_sum, probs),
        ("stationary", float(np.abs(pi.probs @ P.probs - pi.probs).max()), probs),
        ("first_step", H.first_step, routes),
        ("random_target", random_target, times),
        *green_checks(chain, G),
        ("trace_vs_hit", abs(float(np.trace(G.values)) - t_hit), times),
        ("hitting_roundtrip", float(np.abs(hitting_from_greens(G, pi).values - H.values).max()), times),
        *exit_checks(chain, X),
        ("greens_from_exit", float(np.abs(X.values - np.outer(X.access, pi.probs) - G.values).max()), entries),
    ]
    for tag, tau in (("uniform", Distribution.uniform(g.n)), ("vertex", Distribution.point_mass(g.n, 0))):
        checks += green_checks(chain, greens_general(Rules(H, pi, tau)), f"greens_{tag}")

    try:
        mixing = chain.mixing
        checks.append(("mixing_formulas", 0.0, 1.0))
    except IntegrityError as exc:
        mixing = None
        checks.append(("mixing_formulas", exc.check[1], times))

    if P.beta == 0.0:
        # laziness never moves pi, so the lazy chain reuses it; its hitting times are solved anew
        lazy = ChainAnalysis(transition_matrix(g, 0.5), pi)
        checks.append(("laziness_scaling", float(np.abs(lazy.hitting.values * 0.5 - H.values).max()), routes))

    if g.undirected:
        triple, pair = check_cycle_identities(chain.pi_rules)
        weighted = pi.probs[:, None] * G.values
        checks += [
            ("cycle_triple", triple, routes),
            ("cycle_pair", pair, routes),
            ("greens_symmetry", float(np.abs(weighted - weighted.T).max()), entries),
            *spectral_routes(chain, decompose(g), mixing)[1],
        ]
    return checks + duality_checks(chain).checks
