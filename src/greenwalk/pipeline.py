"""One chain, solved once: hitting times, Green's function, X_pi, mixing and the reverse chain.

The check functions here audit a chain: each returns (name, residual, limit)
triples, and ``errors.failed`` decides which of them fail.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import graph
from .duality import DualityReport, duality_checks, reverse_chain
from .errors import Check, IntegrityError
from .graph import (
    Distribution,
    TransitionMatrix,
    WeightedDigraph,
    stationary_distribution,
    transition_matrix,
)
from .greens import (
    CONSTRAINT_TOL,
    HALTING_TOL,
    ROW_SUM_TOL,
    ExitFrequencyMatrix,
    GreensMatrix,
    MixingReport,
    exit_frequency_matrix,
    green_checks,
    greens_function,
    greens_general,
    hitting_from_greens,
    mixing_report,
    verify_green_constraints,
)
from .hitting import TIME_TOL, HittingTimeMatrix, check_cycle_identities, hit_time, hitting_times, time_scale
from .spectral import SpectralDecomposition, decompose, spectral_greens, spectral_hitting, spectral_mixing

EXIT_ROUTE_TOL = 1e-9  # scaled by time_scale: G read off X_pi against G from H


@dataclass(frozen=True)
class ChainAnalysis:
    """A chain P with its stationary distribution pi, and everything derived from them.

    Each derived quantity is built on first use and kept: ``hitting`` is the
    chain's one fundamental-matrix solve, and ``greens``, ``exit_pi`` (X_pi)
    and ``mixing`` are read off it. ``reverse`` is the time-reversed chain
    over the same pi, solved on its own; while this chain is alive, its
    ``reverse`` is this chain.
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
    def time_scale(self) -> float:
        """max(1, largest hitting time): limits on expected-step residuals are multiples of it."""
        return time_scale(self.hitting.values)

    @cached_property
    def greens(self) -> GreensMatrix:
        return greens_function(self.hitting, self.stationary)

    @cached_property
    def exit_pi(self) -> ExitFrequencyMatrix:
        return exit_frequency_matrix(self.hitting, self.stationary, self.stationary)

    @cached_property
    def mixing(self) -> MixingReport:
        undirected = self.graph is not None and self.graph.undirected
        return mixing_report(self.hitting, self.greens, self.stationary, undirected=undirected, exit_pi=self.exit_pi)

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
            self.__dict__["_reverse"] = rev
            rev.__dict__["_reverse"] = weakref.ref(self)
        return rev


def analyze(g: WeightedDigraph, beta: float = 0.0) -> ChainAnalysis:
    """The chain of the (optionally beta-lazy) random walk on a graph."""
    P = transition_matrix(g, beta)
    return ChainAnalysis(P, stationary_distribution(P))


def exit_checks(chain: ChainAnalysis, X: ExitFrequencyMatrix, tol: float = TIME_TOL) -> list[Check]:
    """An exit-frequency matrix of the chain: its conservation law, a zero in every row, and row sums H(i, tau)."""
    conservation, _ = verify_green_constraints(X, chain.transition)
    return [
        ("exit_conservation", conservation, CONSTRAINT_TOL * X.n),
        ("exit_row_min", float(X.values.min(axis=1).max()), HALTING_TOL),
        ("exit_row_sums", float(np.abs(X.values.sum(axis=1) - X.access).max()), tol * chain.time_scale),
    ]


def spectral_routes(
    chain: ChainAnalysis, dec: SpectralDecomposition, tol: float = TIME_TOL
) -> tuple[tuple[float, float, float], list[Check]]:
    """The spectral (T_mix, T_reset, T_hit) of a chain, and the gap of each spectral route to the solved one."""
    rep = chain.mixing
    factor = 1.0 / (1.0 - chain.transition.beta)  # laziness rescales every expected time
    times = tuple(v * factor for v in spectral_mixing(dec, rep.pessimal))
    gaps = {
        "hitting": float(np.abs(spectral_hitting(dec).values * factor - chain.hitting.values).max()),
        "greens": float(np.abs(spectral_greens(dec).values * factor - chain.greens.values).max()),
    }
    for key, value, solved in zip(("t_mix", "t_reset", "t_hit"), times, (rep.t_mix, rep.t_reset, rep.t_hit)):
        gaps[key] = abs(value - solved)
    limit = tol * chain.time_scale
    return times, [(f"spectral_{key}", gap, limit) for key, gap in gaps.items()]


def dual_checks(chain: ChainAnalysis, tol: float = TIME_TOL) -> tuple[DualityReport, list[Check]]:
    """The chain's duality report, and each forward/reverse identity's residual as a check."""
    rep = duality_checks(chain)
    limit = tol * chain.time_scale
    return rep, [(f"dual_{key}", value, limit) for key, value in rep.residuals.items()]


def verify_checks(chain: ChainAnalysis, tol: float = TIME_TOL) -> list[Check]:
    """Every invariant suite on the chain of a graph; ``tol`` scales the limits on expected times."""
    g, P, pi, H, G, X = chain.graph, chain.transition, chain.stationary, chain.hitting, chain.greens, chain.exit_pi
    limit = tol * chain.time_scale
    t_hit, random_target = hit_time(H, pi)
    checks = [
        ("row_stochastic", float(np.abs(P.probs.sum(axis=1) - 1.0).max()), graph.ROW_SUM_TOL),
        ("stationary", float(np.abs(pi.probs @ P.probs - pi.probs).max()), graph.STATIONARY_TOL),
        ("first_step", H.first_step, limit),
        ("random_target", random_target, limit),
        *green_checks(G, P),
        ("trace_vs_hit", abs(float(np.trace(G.values)) - t_hit), limit),
        ("hitting_roundtrip", float(np.abs(hitting_from_greens(G, pi).values - H.values).max()), limit),
        *exit_checks(chain, X, tol),
        (
            "greens_from_exit",
            float(np.abs(X.values - np.outer(X.access, pi.probs) - G.values).max()),
            EXIT_ROUTE_TOL * chain.time_scale,
        ),
    ]
    for tag, tau in (("uniform", Distribution.uniform(g.n)), ("vertex", Distribution.point_mass(g.n, 0))):
        checks += green_checks(greens_general(H, pi, tau), P, f"greens_{tag}")

    try:
        chain.mixing
        checks.append(("mixing_formulas", 0.0, 1.0))
    except IntegrityError as exc:
        checks.append(("mixing_formulas", exc.check[1], limit))

    if P.beta == 0.0:
        lazy = analyze(g, 0.5)
        checks.append(("laziness_scaling", float(np.abs(lazy.hitting.values * 0.5 - H.values).max()), limit))

    if g.undirected:
        triple, pair = check_cycle_identities(H, pi)
        weighted = pi.probs[:, None] * G.values
        checks += [
            ("cycle_triple", triple, limit),
            ("cycle_pair", pair, limit),
            ("greens_symmetry", float(np.abs(weighted - weighted.T).max()), ROW_SUM_TOL),
            *spectral_routes(chain, decompose(g), tol)[1],
        ]
    return checks + dual_checks(chain, tol)[1]
