"""One chain, solved once: hitting times, Green's function, X_pi and mixing.

Every check goes through ``errors.require`` where its residual is computed.
``verify_checks`` audits a fresh copy of a chain in a ledger, and returns its checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import tolerance
from .duality import duality_checks
from .errors import Check, GreenWalkError, IntegrityError, describe, failed, recorded, require, worst
from .graph import (
    Distribution,
    TransitionMatrix,
    WeightedDigraph,
    require_stationary,
    stationary_distribution,
    transition_matrix,
)
from .greens import (
    ExitFrequencyMatrix,
    GreensMatrix,
    MixingReport,
    Rules,
    exit_frequency_matrix,
    greens_general,
    hitting_from_greens,
    mixing_report,
    require_constraint,
)
from .hitting import HittingTimeMatrix, _solve_fundamental, hit_time, hitting_times, read_hitting
from .spectral import SpectralDecomposition, decompose, spectral_greens


@dataclass(frozen=True)
class ChainAnalysis:
    """A chain P with its stationary distribution pi, and everything derived from them.

    Each derived quantity is built on first use and kept: ``hitting`` is the
    chain's one fundamental-matrix solve, and ``greens``, ``exit_pi`` (X_pi),
    ``hit_time`` and ``mixing`` are read off it (``mixing`` builds no G: it
    reads the trace of G off the rules toward pi); ``pi_rules`` holds
    H(pi, .) and H(., pi). A residual a builder checks is kept on what it
    certifies (``greens.row_sum``, ``exit_pi.row_min``), and the commands
    print it from there. The time-reversed chain is no chain of its own:
    ``duality.duality_checks`` builds it, reads its hitting times off this
    chain's, and returns it in its report. ``simulate --stop`` solves one column
    (``hitting.hitting_column``), and ``verify``'s beta = 0.5 chain is one
    inverse read by ``hitting.read_hitting``: neither builds a chain.
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
    def mixing(self) -> MixingReport:
        return mixing_report(self)


def analyze(g: WeightedDigraph, beta: float = 0.0) -> ChainAnalysis:
    """The chain of the (optionally beta-lazy) random walk on a graph."""
    P = transition_matrix(g, beta)
    return ChainAnalysis(P, stationary_distribution(P))


def spectral_routes(
    chain: ChainAnalysis, dec: SpectralDecomposition
) -> tuple[tuple[float, float, float], dict[str, float]]:
    """The spectral (T_mix, T_reset, T_hit) of a chain, and the gap of each spectral route to the solved one.

    Every spectral quantity but T_hit = sum_{k>=1} 1 / lambda_k is read off the
    spectral G with its pi: H(i, j) = (G(j, j) - G(i, j)) / pi_j, so
    H(pi, j) = G(j, j) / pi_j and H(i, pi) = H(i', i) - H(pi, i) = -G(i', i) / pi_i
    for a pessimal vertex i' of i, read off the chain's mixing report. Each gap
    is the check ``spectral_<key>``; the residuals are keyed as ``spectral``
    prints them.
    """
    n, H, rep = chain.transition.n, chain.hitting, chain.mixing
    factor = 1.0 / (1.0 - chain.transition.beta)  # laziness rescales every expected time

    def scaled(M):
        # x * 1.0 is x bit for bit, so a chain that is not lazy needs no scaled copy
        return M if factor == 1.0 else M * factor

    times = tolerance.bound(n, H.time_scale, tolerance.ROUTE)
    G_spec = spectral_greens(dec)
    pi = G_spec.target.probs
    gap_h = tolerance.gap(scaled(hitting_from_greens(G_spec, G_spec.target).values), H.values)
    residuals = {"hitting_route": require("spectral_hitting", gap_h, times)}
    # the chain's G is read once the spectral H is gone: the two are never held together
    gap_g = tolerance.gap(scaled(G_spec.values), chain.greens.values)
    entries = tolerance.bound(n, chain.entry_scale, tolerance.ROUTE)
    residuals["greens_route"] = require("spectral_greens", gap_g, entries)
    gap_a = tolerance.gap(np.diag(G_spec.values) / pi * factor, chain.pi_rules.from_target)
    residuals["access_route"] = require("spectral_access", gap_a, times)
    mix = -G_spec.values[rep.pessimal, np.arange(n)] / pi  # H(i, pi) for every i
    t_hit = float((1.0 / dec.eigenvalues[1:]).sum())
    spectral = tuple(v * factor for v in (float(mix.max()), float(pi @ mix), t_hit))
    for key, value, solved in zip(("t_mix", "t_reset", "t_hit"), spectral, (rep.t_mix, rep.t_reset, rep.t_hit)):
        residuals[key] = require(f"spectral_{key}", abs(value - solved), times)
    return spectral, residuals


def verify_checks(chain: ChainAnalysis, green: GreensMatrix | None = None) -> list[Check]:
    """Every invariant suite on the chain of a graph, and on a Green matrix ``green`` read for it.

    The builders run on a fresh copy of the chain, so every check is made
    whatever ``chain`` already holds, and in an ``errors.recorded()`` ledger,
    so no check raises; each name keeps its worst record (``errors.worst``).
    An error a later builder raises on what a failed check let through is
    raised as the first failed check, an ``IntegrityError``.
    """
    chain = replace(chain)  # a copy that holds nothing derived yet
    g, P, pi = chain.graph, chain.transition, chain.stationary
    try:
        with recorded() as ledger:
            require_stationary(P, pi.probs)
            H = chain.hitting  # fundamental and first_step
            require_constraint(chain, chain.greens, "greens_constraint")
            require_constraint(chain, chain.exit_pi, "exit_conservation")
            chain.mixing  # trace_vs_hit, and pessimal_formulas_<i> on an undirected graph
            if P.beta == 0.0:
                # laziness never moves pi, so the lazy chain reuses it; its hitting times are read off an
                # inverse of its own, with no check of their own: laziness_scaling certifies them against H
                lazy = read_hitting(_solve_fundamental(transition_matrix(g, 0.5), pi)[1], pi)  # A goes at once
                lazy *= 0.5
                gap = tolerance.gap(lazy, H.values)
                del lazy  # its H goes once the residual is read
                require("laziness_scaling", gap, tolerance.bound(P.n, H.time_scale, tolerance.ROUTE))
            if g.undirected:
                spectral_routes(chain, decompose(g))
            duality_checks(chain)
            if green is not None:
                require_constraint(chain, green, "file_greens_constraint", "file_greens_row_sum")
    except GreenWalkError as exc:
        first = next(filter(failed, ledger), None)
        if first is None:
            raise
        raise IntegrityError(describe(first), first) from exc
    return worst(ledger)
