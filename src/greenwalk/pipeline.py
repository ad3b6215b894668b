"""One chain, solved once: hitting times, Green's function, X_pi, mixing and the reverse chain."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .duality import reverse_chain
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
    exit_frequency_matrix,
    greens_function,
    mixing_report,
)
from .hitting import HittingTimeMatrix, hitting_times


@dataclass(frozen=True)
class ChainAnalysis:
    """A chain P with its stationary distribution pi, and everything derived from them.

    Each derived quantity is built on first use and kept: ``hitting`` is the
    chain's one fundamental-matrix solve, and ``greens``, ``exit_pi`` (X_pi)
    and ``mixing`` are read off it. ``reverse`` is the time-reversed chain
    over the same pi, solved on its own; its ``reverse`` is this chain.
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
    def greens(self) -> GreensMatrix:
        return greens_function(self.hitting, self.stationary)

    @cached_property
    def exit_pi(self) -> ExitFrequencyMatrix:
        return exit_frequency_matrix(self.hitting, self.stationary, self.stationary)

    @cached_property
    def mixing(self) -> MixingReport:
        undirected = self.graph is not None and self.graph.undirected
        return mixing_report(self.hitting, self.greens, self.stationary, undirected=undirected)

    @cached_property
    def reverse(self) -> ChainAnalysis:
        rev = ChainAnalysis(reverse_chain(self.transition, self.stationary), self.stationary)
        # fill rev's cached_property slot, so reversing back returns this chain unsolved again
        rev.__dict__["reverse"] = self
        return rev


def analyze(g: WeightedDigraph, beta: float = 0.0) -> ChainAnalysis:
    """The chain of the (optionally beta-lazy) random walk on a graph."""
    P = transition_matrix(g, beta)
    return ChainAnalysis(P, stationary_distribution(P))
