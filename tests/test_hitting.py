from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenwalk import errors, families, pipeline, tolerance
from greenwalk.duality import reverse_chain
from greenwalk.errors import NumericalError, ValidationError
from greenwalk.generators import random_connected_graph, random_strongly_connected_digraph, wide_path_graph
from greenwalk.graph import Distribution, load_graph, stationary_distribution, transition_matrix
from greenwalk.greens import Rules
from greenwalk.hitting import (
    HittingTimeMatrix,
    fundamental_matrix,
    hit_time,
    hitting_column,
    hitting_times,
    reversed_hitting_times,
)

GOLDEN = Path(__file__).parent / "golden"


def chain(g, beta=0.0):
    P = transition_matrix(g, beta)
    return P, stationary_distribution(P)


class TestFundamentalMatrix:
    def test_k2_lazy_defining_property(self):
        P, pi = chain(families.complete_graph(2), beta=0.5)
        Z = fundamental_matrix(P, pi)
        A = np.eye(2) - P.probs + np.outer(np.ones(2), pi.probs)
        assert np.abs(Z @ A - np.eye(2)).max() <= 1e-12

    def test_directed_cycle_row_sums(self, directed_triangle):
        Z = fundamental_matrix(directed_triangle.transition, directed_triangle.stationary)
        assert np.abs(Z.sum(axis=1) - 1.0).max() <= 1e-12

    def test_random_digraph_residual(self):
        P, pi = chain(random_strongly_connected_digraph(6, seed=11))
        Z = fundamental_matrix(P, pi)
        A = np.eye(6) - P.probs + np.outer(np.ones(6), pi.probs)
        assert np.abs(Z @ A - np.eye(6)).max() <= 1e-9 * 6


class TestHittingTimes:
    def test_complete_graph(self):
        P, pi = chain(families.complete_graph(5))
        H = hitting_times(P, pi)
        expected = 4.0 * (1.0 - np.eye(5))
        assert np.abs(H.values - expected).max() <= 1e-10

    def test_cycle_row(self):
        P, pi = chain(families.cycle_graph(5))
        H = hitting_times(P, pi)
        assert np.allclose(H.values[0], [0, 4, 6, 6, 4], atol=1e-10)

    def test_bipartite_table(self):
        P, pi = chain(families.complete_bipartite(2, 3))
        H = hitting_times(P, pi)
        assert abs(H[0, 2] - 5.0) <= 1e-10  # across, from the small side
        assert abs(H[2, 0] - 3.0) <= 1e-10  # across, from the large side
        assert abs(H[0, 1] - 4.0) <= 1e-10  # within the small side
        assert abs(H[2, 3] - 6.0) <= 1e-10  # within the large side

    def test_diagonal_zero(self, directed_triangle):
        assert np.all(np.diag(directed_triangle.hitting.values) == 0.0)

    def test_takes_over_a_writable_array(self):
        values = np.array([[1e-15, 2.0], [3.0, 0.0]])
        H = HittingTimeMatrix(values)
        assert H.values is values
        assert not values.flags.writeable
        assert values[0, 0] == 0.0 and H.time_scale == 3.0

    def test_copies_a_read_only_array_and_leaves_it_untouched(self):
        values = np.array([[1e-15, 2.0], [3.0, 0.0]])
        values.setflags(write=False)
        H = HittingTimeMatrix(values)
        assert H.values is not values and H.values[0, 0] == 0.0
        assert values[0, 0] == 1e-15

    def test_leaves_a_rejected_array_as_it_was(self):
        values = np.array([[0.5, 2.0], [3.0, 0.0]])
        with pytest.raises(ValidationError, match="diagonal must be zero"):
            HittingTimeMatrix(values)
        assert values[0, 0] == 0.5 and values.flags.writeable

    def test_first_step_equations_large_graph(self):
        P, pi = chain(random_strongly_connected_digraph(200, seed=0))
        H = hitting_times(P, pi).values
        R = H - 1.0 - P.probs @ H
        np.fill_diagonal(R, 0.0)
        assert np.abs(R).max() <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 25), seed=st.integers(0, 10**6))
    def test_first_step_equations(self, n, seed):
        P, pi = chain(random_strongly_connected_digraph(n, seed))
        H = hitting_times(P, pi).values
        R = H - 1.0 - P.probs @ H
        np.fill_diagonal(R, 0.0)
        assert np.abs(R).max() <= 1e-8 * max(1.0, np.abs(H).max())

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 15), seed=st.integers(0, 10**6), beta=st.sampled_from([0.25, 0.5]))
    def test_laziness_scaling(self, n, seed, beta):
        g = random_strongly_connected_digraph(n, seed)
        P0, pi = chain(g)
        Pb, _ = chain(g, beta)
        H0 = hitting_times(P0, pi).values
        Hb = hitting_times(Pb, pi).values
        scale = max(1.0, np.abs(Hb).max())
        assert np.abs(Hb * (1.0 - beta) - H0).max() <= 1e-8 * scale


class TestHittingColumn:
    """Column j of Z alone gives H(., j) as the whole matrix does."""

    GRAPHS = {
        "golden-directed": lambda: load_graph(str(GOLDEN / "directed.edges")),
        "golden-undirected": lambda: load_graph(str(GOLDEN / "undirected.edges")),
        "digraph-150": lambda: random_strongly_connected_digraph(150, 1, extra=0.02),
        # the undirected wide-weight shape at seed 3: at d = 6, Z A - I exceeds the fundamental limit, A Z - I does not
        **{f"range-sweep-d{d}": (lambda d=d: wide_path_graph(40, 3, d)) for d in (0, 3, 6)},
    }

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_every_column_matches_the_matrix(self, name, beta):
        P, pi = chain(self.GRAPHS[name](), beta)
        H = hitting_times(P, pi)
        limit = tolerance.bound(P.n, H.time_scale, tolerance.ROUTE)
        for j in range(P.n):
            column = hitting_column(P, pi, j)
            assert column[j] == 0.0
            assert np.abs(column - H.values[:, j]).max() <= limit, j

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_every_pair_against_mpmath(self, beta):
        # the exact hitting times of the computed P: (I - P) h = 1 off j, solved with 50 digits
        P, pi = chain(load_graph(str(GOLDEN / "directed.edges")), beta)
        n, worst = P.n, 0.0
        with mpmath.workdps(50):
            for j in range(n):
                rest = [i for i in range(n) if i != j]
                system = mpmath.matrix([[float(a == b) - mpmath.mpf(P.probs[a, b]) for b in rest] for a in rest])
                exact = mpmath.lu_solve(system, mpmath.matrix([1] * (n - 1)))
                column = hitting_column(P, pi, j)
                worst = max([worst] + [float(abs((column[i] - x) / x)) for i, x in zip(rest, exact)])
        assert worst <= 2e-14


class TestReversedHittingTimes:
    """The reverse chain's hitting times read off the forward H agree with a solve of the reverse chain."""

    @pytest.mark.parametrize(
        "g, beta",
        [
            (random_strongly_connected_digraph(12, seed=4, weighted=False), 0.0),
            (random_strongly_connected_digraph(30, seed=9, weighted=True), 0.0),
            (random_strongly_connected_digraph(20, seed=2), 0.3),
            (random_connected_graph(15, seed=6, weighted=True), 0.0),
            (random_connected_graph(15, seed=6), 0.5),
            (random_strongly_connected_digraph(300, seed=1), 0.0),
        ],
        ids=["digraph", "weighted-digraph", "lazy-digraph", "undirected", "lazy-undirected", "digraph-300"],
    )
    def test_matches_solved_reverse(self, g, beta):
        P, pi = chain(g, beta)
        P_rev = reverse_chain(P, pi)
        rules = Rules(hitting_times(P, pi), pi, pi)
        with errors.recorded() as ledger:
            derived = reversed_hitting_times(rules, P_rev)
        solved = hitting_times(P_rev, pi)
        limit = tolerance.bound(P.n, solved.time_scale, tolerance.ROUTE)
        assert np.abs(derived.values - solved.values).max() <= limit
        ((name, first_step, _),) = ledger
        assert name == "first_step" and first_step <= limit

    def test_directed_triangle_runs_backwards(self, directed_triangle):
        rev = directed_triangle.reverse
        assert np.allclose(rev.hitting.values, directed_triangle.hitting.values.T, atol=1e-12)

    def test_first_step_checked_against_the_given_rows(self):
        # the forward rows of a directed chain do not fit the reverse hitting times
        P, pi = chain(random_strongly_connected_digraph(8, seed=5))
        with pytest.raises(NumericalError) as info:
            reversed_hitting_times(Rules(hitting_times(P, pi), pi, pi), P)
        assert info.value.check[0] == "first_step"

    def test_reverse_chain_keeps_its_first_step(self):
        sol = pipeline.analyze(random_strongly_connected_digraph(10, seed=7))
        sol.pi_rules.from_target  # the forward solve and its checks, outside the ledger
        with errors.recorded() as ledger:
            H = sol.reverse.hitting
        R = H.values - 1.0 - sol.reverse.transition.probs @ H.values
        np.fill_diagonal(R, 0.0)
        assert [residual for name, residual, _ in ledger if name == "first_step"] == [float(np.abs(R).max())]

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 25), seed=st.integers(0, 10**6), beta=st.sampled_from([0.0, 0.4]))
    def test_commute_times_agree(self, n, seed, beta):
        # H(i, j) + H(j, i) is the same on the chain and its reverse, derived or solved
        P, pi = chain(random_strongly_connected_digraph(n, seed, weighted=True), beta)
        H = hitting_times(P, pi)
        P_rev = reverse_chain(P, pi)
        commute = H.values + H.values.T
        derived = reversed_hitting_times(Rules(H, pi, pi), P_rev).values
        solved = hitting_times(P_rev, pi).values
        assert np.abs(derived + derived.T - commute).max() <= tolerance.bound(n, H.time_scale, tolerance.RESIDUAL)
        assert np.abs(solved + solved.T - commute).max() <= tolerance.bound(n, H.time_scale, tolerance.ROUTE)


class TestAccessAndReturns:
    def test_point_mass_recovers_entry(self, p3):
        sigma = Distribution.point_mass(3, 0)
        assert Rules(p3.hitting, p3.stationary, sigma).from_target[2] == pytest.approx(4.0)

    def test_stationary_access_cycle(self):
        P, pi = chain(families.cycle_graph(5))
        H = hitting_times(P, pi)
        assert Rules(H, pi, pi).from_target[0] == pytest.approx(4.0, abs=1e-10)

    def test_stationary_access_bipartite(self):
        P, pi = chain(families.complete_bipartite(2, 3))
        H = hitting_times(P, pi)
        assert Rules(H, pi, pi).from_target[0] == pytest.approx(2.5, abs=1e-10)


class TestHitTime:
    def test_complete_graph(self):
        P, pi = chain(families.complete_graph(3))
        t, residual = hit_time(hitting_times(P, pi), pi)
        assert t == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert residual <= 1e-10

    def test_cycle(self):
        P, pi = chain(families.cycle_graph(4))
        t, _ = hit_time(hitting_times(P, pi), pi)
        assert t == pytest.approx(2.5, abs=1e-10)

    def test_hypercube(self):
        P, pi = chain(families.hypercube_graph(3))
        t, _ = hit_time(hitting_times(P, pi), pi)
        assert t == pytest.approx(7.25, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 10**6))
    def test_random_target_identity_digraphs(self, n, seed):
        P, pi = chain(random_strongly_connected_digraph(n, seed))
        H = hitting_times(P, pi)
        t, residual = hit_time(H, pi)
        assert residual <= 1e-8 * max(1.0, t)


def pair_gap(chain) -> float:
    """Max residual of the pair reversal identity H(pi, i) + H(i, j) = H(pi, j) + H(j, i).

    Every reversible chain meets it; a directed chain genuinely violates it.
    """
    H, h_pi = chain.hitting.values, chain.pi_rules.from_target
    return tolerance.gap(h_pi[:, None] + H - h_pi[None, :], H.T)


class TestCycleIdentities:
    def test_path_exact(self, p3):
        assert pair_gap(p3) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(3, 25), seed=st.integers(0, 10**6))
    def test_undirected_within_tolerance(self, n, seed):
        g = random_connected_graph(n, seed)
        sol = pipeline.analyze(g)
        scale = max(1.0, np.abs(sol.hitting.values).max())
        assert pair_gap(sol) <= 1e-8 * scale

    def test_directed_violation_reported(self, directed_triangle):
        assert pair_gap(directed_triangle) > 0.5


class TestCachedStationaryRow:
    """The reverse chain's hitting times read the H(pi, .) row cached on the
    rules they are handed: shifting that row moves them by the shift."""

    @staticmethod
    def shifted(sol, shift):
        rules = Rules(sol.hitting, sol.stationary, sol.stationary)
        rules.__dict__["from_target"] = sol.pi_rules.from_target + shift
        return rules

    def test_reverse_hitting_times_move_by_the_shift(self):
        sol = pipeline.analyze(random_strongly_connected_digraph(10, seed=7))
        P_rev = sol.reverse.transition
        base = reversed_hitting_times(sol.pi_rules, P_rev).values
        shift = 1e-12 * np.arange(10)  # small enough for the reverse chain's first-step check
        moved = reversed_hitting_times(self.shifted(sol, shift), P_rev).values
        assert np.abs(moved - base - (shift[None, :] - shift[:, None])).max() <= 1e-13
