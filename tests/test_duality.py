import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenwalk import families, pipeline
from greenwalk.duality import (
    duality_checks,
    forget_distribution,
    forget_time,
    pi_core,
    reverse_chain,
)
from greenwalk.generators import random_connected_graph, random_strongly_connected_digraph
from greenwalk.graph import WeightedDigraph, stationary_distribution, transition_matrix
from greenwalk.greens import access_times, exit_frequency_matrix
from greenwalk.hitting import hitting_times
from greenwalk.pipeline import ChainAnalysis


def chain(g, beta=0.0):
    P = transition_matrix(g, beta)
    return P, stationary_distribution(P)


def digraph_chain(n, seed):
    return chain(random_strongly_connected_digraph(n, seed))


class TestReverseChain:
    def test_reversible_is_fixed(self):
        P, pi = chain(families.cycle_graph(4))
        assert np.abs(reverse_chain(P, pi).probs - P.probs).max() <= 1e-14

    def test_directed_cycle_flips(self, directed_triangle):
        rev = reverse_chain(directed_triangle.transition, directed_triangle.stationary)
        assert rev.probs[0, 2] == pytest.approx(1.0)
        assert rev.probs[2, 1] == pytest.approx(1.0)
        assert rev.probs[1, 0] == pytest.approx(1.0)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 10**6))
    def test_involution(self, n, seed):
        P, pi = digraph_chain(n, seed)
        assert np.abs(reverse_chain(reverse_chain(P, pi), pi).probs - P.probs).max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 10**6))
    def test_stationary_preserved(self, n, seed):
        P, pi = digraph_chain(n, seed)
        rev = reverse_chain(P, pi)
        assert np.abs(pi.probs @ rev.probs - pi.probs).max() <= 1e-10


class TestForgetDistribution:
    def test_path_concentrates_on_center(self):
        P, pi = chain(families.path_graph(3))
        mu = forget_distribution(ChainAnalysis(P, pi))
        assert np.allclose(mu.probs, [0.0, 1.0, 0.0], atol=1e-12)

    def test_cycle_collapses_to_stationary(self):
        P, pi = chain(families.cycle_graph(4))
        mu = forget_distribution(ChainAnalysis(P, pi))
        assert np.abs(mu.probs - pi.probs).max() <= 1e-12

    def test_directed_cycle_uniform(self, directed_triangle):
        mu = forget_distribution(directed_triangle)
        assert np.allclose(mu.probs, 1.0 / 3.0, atol=1e-12)


class TestForgetTime:
    def test_path(self):
        P, pi = chain(families.path_graph(3))
        assert forget_time(ChainAnalysis(P, pi)) == pytest.approx(1.0, abs=1e-12)

    def test_cycle(self):
        P, pi = chain(families.cycle_graph(4))
        assert forget_time(ChainAnalysis(P, pi)) == pytest.approx(1.5, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 15), seed=st.integers(0, 10**6))
    def test_exchanges_with_reverse_reset(self, n, seed):
        P, pi = digraph_chain(n, seed)
        rev = reverse_chain(P, pi)
        mix_rev = access_times(hitting_times(rev, pi), pi)
        reset_rev = float(pi.probs @ mix_rev)
        scale = max(1.0, reset_rev)
        assert abs(forget_time(ChainAnalysis(P, pi)) - reset_rev) <= 1e-8 * scale


class TestPiCore:
    def test_path_hand_values(self):
        P, pi = chain(families.path_graph(3))
        X = exit_frequency_matrix(hitting_times(P, pi), pi, pi)
        core, core_exit = pi_core(ChainAnalysis(P, pi))
        assert np.allclose(X.values.min(axis=0), [0.0, 0.5, 0.0], atol=1e-12)
        assert np.allclose(core.probs, [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(core_exit.values, [[1, 0, 0], [0, 0, 0], [0, 0, 1]], atol=1e-12)

    def test_transitive_core_is_stationary(self):
        P, pi = chain(families.cycle_graph(4))
        X = exit_frequency_matrix(hitting_times(P, pi), pi, pi)
        core, _ = pi_core(ChainAnalysis(P, pi))
        assert np.abs(core.probs - pi.probs).max() <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 10**6))
    def test_both_routes_agree(self, n, seed):
        # pi_core raises IntegrityError internally when the conservation and
        # reverse-chain routes drift apart
        P, pi = digraph_chain(n, seed)
        X = exit_frequency_matrix(hitting_times(P, pi), pi, pi)
        core, core_exit = pi_core(ChainAnalysis(P, pi))
        assert abs(core.probs.sum() - 1.0) <= 1e-12
        conservation = core_exit.values @ (np.eye(n) - P.probs) - (
            np.eye(n) - np.outer(np.ones(n), core.probs)
        )
        assert np.abs(conservation).max() <= 1e-9 * n

    def test_reversible_forget_equals_reverse_forget(self):
        # time reversal fixes a reversible chain, so the two forget
        # distributions coincide (the core is a different object in general)
        g = random_connected_graph(11, seed=6)
        P, pi = chain(g)
        rep = duality_checks(ChainAnalysis(P, pi))
        assert np.abs(rep.forget.probs - rep.reverse_forget.probs).max() <= 1e-10

    def test_core_shift_is_idempotent(self):
        # the shifted matrix has zero column minima, so repeating the
        # construction would change nothing
        P, pi = digraph_chain(10, seed=30)
        X = exit_frequency_matrix(hitting_times(P, pi), pi, pi)
        _, core_exit = pi_core(ChainAnalysis(P, pi))
        assert np.abs(core_exit.values.min(axis=0)).max() <= 1e-12

    def test_path_core_coincides_with_forget(self):
        # on the 3-path the conjugated exit matrix is symmetric, so the core
        # and the forget distribution happen to be the same point mass
        P, pi = chain(families.path_graph(3))
        X = exit_frequency_matrix(hitting_times(P, pi), pi, pi)
        core, _ = pi_core(ChainAnalysis(P, pi))
        mu = forget_distribution(ChainAnalysis(P, pi))
        assert np.abs(core.probs - mu.probs).max() <= 1e-12


class TestDualityChecks:
    def test_path_decomposition(self):
        P, pi = chain(families.path_graph(3))
        rep = duality_checks(ChainAnalysis(P, pi))
        H = hitting_times(P, pi)
        acc_core = access_times(H, rep.core)
        assert acc_core[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.residuals["core_decomposition"] <= 1e-12
        assert rep.t_forget == pytest.approx(1.0, abs=1e-12)

    def test_cycle_reduces_to_symmetry(self):
        P, pi = chain(families.cycle_graph(4))
        rep = duality_checks(ChainAnalysis(P, pi))
        assert np.abs(rep.reverse_forget.probs - pi.probs).max() <= 1e-12
        assert max(rep.residuals.values()) <= 1e-10

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(3, 12), seed=st.integers(0, 10**6))
    def test_all_residuals_small(self, n, seed):
        P, pi = digraph_chain(n, seed)
        sol = ChainAnalysis(P, pi)
        rep = duality_checks(sol)
        scale = max(1.0, float(np.abs(sol.reverse.hitting.values).max()))
        worst = max(rep.residuals.values())
        assert worst <= 1e-8 * scale, rep.residuals

    def test_dual_image_has_halting_rows(self):
        P, pi = digraph_chain(9, seed=77)
        rep = duality_checks(ChainAnalysis(P, pi))
        assert rep.residuals["dual_image_row_min"] <= 1e-10

    def test_report_carries_offsets(self):
        P, pi = chain(families.path_graph(3))
        rep = duality_checks(ChainAnalysis(P, pi))
        assert np.allclose(rep.offsets, [0.0, 0.5, 0.0], atol=1e-12)
