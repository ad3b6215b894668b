import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenwalk import families, pipeline, tolerance
from greenwalk.duality import (
    duality_checks,
    forget_distribution,
    pi_core,
    reverse_chain,
)
from greenwalk.generators import random_connected_graph, random_strongly_connected_digraph
from greenwalk.errors import IntegrityError
from greenwalk.graph import Distribution, WeightedDigraph, stationary_distribution, transition_matrix
from greenwalk.greens import Rules, exit_frequency_matrix
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


    def test_pi_off_stationary_fails_row_sum_check(self):
        # rounding-sized drift in pi is a failed check (exit 2), not bad input (exit 1)
        P, pi = digraph_chain(6, seed=3)
        probs = pi.probs.copy()
        probs[0] += 1e-9
        probs[1] -= 1e-9
        with pytest.raises(IntegrityError) as info:
            reverse_chain(P, Distribution(probs))
        name, residual, limit = info.value.check
        assert name == "reverse_row_sum" and limit == tolerance.bound(6, 1.0, tolerance.RESIDUAL)
        assert 1e-10 < residual < 1e-6


class TestChainReverse:
    def test_reverse_of_reverse_is_the_chain(self):
        sol = ChainAnalysis(*digraph_chain(9, seed=3))
        assert sol.reverse is sol.reverse
        assert sol.reverse.reverse is sol

    def test_chains_freed_without_cyclic_gc(self):
        sol = ChainAnalysis(*digraph_chain(9, seed=3))
        duality_checks(sol)
        forward, backward = weakref.ref(sol), weakref.ref(sol.reverse)
        gc.disable()
        try:
            del sol
            assert forward() is None
            assert backward() is None
        finally:
            gc.enable()


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
        assert duality_checks(ChainAnalysis(P, pi)).t_forget == pytest.approx(1.0, abs=1e-12)

    def test_cycle(self):
        P, pi = chain(families.cycle_graph(4))
        assert duality_checks(ChainAnalysis(P, pi)).t_forget == pytest.approx(1.5, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 15), seed=st.integers(0, 10**6))
    def test_exchanges_with_reverse_reset(self, n, seed):
        P, pi = digraph_chain(n, seed)
        rev = reverse_chain(P, pi)
        mix_rev = Rules(hitting_times(rev, pi), pi, pi).access
        reset_rev = float(pi.probs @ mix_rev)
        scale = max(1.0, reset_rev)
        assert abs(duality_checks(ChainAnalysis(P, pi)).t_forget - reset_rev) <= 1e-8 * scale


class TestPiCore:
    def test_path_hand_values(self):
        P, pi = chain(families.path_graph(3))
        X = exit_frequency_matrix(Rules(hitting_times(P, pi), pi, pi))
        core, core_exit, offsets = pi_core(ChainAnalysis(P, pi))
        assert np.allclose(X.values.min(axis=0), [0.0, 0.5, 0.0], atol=1e-12)
        assert np.array_equal(offsets, X.values.min(axis=0))
        assert np.allclose(core.probs, [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(core_exit.values, [[1, 0, 0], [0, 0, 0], [0, 0, 1]], atol=1e-12)

    def test_transitive_core_is_stationary(self):
        P, pi = chain(families.cycle_graph(4))
        X = exit_frequency_matrix(Rules(hitting_times(P, pi), pi, pi))
        core, _, _ = pi_core(ChainAnalysis(P, pi))
        assert np.abs(core.probs - pi.probs).max() <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 10**6))
    def test_both_routes_agree(self, n, seed):
        # pi_core raises IntegrityError internally when the conservation and
        # reverse-chain routes drift apart
        P, pi = digraph_chain(n, seed)
        X = exit_frequency_matrix(Rules(hitting_times(P, pi), pi, pi))
        core, core_exit, _ = pi_core(ChainAnalysis(P, pi))
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
        X = exit_frequency_matrix(Rules(hitting_times(P, pi), pi, pi))
        _, core_exit, _ = pi_core(ChainAnalysis(P, pi))
        assert np.abs(core_exit.values.min(axis=0)).max() <= 1e-12

    def test_path_core_coincides_with_forget(self):
        # on the 3-path the conjugated exit matrix is symmetric, so the core
        # and the forget distribution happen to be the same point mass
        P, pi = chain(families.path_graph(3))
        X = exit_frequency_matrix(Rules(hitting_times(P, pi), pi, pi))
        core, _, _ = pi_core(ChainAnalysis(P, pi))
        mu = forget_distribution(ChainAnalysis(P, pi))
        assert np.abs(core.probs - mu.probs).max() <= 1e-12


class TestDualityChecks:
    def test_path_decomposition(self):
        P, pi = chain(families.path_graph(3))
        rep = duality_checks(ChainAnalysis(P, pi))
        H = hitting_times(P, pi)
        core_rules, pi_rules = Rules(H, pi, rep.core), Rules(H, pi, pi)
        assert core_rules.access[0] == pytest.approx(1.0, abs=1e-12)
        # H(., pi) = H(., core) + H(core, pi)
        core_mix = core_rules.access + (core_rules.from_target - pi_rules.from_target).max()
        assert np.abs(pi_rules.access - core_mix).max() <= 1e-12
        assert rep.t_forget == pytest.approx(1.0, abs=1e-12)

    def test_cycle_reduces_to_symmetry(self):
        P, pi = chain(families.cycle_graph(4))
        rep = duality_checks(ChainAnalysis(P, pi))
        assert np.abs(rep.reverse_forget.probs - pi.probs).max() <= 1e-12
        assert rep.reverse_involution <= 1e-10

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(3, 12), seed=st.integers(0, 10**6))
    def test_all_residuals_small(self, n, seed):
        P, pi = digraph_chain(n, seed)
        sol = ChainAnalysis(P, pi)
        rep = duality_checks(sol)
        scale = max(1.0, float(np.abs(sol.reverse.hitting.values).max()))
        assert rep.reverse_involution <= 1e-8 * scale

    def test_dual_image_has_halting_rows(self):
        # the dual image is X_pi less its column minima, conjugated: each of its rows holds a zero
        P, pi = digraph_chain(9, seed=77)
        rep = duality_checks(ChainAnalysis(P, pi))
        p = pi.probs
        image = rep.core_exit.values.T * (p[None, :] / p[:, None])
        assert image.min(axis=1).max() <= 1e-10

    def test_report_carries_offsets(self):
        P, pi = chain(families.path_graph(3))
        rep = duality_checks(ChainAnalysis(P, pi))
        assert np.allclose(rep.offsets, [0.0, 0.5, 0.0], atol=1e-12)
