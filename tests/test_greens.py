import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenwalk import families, pipeline, tolerance
from greenwalk.errors import IntegrityError
from greenwalk.generators import random_connected_graph, random_strongly_connected_digraph
from greenwalk.graph import Distribution
from greenwalk.greens import (
    GreensMatrix,
    Rules,
    exit_frequency_matrix,
    greens_general,
    hitting_from_greens,
    mixing_report,
    verify_green_constraints,
)
from greenwalk.pipeline import analyze


class TestGreensFunction:
    def test_complete_graph_values(self):
        sol = analyze(families.complete_graph(3))
        G = sol.greens.values
        assert np.allclose(np.diag(G), 4.0 / 9.0, atol=1e-12)
        off = G[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -2.0 / 9.0, atol=1e-12)

    def test_cycle_row(self):
        sol = analyze(families.cycle_graph(5))
        assert np.allclose(sol.greens.values[0], [0.8, 0.0, -0.4, -0.4, 0.0], atol=1e-10)

    def test_directed_cycle_column(self, directed_triangle):
        assert np.allclose(directed_triangle.greens.values[:, 0], [1 / 3, -1 / 3, 0.0], atol=1e-12)

    def test_digraph_asymmetry(self, directed_triangle):
        G = directed_triangle.greens.values
        pi = directed_triangle.stationary.probs
        assert pi[0] * G[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert pi[1] * G[1, 0] == pytest.approx(-1.0 / 9.0, abs=1e-12)

    def test_diagonal_is_scaled_stationary_access(self, p3):
        hpi = p3.stationary.probs @ p3.hitting.values
        assert np.abs(np.diag(p3.greens.values) - p3.stationary.probs * hpi).max() <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 25), seed=st.integers(0, 10**6))
    def test_constraints_on_random_digraphs(self, n, seed):
        sol = analyze(random_strongly_connected_digraph(n, seed))
        constraint, row_sum = verify_green_constraints(sol.greens, sol.transition), sol.greens.row_sum
        assert constraint <= 1e-9 * n
        assert row_sum <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(3, 20), seed=st.integers(0, 10**6))
    def test_undirected_symmetry(self, n, seed):
        sol = analyze(random_connected_graph(n, seed))
        weighted = sol.stationary.probs[:, None] * sol.greens.values
        assert np.abs(weighted - weighted.T).max() <= 1e-10


class TestGeneralizedGreens:
    def test_point_target_structure(self, directed_triangle):
        H, pi = directed_triangle.hitting, directed_triangle.stationary
        k = 1
        Gk = greens_general(Rules(H, pi, Distribution.point_mass(3, k)))
        assert np.abs(Gk.values[k]).max() <= 1e-12
        expected_col = -pi.probs * H.values[:, k]
        assert np.allclose(Gk.values[:, k], expected_col, atol=1e-12)

    def test_stationary_target_reduces_to_classical(self):
        sol = analyze(families.cycle_graph(4))
        Gt = greens_general(Rules(sol.hitting, sol.stationary, sol.stationary))
        assert np.array_equal(Gt.values, sol.greens.values)

    def test_path_center_target(self, p3):
        Gt = greens_general(Rules(p3.hitting, p3.stationary, Distribution.point_mass(3, 1)))
        assert Gt.values[0, 1] == pytest.approx(-0.5, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 15), seed=st.integers(0, 10**6))
    def test_general_constraints(self, n, seed):
        sol = analyze(random_strongly_connected_digraph(n, seed))
        rng = np.random.default_rng(seed)
        tau = Distribution(rng.dirichlet(np.ones(n)))
        Gt = greens_general(Rules(sol.hitting, sol.stationary, tau))
        constraint, row_sum = verify_green_constraints(Gt, sol.transition), Gt.row_sum
        assert constraint <= 1e-9 * n and row_sum <= 1e-10


class TestExitFrequencies:
    def test_path_rows(self, p3):
        X = exit_frequency_matrix(Rules(p3.hitting, p3.stationary, p3.stationary))
        assert np.allclose(X.values[1], [0.0, 0.5, 0.0], atol=1e-12)
        assert np.allclose(X.values[0], [1.0, 0.5, 0.0], atol=1e-12)
        assert X.values.sum(axis=1) == pytest.approx([1.5, 0.5, 1.5], abs=1e-12)

    def test_point_target_rows(self, directed_triangle):
        H, pi = directed_triangle.hitting, directed_triangle.stationary
        X = exit_frequency_matrix(Rules(H, pi, Distribution.point_mass(3, 2)))
        assert np.abs(X.values[:, 2]).max() <= 1e-12  # the target never exits
        assert np.allclose(X.values.sum(axis=1), H.values[:, 2], atol=1e-12)

    def test_rank_one_shift_reproduces_greens(self, directed_triangle):
        H, pi = directed_triangle.hitting, directed_triangle.stationary
        X = exit_frequency_matrix(Rules(H, pi, pi))
        rebuilt = X.values - np.outer(X.access, pi.probs)
        assert np.abs(rebuilt - directed_triangle.greens.values).max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 10**6))
    def test_structure_on_random_digraphs(self, n, seed):
        sol = analyze(random_strongly_connected_digraph(n, seed))
        rng = np.random.default_rng(seed + 1)
        tau = Distribution(rng.dirichlet(np.ones(n)))
        X = exit_frequency_matrix(Rules(sol.hitting, sol.stationary, tau))
        assert X.values.min() >= 0.0
        assert X.values.min(axis=1).max() <= 1e-10
        scale = max(1.0, np.abs(X.access).max())
        assert np.abs(X.values.sum(axis=1) - X.access).max() <= 1e-8 * scale
        conservation = X.values @ (np.eye(n) - sol.transition.probs) - (
            np.eye(n) - np.outer(np.ones(n), tau.probs)
        )
        assert np.abs(conservation).max() <= 1e-9 * n
        rebuilt = X.values - np.outer(X.access, sol.stationary.probs)
        direct = greens_general(Rules(sol.hitting, sol.stationary, tau))
        assert np.abs(rebuilt - direct.values).max() <= 1e-9 * max(1.0, scale)

    def test_two_routes_agree_on_undirected(self):
        sol = analyze(random_connected_graph(16, seed=12, weighted=True))
        X = exit_frequency_matrix(Rules(sol.hitting, sol.stationary, sol.stationary))
        rebuilt = X.values - np.outer(X.access, sol.stationary.probs)
        scale = max(1.0, np.abs(X.access).max())
        assert np.abs(rebuilt - sol.greens.values).max() <= 1e-9 * scale

    def test_undirected_pessimal_vertex_is_halting(self):
        sol = analyze(random_connected_graph(14, seed=2))
        X = exit_frequency_matrix(Rules(sol.hitting, sol.stationary, sol.stationary))
        pess = sol.hitting.values.argmax(axis=0)
        for i in range(14):
            assert X.values[i, pess[i]] <= 1e-10


class TestVerifyConstraints:
    def test_zero_matrix(self):
        sol = analyze(families.complete_graph(3))
        M = GreensMatrix(np.zeros((3, 3)), target=sol.stationary)
        constraint, row_sum = verify_green_constraints(M, sol.transition), M.row_sum
        assert constraint == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert row_sum == 0.0

    def test_perturbed_entry(self):
        sol = analyze(families.complete_graph(3))
        values = sol.greens.values.copy()
        values[0, 0] += 1.0
        constraint = verify_green_constraints(GreensMatrix(values, sol.stationary), sol.transition)
        assert constraint >= 0.5

    def test_clean_output_passes(self):
        sol = analyze(random_strongly_connected_digraph(10, seed=4))
        constraint, row_sum = verify_green_constraints(sol.greens, sol.transition), sol.greens.row_sum
        assert constraint <= 1e-9 * 10 and row_sum <= 1e-10


class TestHittingRoundTrip:
    def test_complete_graph(self):
        sol = analyze(families.complete_graph(3))
        back = hitting_from_greens(sol.greens, sol.stationary)
        assert np.abs(back.values - sol.hitting.values).max() <= 1e-10

    def test_cycle_entry(self):
        sol = analyze(families.cycle_graph(5))
        back = hitting_from_greens(sol.greens, sol.stationary)
        assert back[0, 2] == pytest.approx(6.0, abs=1e-10)

    def test_diagonal_zero(self, directed_triangle):
        back = hitting_from_greens(directed_triangle.greens, directed_triangle.stationary)
        assert np.all(np.diag(back.values) == 0.0)

    def test_directed_entry_by_entry(self):
        # H of a random digraph is neither symmetric nor circulant, so a transposed recovery fails here
        sol = analyze(random_strongly_connected_digraph(8, seed=3))
        back = hitting_from_greens(sol.greens, sol.stationary)
        assert np.abs(back.values - sol.hitting.values).max() <= 1e-10 * sol.hitting.time_scale


class TestMixingReport:
    def test_path_hand_values(self, p3):
        rep = mixing_report(p3)
        assert np.allclose(rep.mixing_times, [1.5, 0.5, 1.5], atol=1e-12)
        assert rep.t_mix == pytest.approx(1.5)
        assert rep.t_reset == pytest.approx(1.0)
        assert rep.t_hit == pytest.approx(1.5)
        assert rep.mixing_pessimal == (0, 2)
        assert 0 in rep.halting_states[1] and 2 in rep.halting_states[1]

    def test_cycle_matches_square_hypercube(self):
        sol = analyze(families.cycle_graph(4))
        rep = mixing_report(sol)
        assert rep.t_mix == pytest.approx(1.5, abs=1e-10)

    def test_hypercube(self):
        sol = analyze(families.hypercube_graph(3))
        rep = mixing_report(sol)
        assert rep.t_mix == pytest.approx(2.75, abs=1e-8)
        assert rep.t_hit == pytest.approx(7.25, abs=1e-8)
        assert sol.hitting[7, 0] == pytest.approx(10.0, abs=1e-8)

    def test_reset_from_exit_row_sums(self):
        sol = analyze(random_strongly_connected_digraph(12, seed=8))
        rep = mixing_report(sol)
        X = exit_frequency_matrix(Rules(sol.hitting, sol.stationary, sol.stationary))
        reset = float(sol.stationary.probs @ X.values.sum(axis=1))
        assert abs(reset - rep.t_reset) <= 1e-8 * max(1.0, rep.t_hit)

    def test_pessimal_lowest_index_tie_break(self, p3):
        rep = mixing_report(p3)
        # both endpoints maximize H(., 1); the tie goes to vertex 0
        assert rep.pessimal[1] == 0

    def test_mixing_times_match_access_route(self):
        sol = analyze(random_strongly_connected_digraph(10, seed=14))
        rep = mixing_report(sol)
        direct = Rules(sol.hitting, sol.stationary, sol.stationary).access
        assert np.abs(rep.mixing_times - direct).max() <= 1e-10
        # H(i, pi) is also the largest entry of row i of -G diag(pi)^{-1}
        via_greens = (-sol.greens.values / sol.stationary.probs[None, :]).max(axis=1)
        assert np.abs(rep.mixing_times - via_greens).max() <= 1e-10

    @pytest.mark.parametrize(
        "g, beta",
        [
            (families.path_graph(3), 0.0),
            (families.hypercube_graph(3), 0.0),
            (families.toric_grid_graph((4, 4)), 0.0),
            (random_connected_graph(20, seed=3), 0.0),
            (random_strongly_connected_digraph(30, seed=12), 0.0),
            (random_strongly_connected_digraph(25, seed=5), 0.4),
        ],
        ids=["path", "cube", "torus", "undirected", "digraph", "lazy-digraph"],
    )
    def test_halting_states_match_per_row_scan(self, g, beta):
        sol = analyze(g, beta)
        zero = tolerance.bound(sol.transition.n, sol.entry_scale, tolerance.RESIDUAL)
        expected = tuple(tuple(np.flatnonzero(row <= zero).tolist()) for row in sol.exit_pi.values)
        halting = mixing_report(sol).halting_states
        assert halting == expected
        assert all(type(k) is int for row in halting for k in row)

    def test_tampered_hit_time_raises(self, p3):
        t_hit, residual = p3.hit_time
        tampered = pipeline.ChainAnalysis(p3.transition, p3.stationary)
        tampered.__dict__["hit_time"] = (t_hit + 0.1, residual)
        with pytest.raises(IntegrityError) as exc:
            mixing_report(tampered)
        assert exc.value.check[0] == "trace_vs_hit"
