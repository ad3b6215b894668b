import math

import numpy as np
import pytest

from greenwalk import families, pipeline
from greenwalk.errors import ValidationError
from greenwalk.generators import random_tree
from greenwalk.graph import WeightedDigraph
from greenwalk.greens import mixing_report
from greenwalk.hitting import hit_time


class TestComplete:
    def test_greens_values(self):
        rep = families.complete_oracle(3)
        assert rep.greens[0, 0] == pytest.approx(4.0 / 9.0, abs=1e-15)
        rep5 = families.complete_oracle(5)
        assert rep5.greens[0, 1] == pytest.approx(-4.0 / 25.0, abs=1e-15)

    def test_two_vertices(self):
        rep = families.complete_oracle(2)
        assert rep.hitting[0, 1] == 1.0

    def test_rejects_singleton(self):
        with pytest.raises(ValidationError):
            families.complete_oracle(1)


class TestBipartite:
    def test_hitting_and_greens_tables(self):
        rep = families.bipartite_oracle(2, 3)
        assert rep.hitting[0, 2] == 5.0 and rep.hitting[2, 0] == 3.0
        assert rep.hitting[0, 1] == 4.0 and rep.hitting[2, 3] == 6.0
        assert rep.greens[0, 0] == pytest.approx(0.625)
        assert rep.measures["access_left"] == pytest.approx(2.5)

    def test_star_case(self):
        rep = families.bipartite_oracle(1, 2)
        assert rep.details["star"]
        assert rep.greens[0, 0] == pytest.approx(0.25)

    def test_star_equals_path_pipeline(self):
        rep = families.bipartite_oracle(1, 2)
        sol = pipeline.analyze(families.path_graph(3))
        # star labels the center first; the path labels it in the middle
        perm = [1, 0, 2]
        assert np.abs(rep.greens - sol.greens.values[np.ix_(perm, perm)]).max() <= 1e-12


class TestPath:
    def test_upper_entry(self):
        rep = families.path_oracle(3)
        assert rep.greens[0, 0] == pytest.approx(0.625, abs=1e-12)

    def test_symmetry_completion(self):
        rep = families.path_oracle(3)
        assert rep.greens[1, 0] == pytest.approx(-0.125, abs=1e-12)

    def test_two_vertex_mixing(self):
        rep = families.path_oracle(2)
        assert rep.measures["t_mix"] == pytest.approx(0.5)


class TestTree:
    def test_path_as_tree_matches_path_oracle(self):
        tree = families.path_graph(4)
        rep = families.tree_oracle(tree)
        rep_path = families.path_oracle(4)
        assert np.abs(rep.greens - rep_path.greens).max() <= 1e-10

    def test_star_as_tree_matches_bipartite(self):
        rep = families.tree_oracle(families.star_graph(3))
        rep_star = families.bipartite_oracle(1, 3)
        assert np.abs(rep.greens - rep_star.greens).max() <= 1e-10

    def test_random_tree_agrees_with_solver(self):
        rep = families.tree_oracle(random_tree(12, seed=21))
        assert max(rep.solver_residuals.values()) <= 1e-8

    def test_combinatorial_hitting_is_exact(self):
        tree = random_tree(18, seed=3, weighted=True)
        sol = pipeline.analyze(tree)
        H = families.tree_hitting_times(tree)
        scale = max(1.0, np.abs(H).max())
        assert np.abs(H - sol.hitting.values).max() <= 1e-9 * scale

    def test_non_tree_rejected(self):
        with pytest.raises(ValidationError):
            families.tree_oracle(families.cycle_graph(4))


class TestCycle:
    def test_hitting_entry(self):
        rep = families.cycle_oracle(5)
        assert rep.hitting[0, 2] == 6.0

    def test_greens_entry(self):
        rep = families.cycle_oracle(4)
        assert rep.greens[0, 2] == pytest.approx(-0.375, abs=1e-12)

    def test_polynomial_matches_trigonometric(self):
        for n in (3, 5, 8, 17):
            rep = families.cycle_oracle(n)
            assert rep.details["poly_vs_trig"] <= 1e-10


class TestHypercube:
    def test_dimension_three(self):
        rep = families.hypercube_oracle(3)
        assert rep.measures["t_mix"] == pytest.approx(2.75)
        assert rep.measures["h_one_zero"] == pytest.approx(10.0)
        assert rep.measures["t_hit"] == pytest.approx(7.25)

    def test_dimension_two_is_square(self):
        rep = families.hypercube_oracle(2)
        cyc = families.cycle_oracle(4)
        assert rep.measures["t_mix"] == pytest.approx(cyc.measures["t_mix"])

    def test_dimension_one(self):
        rep = families.hypercube_oracle(1)
        assert rep.details["level_times"] == [1.0]
        assert rep.measures["t_mix"] == pytest.approx(0.5)

    def test_identity_chain_exact_to_fourteen(self):
        assert all(families.check_hypercube_identity(d) for d in range(1, 15))

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            families.hypercube_oracle(0)
        with pytest.raises(ValidationError):
            families.hypercube_oracle(15)

    def test_large_dimension_skips_dense_matrices(self):
        rep = families.hypercube_oracle(12)
        assert rep.hitting is None and rep.greens is None
        assert rep.measures["t_hit"] > 0


class TestToric:
    def test_single_cycle_reduces(self):
        rep = families.toric_oracle((4,))
        cyc = families.cycle_oracle(4)
        assert np.abs(rep.greens - cyc.greens).max() <= 1e-12
        assert rep.measures["t_hit"] == pytest.approx(cyc.measures["t_hit"], abs=1e-12)

    def test_square_grid_hit_time(self):
        rep = families.toric_oracle((3, 3))
        assert max(rep.solver_residuals.values()) <= 1e-8

    def test_transitive_mix_equals_reset(self):
        rep = families.toric_oracle((4, 4))
        sol = pipeline.analyze(rep.graph)
        mrep = mixing_report(sol)
        assert abs(mrep.t_mix - mrep.t_reset) <= 1e-8
        assert abs(rep.measures["t_mix"] - mrep.t_mix) <= 1e-8

    def test_halfway_vertex_reported(self):
        rep = families.toric_oracle((4, 4))
        assert rep.details["halfway_vertex"] == (2, 2)
        assert rep.details["halfway_is_pessimal"]

    def test_eigenvalues_match_spectral_module(self):
        from greenwalk.spectral import decompose

        rep = families.toric_oracle((3, 4))
        dec = decompose(rep.graph)
        assert np.abs(np.array(rep.details["eigenvalues"]) - dec.eigenvalues).max() <= 1e-10

    @pytest.mark.parametrize("dims", [(3, 4), (8, 15), (3, 3, 3), (4, 5, 6)])
    def test_grid_arcs_match_per_vertex_loop(self, dims):
        n = math.prod(dims)
        arcs = []
        for flat in range(n):
            coords = list(np.unravel_index(flat, dims))
            for axis, m in enumerate(dims):
                nxt = coords.copy()
                nxt[axis] = (nxt[axis] + 1) % m
                arcs.append((flat, int(np.ravel_multi_index(nxt, dims)), 1.0))
        loop = WeightedDigraph(n, tuple(arcs), undirected=True)
        g = families.toric_grid_graph(dims)
        assert g.n == loop.n and g.undirected
        for column in ("src", "dst", "w"):
            assert getattr(g, column).dtype == getattr(loop, column).dtype
            assert np.array_equal(getattr(g, column), getattr(loop, column))

    def test_dimension_bounds(self):
        with pytest.raises(ValidationError):
            families.toric_oracle((2, 3))
        with pytest.raises(ValidationError):
            families.toric_oracle((17, 16, 16))


class TestVertexTransitiveFamilies:
    @pytest.mark.parametrize(
        "graph",
        [
            families.complete_graph(6),
            families.cycle_graph(7),
            families.hypercube_graph(3),
            families.toric_grid_graph((3, 4)),
        ],
        ids=["complete", "cycle", "hypercube", "toric"],
    )
    def test_uniform_access_and_mix_equals_reset(self, graph):
        sol = pipeline.analyze(graph)
        hpi = sol.stationary.probs @ sol.hitting.values
        t_hit, _ = hit_time(sol.hitting, sol.stationary)
        assert np.abs(hpi - t_hit).max() <= 1e-8 * max(1.0, t_hit)
        rep = mixing_report(sol)
        assert abs(rep.t_mix - rep.t_reset) <= 1e-8 * max(1.0, t_hit)
