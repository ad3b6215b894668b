import math
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from greenwalk import families, pipeline, tolerance
from greenwalk.errors import ValidationError
from greenwalk.generators import random_tree
from greenwalk.graph import WeightedDigraph, load_graph
from greenwalk.greens import mixing_report
from greenwalk.hitting import hit_time


# ---------------------------------------------------------------------------
# the per-source BFS and per-pair meet fill the tree's array passes replaced,
# kept verbatim


def _bfs_tree_structure(tree: WeightedDigraph, root: int):
    # BFS parents from root; weighted adjacency straight from the arcs
    n = tree.n
    W = tree.weights
    neighbors = [np.flatnonzero(W[v] > 0).tolist() for v in range(n)]
    parent = np.full(n, -1, dtype=int)
    order = [root]
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in neighbors[v]:
            if u not in seen:
                seen.add(u)
                parent[u] = v
                order.append(u)
                queue.append(u)
    return neighbors, parent, order


def _bfs_tree_hitting_times(tree: WeightedDigraph) -> np.ndarray:
    n = tree.n
    W = tree.weights
    vol = tree.volume
    neighbors, parent, order = _bfs_tree_structure(tree, 0)
    below = tree.degrees.copy()
    for v in reversed(order):
        if parent[v] >= 0:
            below[parent[v]] += below[v]
    # cross[a][b]: expected steps for the walk at a to first reach adjacent b
    cross = {}
    for v in range(n):
        p = parent[v]
        if p >= 0:
            cross[(v, p)] = below[v] / W[v, p]
            cross[(p, v)] = (vol - below[v]) / W[v, p]
    H = np.zeros((n, n))
    for src in range(n):
        queue = deque([src])
        seen = {src}
        while queue:
            v = queue.popleft()
            for u in neighbors[v]:
                if u not in seen:
                    seen.add(u)
                    H[src, u] = H[src, v] + cross[(v, u)]
                    queue.append(u)
    return H


def _meet_tree_greens(tree: WeightedDigraph):
    """H, G, the (z, z') path and the projection-form pair count, pair by pair."""
    n = tree.n
    H = _bfs_tree_hitting_times(tree)
    pi = tree.degrees / tree.volume
    hpi = pi @ H
    pess = H.argmax(axis=0)
    mix = H[pess, np.arange(n)] - hpi
    t_mix = float(mix.max())
    z = int(mix.argmax())
    zp = int(pess[z])
    _, parent, order = _bfs_tree_structure(tree, z)
    depth = np.zeros(n, dtype=int)
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    path = [zp]
    while path[-1] != z:
        path.append(int(parent[path[-1]]))
    path.reverse()
    on_path = {v: idx for idx, v in enumerate(path)}
    proj = np.zeros(n, dtype=int)
    for v in range(n):
        cur = v
        while cur not in on_path:
            cur = int(parent[cur])
        proj[v] = cur
    pos = np.array([on_path[int(proj[v])] for v in range(n)])

    def meet(a: int, b: int) -> int:
        # where the (a, z) and (b, z) paths merge
        da, db = depth[a], depth[b]
        while da > db:
            a = int(parent[a])
            da -= 1
        while db > da:
            b = int(parent[b])
            db -= 1
        while a != b:
            a, b = int(parent[a]), int(parent[b])
        return a

    def projection_form(i: int, j: int) -> float:
        return pi[j] * ((H[zp, proj[j]] - H[j, proj[j]]) + (H[z, proj[i]] - H[i, proj[i]]) - t_mix)

    G = np.zeros((n, n))
    projected_pairs = 0
    for i in range(n):
        for j in range(n):
            if meet(i, j) in on_path:
                projected_pairs += 1
                if pos[i] <= pos[j]:
                    G[i, j] = projection_form(i, j)
                else:
                    G[i, j] = pi[j] / pi[i] * projection_form(j, i)
            else:
                G[i, j] = pi[j] * ((H[zp, j] - H[j, zp]) + (H[z, zp] - H[i, j]) - t_mix)
    return H, G, path, projected_pairs


def _tree(n, arcs):
    return WeightedDigraph(n, tuple(arcs), undirected=True)


TREES = {
    "golden": load_graph(str(Path(__file__).parent / "golden" / "tree.edges")),
    "path": families.path_graph(9),
    "star": families.complete_bipartite(1, 6),
    "spider": _tree(10, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0), (0, 7, 1.0), (7, 8, 1.0), (8, 9, 1.0)]),
    "broom": _tree(9, [(0, 1, 0.7), (1, 2, 1.3), (2, 3, 0.9), (3, 4, 1.1), (4, 5, 0.6), (4, 6, 1.4), (4, 7, 1.0), (4, 8, 0.8)]),
    "caterpillar": _tree(11, [(0, 1, 1.2), (1, 2, 0.8), (2, 3, 1.1), (3, 4, 0.9), (0, 5, 1.0), (1, 6, 0.6), (1, 7, 1.4), (2, 8, 1.3), (3, 9, 0.7), (4, 10, 1.0)]),
    "self-loop": _tree(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 4, 1.0), (2, 2, 0.7)]),
    "parallel-edge": _tree(5, [(0, 1, 1.0), (0, 1, 0.5), (0, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0)]),
    "zero-weight-arc": _tree(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 4, 1.0), (4, 5, 1.0), (0, 5, 0.0)]),
}
TREES.update(
    {
        f"random_tree({n}, {seed}{', weighted' if weighted else ''})": random_tree(n, seed, weighted=weighted)
        for n in (1, 2, 3, 12, 40, 150)
        for seed in range(6)
        for weighted in (False, True)
    }
)


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
        rep = families.tree_oracle(families.complete_bipartite(1, 3))
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

    @pytest.mark.parametrize("tree", TREES.values(), ids=TREES.keys())
    def test_array_passes_match_per_pair_fill(self, tree):
        H, G, path, projected_pairs = _meet_tree_greens(tree)
        assert families.tree_hitting_times(tree).tobytes() == H.tobytes()
        rep = families.tree_oracle(tree)
        assert rep.hitting.tobytes() == H.tobytes() and rep.greens.tobytes() == G.tobytes()
        assert rep.details["path"] == path
        assert rep.details["projection_form_pairs"] == projected_pairs

    def test_thousand_vertex_path_matches_path_oracle(self):
        rep = families.tree_oracle(families.path_graph(1000))
        rep_path = families.path_oracle(1000)
        limit = tolerance.bound(1000, tolerance.time_scale(rep.hitting), tolerance.ROUTE)
        assert np.abs(rep.greens - rep_path.greens).max() <= limit
        assert abs(rep.measures["t_mix"] - rep_path.measures["t_mix"]) <= limit


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


HOLDING_N = 40
HOLDING_LOOPS = {"unit": np.ones(HOLDING_N, dtype=int)} | {
    f"seed{seed}": np.random.default_rng(seed).integers(1, 10, size=HOLDING_N) for seed in range(10)
}


class TestHoldingCycle:
    """A directed, non-reversible chain against exact closed forms.

    Vertex k of a 40-cycle has an arc of weight 1 to k + 1 and a self-loop of
    weight s_k, so it holds for 1 + s_k steps on average: pi_k is proportional
    to 1 + s_k, H(i, j) sums 1 + s_k over k from i to j - 1 around the cycle,
    and G(i, j) = pi_j (H(pi, j) - H(i, j)). The closed forms are exact
    Fractions; the solver must meet each within the RESIDUAL limit at its own
    scale. The unit loops are a d = 0 shape; the seeded ones draw s_k from 1-9.
    """

    @staticmethod
    def closed_forms(loops):
        n = len(loops)
        hold = [1 + int(s) for s in loops]
        total = sum(hold)
        pi = [Fraction(h, total) for h in hold]
        prefix = [0]
        for h in hold + hold:
            prefix.append(prefix[-1] + h)
        H = [[prefix[i + (j - i) % n] - prefix[i] for j in range(n)] for i in range(n)]
        h_pi = [sum(pi[i] * H[i][j] for i in range(n)) for j in range(n)]
        G = [[pi[j] * (h_pi[j] - H[i][j]) for j in range(n)] for i in range(n)]
        return tuple(np.array(x, dtype=float) for x in (pi, H, G))

    @pytest.mark.parametrize("loops", list(HOLDING_LOOPS.values()), ids=list(HOLDING_LOOPS))
    def test_solver_meets_the_closed_forms(self, loops):
        n, k = HOLDING_N, np.arange(HOLDING_N)
        g = WeightedDigraph.from_columns(n, np.r_[k, k], np.r_[(k + 1) % n, k], np.r_[np.ones(n), loops])
        chain = pipeline.analyze(g)
        pi, H, G = self.closed_forms(loops)
        T = tolerance.time_scale(H)
        limits = [tolerance.bound(n, scale, tolerance.RESIDUAL) for scale in (1.0, T, pi.max() * T)]
        solved = (chain.stationary.probs, chain.hitting.values, chain.greens.values)
        gaps = [tolerance.gap(a, b) for a, b in zip(solved, (pi, H, G))]
        assert all(gap <= limit for gap, limit in zip(gaps, limits)), (gaps, limits)


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
