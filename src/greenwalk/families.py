"""Closed-form reference values for named graph families.

Each oracle realizes its family as a concrete graph, evaluates the known
closed forms, and replays the graph through the generic solver to confirm
entrywise agreement. The oracles are deliberately independent of the
solver: combinatorial or trigonometric routes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import pipeline, tolerance
from .errors import IntegrityError, ValidationError, require
from .graph import WeightedDigraph, strongly_connected


# ---------------------------------------------------------------------------
# family realizations


def complete_graph(n: int) -> WeightedDigraph:
    if n < 2:
        raise ValidationError("complete graph needs n >= 2")
    arcs = tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n))
    return WeightedDigraph(n, arcs, undirected=True)


def complete_bipartite(r: int, s: int) -> WeightedDigraph:
    if r < 1 or s < 1:
        raise ValidationError("bipartite sides must be nonempty")
    arcs = tuple((u, r + w, 1.0) for u in range(r) for w in range(s))
    return WeightedDigraph(r + s, arcs, undirected=True)


def path_graph(n: int) -> WeightedDigraph:
    if n < 2:
        raise ValidationError("path needs n >= 2")
    arcs = tuple((i, i + 1, 1.0) for i in range(n - 1))
    return WeightedDigraph(n, arcs, undirected=True)


def cycle_graph(n: int) -> WeightedDigraph:
    if n < 3:
        raise ValidationError("cycle needs n >= 3")
    arcs = tuple((i, (i + 1) % n, 1.0) for i in range(n))
    return WeightedDigraph(n, arcs, undirected=True)


def hypercube_graph(d: int) -> WeightedDigraph:
    if d < 1:
        raise ValidationError("hypercube needs d >= 1")
    arcs = []
    for v in range(1 << d):
        for b in range(d):
            u = v ^ (1 << b)
            if u > v:
                arcs.append((v, u, 1.0))
    return WeightedDigraph(1 << d, tuple(arcs), undirected=True)


def toric_grid_graph(dims: tuple[int, ...]) -> WeightedDigraph:
    dims = tuple(int(m) for m in dims)
    if not dims or any(m < 3 for m in dims):
        raise ValidationError("toric grid needs every cycle length >= 3")
    n = math.prod(dims)
    coords = np.unravel_index(np.arange(n), dims)
    steps = []
    for axis, m in enumerate(dims):
        nxt = list(coords)
        nxt[axis] = (coords[axis] + 1) % m
        steps.append(np.ravel_multi_index(nxt, dims))
    # one arc per (vertex, axis), in that order
    src = np.repeat(np.arange(n), len(dims))
    return WeightedDigraph.from_columns(n, src, np.stack(steps, axis=1).ravel(), np.ones(src.size), undirected=True)


# ---------------------------------------------------------------------------
# reports and verification against the generic solver


@dataclass(frozen=True)
class OracleReport:
    """Closed-form values for one family instance, plus the realized graph.

    ``solver_residuals`` holds each closed form's gap to the generic solver;
    it is empty when the instance is too large to solve densely.
    """

    family: str
    params: tuple
    graph: WeightedDigraph
    hitting: np.ndarray | None
    greens: np.ndarray | None
    measures: dict[str, float]
    details: dict[str, object] = field(default_factory=dict)
    solver_residuals: dict[str, float] = field(default_factory=dict)


# measure key -> the solver's value, a function of (chain, report)
_SOLVED = {
    "t_hit": lambda chain, report: chain.mixing.t_hit,
    "t_mix": lambda chain, report: chain.mixing.t_mix,
    "t_reset": lambda chain, report: chain.mixing.t_reset,
    "h_one_zero": lambda chain, report: float(chain.hitting.values[report.graph.n - 1, 0]),
    "access_left": lambda chain, report: float(chain.pi_rules.from_target[0]),
    "access_right": lambda chain, report: float(chain.pi_rules.from_target[report.params[0]]),
    "access_zero": lambda chain, report: float(chain.pi_rules.from_target[0]),
}


def compare_with_pipeline(report: OracleReport) -> dict[str, float]:
    """Residuals of every closed form against the generic solver."""
    chain = pipeline.analyze(report.graph)
    residuals: dict[str, float] = {}
    if report.hitting is not None:
        residuals["hitting"] = tolerance.gap(report.hitting, chain.hitting.values)
    if report.greens is not None:
        residuals["greens"] = tolerance.gap(report.greens, chain.greens.values)
    for key, value in report.measures.items():
        residuals[key] = abs(value - _SOLVED[key](chain, report))
    return residuals


def _verify(report: OracleReport) -> OracleReport:
    residuals = compare_with_pipeline(report)
    T = tolerance.time_scale(report.hitting if report.hitting is not None else 0.0, list(report.measures.values()))
    for key, value in residuals.items():
        require(f"oracle_{key}", value, tolerance.bound(report.graph.n, T, tolerance.ROUTE))
    return replace(report, solver_residuals=residuals)


# ---------------------------------------------------------------------------
# oracles


def complete_oracle(n: int) -> OracleReport:
    """Complete graph K_n: constant off-diagonal hitting times n - 1."""
    g = complete_graph(n)
    H = float(n - 1) * (1.0 - np.eye(n))
    G = np.full((n, n), -(n - 1) / n**2)
    np.fill_diagonal(G, ((n - 1) / n) ** 2)
    measures = {
        "t_hit": (n - 1) ** 2 / n,
        "t_mix": (n - 1) / n,
        "t_reset": (n - 1) / n,
    }
    report = OracleReport("complete", (n,), g, H, G, measures, {})
    return _verify(report)


def bipartite_oracle(r: int, s: int) -> OracleReport:
    """Complete bipartite graph K_{r,s}; r = 1 specializes to the star."""
    g = complete_bipartite(r, s)
    n = r + s
    H = np.zeros((n, n))
    H[:r, :r] = 2.0 * r
    H[r:, r:] = 2.0 * s
    H[:r, r:] = 2.0 * s - 1.0
    H[r:, :r] = 2.0 * r - 1.0
    np.fill_diagonal(H, 0.0)
    G = np.zeros((n, n))
    G[:r, :r] = -3.0 / (4.0 * r)
    G[r:, r:] = -3.0 / (4.0 * s)
    G[:r, r:] = -1.0 / (4.0 * s)
    G[r:, :r] = -1.0 / (4.0 * r)
    G[np.arange(r), np.arange(r)] = 1.0 - 3.0 / (4.0 * r)
    G[np.arange(r, n), np.arange(r, n)] = 1.0 - 3.0 / (4.0 * s)
    mix_left = 1.5 if r >= 2 else 0.5
    mix_right = 1.5 if s >= 2 else 0.5
    measures = {
        "t_hit": r + s - 1.5,
        "t_mix": max(mix_left, mix_right),
        "t_reset": (mix_left + mix_right) / 2.0,
        "access_left": 2.0 * r - 1.5,
        "access_right": 2.0 * s - 1.5,
    }
    details: dict[str, object] = {"star": r == 1}
    report = OracleReport("bipartite", (r, s), g, H, G, measures, details)
    return _verify(report)


def path_oracle(n: int) -> OracleReport:
    """Path on n vertices.

    The upper triangle (in 1-based labels, i <= j) is
    pi_j ((i-1)^2 + (n-j)^2 - T_mix) with T_mix = (2 n^2 - 4 n + 3) / 6;
    the lower triangle follows from pi_i G(i, j) = pi_j G(j, i).
    """
    g = path_graph(n)
    pi = g.degrees / g.volume
    t_mix = (2.0 * n**2 - 4.0 * n + 3.0) / 6.0
    i0 = np.arange(n)[:, None].astype(float)
    j0 = np.arange(n)[None, :].astype(float)
    upper = pi[None, :] * (i0**2 + (n - 1.0 - j0) ** 2 - t_mix)
    G = np.where(i0 <= j0, upper, pi[None, :] / pi[:, None] * upper.T)
    measures = {"t_mix": t_mix, "t_hit": float(np.trace(G))}
    report = OracleReport("path", (n,), g, None, G, measures, {})
    return _verify(report)


def cycle_oracle(n: int) -> OracleReport:
    """Cycle C_n, with both the polynomial and the trigonometric forms.

    H(0, j) = j (n - j) and G(0, j) = ((n^2 - 1)/6 - j (n - j)) / n; the
    trigonometric route sums cos(2 pi k j / n) / (1 - cos(2 pi k / n)).
    """
    g = cycle_graph(n)
    j = np.arange(n, dtype=float)
    row_H = j * (n - j)
    access_zero = (n * n - 1.0) / 6.0
    poly = (access_zero - row_H) / n
    k = np.arange(1, n, dtype=float)
    trig = np.cos(2.0 * np.pi * np.outer(j, k) / n) @ (1.0 / (1.0 - np.cos(2.0 * np.pi * k / n))) / n
    gap = tolerance.gap(poly, trig)
    require("cycle_poly_vs_trig", gap, tolerance.bound(n, tolerance.time_scale(row_H), tolerance.ROUTE))
    shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    H = row_H[shift]
    G = poly[shift]
    t_mix = (n * n + 2.0) / 12.0 if n % 2 == 0 else (n * n - 1.0) / 12.0
    measures = {
        "t_hit": access_zero,
        "t_mix": t_mix,
        "t_reset": t_mix,
        "access_zero": access_zero,
    }
    details: dict[str, object] = {"poly_vs_trig": gap, "trig_row": trig.tolist()}
    report = OracleReport("cycle", (n,), g, H, G, measures, details)
    return _verify(report)


def _tree_structure(tree: WeightedDigraph, root: int):
    # BFS parents from root; weighted adjacency straight from the arcs
    parent = np.full(tree.n, -1, dtype=int)
    order = [root]
    seen = {root}
    adjacent = tree.weights > 0
    for v in order:  # order grows as the queue
        for u in np.flatnonzero(adjacent[v]).tolist():
            if u not in seen:
                seen.add(u)
                parent[u] = v
                order.append(u)
    return parent, order


def tree_hitting_times(tree: WeightedDigraph) -> np.ndarray:
    """All pairwise hitting times of a weighted tree, computed combinatorially.

    Crossing an edge (u, v) from u's side takes the degree volume of u's
    side divided by the edge weight; pairwise times add crossings along the
    unique path. No linear algebra is involved. Rooted at 0, with below(v)
    the degree volume of v's subtree, two passes over the edges (v, p), p
    the parent of v, fill H a column at a time. Upward, in reverse BFS
    order, H(s, p) = H(s, v) + below(v) / w(v, p) for every s in v's
    subtree; downward, in BFS order, H(s, v) = H(s, p) + (vol - below(v)) /
    w(v, p) for every other s. Each entry gets the one addition that a
    search outward from its source would give it.
    """
    n = tree.n
    W = tree.weights
    vol = tree.volume
    parent, order = _tree_structure(tree, 0)
    below = tree.degrees.copy()
    # inside[v]: the vertices of v's subtree
    inside = np.eye(n, dtype=bool)
    for v in reversed(order[1:]):
        below[parent[v]] += below[v]
        inside[parent[v]] |= inside[v]
    H = np.zeros((n, n))
    for v in reversed(order[1:]):
        p = parent[v]
        H[inside[v], p] = H[inside[v], v] + below[v] / W[v, p]
    for v in order[1:]:
        p = parent[v]
        H[~inside[v], v] = H[~inside[v], p] + (vol - below[v]) / W[v, p]
    return H


def tree_oracle(tree: WeightedDigraph) -> OracleReport:
    """Any tree, via its two mixing-pessimal endpoints z and z'.

    With i*, j* the projections onto the (z, z') path,
    G(i, j) = pi_j ((H(z', j*) - H(j, j*)) + (H(z, i*) - H(i, i*)) - T_mix)
    whenever i* is no further from z than j* and the (i, j) path actually
    meets the (z, z') path; the other orientation follows from
    pi_i G(i, j) = pi_j G(j, i). Pairs confined to a single pendant branch
    violate the projection expansion, so they use the identity one step
    earlier, G(i, j) = pi_j ((H(z', j) - H(j, z')) + (H(z, z') - H(i, j))
    - T_mix), which holds for every pair.
    """
    n = tree.n
    edges = {(min(i, j), max(i, j)) for i, j, w in tree.arcs if w > 0 and i != j}
    if len(edges) != n - 1 or not strongly_connected(tree) or not tree.undirected:
        raise ValidationError("input is not a connected undirected tree")
    H = tree_hitting_times(tree)
    pi = tree.degrees / tree.volume
    hpi = pi @ H
    pess = H.argmax(axis=0)
    mix = H[pess, np.arange(n)] - hpi
    t_mix = float(mix.max())
    z = int(mix.argmax())
    zp = int(pess[z])
    parent, order = _tree_structure(tree, z)
    path = [zp]
    while path[-1] != z:
        path.append(int(parent[path[-1]]))
    path.reverse()
    pos = np.full(n, -1)
    pos[path] = np.arange(len(path))
    # proj[v]: the nearest path vertex; branch[v]: the root of the pendant
    # subtree holding v, or -1 on the path
    proj = np.arange(n)
    branch = np.full(n, -1)
    for v in order[1:]:
        p = parent[v]
        if pos[v] < 0:
            proj[v] = proj[p]
            branch[v] = v if pos[p] >= 0 else branch[p]
    # pairs in one pendant subtree: their path never meets the (z, z') path
    pendant = (branch[:, None] == branch[None, :]) & (branch[:, None] >= 0)
    to_proj = H[np.arange(n), proj]
    # form[i, j]: the projection form with i* no further from z than j*
    form = pi[None, :] * (((H[zp, proj] - to_proj)[None, :] + (H[z, proj] - to_proj)[:, None]) - t_mix)
    G = np.where(pos[proj][:, None] <= pos[proj][None, :], form, pi[None, :] / pi[:, None] * form.T)
    fallback = pi[None, :] * (((H[zp] - H[:, zp])[None, :] + (H[z, zp] - H)) - t_mix)
    G = np.where(pendant, fallback, G)
    del form, fallback  # before the solver replay, which sets the memory peak
    measures = {
        "t_hit": float(pi @ (H @ pi)),
        "t_mix": t_mix,
        "t_reset": float(pi @ mix),
    }
    details: dict[str, object] = {
        "endpoints": (z, zp),
        "path": path,
        "projection_form_pairs": n * n - int(pendant.sum()),
    }
    report = OracleReport("tree", (n,), tree, H, G, measures, details)
    return _verify(report)


def hypercube_level_times(d: int) -> list[Fraction]:
    """Exact expected times to step one level toward zero on the d-cube.

    T_k solves T_k = 1 + ((d - k) / d)(T_{k+1} + T_k) and equals
    sum_{j >= k} C(d, j) / C(d-1, k-1). Rational arithmetic sidesteps the
    cancellation in the binomial sums.
    """
    times = [Fraction(0)]
    for k in range(1, d + 1):
        numer = sum(math.comb(d, j) for j in range(k, d + 1))
        times.append(Fraction(numer, math.comb(d - 1, k - 1)))
    return times


def check_hypercube_identity(d: int) -> bool:
    """Exact rational equality of the two pessimal-hitting-time forms."""
    lhs = Fraction(d, 2) * sum(Fraction(2**k, k) for k in range(1, d + 1))
    rhs = Fraction(2 ** (d - 1)) * sum(Fraction(1, math.comb(d - 1, k)) for k in range(d))
    return lhs == rhs


def hypercube_oracle(d: int) -> OracleReport:
    """The d-dimensional hypercube on 2^d binary labels.

    All closed forms are evaluated exactly in rationals for d <= 14. Full
    matrices and the solver comparison are limited to d <= 10, where the
    dense realization is still comfortable.
    """
    if not 1 <= d <= 14:
        raise ValidationError("hypercube oracle supports 1 <= d <= 14")
    g = hypercube_graph(d)
    n = 1 << d
    times = hypercube_level_times(d)
    # partial sums: expected steps to vertex 0 from each level, starting at 0
    levels = np.cumsum([float(t) for t in times])
    t_hit = Fraction(d, 2) * sum(Fraction(math.comb(d, k), k) for k in range(1, d + 1))
    h_one_zero = Fraction(2 ** (d - 1)) * sum(Fraction(1, math.comb(d - 1, k)) for k in range(d))
    t_mix = Fraction(d, 2) * sum(Fraction(1, k) for k in range(1, d + 1))
    exact_levels = sum(times[1:], start=Fraction(0))
    if exact_levels != h_one_zero or not check_hypercube_identity(d) or h_one_zero - t_hit != t_mix:
        raise IntegrityError("hypercube closed forms are mutually inconsistent")
    hitting = greens = None
    if d <= 10:
        popcount = np.array([bin(v).count("1") for v in range(n)])
        dist = popcount[np.bitwise_xor.outer(np.arange(n), np.arange(n))]
        hitting = levels[dist]
        greens = (float(t_hit) - hitting) / n
    measures = {
        "t_hit": float(t_hit),
        "t_mix": float(t_mix),
        "t_reset": float(t_mix),
        "h_one_zero": float(h_one_zero),
    }
    details: dict[str, object] = {
        "level_times": [float(t) for t in times[1:]],
        "identity_exact": True,
    }
    report = OracleReport("hypercube", (d,), g, hitting, greens, measures, details)
    return _verify(report) if d <= 10 else report


def toric_oracle(dims: tuple[int, ...]) -> OracleReport:
    """Cartesian product of cycles C_{n_1} x ... x C_{n_d}.

    Eigenvalues come from per-axis cosines and Green's row zero from the
    cosine sums. The zero-pessimal vertex is found numerically and checked
    against the halfway-point reading (ceil(n_t / 2) per coordinate).
    """
    dims = tuple(int(m) for m in dims)
    if not dims or any(m < 3 for m in dims):
        raise ValidationError("toric grid needs every cycle length >= 3")
    n = math.prod(dims)
    if n > 4096:
        raise ValidationError("toric grid limited to 4096 vertices")
    g = toric_grid_graph(dims)
    d = len(dims)
    coords = np.stack(
        np.meshgrid(*[np.arange(m) for m in dims], indexing="ij"), axis=-1
    ).reshape(n, d)
    scaled = coords / np.asarray(dims, dtype=float)[None, :]
    lam = 1.0 - np.cos(2.0 * np.pi * scaled).mean(axis=1)
    inv = 1.0 / lam[1:]
    row_G = np.empty(n)
    for start in range(0, n, 512):
        block = coords[start : start + 512]
        phase = 2.0 * np.pi * (scaled[1:] @ block.T)
        row_G[start : start + 512] = inv @ np.cos(phase) / n
    row_H = n * (row_G[0] - row_G)
    t_hit = float(inv.sum())
    pess = int(row_H.argmax())
    halfway = tuple((m + 1) // 2 for m in dims)
    halfway_flat = int(np.ravel_multi_index(halfway, dims))
    tie = tolerance.bound(n, tolerance.time_scale(row_H), tolerance.ROUTE)
    halfway_matches = bool(row_H[halfway_flat] >= row_H[pess] - tie)
    t_mix = float(row_H[pess] - t_hit)
    hitting = greens = None
    if n <= 1024:
        diff = (coords[None, :, :] - coords[:, None, :]) % np.asarray(dims)[None, None, :]
        idx = np.ravel_multi_index(np.moveaxis(diff, -1, 0), dims)
        hitting = row_H[idx]
        greens = row_G[idx]
    measures = {"t_hit": t_hit, "t_mix": t_mix, "t_reset": t_mix}
    details: dict[str, object] = {
        "eigenvalues": np.sort(lam).tolist(),
        "greens_row": row_G.tolist(),
        "pessimal": tuple(int(c) for c in coords[pess]),
        "halfway_vertex": halfway,
        "halfway_is_pessimal": halfway_matches,
    }
    report = OracleReport("toric", dims, g, hitting, greens, measures, details)
    return _verify(report) if n <= 1024 else report
