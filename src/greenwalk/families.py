"""Closed-form reference values for named graph families.

Each oracle realizes its family as a concrete graph, evaluates the known
closed forms, and (by default) replays the graph through the generic
solver to confirm entrywise agreement. The oracles are deliberately
independent of the solver: combinatorial or trigonometric routes only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import pipeline
from .errors import IntegrityError, ValidationError
from .graph import WeightedDigraph, strongly_connected
from .hitting import time_scale

ORACLE_TOL = 1e-8


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


def star_graph(leaves: int) -> WeightedDigraph:
    return complete_bipartite(1, leaves)


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
    arcs = []
    for flat in range(n):
        coords = list(np.unravel_index(flat, dims))
        for axis, m in enumerate(dims):
            nxt = coords.copy()
            nxt[axis] = (nxt[axis] + 1) % m
            arcs.append((flat, int(np.ravel_multi_index(nxt, dims)), 1.0))
    return WeightedDigraph(n, tuple(arcs), undirected=True)


# ---------------------------------------------------------------------------
# reports and verification against the generic solver


@dataclass(frozen=True)
class OracleReport:
    """Closed-form values for one family instance, plus the realized graph."""

    family: str
    params: tuple
    graph: WeightedDigraph
    hitting: np.ndarray | None
    greens: np.ndarray | None
    measures: dict[str, float]
    details: dict[str, object] = field(default_factory=dict)


def compare_with_pipeline(report: OracleReport) -> dict[str, float]:
    """Residuals of every closed form against the generic solver."""
    sol = pipeline.analyze(report.graph)
    residuals: dict[str, float] = {}
    if report.hitting is not None:
        residuals["hitting"] = float(np.abs(report.hitting - sol.hitting.values).max())
    if report.greens is not None:
        residuals["greens"] = float(np.abs(report.greens - sol.greens.values).max())
    rep = sol.mixing
    hpi = sol.stationary.probs @ sol.hitting.values
    solved = {
        "t_hit": rep.t_hit,
        "t_mix": rep.t_mix,
        "t_reset": rep.t_reset,
        "h_one_zero": float(sol.hitting.values[report.graph.n - 1, 0]),
        "access_left": float(hpi[0]),
        "access_right": float(hpi[report.params[0]]) if report.family == "bipartite" else None,
        "access_zero": float(hpi[0]),
    }
    for key, value in report.measures.items():
        other = solved.get(key)
        if other is not None:
            residuals[key] = abs(value - other)
    return residuals


def _verify(report: OracleReport) -> OracleReport:
    residuals = compare_with_pipeline(report)
    scale = time_scale(
        report.hitting if report.hitting is not None else 0.0,
        list(report.measures.values()),
    )
    worst = max(residuals.values())
    if worst > ORACLE_TOL * scale:
        bad = max(residuals, key=residuals.get)
        raise IntegrityError(
            f"{report.family}{report.params} oracle disagrees with the solver on "
            f"{bad} by {residuals[bad]:.3e}",
            residual=worst,
        )
    report.details["solver_residuals"] = residuals
    return report


# ---------------------------------------------------------------------------
# oracles


def complete_oracle(n: int, verify: bool = True) -> OracleReport:
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
    return _verify(report) if verify else report


def bipartite_oracle(r: int, s: int, verify: bool = True) -> OracleReport:
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
    return _verify(report) if verify else report


def path_oracle(n: int, verify: bool = True) -> OracleReport:
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
    return _verify(report) if verify else report


def cycle_oracle(n: int, verify: bool = True) -> OracleReport:
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
    gap = float(np.abs(poly - trig).max())
    if gap > ORACLE_TOL * time_scale(row_H):
        raise IntegrityError(f"cycle polynomial and trigonometric forms differ by {gap:.3e}", residual=gap)
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
    return _verify(report) if verify else report


def _tree_structure(tree: WeightedDigraph, root: int):
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


def tree_hitting_times(tree: WeightedDigraph) -> np.ndarray:
    """All pairwise hitting times of a weighted tree, computed combinatorially.

    Crossing an edge (u, v) from u's side takes the degree volume of u's
    side divided by the edge weight; pairwise times add crossings along the
    unique path. No linear algebra is involved.
    """
    n = tree.n
    W = tree.weights
    vol = tree.volume
    neighbors, parent, order = _tree_structure(tree, 0)
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


def tree_oracle(tree: WeightedDigraph, verify: bool = True) -> OracleReport:
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
    _, parent, order = _tree_structure(tree, z)
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
    measures = {
        "t_hit": float(pi @ (H @ pi)),
        "t_mix": t_mix,
        "t_reset": float(pi @ mix),
    }
    details: dict[str, object] = {
        "endpoints": (z, zp),
        "path": path,
        "projection_form_pairs": projected_pairs,
    }
    report = OracleReport("tree", (n,), tree, H, G, measures, details)
    return _verify(report) if verify else report


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


def hypercube_oracle(d: int, verify: bool = True) -> OracleReport:
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
    if verify and d <= 10:
        return _verify(report)
    return report


def toric_oracle(dims: tuple[int, ...], verify: bool = True) -> OracleReport:
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
    scale = time_scale(row_H)
    halfway_matches = bool(row_H[halfway_flat] >= row_H[pess] - ORACLE_TOL * scale)
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
    if verify and n <= 1024:
        return _verify(report)
    return report
