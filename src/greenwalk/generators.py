"""Seeded random graphs for tests and experiments."""

from __future__ import annotations

import numpy as np

from .graph import WeightedDigraph


def _weight(rng, weighted: bool) -> float:
    return float(rng.uniform(0.5, 1.5)) if weighted else 1.0


def random_strongly_connected_digraph(
    n: int, seed: int, extra: float = 0.25, weighted: bool = True
) -> WeightedDigraph:
    """A random permutation cycle plus extra arcs; strongly connected by construction.

    The cycle arcs come first, then the extra arcs in row-major order, each
    weight drawn in that order.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    cycle_w = rng.uniform(0.5, 1.5, size=n) if weighted else np.ones(n)
    mask = rng.random((n, n)) < extra
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    extra_w = rng.uniform(0.5, 1.5, size=src.size) if weighted else np.ones(src.size)
    return WeightedDigraph.from_columns(
        n,
        np.concatenate([order, src]),
        np.concatenate([np.roll(order, -1), dst]),
        np.concatenate([cycle_w, extra_w]),
    )


def _attachment_tree(n: int, rng, weighted: bool) -> list[tuple[int, int, float]]:
    """A random attachment tree: each v > 0 joins a uniform earlier vertex, in order; one vertex gets a self-loop."""
    arcs = []
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        arcs.append((parent, v, _weight(rng, weighted)))
    if n == 1:
        arcs.append((0, 0, 1.0))
    return arcs


def random_tree(n: int, seed: int, weighted: bool = False) -> WeightedDigraph:
    """A uniform random attachment tree on n vertices."""
    arcs = _attachment_tree(n, np.random.default_rng(seed), weighted)
    return WeightedDigraph(n, tuple(arcs), undirected=True)


def random_connected_graph(
    n: int, seed: int, extra: float = 0.15, weighted: bool = False
) -> WeightedDigraph:
    """A random spanning tree plus extra undirected edges."""
    rng = np.random.default_rng(seed)
    arcs = _attachment_tree(n, rng, weighted)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra:
                arcs.append((i, j, _weight(rng, weighted)))
    return WeightedDigraph(n, tuple(arcs), undirected=True)


# wide-weight shapes: every weight 10^U(-decades, decades), so the weights span up to 10^(2 decades)


def wide_cycle_digraph(n: int, seed: int, decades: float) -> WeightedDigraph:
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0, then 3n arcs with uniform endpoints (self-loops and
    parallel arcs kept as they fall); every arc weighted 10^U(-decades, decades)."""
    rng = np.random.default_rng(seed)
    ring = np.arange(n)
    src = np.concatenate([ring, rng.integers(0, n, 3 * n)])
    dst = np.concatenate([(ring + 1) % n, rng.integers(0, n, 3 * n)])
    return WeightedDigraph.from_columns(n, src, dst, 10.0 ** rng.uniform(-decades, decades, 4 * n))


def wide_holding_cycle(n: int, seed: int, decades: float) -> WeightedDigraph:
    """At each vertex k in turn, an arc k -> k + 1 (mod n) of weight 1, then a self-loop of weight 10^U(-decades, decades)."""
    loops = 10.0 ** np.random.default_rng(seed).uniform(-decades, decades, n)
    ring = np.arange(n)
    src = np.repeat(ring, 2)
    dst = np.column_stack([(ring + 1) % n, ring]).ravel()
    return WeightedDigraph.from_columns(n, src, dst, np.column_stack([np.ones(n), loops]).ravel())


def wide_path_graph(n: int, seed: int, decades: float) -> WeightedDigraph:
    """The undirected path 0 - 1 - ... - n-1, then 3n edges with uniform endpoints (self-loops and parallel
    edges kept as they fall); every edge weighted 10^U(-decades, decades)."""
    rng = np.random.default_rng(seed)
    src = np.concatenate([np.arange(n - 1), rng.integers(0, n, 3 * n)])
    dst = np.concatenate([np.arange(1, n), rng.integers(0, n, 3 * n)])
    w = 10.0 ** rng.uniform(-decades, decades, n - 1 + 3 * n)
    return WeightedDigraph.from_columns(n, src, dst, w, undirected=True)
