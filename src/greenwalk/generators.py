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
