"""Weighted digraphs, random-walk transition matrices, and stationary distributions."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components

from .errors import NumericalError, ParseError, ValidationError

ROW_SUM_TOL = 1e-12
DISTRIBUTION_TOL = 1e-12
STATIONARY_TOL = 1e-10


@dataclass(frozen=True)
class WeightedDigraph:
    """A weighted directed graph on vertices 0..n-1.

    Arcs are (source, target, weight) triples; parallel arcs accumulate
    weight. When ``undirected`` is set every arc is stored in both
    directions with equal weight, so callers should list each undirected
    edge once.
    """

    n: int
    arcs: tuple[tuple[int, int, float], ...]
    undirected: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("graph needs at least one vertex")
        cleaned = []
        for arc in self.arcs:
            i, j, w = int(arc[0]), int(arc[1]), float(arc[2])
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValidationError(f"arc ({i}, {j}) out of range for n={self.n}")
            if not math.isfinite(w):
                raise ValidationError(f"arc ({i}, {j}) has non-finite weight")
            if w < 0:
                raise ValidationError(f"arc ({i}, {j}) has negative weight {w}")
            cleaned.append((i, j, w))
            if self.undirected and i != j:
                cleaned.append((j, i, w))
        object.__setattr__(self, "arcs", tuple(cleaned))

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sources, targets and weights of the arcs, in arc order."""
        table = np.array(self.arcs, dtype=float).reshape(len(self.arcs), 3)
        return table[:, 0].astype(np.intp), table[:, 1].astype(np.intp), table[:, 2]

    @cached_property
    def degrees(self) -> np.ndarray:
        """Out-degrees deg(k), the total weight leaving each vertex."""
        src, _, w = self._columns
        deg = np.zeros(self.n)
        # unbuffered and in arc order, so parallel arcs add up exactly as a loop would;
        # a pairwise weights.sum(axis=1) would round differently
        np.add.at(deg, src, w)
        deg.setflags(write=False)
        return deg

    @property
    def volume(self) -> float:
        """vol(G), the sum of all degrees."""
        return float(self.degrees.sum())

    @cached_property
    def weights(self) -> np.ndarray:
        # dense n x n matrix, materialized lazily so large arc lists stay cheap
        src, dst, w = self._columns
        W = np.zeros((self.n, self.n))
        np.add.at(W, (src, dst), w)
        W.setflags(write=False)
        return W


def validate_out_degrees(g: WeightedDigraph) -> None:
    """Raise unless every vertex has positive outgoing weight."""
    bad = np.flatnonzero(g.degrees <= 0.0)
    if bad.size:
        raise ValidationError(f"vertex {int(bad[0])} has zero outgoing weight")


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic walk matrix, optionally blended with laziness beta.

    P = beta * I + (1 - beta) * P0 where P0 row-normalizes the weights.
    ``graph`` keeps the source digraph when the chain came from one.
    """

    probs: np.ndarray
    beta: float = 0.0
    graph: WeightedDigraph | None = None

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValidationError("transition matrix must be square")
        if probs.size and probs.min() < 0:
            raise ValidationError("transition probabilities must be nonnegative")
        residual = float(np.abs(probs.sum(axis=1) - 1.0).max())
        if residual > ROW_SUM_TOL:
            raise ValidationError(f"rows must sum to 1, worst residual {residual:.3e}")
        if not 0.0 <= self.beta < 1.0:
            raise ValidationError("laziness beta must lie in [0, 1)")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def laplacian(self) -> np.ndarray:
        """I - P, the walk's Laplace operator."""
        return np.eye(self.n) - self.probs


@dataclass(frozen=True)
class Distribution:
    """A probability vector over the vertices."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("distribution must be a nonempty vector")
        if p.min() < -DISTRIBUTION_TOL:
            raise ValidationError(f"negative probability {p.min():.3e}")
        p = np.maximum(p, 0.0)
        total = float(p.sum())
        if abs(total - 1.0) > DISTRIBUTION_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.probs.size

    def __getitem__(self, k) -> float:
        return float(self.probs[k])

    @classmethod
    def point_mass(cls, n: int, k: int) -> "Distribution":
        p = np.zeros(n)
        p[k] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls(np.full(n, 1.0 / n))


def parse_graph(text: str, fmt: str = "edgelist") -> WeightedDigraph:
    """Parse a graph from edge-list or JSON text.

    Edge list: one ``src dst [weight]`` arc per line (weight defaults to 1),
    ``#`` comment lines, and a ``# undirected`` header switching on
    symmetrization; the vertex count is the largest index plus one. JSON:
    ``{"n": int, "undirected": bool, "arcs": [[src, dst, weight], ...]}``.
    """
    key = fmt.replace("-", "").replace("_", "").lower()
    if key in ("edgelist", "edges"):
        g = _parse_edge_list(text)
    elif key == "json":
        g = _parse_json(text)
    else:
        raise ParseError(f"unknown graph format {fmt!r}")
    validate_out_degrees(g)
    return g


def _parse_edge_list(text: str) -> WeightedDigraph:
    arcs = []
    undirected = False
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            if line[1:].strip().lower() == "undirected":
                undirected = True
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'src dst [weight]', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric entry in {raw!r}") from None
        if i < 0 or j < 0:
            raise ParseError(f"line {lineno}: vertex index out of range")
        if not math.isfinite(w):
            raise ParseError(f"line {lineno}: non-finite weight")
        if w < 0:
            raise ParseError(f"line {lineno}: negative weight {w:g}")
        arcs.append((i, j, w))
        top = max(top, i, j)
    if not arcs:
        raise ParseError("no arcs found")
    return WeightedDigraph(top + 1, tuple(arcs), undirected=undirected)


def _parse_json(text: str) -> WeightedDigraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    try:
        n = int(data["n"])
    except (KeyError, TypeError, ValueError):
        raise ParseError("JSON graph needs an integer field 'n'") from None
    raw_arcs = data.get("arcs")
    if not isinstance(raw_arcs, list):
        raise ParseError("JSON graph needs a list field 'arcs'")
    arcs = []
    for k, arc in enumerate(raw_arcs):
        if not isinstance(arc, (list, tuple)) or len(arc) not in (2, 3):
            raise ParseError(f"arc #{k}: expected [src, dst] or [src, dst, weight]")
        try:
            i, j = int(arc[0]), int(arc[1])
            w = float(arc[2]) if len(arc) == 3 else 1.0
        except (TypeError, ValueError):
            raise ParseError(f"arc #{k}: non-numeric entry") from None
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"arc #{k}: vertex index out of range")
        if w < 0:
            raise ParseError(f"arc #{k}: negative weight {w:g}")
        arcs.append((i, j, w))
    return WeightedDigraph(n, tuple(arcs), undirected=bool(data.get("undirected", False)))


def load_graph(path: str, fmt: str | None = None) -> WeightedDigraph:
    """Read a graph file, or standard input for ``-``.

    The format is JSON for a ``.json`` suffix and an edge list otherwise,
    unless ``fmt`` names it.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    if fmt is None:
        fmt = "json" if str(path).lower().endswith(".json") else "edgelist"
    return parse_graph(text, fmt)


def transition_matrix(g: WeightedDigraph, beta: float = 0.0) -> TransitionMatrix:
    """Row-normalize the arc weights into a walk matrix, optionally lazified.

    The lazy blend keeps the stationary distribution unchanged and breaks
    periodicity, which matters mainly for simulation.
    """
    validate_out_degrees(g)
    if not 0.0 <= beta < 1.0:
        raise ValidationError("laziness beta must lie in [0, 1)")
    base = g.weights / g.degrees[:, None]
    probs = beta * np.eye(g.n) + (1.0 - beta) * base
    return TransitionMatrix(probs, beta=beta, graph=g)


def _arc_support(g: WeightedDigraph) -> sparse.csr_matrix:
    src, dst, w = g._columns
    positive = w > 0
    data = np.ones(int(positive.sum()))
    return sparse.coo_matrix((data, (src[positive], dst[positive])), shape=(g.n, g.n)).tocsr()


def strongly_connected(g: WeightedDigraph) -> bool:
    """True when every vertex reaches every other through positive-weight arcs."""
    ncomp = connected_components(_arc_support(g), directed=True, connection="strong")[0]
    return int(ncomp) == 1


def stationary_distribution(P: TransitionMatrix) -> Distribution:
    """Left fixed vector of P.

    Undirected source graphs use the closed form deg/vol. Directed chains
    solve (P^T - I) x = 0 with one equation replaced by the normalization
    sum(x) = 1, using a dense LU factorization.
    """
    g = P.graph
    if g is not None and g.undirected:
        if not strongly_connected(g):
            raise ValidationError("not strongly connected")
        return Distribution(g.degrees / g.volume)
    support = sparse.csr_matrix(P.probs > 0)
    if int(connected_components(support, directed=True, connection="strong")[0]) != 1:
        raise ValidationError("not strongly connected")
    n = P.n
    M = P.probs.T - np.eye(n)
    # any single equation is redundant for an irreducible chain
    M[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        x = scipy.linalg.solve(M, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"stationary solve failed: {exc}") from None
    if x.min() <= 0:
        raise NumericalError("solved stationary vector is not strictly positive")
    x = x / x.sum()
    residual = float(np.abs(x @ P.probs - x).max())
    if residual > STATIONARY_TOL:
        raise NumericalError(f"stationary residual {residual:.3e} exceeds {STATIONARY_TOL:g}")
    return Distribution(x)
