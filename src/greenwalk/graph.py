"""Weighted digraphs, random-walk transition matrices, and stationary distributions."""

from __future__ import annotations

import json
import math
import re
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerance
from .errors import NumericalError, ParseError, ValidationError, require


def _index_column(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        # an index beyond int64 is kept exact, so it is reported (or rejected
        # later, when n-sized arrays are built) as it was given
        return np.array(values, dtype=object)


class WeightedDigraph:
    """A weighted directed graph on vertices 0..n-1.

    Arcs are stored as read-only columns ``src``, ``dst`` and ``w`` in arc
    order; parallel arcs accumulate weight. When ``undirected`` is set every
    arc is followed by its mirror with equal weight (a self-loop is stored
    once), so callers should list each undirected edge once. Instances are
    immutable.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    undirected: bool

    def __init__(self, n: int, arcs=(), undirected: bool = False):
        """A graph from an iterable of (source, target, weight) triples."""
        columns = tuple(zip(*arcs)) or ((), (), ())
        self._store(n, columns[0], columns[1], columns[2], undirected)

    @classmethod
    def from_columns(cls, n: int, src, dst, w, undirected: bool = False) -> "WeightedDigraph":
        """A graph from arc columns, with no per-arc Python objects."""
        g = cls.__new__(cls)
        g._store(n, src, dst, w, undirected)
        return g

    def _store(self, n, src, dst, w, undirected) -> None:
        if n < 1:
            raise ValidationError("graph needs at least one vertex")
        src, dst = _index_column((src, dst))  # one dtype, so mirroring can swap them
        w = np.array(w, dtype=float)
        # the first bad arc in arc order, checked for range, then finiteness, then sign
        out_of_range = np.asarray((src < 0) | (src >= n) | (dst < 0) | (dst >= n), dtype=bool)
        non_finite = ~np.isfinite(w)
        bad = out_of_range | non_finite | (w < 0)
        if bad.any():
            k = int(np.argmax(bad))
            i, j = int(src[k]), int(dst[k])
            if out_of_range[k]:
                raise ValidationError(f"arc ({i}, {j}) out of range for n={n}")
            if non_finite[k]:
                raise ValidationError(f"arc ({i}, {j}) has non-finite weight")
            raise ValidationError(f"arc ({i}, {j}) has negative weight {float(w[k])}")
        if undirected:
            # each arc, then its mirror: parallel arcs then accumulate in the
            # order of the edge list, as listing both directions would
            copies = np.where(src != dst, 2, 1)
            mirror = np.cumsum(copies)[copies == 2] - 1
            src, dst, w = np.repeat(src, copies), np.repeat(dst, copies), np.repeat(w, copies)
            src[mirror], dst[mirror] = dst[mirror - 1], src[mirror - 1]
        for column in (src, dst, w):
            column.setflags(write=False)
        self.__dict__.update(n=n, src=src, dst=dst, w=w, undirected=bool(undirected))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        return f"WeightedDigraph(n={self.n}, arcs={len(self.w)}, undirected={self.undirected})"

    @cached_property
    def arcs(self) -> tuple[tuple[int, int, float], ...]:
        """(source, target, weight) triples in arc order, as Python scalars."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.w.tolist()))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Out-degrees deg(k), the total weight leaving each vertex."""
        deg = np.zeros(self.n)
        # unbuffered and in arc order, so parallel arcs add up exactly as a loop would;
        # a pairwise weights.sum(axis=1) would round differently
        np.add.at(deg, self.src, self.w)
        deg.setflags(write=False)
        return deg

    @property
    def volume(self) -> float:
        """vol(G), the sum of all degrees."""
        return float(self.degrees.sum())

    @cached_property
    def weights(self) -> np.ndarray:
        # dense n x n matrix, materialized lazily so large arc lists stay cheap
        W = np.zeros((self.n, self.n))
        np.add.at(W, (self.src, self.dst), self.w)
        W.setflags(write=False)
        return W


def validate_out_degrees(g: WeightedDigraph) -> None:
    """Raise unless every vertex has positive outgoing weight."""
    if g.n > len(g.w):
        # some vertex has no out-arc, and n may be far too large to allocate
        # degrees: the first vertex missing from the sorted sources is it
        sources = np.unique(g.src[g.w > 0])
        bad = np.flatnonzero(sources != np.arange(len(sources)))
        raise ValidationError(f"vertex {int(bad[0]) if bad.size else len(sources)} has zero outgoing weight")
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
        if not 0.0 <= self.beta < 1.0:
            raise ValidationError("laziness beta must lie in [0, 1)")
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValidationError("transition matrix must be square")
        if not np.isfinite(probs).all():
            raise ValidationError("transition probabilities must be finite")
        if probs.size and probs.min() < 0:
            raise ValidationError("transition probabilities must be nonnegative")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if self.row_sum > tolerance.bound(self.n, 1.0, tolerance.RESIDUAL):
            raise ValidationError(f"rows must sum to 1, worst residual {self.row_sum:.3e}")

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @cached_property
    def row_sum(self) -> float:
        """max_i |sum_j P(i, j) - 1|, the drift from row-stochastic."""
        return float(np.abs(self.probs.sum(axis=1) - 1.0).max())


@dataclass(frozen=True)
class Distribution:
    """A probability vector over the vertices."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("distribution must be a nonempty vector")
        if not np.isfinite(p).all():
            raise ValidationError("probabilities must be finite")
        limit = tolerance.bound(p.size, 1.0, tolerance.RESIDUAL)
        if p.min() < -limit:
            raise ValidationError(f"negative probability {p.min():.3e}")
        p = np.maximum(p, 0.0)
        total = float(p.sum())
        if abs(total - 1.0) > limit:
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
    ``#`` comment lines (a ``#`` after an arc is an error), and a
    ``# undirected`` header switching on symmetrization; the vertex count
    is the largest index plus one. JSON: ``{"n": int, "undirected": bool,
    "arcs": [[src, dst, weight], ...]}`` with JSON integers for ``n`` and
    the indices (a float with no fraction counts as one).
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


# The only bytes the C reader sees: printable ASCII, tabs and line breaks.
# Texts with anything else (non-ASCII digits, form feeds, Unicode line
# breaks) go to the line loop, which splits and converts as str and int do.
_PLAIN = bytes([9, 10, 13, *range(32, 127)])
_ARC_LINE = re.compile(r"^[ \t]*[^ \t\n].*$", re.M)
_ARC_DTYPES = {
    2: np.dtype([("i", np.int64), ("j", np.int64)]),
    3: np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)]),
}


def _parse_edge_list(text: str) -> WeightedDigraph:
    columns = _read_arc_columns(text)
    if columns is None:
        return _parse_edge_list_lines(text)
    n, src, dst, w, undirected = columns
    return WeightedDigraph.from_columns(n, src, dst, w, undirected=undirected)


def _read_arc_columns(text: str):
    """(n, src, dst, w, undirected) read by numpy's C reader, or None.

    None means the text needs the line loop: it has an error to locate, or
    a spelling only Python's int and float accept (``1_0``). A text read
    here gives the arcs the line loop would: both parsers round decimals
    correctly, and the reader rejects every token int and float reject.
    """
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # cut out the comment lines, keeping their line breaks; a "#" inside an
    # arc line is an error (or an inline comment), which the line loop reports
    undirected = False
    pieces = []
    end = 0
    hash_at = text.find("#")
    while hash_at >= 0:
        start = text.rfind("\n", 0, hash_at) + 1
        if text[start:hash_at].strip(" \t"):
            return None
        pieces.append(text[end:start])
        end = text.find("\n", hash_at)
        end = len(text) if end < 0 else end
        undirected = undirected or text[hash_at + 1 : end].strip().lower() == "undirected"
        hash_at = text.find("#", end)
    body = "".join(pieces) + text[end:] if pieces else text
    first = _ARC_LINE.search(body)
    dtype = _ARC_DTYPES.get(len(first.group().split())) if first else None
    if dtype is None:
        return None
    try:
        with warnings.catch_warnings():
            # numpy 1.23 up to the deprecation's expiry reads "1.7" in an
            # integer field as 1 with only this warning; int() rejects it
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(_lines(body), dtype=dtype, comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    src, dst = table["i"], table["j"]
    w = table["w"] if "w" in dtype.names else np.ones(len(table))
    if (src < 0).any() or (dst < 0).any() or not np.isfinite(w).all() or (w < 0).any():
        return None
    return int(max(src.max(), dst.max())) + 1, src, dst, w, undirected


# Characters of arc text split into lines at a time. Splitting all of it at
# once holds a list of every line: on a 53 MB file of 2.0 million arcs,
# load_graph's traced peak is 320 MB that way and 163 MB block-wise, in the
# same time (scripts/parse_sweep.py, n = 2000).
_LINE_BLOCK = 1 << 20


def _lines(text: str):
    """The lines of text, split a block at a time so that no list holds them all.

    numpy's reader takes a text only as a file path or as an iterable of
    lines; a StringIO is iterated line by line too, after copying the text
    into a buffer of four bytes per character.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _LINE_BLOCK) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _parse_edge_list_lines(text: str) -> WeightedDigraph:
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
    return WeightedDigraph(top + 1, arcs, undirected=undirected)


def _json_integer(value):
    """A JSON integer (an int, or a float with no fraction) as an int; None for anything else."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    return None


def _parse_json(text: str) -> WeightedDigraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    n = _json_integer(data.get("n"))
    if n is None:
        raise ParseError("JSON graph needs an integer field 'n'")
    undirected = data.get("undirected", False)
    if type(undirected) is not bool:
        raise ParseError("JSON field 'undirected' must be true or false")
    raw_arcs = data.get("arcs")
    if not isinstance(raw_arcs, list):
        raise ParseError("JSON graph needs a list field 'arcs'")
    src, dst, w = [], [], []
    for k, arc in enumerate(raw_arcs):
        if not isinstance(arc, list) or len(arc) not in (2, 3):
            raise ParseError(f"arc #{k}: expected [src, dst] or [src, dst, weight]")
        # JSON numbers only: true and false are not numbers, and int(1.7) would
        # silently move an arc
        if not all(type(x) is int or type(x) is float for x in arc):
            raise ParseError(f"arc #{k}: non-numeric entry")
        i, j = _json_integer(arc[0]), _json_integer(arc[1])
        if i is None or j is None:
            raise ParseError(f"arc #{k}: vertex index is not an integer")
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"arc #{k}: vertex index out of range")
        try:
            weight = float(arc[2]) if len(arc) == 3 else 1.0
        except OverflowError:
            raise ParseError(f"arc #{k}: non-finite weight") from None
        if weight < 0:
            raise ParseError(f"arc #{k}: negative weight {weight:g}")
        src.append(i)
        dst.append(j)
        w.append(weight)
    return WeightedDigraph.from_columns(n, src, dst, w, undirected=undirected)


def read_text(path: str) -> str:
    """The UTF-8 text of a file; a file that cannot be opened or decoded is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def load_graph(path: str, fmt: str | None = None) -> WeightedDigraph:
    """Read a graph file, or standard input for ``-``.

    The format is JSON for a ``.json`` suffix and an edge list otherwise,
    unless ``fmt`` names it.
    """
    text = sys.stdin.read() if path == "-" else read_text(path)
    if fmt is None:
        fmt = "json" if str(path).lower().endswith(".json") else "edgelist"
    return parse_graph(text, fmt)


def transition_matrix(g: WeightedDigraph, beta: float = 0.0) -> TransitionMatrix:
    """Row-normalize the arc weights into a walk matrix, optionally lazified.

    The lazy blend keeps the stationary distribution unchanged and breaks
    periodicity, which matters mainly for simulation.
    """
    validate_out_degrees(g)
    base = g.weights / g.degrees[:, None]
    with np.errstate(invalid="ignore"):  # an infinite beta blends to nan; TransitionMatrix rejects it
        probs = beta * np.eye(g.n) + (1.0 - beta) * base
    return TransitionMatrix(probs, beta=beta, graph=g)


def _reaches_all(support: np.ndarray, symmetric: bool = False) -> bool:
    """True when vertex 0 reaches every vertex along the boolean support, and every vertex reaches 0.

    A frontier sweep: each round follows at once every arc out of the
    vertices first reached in the round before, so each row is read once.
    A symmetric support needs only the forward sweep.
    """
    directions = (support,) if symmetric else (support, np.ascontiguousarray(support.T))
    for adj in directions:
        reached = np.zeros(len(adj), dtype=bool)
        reached[0] = True
        frontier = np.zeros(1, dtype=np.intp)
        while frontier.size:
            new = adj[frontier].any(axis=0)
            new &= ~reached
            reached |= new
            frontier = np.flatnonzero(new)
        if not reached.all():
            return False
    return True


def strongly_connected(g: WeightedDigraph) -> bool:
    """True when every vertex reaches every other through positive-weight arcs."""
    positive = g.w > 0
    support = np.zeros((g.n, g.n), dtype=bool)
    support[g.src[positive], g.dst[positive]] = True
    return _reaches_all(support, symmetric=g.undirected)


def stationary_distribution(P: TransitionMatrix) -> Distribution:
    """Left fixed vector of P.

    Undirected source graphs use the closed form deg/vol. Directed chains
    solve (P^T - I) x = 0 with one equation replaced by the normalization
    sum(x) = 1, using a dense LU factorization.
    """
    g = P.graph
    undirected = g is not None and g.undirected
    if not _reaches_all(P.probs > 0, symmetric=undirected):
        raise ValidationError("not strongly connected")
    if undirected:
        return Distribution(g.degrees / g.volume)
    n = P.n
    M = P.probs.T - np.eye(n)
    # any single equation is redundant for an irreducible chain
    M[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        x = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"stationary solve failed: {exc}") from None
    if x.min() <= 0:
        raise NumericalError("solved stationary vector is not strictly positive")
    x = x / x.sum()
    require("stationary", np.abs(x @ P.probs - x).max(), tolerance.bound(n, 1.0, tolerance.RESIDUAL), NumericalError)
    return Distribution(x)
