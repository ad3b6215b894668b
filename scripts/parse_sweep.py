#!/usr/bin/env python3
"""Time load_graph on dense random digraphs with the C reader and with the line loop it replaced.

For each n, writes random_strongly_connected_digraph(n, 1, extra=0.5) as an
edge list (a comment line, then one "src dst weight" line per arc, weights
printed with repr), and loads it three ways: with a verbatim copy of the
per-line parser and per-arc graph constructor that the columnar graph
replaced, with greenwalk.graph.load_graph, and with np.loadtxt alone (the
C reader's own cost, a floor for the parser). It asserts that both graphs
are equal (vertex count, arcs in order, bitwise degrees) and prints the
best time of --repeat runs for each. It also prints the peak memory
tracemalloc sees in one load_graph, and in one with the arc text split into
a single list of lines (str.splitlines) instead of a block at a time. The
last line is the table as JSON.

Usage: python3 scripts/parse_sweep.py [--sizes N ...] [--repeat R] [--dir DIR]
"""

import argparse
import json
import math
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from unittest import mock

import numpy as np

from greenwalk.errors import ParseError, ValidationError
from greenwalk.generators import random_strongly_connected_digraph
from greenwalk.graph import load_graph, read_text

# ---------------------------------------------------------------------------
# the parser and graph the columnar versions replaced, kept verbatim


@dataclass(frozen=True)
class WeightedDigraph:
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


def validate_out_degrees(g: WeightedDigraph) -> None:
    """Raise unless every vertex has positive outgoing weight."""
    bad = np.flatnonzero(g.degrees <= 0.0)
    if bad.size:
        raise ValidationError(f"vertex {int(bad[0])} has zero outgoing weight")


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


def line_loop_load_graph(path: str) -> WeightedDigraph:
    g = _parse_edge_list(read_text(path))
    validate_out_degrees(g)
    return g


# ---------------------------------------------------------------------------


def loadtxt_only(path: str):
    dtype = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
    return np.loadtxt(path, dtype=dtype, comments="#", ndmin=1)


def load_graph_one_split(path: str):
    with mock.patch("greenwalk.graph._lines", str.splitlines):
        return load_graph(path)


def peak_traced_mb(load, path: str) -> float:
    tracemalloc.start()
    try:
        load(path)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def write_dense_digraph(n: int, path: Path) -> int:
    g = random_strongly_connected_digraph(n, 1, extra=0.5)
    lines = [f"# random_strongly_connected_digraph({n}, 1, extra=0.5)"]
    lines += [f"{i} {j} {w!r}" for i, j, w in g.arcs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(g.w)


def best_time(load, path: str, repeat: int):
    best, graph = float("inf"), None
    for _ in range(repeat):
        graph = None  # free the previous graph before timing the next load
        start = time.perf_counter()
        graph = load(path)
        best = min(best, time.perf_counter() - start)
    return best, graph


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000])
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--dir", help="where to write the edge lists (default: a temporary directory)")
    args = parser.parse_args()

    header = f"{'n':>6}{'arcs':>10}{'MB in':>8}{'line loop s':>14}{'columnar s':>12}{'loadtxt s':>11}{'speed-up':>10}"
    header += f"{'peak MB':>9}{'one split':>11}"
    print(header)
    print("-" * len(header))
    table = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.dir or tmp)
        work.mkdir(parents=True, exist_ok=True)
        for n in args.sizes:
            path = work / f"dense-{n}.edges"
            arcs = write_dense_digraph(n, path)
            old_s, old = best_time(line_loop_load_graph, str(path), args.repeat)
            new_s, new = best_time(load_graph, str(path), args.repeat)
            src, dst, w = old._columns
            assert new.n == old.n and new.undirected == old.undirected, f"n = {n}: the graphs differ"
            assert np.array_equal(new.src, src) and np.array_equal(new.dst, dst), f"n = {n}: the arcs differ"
            assert new.w.tobytes() == w.tobytes() and new.degrees.tobytes() == old.degrees.tobytes()
            del old, new, src, dst, w
            floor_s, _ = best_time(loadtxt_only, str(path), args.repeat)
            peak_mb = peak_traced_mb(load_graph, str(path))
            one_split_mb = peak_traced_mb(load_graph_one_split, str(path))
            row = {
                "n": n,
                "arcs": arcs,
                "input_mb": path.stat().st_size / 2**20,
                "line_loop_s": old_s,
                "columnar_s": new_s,
                "loadtxt_s": floor_s,
                "speedup": old_s / new_s,
                "peak_traced_mb": peak_mb,
                "one_split_peak_traced_mb": one_split_mb,
            }
            table.append(row)
            print(
                f"{n:>6}{arcs:>10}{row['input_mb']:>8.1f}{old_s:>14.3f}{new_s:>12.3f}{floor_s:>11.3f}"
                f"{row['speedup']:>10.2f}{peak_mb:>9.1f}{one_split_mb:>11.1f}"
            )
            path.unlink()
    print(json.dumps(table))


if __name__ == "__main__":
    main()
