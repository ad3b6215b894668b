#!/usr/bin/env python3
"""Time load_graph on dense random digraphs with the C reader and with the line loop.

For each n, writes random_strongly_connected_digraph(n, 1, extra=0.5) as an
edge list (a comment line, then one "src dst weight" line per arc, weights
printed with repr), and loads it three ways: with greenwalk.graph.load_graph,
with the per-line parser load_graph falls back on to locate errors
(greenwalk.graph._parse_edge_list_lines), and with np.loadtxt alone (the C
reader's own cost, a floor for the parser). It asserts that both graphs are
equal (vertex count, arcs in order, bitwise weights and degrees) and prints
the best time of --repeat runs for each. It also prints the peak memory
tracemalloc sees in one load_graph, and in one with the arc text split into
a single list of lines (str.splitlines) instead of a block at a time. The
last line is the table as JSON.

Usage: python3 scripts/parse_sweep.py [--sizes N ...] [--repeat R] [--dir DIR]
"""

import argparse
import json
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

from greenwalk.generators import random_strongly_connected_digraph
from greenwalk.graph import _parse_edge_list_lines, load_graph, read_text, validate_out_degrees
from sweep import write_edge_list


def line_loop_load_graph(path: str):
    """load_graph through the line loop that locates parse errors, without the C reader."""
    g = _parse_edge_list_lines(read_text(path))
    validate_out_degrees(g)
    return g


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
            g = random_strongly_connected_digraph(n, 1, extra=0.5)
            write_edge_list(g, path, comment=f"random_strongly_connected_digraph({n}, 1, extra=0.5)")
            arcs = len(g.w)
            del g
            old_s, old = best_time(line_loop_load_graph, str(path), args.repeat)
            new_s, new = best_time(load_graph, str(path), args.repeat)
            assert new.n == old.n and new.undirected == old.undirected, f"n = {n}: the graphs differ"
            assert np.array_equal(new.src, old.src) and np.array_equal(new.dst, old.dst), f"n = {n}: the arcs differ"
            assert new.w.tobytes() == old.w.tobytes() and new.degrees.tobytes() == old.degrees.tobytes()
            del old, new
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
