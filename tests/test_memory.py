"""Each command peaks at a bounded number of n x n arrays.

Each command runs through ``cli.main`` on a 300-vertex graph: a digraph, or
an undirected graph for ``spectral``. With stdout sent to a sink that
discards it, the peak counts what the command holds and formats. With stdout
held in an ``io.StringIO``, it also counts the text a caller keeps, so the
chain must be gone before the first byte is written. tracemalloc sees every
numpy array; a peak is counted in units of one n x n float64 array. Each
bound is the measured count plus 0.4 to 0.6 of slack.
"""

import contextlib
import io
import json
import tracemalloc

import pytest

from greenwalk.cli import main
from greenwalk.generators import random_connected_graph, random_strongly_connected_digraph
from greenwalk.spectral import decompose

N = 300
# measured: 4.2, 5.1, 8.9, 7.9 and 6.86
DISCARDED = {"hitting": 5.0, "green": 5.6, "verify": 9.4, "dual": 8.4, "spectral": 7.3}
# measured: 4.5, 5.1 and 9.75
HELD = {"hitting": 5.0, "green": 5.6, "dual": 10.2}
# measured: 2.01 (L and the eigenvectors; spectral's own peak, 6.86, is in spectral_routes)
DECOMPOSE = 2.5


class Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    directed = random_strongly_connected_digraph(N, 1, extra=0.02)
    undirected = random_connected_graph(N, 1, extra=0.02)
    graphs = {
        "directed": {"n": N, "arcs": [list(arc) for arc in directed.arcs]},
        # the generator lists each edge from its lower end; the mirrors are rebuilt on reading
        "undirected": {"n": N, "undirected": True, "arcs": [list(arc) for arc in undirected.arcs if arc[0] <= arc[1]]},
    }
    paths = {}
    for name, data in graphs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return paths


def peak_in_matrices(graph_files, command, sink) -> float:
    graph = graph_files["undirected" if command == "spectral" else "directed"]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main([command, "--input", str(graph)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak / (8 * N * N)


@pytest.mark.parametrize("command", list(DISCARDED))
def test_peak_in_matrices(graph_files, command):
    assert peak_in_matrices(graph_files, command, Discard()) <= DISCARDED[command]


@pytest.mark.parametrize("command", list(HELD))
def test_peak_with_output_held(graph_files, command):
    assert peak_in_matrices(graph_files, command, io.StringIO()) <= HELD[command]


def test_decompose_peak():
    g = random_connected_graph(N, 1, extra=0.02)
    g.degrees  # cached on the graph before the count starts, as a chain would have it
    tracemalloc.start()
    try:
        decompose(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * N * N) <= DECOMPOSE
