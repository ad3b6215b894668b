"""hitting, verify and dual each peak at a bounded number of n x n arrays.

Each command runs through ``cli.main`` on a 300-vertex digraph, with stdout
sent to a sink that discards it, so the peak counts what the command holds
and formats, not the text a caller keeps. tracemalloc sees every numpy array;
a peak is counted in units of one n x n float64 array. Each bound is the
count measured when the output was first streamed, plus about 0.5 of slack.
"""

import contextlib
import io
import json
import tracemalloc

import pytest

from greenwalk.cli import main
from greenwalk.generators import random_strongly_connected_digraph

N = 300
BOUNDS = {"hitting": 5.0, "verify": 11.5, "dual": 11.5}  # measured: 4.4, 10.9 and 10.9


class Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    g = random_strongly_connected_digraph(N, 1, extra=0.02)
    path = tmp_path_factory.mktemp("memory") / "g.json"
    path.write_text(json.dumps({"n": g.n, "arcs": [list(arc) for arc in g.arcs]}))
    return str(path)


@pytest.mark.parametrize("command", list(BOUNDS))
def test_peak_in_matrices(graph_file, command):
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Discard()):
            code = main([command, "--input", graph_file])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak / (8 * N * N) <= BOUNDS[command]
