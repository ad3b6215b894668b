"""Every chain command exits 0 on valid undirected chains whose weights span up to 1e12.

Each graph is ``wide_path_graph(40, seed, d)``: the path 0-1-...-39 plus 120
edges with uniform endpoints, self-loops and parallel edges kept as they
fall, weighted 10^U(-d, d). The sweep covers d in {0, 3, 6}, seeds 0-19 and
``--lazy`` 0 and 0.5, and runs every chain command through ``cli.main``
in-process, on the graph in place of the one it would read from a file.
Directed graphs of the same shape are not swept: the LU stationary solve is
accurate only in norm, so some of them still exit 2.
"""

import pytest

import greenwalk.cli
from greenwalk.cli import main
from greenwalk.generators import wide_path_graph

COMMANDS = ["hitting", "green", "exitfreq", "mixing", "spectral", "dual", "verify"]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("decades", [0, 3, 6])
def test_every_command_exits_zero(capsys, monkeypatch, decades, seed):
    g = wide_path_graph(40, seed, decades)
    monkeypatch.setattr(greenwalk.cli, "load_graph", lambda path, fmt: g)
    failures = []
    for lazy in ("0", "0.5"):
        for command in COMMANDS:
            code = main([command, "--input", "wide-path", "--lazy", lazy])
            err = capsys.readouterr().err
            if (code, err) != (0, ""):
                failures.append(f"{command} --lazy {lazy}: exit {code}: {err.strip()}")
    assert failures == []
