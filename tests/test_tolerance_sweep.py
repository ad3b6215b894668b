"""Every command that reads a limit exits 0 on valid chains at n = 800-1000 and with weights spanning 1e12.

Each case runs ``cli.main`` end to end except for reading the file and
rendering the output: the graph comes from a generator, its chain is built
once and shared by the commands, and the JSON writer is stubbed out, since
only the exit status and standard error are asserted.
"""

import functools
import importlib
import pkgutil

import numpy as np
import pytest

import greenwalk
import greenwalk.cli
from greenwalk import families, tolerance
from greenwalk.cli import main
from greenwalk.generators import random_strongly_connected_digraph
from greenwalk.graph import WeightedDigraph
from greenwalk.pipeline import analyze


def spread_digraph(n: int, seed: int, decades: float) -> WeightedDigraph:
    """The arcs of random_strongly_connected_digraph(n, seed, extra=0.1), weighted 10^U(-decades, decades)."""
    g = random_strongly_connected_digraph(n, seed, extra=0.1, weighted=False)
    w = 10.0 ** np.random.default_rng(seed).uniform(-decades, decades, size=len(g.w))
    return WeightedDigraph.from_columns(n, g.src, g.dst, w)


GRAPHS = {
    "path-1000": lambda: families.path_graph(1000),
    "cycle-1000": lambda: families.cycle_graph(1000),
    "digraph-800-31": lambda: random_strongly_connected_digraph(800, 31, extra=0.02),
    "digraph-1000-1": lambda: random_strongly_connected_digraph(1000, 1, extra=0.02),
    "spread-1e6": lambda: spread_digraph(200, 7, 3.0),
    "spread-1e12": lambda: spread_digraph(200, 7, 6.0),
}
CHAINS = [(name, 0.0) for name in GRAPHS] + [("digraph-800-31", 0.5), ("digraph-1000-1", 0.5)]
COMMANDS = ["hitting", "green", "exitfreq", "mixing", "spectral", "dual", "verify"]
CASES = [
    pytest.param(name, lazy, command, id=f"{command}-{name}" + ("-lazy" if lazy else ""))
    for name, lazy in CHAINS
    for command in COMMANDS
    if command != "spectral" or name.split("-")[0] in ("path", "cycle")
]

@functools.lru_cache(maxsize=1)  # the cases of a chain run together, so one chain is kept at a time
def _chain(name: str, lazy: float):
    return analyze(GRAPHS[name](), lazy)


@pytest.mark.parametrize("name, lazy, command", CASES)
def test_command_exits_zero(capsys, monkeypatch, name, lazy, command):
    chain = _chain(name, lazy)
    monkeypatch.setattr(greenwalk.cli, "load_graph", lambda path, fmt: chain.graph)
    monkeypatch.setattr(greenwalk.cli, "analyze", lambda g, beta: chain)
    monkeypatch.setattr(greenwalk.cli, "write_json", lambda write, obj: None)
    code = main([command, "--input", name, "--lazy", str(lazy)])
    assert (code, capsys.readouterr().err) == (0, "")


def test_only_tolerance_holds_limits():
    """Every limit comes from greenwalk.tolerance: no other module binds a *_TOL name or time_scale."""
    for info in pkgutil.iter_modules(greenwalk.__path__):
        if info.name != "tolerance":
            module = importlib.import_module(f"greenwalk.{info.name}")
            assert [name for name in vars(module) if name.endswith("_TOL") or name == "time_scale"] == [], info.name


def test_bound():
    eps = np.finfo(float).eps
    assert tolerance.bound(10, 0.5, 3.0) == 3.0 * 10 * eps
    assert tolerance.bound(10, 4.0, 3.0) == 3.0 * 10 * eps * 4.0
    assert tolerance.time_scale([[0.0, -7.0]], 2.0) == 7.0 and tolerance.time_scale(0.5) == 1.0
