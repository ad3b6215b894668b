"""Every chain command exits 0 on valid undirected chains whose weights span up to 1e12.

Each graph is the path 0-1-...-39 plus 120 edges with uniform endpoints,
self-loops and parallel edges kept as they fall, weighted 10^U(-d, d) and
written as an edge list with ``# undirected``. The sweep covers d in
{0, 3, 6}, seeds 0-19 and ``--lazy`` 0 and 0.5, and runs every chain
command through ``cli.main`` in-process. Directed graphs of the same shape
are not swept: the LU stationary solve is accurate only in norm, so some of
them still exit 2.
"""

import numpy as np
import pytest

from greenwalk.cli import main

N, EXTRA = 40, 120
COMMANDS = ["hitting", "green", "exitfreq", "mixing", "spectral", "dual", "verify"]


def sweep_edges(seed: int, decades: int) -> str:
    """The edge list of the sweep's graph for one seed and weight spread."""
    rng = np.random.default_rng(seed)
    src = [*range(N - 1), *rng.integers(0, N, EXTRA).tolist()]
    dst = [*range(1, N), *rng.integers(0, N, EXTRA).tolist()]
    weights = 10.0 ** rng.uniform(-decades, decades, N - 1 + EXTRA)
    return "# undirected\n" + "".join(f"{i} {j} {w!r}\n" for i, j, w in zip(src, dst, weights.tolist()))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("decades", [0, 3, 6])
def test_every_command_exits_zero(capsys, tmp_path, decades, seed):
    path = tmp_path / "sweep.edges"
    path.write_text(sweep_edges(seed, decades))
    failures = []
    for lazy in ("0", "0.5"):
        for command in COMMANDS:
            code = main([command, "--input", str(path), "--lazy", lazy])
            err = capsys.readouterr().err
            if (code, err) != (0, ""):
                failures.append(f"{command} --lazy {lazy}: exit {code}: {err.strip()}")
    assert failures == []
