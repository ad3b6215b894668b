"""Each residual a builder checks is computed once and kept on the object it certifies.

``verify_checks`` reports those residuals by reading them, so its figures are
the very floats the builders compared with their limits. The arrays a chain
keeps are read-only, so no caller can change what is derived from them later.
"""

from pathlib import Path

import numpy as np
import pytest

from greenwalk.graph import load_graph
from greenwalk.greens import mixing_report, trace_gap
from greenwalk.pipeline import analyze, verify_checks
from greenwalk.spectral import decompose

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(params=["directed", "undirected"])
def chain(request):
    return analyze(load_graph(str(GOLDEN / f"{request.param}.edges")))


def test_verify_reports_the_builders_residuals(chain):
    checks = {name: residual for name, residual, _ in verify_checks(chain)}
    assert checks["greens_row_sum"] is chain.greens.row_sum
    assert checks["exit_row_min"] is chain.exit_pi.row_min
    assert checks["exit_row_sums"] is chain.exit_pi.access_gap
    assert checks["first_step"] is chain.hitting.first_step


def test_verify_lists_each_check_once(chain, lower_limit):
    # trace_vs_hit raised inside the mixing report is the check verify already lists
    lower_limit("trace_vs_hit")
    names = [name for name, _, _ in verify_checks(chain)]
    assert len(names) == len(set(names)) and "mixing_formulas" not in names
    assert "trace_vs_hit" in names


def test_mixing_report_reads_the_chains_hit_time(chain):
    assert mixing_report(chain).t_hit is chain.hit_time[0]


def test_mixing_builds_no_greens_matrix(chain):
    # trace_vs_hit reads tr G off G's diagonal, pi_j H(pi, j), bit for bit
    mixing_report(chain)
    assert "greens" not in vars(chain)
    assert trace_gap(chain) == abs(float(np.trace(chain.greens.values)) - chain.hit_time[0])


def test_cached_results_are_read_only(chain):
    # everything derived later reads these arrays: a write in place would corrupt it silently
    arrays = [
        chain.hitting.values,
        chain.greens.values,
        chain.exit_pi.values,
        chain.exit_pi.access,
        chain.pi_rules.from_target,
        chain.pi_rules.access,
        chain.mixing.mixing_times,
        chain.mixing.pessimal,
    ]
    if chain.graph.undirected:
        dec = decompose(chain.graph)
        arrays += [dec.eigenvalues, dec.eigenvectors]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
