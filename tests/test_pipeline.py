"""Each residual a builder checks is computed once and kept on the object it certifies.

``verify_checks`` runs the builders in a ledger and reports what it records,
so its figures are the very floats the builders compared with their limits.
The arrays a chain keeps are read-only, so no caller can change what is
derived from them later.
"""

from pathlib import Path

import numpy as np
import pytest

from greenwalk import errors, hitting
from greenwalk.duality import duality_checks, reverse_chain
from greenwalk.graph import load_graph
from greenwalk.greens import mixing_report, trace_gap
from greenwalk.hitting import reversed_hitting_times
from greenwalk.pipeline import analyze, verify_checks
from greenwalk.spectral import decompose

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(params=["directed", "undirected"])
def chain(request):
    return analyze(load_graph(str(GOLDEN / f"{request.param}.edges")))


def test_verify_reports_the_builders_residuals(chain):
    # verify builds on a fresh copy of the chain, so its records equal, not are, this chain's figures
    checks = {name: residual for name, residual, _ in verify_checks(chain)}
    assert checks["greens_row_sum"] == chain.greens.row_sum
    assert checks["exit_row_min"] == chain.exit_pi.row_min
    assert checks["exit_row_sums"] == chain.exit_pi.access_gap
    # the chain and its reverse each confirm their first-step equations; the reverse's is the worst here
    P_rev = reverse_chain(chain.transition, chain.stationary)
    chain.pi_rules.from_target  # the forward solve, outside the ledger
    with errors.recorded() as ledger:
        reversed_hitting_times(chain.pi_rules, P_rev)
    assert [residual for name, residual, _ in ledger if name == "first_step"] == [checks["first_step"]]


def test_verify_checks_do_not_depend_on_what_the_chain_holds(chain):
    # the README's quickstart reads the chain's matrices and its duals before it calls verify_checks
    fresh = verify_checks(chain)
    chain.hitting, chain.greens, chain.exit_pi, chain.mixing
    reversed_hitting_times(chain.pi_rules, reverse_chain(chain.transition, chain.stationary))
    duality_checks(chain)
    assert verify_checks(chain) == fresh
    assert len(fresh) == (22 if chain.graph.undirected else 15)


def test_verify_checks_each_solve_once(chain, monkeypatch):
    # the chain and its reverse confirm their H; laziness_scaling alone certifies the beta = 0.5 inverse
    made = []

    def recording(name, *args):
        made.append(name)
        return errors.require(name, *args)

    monkeypatch.setattr(hitting, "require", recording)
    verify_checks(chain)
    assert (made.count("fundamental"), made.count("first_step")) == (1, 2)


def test_verify_lists_each_check_once(chain, lower_limit):
    # the mixing report's trace_vs_hit is the one verify lists, failed, and it lists no copy of its own
    lower_limit("trace_vs_hit")
    checks = verify_checks(chain)
    names = [name for name, _, _ in checks]
    assert len(names) == len(set(names)) and "mixing_formulas" not in names
    assert ("trace_vs_hit", trace_gap(chain), -1.0) in checks


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
