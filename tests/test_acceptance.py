"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import math

import numpy as np
import pytest

from greenwalk import families, pipeline
from greenwalk.duality import duality_checks, reverse_chain
from greenwalk.generators import (
    random_connected_graph,
    random_strongly_connected_digraph,
    random_tree,
)
from greenwalk.graph import Distribution, stationary_distribution, transition_matrix
from greenwalk.greens import (
    Rules,
    exit_frequency_matrix,
    greens_general,
    hitting_from_greens,
    mixing_report,
    verify_green_constraints,
)
from greenwalk.hitting import hit_time, hitting_times
from greenwalk.montecarlo import empirical_hitting, empirical_random_target
from greenwalk.pipeline import ChainAnalysis, spectral_routes
from greenwalk.spectral import decompose, spectral_greens


def report(criterion: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{criterion} failed {suffix}"


def test_01_complete_graphs():
    worst = 0.0
    for n in range(2, 11):
        sol = pipeline.analyze(families.complete_graph(n))
        expected = np.full((n, n), -(n - 1) / n**2)
        np.fill_diagonal(expected, ((n - 1) / n) ** 2)
        worst = max(worst, float(np.abs(sol.greens.values - expected).max()))
    report("01 complete-graph Green values", worst <= 1e-12, f"worst {worst:.2e}")


def test_02_complete_bipartite():
    worst = 0.0
    for r, s in ((1, 2), (2, 3), (3, 5)):
        sol = pipeline.analyze(families.complete_bipartite(r, s))
        H, G = sol.hitting.values, sol.greens.values
        hpi = sol.stationary.probs @ H
        checks = [
            (H[0, r], 2 * s - 1),  # small side to large side
            (H[r, 0], 2 * r - 1),  # large side to small side
            (hpi[0], 2 * r - 1.5),
            (hpi[r], 2 * s - 1.5),
            (G[0, 0], 1 - 3 / (4 * r)),
            (G[0, r], -1 / (4 * s)),
            (G[r, r], 1 - 3 / (4 * s)),
            (G[r, 0], -1 / (4 * r)),
        ]
        if r >= 2:
            checks += [(H[0, 1], 2 * r), (G[0, 1], -3 / (4 * r))]
        if s >= 2:
            checks += [(H[r, r + 1], 2 * s), (G[r, r + 1], -3 / (4 * s))]
        worst = max(worst, max(abs(a - b) for a, b in checks))
    report("02 complete-bipartite closed forms", worst <= 1e-10, f"worst {worst:.2e}")


def test_03_cycles():
    worst = 0.0
    for n in range(3, 31):
        sol = pipeline.analyze(families.cycle_graph(n))
        j = np.arange(n, dtype=float)
        worst = max(worst, float(np.abs(sol.hitting.values[0] - j * (n - j)).max()))
        hpi0 = float(sol.stationary.probs @ sol.hitting.values[:, 0])
        worst = max(worst, abs(hpi0 - (n * n - 1) / 6))
        oracle = families.cycle_oracle(n)
        trig = np.array(oracle.details["trig_row"])
        worst = max(worst, float(np.abs(oracle.greens[0] - sol.greens.values[0]).max()))
        worst = max(worst, float(np.abs(trig - sol.greens.values[0]).max()))
    report("03 cycle closed forms", worst <= 1e-8, f"worst {worst:.2e}")


def test_04_paths_and_trees():
    worst = 0.0
    for n in range(2, 31):
        oracle = families.path_oracle(n)
        sol = pipeline.analyze(oracle.graph)
        worst = max(worst, float(np.abs(oracle.greens - sol.greens.values).max()))
    for seed in range(50):
        tree = random_tree(3 + seed % 23, seed=seed)
        oracle = families.tree_oracle(tree)
        sol = pipeline.analyze(tree)
        worst = max(worst, float(np.abs(oracle.greens - sol.greens.values).max()))
        worst = max(worst, float(np.abs(oracle.hitting - sol.hitting.values).max()))
    report("04 path and tree formulas", worst <= 1e-8, f"worst {worst:.2e}")


def test_05_hypercubes():
    worst = 0.0
    for d in range(1, 11):
        sol = pipeline.analyze(families.hypercube_graph(d))
        rep = mixing_report(sol)
        t_mix = (d / 2) * sum(1 / k for k in range(1, d + 1))
        t_hit = (d / 2) * sum(math.comb(d, k) / k for k in range(1, d + 1))
        h_one_zero = 2 ** (d - 1) * sum(1 / math.comb(d - 1, k) for k in range(d))
        n = 1 << d
        worst = max(
            worst,
            abs(rep.t_mix - t_mix),
            abs(rep.t_hit - t_hit),
            abs(sol.hitting.values[n - 1, 0] - h_one_zero),
        )
    report("05 hypercube measures d=1..10", worst <= 1e-8, f"worst {worst:.2e}")


def test_06_spectral_equivalence():
    worst = 0.0
    for case in range(200):
        n = 2 + case % 59
        g = random_connected_graph(n, seed=case, weighted=case % 3 == 0)
        sol = pipeline.analyze(g)
        dec = decompose(g)
        scale = max(1.0, float(np.abs(sol.hitting.values).max()))
        G = spectral_greens(dec)
        gap_h = float(np.abs(hitting_from_greens(G, G.target).values - sol.hitting.values).max())
        gap_g = float(np.abs(G.values - sol.greens.values).max())
        rep = mixing_report(sol)
        (t_mix, t_reset, t_hit), _ = spectral_routes(sol, dec)
        by_trace = float(np.trace(sol.greens.values))
        by_pairs, _ = hit_time(sol.hitting, sol.stationary)
        gaps = [
            gap_h,
            gap_g,
            abs(t_mix - rep.t_mix),
            abs(t_reset - rep.t_reset),
            abs(t_hit - rep.t_hit),
            abs(t_hit - by_trace),
            abs(by_trace - by_pairs),
        ]
        worst = max(worst, max(gaps) / scale)
    report("06 spectral equivalence on 200 graphs", worst <= 1e-8, f"worst rel {worst:.2e}")


def test_07_green_constraints_random_digraphs():
    worst = 0.0
    for case in range(200):
        n = 2 + case % 39
        g = random_strongly_connected_digraph(n, seed=case)
        sol = pipeline.analyze(g)
        constraint, row_sum = verify_green_constraints(sol.greens, sol.transition), sol.greens.row_sum
        worst = max(worst, constraint / (1e-9 * n) * 1e-9, row_sum / 1e-10 * 1e-9)
        ok = constraint <= 1e-9 * n and row_sum <= 1e-10
        assert ok, f"case {case}: constraint {constraint:.2e} row_sum {row_sum:.2e}"
        rng = np.random.default_rng(case)
        for _ in range(5):
            tau = Distribution(rng.dirichlet(np.ones(n)))
            Gt = greens_general(Rules(sol.hitting, sol.stationary, tau))
            c, r = verify_green_constraints(Gt, sol.transition), Gt.row_sum
            assert c <= 1e-9 * n and r <= 1e-10, f"case {case}: general target failed"
    report("07 Green constraints, 200 digraphs x 6 targets", True)


def test_08_exit_frequency_structure():
    worst_gap = 0.0
    for case in range(60):
        n = 2 + case % 25
        g = random_strongly_connected_digraph(n, seed=1000 + case)
        sol = pipeline.analyze(g)
        rng = np.random.default_rng(case)
        targets = [sol.stationary, Distribution(rng.dirichlet(np.ones(n)))]
        for tau in targets:
            X = exit_frequency_matrix(Rules(sol.hitting, sol.stationary, tau))
            assert X.values.min() >= 0.0
            assert X.values.min(axis=1).max() <= 1e-10
            scale = max(1.0, float(np.abs(X.access).max()))
            assert np.abs(X.values.sum(axis=1) - X.access).max() <= 1e-8 * scale
            rebuilt = X.values - np.outer(X.access, sol.stationary.probs)
            direct = greens_general(Rules(sol.hitting, sol.stationary, tau))
            gap = float(np.abs(rebuilt - direct.values).max()) / max(1.0, scale)
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-9
    report("08 exit-frequency structure", True, f"worst route gap {worst_gap:.2e}")


def test_09_duality():
    # hand-derived values on the 3-path
    P = transition_matrix(families.path_graph(3))
    pi = stationary_distribution(P)
    H = hitting_times(P, pi)
    X = exit_frequency_matrix(Rules(H, pi, pi))
    rep = duality_checks(ChainAnalysis(P, pi))
    core, offsets, mu = rep.core, rep.offsets, rep.forget
    b = X.values.min(axis=0)
    ok = (
        np.allclose(b, [0.0, 0.5, 0.0], atol=1e-12)
        and np.array_equal(offsets, b)
        and np.allclose(core.probs, [0.0, 1.0, 0.0], atol=1e-12)
        and np.allclose(mu.probs, core.probs, atol=1e-12)
    )
    acc_core = Rules(H, pi, core).access
    mix = Rules(H, pi, pi).access
    ok = ok and abs(acc_core[0] - 1.0) <= 1e-12 and abs(mix[0] - 1.5) <= 1e-12

    worst = 0.0
    for case in range(100):
        n = 2 + case % 39
        g = random_strongly_connected_digraph(n, seed=2000 + case)
        Pd = transition_matrix(g)
        pid = stationary_distribution(Pd)
        chain = ChainAnalysis(Pd, pid)
        rep = duality_checks(chain)
        scale = max(1.0, float(np.abs(rep.reverse_hitting.values).max()))
        rev = reverse_chain(Pd, pid)
        mix_rev = Rules(hitting_times(rev, pid), pid, pid).access
        t_reset = float(pid.probs @ Rules(hitting_times(Pd, pid), pid, pid).access)
        gap = abs(t_reset - duality_checks(ChainAnalysis(rev, pid)).t_forget)
        worst = max(worst, gap / scale, rep.reverse_involution / scale)
    report("09 duality identities", ok and worst <= 1e-8, f"worst rel {worst:.2e}")


def test_10_monte_carlo():
    P5 = transition_matrix(families.cycle_graph(5))
    stats = empirical_hitting(P5, 0, 2, trials=100_000, seed=42)
    ok = abs(stats.mean - 6.0) <= 4.0 * stats.stderr
    detail = [f"C5 z={(stats.mean - 6.0) / stats.stderr:+.2f}"]
    P4 = transition_matrix(families.cycle_graph(4))
    pi4 = stationary_distribution(P4)
    for start in range(4):
        s = empirical_random_target(P4, pi4, start, trials=100_000, seed=42)
        ok = ok and abs(s.mean - 2.5) <= 4.0 * s.stderr
        detail.append(f"C4@{start} z={(s.mean - 2.5) / s.stderr:+.2f}")
    report("10 Monte Carlo at seed 42", ok, ", ".join(detail))


def test_11_laziness_covariance():
    worst = 0.0
    for case in range(20):
        n = 3 + case % 20
        g = random_strongly_connected_digraph(n, seed=3000 + case)
        base = pipeline.analyze(g)
        scale = max(1.0, float(np.abs(base.hitting.values).max()))
        for beta in (0.25, 0.5):
            lazy = pipeline.analyze(g, beta)
            gap_h = float(np.abs(lazy.hitting.values * (1 - beta) - base.hitting.values).max())
            gap_g = float(np.abs(lazy.greens.values * (1 - beta) - base.greens.values).max())
            worst = max(worst, gap_h / scale, gap_g / scale)
    report("11 laziness covariance", worst <= 1e-8, f"worst rel {worst:.2e}")
