from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenwalk import families, montecarlo
from greenwalk.errors import RunawayError, ValidationError
from greenwalk.generators import random_strongly_connected_digraph
from greenwalk.graph import WeightedDigraph, stationary_distribution, transition_matrix
from greenwalk.hitting import hit_time, hitting_times
from greenwalk.montecarlo import _cumulative_rows, empirical_hitting, empirical_random_target


def directed_triangle_chain():
    g = WeightedDigraph(3, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
    return transition_matrix(g)


def one_walk(P, start, stop, seed) -> float:
    """The steps of one seeded walk: the mean of a single trial."""
    return empirical_hitting(P, start, stop, 1, seed).mean


def philox_walk(P, start, stop, seed) -> int:
    """A walk drawing one uniform per step from a fresh Philox keyed (seed, 0), stepping by the dense row's cumsum."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    v, steps = start, 0
    while v != stop:
        v = int(np.searchsorted(np.cumsum(P.probs[v]), rng.random(), side="right"))
        steps += 1
    return steps


class TestSimulateWalk:
    def test_start_equals_stop(self):
        P = transition_matrix(families.complete_graph(2))
        assert one_walk(P, 0, 0, seed=5) == 0

    def test_deterministic_chain(self):
        P = directed_triangle_chain()
        assert all(one_walk(P, 0, 2, seed=s) == 2 for s in range(20))

    def test_cycle_parity(self):
        P = transition_matrix(families.cycle_graph(4))
        for s in range(20):
            steps = one_walk(P, 0, 2, seed=s)
            assert steps > 0 and steps % 2 == 0

    def test_step_cap(self, monkeypatch):
        P = directed_triangle_chain()
        monkeypatch.setattr(montecarlo, "STEP_CAP", 1)
        with pytest.raises(RunawayError):
            one_walk(P, 0, 2, seed=0)

    def test_bad_vertex(self):
        P = directed_triangle_chain()
        with pytest.raises(ValidationError):
            one_walk(P, 0, 9, seed=0)


class ScriptedUniforms:
    """Stands in for a Generator whose every uniform is u."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size: int) -> np.ndarray:
        return np.full(size, self.u)


def table_steps_to(steps, v: int, w: int, u: float) -> bool:
    """Whether one step of the walk, on the step table and the uniform u, goes from v to w (v != w)."""
    try:
        return montecarlo._walk(steps, v, w, ScriptedUniforms(u), 1) == 1
    except RunawayError:  # the step went elsewhere
        return False


def weighted_row(weights):
    """A chain whose vertex 0 has an arc of each weight to 1, 2, ..., and every other vertex one arc back to 0."""
    d = len(weights)
    arcs = [(0, k + 1, w) for k, w in enumerate(weights)] + [(k + 1, 0, 1.0) for k in range(d)]
    return transition_matrix(WeightedDigraph(d + 1, tuple(arcs)))


class TestCumulativeRows:
    def test_top_uniforms_step_along_arcs(self):
        top = float(np.nextafter(1.0, 0.0))  # the largest uniform a generator returns
        for seed in range(50):
            P = transition_matrix(random_strongly_connected_digraph(60, seed, extra=0.25))
            running = np.cumsum(P.probs, axis=1)
            steps = _cumulative_rows(P)
            end = 0
            for v in range(P.n):
                start, end = end, end + np.count_nonzero(P.probs[v])
                cum, targets = steps.cum[start:end], steps.targets[start:end]
                assert targets == np.flatnonzero(P.probs[v]).tolist()
                # the dense cumsum's floats at the arc columns, the last arc's set to 1
                assert cum[:-1] == running[v, targets[:-1]].tolist() and cum[-1] == 1.0
                # the top uniform and each running sum, through the table, step along a positive-probability arc
                for u in (top, *(min(top, c) for c in cum)):
                    w = targets[bisect_right(cum, u)]
                    assert P.probs[v, w] > 0 and table_steps_to(steps, v, w, u), (seed, v, u)
            assert end == len(steps.cum) == len(steps.targets)

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.floats(1e-12, 1e3), st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0])),
            min_size=1, max_size=40,
        ).filter(lambda ws: any(w > 0 for w in ws)),
        entries=st.sampled_from([montecarlo._TABLE_ENTRIES, 256, 64]),
    )
    # a running sum before the last arc's that rounds above 1
    @example(weights=[0.15947424705166727, 0.8571855516511449, 0.16002100789039128, 1e-17], entries=montecarlo._TABLE_ENTRIES)
    def test_table_step_is_the_dense_bisection(self, weights, entries):
        # power-of-two weights put running sums on cell edges; a small budget puts many sums in one cell
        with mock.patch.object(montecarlo, "_TABLE_ENTRIES", entries):
            P = weighted_row(weights)
            steps = _cumulative_rows(P)
        cum = np.cumsum(P.probs[0])
        cum[np.flatnonzero(P.probs[0])[-1]:] = 1.0
        uniforms = {float(np.nextafter(1.0, 0.0))}
        for c in cum:
            uniforms |= {float(c), float(np.nextafter(c, 0.0)), float(np.nextafter(c, 2.0))}
        for u in sorted(x for x in uniforms if 0.0 <= x < 1.0):
            w = bisect_right(cum.tolist(), u)
            assert P.probs[0, w] > 0 and table_steps_to(steps, 0, w, u), (steps.cells, u)


class TestEmpiricalHitting:
    def test_determinism(self):
        P = transition_matrix(families.cycle_graph(5))
        a = empirical_hitting(P, 0, 2, trials=400, seed=3)
        b = empirical_hitting(P, 0, 2, trials=400, seed=3)
        assert a == b

    def test_single_trial_matches_simulate(self):
        # trial 0 of empirical_hitting's per-trial streams is the walk of a fresh Philox keyed (seed, 0)
        P = transition_matrix(random_strongly_connected_digraph(12, 4))
        for seed in range(20):
            one = empirical_hitting(P, 0, 7, trials=1, seed=seed)
            assert one.mean == philox_walk(P, 0, 7, seed)
            assert one.stderr == 0.0

    def test_stderr_definition(self):
        P = transition_matrix(families.cycle_graph(5))
        stats = empirical_hitting(P, 0, 2, trials=500, seed=1)
        assert stats.stderr > 0.0
        assert stats.trials == 500

    @pytest.mark.parametrize(
        "graph,i,j,expected",
        [
            (families.complete_graph(5), 0, 3, 4.0),
            (families.path_graph(3), 0, 2, 4.0),
            (families.cycle_graph(5), 0, 2, 6.0),
        ],
        ids=["complete", "path", "cycle"],
    )
    def test_matches_analytic_values(self, graph, i, j, expected):
        P = transition_matrix(graph)
        stats = empirical_hitting(P, i, j, trials=20000, seed=42)
        assert abs(stats.mean - expected) <= 5.0 * stats.stderr

    def test_agrees_across_seeds(self):
        P = transition_matrix(families.cycle_graph(5))
        pi = stationary_distribution(P)
        analytic = hitting_times(P, pi)[0, 2]
        hits = 0
        for seed in range(10):
            stats = empirical_hitting(P, 0, 2, trials=4000, seed=seed)
            if abs(stats.mean - analytic) <= 4.0 * stats.stderr:
                hits += 1
        assert hits >= 9

    def test_trials_required(self):
        P = transition_matrix(families.cycle_graph(5))
        with pytest.raises(ValidationError):
            empirical_hitting(P, 0, 2, trials=0, seed=0)


class TestEmpiricalRandomTarget:
    def test_determinism(self):
        P = transition_matrix(families.cycle_graph(4))
        pi = stationary_distribution(P)
        a = empirical_random_target(P, pi, 0, trials=300, seed=8)
        b = empirical_random_target(P, pi, 0, trials=300, seed=8)
        assert a == b

    def test_mean_is_start_independent(self):
        P = transition_matrix(families.cycle_graph(4))
        pi = stationary_distribution(P)
        t_hit, _ = hit_time(hitting_times(P, pi), pi)
        for start in range(4):
            stats = empirical_random_target(P, pi, start, trials=20000, seed=42)
            assert abs(stats.mean - t_hit) <= 5.0 * stats.stderr

    def test_complete_graph(self):
        P = transition_matrix(families.complete_graph(3))
        pi = stationary_distribution(P)
        stats = empirical_random_target(P, pi, 0, trials=20000, seed=11)
        assert abs(stats.mean - 4.0 / 3.0) <= 5.0 * stats.stderr

    def test_lazy_chain_still_hits(self):
        P = transition_matrix(families.cycle_graph(4), beta=0.25)
        pi = stationary_distribution(P)
        stats = empirical_random_target(P, pi, 1, trials=8000, seed=2)
        # laziness inflates expected times by 1 / (1 - beta)
        assert abs(stats.mean - 2.5 / 0.75) <= 5.0 * stats.stderr
