"""Seeded random-walk simulation for empirical validation of the analytic routes."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RunawayError, ValidationError
from .graph import Distribution, TransitionMatrix

STEP_CAP = 10**9  # a walk still short of its stop after this many steps raises RunawayError
_MASK64 = (1 << 64) - 1
_BUFFER = 128


@dataclass(frozen=True)
class SimStats:
    """Trial count, sample mean, and standard error of a simulation."""

    trials: int
    mean: float
    stderr: float
    seed: int


class _TrialStreams:
    """Per-trial Philox substreams keyed by (seed, trial index).

    Each trial gets the stream of a fresh Philox with that key, so results
    do not depend on execution order; the state is reset in place instead
    of constructing a generator per trial.
    """

    def __init__(self, seed: int):
        self._bg = np.random.Philox(key=np.array([seed & _MASK64, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        self._template = self._bg.state

    def trial(self, t: int) -> np.random.Generator:
        state = self._template
        state["state"]["key"][1] = t & _MASK64
        state["state"]["counter"][:] = 0
        self._bg.state = state
        return self._gen


def _cumulative_rows(P: TransitionMatrix) -> list[tuple[list[float], list[int]]]:
    """Per vertex, the running sums of its row at its arcs, and the arcs' targets.

    The sums are the floats of the dense row's cumsum at the arc columns
    (a zero entry adds nothing), with the last arc's set to exactly 1: a
    running sum that rounds short of 1 would otherwise let a uniform step
    past the last arc.
    """
    rows, cols = np.nonzero(P.probs > 0)  # row-major: each row's arcs in column order
    cum = np.cumsum(P.probs, axis=1)[rows, cols]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=P.n))])
    cum[bounds[1:] - 1] = 1.0
    cum, cols, bounds = cum.tolist(), cols.tolist(), bounds.tolist()
    return [(cum[a:b], cols[a:b]) for a, b in zip(bounds, bounds[1:])]


def _walk(rows, start: int, stop: int, rng: np.random.Generator, max_steps: int) -> int:
    if start == stop:
        return 0
    v = start
    left = max_steps  # steps the walk may still take
    while True:
        # one block of uniforms at a time, as the per-step draws would consume them;
        # the block in which the cap falls ends at the cap
        block = rng.random(_BUFFER).tolist()
        if left < _BUFFER:
            del block[left:]
        k = 0
        for u in block:
            cum, targets = rows[v]
            v = targets[bisect_right(cum, u)]
            k += 1
            if v == stop:
                return max_steps - left + k
        left -= k
        if not left:
            raise RunawayError(f"walk exceeded {max_steps} steps without reaching {stop}")


def _stats(counts: np.ndarray, seed: int) -> SimStats:
    trials = counts.size
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return SimStats(trials=trials, mean=mean, stderr=stderr, seed=seed)


def _simulate(P: TransitionMatrix, vertices: tuple[int, ...], trials: int, seed: int, trial: Callable) -> SimStats:
    """The statistics of ``trial(rows, rng)``'s step counts, one call per trial on its own Philox substream."""
    if not all(0 <= v < P.n for v in vertices):
        raise ValidationError("start and stop must be vertices")
    if trials < 1:
        raise ValidationError("need at least one trial")
    rows = _cumulative_rows(P)
    streams = _TrialStreams(seed)
    counts = np.fromiter((trial(rows, streams.trial(t)) for t in range(trials)), dtype=np.int64, count=trials)
    return _stats(counts, seed)


def empirical_hitting(P: TransitionMatrix, i: int, j: int, trials: int, seed: int) -> SimStats:
    """Sample mean of the first-arrival time from i to j over seeded trials."""
    return _simulate(P, (i, j), trials, seed, lambda rows, rng: _walk(rows, i, j, rng, STEP_CAP))


def empirical_random_target(P: TransitionMatrix, pi: Distribution, i: int, trials: int, seed: int) -> SimStats:
    """Mean length of the naive rule: draw a target from pi, walk until reaching it.

    The mean is the stationary-pair hitting time regardless of the start
    vertex i, which is what the callers assert statistically.
    """
    cum_pi = np.cumsum(pi.probs)
    cum_pi[-1] = 1.0
    cum_pi_list = cum_pi.tolist()

    def trial(rows, rng: np.random.Generator) -> int:
        target = bisect_right(cum_pi_list, float(rng.random()))
        return _walk(rows, i, target, rng, STEP_CAP)

    return _simulate(P, (i,), trials, seed, trial)
