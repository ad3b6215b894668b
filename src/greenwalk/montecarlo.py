"""Seeded random-walk simulation for empirical validation of the analytic routes."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import RunawayError, ValidationError
from .graph import Distribution, TransitionMatrix

STEP_CAP = 10**9  # a walk still short of its stop after this many steps raises RunawayError
_MASK64 = (1 << 64) - 1
_BUFFER = 128
_TABLE_ENTRIES = 2**19  # step-table cells over all vertices: 4 MB of list slots
_CELLS_PER_ARC = 8  # 4 or 16 made walk-sim's 150-vertex passes slower: more scans, or a longer table build


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


class _StepTable(NamedTuple):
    """Every vertex's step, looked up by the cell of [0, 1) that its uniform falls in.

    ``rows[v][c]`` is v's entry for the cell ``[c, c + 1) / cells``, and
    ``cells`` is a power of two, so a uniform u lies in cell
    ``int(u * cells)`` exactly. An entry ``w >= 0`` is the target that
    ``bisect_right`` on v's running sums picks for every uniform in the
    cell. An entry ``~a`` marks a cell that a running sum falls strictly
    inside: ``a`` is the arc the cell starts in, and u's target is
    ``targets[k]`` for the first ``k >= a`` with ``cum[k] > u``, one of the
    cell's own arcs. ``cum`` and ``targets`` hold every row's running sums
    and arc targets, row after row.
    """

    cells: int
    rows: list[list[int]]
    cum: list[float]
    targets: list[int]


def _cumulative_rows(P: TransitionMatrix) -> _StepTable:
    """The step table of P's rows (see _StepTable).

    The running sums are the floats of the dense row's cumsum at the arc
    columns (a zero entry adds nothing), with the last arc's set to exactly
    1: a running sum that rounds short of 1 would otherwise let a uniform
    step past the last arc.
    """
    n = P.n
    rows, cols = np.nonzero(P.probs > 0)  # row-major: each row's arcs in column order
    cum = np.cumsum(P.probs, axis=1)[rows, cols]
    degrees = np.bincount(rows, minlength=n)
    ends = np.cumsum(degrees)  # one past each row's last arc
    cum[ends - 1] = 1.0
    # Cells per vertex: a power of two at least _CELLS_PER_ARC times the mean
    # out-degree and at least the largest, so that few cells hold a running
    # sum and none holds many, within _TABLE_ENTRIES cells in all.
    want = max(math.ceil(_CELLS_PER_ARC * degrees.mean()), int(degrees.max()))
    cells = min(1 << (want - 1).bit_length(), 1 << ((_TABLE_ENTRIES // n).bit_length() - 1))
    # Arc k holds the uniforms [cum[k - 1], cum[k]), so it starts the cells
    # ceil(cum[k - 1] * cells) to ceil(cum[k] * cells) - 1; scaling by a
    # power of two is exact. A sum that rounds above 1 before the last arc
    # is cut to 1, which changes no step: no uniform reaches it.
    scaled = np.minimum(cum, 1.0) * cells
    edge = np.ceil(scaled).astype(np.intp)
    before = np.concatenate([[0], edge[:-1]])
    before[ends[:-1]] = 0
    vertex = np.array(range(n), dtype=object)  # one int object per vertex keeps the table small in memory
    table = np.repeat(vertex[cols], edge - before).reshape(n, cells)
    # A sum strictly inside a cell (scaled < edge) falls in cell edge - 1 of
    # its row, which starts in the first arc of its row with the same edge.
    key = rows * cells + edge  # one past the sum's cell, numbering the cells row after row
    runs = np.flatnonzero(np.diff(key, prepend=-1))
    first = np.repeat(runs, np.diff(runs, append=key.size))
    inside = scaled < edge
    table.flat[key[inside] - 1] = ~first[inside]
    return _StepTable(cells, table.tolist(), cum.tolist(), vertex[cols].tolist())


def _walk(steps: _StepTable, start: int, stop: int, rng: np.random.Generator, max_steps: int) -> int:
    if start == stop:
        return 0
    cells, table, cum, targets = steps
    v = start
    left = max_steps  # steps the walk may still take
    while True:
        # one block of uniforms at a time, as the per-step draws would consume them;
        # the block in which the cap falls ends at the cap
        block = rng.random(_BUFFER)
        if left < _BUFFER:
            block = block[:left]
        k = 0
        for c in (block * cells).astype(np.intp).tolist():
            v = table[v][c]
            if v < 0:  # a running sum falls inside the cell: step along the cell's own arcs with the exact uniform
                a = ~v
                u = block.item(k)
                while cum[a] <= u:
                    a += 1
                v = targets[a]
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
