"""Printed values against an exact rational reference on small integer-weight chains.

Each chain is the cycle 0-1-...-(n-1)-0 plus n arcs with uniform distinct
endpoints (parallel arcs kept), every weight an integer 1-9, directed or
undirected, for n from 3 to 8. ``fractions.Fraction`` solves it exactly:
pi, Z = (I - P + 1 pi^T)^{-1}, H(i, j) = (Z_jj - Z_ij) / pi_j, and from H
the Green's functions, exit frequencies and mixing measures by their
defining formulas. ``hitting``, ``green``, ``exitfreq`` and ``mixing`` run
through ``cli.main``, and ``spectral`` on the undirected chains, and their
stdout is parsed back, formatting included.
Each must exit 0, which bounds its residuals; every other continuous value it
prints must be within its tolerance limit of the exact one; and the vertex
sets ``pessimal``, ``mixing_pessimal`` and ``halting_states`` must match
exactly.
"""

import functools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from greenwalk import tolerance
from greenwalk.cli import main

SEEDS = range(24)
CHAINS = [pytest.param(undirected, seed, id=f"{'undirected' if undirected else 'directed'}-{seed}")
          for undirected in (False, True) for seed in SEEDS]
TARGETS = ["pi", "uniform", "0"]


def arcs(undirected: bool, seed: int) -> list[tuple[int, int, int]]:
    """The chain's arcs (src, dst, weight); an undirected graph lists each edge once."""
    rng = np.random.default_rng([int(undirected), seed])
    n = 3 + seed % 6
    ends = [(i, (i + 1) % n) for i in range(n)]
    ends += [tuple(rng.choice(n, size=2, replace=False).tolist()) for _ in range(n)]
    return [(i, j, int(w)) for (i, j), w in zip(ends, rng.integers(1, 10, size=len(ends)))]


def _inverse(A: list[list[Fraction]]) -> list[list[Fraction]]:
    """A^{-1} by Gauss-Jordan elimination with exact pivots."""
    n = len(A)
    M = [row[:] + [Fraction(int(i == k)) for k in range(n)] for i, row in enumerate(A)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                M[r] = [x - M[r][c] * y for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


@dataclass(frozen=True)
class Exact:
    pi: list[Fraction]
    H: list[list[Fraction]]

    @property
    def n(self) -> int:
        return len(self.pi)

    def target(self, label: str) -> list[Fraction]:
        if label == "pi":
            return self.pi
        if label == "uniform":
            return [Fraction(1, self.n)] * self.n
        return [Fraction(int(i == int(label))) for i in range(self.n)]

    def from_target(self, tau) -> list[Fraction]:
        """H(tau, j) for every j."""
        return [sum(t * row[j] for t, row in zip(tau, self.H)) for j in range(self.n)]

    def access(self, tau) -> list[Fraction]:
        """H(i, tau) = max_j (H(i, j) - H(tau, j))."""
        h = self.from_target(tau)
        return [max(Hij - hj for Hij, hj in zip(row, h)) for row in self.H]

    def greens(self, tau) -> list[list[Fraction]]:
        h = self.from_target(tau)
        return [[p * (hj - Hij) for p, hj, Hij in zip(self.pi, h, row)] for row in self.H]

    def exit(self, tau) -> list[list[Fraction]]:
        h, a = self.from_target(tau), self.access(tau)
        return [[p * (ai + hj - Hij) for p, hj, Hij in zip(self.pi, h, row)] for ai, row in zip(a, self.H)]

    @property
    def t_hit(self) -> Fraction:
        return sum(p * q * Hij for p, row in zip(self.pi, self.H) for q, Hij in zip(self.pi, row))

    @property
    def measures(self) -> list[Fraction]:
        """[T_mix, T_reset, T_hit]: the largest and the pi-average of H(i, pi), and T_hit."""
        mix = self.access(self.pi)
        return [max(mix), sum(p * h for p, h in zip(self.pi, mix)), self.t_hit]

    @property
    def times(self) -> float:
        """The limit of an expected time: tolerance's ROUTE bound at T, the largest hitting time."""
        return tolerance.bound(self.n, max(map(max, self.H)), tolerance.ROUTE)

    @property
    def entries(self) -> float:
        """The limit of an entry of G or X: ROUTE at pi_max · T."""
        return tolerance.bound(self.n, max(self.pi) * max(map(max, self.H)), tolerance.ROUTE)


@functools.cache
def exact(undirected: bool, seed: int) -> Exact:
    listed = arcs(undirected, seed)
    n = 1 + max(max(i, j) for i, j, _ in listed)
    W = [[Fraction(0)] * n for _ in range(n)]
    for i, j, w in listed:
        W[i][j] += w
        if undirected:
            W[j][i] += w
    P = [[w / sum(row) for w in row] for row in W]
    # pi (I - P) = 0 with the last equation replaced by sum(pi) = 1
    system = [[int(i == j) - P[i][j] for i in range(n)] for j in range(n - 1)] + [[Fraction(1)] * n]
    pi = [row[-1] for row in _inverse(system)]
    Z = _inverse([[int(i == j) - P[i][j] + pi[j] for j in range(n)] for i in range(n)])
    return Exact(pi, [[(Z[j][j] - Z[i][j]) / pi[j] for j in range(n)] for i in range(n)])


@pytest.fixture
def printed(capsys, tmp_path):
    """printed(undirected, seed, *argv): the parsed stdout of one command on the chain, which must exit 0."""

    def run(undirected, seed, *argv):
        path = tmp_path / "chain.edges"
        path.write_text("# undirected\n" * undirected + "".join(f"{i} {j} {w}\n" for i, j, w in arcs(undirected, seed)))
        code = main([*argv, "--input", str(path)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        return json.loads(out)

    return run


def gap(values, reference) -> Fraction:
    """max |value - reference| over matching entries, exactly: a printed float is a rational."""
    flat = np.ravel(np.array(values, dtype=object))
    return max(abs(Fraction(v) - r) for v, r in zip(flat, np.ravel(np.array(reference, dtype=object)), strict=True))


@pytest.mark.parametrize("undirected, seed", CHAINS)
def test_hitting(printed, undirected, seed):
    ref, out = exact(undirected, seed), printed(undirected, seed, "hitting")
    assert gap(out["rows"], ref.H) <= ref.times
    assert gap(out["target"], ref.pi) <= tolerance.bound(ref.n, 1.0, tolerance.ROUTE)
    assert gap([out["residuals"]["t_hit"]], [ref.t_hit]) <= ref.times


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("undirected, seed", CHAINS)
def test_green(printed, undirected, seed, target):
    ref, out = exact(undirected, seed), printed(undirected, seed, "green", "--target", target)
    tau = ref.target(target)
    assert gap(out["rows"], ref.greens(tau)) <= ref.entries
    assert gap(out["target"], tau) <= tolerance.bound(ref.n, 1.0, tolerance.ROUTE)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("undirected, seed", CHAINS)
def test_exitfreq(printed, undirected, seed, target):
    ref, out = exact(undirected, seed), printed(undirected, seed, "exitfreq", "--target", target)
    tau = ref.target(target)
    assert gap(out["rows"], ref.exit(tau)) <= ref.entries
    assert gap(out["target"], tau) <= tolerance.bound(ref.n, 1.0, tolerance.ROUTE)


@pytest.mark.parametrize("undirected, seed", CHAINS)
def test_mixing(printed, undirected, seed):
    ref, out = exact(undirected, seed), printed(undirected, seed, "mixing")
    mix = ref.access(ref.pi)
    assert gap([out["t_mix"], out["t_reset"], out["t_hit"]], ref.measures) <= ref.times
    assert gap(out["mixing_times"], mix) <= ref.times
    # argmax_j H(j, i), ties to the lowest j; the times H(i, pi) equal to T_mix; the zeros of each row of X_pi
    columns = [[row[i] for row in ref.H] for i in range(ref.n)]
    assert out["pessimal"] == [column.index(max(column)) for column in columns]
    assert out["mixing_pessimal"] == [i for i, h in enumerate(mix) if h == max(mix)]
    assert out["halting_states"] == [[j for j, x in enumerate(row) if x == 0] for row in ref.exit(ref.pi)]


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"undirected-{seed}")
def test_spectral(printed, seed):
    ref, out = exact(True, seed), printed(True, seed, "spectral")
    assert gap([out["t_mix"], out["t_reset"], out["t_hit"]], ref.measures) <= ref.times
