"""Output checks made apart from greenwalk: the benchmark's own numpy code.

Every check is a residual compared against a limit, recorded in a Ledger
under the operation it belongs to. Limits follow the rounding bound
``n · eps · scale`` of a length-n dot product over entries of size
``scale``, times a fixed slack; nothing here is compared against a stored
copy of the program's output.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)
SLACK = 1e3          # multiple of the rounding bound a residual may reach
SIM_STDERRS = 6.0    # a simulated mean may miss the exact value by this many standard errors


def bound(n: int, scale: float) -> float:
    """Limit for a residual of an n-term computation over entries of size ``scale``."""
    return SLACK * n * EPS * max(1.0, float(scale))


class Ledger:
    """Residual-against-limit records, grouped by operation key."""

    def __init__(self):
        self.entries: list[tuple[str, str, float, float]] = []
        self.failures: dict[str, list[str]] = {}

    def close(self, op: str, name: str, residual, limit) -> None:
        residual, limit = float(residual), float(limit)
        self.entries.append((op, name, residual, limit))
        if not residual <= limit:  # NaN fails too
            self.fail(op, f"{name}: residual {residual:.3e} exceeds {limit:.3e}")

    def require(self, op: str, ok: bool, message: str) -> None:
        if not ok:
            self.fail(op, message)

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, []).append(message)

    def worst(self) -> dict[str, float]:
        """Largest residual/limit ratio seen for each check name."""
        out: dict[str, float] = {}
        for _, name, residual, limit in self.entries:
            ratio = residual / limit if limit > 0 else math.inf
            out[name] = max(out.get(name, 0.0), ratio)
        return out


# ---------------------------------------------------------------------------
# the chain, rebuilt from the graph file


def read_edge_list(path) -> tuple[np.ndarray, bool]:
    """Dense weight matrix and undirected flag of an edge-list file."""
    rows, undirected = [], False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                undirected |= line[1:].strip().lower() == "undirected"
            elif line:
                parts = line.split()
                rows.append((int(parts[0]), int(parts[1]), float(parts[2]) if len(parts) > 2 else 1.0))
    arcs = np.array(rows, dtype=float)
    src, dst = arcs[:, 0].astype(int), arcs[:, 1].astype(int)
    n = int(max(src.max(), dst.max())) + 1
    W = np.zeros((n, n))
    np.add.at(W, (src, dst), arcs[:, 2])
    if undirected:
        off = src != dst
        np.add.at(W, (dst[off], src[off]), arcs[off, 2])
    return W, undirected


def transition(W: np.ndarray, beta: float = 0.0) -> np.ndarray:
    P = W / W.sum(axis=1)[:, None]
    return beta * np.eye(len(W)) + (1.0 - beta) * P


def stationary(P: np.ndarray) -> np.ndarray:
    """Solve (I - P^T + 1 1^T) x = 1, whose solution is pi for an irreducible chain."""
    n = len(P)
    return np.linalg.solve(np.eye(n) - P.T + 1.0, np.ones(n))


def hitting_column(P: np.ndarray, j: int) -> np.ndarray:
    """H(., j) from the first-step system h = 1 + P h off j, h(j) = 0."""
    n = len(P)
    keep = np.arange(n) != j
    h = np.zeros(n)
    h[keep] = np.linalg.solve(np.eye(n - 1) - P[np.ix_(keep, keep)], np.ones(n - 1))
    return h


def normalized_laplacian_eigenvalues(W: np.ndarray) -> np.ndarray:
    root = 1.0 / np.sqrt(W.sum(axis=1))
    return np.linalg.eigvalsh(np.eye(len(W)) - root[:, None] * W * root[None, :])


def toric_kemeny(dims) -> float:
    """sum over nonzero modes of 1 / lambda for the torus C_{m_1} x ... x C_{m_d}."""
    grids = np.meshgrid(*[np.cos(2.0 * np.pi * np.arange(m) / m) for m in dims], indexing="ij")
    lam = 1.0 - sum(grids).ravel() / len(dims)
    return float((1.0 / lam[1:]).sum())


# ---------------------------------------------------------------------------
# checks on emitted matrices


def check_hitting(led: Ledger, op: str, H: np.ndarray, P: np.ndarray) -> None:
    """Zero diagonal and the first-step equations H = 1 + P H off the diagonal."""
    n, scale = len(H), float(np.abs(H).max())
    led.close(op, "hitting.diagonal", np.abs(np.diag(H)).max(), bound(n, scale))
    R = H - 1.0 - P @ H
    np.fill_diagonal(R, 0.0)
    led.close(op, "hitting.first_step", np.abs(R).max(), bound(n, scale))


def check_cycle_hitting(led: Ledger, op: str, H: np.ndarray) -> None:
    """H(i, j) = d (n - d) on the n-cycle, with d = (j - i) mod n."""
    n = len(H)
    idx = np.arange(n)
    d = (idx[None, :] - idx[:, None]) % n
    led.close(op, "hitting.cycle_closed_form", np.abs(H - d * (n - d)).max(), bound(n, n * n / 4))


def check_green(led: Ledger, op: str, G, H, pi, tau, P) -> None:
    """The paper's formula against the emitted H, G (I - P) = I - 1 tau^T, and zero row sums."""
    n = len(G)
    expected = pi[None, :] * ((tau @ H)[None, :] - H)
    led.close(op, "green.formula", np.abs(G - expected).max(), bound(n, pi.max() * np.abs(H).max()))
    scale = float(np.abs(G).max())
    eye = np.eye(n)
    led.close(op, "green.constraint", np.abs(G @ (eye - P) - (eye - tau[None, :])).max(), bound(n, scale))
    led.close(op, "green.row_sum", np.abs(G.sum(axis=1)).max(), bound(n, scale))


def check_exit(led: Ledger, op: str, X, tau, P) -> None:
    """X >= 0, a halting state (zero) in every row, and X (I - P) = I - 1 tau^T."""
    n, scale = len(X), float(np.abs(X).max())
    led.close(op, "exit.nonnegative", max(0.0, -float(X.min())), bound(n, scale))
    led.close(op, "exit.halting_state", X.min(axis=1).max(), bound(n, scale))
    eye = np.eye(n)
    led.close(op, "exit.conservation", np.abs(X @ (eye - P) - (eye - tau[None, :])).max(), bound(n, scale))


def check_close(led: Ledger, op: str, name: str, value, expected, n: int | None = None) -> None:
    """Two arrays or scalars agree to the rounding bound of the n-term computations behind them.

    ``n`` defaults to the length of the array; pass the graph size for a
    scalar derived from n x n matrices.
    """
    a, b = np.asarray(value, dtype=float), np.asarray(expected, dtype=float)
    led.require(op, a.shape == b.shape, f"{name}: shape {a.shape} != {b.shape}")
    if a.shape == b.shape:
        size = n if n is not None else (a.shape[0] if a.ndim else 1)
        led.close(op, name, np.abs(a - b).max(), bound(size, np.abs(b).max()))


def check_simulated_mean(led: Ledger, op: str, stats: dict, trials: int, exact: float) -> None:
    """The requested trial count, and a mean within SIM_STDERRS standard errors of the exact value."""
    led.require(op, stats["trials"] == trials, f"trials {stats['trials']} != requested {trials}")
    stderr = float(stats["stderr"])
    led.require(op, stderr > 0.0, f"standard error {stderr} is not positive")
    if stderr > 0.0:
        led.close(op, "simulate.mean_in_stderrs", abs(float(stats["mean"]) - exact) / stderr, SIM_STDERRS)
