"""Time reversal, forget distributions, the stationary core, and their duality identities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import IntegrityError
from .graph import Distribution, TransitionMatrix
from .greens import (
    NEGATIVE_TOL,
    access_time,
    access_times,
    exit_frequency_matrix,
    greens_general,
    ExitFrequencyMatrix,
)
from .hitting import TIME_TOL, time_scale

if TYPE_CHECKING:
    from .pipeline import ChainAnalysis


@dataclass(frozen=True)
class DualityReport:
    """Everything the reverse chain says about the forward one."""

    forget: Distribution          # forget distribution of the forward chain
    reverse_forget: Distribution  # forget distribution of the reverse chain
    offsets: np.ndarray           # column minima b of X_pi
    core: Distribution            # the pi-core
    core_exit: ExitFrequencyMatrix
    t_forget: float
    residuals: dict[str, float]


def reverse_chain(P: TransitionMatrix, pi: Distribution) -> TransitionMatrix:
    """The dual chain with entries pi_j p_ji / pi_i; pi stays stationary.

    Reversible chains come back unchanged, and reversing twice is the
    identity.
    """
    probs = P.probs.T * pi.probs[None, :] / pi.probs[:, None]
    graph = P.graph if (P.graph is not None and P.graph.undirected) else None
    return TransitionMatrix(probs, beta=P.beta, graph=graph)


def _forget_weights(pi: Distribution, probs: np.ndarray, mix: np.ndarray) -> np.ndarray:
    return pi.probs * (1.0 + probs @ mix - mix)


def _as_distribution(weights: np.ndarray, what: str) -> Distribution:
    worst = float(weights.min())
    if worst < -NEGATIVE_TOL:
        raise IntegrityError(f"{what} has negative mass {worst:.3e}", residual=-worst)
    w = np.maximum(weights, 0.0)
    return Distribution(w / w.sum())


def forget_distribution(chain: ChainAnalysis) -> Distribution:
    """The unique target achieving the forget time of the chain.

    The weight formula pi_i (1 + sum_j p_ij H(j, pi) - H(i, pi)) evaluated
    with forward quantities yields the reverse chain's forget distribution,
    so this applies it to the reverse chain instead.
    """
    pi, rev = chain.stationary, chain.reverse
    mix_rev = access_times(rev.hitting, pi)
    return _as_distribution(_forget_weights(pi, rev.transition.probs, mix_rev), "forget distribution")


def forget_time(chain: ChainAnalysis) -> float:
    """min over targets tau of max_i H(i, tau), cross-checked against the dual reset time."""
    H, pi = chain.hitting, chain.stationary
    value = float(access_times(H, forget_distribution(chain)).max())
    reset_rev = float(pi.probs @ access_times(chain.reverse.hitting, pi))
    gap = abs(value - reset_rev)
    if gap > TIME_TOL * time_scale(H.values):
        raise IntegrityError(
            f"forget time {value!r} disagrees with the reverse reset time {reset_rev!r}",
            residual=gap,
        )
    return value


def pi_core(chain: ChainAnalysis) -> tuple[Distribution, ExitFrequencyMatrix]:
    """The distribution whose exit matrix is X_pi shifted down by its column minima.

    The core is recovered algebraically from conservation,
    core^T = pi^T + b^T (I - P) with b the column minima of X_pi; the
    reverse-chain weight formula is evaluated as an independent route and
    the two must agree. The shifted matrix X_pi - 1 b^T is returned as the
    core's exit matrix.
    """
    P, pi, X = chain.transition, chain.stationary, chain.exit_pi
    b = X.values.min(axis=0)
    core_weights = pi.probs + (np.eye(P.n) - P.probs).T @ b
    core = _as_distribution(core_weights, "pi-core")
    shifted = X.values - b[None, :]
    core_exit = ExitFrequencyMatrix(shifted, target=core, access=shifted.sum(axis=1))

    rev = chain.reverse
    acc_rev = access_times(rev.hitting, forget_distribution(rev))
    formula = _forget_weights(pi, rev.transition.probs, acc_rev)
    gap = float(np.abs(formula - core_weights).max())
    if gap > TIME_TOL * time_scale(chain.hitting.values):
        raise IntegrityError(f"pi-core routes disagree by {gap:.3e}", residual=gap)
    return core, core_exit


def duality_checks(chain: ChainAnalysis) -> DualityReport:
    """Evaluate every forward/reverse identity and record its residual.

    Nothing is asserted here; the report is diagnostic. Residuals cover the
    exit-frequency conjugation, both Green's function duals, the core
    decomposition of the mixing time, the reset/forget exchange, and the
    optimality (zero row minimum) of the conjugated exit matrix.
    """
    P, pi = chain.transition, chain.stationary
    n = P.n
    p = pi.probs
    H, G, X = chain.hitting, chain.greens, chain.exit_pi
    mix = X.access
    t_reset = float(p @ mix)

    rev = chain.reverse
    Hrev, Grev = rev.hitting, rev.greens
    mix_rev = access_times(Hrev, pi)
    t_reset_rev = float(p @ mix_rev)

    mu_hat = forget_distribution(rev)
    mu = forget_distribution(chain)
    t_forget = float(access_times(H, mu).max())
    t_forget_rev = float(access_times(Hrev, mu_hat).max())

    core, core_exit = pi_core(chain)
    b = X.values.min(axis=0)

    ratio = p[None, :] / p[:, None]
    dual_image = core_exit.values.T * ratio
    X_rev_mu = exit_frequency_matrix(Hrev, pi, mu_hat)
    eye = np.eye(n)

    acc_rev_mu = access_times(Hrev, mu_hat)
    G_rev_mu = greens_general(Hrev, pi, mu_hat).values
    G_core = greens_general(H, pi, core).values
    forget_rhs = G.values.T * ratio + p[None, :] * (mix[None, :] - t_reset)
    core_rhs = Grev.values.T * ratio + p[None, :] * (
        acc_rev_mu[None, :] - float(p @ acc_rev_mu)
    )

    acc_core = access_times(H, core)
    core_to_pi = access_time(H, core, pi)

    residuals = {
        "reverse_involution": float(np.abs(reverse_chain(rev.transition, pi).probs - P.probs).max()),
        "reverse_stationary": float(np.abs(p @ rev.transition.probs - p).max()),
        "reset_equals_reverse_forget": abs(t_reset - t_forget_rev),
        "forget_equals_reverse_reset": abs(t_forget - t_reset_rev),
        "exit_conjugation": float(np.abs(X_rev_mu.values - dual_image).max()),
        "dual_image_conservation": float(
            np.abs(dual_image @ (eye - rev.transition.probs) - (eye - np.outer(np.ones(n), mu_hat.probs))).max()
        ),
        "dual_image_row_min": float(dual_image.min(axis=1).max()),
        "greens_forget_dual": float(np.abs(G_rev_mu - forget_rhs).max()),
        "greens_core_dual": float(np.abs(G_core - core_rhs).max()),
        "core_decomposition": float(np.abs(mix - (acc_core + core_to_pi)).max()),
    }
    return DualityReport(
        forget=mu,
        reverse_forget=mu_hat,
        offsets=b,
        core=core,
        core_exit=core_exit,
        t_forget=t_forget,
        residuals=residuals,
    )
