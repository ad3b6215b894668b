"""Time reversal, forget distributions, the stationary core, and their duality identities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tolerance
from .errors import Check, require
from .graph import Distribution, TransitionMatrix, walk_laplacian
from .greens import (
    ExitFrequencyMatrix,
    GreensMatrix,
    Rules,
    exit_frequency_matrix,
    greens_general,
    verify_green_constraints,
)

if TYPE_CHECKING:
    from .pipeline import ChainAnalysis


@dataclass(frozen=True)
class DualityReport:
    """Everything the reverse chain says about the forward one.

    ``checks`` holds each identity as a ``dual_<key>`` (name, residual, limit)
    triple; ``residuals`` reads them by key.
    """

    forget: Distribution          # forget distribution of the forward chain
    reverse_forget: Distribution  # forget distribution of the reverse chain
    offsets: np.ndarray           # column minima b of X_pi
    core: Distribution            # the pi-core
    core_exit: ExitFrequencyMatrix
    t_forget: float
    checks: list[Check]

    @property
    def residuals(self) -> dict[str, float]:
        return {name.removeprefix("dual_"): residual for name, residual, _ in self.checks}


def reverse_chain(P: TransitionMatrix, pi: Distribution) -> TransitionMatrix:
    """The dual chain with entries pi_j p_ji / pi_i; pi stays stationary.

    Reversible chains come back unchanged, and reversing twice is the
    identity. Row i sums to (pi P)_i / pi_i, so a pi off stationary fails
    the check ``reverse_row_sum`` on pi_i times the drift, which is
    |(pi P)_i - pi_i| up to rounding and shares the scale of pi. Drift
    within the limit is divided out.
    """
    p = pi.probs
    probs = P.probs.T * p
    probs /= p[:, None]
    sums = probs.sum(axis=1)
    require("reverse_row_sum", np.abs(p * (sums - 1.0)).max(), tolerance.bound(P.n, 1.0, tolerance.RESIDUAL))
    probs /= sums[:, None]
    graph = P.graph if (P.graph is not None and P.graph.undirected) else None
    return TransitionMatrix(probs, beta=P.beta, graph=graph)


def _forget_weights(chain: ChainAnalysis, rules: Rules) -> np.ndarray:
    return rules.stationary.probs * (1.0 + chain.transition.probs @ rules.access - rules.access)


def _as_distribution(weights: np.ndarray, name: str, scale: float) -> Distribution:
    require(name, -weights.min(), tolerance.bound(weights.size, scale, tolerance.RESIDUAL))
    w = np.maximum(weights, 0.0)
    return Distribution(w / w.sum())


def forget_distribution(chain: ChainAnalysis) -> Distribution:
    """The unique target achieving the forget time of the chain.

    The weight formula pi_i (1 + sum_j p_ij H(j, pi) - H(i, pi)) evaluated
    with forward quantities yields the reverse chain's forget distribution,
    so this applies it to the reverse chain instead.
    """
    rev = chain.reverse
    return _as_distribution(_forget_weights(rev, rev.pi_rules), "forget_negative_mass", rev.entry_scale)


def pi_core(chain: ChainAnalysis) -> tuple[Distribution, ExitFrequencyMatrix, np.ndarray]:
    """The distribution whose exit matrix is X_pi shifted down by its column minima.

    The core is recovered algebraically from conservation,
    core^T = pi^T + b^T (I - P) with b the column minima of X_pi; the
    reverse-chain weight formula is evaluated as an independent route and
    the two must agree. Returns the core, the shifted matrix X_pi - 1 b^T
    as its exit matrix, and b.
    """
    P, pi, X = chain.transition, chain.stationary, chain.exit_pi
    b = X.values.min(axis=0)
    core_weights = pi.probs + walk_laplacian(P).T @ b
    core = _as_distribution(core_weights, "core_negative_mass", chain.entry_scale)
    shifted = X.values - b[None, :]
    core_exit = ExitFrequencyMatrix(shifted, target=core, access=shifted.sum(axis=1))

    formula = _forget_weights(chain.reverse, chain.reverse.forget_rules)
    limit = tolerance.bound(P.n, chain.entry_scale, tolerance.ROUTE)
    require("core_routes", tolerance.gap(formula, core_weights), limit)
    return core, core_exit, b


def _conjugated(values: np.ndarray, p: np.ndarray) -> np.ndarray:
    """values^T scaled by p_j / p_i, entry for entry values.T * (p[None, :] / p[:, None]), in row blocks.

    The blocks keep the n x n ratio from being built whole; each entry is
    rounded as it would be there.
    """
    out = np.empty(values.shape)
    for rows in tolerance.row_blocks(out.shape):
        np.multiply(values.T[rows], p[None, :] / p[rows, None], out=out[rows])
    return out


def _green_dual(values: np.ndarray, p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The right side of a Green's function dual: values^T scaled by p_j / p_i, plus p_j h_j in column j."""
    rhs = _conjugated(values, p)
    rhs += p * h
    return rhs


def duality_checks(chain: ChainAnalysis) -> DualityReport:
    """Every forward/reverse identity, computed once, as a (name, residual, limit) check.

    Each limit is ``tolerance.bound`` at size n on one of three scales.
    Probabilities (1, RESIDUAL): the reverse chain's involution and
    stationarity. Expected times (the forward T, ROUTE): the reset/forget
    exchange both ways and the core decomposition. Entries of G and X
    (``entry_scale``, ROUTE): the exit conjugation, its image's conservation,
    and both Green's function duals. Nothing is raised here;
    ``errors.failed`` decides the checks.
    """
    P, pi, rev = chain.transition, chain.stationary, chain.reverse
    n, p = P.n, pi.probs
    H, G = chain.hitting, chain.greens
    mu, mu_hat = chain.forget, rev.forget
    probs = tolerance.bound(n, 1.0, tolerance.RESIDUAL)
    times = tolerance.bound(n, H.time_scale, tolerance.ROUTE)
    entries = tolerance.bound(n, chain.entry_scale, tolerance.ROUTE)

    mix = chain.pi_rules.access  # H(i, pi)
    t_reset = float(p @ mix)
    t_reset_rev = float(p @ rev.pi_rules.access)
    t_forget = float(chain.forget_rules.access.max())
    # each n x n temporary goes as soon as its residual is read
    X_rev_mu = exit_frequency_matrix(rev.forget_rules)
    acc_rev_mu = X_rev_mu.access  # Hrev(i, mu_hat)
    core, core_exit, offsets = pi_core(chain)
    core_rules = Rules(H, pi, core)
    dual_image = _conjugated(core_exit.values, p)
    exit_conjugation = tolerance.gap(X_rev_mu.values, dual_image)
    del X_rev_mu
    conservation = verify_green_constraints(GreensMatrix(dual_image, mu_hat), rev.transition)
    del dual_image
    forget_dual = tolerance.gap(greens_general(rev.forget_rules).values, _green_dual(G.values, p, mix - t_reset))
    core_shift = acc_rev_mu - float(p @ acc_rev_mu)
    core_dual = tolerance.gap(greens_general(core_rules).values, _green_dual(rev.greens.values, p, core_shift))
    # H(., pi) = H(., core) + H(core, pi)
    core_mix = core_rules.access + float((core_rules.from_target - chain.pi_rules.from_target).max())

    checks = [
        ("dual_reverse_involution", tolerance.gap(reverse_chain(rev.transition, pi).probs, P.probs), probs),
        ("dual_reverse_stationary", tolerance.gap(p @ rev.transition.probs, p), probs),
        ("dual_reset_equals_reverse_forget", abs(t_reset - float(acc_rev_mu.max())), times),
        ("dual_forget_equals_reverse_reset", abs(t_forget - t_reset_rev), times),
        ("dual_exit_conjugation", exit_conjugation, entries),
        ("dual_dual_image_conservation", conservation, entries),
        ("dual_greens_forget_dual", forget_dual, entries),
        ("dual_greens_core_dual", core_dual, entries),
        ("dual_core_decomposition", tolerance.gap(mix, core_mix), times),
    ]
    return DualityReport(
        forget=mu,
        reverse_forget=mu_hat,
        offsets=offsets,
        core=core,
        core_exit=core_exit,
        t_forget=t_forget,
        checks=checks,
    )
