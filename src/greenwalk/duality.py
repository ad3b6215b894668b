"""Time reversal, forget distributions and the stationary core, with the reverse chain's involution check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tolerance
from .errors import require
from .graph import Distribution, TransitionMatrix, walk_laplacian
from .greens import ExitFrequencyMatrix, Rules

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
    reverse_involution: float     # the residual of dual_reverse_involution


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


def duality_checks(chain: ChainAnalysis) -> DualityReport:
    """The reverse chain's report on the forward one: the forget distributions, the pi-core and its exit matrix.

    Its own check is ``dual_reverse_involution``: reversing the reverse chain
    gives back P, to ``tolerance.bound`` at size n on the probability scale
    (1, RESIDUAL). The builders check the rest: the core's two routes
    (``core_routes``), the reverse chain's row sums and first-step equations,
    and the nonnegative mass of each distribution.
    """
    P, pi, rev = chain.transition, chain.stationary, chain.reverse
    mu, mu_hat = chain.forget, rev.forget
    t_forget = float(chain.forget_rules.access.max())
    core, core_exit, offsets = pi_core(chain)
    involution = tolerance.gap(reverse_chain(rev.transition, pi).probs, P.probs)
    involution = require("dual_reverse_involution", involution, tolerance.bound(P.n, 1.0, tolerance.RESIDUAL))
    return DualityReport(
        forget=mu,
        reverse_forget=mu_hat,
        offsets=offsets,
        core=core,
        core_exit=core_exit,
        t_forget=t_forget,
        reverse_involution=involution,
    )
