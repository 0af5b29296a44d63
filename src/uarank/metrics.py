"""Stability gaps, utility scores, and the individual-fairness composition check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .types import PredictionMatrix, RankingDistribution, UtilitySpec, _check_scalar

_DEGENERATE_REL = 1e-12  # bounds closer than this fraction of the best utility are equal
_SCALE_DOWN = "scale the label values or position weights down"


@dataclass(frozen=True)
class StabilityReport:
    inf_gap: float  # ||r(P) - r(P')||_inf
    l1_dist: float  # ||P - P'||_1
    ratio: float | None  # inf_gap / l1_dist, omitted for identical inputs


def stability_gap(
    r: Callable[[PredictionMatrix], RankingDistribution], P: PredictionMatrix, P2: PredictionMatrix
) -> StabilityReport:
    """Ranking deviation between two prediction matrices under the ranking function r,
    e.g. `ua_rank` or `functools.partial(compute_ranking, "opt", u=u)`.

    Matrices of different shapes are a ValidationError before r is called.  A
    ratio that overflows float64 (inputs that differ by a subnormal flipping a
    tie) is a ValidationError.
    """
    if (P.n, P.L) != (P2.n, P2.L):
        raise ValidationError(
            f"prediction matrices have different shapes: {P.n}x{P.L} vs {P2.n}x{P2.L}"
        )
    inf_gap = r(P).linf_gap(r(P2))
    l1 = float(np.abs(P.rows - P2.rows).sum())
    ratio = inf_gap / l1 if l1 > 0.0 else None
    if ratio is not None and not np.isfinite(ratio):
        raise ValidationError(f"stability ratio overflows: inf_gap {inf_gap} over l1_dist {l1}")
    return StabilityReport(inf_gap=inf_gap, l1_dist=l1, ratio=ratio)


def utility(P: PredictionMatrix, M: RankingDistribution, u: UtilitySpec) -> float:
    """Expected ranking utility: sum_i sum_k M[i,k] * w_k * tau(p_i).

    A utility that is not finite (float64 overflow) is a ValidationError.
    """
    if M.n != P.n:
        raise ValidationError(f"ranking is {M.n}x{M.n} but prediction matrix has n={P.n}")
    tau = u.tau(P)
    w = u.weights_for(P.n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, not warned about
        raw = float(M.position_values(tau) @ w)
    if not np.isfinite(raw):
        raise ValidationError(f"utility overflows: raw {raw}; {_SCALE_DOWN}")
    return raw


@dataclass(frozen=True)
class UtilityReport:
    raw: float
    min: float
    max: float
    normalized: float


def normalized_utility(P: PredictionMatrix, M: RankingDistribution, u: UtilitySpec) -> UtilityReport:
    """Utility of the ranking M, rescaled to [0, 1] between the worst and best
    deterministic orderings.

    When max - min is at most 1e-12 of max (tau and the weights are nonnegative,
    so this does not depend on the scale of the label values), every ranking is
    optimal and the normalized score is 1 by convention; equal tau values give
    exactly that.  A raw, min or max utility that is not finite (float64
    overflow) is a ValidationError, raw in `utility`.

    The bounds are the utilities of `min_rank` and `opt_rank` (tau ascending and
    descending), taken as sorted tau @ w, as `utility` takes any ranking that
    keeps its order: the bits are those of the matrix products.
    """
    raw = utility(P, M, u)
    tau = np.sort(u.tau(P))
    w = u.weights_for(P.n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, not warned about
        lo = float(tau @ w)
        hi = float(tau[::-1].copy() @ w)  # contiguous, so the dot takes the same BLAS path
    if not np.isfinite([lo, hi]).all():
        raise ValidationError(f"utility overflows: raw {raw}, min {lo}, max {hi}; {_SCALE_DOWN}")
    denom = hi - lo
    if denom <= _DEGENERATE_REL * hi:
        norm = 1.0
    else:
        norm = min(1.0, max(0.0, (raw - lo) / denom))
    return UtilityReport(raw=raw, min=lo, max=hi, normalized=norm)


@dataclass(frozen=True)
class CompositionCheck:
    row_gap: float  # ||row_i(M) - row_j(M)||_inf
    bound: float  # 2 * beta * gamma * d_ij
    passed: bool


def if_composition_check(
    P: PredictionMatrix,
    M: RankingDistribution,
    i: int,
    j: int,
    d_ij: float,
    beta: float,
    gamma: float,
) -> CompositionCheck:
    """Check the stability/individual-fairness composition bound for a pair.

    For an anonymous gamma-stable ranking function applied to a
    (beta, d)-individually-fair predictor, rows i and j of the output can
    differ by at most 2*beta*gamma*d(x_i, x_j) in any entry.
    """
    if M.n != P.n:
        raise ValidationError(f"ranking is {M.n}x{M.n} but prediction matrix has n={P.n}")
    _check_scalar(i, "individual i", f"[0, {M.n})", integer=True)
    _check_scalar(j, "individual j", f"[0, {M.n})", integer=True)
    if i == j:
        raise ValidationError("composition check needs two distinct individuals")
    _check_scalar(d_ij, "distance d_ij", "[0, inf)")
    _check_scalar(beta, "beta", "(0, inf)")
    _check_scalar(gamma, "gamma", "(0, inf)")
    row_gap = M.row_gap(i, j)
    bound = 2.0 * beta * gamma * d_ij
    return CompositionCheck(row_gap=row_gap, bound=bound, passed=row_gap <= bound + 1e-12)
