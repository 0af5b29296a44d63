"""Stability gaps, utility scores, and the individual-fairness composition check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rankers import compute_ranking
from .types import PredictionMatrix, RankingDistribution, UtilitySpec

_DEGENERATE_DENOM = 1e-12


def _abs_difference(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|A - B| in one temporary, refusing arrays of different shapes (no broadcasting)."""
    if A.shape != B.shape:
        raise ValidationError(f"cannot compare arrays of shapes {A.shape} and {B.shape}")
    d = np.subtract(A, B)
    return np.abs(d, out=d)


def l1_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Entrywise 1-norm of the difference."""
    return float(_abs_difference(A, B).sum())


def linf_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Entrywise max-norm of the difference."""
    return float(_abs_difference(A, B).max())


@dataclass(frozen=True)
class StabilityReport:
    inf_gap: float  # ||r(P) - r(P')||_inf
    l1_dist: float  # ||P - P'||_1
    ratio: float | None  # inf_gap / l1_dist, omitted for identical inputs


def stability_gap(
    fn: str,
    P: PredictionMatrix,
    P2: PredictionMatrix,
    u: UtilitySpec | None = None,
    phi: float | None = None,
    samples: int | None = None,
    seed: int | None = None,
) -> StabilityReport:
    """Ranking deviation between two prediction matrices under one ranking function."""
    if (P.n, P.L) != (P2.n, P2.L):
        raise ValidationError(
            f"prediction matrices have different shapes: {P.n}x{P.L} vs {P2.n}x{P2.L}"
        )
    M = compute_ranking(fn, P, u=u, phi=phi, samples=samples, seed=seed)
    M2 = compute_ranking(fn, P2, u=u, phi=phi, samples=samples, seed=seed)
    inf_gap = linf_distance(M.entries, M2.entries)
    l1 = l1_distance(P.rows, P2.rows)
    ratio = inf_gap / l1 if l1 > 0.0 else None
    return StabilityReport(inf_gap=inf_gap, l1_dist=l1, ratio=ratio)


def utility(P: PredictionMatrix, M: RankingDistribution, u: UtilitySpec) -> float:
    """Expected ranking utility: sum_i sum_k M[i,k] * w_k * tau(p_i)."""
    if M.n != P.n:
        raise ValidationError(f"ranking is {M.n}x{M.n} but prediction matrix has n={P.n}")
    tau = u.tau(P)
    w = u.weights_for(P.n)
    return float(tau @ M.entries @ w)


@dataclass(frozen=True)
class UtilityReport:
    raw: float
    min: float
    max: float
    normalized: float


def normalized_utility(
    P: PredictionMatrix,
    fn: str,
    u: UtilitySpec,
    phi: float | None = None,
    samples: int | None = None,
    seed: int | None = None,
) -> UtilityReport:
    """Utility rescaled to [0, 1] between the worst and best deterministic orderings.

    When all tau values coincide the denominator vanishes and every ranking is
    optimal; the normalized score is 1 by convention.  A raw, min or max utility
    that is not finite (float64 overflow) is a ValidationError.

    The bounds are the utilities of `min_rank` and `opt_rank` (tau ascending and
    descending), taken as sorted tau @ w: tau @ M for a permutation matrix M is
    exactly tau in M's order, so the bits are those of the matrix products.
    """
    M = compute_ranking(fn, P, u=u, phi=phi, samples=samples, seed=seed)
    tau = np.sort(u.tau(P))
    w = u.weights_for(P.n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, not warned about
        raw = utility(P, M, u)
        lo = float(tau @ w)
        hi = float(tau[::-1].copy() @ w)  # contiguous, so the dot takes the same BLAS path
    if not np.isfinite([raw, lo, hi]).all():
        raise ValidationError(f"utility overflows: raw {raw}, min {lo}, max {hi}; "
                              "scale the label values or position weights down")
    denom = hi - lo
    if denom < _DEGENERATE_DENOM:
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
    if i == j:
        raise ValidationError("composition check needs two distinct individuals")
    if M.n != P.n:
        raise ValidationError(f"ranking is {M.n}x{M.n} but prediction matrix has n={P.n}")
    for idx in (i, j):
        if not 0 <= idx < M.n:
            raise ValidationError(f"individual index {idx} out of range for n={M.n}")
    if not (d_ij >= 0 and beta > 0 and gamma > 0):  # NaN fails every comparison
        raise ValidationError("need d_ij >= 0 and beta, gamma > 0")
    row_gap = float(np.abs(M.entries[i] - M.entries[j]).max())
    bound = 2.0 * beta * gamma * d_ij
    return CompositionCheck(row_gap=row_gap, bound=bound, passed=row_gap <= bound + 1e-12)
