"""Multigroup fairness audits over a finite typed population.

A population model declares a finite set of types with sampling weights, a
ground-truth label distribution and a predicted one per type, and named
protected groups of types.  The audits measure how multiaccurate or
multicalibrated the predictor is, and how far ranking outcomes under the
predictor drift from ranking outcomes under the ground truth, both by exact
enumeration of type vectors and by Monte-Carlo sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .rankers import checked_ranker, opt_rank, ua_rank
from .types import ROW_SUM_TOL, PredictionMatrix, UtilitySpec, _check_distributions

FULL_DOMAIN_GROUP = "all"
ENUM_BUDGET = 10**6
AUDIT_MAX_N = 16
_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class PopulationModel:
    """Finite typed domain with sampling weights, ground truth, predictor, groups."""

    type_names: tuple
    weights: np.ndarray  # (T,), nonnegative, sums to 1
    ground_truth: np.ndarray  # (T, L) label distributions
    predicted: np.ndarray  # (T, L) label distributions
    groups: dict  # name -> tuple of type indices; always contains the full domain

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        gt = np.asarray(self.ground_truth, dtype=np.float64)
        pred = np.asarray(self.predicted, dtype=np.float64)
        T = len(self.type_names)
        if w.shape != (T,):
            raise ValidationError("type weights must be one per type")
        # Checked, not renormalized: the audits read these arrays bit for bit.
        _check_distributions(w[None], "type weights: ", _WEIGHT_TOL)
        for name, arr in (("ground truth", gt), ("predicted", pred)):
            if arr.ndim != 2 or arr.shape[0] != T:
                raise ValidationError(f"{name} distributions must be a T x L matrix")
            _check_distributions(arr, f"{name}: ", ROW_SUM_TOL)
        if gt.shape != pred.shape:
            raise ValidationError("ground-truth and predicted label counts differ")
        groups = dict(self.groups)
        for name, members in groups.items():
            members = tuple(members)
            if not members or any(not 0 <= t < T for t in members):
                raise ValidationError(f"group '{name}' must be a nonempty subset of types")
            groups[name] = members
        full = tuple(range(T))
        if full not in [tuple(sorted(m)) for m in groups.values()]:
            groups[FULL_DOMAIN_GROUP] = full
        for arr in (w, gt, pred):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "ground_truth", gt)
        object.__setattr__(self, "predicted", pred)
        object.__setattr__(self, "groups", groups)

    @property
    def T(self) -> int:
        return len(self.type_names)

    @property
    def L(self) -> int:
        return self.ground_truth.shape[1]

    def group_mask(self, group: str) -> np.ndarray:
        if group not in self.groups:
            raise ValidationError(f"unknown group '{group}'; known: {sorted(self.groups)}")
        mask = np.zeros(self.T, dtype=bool)
        mask[list(self.groups[group])] = True
        return mask


def two_type_biased_model(alpha: float) -> PopulationModel:
    """Uniform two-type binary-label population with a symmetrically biased predictor.

    Ground truth is (1/2, 1/2) for both types; the predictor overrates type 0
    by alpha and underrates type 1 by alpha.  The canonical hard instance for
    deterministic utility-optimal ranking.
    """
    if not 0.0 < alpha < 0.5:
        raise ValidationError(f"bias must lie in (0, 1/2), got {alpha}")
    return PopulationModel(
        type_names=("1", "2"),
        weights=np.array([0.5, 0.5]),
        ground_truth=np.array([[0.5, 0.5], [0.5, 0.5]]),
        predicted=np.array([[0.5 - alpha, 0.5 + alpha], [0.5 + alpha, 0.5 - alpha]]),
        groups={"1": (0,), "2": (1,)},
    )


@dataclass(frozen=True)
class MultiaccuracyResult:
    per_group: dict  # group name -> violation
    alpha: float  # max over groups


def multiaccuracy_alpha(pop: PopulationModel) -> MultiaccuracyResult:
    """Exact per-group multiaccuracy violations of the predictor.

    For group S: || sum over types in S of weight * (f* - f) ||_inf.
    """
    diff = pop.weights[:, None] * (pop.ground_truth - pop.predicted)
    per_group = {
        name: float(np.abs(diff[list(members)].sum(axis=0)).max())
        for name, members in pop.groups.items()
    }
    return MultiaccuracyResult(per_group=per_group, alpha=max(per_group.values()))


def _bucket_count(delta: float) -> int:
    if not 0.0 < delta <= 1.0:
        raise ValidationError(f"bucket width must lie in (0, 1], got {delta}")
    b = round(1.0 / delta)
    if abs(b * delta - 1.0) > 1e-9:
        raise ValidationError(f"1/delta must be an integer, got delta={delta}")
    return b


def type_buckets(pop: PopulationModel, delta: float) -> list:
    """Calibration bucket (j_1, ..., j_L) of each type, from its predicted row.

    Half-open buckets [j*delta, (j+1)*delta); a predicted value of exactly 1
    goes to the top bucket.
    """
    b = _bucket_count(delta)
    js = np.floor(pop.predicted / delta + 1e-12).astype(int)
    js = np.minimum(js, b - 1)
    return [tuple(int(j) for j in row) for row in js]


@dataclass(frozen=True)
class MulticalibrationResult:
    per_cell: dict  # (group name, bucket tuple) -> violation, occupied cells only
    alpha: float


def multicalibration_alpha(pop: PopulationModel, delta: float) -> MulticalibrationResult:
    """Exact per-(group, bucket) multicalibration violations of the predictor.

    Only buckets occupied by at least one type are enumerated.
    """
    buckets = type_buckets(pop, delta)
    diff = pop.weights[:, None] * (pop.ground_truth - pop.predicted)
    per_cell = {}
    for name, members in pop.groups.items():
        by_bucket = {}
        for t in members:
            by_bucket.setdefault(buckets[t], []).append(t)
        for bucket, ts in by_bucket.items():
            per_cell[(name, bucket)] = float(np.abs(diff[ts].sum(axis=0)).max())
    return MulticalibrationResult(per_cell=per_cell, alpha=max(per_cell.values()))


@dataclass(frozen=True)
class AuditReport:
    group: str
    position: int
    estimate: float  # |mean over samples| of the indicator-weighted rank gap
    mc_error: float  # standard error of the sample mean
    bound: float  # L*n*alpha, or phi*L*n*alpha + 1 - phi for mixtures
    alpha: float  # measured multiaccuracy (or multicalibration) parameter
    samples: int
    seed: int
    bucket: tuple | None = None
    delta: float | None = None


class _RankCache:
    """Per-type-vector ranking matrices, deduplicated up to row permutation.

    The UA ranking function is anonymous, so the matrix for a type vector can
    be recovered from the matrix of its sorted version; the deterministic
    index-tie-broken opt component is order-dependent and computed directly.
    """

    def __init__(self, pop: PopulationModel, fn: str, u: UtilitySpec | None, phi: float | None):
        checked_ranker(fn, audit=True, u=u, phi=phi)
        self.pop = pop
        self.fn = fn
        self.u = u
        self.phi = phi
        self._ua = {}

    def matrices(self, tvec: tuple):
        """(ranking under ground truth, ranking under predictor) for a type vector."""
        out = []
        for which, dist in (("gt", self.pop.ground_truth), ("pred", self.pop.predicted)):
            rows = dist[list(tvec)]
            if self.fn == "ua":
                M = self._ua_matrix(which, tvec, dist)
            elif self.fn == "opt":
                M = opt_rank(PredictionMatrix(rows), self.u).entries
            else:
                ua_part = self._ua_matrix(which, tvec, dist)
                opt_part = opt_rank(PredictionMatrix(rows), self.u).entries
                M = self.phi * ua_part + (1.0 - self.phi) * opt_part
            out.append(M)
        return out

    def _ua_matrix(self, which: str, tvec: tuple, dist: np.ndarray) -> np.ndarray:
        order = np.argsort(np.asarray(tvec), kind="stable")
        key = (which, tuple(sorted(tvec)))
        if key not in self._ua:
            self._ua[key] = ua_rank(PredictionMatrix(dist[list(key[1])])).entries
        M = np.empty_like(self._ua[key])
        M[order] = self._ua[key]
        return M


def _indicator(pop, tvec, mask, bucket_of, bucket):
    """Per-individual indicator: group membership, optionally bucket membership."""
    ind = mask[list(tvec)].astype(np.float64)
    if bucket is not None:
        ind *= np.array([1.0 if bucket_of[t] == bucket else 0.0 for t in tvec])
    return ind


def _sample_value(pop, tvec, cache, mask, k, bucket_of, bucket, fix_last=False):
    """One dataset's contribution: mean over i of 1[x_i in S] * (M*_{i,k} - M_{i,k})."""
    M_star, M_pred = cache.matrices(tvec)
    diff = M_star[:, k - 1] - M_pred[:, k - 1]
    ind = _indicator(pop, tvec, mask, bucket_of, bucket)
    if fix_last:
        return float(ind[-1] * diff[-1])
    return float((ind * diff).mean())


def _gap_bound(pop, n, fn, phi, alpha):
    base = pop.L * n * alpha
    if fn == "mix":
        return phi * base + (1.0 - phi)
    return base


def _measured_alpha(pop, delta):
    if delta is None:
        return multiaccuracy_alpha(pop).alpha
    full_domain = [
        name for name, members in pop.groups.items()
        if tuple(sorted(members)) == tuple(range(pop.T))
    ][0]
    return max(
        multicalibration_alpha(pop, delta).alpha,
        multiaccuracy_alpha(pop).per_group[full_domain],
    )


def theorem_gap_exact(
    pop: PopulationModel,
    n: int,
    k: int,
    group: str,
    fn: str = "ua",
    u: UtilitySpec | None = None,
    phi: float | None = None,
    delta: float | None = None,
    bucket: tuple | None = None,
    budget: int = ENUM_BUDGET,
    fix_last: bool = False,
) -> float:
    """Exact group-level ranking gap by enumerating all T^n type vectors.

    Returns |E[1[x_i in S] * (Pr under ground truth[i -> k] - Pr under
    predictor[i -> k])]| with x drawn i.i.d. from the type weights and i
    uniform over the dataset.  `fix_last` evaluates the i = n variant instead
    of the uniform average; the two agree for anonymous ranking functions but
    not in general.
    """
    _validate_audit_args(pop, n, k, group)
    total = pop.T**n
    if total > budget:
        raise BudgetExceededError(f"enumeration needs {total} type vectors, budget is {budget}")
    cache = _RankCache(pop, fn, u, phi)
    mask = pop.group_mask(group)
    bucket_of = type_buckets(pop, delta) if delta is not None else None
    acc = 0.0
    for tvec in itertools.product(range(pop.T), repeat=n):
        w = float(np.prod(pop.weights[list(tvec)]))
        if w == 0.0:
            continue
        acc += w * _sample_value(pop, tvec, cache, mask, k, bucket_of, bucket, fix_last)
    return abs(acc)


def theorem_gap_estimate(
    pop: PopulationModel,
    n: int,
    k: int,
    group: str,
    fn: str = "ua",
    mc_samples: int = 10_000,
    seed: int = 0,
    u: UtilitySpec | None = None,
    phi: float | None = None,
    delta: float | None = None,
    bucket: tuple | None = None,
) -> AuditReport:
    """Monte-Carlo estimate of the group-level ranking gap, with standard error."""
    _validate_audit_args(pop, n, k, group)
    if mc_samples < 1:
        raise ValidationError(f"need at least one sample, got {mc_samples}")
    if n > AUDIT_MAX_N:
        raise BudgetExceededError(f"audit sampling limited to n <= {AUDIT_MAX_N}, got {n}")
    cache = _RankCache(pop, fn, u, phi)
    mask = pop.group_mask(group)
    bucket_of = type_buckets(pop, delta) if delta is not None else None
    rng = np.random.default_rng(seed)
    draws = rng.choice(pop.T, size=(mc_samples, n), p=pop.weights)
    values = np.array([
        _sample_value(pop, tuple(row), cache, mask, k, bucket_of, bucket)
        for row in draws
    ])
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(mc_samples)) if mc_samples > 1 else 0.0
    alpha = _measured_alpha(pop, delta)
    return AuditReport(
        group=group,
        position=k,
        estimate=abs(mean),
        mc_error=se,
        bound=_gap_bound(pop, n, fn, phi, alpha),
        alpha=alpha,
        samples=mc_samples,
        seed=seed,
        bucket=bucket,
        delta=delta,
    )


@dataclass(frozen=True)
class NatureClosenessReport:
    eps: float  # max over types of ||f - f*||_1
    bound: float  # n * eps (gamma = 1 for the UA ranking)
    max_gap: float  # largest sampled ||ua(f) - ua(f*)||_inf
    within_bound: bool
    samples: int
    seed: int


def nature_closeness_check(
    pop: PopulationModel, n: int, seed: int = 0, samples: int = 50
) -> NatureClosenessReport:
    """Sampled check that predictor-close-to-truth implies rankings close.

    eps bounds the per-type 1-norm prediction error; every sampled dataset
    must satisfy ||ua(predicted) - ua(ground truth)||_inf <= n * eps.
    """
    if n < 1:
        raise ValidationError(f"dataset size must be positive, got {n}")
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    eps = float(np.abs(pop.predicted - pop.ground_truth).sum(axis=1).max())
    rng = np.random.default_rng(seed)
    draws = rng.choice(pop.T, size=(samples, n), p=pop.weights)
    cache = _RankCache(pop, "ua", None, None)
    max_gap = 0.0
    for row in draws:
        M_star, M_pred = cache.matrices(tuple(row))
        max_gap = max(max_gap, float(np.abs(M_pred - M_star).max()))
    bound = n * eps
    return NatureClosenessReport(
        eps=eps,
        bound=bound,
        max_gap=max_gap,
        within_bound=max_gap <= bound + 1e-12,
        samples=samples,
        seed=seed,
    )


def _validate_audit_args(pop: PopulationModel, n: int, k: int, group: str) -> None:
    if n < 1:
        raise ValidationError(f"dataset size must be positive, got {n}")
    if not 1 <= k <= n:
        raise ValidationError(f"position {k} out of range for n={n}")
    pop.group_mask(group)  # raises for unknown groups
