"""Multigroup fairness audits over a finite typed population.

A population model (`types.PopulationModel`) declares a finite set of types
with sampling weights, a ground-truth label distribution and a predicted one
per type, and named protected groups of types.  The audits measure how
multiaccurate or multicalibrated the predictor is, and how far ranking outcomes
under the predictor drift from ranking outcomes under the ground truth, both
exactly, in closed form over the i.i.d. types, and by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rankers
from .errors import BudgetExceededError, ValidationError
from .rankers import _legendre_nodes, _seeded_rng, _ua_marginals, checked_ranker
from .types import DS_TOL, PopulationModel, PredictionMatrix, UtilitySpec, _check_doubly_stochastic, _check_scalar

# (rankings, n): an audit may make 10^6 rankings of n <= 19 types, or as many of n > 19 types
# as cost the same total under the UA kernel's n^3 work per ranking.
AUDIT_BUDGET = (10**6, 19)


def two_type_biased_model(alpha: float) -> PopulationModel:
    """Uniform two-type binary-label population with a symmetrically biased predictor.

    Ground truth is (1/2, 1/2) for both types; the predictor overrates type 0
    by alpha and underrates type 1 by alpha.  The canonical hard instance for
    deterministic utility-optimal ranking.
    """
    _check_scalar(alpha, "bias alpha", "(0, 0.5)")
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

    For group S: || sum over types in S of weight * (f* - f) ||_inf, which is
    multicalibration with one bucket (delta = 1): each group is one cell.
    """
    res = multicalibration_alpha(pop, 1.0)
    return MultiaccuracyResult(per_group={name: v for (name, _), v in res.per_cell.items()}, alpha=res.alpha)


def _bucket_count(delta: float) -> int:
    _check_scalar(delta, "bucket width delta", "(0, 1]")
    if not 1.0 / delta <= 2.0**53:  # beyond, every double passes the integer test below
        raise ValidationError(f"1/delta must be at most 2^53, got delta={delta}")
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


def _charge(pop: PopulationModel, n: int, samples: int | None, what: str) -> int:
    """The most rankings of n types a call makes: one in closed form (exact), or one per distinct
    sorted draw of `samples`, at most every multiset of positive-weight types.  Over `AUDIT_BUDGET`, at
    max(n, 19)^3 per ranking (below n = 19 overhead outweighs the kernel), it raises BudgetExceededError."""
    rankings, unit = (1, "ranking") if samples is None else (
        min(samples, math.comb(n + int(np.count_nonzero(pop.weights)) - 1, n)), "multisets of types")
    most, small = AUDIT_BUDGET
    budget = most * small**3 // max(n, small) ** 3
    if rankings > budget:
        raise BudgetExceededError(f"{what} needs {rankings} {unit}, budget is {budget}"
                                  + (f" at n={n}" if n > small else ""))
    return rankings


def _draws(rng: np.random.Generator, pop: PopulationModel, n: int, samples: int):
    """`samples` i.i.d. type vectors of size n, ⌊2^16/n⌋ (at least one) at a time: a block holds
    about as many type indices as a chunk holds matrix cells.  The blocks continue the
    generator's stream exactly as one draw of every vector would."""
    step = max(1, rankers._CHUNK_CELLS // n)
    for s in range(0, samples, step):
        yield rng.choice(pop.T, size=(min(step, samples - s), n), p=pop.weights)


def _chunks(keys: np.ndarray):
    """The (m, n) sorted type vectors `keys` in chunks of ⌊2^16/n^2⌋ (at least one), so that a
    chunk's UA stack holds at most 2^16 matrix cells per distribution up to n = 256."""
    step = max(1, rankers._CHUNK_CELLS // keys.shape[1] ** 2)
    return (keys[s : s + step] for s in range(0, len(keys), step))


def _ua_pairs(pop: PopulationModel, keys: np.ndarray) -> np.ndarray:
    """The doubly-stochastic-checked (2, c, n, n) UA stack, truth then predictor, of one
    chunk of (c, n) sorted type vectors, each matrix bit for bit `ua_rank(PredictionMatrix(d[key]))`.
    UA is anonymous: row j is the j-th individual of a stable sort of any arrangement."""
    rows = np.stack([d[keys] for d in (pop.ground_truth, pop.predicted)])
    M = _ua_marginals(rows / rows.sum(axis=-1)[..., None])
    _check_doubly_stochastic(M)
    return M


def _distinct_multisets(draws: np.ndarray, T: int, index: dict) -> tuple[np.ndarray, np.ndarray]:
    """Dedupe the (d, n) draws of types 0..T-1 by multiset into `index`, which numbers each
    multiset when a block first holds it: the multisets new to it, as sorted type vectors in
    the order of their numbers, and each draw's number.

    A draw's key is its type counts, digits base n + 1 packed into as many int64 words as the
    T counts need.  Each word is summed from the draw's own digits, so no (d, T) count table is
    built and a block's memory stays O(d n) whatever T.  One np.unique finds the block's distinct
    keys, and only those meet the dict, whose keys are Python ints (tuples beyond one word)."""
    d, n = draws.shape
    base, per = n + 1, 1
    while per < T and base ** (per + 1) <= 2**63:  # a word's largest key, base^per - 1, is an int64
        per += 1
    words, types = -(-T // per), np.arange(T, dtype=np.int64)
    digits = (base ** (types % per))[draws]  # a type-t individual adds base^(t mod per) to word t // per
    ones = np.ones(n, dtype=np.int64)  # `@ ones` sums short rows about twice as fast as .sum(axis=1)
    if words == 1:  # a 1-d unique: 15-60x faster than axis=0 on a (13 107, 1) block (2-vCPU x86 VM)
        keys, inv = np.unique(digits @ ones, return_inverse=True)
        found = keys.tolist()
    else:
        word = (types // per)[draws]
        keys = np.stack([(digits * (word == w)) @ ones for w in range(words)], axis=1)
        keys, inv = np.unique(keys, axis=0, return_inverse=True)
        found = map(tuple, keys.tolist())
    seen = len(index)
    numbers = np.array([index.setdefault(key, len(index)) for key in found], dtype=np.intp)
    inv, drawn = inv.ravel(), np.empty(len(keys), dtype=np.intp)
    drawn[inv] = np.arange(d)  # a draw of each key; any one sorts to its multiset's vector
    return np.sort(draws[drawn[numbers >= seen]], axis=1), numbers[inv]


def _taus(pop: PopulationModel, fn: str, u: UtilitySpec | None) -> np.ndarray | None:
    """tau per type under the truth and under the predictor, a (2, T) array; None for UA."""
    return None if fn == "ua" else np.array([u.tau(PredictionMatrix(d)) for d in (pop.ground_truth, pop.predicted)])


def _gaps(fn: str, phi: float | None, ua, opt) -> np.ndarray:
    """truth - predictor from the (2, ...) pairs of UA and of opt (None where unused):
    per type at position k, or per sampled draw."""
    truth, pred = opt if fn == "opt" else ua if fn == "ua" else phi * ua + (1.0 - phi) * opt
    return truth - pred


def _binomial_pmf(n: int, j: int, q: np.ndarray) -> np.ndarray:
    """Pr[Bin(n, q) = j] for each q in [0, 1], in log space; a power with exponent 0 is
    left out, so q = 0 or 1 takes no 0 * log 0."""
    log_q = np.log(q, out=np.full(q.shape, -np.inf), where=q > 0.0)
    log_p = np.log1p(-q, out=np.full(q.shape, -np.inf), where=q < 1.0)
    coef = math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
    return np.exp(coef + (j * log_q if j else np.zeros(q.shape)) + ((n - j) * log_p if n - j else 0.0))


def _positions(n: int, k: int, w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per table of the (..., T, V) stack d and type t: Pr[a type-t individual takes position k]
    among n i.i.d. types of weights w, levels drawn from the types' rows, higher levels first and
    ties in uniform random order.  The others' levels are i.i.d. from m = w @ d, so given a uniform
    u a level-v individual has Bin(n-1, m_{>v} + u m_v) others ahead; ⌊n/2⌋+1 Gauss-Legendre nodes
    integrate that exactly.  Each table is checked to give each position one of the n
    individuals: n sum_t w_t P_t(k) = 1 within DS_TOL."""
    u, uw = _legendre_nodes(n // 2 + 1)
    m = w @ d
    above = m @ np.tril(np.ones((m.shape[-1],) * 2), -1)  # m_{>v}
    K = _binomial_pmf(n - 1, k - 1, np.clip(above[..., None] + m[..., None] * u, 0.0, 1.0)) @ uw
    P = (d @ K[..., None])[..., 0]
    if np.any(np.abs(n * (P @ w) - 1.0) > DS_TOL):
        raise ValidationError(f"position {k} holds {(n * (P @ w)).tolist()} of {n} individuals, not 1 within {DS_TOL}")
    return P


def _audit_setup(pop, n, k, group, fn, u, phi, delta, bucket, samples=None) -> tuple:
    """The checked arguments of a theorem audit, (taus, ind, rankings): `_taus`, 1.0 per type in the
    group (and in the calibration bucket, if one is given), and the rankings `_charge` counts for
    `samples` (None: exact).  Sampled opt ranks no UA, only tau per type, so it is charged one ranking
    as the exact audit is.  Checks n, k and the group, then the ranker, its parameters and tau,
    then delta and the bucket, L integers in [0, 1/delta) as a tuple or a list, then the budget."""
    _check_scalar(n, "dataset size n", "[1, inf)", integer=True)
    _check_scalar(k, "position k", f"[1, {n}]", integer=True)
    ind = pop.group_mask(group).astype(np.float64)
    checked_ranker(fn, audit=True, u=u, phi=phi)
    taus = _taus(pop, fn, u)
    b = None if delta is None else _bucket_count(delta)
    if bucket is not None:
        if b is None:
            raise ValidationError("a calibration bucket needs its width delta")
        if not (isinstance(bucket, (tuple, list)) and len(bucket) == pop.L):
            raise ValidationError(f"calibration bucket must be {pop.L} integers in [0, {b}), got {bucket!r}")
        for e, j in enumerate(bucket, start=1):
            _check_scalar(j, f"entry {e} of calibration bucket {bucket!r}", f"[0, {b})", integer=True)
        ind *= np.array([1.0 if j == tuple(bucket) else 0.0 for j in type_buckets(pop, delta)])
    return taus, ind, _charge(pop, n, None if fn == "opt" else samples,
                              "exact audit" if samples is None else "sampling")


def theorem_bound(pop: PopulationModel, n: int, fn="ua", phi=None, delta=None) -> tuple[float, float]:
    """(bound, alpha) of a theorem audit.  alpha is the measured multiaccuracy violation or, given a
    bucket width delta, the larger of the multicalibration and the full domain's multiaccuracy
    violations; the bound is L*n*alpha, or phi*L*n*alpha + 1 - phi for fn="mix"."""
    checked_ranker(fn, audit=True, phi=phi)
    _check_scalar(n, "dataset size n", "[1, inf)", integer=True)
    ma = multiaccuracy_alpha(pop)
    full_domain = next(name for name, m in pop.groups.items() if sorted(m) == list(range(pop.T)))
    alpha = ma.alpha if delta is None else max(multicalibration_alpha(pop, delta).alpha, ma.per_group[full_domain])
    base = pop.L * n * alpha
    return (phi * base + (1.0 - phi) if fn == "mix" else base), alpha


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
) -> float:
    """Exact group-level ranking gap, in closed form.

    Returns |E[1[x_i in S] * (Pr under ground truth[i -> k] - Pr under predictor[i -> k])]| with x
    i.i.d. from the type weights and i uniform: the w-weighted sum over the types in S of the truth's
    minus the predictor's `_positions` table.  A call costs one ranking of `AUDIT_BUDGET`, charged
    after every validation error, so n = 1901 and beyond raise BudgetExceededError.
    """
    taus, ind, _ = _audit_setup(pop, n, k, group, fn, u, phi, delta, bucket)
    ua = opt = None
    if fn != "opt":  # levels are the labels of the renormalized rows
        rows = np.stack([pop.ground_truth, pop.predicted])
        ua = _positions(n, k, pop.weights, rows / rows.sum(axis=-1)[..., None])
    if taus is not None:  # levels are the distinct taus; opt breaks ties by ascending index
        levels, inv = np.unique(taus, return_inverse=True)
        opt = _positions(n, k, pop.weights, np.eye(len(levels))[inv.reshape(taus.shape)])
    return abs(float((ind * pop.weights * _gaps(fn, phi, ua, opt)).sum()))


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
    """Monte-Carlo estimate of the group-level ranking gap, with standard error.  A call over
    `AUDIT_BUDGET` raises BudgetExceededError, after every validation error."""
    rng, index, values = _seeded_rng(seed, mc_samples), {}, []
    taus, ind, distinct = _audit_setup(pop, n, k, group, fn, u, phi, delta, bucket, mc_samples)
    if fn != "opt":  # per distinct multiset: the mean over its individuals of ind times UA's k-th column
        per_key = np.empty((2, distinct))  # pages touched as keys arrive
    for block in _draws(rng, pop, n, mc_samples):
        ua = opt = None
        if fn != "opt":  # UA is anonymous: a draw's pair is its multiset's, ranked once when new
            seen = len(index)
            new, inv = _distinct_multisets(block, pop.T, index)
            for keys in _chunks(new):
                per_key[:, seen : seen + len(keys)] = (ind[keys] * _ua_pairs(pop, keys)[..., k - 1]).mean(axis=-1)
                seen += len(keys)
            ua = per_key[:, inv]
        if taus is not None:  # ind of the type opt ranks k-th, over n; tau ties go to the lower index
            at_k = [np.argsort(-tau[block], axis=1, kind="stable")[:, k - 1] for tau in taus]
            opt = ind[block[np.arange(len(block)), at_k]] / n
        values.append(_gaps(fn, phi, ua, opt))
    values = np.concatenate(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(mc_samples)) if mc_samples > 1 else 0.0
    bound, alpha = theorem_bound(pop, n, fn, phi, delta)
    return AuditReport(group=group, position=k, estimate=abs(mean), mc_error=se, bound=bound, alpha=alpha,
                       samples=mc_samples, seed=seed, bucket=bucket, delta=delta)


@dataclass(frozen=True)
class NatureClosenessReport:
    eps: float  # max over types of ||f - f*||_1
    bound: float  # n * eps (gamma = 1 for the UA ranking)
    max_gap: float  # largest sampled ||ua(f) - ua(f*)||_inf
    within_bound: bool
    samples: int
    seed: int


def nature_closeness_check(pop: PopulationModel, n: int, seed: int = 0, samples: int = 50) -> NatureClosenessReport:
    """Sampled check that predictor-close-to-truth implies rankings close.

    eps bounds the per-type 1-norm prediction error; every sampled dataset
    must satisfy ||ua(predicted) - ua(ground truth)||_inf <= n * eps.  A call
    over `AUDIT_BUDGET` raises BudgetExceededError, after every validation error.
    """
    _check_scalar(n, "dataset size n", "[1, inf)", integer=True)
    rng, index, max_gap = _seeded_rng(seed, samples), {}, 0.0
    _charge(pop, n, samples, "nature check")
    eps = float(np.abs(pop.predicted - pop.ground_truth).sum(axis=1).max())
    # Both matrices of a dataset are the same row permutation of its sorted
    # type vector's pair, so the largest entrywise gap is read off the pairs.
    for block in _draws(rng, pop, n, samples):
        for keys in _chunks(_distinct_multisets(block, pop.T, index)[0]):
            M = _ua_pairs(pop, keys)
            max_gap = max(max_gap, float(np.abs(M[1] - M[0]).max()))
    bound = n * eps
    return NatureClosenessReport(eps=eps, bound=bound, max_gap=max_gap,
                                 within_bound=max_gap <= bound + 1e-12, samples=samples, seed=seed)
