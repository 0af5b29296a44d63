"""Ranking functions: exact uncertainty-aware DP, brute-force oracle,
utility-optimal sort, mixtures, and Plackett-Luce (sampled and exact)."""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .types import PredictionMatrix, RankingDistribution, UtilitySpec

ORACLE_BUDGET = 10**6
PL_EXACT_MAX_N = 8
_TABLE_TOL = 1e-9


def _label_count_table(others: np.ndarray, label: int) -> np.ndarray:
    """Joint distribution of (#others with `label`, #others with a better label).

    `others` holds the n-1 rows of the prediction matrix with the focal
    individual removed.  Returns A with A[j, jp] = Pr[exactly j of the others
    have the label and exactly jp have a strictly better one].  Only the
    current t-slice is kept, so memory stays O(n^2).
    """
    m = others.shape[0]
    p_eq = others[:, label - 1]
    p_gt = others[:, label:].sum(axis=1)
    p_lt = others[:, : label - 1].sum(axis=1)

    A = np.ones((1, 1))
    for t in range(m):
        # After t others only a (t+1)x(t+1) corner can be nonzero, so the
        # table grows one row and column per step instead of being full-size.
        s = t + 1
        B = np.zeros((s + 1, s + 1))
        B[:s, :s] = p_lt[t] * A
        B[1:, :s] += p_eq[t] * A
        B[:s, 1:] += p_gt[t] * A
        A = B
        total = A.sum()
        if abs(total - 1.0) > _TABLE_TOL:
            raise AssertionError(f"count table mass drifted to {total} at step {t + 1}")
    full = np.zeros((m + 1, m + 1))
    full[: A.shape[0], : A.shape[1]] = A
    return full


def _conditional_from_table(A: np.ndarray) -> np.ndarray:
    """Rank probabilities given the focal individual's label, from its count table.

    Pr[rank k | label] = sum_j 1/(j+1) * Pr[N^eq = j and k-(j+1) <= N^gt < k],
    evaluated with prefix sums along the N^gt axis.
    """
    m = A.shape[0] - 1  # number of other individuals
    n = m + 1
    S = np.cumsum(A, axis=1)
    inv = 1.0 / np.arange(1, m + 2)
    js = np.arange(m + 1)
    cond = np.empty(n)
    for k in range(1, n + 1):
        hi = S[js, min(k - 1, m)]
        lo_idx = k - js - 2
        lo = np.where(lo_idx >= 0, S[js, np.clip(lo_idx, 0, m)], 0.0)
        cond[k - 1] = float(np.dot(inv, hi - lo))
    return cond


def ua_rank_conditional(P: PredictionMatrix, i: int, label: int) -> np.ndarray:
    """Pr[individual i gets rank k | its label equals `label`], for all k."""
    if not 0 <= i < P.n:
        raise ValidationError(f"individual index {i} out of range for n={P.n}")
    if not 1 <= label <= P.L:
        raise ValidationError(f"label {label} out of range for L={P.L}")
    others = np.delete(P.rows, i, axis=0)
    return _conditional_from_table(_label_count_table(others, label))


def ua_rank(P: PredictionMatrix) -> RankingDistribution:
    """Exact uncertainty-aware ranking distribution.

    Labels are drawn independently per row, individuals are sorted by label
    (higher is better) and ties are broken uniformly at random; the returned
    matrix holds the marginal rank probabilities of that process, assembled
    from one count-table DP per (individual, label) with nonzero probability.
    """
    rows = P.rows
    M = np.zeros((P.n, P.n))
    for i in range(P.n):
        others = np.delete(rows, i, axis=0)
        for label in range(1, P.L + 1):
            if rows[i, label - 1] > 0.0:
                cond = _conditional_from_table(_label_count_table(others, label))
                M[i] += rows[i, label - 1] * cond
    return RankingDistribution(M)


def ua_rank_oracle(P: PredictionMatrix, budget: int = ORACLE_BUDGET) -> RankingDistribution:
    """Brute-force UA marginals by enumerating all L^n label vectors.

    Each vector is weighted by its product probability; within it, individual
    i gets probability 1/N^eq on each rank in the tie block
    (N^gt, N^gt + N^eq].  Independent of the DP path; used to validate it.
    """
    n, L = P.n, P.L
    count = L**n
    if count > budget:
        raise BudgetExceededError(f"oracle needs {count} label vectors, budget is {budget}")

    vecs = np.stack(
        np.meshgrid(*([np.arange(1, L + 1)] * n), indexing="ij"), axis=-1
    ).reshape(count, n)
    weights = np.ones(count)
    for i in range(n):
        weights *= P.rows[i, vecs[:, i] - 1]

    # counts[v, l-1] = how many individuals have label l in vector v;
    # greater[v, l-1] = how many have a strictly better label.
    counts = np.stack([(vecs == l).sum(axis=1) for l in range(1, L + 1)], axis=1)
    greater = np.hstack(
        [np.cumsum(counts[:, ::-1], axis=1)[:, ::-1][:, 1:], np.zeros((count, 1), dtype=int)]
    )

    M = np.zeros((n, n))
    rows_idx = np.arange(count)
    for i in range(n):
        lam = vecs[:, i] - 1
        n_gt = greater[rows_idx, lam]
        n_eq = counts[rows_idx, lam]
        w = weights / n_eq
        # Difference-array trick: spread w over the rank block, then prefix-sum.
        diff = np.zeros(n + 1)
        np.add.at(diff, n_gt, w)
        np.add.at(diff, n_gt + n_eq, -w)
        M[i] = np.cumsum(diff)[:n]
    return RankingDistribution(M)


def _sort_permutation(tau: np.ndarray, descending: bool) -> np.ndarray:
    """Stable ordering of individuals by score; ties resolved by ascending index."""
    key = -tau if descending else tau
    return np.argsort(key, kind="stable")


def _permutation_matrix(order: np.ndarray) -> np.ndarray:
    n = order.size
    M = np.zeros((n, n))
    M[order, np.arange(n)] = 1.0
    return M


def opt_rank(P: PredictionMatrix, u: UtilitySpec) -> RankingDistribution:
    """Utility-maximizing deterministic ranking: sort by decreasing tau(p_i).

    Ties broken by ascending individual index, which makes the function
    deterministic and therefore non-anonymous.
    """
    return RankingDistribution(_permutation_matrix(_sort_permutation(u.tau(P), True)))


def min_rank(P: PredictionMatrix, u: UtilitySpec) -> RankingDistribution:
    """Utility-minimizing deterministic ranking: sort by increasing tau(p_i)."""
    return RankingDistribution(_permutation_matrix(_sort_permutation(u.tau(P), False)))


def mix_rank(P: PredictionMatrix, u: UtilitySpec, phi: float) -> RankingDistribution:
    """Convex mixture: UA with probability phi, utility-optimal otherwise."""
    if not 0.0 <= phi <= 1.0:
        raise ValidationError(f"mixture weight must lie in [0, 1], got {phi}")
    return RankingDistribution(
        phi * ua_rank(P).entries + (1.0 - phi) * opt_rank(P, u).entries
    )


def _gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    # U on the open interval (0,1): push exact zeros to the smallest positive
    # double so -log(-log(u)) stays finite.
    u = rng.random(shape)
    u = np.maximum(u, np.finfo(np.float64).tiny)
    return -np.log(-np.log(u))


def pl_rank(
    P: PredictionMatrix,
    u: UtilitySpec,
    samples: int,
    seed: int,
    batch_size: int = 100_000,
) -> RankingDistribution:
    """Estimated Plackett-Luce marginals via the Gumbel trick.

    Each sample sorts individuals by decreasing tau(p_i) + g_i with g_i
    independent standard Gumbel noise; the returned matrix averages the
    resulting permutation matrices.  Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    tau = u.tau(P)
    n = P.n
    rng = np.random.default_rng(seed)
    counts = np.zeros(n * n, dtype=np.int64)
    cols = None
    done = 0
    while done < samples:
        b = min(batch_size, samples - done)
        scores = tau[None, :] + _gumbel(rng, (b, n))
        order = np.argsort(-scores, axis=1, kind="stable")
        if cols is None or cols.shape[0] != b:
            cols = np.broadcast_to(np.arange(n), (b, n))
        counts += np.bincount((order * n + cols).ravel(), minlength=n * n)
        done += b
    return RankingDistribution(counts.reshape(n, n) / samples)


def pl_rank_exact(P: PredictionMatrix, u: UtilitySpec, max_n: int = PL_EXACT_MAX_N) -> RankingDistribution:
    """Exact Plackett-Luce marginals by summing over all n! permutations.

    Sequential softmax model: position t is filled by remaining individual i
    with probability exp(tau_i) / sum over remaining exp(tau_j).
    """
    n = P.n
    if n > max_n:
        raise BudgetExceededError(f"exact PL enumeration limited to n <= {max_n}, got {n}")
    w = np.exp(u.tau(P))
    M = np.zeros((n, n))
    for perm in itertools.permutations(range(n)):
        rem = w.sum()
        prob = 1.0
        for t, i in enumerate(perm):
            prob *= w[i] / rem
            rem -= w[i]
        for t, i in enumerate(perm):
            M[i, t] += prob
    return RankingDistribution(M)


class Ranker(NamedTuple):
    """How a ranking-function id is computed and which parameters it needs."""

    compute: Callable[..., RankingDistribution]  # compute(P, u=, phi=, samples=, seed=)
    params: tuple  # keyword parameters of `compute` that must not be None
    audited: bool  # supported by the theorem audits


# The one table of "which ranker needs what".  Entries look the rankers up as
# module globals at call time, so rebinding e.g. `ua_rank` here reaches them too.
RANKERS = {
    "ua": Ranker(lambda P, **kw: ua_rank(P), (), True),
    "opt": Ranker(lambda P, u, **kw: opt_rank(P, u), ("u",), True),
    "mix": Ranker(lambda P, u, phi, **kw: mix_rank(P, u, phi), ("u", "phi"), True),
    "pl": Ranker(lambda P, u, samples, seed, **kw: pl_rank(P, u, samples, seed),
                 ("u", "samples", "seed"), False),
}
RANKING_FUNCTION_IDS = tuple(RANKERS)
AUDITED_FUNCTION_IDS = tuple(fn for fn, r in RANKERS.items() if r.audited)


def checked_ranker(fn: str, audit: bool = False, **given) -> Ranker:
    """Table entry for `fn`, after checking that it exists, that audits support
    it when `audit` is set, and that every parameter it requires is given."""
    if fn not in RANKERS:
        raise ValidationError(f"unknown ranking function '{fn}', expected one of {RANKING_FUNCTION_IDS}")
    ranker = RANKERS[fn]
    if audit and not ranker.audited:
        raise ValidationError(f"audits support ranking functions {AUDITED_FUNCTION_IDS}; got '{fn}'")
    missing = [p for p in ranker.params if given.get(p) is None]
    if missing:
        raise ValidationError(f"ranking function '{fn}' requires {' and '.join(missing)}")
    return ranker


def compute_ranking(
    fn: str,
    P: PredictionMatrix,
    u: UtilitySpec | None = None,
    phi: float | None = None,
    samples: int | None = None,
    seed: int | None = None,
) -> RankingDistribution:
    """Dispatch on a ranking-function id, validating the parameters it needs."""
    kw = {"u": u, "phi": phi, "samples": samples, "seed": seed}
    return checked_ranker(fn, **kw).compute(P, **kw)
