"""Ranking functions: exact uncertainty-aware marginals (one leave-one-out
Poisson-binomial kernel per label), brute-force oracle, utility-optimal sort,
mixtures, and Plackett-Luce (sampled and exact)."""

from __future__ import annotations

import functools
import itertools
from typing import Callable, NamedTuple

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .types import PredictionMatrix, RankingDistribution, UtilitySpec

ORACLE_BUDGET = 10**6
PL_EXACT_MAX_N = 8
_PL_BATCH_ELEMENTS = 2**21  # Gumbel draws per pl_rank batch: 16 MB of doubles


@functools.lru_cache(maxsize=64)
def _legendre_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], exact for polynomials of degree
    < 2m: Newton's method on the Legendre polynomial P_m from Tricomi's guesses,
    which converges to machine precision within a few steps.  Cached, because
    audits rank thousands of same-size datasets; the arrays are read-only."""
    x = np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (m + 0.5))
    for _ in range(8):
        prev, cur = np.ones_like(x), x
        for k in range(2, m + 1):
            prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
        slope = m * (x * cur - prev) / (x * x - 1.0)  # P_m'(x)
        x = x - cur / slope
    w = 1.0 / ((1.0 - x * x) * slope**2)
    nodes, weights = (1.0 + x) / 2.0, w / w.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _ua_label_kernel(rows: np.ndarray, label: int) -> np.ndarray:
    """C[i, k-1] = Pr[individual i gets rank k | i's label equals `label`], for every i.

    Given i's uniform tie-break draw u, each other j ranks above i independently
    with probability q_j(u) = Pr[label_j > label] + u Pr[label_j = label], so
    rank - 1 is Poisson-binomial and its pmf is a polynomial of degree < n in u,
    which n//2 + 1 Gauss-Legendre nodes integrate exactly.  Per node the product
    prod_j (1 - q_j + q_j z) is built once; each individual's own factor is then
    divided back out, forwards where its q <= 1/2 and backwards otherwise, the
    direction in which the recurrence does not amplify rounding error.  Memory
    stays O(n^2): the weighted leave-one-out pmfs are summed one degree at a time.
    """
    n = rows.shape[0]
    u, w = _legendre_nodes(n // 2 + 1)
    q = rows[:, label:].sum(axis=1) + u[:, None] * rows[:, label - 1]  # (nodes, n)
    p = 1.0 - q
    F = np.zeros((n + 1, u.size))  # F[k, t]: coefficient of z^k at node t
    F[0] = 1.0
    for j in range(n):
        carried = F[: j + 1] * q[:, j]
        F[: j + 2] *= p[:, j]
        F[1 : j + 2] += carried
    # F = G (p + q z) for the leave-one-out G: forwards G_k = (F_k - q G_{k-1}) / p,
    # backwards G_{k-1} = (F_k - p G_k) / q.  Each pass divides by inf where it is
    # not the stable direction, which keeps those entries of G at exactly 0.
    fwd = q <= 0.5
    C = np.zeros((n, n))
    for degrees, shift, other, den in ((range(n), 0, q, np.where(fwd, p, np.inf)),
                                       (range(n, 0, -1), 1, p, np.where(fwd, np.inf, q))):
        G = np.zeros_like(q)
        for k in degrees:
            G *= other
            np.subtract(F[k, :, None], G, out=G)
            G /= den
            C[:, k - shift] += w @ G
    return C


def ua_rank_conditional(P: PredictionMatrix, i: int, label: int) -> np.ndarray:
    """Pr[individual i gets rank k | its label equals `label`], for all k."""
    if not 0 <= i < P.n:
        raise ValidationError(f"individual index {i} out of range for n={P.n}")
    if not 1 <= label <= P.L:
        raise ValidationError(f"label {label} out of range for L={P.L}")
    return _ua_label_kernel(P.rows, label)[i]


def ua_rank(P: PredictionMatrix) -> RankingDistribution:
    """Exact uncertainty-aware ranking distribution.

    Labels are drawn independently per row, individuals are sorted by label
    (higher is better) and ties are broken uniformly at random; the returned
    matrix holds the marginal rank probabilities of that process, the sum over
    labels of Pr[label_i = label] times the label's conditional rank kernel.
    """
    rows = P.rows
    M = np.zeros((P.n, P.n))
    for label in range(1, P.L + 1):
        if rows[:, label - 1].any():
            M += rows[:, label - 1, None] * _ua_label_kernel(rows, label)
    return RankingDistribution(M)


def ua_rank_oracle(P: PredictionMatrix, budget: int = ORACLE_BUDGET) -> RankingDistribution:
    """Brute-force UA marginals by enumerating all L^n label vectors.

    Each vector is weighted by its product probability; within it, individual
    i gets probability 1/N^eq on each rank in the tie block
    (N^gt, N^gt + N^eq].  Independent of the UA kernel; used to validate it.
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


def pl_rank(P: PredictionMatrix, u: UtilitySpec, samples: int, seed: int) -> RankingDistribution:
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
    done = 0
    while done < samples:
        b = min(max(1, _PL_BATCH_ELEMENTS // n), samples - done)
        scores = tau[None, :] + _gumbel(rng, (b, n))
        order = np.argsort(-scores, axis=1, kind="stable")
        # order[s, k] is the individual at position k: count it in cell (individual, k).
        counts += np.bincount((order * n + np.arange(n)).ravel(), minlength=n * n)
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
