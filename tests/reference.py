"""Reference computations the tests check the library against: slow, exact and kept out of `uarank`."""

import itertools

import numpy as np

from uarank import BudgetExceededError, PredictionMatrix, RankingDistribution, UtilitySpec

PL_EXACT_MAX_N = 8


def pl_rank_exact(P: PredictionMatrix, u: UtilitySpec) -> RankingDistribution:
    """Exact Plackett-Luce marginals by summing over all n! permutations.

    Sequential softmax model: position t is filled by remaining individual i
    with probability exp(tau_i) / sum over remaining exp(tau_j).
    """
    n = P.n
    if n > PL_EXACT_MAX_N:
        raise BudgetExceededError(f"exact PL enumeration limited to n <= {PL_EXACT_MAX_N}, got {n}")
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
