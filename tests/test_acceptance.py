"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with -s to see them alongside the pytest output).
"""

import time
from functools import partial

import numpy as np
import pytest

from uarank import (
    PredictionMatrix,
    UtilitySpec,
    mix_rank,
    multiaccuracy_alpha,
    multicalibration_alpha,
    opt_rank,
    pl_rank,
    stability_gap,
    theorem_gap_estimate,
    theorem_gap_exact,
    two_type_biased_model,
    ua_rank,
    ua_rank_oracle,
)

from conftest import eps_pair, random_prediction, random_population
from reference import pl_rank_exact


def report(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def lower_bound_pair(n):
    """First individual (1/2, 0, 1/2) vs (1, 0, 0); everyone else pinned to label 2."""
    rows = np.tile([0.0, 1.0, 0.0], (n, 1))
    P = rows.copy()
    P[0] = [0.5, 0.0, 0.5]
    P2 = rows.copy()
    P2[0] = [1.0, 0.0, 0.0]
    return PredictionMatrix(P), PredictionMatrix(P2)


def test_c01_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n, L = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        P = random_prediction(rng, n, L)
        worst = max(worst, ua_rank(P).linf_gap(ua_rank_oracle(P)))
    elapsed = time.perf_counter() - start
    report(1, "oracle equivalence", worst <= 1e-9 and elapsed < 10)


def test_c02_double_stochasticity():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        n, L = int(rng.integers(2, 31)), int(rng.integers(2, 6))
        P = random_prediction(rng, n, L)
        u = UtilitySpec.dcg(n, L=L)
        ua = ua_rank(P).entries
        opt = opt_rank(P, u).entries
        phi = float(rng.random())
        outputs = (
            ua,
            opt,
            phi * ua + (1 - phi) * opt,
            pl_rank(P, u, samples=200, seed=int(rng.integers(1 << 31))).entries,
        )
        for M in outputs:
            ok &= np.abs(M.sum(axis=0) - 1).max() <= 1e-9
            ok &= np.abs(M.sum(axis=1) - 1).max() <= 1e-9
    elapsed = time.perf_counter() - start
    report(2, "double stochasticity", ok and elapsed < 30)


def test_c03_one_stability():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    violations = 0
    for _ in range(500):
        n, L = int(rng.integers(2, 21)), int(rng.integers(2, 5))
        P, P2 = random_prediction(rng, n, L), random_prediction(rng, n, L)
        rep = stability_gap(ua_rank, P, P2)
        if rep.inf_gap > rep.l1_dist + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - start
    report(3, "1-stability", violations == 0 and elapsed < 60)


def test_c04_stability_lower_bound():
    ok = True
    for n in range(2, 9):
        rep = stability_gap(ua_rank, *lower_bound_pair(n))
        ok &= abs(rep.inf_gap - 0.5) <= 1e-12
        ok &= abs(rep.l1_dist - 1.0) <= 1e-12
    report(4, "stability lower bound", ok)


def test_c05_opt_instability():
    u = UtilitySpec(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    ok = True
    for eps in (0.1, 0.01, 0.001):
        rep = stability_gap(partial(opt_rank, u=u), *eps_pair(eps))
        ok &= rep.inf_gap == 1.0
        ok &= abs(rep.l1_dist - 8 * eps) <= 1e-12
        if eps == 0.001:
            ok &= rep.ratio >= 125 * (1 - 1e-9)
    report(5, "opt-rank instability", ok)


def test_c06_mixture_stability():
    rng = np.random.default_rng(1006)
    violations = 0
    for _ in range(500):
        n, L = int(rng.integers(2, 13)), int(rng.integers(2, 4))
        phi = float(rng.random())
        u = UtilitySpec.dcg(n, L=L)
        rep = stability_gap(
            partial(mix_rank, u=u, phi=phi), random_prediction(rng, n, L), random_prediction(rng, n, L)
        )
        if rep.inf_gap > phi * rep.l1_dist + (1 - phi) + 1e-12:
            violations += 1
    report(6, "mixture stability", violations == 0)


def test_c07_anonymity_and_label_extension():
    rng = np.random.default_rng(1007)
    ok = True
    for _ in range(100):
        n, L = int(rng.integers(2, 10)), int(rng.integers(2, 5))
        P = random_prediction(rng, n, L)
        perm = rng.permutation(n)
        M = ua_rank(P).entries
        ok &= np.abs(ua_rank(P.permuted(perm)).entries - M[perm]).max() <= 1e-12
        ok &= np.abs(ua_rank(P.with_zero_label()).entries - M).max() <= 1e-12
    report(7, "anonymity and label extension", ok)


def test_c08_theorem_bound_property():
    rng = np.random.default_rng(1008)
    start = time.perf_counter()
    violations = 0
    for _ in range(20):
        T, L = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        n = int(rng.integers(2, 7))
        pop = random_population(rng, T, L)
        alpha = multiaccuracy_alpha(pop).alpha
        bound = L * n * alpha + 1e-12
        for name in pop.groups:
            for k in range(1, n + 1):
                if theorem_gap_exact(pop, n, k, name, fn="ua") > bound:
                    violations += 1
    elapsed = time.perf_counter() - start
    report(8, "theorem bound property", violations == 0 and elapsed < 300)


def test_c09_opt_fairness_lower_bound():
    ok = True
    for alpha in (0.01, 0.1, 0.3):
        pop = two_type_biased_model(alpha)
        for n in range(2, 9):
            u = UtilitySpec(np.array([1.0, 2.0]), np.ones(n))
            got = theorem_gap_exact(pop, n, 1, "1", fn="opt", u=u)
            ok &= abs(got - (1 / n) * (0.5 - 2.0**-n)) <= 1e-12
    pop = two_type_biased_model(0.1)
    u = UtilitySpec(np.array([1.0, 2.0]), np.ones(4))
    rep = theorem_gap_estimate(pop, 4, 1, "1", fn="opt", u=u, mc_samples=20_000, seed=1009)
    ok &= abs(rep.estimate - 0.109375) <= 3 * rep.mc_error
    report(9, "opt-rank fairness lower bound", ok)


def test_c10_biased_predictor_multiaccuracy():
    ok = True
    for alpha in (0.01, 0.1, 0.3):
        pop = two_type_biased_model(alpha)
        res = multiaccuracy_alpha(pop)
        ok &= abs(res.per_group["1"] - alpha / 2) <= 1e-12
        ok &= abs(res.per_group["2"] - alpha / 2) <= 1e-12
        mc = multicalibration_alpha(pop, 1.0)
        zero_bucket = (0,) * pop.L
        for name in pop.groups:
            ok &= mc.per_cell[(name, zero_bucket)] == res.per_group[name]
    report(10, "biased-predictor multiaccuracy", ok)


def test_c11_pl_convergence():
    rng = np.random.default_rng(1011)
    ok = True
    for _ in range(10):
        P = random_prediction(rng, 4, 3)
        u = UtilitySpec.dcg(4, L=3)
        seed = int(rng.integers(1 << 31))
        sampled = pl_rank(P, u, samples=10**6, seed=seed)
        ok &= sampled.linf_gap(pl_rank_exact(P, u)) <= 0.005
        ok &= np.array_equal(sampled.entries, pl_rank(P, u, samples=10**6, seed=seed).entries)
    report(11, "Plackett-Luce convergence", ok)


def test_c12_noise_robustness_gap():
    rng = np.random.default_rng(1012)
    n, L = 30, 3
    u = UtilitySpec.dcg(n, L=L)
    ua_gaps, opt_gaps = [], []
    for _ in range(100):
        P = random_prediction(rng, n, L)
        noisy = np.clip(P.rows + rng.uniform(-0.02, 0.02, size=(n, L)), 1e-12, None)
        P2 = PredictionMatrix(noisy / noisy.sum(axis=1, keepdims=True))
        ua_gaps.append(ua_rank(P).linf_gap(ua_rank(P2)))
        opt_gaps.append(opt_rank(P, u).linf_gap(opt_rank(P2, u)))
    ok = np.mean(ua_gaps) * 10 <= np.mean(opt_gaps)
    report(12, "noise robustness gap", ok)


def test_c13_dp_performance():
    rng = np.random.default_rng(1013)
    P = random_prediction(rng, 60, 3)
    start = time.perf_counter()
    ua_rank(P)
    elapsed = time.perf_counter() - start
    report(13, "DP performance", elapsed < 5)
