import warnings

import numpy as np
import pytest

from uarank import (
    PredictionMatrix,
    RankingDistribution,
    UtilitySpec,
    ValidationError,
    if_composition_check,
    min_rank,
    mix_rank,
    normalized_utility,
    opt_rank,
    stability_gap,
    ua_rank,
    utility,
)
from uarank.metrics import l1_distance, linf_distance
from uarank.rankers import compute_ranking

from conftest import eps_pair, random_prediction


def u_linear(n, L):
    return UtilitySpec(np.arange(1, L + 1, dtype=float), np.ones(n))


class TestStabilityGap:
    def test_ua_lower_bound_pair(self, stab_lb):
        P, P2 = stab_lb
        rep = stability_gap("ua", P, P2)
        assert rep.inf_gap == pytest.approx(0.5, abs=1e-12)
        assert rep.l1_dist == pytest.approx(1.0, abs=1e-12)
        assert rep.ratio == pytest.approx(0.5, abs=1e-12)

    def test_identical_inputs(self, stab_lb):
        P, _ = stab_lb
        rep = stability_gap("ua", P, P)
        assert rep.inf_gap == 0.0 and rep.l1_dist == 0.0 and rep.ratio is None

    def test_opt_eps_pair(self):
        P, P2 = eps_pair(0.05)
        rep = stability_gap("opt", P, P2, u=u_linear(2, 2))
        assert rep.inf_gap == pytest.approx(1.0)
        assert rep.l1_dist == pytest.approx(0.4, abs=1e-12)

    def test_dimension_mismatch(self, stab_lb):
        P, _ = stab_lb
        Q = PredictionMatrix(np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            stability_gap("ua", P, Q)

    def test_ua_one_stability_sampled(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            n, L = int(rng.integers(2, 9)), int(rng.integers(2, 5))
            rep = stability_gap("ua", random_prediction(rng, n, L), random_prediction(rng, n, L))
            assert rep.inf_gap <= rep.l1_dist + 1e-12

    def test_mixture_approximate_stability(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            phi = float(rng.random())
            u = UtilitySpec.dcg(n, L=3)
            rep = stability_gap(
                "mix", random_prediction(rng, n, 3), random_prediction(rng, n, 3), u=u, phi=phi
            )
            assert rep.inf_gap <= phi * rep.l1_dist + (1 - phi) + 1e-12


class TestDistances:
    def test_l1_refuses_mismatched_shapes(self):
        with pytest.raises(ValidationError, match=r"shapes \(3, 3\) and \(1, 3\)"):
            l1_distance(np.eye(3), np.ones((1, 3)) / 3)

    def test_linf_refuses_mismatched_shapes(self):
        with pytest.raises(ValidationError, match=r"shapes \(3, 3\) and \(3,\)"):
            linf_distance(np.eye(3), np.ones(3) / 3)

    def test_match_the_two_temporary_reference(self):
        rng = np.random.default_rng(38)
        for shape in [(1, 1), (4, 3), (50, 50)]:
            A, B = rng.random(shape), rng.random(shape)
            assert l1_distance(A, B) == float(np.abs(A - B).sum())
            assert linf_distance(A, B) == float(np.abs(A - B).max())


class TestUtility:
    def test_single_individual(self):
        P = PredictionMatrix(np.array([[0.0, 1.0]]))
        u = u_linear(1, 2)
        assert utility(P, RankingDistribution(np.eye(1)), u) == pytest.approx(2.0)

    def test_identity_with_dcg_weights(self):
        P = PredictionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        u = UtilitySpec.dcg(2, label_values=[1.0, 2.0])
        got = utility(P, RankingDistribution(np.eye(2)), u)
        assert got == pytest.approx(2.0 + 1.0 / np.log2(3.0), abs=1e-12)

    def test_linearity_in_ranking(self):
        rng = np.random.default_rng(32)
        n = 5
        P = random_prediction(rng, n, 3)
        u = UtilitySpec.dcg(n, L=3)
        M1 = ua_rank(P)
        M2 = opt_rank(P, u)
        for a in (0.0, 0.25, 0.7, 1.0):
            M = RankingDistribution(a * M1.entries + (1 - a) * M2.entries)
            expect = a * utility(P, M1, u) + (1 - a) * utility(P, M2, u)
            assert utility(P, M, u) == pytest.approx(expect, abs=1e-12)

    def test_mixture_utility_decomposition(self):
        rng = np.random.default_rng(33)
        P = random_prediction(rng, 6, 3)
        u = UtilitySpec.dcg(6, L=3)
        phi = 0.4
        lhs = utility(P, mix_rank(P, u, phi), u)
        rhs = phi * utility(P, ua_rank(P), u) + (1 - phi) * utility(P, opt_rank(P, u), u)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestNormalizedUtility:
    def test_opt_is_one(self):
        rng = np.random.default_rng(34)
        P = random_prediction(rng, 5, 3)
        u = UtilitySpec.dcg(5, L=3)
        assert normalized_utility(P, "opt", u).normalized == pytest.approx(1.0)

    def test_min_ordering_is_zero(self):
        rng = np.random.default_rng(35)
        P = random_prediction(rng, 5, 3)
        u = UtilitySpec.dcg(5, L=3)
        rep = normalized_utility(P, "opt", u)
        assert utility(P, min_rank(P, u), u) == pytest.approx(rep.min)
        assert rep.min <= rep.raw <= rep.max + 1e-9

    def test_degenerate_all_equal_rows(self):
        P = PredictionMatrix(np.full((4, 2), 0.5))
        u = UtilitySpec.dcg(4, L=2)
        for fn in ("ua", "opt", "mix"):
            rep = normalized_utility(P, fn, u, phi=0.5 if fn == "mix" else None)
            assert rep.normalized == 1.0

    def test_in_unit_interval(self):
        rng = np.random.default_rng(36)
        for fn in ("ua", "opt", "mix", "pl"):
            P = random_prediction(rng, 6, 3)
            u = UtilitySpec.dcg(6, L=3)
            rep = normalized_utility(
                P, fn, u,
                phi=0.5 if fn == "mix" else None,
                samples=2000 if fn == "pl" else None,
                seed=0 if fn == "pl" else None,
            )
            assert 0.0 <= rep.normalized <= 1.0

    @pytest.mark.parametrize("fn", ["opt", "ua"])
    def test_overflow_is_a_validation_error_without_warnings(self, fn):
        # Each utility is finite per individual, but the sum over positions overflows float64.
        P = PredictionMatrix(np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2], [0.1, 0.8, 0.1]]))
        u = UtilitySpec.dcg(3, label_values=np.array([1e308, 1.5e308, 1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^utility overflows: raw inf, min inf, max inf"):
                normalized_utility(P, fn, u)


def _matrix_utility_report(P, fn, u, **kw):
    """normalized_utility as it was computed from the min_rank and opt_rank matrices."""
    raw = utility(P, compute_ranking(fn, P, u=u, **kw), u)
    lo = utility(P, min_rank(P, u), u)
    hi = utility(P, opt_rank(P, u), u)
    norm = 1.0 if hi - lo < 1e-12 else min(1.0, max(0.0, (raw - lo) / (hi - lo)))
    return raw, lo, hi, norm


def _bound_cases():
    """Seeded (P, u) cases: n = 1, tied, all-equal and one-hot tau, DCG and custom
    weights (some with trailing zeros, some longer than n), label values from 0."""
    rng = np.random.default_rng(39)
    yield PredictionMatrix(np.array([[0.3, 0.7]])), UtilitySpec.dcg(1, L=2)
    yield PredictionMatrix(np.full((5, 3), 1 / 3)), UtilitySpec.dcg(5, L=3)
    yield PredictionMatrix(np.eye(3)[[0, 2, 2, 1, 0, 2]]), UtilitySpec([0.0, 1.0, 2.5], [3, 2, 2, 1, 0, 0])
    yield PredictionMatrix(np.eye(2)[[0, 0, 0]]), UtilitySpec([0.0, 1.0], [1.0, 0.5, 0.0, 0.0])
    for _ in range(60):
        n, L = int(rng.integers(1, 80)), int(rng.integers(1, 6))
        rows = rng.random((n, L)) + 1e-9
        rows[rng.random(n) < 0.2] = np.eye(L)[rng.integers(L)]
        if n > 1:
            rows[rng.integers(n, size=n // 2)] = rows[0]  # tied tau
        P = PredictionMatrix(rows / rows.sum(axis=1, keepdims=True))
        values = np.cumsum(rng.random(L) + 0.1) - (0.1 if rng.random() < 0.3 else 0.0)
        if rng.random() < 0.5:
            u = UtilitySpec.dcg(n, label_values=values)
        else:
            w = np.sort(rng.random(n + int(rng.integers(3))))[::-1]
            w[rng.integers(len(w) + 1):] = 0.0
            u = UtilitySpec(values, w)
        yield P, u


class TestSortedTauBounds:
    @pytest.mark.parametrize("fn", ["opt", "ua"])
    def test_equal_to_matrix_bounds_bit_for_bit(self, fn):
        for P, u in _bound_cases():
            if fn == "ua" and P.n > 40:
                continue
            rep = normalized_utility(P, fn, u)
            got = [rep.raw, rep.min, rep.max, rep.normalized]
            assert [x.hex() for x in got] == [x.hex() for x in _matrix_utility_report(P, fn, u)]

    @pytest.mark.parametrize("fn,kw", [("opt", {}), ("ua", {}), ("pl", {"samples": 50, "seed": 0})])
    def test_matrices_built_per_call(self, monkeypatch, fn, kw):
        built = []
        post_init = RankingDistribution.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(RankingDistribution, "__post_init__", counting)
        rng = np.random.default_rng(40)
        P, P2 = random_prediction(rng, 7, 3), random_prediction(rng, 7, 3)
        u = UtilitySpec.dcg(7, L=3)
        normalized_utility(P, fn, u, **kw)
        assert len(built) == 1
        stability_gap(fn, P, P2, u=u, **kw)
        assert len(built) == 3


class TestCompositionCheck:
    def test_identical_predictions_zero_gap(self):
        P = PredictionMatrix(np.array([[0.3, 0.7], [0.3, 0.7], [0.9, 0.1]]))
        M = ua_rank(P)
        chk = if_composition_check(P, M, 0, 1, d_ij=0.0, beta=1.0, gamma=1.0)
        assert chk.row_gap <= 1e-12 and chk.passed

    def test_lower_bound_instance_rows_two_three(self, stab_lb):
        P, _ = stab_lb
        chk = if_composition_check(P, ua_rank(P), 1, 2, d_ij=0.0, beta=1.0, gamma=1.0)
        assert chk.row_gap == pytest.approx(0.0, abs=1e-12)

    def test_ua_row_gap_bounded_by_prediction_distance(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            P = random_prediction(rng, n, 3)
            M = ua_rank(P)
            i, j = rng.choice(n, size=2, replace=False)
            delta = float(np.abs(P.rows[i] - P.rows[j]).sum())
            chk = if_composition_check(P, M, int(i), int(j), d_ij=delta, beta=1.0, gamma=1.0)
            assert chk.row_gap <= 2 * delta + 1e-12
            assert chk.passed

    def test_rejects_same_individual(self, stab_lb):
        P, _ = stab_lb
        with pytest.raises(ValidationError):
            if_composition_check(P, ua_rank(P), 1, 1, 0.1, 1.0, 1.0)

    @pytest.mark.parametrize("d_ij,beta,gamma", [
        (np.nan, 1.0, 1.0), (0.1, np.nan, 1.0), (0.1, 1.0, np.nan), (-0.1, 1.0, 1.0),
    ])
    def test_rejects_nan_or_negative_parameters(self, stab_lb, d_ij, beta, gamma):
        P, _ = stab_lb
        with pytest.raises(ValidationError, match="d_ij"):
            if_composition_check(P, ua_rank(P), 0, 1, d_ij, beta, gamma)
