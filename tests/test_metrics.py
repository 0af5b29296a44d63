import tracemalloc
import warnings
from functools import partial

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
from uarank import types as types_mod
from uarank.rankers import compute_ranking

from conftest import eps_pair, random_prediction


def u_linear(n, L):
    return UtilitySpec(np.arange(1, L + 1, dtype=float), np.ones(n))


class TestStabilityGap:
    def test_ua_lower_bound_pair(self, stab_lb):
        P, P2 = stab_lb
        rep = stability_gap(ua_rank, P, P2)
        assert rep.inf_gap == pytest.approx(0.5, abs=1e-12)
        assert rep.l1_dist == pytest.approx(1.0, abs=1e-12)
        assert rep.ratio == pytest.approx(0.5, abs=1e-12)

    def test_identical_inputs(self, stab_lb):
        P, _ = stab_lb
        rep = stability_gap(ua_rank, P, P)
        assert rep.inf_gap == 0.0 and rep.l1_dist == 0.0 and rep.ratio is None

    def test_opt_eps_pair(self):
        P, P2 = eps_pair(0.05)
        rep = stability_gap(partial(opt_rank, u=u_linear(2, 2)), P, P2)
        assert rep.inf_gap == pytest.approx(1.0)
        assert rep.l1_dist == pytest.approx(0.4, abs=1e-12)

    def test_overflowing_ratio_is_a_validation_error(self):
        # The inputs differ by one subnormal, which flips opt's tie: 1 / 5e-324 overflows.
        P = PredictionMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        P2 = PredictionMatrix(np.array([[1.0, 0.0], [1.0, 5e-324]]))
        u = UtilitySpec(np.array([0.0, 1.0]), np.ones(2))
        with pytest.raises(ValidationError, match=r"^stability ratio overflows: inf_gap 1\.0 over l1_dist 5e-324$"):
            stability_gap(partial(opt_rank, u=u), P, P2)

    def test_dimension_mismatch(self, stab_lb):
        P, _ = stab_lb
        Q = PredictionMatrix(np.array([[0.5, 0.5]]))

        def r(_):  # refused before the ranking function is called
            raise AssertionError("ranking function called on mismatched inputs")

        with pytest.raises(ValidationError, match=r"^prediction matrices have different shapes: 3x3 vs 1x2$"):
            stability_gap(r, P, Q)

    def test_ua_one_stability_sampled(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            n, L = int(rng.integers(2, 9)), int(rng.integers(2, 5))
            rep = stability_gap(ua_rank, random_prediction(rng, n, L), random_prediction(rng, n, L))
            assert rep.inf_gap <= rep.l1_dist + 1e-12

    def test_mixture_approximate_stability(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            phi = float(rng.random())
            u = UtilitySpec.dcg(n, L=3)
            rep = stability_gap(
                partial(mix_rank, u=u, phi=phi), random_prediction(rng, n, 3), random_prediction(rng, n, 3)
            )
            assert rep.inf_gap <= phi * rep.l1_dist + (1 - phi) + 1e-12


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
        assert normalized_utility(P, opt_rank(P, u), u).normalized == pytest.approx(1.0)

    def test_min_ordering_is_zero(self):
        rng = np.random.default_rng(35)
        P = random_prediction(rng, 5, 3)
        u = UtilitySpec.dcg(5, L=3)
        rep = normalized_utility(P, opt_rank(P, u), u)
        assert utility(P, min_rank(P, u), u) == pytest.approx(rep.min)
        assert rep.min <= rep.raw <= rep.max + 1e-9

    def test_degenerate_all_equal_rows(self):
        P = PredictionMatrix(np.full((4, 2), 0.5))
        u = UtilitySpec.dcg(4, L=2)
        for fn in ("ua", "opt", "mix"):
            rep = normalized_utility(P, compute_ranking(fn, P, u=u, phi=0.5 if fn == "mix" else None), u)
            assert rep.normalized == 1.0

    def test_in_unit_interval(self):
        rng = np.random.default_rng(36)
        for fn in ("ua", "opt", "mix", "pl"):
            P = random_prediction(rng, 6, 3)
            u = UtilitySpec.dcg(6, L=3)
            M = compute_ranking(
                fn, P, u=u,
                phi=0.5 if fn == "mix" else None,
                samples=2000 if fn == "pl" else None,
                seed=0 if fn == "pl" else None,
            )
            rep = normalized_utility(P, M, u)
            assert 0.0 <= rep.normalized <= 1.0

    @pytest.mark.parametrize("fn", ["ua", "opt", "mix", "pl"])
    def test_normalized_does_not_depend_on_the_scale_of_the_values(self, fn):
        # max - min is about a tenth of the label values' scale; at 1e-13 an absolute
        # threshold of 1e-12 on it called every ranking optimal and gave 1.
        kw = {"phi": 0.5} if fn == "mix" else {"samples": 2000, "seed": 0} if fn == "pl" else {}
        rng = np.random.default_rng(41)
        for P, values in ((PredictionMatrix(np.array([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]])), np.array([0.0, 1.0])),
                          (random_prediction(rng, 6, 3), np.array([0.0, 1.0, 2.5]))):
            M = compute_ranking(fn, P, u=UtilitySpec.dcg(P.n, label_values=values), **kw)
            got = [normalized_utility(P, M, UtilitySpec.dcg(P.n, label_values=scale * values)).normalized
                   for scale in (1e-13, 1.0, 1e13)]
            assert got[0] == pytest.approx(got[1], abs=1e-12)
            assert got[2] == pytest.approx(got[1], abs=1e-12)

    @pytest.mark.parametrize("fn", ["opt", "ua"])
    def test_overflow_is_a_validation_error_without_warnings(self, fn):
        # Each utility is finite per individual, but the sum over positions overflows float64.
        P = PredictionMatrix(np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2], [0.1, 0.8, 0.1]]))
        u = UtilitySpec.dcg(3, label_values=np.array([1e308, 1.5e308, 1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^utility overflows: raw inf; scale"):
                normalized_utility(P, compute_ranking(fn, P, u=u), u)

    def test_utility_overflow_is_a_validation_error_without_warnings(self):
        # One-hot rows: tau is the label values, each finite, but their sum overflows.
        P = PredictionMatrix(np.eye(3))
        u = UtilitySpec.dcg(3, label_values=np.array([1e308, 1.5e308, 1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^utility overflows: raw inf; scale"):
                utility(P, opt_rank(P, u), u)

    def test_bound_overflow_names_raw_min_and_max(self):
        # UA spreads the two individuals over both positions: its utility and the
        # worst order's stay finite, the best order's overflows.
        P = PredictionMatrix(np.array([[0.0, 1.0], [0.5, 0.5]]))
        u = UtilitySpec(np.array([0.0, 1.75e308]), np.array([1.0, 0.1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^utility overflows: raw 1\.6\d*e\+308, min 1\.0\d*e\+308, "
                                                      r"max inf; scale"):
                normalized_utility(P, ua_rank(P), u)


def _matrix_utility_report(P, M, u):
    """normalized_utility of M computed from the min_rank and opt_rank matrices."""
    raw = utility(P, M, u)
    lo = utility(P, min_rank(P, u), u)
    hi = utility(P, opt_rank(P, u), u)
    norm = 1.0 if hi - lo <= 1e-12 * hi else min(1.0, max(0.0, (raw - lo) / (hi - lo)))
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
            M = compute_ranking(fn, P, u=u)
            rep = normalized_utility(P, M, u)
            got = [rep.raw, rep.min, rep.max, rep.normalized]
            assert [x.hex() for x in got] == [x.hex() for x in _matrix_utility_report(P, M, u)]

    @pytest.mark.parametrize("fn,kw", [("opt", {}), ("ua", {}), ("pl", {"samples": 50, "seed": 0})])
    def test_matrices_built_per_call(self, monkeypatch, fn, kw):
        # ua and pl build one dense, DS-checked matrix per ranking.  opt keeps its order
        # and builds no matrix at all: its order-backed rankings are counted instead.
        built, ordered, matrices = [], [], []
        post_init, from_order = RankingDistribution.__post_init__, RankingDistribution.from_order
        permutation_matrix = types_mod._permutation_matrix

        def counting(self):
            built.append(self)
            post_init(self)

        def counting_order(order):
            ordered.append(order)
            return from_order(order)

        def counting_matrix(order):
            matrices.append(order)
            return permutation_matrix(order)

        monkeypatch.setattr(RankingDistribution, "__post_init__", counting)
        monkeypatch.setattr(RankingDistribution, "from_order", counting_order)
        monkeypatch.setattr(types_mod, "_permutation_matrix", counting_matrix)
        counted, uncounted = (ordered, built) if fn == "opt" else (built, ordered)
        rng = np.random.default_rng(40)
        P, P2 = random_prediction(rng, 7, 3), random_prediction(rng, 7, 3)
        u = UtilitySpec.dcg(7, L=3)
        r = partial(compute_ranking, fn, u=u, **kw)
        M = r(P)
        assert len(counted) == 1
        normalized_utility(P, M, u)
        assert len(counted) == 1
        stability_gap(r, P, P2)
        assert len(counted) == 3
        assert uncounted == [] and matrices == []


def _dense(M):
    """The same ranking as a dense, DS-checked matrix: the order is dropped."""
    return RankingDistribution(types_mod._permutation_matrix(M.order))


def _order_cases():
    """(P, P2, u): random rows, all-tied tau, one flipped tie, and n = 1."""
    rng = np.random.default_rng(42)
    for n in (2, 9, 60):
        yield random_prediction(rng, n, 3), random_prediction(rng, n, 3), UtilitySpec.dcg(n, L=3)
    tied = PredictionMatrix(np.full((5, 3), 1 / 3))
    yield tied, tied, UtilitySpec.dcg(5, L=3)
    yield tied, PredictionMatrix(np.eye(3)[[1, 1, 1, 1, 1]]), UtilitySpec.dcg(5, L=3)
    # Rows 0 and 1 tie in P; in P2 row 1 is better, which swaps them under opt, not min_rank.
    P = PredictionMatrix(np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.8], [0.9, 0.1]]))
    P2 = PredictionMatrix(np.array([[0.5, 0.5], [0.5 - 2**-40, 0.5 + 2**-40], [0.2, 0.8], [0.9, 0.1]]))
    yield P, P2, UtilitySpec([0.0, 1.0], [1.0, 0.5, 0.5, 0.0])
    yield PredictionMatrix(np.array([[0.3, 0.7]])), PredictionMatrix(np.array([[0.6, 0.4]])), UtilitySpec.dcg(1, L=2)


class TestOrderPath:
    """opt_rank and min_rank keep their order; every metric of them equals the dense
    permutation matrix's bit for bit."""

    @pytest.mark.parametrize("ranker", [opt_rank, min_rank])
    def test_equal_to_the_dense_path_bit_for_bit(self, ranker):
        gaps = set()
        for P, P2, u in _order_cases():
            r = partial(ranker, u=u)
            A, B = r(P), r(P2)
            assert A.order is not None and B.order is not None
            rep = stability_gap(r, P, P2)
            inf_gap = float(np.abs(types_mod._permutation_matrix(A.order) - types_mod._permutation_matrix(B.order)).max())
            l1 = float(np.abs(P.rows - P2.rows).sum())
            want = [inf_gap, l1, inf_gap / l1 if l1 > 0.0 else None]
            hexed = [None if x is None else x.hex() for x in (rep.inf_gap, rep.l1_dist, rep.ratio, *want)]
            assert hexed[:3] == hexed[3:]
            assert rep == stability_gap(lambda Q: _dense(r(Q)), P, P2)
            gaps.add(rep.inf_gap)
            for Q, M in ((P, A), (P2, B)):
                raw = utility(Q, M, u)
                assert raw.hex() == float(u.tau(Q) @ _dense(M).entries @ u.weights_for(Q.n)).hex()
                assert raw.hex() == utility(Q, _dense(M), u).hex()
                assert normalized_utility(Q, M, u) == normalized_utility(Q, _dense(M), u)
        assert gaps == {0.0, 1.0}

    @pytest.mark.parametrize("ranker", [opt_rank, min_rank])
    def test_entries_are_the_permutation_matrix_read_only(self, ranker):
        for P, _, u in _order_cases():
            M = ranker(P, u)
            old = np.zeros((P.n, P.n))
            old[M.order, np.arange(P.n)] = 1.0
            assert M.n == P.n and np.array_equal(M.entries, old)
            assert M.entries is M.entries  # built once, on the first read
            for frozen in (M.entries, M.order):
                with pytest.raises(ValueError, match="read-only"):
                    frozen[0] = 0

    def test_orders_of_different_lengths_are_refused(self):
        P, P2 = PredictionMatrix(np.full((3, 2), 0.5)), PredictionMatrix(np.eye(2)[[0, 1, 1]])

        def r(Q):  # a ranking function that drops the last individual of P2
            return RankingDistribution.from_order(np.arange(3) if Q is P else np.arange(2))

        with pytest.raises(ValidationError, match=r"^cannot compare arrays of shapes \(3, 3\) and \(2, 2\)$"):
            stability_gap(r, P, P2)

    def test_overflowing_tau_is_refused_naming_its_row(self):
        # tau of the second row overflows to inf: refused, without a RuntimeWarning, before
        # either ranking path could multiply it by zeros and report a utility of NaN.
        big = np.finfo(np.float64).max
        rows = np.array([[1.0, 0.0, 0.0], [0.12, 0.02, 0.98]])
        P = PredictionMatrix(rows / rows.sum(axis=1, keepdims=True))
        u = UtilitySpec.dcg(2, label_values=[big * (1 - 4e-16), big * (1 - 2.3e-16), big])
        M = RankingDistribution.from_order([1, 0])
        calls = [partial(u.tau, P), partial(opt_rank, P, u), partial(utility, P, M, u), partial(utility, P, _dense(M), u)]
        for call in calls:
            with pytest.raises(ValidationError, match=r"^tau of row 2 overflows; scale the label values down$"):
                call()

    def test_stability_of_opt_builds_no_matrix(self):
        rng = np.random.default_rng(43)
        P, P2 = random_prediction(rng, 1000, 5), random_prediction(rng, 1000, 5)
        r = partial(opt_rank, u=UtilitySpec.dcg(1000, L=5))
        stability_gap(r, P, P2)  # warm up
        tracemalloc.start()
        try:
            rep = stability_gap(r, P, P2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.inf_gap == 1.0
        assert peak < 1_000_000  # one 1000 x 1000 float64 array is 8 MB


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

    @pytest.mark.parametrize("d_ij,beta,gamma,named", [
        pytest.param(np.nan, 1.0, 1.0, "distance d_ij", id="nan-1.0-1.0"),
        pytest.param(0.1, np.nan, 1.0, "beta", id="0.1-nan-1.0"),
        pytest.param(0.1, 1.0, np.nan, "gamma", id="0.1-1.0-nan"),
        pytest.param(-0.1, 1.0, 1.0, "distance d_ij", id="-0.1-1.0-1.0"),
    ])
    def test_rejects_nan_or_negative_parameters(self, stab_lb, d_ij, beta, gamma, named):
        P, _ = stab_lb
        with pytest.raises(ValidationError, match=f"^{named} must be a real number in "):
            if_composition_check(P, ua_rank(P), 0, 1, d_ij, beta, gamma)


@pytest.mark.parametrize("call,message", [
    (lambda P, u: utility(P, RankingDistribution(np.eye(2)), u), "ranking is 2x2 but prediction matrix has n=3"),
    (lambda P, u: if_composition_check(P, RankingDistribution(np.eye(2)), 0, 1, 0.0, 1.0, 1.0),
     "ranking is 2x2 but prediction matrix has n=3"),
    # The index cases keep the ids their earlier messages gave them.
    pytest.param(lambda P, u: if_composition_check(P, ua_rank(P), 0, 3, 0.0, 1.0, 1.0),
                 "individual j must be an integer in [0, 3), got 3", id="<lambda>-individual index 3 out of range for n=3"),
    pytest.param(lambda P, u: if_composition_check(P, ua_rank(P), -1, 2, 0.0, 1.0, 1.0),
                 "individual i must be an integer in [0, 3), got -1", id="<lambda>-individual index -1 out of range for n=3"),
])
def test_metrics_validation_messages(call, message, stab_lb):
    P, _ = stab_lb
    with pytest.raises(ValidationError) as err:
        call(P, u_linear(3, 3))
    assert str(err.value) == message
