import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uarank import (
    BudgetExceededError,
    PopulationModel,
    PredictionMatrix,
    UtilitySpec,
    ValidationError,
    multiaccuracy_alpha,
    multicalibration_alpha,
    nature_closeness_check,
    theorem_gap_estimate,
    theorem_gap_exact,
    two_type_biased_model,
)
from uarank import audit, rankers
from uarank.audit import type_buckets
from uarank.rankers import _ua_marginals, compute_ranking, pl_rank, ua_rank

from conftest import random_population


def perfect_model():
    gt = np.array([[0.2, 0.8], [0.7, 0.3]])
    return PopulationModel(
        type_names=("a", "b"),
        weights=np.array([0.5, 0.5]),
        ground_truth=gt,
        predicted=gt.copy(),
        groups={"a": (0,), "b": (1,)},
    )


def u2(n):
    return UtilitySpec(np.array([1.0, 2.0]), np.ones(n))


EXACT_OVER = 1901  # the first n the budget refuses for an exact audit, which is one ranking
EXACT_REFUSAL = "exact audit needs 1 ranking, budget is 0 at n=1901"


class TestPopulationModel:
    def test_full_domain_group_auto_added(self):
        pop = perfect_model()
        assert any(tuple(sorted(m)) == (0, 1) for m in pop.groups.values())

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValidationError, match="sum"):
            PopulationModel(
                type_names=("a", "b"),
                weights=np.array([0.6, 0.5]),
                ground_truth=np.full((2, 2), 0.5),
                predicted=np.full((2, 2), 0.5),
                groups={},
            )

    def test_rejects_empty_group(self):
        with pytest.raises(ValidationError, match="group"):
            PopulationModel(
                type_names=("a",),
                weights=np.array([1.0]),
                ground_truth=np.array([[0.5, 0.5]]),
                predicted=np.array([[0.5, 0.5]]),
                groups={"empty": ()},
            )


class TestMultiaccuracy:
    def test_perfect_predictor_zero(self):
        res = multiaccuracy_alpha(perfect_model())
        assert all(v == 0.0 for v in res.per_group.values())
        assert res.alpha == 0.0

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.3])
    def test_biased_two_type_model(self, alpha):
        res = multiaccuracy_alpha(two_type_biased_model(alpha))
        assert res.per_group["1"] == pytest.approx(alpha / 2, abs=1e-12)
        assert res.per_group["2"] == pytest.approx(alpha / 2, abs=1e-12)

    def test_full_domain_biases_cancel(self):
        res = multiaccuracy_alpha(two_type_biased_model(0.1))
        assert res.per_group["all"] == pytest.approx(0.0, abs=1e-12)

    def test_equals_the_direct_group_sums_bit_for_bit(self):
        """The one-bucket multicalibration gives each group's direct weighted sum,
        bit for bit and in group order, for shuffled members and one-hot rows."""
        rng = np.random.default_rng(51)
        for i in range(300):
            pop = random_population(rng, int(rng.integers(1, 7)), int(rng.integers(1, 5)))
            pred = pop.predicted.copy()
            if i % 3 == 0:  # predicted values of exactly 0 and 1
                pred[0] = np.eye(pop.L)[rng.integers(pop.L)]
            groups = {f"s{j}": tuple(rng.permutation(pop.T)[:rng.integers(1, pop.T + 1)]) for j in range(3)}
            pop = dataclasses.replace(pop, predicted=pred, groups=groups)
            diff = pop.weights[:, None] * (pop.ground_truth - pop.predicted)
            direct = {name: float(np.abs(diff[list(m)].sum(axis=0)).max()) for name, m in pop.groups.items()}
            res = multiaccuracy_alpha(pop)
            assert list(res.per_group.items()) == list(direct.items())
            assert res.alpha == max(direct.values())


class TestMulticalibration:
    def test_perfect_predictor_zero(self):
        res = multicalibration_alpha(perfect_model(), 0.5)
        assert res.alpha == 0.0

    def test_two_type_half_buckets(self):
        pop = two_type_biased_model(0.1)
        res = multicalibration_alpha(pop, 0.5)
        assert res.per_cell[("1", (0, 1))] == pytest.approx(0.05, abs=1e-12)
        assert res.per_cell[("2", (1, 0))] == pytest.approx(0.05, abs=1e-12)

    def test_delta_one_collapses_to_multiaccuracy(self):
        rng = np.random.default_rng(50)
        for _ in range(5):
            pop = random_population(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            ma = multiaccuracy_alpha(pop)
            mc = multicalibration_alpha(pop, 1.0)
            zero_bucket = (0,) * pop.L
            for name in pop.groups:
                assert mc.per_cell[(name, zero_bucket)] == pytest.approx(
                    ma.per_group[name], abs=0
                )

    def test_top_bucket_for_probability_one(self):
        pop = perfect_model()
        pop2 = PopulationModel(
            type_names=("a",),
            weights=np.array([1.0]),
            ground_truth=np.array([[0.0, 1.0]]),
            predicted=np.array([[0.0, 1.0]]),
            groups={},
        )
        assert type_buckets(pop2, 0.5) == [(0, 1)]

    def test_rejects_non_integer_inverse_delta(self):
        with pytest.raises(ValidationError):
            multicalibration_alpha(perfect_model(), 0.3)

    @pytest.mark.parametrize("delta", [1e-20, 1e-310, 2.0**-54])
    def test_rejects_inverse_delta_beyond_2_to_53(self, delta):
        # Beyond 2^53 every double passes the integer test, and 1/1e-310 is inf.
        pop = two_type_biased_model(0.1)
        for call in (lambda: multicalibration_alpha(pop, delta),
                     lambda: theorem_gap_exact(pop, 2, 1, "1", delta=delta),
                     lambda: theorem_gap_estimate(pop, 2, 1, "1", mc_samples=10, seed=0, delta=delta)):
            with pytest.raises(ValidationError, match=re.escape(f"1/delta must be at most 2^53, got delta={delta}")):
                call()

    def test_accepts_inverse_delta_of_2_to_53(self):
        assert type_buckets(two_type_biased_model(0.25), 2.0**-53) == [(2**51, 3 * 2**51), (3 * 2**51, 2**51)]


@st.composite
def audited_populations(draw):
    """Populations for the violation table: 1-9 types, 1-4 labels, rows that sum to 1 within 1e-7 (so
    one-label rows differ too), some zero-weight types, groups listing their members in drawn order,
    and maybe a user group that holds every type, out of order."""
    T, L = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0)

    def rows():
        raw = np.array(draw(st.lists(unit, min_size=T * L, max_size=T * L))).reshape(T, L) + 1e-6
        shrink = 1.0 - 1e-7 * np.array(draw(st.lists(unit, min_size=T, max_size=T)))
        return raw / raw.sum(axis=1, keepdims=True) * shrink[:, None]

    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=T, max_size=T)))
    w[sorted(draw(st.sets(st.integers(0, T - 1), max_size=T - 1)))] = 0.0
    groups = {}
    for j in range(draw(st.integers(0, 4))):
        order = draw(st.permutations(range(T)))
        groups[f"s{j}"] = tuple(order[: draw(st.integers(1, T))])
    if draw(st.booleans()):
        groups["every"] = tuple(draw(st.permutations(range(T))))
    return PopulationModel(type_names=tuple(f"t{t}" for t in range(T)), weights=w / w.sum(),
                           ground_truth=rows(), predicted=rows(), groups=groups)


def one_label_population():
    """Nine types, one label: numpy sums a one-label cell's rows as a 1-d pairwise sum, so the
    7-member group, padded with zero rows to the 9-member full domain, would round differently."""
    rng = np.random.default_rng(14)
    truth, predicted = (1.0 - 1e-7 * rng.random((9, 1)) for _ in range(2))
    w = rng.random(9)
    return PopulationModel(type_names=tuple(f"t{t}" for t in range(9)), weights=w / w.sum(), ground_truth=truth,
                           predicted=predicted, groups={"s": tuple(int(t) for t in rng.permutation(9)[:7])})


@pytest.mark.baseline_kernels
@settings(max_examples=150, deadline=None)
@given(pop=audited_populations())
@example(pop=one_label_population())
def test_violation_table_sums_members_in_listed_order(pop):
    """Every group's and (group, bucket) cell's violation, alpha and the theorem bound equal a
    plain sum of the cell's rows in the order the model lists its members, bit for bit."""
    diff = pop.weights[:, None] * (pop.ground_truth - pop.predicted)

    def plain(cell):
        return float(np.abs(diff[list(cell)].sum(axis=0)).max())

    ma = multiaccuracy_alpha(pop)
    assert list(ma.per_group.items()) == [(name, plain(m)) for name, m in pop.groups.items()]
    assert ma.alpha == max(map(plain, pop.groups.values()))
    assert audit.theorem_bound(pop, 3) == (pop.L * 3 * ma.alpha, ma.alpha)
    full_domain = next(m for m in pop.groups.values() if sorted(m) == list(range(pop.T)))
    for delta in (1.0, 1 / 2, 1 / 3, 1 / 4):
        buckets, cells = type_buckets(pop, delta), {}
        for name, members in pop.groups.items():
            for t in members:
                cells.setdefault((name, buckets[t]), []).append(t)
        mc = multicalibration_alpha(pop, delta)
        assert list(mc.per_cell.items()) == [(key, plain(cell)) for key, cell in cells.items()]
        assert mc.alpha == max(map(plain, cells.values()))
        alpha = max(mc.alpha, plain(full_domain))
        assert audit.theorem_bound(pop, 3, "mix", 0.5, delta) == (0.5 * (pop.L * 3 * alpha) + 0.5, alpha)


class TestTheoremGapExact:
    def test_perfect_predictor_zero(self):
        assert theorem_gap_exact(perfect_model(), 3, 1, "a") == 0.0

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_opt_closed_form(self, n):
        pop = two_type_biased_model(0.1)
        got = theorem_gap_exact(pop, n, 1, "1", fn="opt", u=u2(n))
        assert got == pytest.approx((1 / n) * (0.5 - 2.0**-n), abs=1e-12)

    def test_single_individual_ua(self):
        pop = two_type_biased_model(0.1)
        assert theorem_gap_exact(pop, 1, 1, "1", fn="ua") == pytest.approx(0.0, abs=1e-15)

    def test_ua_bounded_by_lnalpha(self):
        rng = np.random.default_rng(51)
        for _ in range(3):
            pop = random_population(rng, 3, 2)
            alpha = multiaccuracy_alpha(pop).alpha
            n = 4
            for name in pop.groups:
                for k in range(1, n + 1):
                    gap = theorem_gap_exact(pop, n, k, name, fn="ua")
                    assert gap <= pop.L * n * alpha + 1e-12

    def test_mix_bounded(self):
        rng = np.random.default_rng(52)
        pop = random_population(rng, 2, 2)
        alpha = multiaccuracy_alpha(pop).alpha
        n, phi = 3, 0.6
        for k in range(1, n + 1):
            gap = theorem_gap_exact(pop, n, k, "g0", fn="mix", u=u2(n), phi=phi)
            assert gap <= phi * pop.L * n * alpha + (1 - phi) + 1e-12

    def test_bucket_restricted_gap_bounded(self):
        rng = np.random.default_rng(54)
        pop = random_population(rng, 3, 2)
        delta = 0.5
        mc = multicalibration_alpha(pop, delta)
        full = [n for n, m in pop.groups.items() if tuple(sorted(m)) == tuple(range(pop.T))][0]
        alpha = max(mc.alpha, multiaccuracy_alpha(pop).per_group[full])
        n = 3
        buckets = set(type_buckets(pop, delta))
        for name in pop.groups:
            for bucket in buckets:
                for k in range(1, n + 1):
                    gap = theorem_gap_exact(
                        pop, n, k, name, fn="ua", delta=delta, bucket=bucket
                    )
                    assert gap <= pop.L * n * alpha + 1e-12

    def test_budget_refusal(self):
        # The closed form is one ranking at any type count: 8 of 30 types (C(37, 8), about
        # 3.9e7 multisets) are audited, and n = 1901 is over the budget.
        rng = np.random.default_rng(55)
        pop = random_population(rng, 30, 2)
        assert 0.0 <= theorem_gap_exact(pop, 8, 1, "g0") <= pop.L * 8 * multiaccuracy_alpha(pop).alpha + 1e-12
        with pytest.raises(BudgetExceededError, match=re.escape(EXACT_REFUSAL) + "$"):
            theorem_gap_exact(pop, EXACT_OVER, 1, "g0")

    def test_validates_position(self):
        with pytest.raises(ValidationError):
            theorem_gap_exact(perfect_model(), 3, 4, "a")
        with pytest.raises(ValidationError):
            theorem_gap_exact(perfect_model(), 3, 1, "nope")


class TestTheoremGapEstimate:
    def test_perfect_predictor_exactly_zero(self):
        rep = theorem_gap_estimate(perfect_model(), 4, 1, "a", mc_samples=200, seed=1)
        assert rep.estimate == 0.0

    def test_matches_exact_within_four_sigma(self):
        rng = np.random.default_rng(56)
        pop = random_population(rng, 3, 2)
        exact = theorem_gap_exact(pop, 4, 2, "g0", fn="ua")
        rep = theorem_gap_estimate(pop, 4, 2, "g0", fn="ua", mc_samples=4000, seed=2)
        assert abs(rep.estimate - exact) <= 4 * max(rep.mc_error, 1e-12)

    def test_opt_two_type_model(self):
        pop = two_type_biased_model(0.1)
        rep = theorem_gap_estimate(pop, 4, 1, "1", fn="opt", u=u2(4), mc_samples=20_000, seed=3)
        assert abs(rep.estimate - 0.109375) <= 3 * rep.mc_error

    def test_deterministic_under_seed(self):
        pop = two_type_biased_model(0.1)
        a = theorem_gap_estimate(pop, 3, 1, "1", mc_samples=500, seed=9)
        b = theorem_gap_estimate(pop, 3, 1, "1", mc_samples=500, seed=9)
        assert a == b

    def test_refuses_large_n(self):
        # Up to 289 distinct sorted draws of two types at n=288: over the budget of 287.
        pop = two_type_biased_model(0.1)
        with pytest.raises(BudgetExceededError, match=re.escape("needs 289 multisets of types, budget is 287 at n=288")):
            theorem_gap_estimate(pop, 288, 1, "1", mc_samples=10**6, seed=0)

    def test_sampled_opt_is_charged_one_ranking(self):
        # opt ranks tau per type and makes no UA ranking, so a sampled opt audit is charged one
        # ranking as the exact audit is: admitted at n=288, where ua and mix sample 289 multisets.
        pop, refusal = two_type_biased_model(0.1), "sampling needs 289 multisets of types, budget is 287 at n=288"
        exact = theorem_gap_exact(pop, OVER, 1, "1", fn="opt", u=u2(OVER))
        rep = theorem_gap_estimate(pop, OVER, 1, "1", fn="opt", u=u2(OVER), mc_samples=1000, seed=0)
        assert 0.0 < rep.mc_error and abs(rep.estimate - exact) <= 4 * rep.mc_error
        for fn, phi in (("ua", None), ("mix", 0.5)):
            with pytest.raises(BudgetExceededError, match="^" + re.escape(refusal) + "$"):
                theorem_gap_estimate(pop, OVER, 1, "1", fn=fn, u=u2(OVER), phi=phi, mc_samples=1000, seed=0)


class TestNatureCloseness:
    def test_perfect_predictor(self):
        rep = nature_closeness_check(perfect_model(), 4, seed=0, samples=20)
        assert rep.eps == 0.0 and rep.max_gap == 0.0 and rep.within_bound

    def test_two_type_model(self):
        rep = nature_closeness_check(two_type_biased_model(0.1), 4, seed=1, samples=30)
        assert rep.eps == pytest.approx(0.2, abs=1e-12)
        assert rep.within_bound and rep.max_gap <= rep.bound

    def test_single_type_population(self):
        pop = PopulationModel(
            type_names=("only",),
            weights=np.array([1.0]),
            ground_truth=np.array([[0.3, 0.7]]),
            predicted=np.array([[0.4, 0.6]]),
            groups={},
        )
        rep = nature_closeness_check(pop, 3, seed=2, samples=10)
        assert rep.within_bound

    def test_rejects_zero_samples(self):
        with pytest.raises(ValidationError, match=re.escape("samples must be an integer in [1, inf), got 0")):
            nature_closeness_check(perfect_model(), 3, samples=0)


def tied_model():
    """Types 0 and 1 share a predicted row, so opt's tau ties across types and
    falls to the ascending-index tie-break; every tau here is exact in binary."""
    return PopulationModel(
        type_names=("a", "b", "c"),
        weights=np.array([0.25, 0.25, 0.5]),
        ground_truth=np.array([[0.75, 0.25], [0.5, 0.5], [0.25, 0.75]]),
        predicted=np.array([[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]]),
        groups={"a": (0,), "ab": (0, 1)},
    )


def zero_weight_model():
    """A random population whose type t1 has weight 0, which exact audits leave
    out of the multisets they enumerate."""
    pop = random_population(np.random.default_rng(59), 3, 2)
    return dataclasses.replace(pop, weights=np.array([0.375, 0.0, 0.625]))


class ReferenceAudit:
    """The audit written out one dataset at a time: one `compute_ranking` call per
    type vector under the ground truth and one under the predictor."""

    def __init__(self, pop, fn, u=None, phi=None):
        self.pop, self.fn, self.u, self.phi = pop, fn, u, phi
        self._matrices, self._members = {}, {}

    def value(self, tvec, k, group, delta=None, bucket=None):
        if tvec not in self._matrices:
            self._matrices[tvec] = [
                compute_ranking(self.fn, PredictionMatrix(d[list(tvec)]), u=self.u, phi=self.phi).entries
                for d in (self.pop.ground_truth, self.pop.predicted)
            ]
        truth, pred = self._matrices[tvec]
        if (group, delta, bucket) not in self._members:
            mask = self.pop.group_mask(group)
            bucket_of = type_buckets(self.pop, delta) if bucket is not None else None
            self._members[group, delta, bucket] = [mask[t] and (bucket is None or bucket_of[t] == bucket)
                                                   for t in range(self.pop.T)]
        ind = np.array([self._members[group, delta, bucket][t] for t in tvec], dtype=float)
        terms = ind * (truth[:, k - 1] - pred[:, k - 1])
        return terms.mean()

    def exact(self, n, k, group, **kw):
        return abs(sum(
            np.prod(self.pop.weights[list(tvec)]) * self.value(tvec, k, group, **kw)
            for tvec in itertools.product(range(self.pop.T), repeat=n)
        ))

    def estimate(self, n, k, group, samples, seed, **kw):
        draws = np.random.default_rng(seed).choice(self.pop.T, size=(samples, n), p=self.pop.weights)
        return abs(np.mean([self.value(tuple(row), k, group, **kw) for row in draws.tolist()]))


class TestEngineMatchesPerVectorReference:
    @pytest.mark.parametrize("make_pop", [tied_model, lambda: random_population(np.random.default_rng(57), 3, 3),
                                          zero_weight_model],
                             ids=["tied", "random", "zero_weight"])
    @pytest.mark.parametrize("fn,phi", [("ua", None), ("opt", None), ("mix", 0.35)])
    def test_exact_and_sampled(self, make_pop, fn, phi):
        pop = make_pop()
        buckets = sorted(set(type_buckets(pop, 0.5)))
        for n in range(1, 6):
            u = UtilitySpec.dcg(n, L=pop.L)
            ref = ReferenceAudit(pop, fn, u, phi)
            for group in pop.groups:
                for k in range(1, n + 1):
                    got = theorem_gap_exact(pop, n, k, group, fn=fn, u=u, phi=phi)
                    assert got == pytest.approx(ref.exact(n, k, group), abs=1e-15)
                    for bucket in buckets:
                        got = theorem_gap_exact(pop, n, k, group, fn=fn, u=u, phi=phi, delta=0.5, bucket=bucket)
                        assert got == pytest.approx(ref.exact(n, k, group, delta=0.5, bucket=bucket), abs=1e-15)
                    rep = theorem_gap_estimate(pop, n, k, group, fn=fn, u=u, phi=phi, mc_samples=200, seed=k)
                    assert rep.estimate == pytest.approx(ref.estimate(n, k, group, 200, k), abs=1e-15)

    def test_tied_types_keep_the_index_tie_break(self):
        # Under the predictor types a and b tie on tau, so who is ranked first
        # depends on the order of the type vector: (a, b) and (b, a) differ.
        pop = tied_model()
        u = UtilitySpec.dcg(2, L=2)
        ref = ReferenceAudit(pop, "opt", u)
        assert ref.value((0, 1), 1, "a") != ref.value((1, 0), 1, "a")
        assert theorem_gap_exact(pop, 2, 1, "a", fn="opt", u=u) == pytest.approx(ref.exact(2, 1, "a"), abs=1e-15)


class TestMultisetEnumeration:
    """Exact audits sum over multisets of types, which reaches sizes where all T^n
    ordered type vectors would not fit the enumeration budget."""

    @pytest.mark.parametrize("n", [12, 16])
    def test_four_types(self, n):
        # 4^12 and 4^16 ordered vectors, but only 455 and 969 multisets.
        pop = random_population(np.random.default_rng(60), 4, 2)
        bound = pop.L * n * multiaccuracy_alpha(pop).alpha
        for group, k in (("g0", 1), ("pair", n // 2)):
            gap = theorem_gap_exact(pop, n, k, group)
            rep = theorem_gap_estimate(pop, n, k, group, mc_samples=1000, seed=n)
            assert abs(rep.estimate - gap) <= 4 * rep.mc_error
            assert gap <= bound + 1e-12

    @pytest.mark.parametrize("n", range(9, 20))
    def test_two_type_opt_closed_form(self, n):
        # Under a nearly multiaccurate predictor opt's gap stays at (1/n)(1/2 - 2^-n),
        # above the L*n*alpha that bounds UA.
        pop = two_type_biased_model(0.001)
        gap = theorem_gap_exact(pop, n, 1, "1", fn="opt", u=u2(n))
        assert gap == pytest.approx((1 / n) * (0.5 - 2.0**-n), abs=1e-12)
        assert gap > pop.L * n * multiaccuracy_alpha(pop).alpha
        rep = theorem_gap_estimate(pop, n, 1, "1", fn="opt", u=u2(n), mc_samples=4000, seed=n)
        assert abs(rep.estimate - gap) <= 4 * rep.mc_error

    def test_n_beyond_cap_refused_by_both_paths(self):
        # The budget caps n per type count: rankings * max(n, 19)^3 <= 10^6 * 19^3 admits the
        # n+1 multisets of two types up to n=287, and one type's one multiset up to n=1900.
        # The exact closed form is one ranking for any population, so it reaches n=1900.
        single = PopulationModel(type_names=("only",), weights=np.array([1.0]),
                                 ground_truth=np.array([[0.3, 0.7]]), predicted=np.array([[0.4, 0.6]]), groups={})
        for pop, cap, refusal in ((two_type_biased_model(0.1), 287, "needs 289 multisets of types, budget is 287"),
                                  (single, 1900, "needs 1 multisets of types, budget is 0")):
            assert audit._charge(pop, EXACT_OVER - 1, None, "exact audit") == 1
            assert theorem_gap_exact(pop, EXACT_OVER - 1, 1, "all") <= 1e-15
            with pytest.raises(BudgetExceededError, match="^" + re.escape(EXACT_REFUSAL) + "$"):
                theorem_gap_exact(pop, EXACT_OVER, 1, "all")
            assert audit._charge(pop, cap, 10**6, "sampling") == math.comb(cap + pop.T - 1, cap)
            message = re.escape(f"{refusal} at n={cap + 1}")
            with pytest.raises(BudgetExceededError, match="^sampling " + message):
                theorem_gap_estimate(pop, cap + 1, 1, "all", mc_samples=10**6, seed=0)
            with pytest.raises(BudgetExceededError, match="^nature check " + message):
                nature_closeness_check(pop, cap + 1, seed=0, samples=10**6)

    def test_budget_is_the_multiset_count_up_to_n19(self):
        # At n <= 19 the budget is 10^6 rankings.  A sampled call is charged min(samples, multisets)
        # and is refused past 10^6 samples of 8 of 20 types (C(27, 8) = 2 220 075 multisets);
        # the exact closed form is charged one ranking, so it audits them.
        pop = random_population(np.random.default_rng(61), 20, 2)
        with pytest.raises(BudgetExceededError,
                           match=re.escape("sampling needs 1000001 multisets of types, budget is 1000000") + "$"):
            theorem_gap_estimate(pop, 8, 1, "g0", mc_samples=10**6 + 1, seed=0)
        assert audit._charge(pop, 8, None, "exact audit") == 1
        assert 0.0 <= theorem_gap_exact(pop, 8, 1, "g0") <= pop.L * 8 * multiaccuracy_alpha(pop).alpha + 1e-12
        assert audit._charge(pop, 6, 10**9, "sampling") == math.comb(25, 6)
        assert audit._charge(pop, 8, 10**6, "sampling") == 10**6
        with pytest.raises(BudgetExceededError, match=re.escape("sampling needs 1000001 multisets")):
            audit._charge(pop, 19, 10**6 + 1, "sampling")
        assert audit._charge(two_type_biased_model(0.1), 19, 10**9, "sampling") == 20


def two_type_ua_gap(alpha, n, k):
    """Exact UA gap of `two_type_biased_model(alpha)` for group "1" or "2" at position k:
    (alpha/n) * |Pr[B > k-1] - Pr[B < k-1]| with B ~ Bin(n-1, 1/2).

    Under the truth every row is (1/2, 1/2), so UA is 1/n everywhere.  Under the
    predictor, fix individual i of type "1".  Averaged over their types, the others'
    labels are i.i.d. with the top label at probability (1/2)(1/2 + alpha) +
    (1/2)(1/2 - alpha) = 1/2, so B, the others holding the top label, is Bin(n-1, 1/2).
    i holds the top label with probability 1/2 + alpha and ties break uniformly, so
    Pr[i -> k] = (1/2 + alpha) a_k + (1/2 - alpha) b_k with a_k = E[1[k <= B+1] / (B+1)]
    and b_k = E[1[k >= B+1] / (n-B)]; the truth's 1/n is the same with 1/2 and 1/2.
    Type "1" has weight 1/2, so the gap is (alpha/2) |a_k - b_k|.  By
    C(n-1, b)/(b+1) = C(n, b+1)/n and C(n-1, b)/(n-b) = C(n, b)/n, a_k = (2/n) Pr[B' >= k]
    and b_k = (2/n) Pr[B' < k] for B' = B + Bernoulli(1/2) ~ Bin(n, 1/2), and splitting
    on the Bernoulli gives Pr[B' >= k] - Pr[B' < k] = Pr[B > k-1] - Pr[B < k-1].
    Type "2" contributes the opposite sign, so group "all" has gap 0.
    """
    below = _binomial_prefix(n - 1)  # below[j] = sum over b < j of C(n-1, b)
    return alpha / n * (abs((below[-1] - below[k]) - below[k - 1]) / 2 ** (n - 1))


@functools.cache
def _binomial_prefix(m):
    """[sum of C(m, b) over b < j for j = 0..m+1], in Python integers."""
    return [0, *itertools.accumulate(math.comb(m, b) for b in range(m + 1))]


class TestTwoTypeClosedForm:
    """The exact audit against closed forms on the two-type biased model, at n far beyond
    what the per-vector reference audit reaches."""

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 14, 19])
    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.49])
    def test_ua_gap_at_every_position(self, n, alpha):
        pop = two_type_biased_model(alpha)
        for k in range(1, n + 1):
            for group in ("1", "2"):
                assert theorem_gap_exact(pop, n, k, group) == pytest.approx(two_type_ua_gap(alpha, n, k), abs=1e-15)
            assert theorem_gap_exact(pop, n, k, "all") <= 1e-15

    @pytest.mark.parametrize("n, ks", [(40, (1, 20, 40)), (100, (1,))])
    def test_ua_gap_beyond_n19(self, n, ks):
        pop = two_type_biased_model(0.01)
        gaps = {k: theorem_gap_exact(pop, n, k, "1") for k in ks}
        for k, gap in gaps.items():
            assert gap == pytest.approx(two_type_ua_gap(0.01, n, k), abs=1e-15)
        # The measured alpha is 0.01/2, so the bound L*n*alpha is n * 0.01: about n^2 times the gap at k=1.
        assert audit.theorem_bound(pop, n)[0] / gaps[1] == pytest.approx(n**2, rel=1e-9)

    def test_opt_gap_at_n200(self):
        gap = theorem_gap_exact(two_type_biased_model(0.01), 200, 1, "1", fn="opt", u=u2(200))
        assert gap == pytest.approx((1 / 200) * (0.5 - 2.0**-200), abs=1e-15)

    @pytest.mark.parametrize("n", [1000, 1900])
    def test_ua_gap_up_to_the_budget(self, n):
        # Every 7th position, up to the largest n the budget admits.
        for alpha in (0.01, 0.3, 0.49):
            pop = two_type_biased_model(alpha)
            for k in range(1, n + 1, 7):
                assert theorem_gap_exact(pop, n, k, "1") == pytest.approx(two_type_ua_gap(alpha, n, k), abs=1e-15)

    def test_opt_gap_at_n1900(self):
        gap = theorem_gap_exact(two_type_biased_model(0.01), 1900, 1, "1", fn="opt", u=u2(1900))
        assert gap == pytest.approx((1 / 1900) * (0.5 - 2.0**-1900), abs=1e-15)


def edge_model(truth):
    """Three types over three labels, with the given ground-truth rows and predictor rows
    that spread some mass on every label."""
    return PopulationModel(
        type_names=("a", "b", "c"),
        weights=np.array([0.25, 0.5, 0.25]),
        ground_truth=np.array(truth, dtype=float),
        predicted=np.array([[0.25, 0.25, 0.5], [0.125, 0.375, 0.5], [0.5, 0.25, 0.25]]),
        groups={"a": (0,), "ab": (0, 1)},
    )


class TestClosedFormEdges:
    """The closed form where a binomial has q = 0 or 1, and its position check."""

    @pytest.mark.parametrize("truth", [
        [[0, 0, 1], [0, 0, 1], [0, 0, 1]],  # the truth's mixture is all on the top label
        [[0.5, 0, 0.5], [0.25, 0, 0.75], [1, 0, 0]],  # no type takes the middle label: m = 0 there
    ], ids=["all_top", "unused_label"])
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("fn,phi", [("ua", None), ("opt", None), ("mix", 0.35)])
    def test_matches_reference_without_warnings(self, truth, n, fn, phi):
        pop = edge_model(truth)
        u = UtilitySpec.dcg(n, L=pop.L)
        ref = ReferenceAudit(pop, fn, u, phi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for group in pop.groups:
                for k in range(1, n + 1):
                    got = theorem_gap_exact(pop, n, k, group, fn=fn, u=u, phi=phi)
                    assert got == pytest.approx(ref.exact(n, k, group), abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 1899])
    def test_binomial_pmf_corners_match_the_masked_logs(self, n):
        """At q = 0, the least subnormal, 1/2, the largest double below 1, and 1, the pmf equals its
        earlier form, which took the logs into -inf buffers under `where=` masks, bit for bit, and no
        divide warning escapes."""
        q = np.array([0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0])

        def masked(j):
            log_q = np.log(q, out=np.full(q.shape, -np.inf), where=q > 0.0)
            log_p = np.log1p(-q, out=np.full(q.shape, -np.inf), where=q < 1.0)
            coef = math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            return np.exp(coef + (j * log_q if j else np.zeros(q.shape)) + ((n - j) * log_p if n - j else 0.0))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in sorted({0, 1, n - 1, n}):
                assert audit._binomial_pmf(n, j, q).tobytes() == masked(j).tobytes()

    def test_pmf_off_by_1e6_trips_the_position_check(self, monkeypatch):
        pop = random_population(np.random.default_rng(68), 3, 2)
        u, pmf = UtilitySpec.dcg(4, L=2), audit._binomial_pmf
        monkeypatch.setattr(audit, "_binomial_pmf", lambda n, j, q: pmf(n, j, q) + 1e-6)
        for fn, phi in (("ua", None), ("opt", None), ("mix", 0.5)):
            with pytest.raises(ValidationError, match=re.escape("position 2 holds [")):
                theorem_gap_exact(pop, 4, 2, "g0", fn=fn, u=u, phi=phi)

    def test_sampled_within_4_se_beyond_the_enumeration_cap(self):
        # T=5, n=60: 635 376 multisets of types, far more than the 31 754 rankings the budget allows at n=60.
        pop = random_population(np.random.default_rng(69), 5, 2)
        exact = theorem_gap_exact(pop, 60, 3, "g1")
        rep = theorem_gap_estimate(pop, 60, 3, "g1", mc_samples=400, seed=70)
        assert abs(rep.estimate - exact) <= 4 * rep.mc_error


@pytest.mark.baseline_kernels
class TestBatchedUa:
    """The audits rank a chunk of sorted type vectors per UA kernel call, and a chunk
    holds at most ⌊2^16/n^2⌋ of a draw block's new multisets."""

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_chunk_size_does_not_change_output(self, monkeypatch, rows):
        for pop_seed, L in ((63, 3), (58, 2)):
            with monkeypatch.context() as patch:
                self._check_chunk_size(patch, rows, random_population(np.random.default_rng(pop_seed), 3, L), L)

    @staticmethod
    def _check_chunk_size(monkeypatch, rows, pop, L):
        n, u = 4, UtilitySpec.dcg(4, L=L)
        keys = np.array(list(itertools.combinations_with_replacement(range(3), n)))

        def results():
            out = [nature_closeness_check(pop, n, seed=7, samples=60)]
            for fn, phi in (("ua", None), ("opt", None), ("mix", 0.5)):
                out.append(theorem_gap_estimate(pop, n, 1, "g0", fn=fn, u=u, phi=phi, mc_samples=300, seed=6))
            return out

        whole, sizes = results(), []
        monkeypatch.setattr(rankers, "_CHUNK_CELLS", rows * n * n if rows else 10**9)
        monkeypatch.setattr(audit, "_ua_marginals", lambda r: sizes.append(r.shape[1]) or _ua_marginals(r))
        assert results() == whole
        # A chunk ranks at most `rows` new sorted draws; unchunked, one call ranks every distinct
        # sorted draw of a 300-sample audit.
        stream = np.random.default_rng(6).choice(pop.T, size=(300, n), p=pop.weights)
        distinct = len(set(map(tuple, np.sort(stream, axis=1).tolist())))
        assert max(sizes) <= rows if rows else max(sizes) == distinct
        # Each key's pair is the one ua_rank gives it alone, whatever chunk holds it.
        step = rows or len(keys)
        for s in range(0, len(keys), step):
            M = audit._ua_pairs(pop, keys[s : s + step])
            for r, key in enumerate(keys[s : s + step]):
                for which, d in enumerate((pop.ground_truth, pop.predicted)):
                    assert np.array_equal(M[which, r], ua_rank(PredictionMatrix(d[key])).entries)

    def test_every_block_fits_one_chunk_step(self, monkeypatch):
        # T=12, n=5, 3000 draws: at 2^13 cells a block holds 2^13 // 5 = 1638 draws, and a kernel
        # stack at most 2^13 // 25 = 327 of a block's new multisets, fewer than the first block has.
        pop, n, cells = random_population(np.random.default_rng(66), 12, 2), 5, 2**13
        monkeypatch.setattr(rankers, "_CHUNK_CELLS", cells)
        gaps, gap_rows, ua_rows = audit._gaps, [], []
        monkeypatch.setattr(audit, "_gaps", lambda fn, phi, ua, opt:  # one (2, block) pair per draw
                            gap_rows.append(ua.shape[-1]) or gaps(fn, phi, ua, opt))
        monkeypatch.setattr(audit, "_ua_marginals", lambda r: ua_rows.append(r.shape[1]) or _ua_marginals(r))
        u = UtilitySpec.dcg(n, L=2)
        theorem_gap_estimate(pop, n, 2, "g0", fn="mix", u=u, phi=0.5, mc_samples=3000, seed=8)
        nature_closeness_check(pop, n, seed=9, samples=3000)
        assert gap_rows == [cells // n, 3000 - cells // n]
        assert max(ua_rows) == cells // n**2  # full stacks, never more

    @pytest.mark.parametrize("cell", [(0, 0, 0, 0), (1, -1, -1, -1)])
    def test_ua_chunks_are_ds_checked(self, monkeypatch, cell):
        def off(rows):
            M = _ua_marginals(rows)
            M[cell] += 1e-6
            return M

        monkeypatch.setattr(audit, "_ua_marginals", off)
        pop = random_population(np.random.default_rng(65), 3, 2)
        for call in (lambda: theorem_gap_estimate(pop, 3, 1, "g0", mc_samples=50, seed=1),
                     lambda: nature_closeness_check(pop, 3, seed=1, samples=20)):
            with pytest.raises(ValidationError, match="ranking distribution"):
                call()


@pytest.mark.baseline_kernels
class TestSampledDrawBlocks:
    """The sampled audit draws ⌊2^16/n⌋ type vectors at a time from its one generator
    and ranks UA only for the multisets new to its index, so it never holds every draw
    at once."""

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_blocks_continue_one_stream(self, monkeypatch, rows):
        pop, n, samples, seed = random_population(np.random.default_rng(67), 3, 3), 4, 250, 11
        u = UtilitySpec.dcg(n, L=3)
        runs = [dict(fn="ua"), dict(fn="opt", u=u), dict(fn="mix", u=u, phi=0.4)]
        whole = [theorem_gap_estimate(pop, n, 2, "g0", mc_samples=samples, seed=seed, **kw) for kw in runs]
        stream = np.random.default_rng(seed).choice(pop.T, size=(samples, n), p=pop.weights)
        distinct = len(set(map(tuple, np.sort(stream, axis=1).tolist())))
        draws, ranked = [], []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def choice(self, *args, **kwargs):
                draws.append(self.rng.choice(*args, **kwargs))
                return draws[-1]

        monkeypatch.setattr(audit, "_seeded_rng", lambda s, m: Recording(rankers._seeded_rng(s, m)))
        monkeypatch.setattr(rankers, "_CHUNK_CELLS", rows * n * n if rows else 10**9)
        monkeypatch.setattr(audit, "_ua_marginals", lambda r: ranked.append(r.shape[1]) or _ua_marginals(r))
        for kw, want in zip(runs, whole):
            draws.clear()
            ranked.clear()
            got = theorem_gap_estimate(pop, n, 2, "g0", mc_samples=samples, seed=seed, **kw)
            assert (got.estimate, got.mc_error) == (want.estimate, want.mc_error) and got == want
            step = rows * n if rows else samples  # a block holds as many type indices as a chunk cells
            assert max(len(d) for d in draws) == min(step, samples)
            assert np.array_equal(np.concatenate(draws), stream)
            assert sum(ranked) == (0 if kw["fn"] == "opt" else distinct)  # each distinct sorted draw once


@pytest.mark.baseline_kernels
class TestMultisetDedupe:
    """`_distinct_multisets` keys each draw by its type counts, packed base n + 1 into int64
    words, and numbers the multisets as `np.unique` of the row-sorted draws finds them."""

    @staticmethod
    def _check_blocks(blocks, T):
        index, numbered = {}, []  # numbered[i]: the sorted type vector numbered i
        for block in blocks:
            seen = len(index)
            new, inv = audit._distinct_multisets(block, T, index)
            rows, ref_inv = np.unique(np.sort(block, axis=1), axis=0, return_inverse=True)
            # New rows appear exactly once, as sorted vectors, numbered on from the last call.
            assert new.shape == (len(index) - seen, block.shape[1]) and new.dtype.kind == "i"
            assert len({r.tobytes() for r in [*numbered, *new]}) == len(numbered) + len(new)
            numbered.extend(new)
            # Numbers are consecutive, and each draw's number maps to its own multiset.
            assert len(numbered) == len(index) and inv.shape == (len(block),)
            assert 0 <= inv.min() and inv.max() < len(index)
            assert np.array_equal(np.array(numbered)[inv], np.sort(block, axis=1))
            assert len(np.unique(inv)) == len(rows) and np.array_equal(rows[ref_inv.ravel()], np.sort(block, axis=1))
        return index

    @pytest.mark.parametrize("T, n", [(1, 1), (1, 60), (2, 1), (3, 5), (7, 19), (14, 19), (15, 19), (24, 5),
                                      (25, 5), (30, 19), (40, 1), (40, 60), (12, 60), (5, 60)])
    def test_matches_unique_of_sorted_draws(self, T, n):
        rng = np.random.default_rng(1000 * T + n)
        w = rng.random(T) + 0.05
        w[rng.random(T) < 0.3] = 0.0  # zero-weight types: their counts stay 0
        w = w / w.sum() if w.any() else np.eye(T)[0]
        sizes = [1, 200, 1, 57, 300]
        blocks = [rng.choice(T, size=(d, n), p=w) for d in sizes]
        blocks.append(np.concatenate(blocks[:2]))  # every multiset already indexed
        self._check_blocks(blocks, T)

    def test_both_key_widths_run(self):
        # A word holds 14 counts in base 20 (n = 19) and 10 in base 61 (n = 60).
        for T, n, words in ((14, 19, 1), (15, 19, 2), (30, 19, 3), (10, 60, 1), (40, 60, 4)):
            index = self._check_blocks([np.random.default_rng(T).integers(0, T, size=(50, n))], T)
            assert {1 if isinstance(key, int) else len(key) for key in index} == {words}

    def test_block_memory_does_not_grow_with_types(self):
        # T = 500 at n = 2 takes 13 key words, but a (draws x T) count table of a 2^16 // 2-draw
        # block would take 131 MB.  The draws hold three types, so the dict stays small.
        T, n = 500, 2
        draws = np.random.default_rng(9).choice([0, 1, T - 1], size=(rankers._CHUNK_CELLS // n, n))
        tracemalloc.start()
        try:
            new, _ = audit._distinct_multisets(draws, T, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(np.unique(new, axis=0), np.unique(np.sort(draws, axis=1), axis=0)) and len(new) == 6
        assert peak < 64 * draws.nbytes  # 34 MB; about 12 MB here

    def test_all_indexed_block_ranks_nothing(self, monkeypatch):
        pop, n = random_population(np.random.default_rng(68), 3, 2), 4
        # 2^16 // 4 = 16384 draws a block: the second block's 1000 draws hold no new multiset.
        ranked = []
        monkeypatch.setattr(audit, "_ua_marginals", lambda r: ranked.append(r.shape[1]) or _ua_marginals(r))
        nature_closeness_check(pop, n, seed=5, samples=16384 + 1000)
        assert sum(ranked) == math.comb(n + 2, n) and len(ranked) == 1


@pytest.mark.baseline_kernels
class TestMultiWordKeys:
    """T = 30 at n = 19 needs three key words; these reports were recorded before the
    counts-keyed dedupe, from the dict of sorted rows' bytes."""

    pop = random_population(np.random.default_rng(71), 30, 3)

    @pytest.mark.parametrize("fn, phi, want", [
        ("ua", None, (0.00012086874624486969, 1.0446002453075967e-05)),
        ("mix", 0.3, (8.654639367039876e-05, 0.00012259920975794938)),
    ])
    def test_sampled_reports(self, fn, phi, want):
        rep = theorem_gap_estimate(self.pop, 19, 3, "pair", fn=fn, u=UtilitySpec.dcg(19, L=3), phi=phi,
                                   mc_samples=300, seed=72)
        assert (rep.estimate, rep.mc_error) == want

    def test_nature_report(self):
        rep = nature_closeness_check(self.pop, 19, seed=73, samples=100)
        assert (rep.eps, rep.bound, rep.max_gap, rep.within_bound) == (
            0.10013164657725696, 1.9025012849678822, 0.019005874820557073, True)


def draw_order_estimate(pop, n, k, group, fn, samples, seed, u=None, phi=None, delta=None, bucket=None):
    """(estimate, mc_error) of the sampled audit written per individual in draw order: each draw's
    k-th UA column pair un-sorted back to its individuals, opt one-hot at the individual it ranks
    k-th, and a draw's value the mean over its individuals of ind * (truth - predictor)."""
    mask, bucket_of = pop.group_mask(group), type_buckets(pop, delta) if bucket is not None else None
    ind = np.array([float(mask[t] and (bucket is None or bucket_of[t] == bucket)) for t in range(pop.T)])
    draws = np.random.default_rng(seed).choice(pop.T, size=(samples, n), p=pop.weights)
    ua = opt = None
    if fn != "opt":
        keys, inv = np.unique(np.sort(draws, axis=1), axis=0, return_inverse=True)
        kth = audit._ua_pairs(pop, keys)[..., k - 1][:, inv.ravel()]
        ua, order = np.empty((2, samples, n)), np.argsort(draws, axis=1, kind="stable")
        for which in (0, 1):
            np.put_along_axis(ua[which], order, kth[which], axis=1)
    if fn != "ua":
        opt = np.zeros((2, samples, n))
        for which, d in enumerate((pop.ground_truth, pop.predicted)):
            tau = u.tau(PredictionMatrix(d))
            opt[which, np.arange(samples), np.argsort(-tau[draws], axis=1, kind="stable")[:, k - 1]] = 1.0
    truth, pred = opt if fn == "opt" else ua if fn == "ua" else phi * ua + (1.0 - phi) * opt
    values = (ind[draws] * (truth - pred)).mean(axis=1)
    se = values.std(ddof=1) / np.sqrt(samples) if samples > 1 else 0.0
    return abs(float(values.mean())), float(se)


class TestDrawOrderReference:
    """A sampled draw's value is its one (truth, predictor) pair: UA's from its sorted draw, opt's
    from the type it ranks k-th.  opt matches the draw-order formulation bit for bit; ua and mix
    average over the individuals in sorted order, which may move the last digits."""

    def check(self, pop, n, k, group, fn, samples, seed, **kw):
        u, phi = UtilitySpec.dcg(n, L=pop.L), 0.35 if fn == "mix" else None
        rep = theorem_gap_estimate(pop, n, k, group, fn=fn, mc_samples=samples, seed=seed, u=u, phi=phi, **kw)
        want = draw_order_estimate(pop, n, k, group, fn, samples, seed, u=u, phi=phi, **kw)
        if fn == "opt":
            assert (rep.estimate, rep.mc_error) == want
        else:
            assert (rep.estimate, rep.mc_error) == pytest.approx(want, rel=1e-14, abs=1e-16)

    @pytest.mark.parametrize("fn", ["ua", "opt", "mix"])
    def test_every_position(self, fn):
        rng = np.random.default_rng(71)
        for T, L in itertools.product(range(1, 6), (2, 3)):
            pop = random_population(rng, T, L)
            for n in range(1, 9):
                for k in range(1, n + 1):
                    self.check(pop, n, k, f"g{k % T}", fn, samples=150, seed=n * k)

    @pytest.mark.parametrize("fn", ["ua", "opt", "mix"])
    def test_calibration_buckets(self, fn):
        pop = random_population(np.random.default_rng(72), 4, 2)
        for bucket in sorted(set(type_buckets(pop, 0.5))):
            for group in pop.groups:
                self.check(pop, 5, 2, group, fn, samples=200, seed=3, delta=0.5, bucket=bucket)


class TestMalformedBucket:
    """A bucket that names no cell of the width-delta grid is refused: no type could be in it, so
    every indicator would be 0 and the gap a silent 0.0."""

    # Ids as pytest gave them when the cases were buckets alone: bucket0..bucket8, and "0" for the int 0.
    @pytest.mark.parametrize("bucket, message", [pytest.param(bucket, message, id=f"bucket{i}" if i < 9 else "0")
                                                 for i, (bucket, message) in enumerate([
        ((5, 5), "entry 1 of calibration bucket (5, 5) must be an integer in [0, 2), got 5"),
        ((0,), "calibration bucket must be 2 integers in [0, 2), got (0,)"),
        (("x",), "calibration bucket must be 2 integers in [0, 2), got ('x',)"),
        ([5, 5], "entry 1 of calibration bucket [5, 5] must be an integer in [0, 2), got 5"),
        ([0], "calibration bucket must be 2 integers in [0, 2), got [0]"),
        (["x"], "calibration bucket must be 2 integers in [0, 2), got ['x']"),
        ((0, 1.0), "entry 2 of calibration bucket (0, 1.0) must be an integer in [0, 2), got 1.0"),
        ((True, 0), "entry 1 of calibration bucket (True, 0) must be an integer in [0, 2), got True"),
        ((-1, 1), "entry 1 of calibration bucket (-1, 1) must be an integer in [0, 2), got -1"),
        (0, "calibration bucket must be 2 integers in [0, 2), got 0"),
    ])])
    @pytest.mark.parametrize("path", ["exact", "sampled"])
    def test_refused_by_both_paths(self, path, bucket, message):
        pop = two_type_biased_model(0.2)
        call = theorem_gap_exact if path == "exact" else functools.partial(theorem_gap_estimate, mc_samples=10)
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            call(pop, 3, 1, "1", delta=0.5, bucket=bucket)

    def test_list_names_the_same_cell_as_the_tuple(self):
        pop = two_type_biased_model(0.2)
        bucket = type_buckets(pop, 0.5)[0]
        for call in (theorem_gap_exact, lambda *a, **kw: theorem_gap_estimate(*a, mc_samples=50, **kw).estimate):
            got = call(pop, 3, 1, "1", delta=0.5, bucket=bucket)
            assert got > 0.0 and call(pop, 3, 1, "1", delta=0.5, bucket=list(bucket)) == got
            assert call(pop, 3, 1, "1", delta=0.5, bucket=(np.int64(bucket[0]), bucket[1])) == got


def test_negative_seed_refused_before_any_draw():
    pop = two_type_biased_model(0.1)
    P = PredictionMatrix(np.array([[0.25, 0.75], [0.5, 0.5]]))
    for call in (lambda: pl_rank(P, u2(2), samples=10, seed=-1),
                 lambda: theorem_gap_estimate(pop, 3, 1, "1", mc_samples=10, seed=-1),
                 lambda: nature_closeness_check(pop, 3, seed=-1, samples=10)):
        with pytest.raises(ValidationError, match=re.escape("seed must be an integer in [0, inf), got -1")):
            call()


U3 = UtilitySpec(np.array([1.0, 2.0, 3.0]), np.ones(2))  # 3 label values, models have 2
OVER = 288  # the first n the budget refuses for sampling two types: 289 multisets, budget 287


# Both theorem audits check their arguments in this order (the sample count and the seed on the
# sampled path only).  A case sets its own bad argument over those of every later case, so it
# fails at its own check only if that check comes before all the later ones.
ERROR_ORDER = [
    ("samples", dict(mc_samples=0), ValidationError, "samples must be an integer in [1, inf), got 0"),
    ("seed", dict(seed=-1), ValidationError, "seed must be an integer in [0, inf), got -1"),
    ("n_positive", dict(n=0), ValidationError, "dataset size n must be an integer in [1, inf), got 0"),
    ("k_range", dict(k=0), ValidationError, f"position k must be an integer in [1, {EXACT_OVER}], got 0"),
    ("unknown_group", dict(group="nope"), ValidationError, "unknown group 'nope'; known: ['1', '2', 'all']"),
    ("unaudited_fn", dict(fn="pl"), ValidationError, "audits support ranking functions ('ua', 'opt', 'mix'); got 'pl'"),
    ("missing_u", dict(u=None), ValidationError, "ranking function 'mix' requires u"),
    ("u_type", dict(u="x"), ValidationError, "ranking function 'mix' requires u as a UtilitySpec, got 'x'"),
    ("phi_range", dict(phi=2.0), ValidationError, "mixture weight phi must be a real number in [0, 1], got 2.0"),
    ("tau_labels", dict(u=U3), ValidationError, "utility spec has 3 label values, matrix has 2 labels"),
    ("bucket_width", dict(delta=None, bucket=(0, 1)), ValidationError, "a calibration bucket needs its width delta"),
    ("bucket_cell", dict(delta=0.5, bucket=(5, 5)), ValidationError,
     "entry 1 of calibration bucket (5, 5) must be an integer in [0, 2), got 5"),
    # 10^6 samples: more than the 1902 multisets of two types, so the sampled path is charged every one.
    ("n_cap", {}, BudgetExceededError, {"exact": EXACT_REFUSAL,
                                        "sampled": "sampling needs 1902 multisets of types, budget is 0 at n=1901"}),
]
VALID = dict(mc_samples=10**6, seed=0, n=EXACT_OVER, k=1, group="1", fn="mix", u=u2(2), phi=0.5)


@pytest.mark.parametrize("path, case", [
    pytest.param(path, i, id=f"{path}-{ERROR_ORDER[i][0]}") for path in ("exact", "sampled")
    for i in range(len(ERROR_ORDER)) if path == "sampled" or ERROR_ORDER[i][0] not in ("samples", "seed")])
def test_audit_error_order(path, case):
    pop, kw = two_type_biased_model(0.1), dict(VALID)
    for _, bad, _, _ in reversed(ERROR_ORDER[case:]):
        kw.update(bad)
    _, _, error, message = ERROR_ORDER[case]
    if path == "exact":
        del kw["mc_samples"], kw["seed"]
    call = theorem_gap_exact if path == "exact" else theorem_gap_estimate
    with pytest.raises(error, match="^" + re.escape(message if isinstance(message, str) else message[path]) + "$"):
        call(pop, **kw)


def test_nature_validates_before_the_budget():
    pop = two_type_biased_model(0.1)
    for kw, message in ((dict(n=0), "dataset size n must be an integer in [1, inf), got 0"),
                        (dict(n=OVER, samples=0), "samples must be an integer in [1, inf), got 0"),
                        (dict(n=OVER, seed=-1), "seed must be an integer in [0, inf), got -1")):
        with pytest.raises(ValidationError, match=re.escape(message)):
            nature_closeness_check(pop, **{"samples": 10**6, **kw})
    with pytest.raises(BudgetExceededError, match=re.escape("nature check needs 289 multisets of types, "
                                                            "budget is 287 at n=288")):
        nature_closeness_check(pop, OVER, samples=10**6)


def test_theorem_bound():
    pop = random_population(np.random.default_rng(67), 3, 2)
    ma = multiaccuracy_alpha(pop)
    mc = max(multicalibration_alpha(pop, 0.5).alpha, ma.per_group["all"])
    assert audit.theorem_bound(pop, 4) == (pop.L * 4 * ma.alpha, ma.alpha)
    assert audit.theorem_bound(pop, 4, "opt", delta=0.5) == (pop.L * 4 * mc, mc)
    assert audit.theorem_bound(pop, 4, "mix", 0.25) == (0.25 * (pop.L * 4 * ma.alpha) + 0.75, ma.alpha)
    for fn, message in (("mix", "ranking function 'mix' requires phi"),
                        ("pl", "audits support ranking functions ('ua', 'opt', 'mix'); got 'pl'"),
                        ("nope", "unknown ranking function 'nope'")):
        with pytest.raises(ValidationError, match=re.escape(message)):
            audit.theorem_bound(pop, 4, fn)


@pytest.mark.parametrize("n, fn, phi, message", [
    # Each case keeps the id its earlier message gave it.
    pytest.param(-3, "ua", None, "dataset size n must be an integer in [1, inf), got -3",
                 id="-3-ua-None-dataset size must be positive, got -3"),
    pytest.param(0, "opt", None, "dataset size n must be an integer in [1, inf), got 0",
                 id="0-opt-None-dataset size must be positive, got 0"),
    pytest.param(4, "mix", 5.0, "mixture weight phi must be a real number in [0, 1], got 5.0",
                 id="4-mix-5.0-mixture weight must lie in [0, 1], got 5.0"),
    pytest.param(4, "mix", -0.5, "mixture weight phi must be a real number in [0, 1], got -0.5",
                 id="4-mix--0.5-mixture weight must lie in [0, 1], got -0.5"),
    pytest.param(4, "mix", float("nan"), "mixture weight phi must be a real number in [0, 1], got nan",
                 id="4-mix-nan-mixture weight must lie in [0, 1], got nan"),
])
def test_theorem_bound_refuses_impossible_arguments(n, fn, phi, message):
    # Unchecked, these gave a bound of -0.3 (n=-3), -2.0 (phi=5) and nan on the two-type model.
    with pytest.raises(ValidationError, match=re.escape(message)):
        audit.theorem_bound(two_type_biased_model(0.1), n, fn, phi)


class TestMixtureWeightRange:
    @pytest.mark.parametrize("phi", [-0.5, 1.5, 3.0, float("nan")])
    def test_exact_and_sampled_reject(self, phi):
        pop = two_type_biased_model(0.1)
        with pytest.raises(ValidationError, match="mixture weight"):
            theorem_gap_exact(pop, 3, 1, "1", fn="mix", u=u2(3), phi=phi)
        with pytest.raises(ValidationError, match="mixture weight"):
            theorem_gap_estimate(pop, 3, 1, "1", fn="mix", u=u2(3), phi=phi, mc_samples=10, seed=0)

    @pytest.mark.parametrize("phi", [0.0, 1.0])
    def test_endpoints_accepted(self, phi):
        assert theorem_gap_exact(two_type_biased_model(0.1), 3, 1, "1", fn="mix", u=u2(3), phi=phi) >= 0.0


def _model(weights=(0.5, 0.5), truth=((0.5, 0.5), (0.5, 0.5)), predicted=((0.5, 0.5), (0.5, 0.5))):
    return PopulationModel(type_names=("a", "b"), weights=np.array(weights), ground_truth=np.array(truth),
                           predicted=np.array(predicted), groups={})


@pytest.mark.parametrize("call,message", [
    (lambda: _model(weights=(1.0,)), "type weights must be one per type"),
    (lambda: _model(truth=(0.5, 0.5)), "ground truth distributions must be a T x L matrix"),
    (lambda: _model(predicted=((1.0,),)), "predicted distributions must be a T x L matrix"),
    (lambda: _model(predicted=((0.5, 0.5, 0.0), (0.5, 0.5, 0.0))), "ground-truth and predicted label counts differ"),
    # The scalar cases keep the ids their earlier messages gave them.
    pytest.param(lambda: two_type_biased_model(0.0), "bias alpha must be a real number in (0, 0.5), got 0.0",
                 id="<lambda>-bias must lie in (0, 1/2), got 0.0"),
    pytest.param(lambda: two_type_biased_model(0.5), "bias alpha must be a real number in (0, 0.5), got 0.5",
                 id="<lambda>-bias must lie in (0, 1/2), got 0.5"),
    pytest.param(lambda: multicalibration_alpha(perfect_model(), 0.0),
                 "bucket width delta must be a real number in (0, 1], got 0.0",
                 id="<lambda>-bucket width must lie in (0, 1], got 0.0"),
    pytest.param(lambda: multicalibration_alpha(perfect_model(), 1.5),
                 "bucket width delta must be a real number in (0, 1], got 1.5",
                 id="<lambda>-bucket width must lie in (0, 1], got 1.5"),
    pytest.param(lambda: multicalibration_alpha(perfect_model(), float("nan")),
                 "bucket width delta must be a real number in (0, 1], got nan",
                 id="<lambda>-bucket width must lie in (0, 1], got nan"),
])
def test_audit_validation_messages(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
