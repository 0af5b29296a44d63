import numpy as np
import pytest

from uarank import (
    BudgetExceededError,
    PredictionMatrix,
    UtilitySpec,
    ValidationError,
    compute_ranking,
    min_rank,
    mix_rank,
    opt_rank,
    pl_rank,
    pl_rank_exact,
    ua_rank,
    ua_rank_conditional,
    ua_rank_oracle,
    utility,
)

from uarank import rankers
from uarank.rankers import RANKERS, checked_ranker

from conftest import random_prediction


def u_linear(n, L):
    return UtilitySpec(np.arange(1, L + 1, dtype=float), np.ones(n))


def hard_rows(rng, n, L):
    """Peaked Dirichlet(0.05), one-hot and half-bottom/half-top rows, so the
    kernel's per-individual probabilities q hit 0, 1 and exactly 1/2."""
    rows = rng.dirichlet(np.full(L, 0.05), size=n)
    kind = rng.integers(0, 3, size=n)
    rows[kind == 1] = np.eye(L)[rng.integers(0, L, size=int((kind == 1).sum()))]
    rows[kind == 2] = 0.0
    rows[kind == 2, 0] += 0.5
    rows[kind == 2, -1] += 0.5
    return rows


class TestUaRank:
    def test_full_tie_is_uniform(self):
        P = PredictionMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert np.allclose(ua_rank(P).entries, 0.5, atol=1e-15)

    def test_antidiagonal_identity(self):
        # Disjoint deterministic labels rank individuals deterministically.
        P = PredictionMatrix(np.eye(3)[::-1])
        assert np.allclose(ua_rank(P).entries, np.eye(3), atol=1e-15)

    def test_lower_bound_instance_rows(self, stab_lb):
        P, _ = stab_lb
        M = ua_rank(P).entries
        assert M[0] == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)
        assert M[1] == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
        assert M[2] == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_single_individual(self):
        P = PredictionMatrix(np.array([[0.3, 0.7]]))
        assert np.allclose(ua_rank(P).entries, [[1.0]])

    def test_anonymity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, L = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            P = random_prediction(rng, n, L)
            perm = rng.permutation(n)
            M = ua_rank(P).entries
            Mp = ua_rank(P.permuted(perm)).entries
            assert np.abs(Mp - M[perm]).max() <= 1e-12

    def test_zero_column_extension(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            P = random_prediction(rng, int(rng.integers(2, 6)), int(rng.integers(2, 4)))
            assert np.abs(ua_rank(P.with_zero_label()).entries - ua_rank(P).entries).max() <= 1e-12

    def test_conditional_assembly(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n, L = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            P = random_prediction(rng, n, L)
            M = ua_rank(P).entries
            for i in range(n):
                assembled = sum(
                    P.rows[i, l - 1] * ua_rank_conditional(P, i, l) for l in range(1, L + 1)
                )
                assert np.abs(assembled - M[i]).max() <= 1e-12


class TestUaKernelHardInputs:
    def test_matches_oracle_on_peaked_one_hot_and_tie_rows(self):
        rng = np.random.default_rng(30)
        for _ in range(60):
            n, L = int(rng.integers(1, 8)), int(rng.integers(2, 5))
            if L**n > 20_000:
                continue
            P = PredictionMatrix(hard_rows(rng, n, L))
            assert np.abs(ua_rank(P).entries - ua_rank_oracle(P).entries).max() <= 1e-12

    def test_expected_rank_closed_form_at_n150(self):
        rng = np.random.default_rng(31)
        n = 150
        P = PredictionMatrix(hard_rows(rng, n, 4))
        M = ua_rank(P).entries
        above = np.cumsum(P.rows[:, ::-1], axis=1)[:, ::-1] - P.rows  # Pr[label > l]
        # beats[i, j] = Pr[label_j > label_i] + 1/2 Pr[label_j = label_i]
        beats = P.rows @ (above + 0.5 * P.rows).T
        expected = 1.0 + beats.sum(axis=1) - np.diag(beats)
        assert np.abs(M @ np.arange(1, n + 1) - expected).max() <= 1e-9
        assert np.abs(M.sum(axis=0) - 1).max() <= 1e-9
        assert np.abs(M.sum(axis=1) - 1).max() <= 1e-9


class TestConditional:
    def test_single_individual_any_label(self):
        P = PredictionMatrix(np.array([[0.4, 0.6]]))
        for l in (1, 2):
            assert ua_rank_conditional(P, 0, l) == pytest.approx([1.0])

    def test_lower_bound_top_label(self, stab_lb):
        P, _ = stab_lb
        assert ua_rank_conditional(P, 0, 3) == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    def test_lower_bound_bottom_label(self, stab_lb):
        P, _ = stab_lb
        assert ua_rank_conditional(P, 0, 1) == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(15)
        P = random_prediction(rng, 5, 3)
        for i in range(5):
            for l in (1, 2, 3):
                assert ua_rank_conditional(P, i, l).sum() == pytest.approx(1.0, abs=1e-9)

    def test_index_out_of_range(self):
        P = PredictionMatrix(np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            ua_rank_conditional(P, 1, 1)
        with pytest.raises(ValidationError):
            ua_rank_conditional(P, 0, 3)


class TestOracle:
    def test_single_individual(self):
        P = PredictionMatrix(np.array([[0.2, 0.8]]))
        assert np.allclose(ua_rank_oracle(P).entries, [[1.0]])

    def test_deterministic_distinct(self):
        P = PredictionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(ua_rank_oracle(P).entries, np.eye(2))

    def test_matches_dp(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            P = random_prediction(rng, 4, 3)
            d = np.abs(ua_rank(P).entries - ua_rank_oracle(P).entries).max()
            assert d <= 1e-9

    def test_budget_refusal(self):
        rng = np.random.default_rng(17)
        P = random_prediction(rng, 4, 3)
        with pytest.raises(BudgetExceededError):
            ua_rank_oracle(P, budget=10)


class TestOptRank:
    def test_eps_instance_swaps(self):
        P = PredictionMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]))
        u = u_linear(2, 2)
        assert np.allclose(opt_rank(P, u).entries, [[0, 1], [1, 0]])

    def test_equal_rows_index_tiebreak(self):
        P = PredictionMatrix(np.full((3, 2), 0.5))
        assert np.allclose(opt_rank(P, u_linear(3, 2)).entries, np.eye(3))

    def test_lower_bound_instance_all_tied(self, stab_lb):
        P, _ = stab_lb
        assert np.allclose(opt_rank(P, u_linear(3, 3)).entries, np.eye(3))

    def test_optimality_over_random_ds_matrices(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            P = random_prediction(rng, n, 3)
            u = UtilitySpec.dcg(n, L=3)
            best = utility(P, opt_rank(P, u), u)
            from uarank import RankingDistribution

            # Random doubly stochastic matrix as an average of permutations.
            perms = [np.eye(n)[rng.permutation(n)] for _ in range(5)]
            M = RankingDistribution(sum(perms) / len(perms))
            assert best >= utility(P, M, u) - 1e-9

    def test_min_rank_reverses(self):
        P = PredictionMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]))
        u = u_linear(2, 2)
        assert np.allclose(min_rank(P, u).entries, np.eye(2))


class TestMixRank:
    def test_extremes(self, stab_lb):
        P, _ = stab_lb
        u = u_linear(3, 3)
        assert np.array_equal(mix_rank(P, u, 1.0).entries, ua_rank(P).entries)
        assert np.array_equal(mix_rank(P, u, 0.0).entries, opt_rank(P, u).entries)

    def test_half_mixture_entry(self, stab_lb):
        P, _ = stab_lb
        M = mix_rank(P, u_linear(3, 3), 0.5)
        assert M.entries[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_phi_out_of_range(self, stab_lb):
        P, _ = stab_lb
        with pytest.raises(ValidationError):
            mix_rank(P, u_linear(3, 3), 1.5)


class TestPlackettLuce:
    def test_single_individual(self):
        P = PredictionMatrix(np.array([[0.5, 0.5]]))
        u = u_linear(1, 2)
        assert np.allclose(pl_rank(P, u, samples=10, seed=0).entries, [[1.0]])

    def test_equal_scores_symmetric(self):
        P = PredictionMatrix(np.full((2, 2), 0.5))
        M = pl_rank(P, u_linear(2, 2), samples=100_000, seed=1)
        assert np.abs(M.entries - 0.5).max() <= 0.01

    def test_log2_gap_softmax(self):
        # tau difference of ln 2 puts the stronger individual on top w.p. 2/3.
        P = PredictionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        u = UtilitySpec(np.array([1.0, 1.0 + np.log(2.0)]), np.ones(2))
        M = pl_rank(P, u, samples=100_000, seed=2)
        assert M.entries[0, 0] == pytest.approx(2.0 / 3.0, abs=0.01)
        assert pl_rank_exact(P, u).entries[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_exact_equal_scores(self):
        P = PredictionMatrix(np.full((2, 2), 0.5))
        assert np.allclose(pl_rank_exact(P, u_linear(2, 2)).entries, 0.5)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(19)
        P = random_prediction(rng, 5, 3)
        u = UtilitySpec.dcg(5, L=3)
        a = pl_rank(P, u, samples=5000, seed=42).entries
        b = pl_rank(P, u, samples=5000, seed=42).entries
        assert np.array_equal(a, b)

    def test_sampler_approaches_exact(self):
        rng = np.random.default_rng(20)
        P = random_prediction(rng, 3, 3)
        u = UtilitySpec.dcg(3, L=3)
        d = np.abs(pl_rank(P, u, 10**6, seed=3).entries - pl_rank_exact(P, u).entries).max()
        assert d <= 0.005

    def test_exact_budget(self):
        rng = np.random.default_rng(21)
        P = random_prediction(rng, 9, 2)
        with pytest.raises(BudgetExceededError):
            pl_rank_exact(P, UtilitySpec.dcg(9, L=2))

    @pytest.mark.parametrize("batch_elements", [1, 37 * 40 + 5])
    def test_batch_size_does_not_change_output(self, monkeypatch, batch_elements):
        rng = np.random.default_rng(23)
        P = random_prediction(rng, 40, 3)
        u = UtilitySpec.dcg(40, L=3)
        whole = pl_rank(P, u, samples=500, seed=9).entries
        monkeypatch.setattr(rankers, "_PL_BATCH_ELEMENTS", batch_elements)
        assert np.array_equal(pl_rank(P, u, samples=500, seed=9).entries, whole)

    def test_requires_positive_samples(self):
        P = PredictionMatrix(np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            pl_rank(P, u_linear(1, 2), samples=0, seed=0)


class TestDoubleStochasticity:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_functions(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, L = int(rng.integers(2, 12)), int(rng.integers(2, 5))
        P = random_prediction(rng, n, L)
        u = UtilitySpec.dcg(n, L=L)
        for M in (
            ua_rank(P),
            opt_rank(P, u),
            mix_rank(P, u, 0.3),
            pl_rank(P, u, samples=500, seed=seed),
        ):
            assert np.abs(M.entries.sum(axis=0) - 1).max() <= 1e-9
            assert np.abs(M.entries.sum(axis=1) - 1).max() <= 1e-9


class TestRankerTable:
    KW = {"phi": 0.3, "samples": 200, "seed": 5}

    @pytest.mark.parametrize("fn", list(RANKERS))
    def test_dispatch_matches_direct_call(self, fn):
        P = random_prediction(np.random.default_rng(21), 4, 3)
        u = u_linear(4, 3)
        direct = {
            "ua": lambda: ua_rank(P),
            "opt": lambda: opt_rank(P, u),
            "mix": lambda: mix_rank(P, u, 0.3),
            "pl": lambda: pl_rank(P, u, 200, 5),
        }[fn]()
        assert np.array_equal(compute_ranking(fn, P, u=u, **self.KW).entries, direct.entries)

    @pytest.mark.parametrize("fn,param", [(fn, p) for fn, r in RANKERS.items() for p in r.params])
    def test_missing_parameter_named(self, fn, param):
        P = random_prediction(np.random.default_rng(22), 3, 2)
        kw = {"u": u_linear(3, 2), **self.KW, param: None}
        with pytest.raises(ValidationError, match=f"'{fn}' requires .*{param}"):
            compute_ranking(fn, P, **kw)

    def test_unknown_and_unaudited_ids(self):
        with pytest.raises(ValidationError, match="unknown ranking function"):
            checked_ranker("bogus")
        unaudited = [fn for fn, r in RANKERS.items() if not r.audited]
        assert unaudited == ["pl"]
        with pytest.raises(ValidationError, match="audits support"):
            checked_ranker("pl", audit=True, u=u_linear(2, 2), samples=1, seed=0)
