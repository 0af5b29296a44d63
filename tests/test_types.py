import numpy as np
import pytest

from uarank import PredictionMatrix, RankingDistribution, UtilitySpec, ValidationError


class TestPredictionMatrix:
    def test_valid(self):
        P = PredictionMatrix(np.array([[0.2, 0.8], [1.0, 0.0]]))
        assert P.n == 2 and P.L == 2

    def test_renormalizes_within_tolerance(self):
        P = PredictionMatrix(np.array([[0.5, 0.5 + 5e-7]]))
        assert P.rows.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError, match="sums to"):
            PredictionMatrix(np.array([[0.5, 0.4]]))

    def test_rejects_negative_entry(self):
        with pytest.raises(ValidationError, match=r"is not a probability"):
            PredictionMatrix(np.array([[-0.1, 1.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(ValidationError, match=r"row 2, column 1"):
            PredictionMatrix(np.array([[0.5, 0.5], [bad, 0.5]]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            PredictionMatrix(np.zeros((0, 2)))

    def test_immutable(self):
        P = PredictionMatrix(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            P.rows[0, 0] = 0.0

    def test_zero_label_extension(self):
        P = PredictionMatrix(np.array([[0.5, 0.5]]))
        Q = P.with_zero_label()
        assert Q.L == 3 and Q.rows[0, 2] == 0.0


class TestRankingDistribution:
    def test_identity_ok(self):
        M = RankingDistribution(np.eye(3))
        assert M.n == 3

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            RankingDistribution(np.ones((2, 3)) / 3)

    def test_rejects_bad_column_sum(self):
        m = np.array([[0.6, 0.4], [0.6, 0.4]])
        with pytest.raises(ValidationError, match="olumn"):
            RankingDistribution(m)


class TestUtilitySpec:
    def test_dcg_weights(self):
        u = UtilitySpec.dcg(3, L=2)
        assert u.position_weights[0] == pytest.approx(1.0)
        assert u.position_weights[1] == pytest.approx(1.0 / np.log2(3))

    def test_rejects_non_increasing_values(self):
        with pytest.raises(ValidationError):
            UtilitySpec(np.array([2.0, 1.0]), np.array([1.0, 1.0]))

    def test_rejects_increasing_weights(self):
        with pytest.raises(ValidationError):
            UtilitySpec(np.array([1.0, 2.0]), np.array([0.5, 1.0]))

    def test_tau(self):
        u = UtilitySpec(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        P = PredictionMatrix(np.array([[0.25, 0.75], [1.0, 0.0]]))
        assert u.tau(P) == pytest.approx([1.75, 1.0])
