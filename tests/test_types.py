import copy
import pickle
import re

import numpy as np
import pytest

from uarank import PopulationModel, PredictionMatrix, RankingDistribution, UtilitySpec, ValidationError
from uarank import types


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

    def test_permuted(self):
        P = PredictionMatrix(np.array([[0.2, 0.8], [1.0, 0.0], [0.5, 0.5]]))
        assert np.array_equal(P.permuted([2, 0, 1]).rows, P.rows[[2, 0, 1]])

    @pytest.mark.parametrize("perm,message", [
        (np.array([0, 0, 1], dtype=np.int64), r"^permutation holds 0 more than once$"),  # would duplicate row 0
        (np.array([2], dtype=np.int64),
         r"^a permutation of 0\.\.2 must be 3 integers, got int64 of shape \(1,\)$"),  # would drop rows
        (np.array([-1, 0, 1], dtype=np.int64), r"^permutation entry -1 is outside 0\.\.2$"),  # would wrap around
        (np.array([0, 1, 3], dtype=np.int64), r"^permutation entry 3 is outside 0\.\.2$"),  # was a raw IndexError
        ([[0, 1], [1]], r"^a permutation must be a flat list of integers, got a ragged one$"),  # was numpy's ValueError
    ])
    def test_permuted_refuses_a_non_permutation(self, perm, message):
        P = PredictionMatrix(np.array([[0.2, 0.8], [1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(ValidationError, match=message):
            P.permuted(perm)

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

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match=r"^ranking distribution must be nonempty, got shape \(0, 0\)$"):
            RankingDistribution(np.zeros((0, 0)))

    def test_from_order(self):
        order = np.array([2, 0, 1])
        M = RankingDistribution.from_order(order)
        order[0] = 1  # the ranking keeps its own copy
        assert M.n == 3 and M.order.tolist() == [2, 0, 1]
        assert np.array_equal(M.entries, np.eye(3)[:, [2, 0, 1]])
        assert RankingDistribution(np.eye(2)).order is None

    @pytest.mark.parametrize("order,message", [
        ([], r"^ranking distribution must be nonempty, got shape \(0, 0\)$"),
        ([1, 1], r"^permutation holds 1 more than once$"),
        ([0.0, 1.0], r"^a permutation of 0\.\.1 must be 2 integers, got float64 of shape \(2,\)$"),
        ([True, False], r"must be 2 integers, got bool"),
        ([[0, 1], [1, 0]], r"must be 4 integers, got int64 of shape \(2, 2\)$"),
        ([[0, 1], [0]], r"^a permutation must be a flat list of integers, got a ragged one$"),  # was numpy's ValueError
    ])
    def test_from_order_refuses_a_non_permutation(self, order, message):
        with pytest.raises(ValidationError, match=message):
            RankingDistribution.from_order(order)

    def test_order_has_no_other_missing_attribute(self):
        R = RankingDistribution.from_order([1, 0])
        assert not hasattr(R, "nope")
        assert "entries" not in vars(R)

    def test_repr_of_an_order_shows_the_order_and_builds_no_matrix(self, monkeypatch):
        def refuse(order):
            raise AssertionError("repr built the permutation matrix")

        monkeypatch.setattr(types, "_permutation_matrix", refuse)
        M = RankingDistribution.from_order(np.array([2, 0, 1]))
        assert repr(M) == "RankingDistribution(order=array([2, 0, 1]))"
        assert "entries" not in vars(M)
        assert repr(RankingDistribution(np.eye(2))) == (
            "RankingDistribution(entries=array([[1., 0.],\n       [0., 1.]]))")

    def test_rankings_compare_and_hash_by_identity(self, monkeypatch):
        """`==` of two equal orders is False and builds no matrix; `linf_gap` compares their values."""
        def refuse(order):
            raise AssertionError("== built the permutation matrix")

        monkeypatch.setattr(types, "_permutation_matrix", refuse)
        R, S = (RankingDistribution.from_order(np.array([2, 0, 1])) for _ in range(2))
        assert R == R and R != S
        assert R.linf_gap(S) == 0.0
        assert "entries" not in vars(R) and "entries" not in vars(S)
        D = RankingDistribution(np.eye(3))
        assert D == D and D != RankingDistribution(np.eye(3))
        assert len({R, S, D, R}) == 3 and hash(R) == hash(R)

    def test_accepts_entry_within_slack(self):
        m = np.eye(3)
        m[1, 2] = -1e-12  # -3e-12 is refused: TestCheckMessages
        assert RankingDistribution(m).entries[1, 2] == -1e-12


def _rankings(rng, n):
    """Three rankings of size n that keep their order, the first and third equal, and two dense
    ones: a permutation matrix and a mixture of permutation matrices."""
    orders = [rng.permutation(n), rng.permutation(n)]
    mixed = sum(a * np.eye(n)[:, rng.permutation(n)] for a in rng.dirichlet(np.ones(3)))
    return [*(RankingDistribution.from_order(o) for o in orders), RankingDistribution.from_order(orders[0]),
            RankingDistribution(np.eye(n)[:, rng.permutation(n)]), RankingDistribution(mixed)]


class TestLinfGap:
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_bit_equal_to_the_entrywise_max_norm(self, n):
        rankings = _rankings(np.random.default_rng(80 + n), n)
        for A in rankings:
            for B in rankings:  # (order, order), (order, matrix), (matrix, order), (matrix, matrix)
                gap = A.linf_gap(B)
                assert gap.hex() == float(np.abs(A.entries - B.entries).max()).hex()
                assert gap == B.linf_gap(A)

    def test_orders_build_no_matrix(self):
        A, B, C = _rankings(np.random.default_rng(85), 9)[:3]
        assert A.linf_gap(B) == 1.0 and A.linf_gap(C) == 0.0
        assert all("entries" not in vars(M) for M in (A, B, C))

    @pytest.mark.parametrize("a,b", [("order", "order"), ("order", "matrix"), ("matrix", "order"), ("matrix", "matrix")])
    def test_refuses_rankings_of_different_sizes(self, a, b):
        make = {"order": lambda n: RankingDistribution.from_order(np.arange(n)),
                "matrix": lambda n: RankingDistribution(np.eye(n))}
        with pytest.raises(ValidationError, match=r"^cannot compare arrays of shapes \(3, 3\) and \(2, 2\)$"):
            make[a](3).linf_gap(make[b](2))


class TestRowGap:
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_bit_equal_to_the_dense_row_max_norm(self, n):
        rng = np.random.default_rng(90 + n)
        pairs = [(i, j) for i in range(-n, n) for j in range(-n, n)] if n < 10 else rng.integers(-n, n, size=(60, 2))
        for M in _rankings(rng, n):
            for i, j in pairs:
                gap = M.row_gap(i, j)
                assert gap.hex() == float(np.abs(M.entries[i] - M.entries[j]).max()).hex()

    @pytest.mark.parametrize("make", [lambda: RankingDistribution.from_order(np.arange(3)),
                                      lambda: RankingDistribution(np.eye(3))], ids=["order", "matrix"])
    def test_index_out_of_range(self, make):
        with pytest.raises(IndexError):
            make().row_gap(0, 3)


class TestPositionValues:
    @pytest.mark.parametrize("values", [
        [2.5], [-0.0], [0.0],
        [-0.0, 0.0, -0.0, 1.5, -0.0],  # signed zeros
        [3.0, 3.0, -1.0, 3.0, -1.0],  # ties
        [1e308, -1e308, 5e-324, -5e-324, 1.0],
    ])
    def test_bit_equal_to_the_product(self, values):
        values = np.array(values)
        for M in _rankings(np.random.default_rng(90 + values.size), values.size):
            assert M.position_values(values).tobytes() == (values @ M.entries).tobytes()

    def test_random_values(self):
        rng = np.random.default_rng(91)
        for n in (1, 6, 60):
            values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
            for M in _rankings(rng, n):
                assert M.position_values(values).tobytes() == (values @ M.entries).tobytes()


# One bad cell at a row and column other than the first, and the text it prints.
BAD_CELLS = [
    (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"), (-0.25, "-0.25"), (1.5, "1.5"),
]


def _population(weights, gt):
    return PopulationModel(type_names=("a", "b", "c"), weights=np.asarray(weights),
                           ground_truth=gt, predicted=np.full((3, 2), 0.5), groups={})


class TestCheckMessages:
    @pytest.mark.parametrize("bad,text", BAD_CELLS)
    def test_prediction_matrix(self, bad, text):
        rows = np.full((3, 3), 1 / 3)
        rows[1, 2] = bad
        with pytest.raises(ValidationError) as exc:
            PredictionMatrix(rows)
        assert str(exc.value) == f"row 2, column 3: {text} is not a probability in [0, 1]"

    @pytest.mark.parametrize("bad,text", BAD_CELLS[:3] + [(-3e-12, "-3e-12"), (1 + 3e-12, "1.000000000003")])
    def test_ranking_distribution(self, bad, text):
        m = np.eye(3)
        m[2, 1] = bad
        with pytest.raises(ValidationError) as exc:
            RankingDistribution(m)
        assert str(exc.value) == f"ranking distribution: row 3, column 2: {text} is not a probability in [0, 1]"

    @pytest.mark.parametrize("bad,text", BAD_CELLS)
    def test_population_weights(self, bad, text):
        with pytest.raises(ValidationError) as exc:
            _population([0.5, bad, 0.5], np.full((3, 2), 0.5))
        assert str(exc.value) == f"type weights: row 1, column 2: {text} is not a probability in [0, 1]"

    @pytest.mark.parametrize("bad,text", BAD_CELLS)
    def test_population_ground_truth(self, bad, text):
        gt = np.full((3, 2), 0.5)
        gt[2, 1] = bad
        with pytest.raises(ValidationError) as exc:
            _population([0.25, 0.25, 0.5], gt)
        assert str(exc.value) == f"ground truth: row 3, column 2: {text} is not a probability in [0, 1]"

    def test_population_without_types(self):
        with pytest.raises(ValidationError) as exc:
            PopulationModel(type_names=(), weights=np.zeros(0), ground_truth=np.zeros((0, 2)),
                            predicted=np.zeros((0, 2)), groups={})
        assert str(exc.value) == "type weights: row 1 sums to 0, expected 1 within 1e-09"


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


@pytest.mark.parametrize("call,message", [
    (lambda: UtilitySpec([], [1.0]), "label values must be a nonempty vector"),
    (lambda: UtilitySpec([1.0], [[1.0]]), "position weights must be a nonempty vector"),
    pytest.param(lambda: UtilitySpec.dcg(3), "label count L, given no label values, must be an integer in [1, inf), got None",
                 id="<lambda>-either label values or L must be given"),  # the id of its earlier message
    (lambda: UtilitySpec([1.0], [1.0]).weights_for(2), "utility spec has 1 position weights, need 2"),
])
def test_types_validation_messages(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


def test_values_freeze_their_own_arrays_not_the_callers():
    # UtilitySpec and PopulationModel copy their small inputs; RankingDistribution freezes a
    # view that shares memory with its float64 input.  Each caller keeps a writable array.
    v, w, eye = np.array([1.0, 2.0]), np.array([1.0, 0.5]), np.eye(3)
    weights, rows = np.array([0.5, 0.5]), np.array([[0.5, 0.5], [0.25, 0.75]])
    u = UtilitySpec(v, w)
    pop = PopulationModel(type_names=("a", "b"), weights=weights, ground_truth=rows, predicted=rows, groups={})
    M = RankingDistribution(eye)
    for frozen in (u.label_values, u.position_weights, pop.weights, pop.ground_truth, pop.predicted, M.entries):
        assert not frozen.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            frozen[0] = 0.0
    v[0], w[1], weights[0], rows[0, 0], eye[1, 2] = 0.5, 0.25, 0.75, 0.125, -3e-12
    assert (u.label_values[0], u.position_weights[1], pop.weights[0], pop.ground_truth[0, 0]) == (1.0, 0.5, 0.5, 0.5)
    assert np.shares_memory(M.entries, eye) and M.entries[1, 2] == -3e-12


ROWS = np.array([[0.5, 0.5 + 5e-7], [0.25, 0.75]])  # row 0 is renormalized, so a second pass could move its bits


@pytest.mark.parametrize("copied", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("make, names", [
    (lambda: PredictionMatrix(ROWS), ["rows"]),
    (lambda: RankingDistribution(np.eye(3)[[2, 0, 1]]), ["entries"]),
    (lambda: RankingDistribution.from_order([2, 0, 1]), ["order"]),
    (lambda: UtilitySpec.dcg(3, L=2), ["label_values", "position_weights"]),
    (lambda: PopulationModel(type_names=("a", "b"), weights=[0.5, 0.5], ground_truth=ROWS, predicted=ROWS[::-1],
                             groups={}), ["weights", "ground_truth", "predicted"]),
], ids=["prediction_matrix", "ranking", "ranking_from_order", "utility_spec", "population_model"])
def test_copies_keep_their_bits_read_only(make, names, copied):
    x = make()
    y = copied(x)
    assert type(y) is type(x) and sorted(vars(y)) == sorted(vars(x))  # an order builds no entries
    for name in names:
        a, b = getattr(x, name), getattr(y, name)
        assert b is not a and (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes())
        with pytest.raises(ValueError, match="read-only"):
            b[0] = 7.0


# One value of each type, from a function that builds a new one on every call.
VALUES = {
    "prediction_matrix": lambda: PredictionMatrix(ROWS),
    "ranking": lambda: RankingDistribution(np.eye(3)[[2, 0, 1]]),
    "ranking_from_order": lambda: RankingDistribution.from_order([2, 0, 1]),
    "utility_spec": lambda: UtilitySpec.dcg(3, L=2),
    "population_model": lambda: PopulationModel(type_names=("a", "b"), weights=[0.5, 0.5], ground_truth=ROWS,
                                                predicted=ROWS[::-1], groups={}),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_values_compare_and_hash_by_identity(make):
    """`==` and `hash` never read an array: a value equals itself and no copy of it."""
    v = make()
    twin = copy.deepcopy(v)
    assert v == v and v != twin and not v == twin
    assert len({v, twin}) == 2 and hash(v) == hash(v)


# For each constructor, the field that gets the malformed input, and the call with that input.
MALFORMED_INPUT = {
    "PredictionMatrix.rows": lambda x: PredictionMatrix(x),
    "RankingDistribution.entries": lambda x: RankingDistribution(x),
    "UtilitySpec.label_values": lambda x: UtilitySpec(x, [1.0]),
    "UtilitySpec.position_weights": lambda x: UtilitySpec([1.0, 2.0], x),
    "PopulationModel.weights": lambda x: PopulationModel(type_names=("a", "b"), weights=x, ground_truth=ROWS,
                                                         predicted=ROWS, groups={}),
    "PopulationModel.ground_truth": lambda x: PopulationModel(type_names=("a", "b"), weights=[0.5, 0.5],
                                                              ground_truth=x, predicted=ROWS, groups={}),
    "PopulationModel.predicted": lambda x: PopulationModel(type_names=("a", "b"), weights=[0.5, 0.5],
                                                           ground_truth=ROWS, predicted=x, groups={}),
}


@pytest.mark.parametrize("field", MALFORMED_INPUT)
@pytest.mark.parametrize("x, message", [
    ([[0.5, 0.5], [1.0]], r"is ragged: its rows differ in length"),
    ([["1", "0"], ["0", "1"]], r"must hold real numbers, got <U1"),  # numpy would parse the strings
    (np.array([[0.5 + 0.3j, 0.5], [0.5, 0.5]]), r"must hold real numbers, got complex128"),  # and drop 0.3j
], ids=["ragged", "string", "complex"])
def test_malformed_arrays_are_validation_errors(field, x, message):
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)} {message}$"):
        MALFORMED_INPUT[field](x)
