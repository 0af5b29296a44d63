"""Invariant checks driven by hypothesis-generated prediction matrices."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uarank import (
    PopulationModel,
    PredictionMatrix,
    RankingDistribution,
    UtilitySpec,
    ValidationError,
    mix_rank,
    multiaccuracy_alpha,
    opt_rank,
    pl_rank,
    theorem_gap_exact,
    ua_rank,
    ua_rank_oracle,
)

from conftest import random_population

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def prediction_matrices(max_n=8, max_l=4):
    def build(raw):
        rows = raw + 1e-6
        rows /= rows.sum(axis=1, keepdims=True)
        return PredictionMatrix(rows)

    return st.tuples(
        st.integers(2, max_n), st.integers(2, max_l)
    ).flatmap(
        lambda nl: arrays(
            np.float64,
            nl,
            elements=st.floats(0.0, 1.0, allow_nan=False),
        ).map(build)
    )


def matrix_pairs(max_n=6, max_l=3):
    def build(args):
        (n, L), a, b = args
        a = (a[:n, :L] + 1e-6) / (a[:n, :L] + 1e-6).sum(axis=1, keepdims=True)
        b = (b[:n, :L] + 1e-6) / (b[:n, :L] + 1e-6).sum(axis=1, keepdims=True)
        return PredictionMatrix(a), PredictionMatrix(b)

    shape = st.tuples(st.integers(2, max_n), st.integers(2, max_l))
    raw = arrays(
        np.float64, (max_n, max_l), elements=st.floats(0.0, 1.0, allow_nan=False)
    )
    return st.tuples(shape, raw, raw).map(build)


@settings(max_examples=40, deadline=None)
@given(prediction_matrices())
def test_ua_is_doubly_stochastic(P):
    M = ua_rank(P).entries
    assert np.abs(M.sum(axis=0) - 1.0).max() <= 1e-9
    assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(prediction_matrices(max_n=6, max_l=3), st.floats(0.0, 1.0))
def test_mix_is_doubly_stochastic(P, phi):
    u = UtilitySpec.dcg(P.n, L=P.L)
    M = mix_rank(P, u, phi).entries
    assert np.abs(M.sum(axis=0) - 1.0).max() <= 1e-9
    assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(matrix_pairs())
def test_ua_one_stability(pair):
    P, P2 = pair
    gap = ua_rank(P).linf_gap(ua_rank(P2))
    assert gap <= np.abs(P.rows - P2.rows).sum() + 1e-12


@settings(max_examples=25, deadline=None)
@given(prediction_matrices(max_n=6, max_l=3), st.randoms(use_true_random=False))
def test_ua_anonymity(P, rnd):
    perm = np.array(rnd.sample(range(P.n), P.n))
    M = ua_rank(P).entries
    assert np.abs(ua_rank(P.permuted(perm)).entries - M[perm]).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(prediction_matrices(max_n=6, max_l=3))
def test_ua_zero_label_invariant(P):
    assert np.abs(ua_rank(P.with_zero_label()).entries - ua_rank(P).entries).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(prediction_matrices(max_n=6, max_l=3))
def test_opt_rows_are_permutation(P):
    u = UtilitySpec.dcg(P.n, L=P.L)
    M = opt_rank(P, u).entries
    assert set(np.unique(M)) <= {0.0, 1.0}
    assert np.array_equal(M.sum(axis=0), np.ones(P.n))
    assert np.array_equal(M.sum(axis=1), np.ones(P.n))


def _poisoned(rows, data, bad):
    """Copy of a 2-d array with `bad` at a drawn cell, and that cell's 1-based (row, column)."""
    r = data.draw(st.integers(0, rows.shape[0] - 1))
    c = data.draw(st.integers(0, rows.shape[1] - 1))
    out = np.array(rows, dtype=np.float64)
    out[r, c] = bad
    return out, (r + 1, c + 1)


@settings(max_examples=40, deadline=None)
@given(prediction_matrices(), NON_FINITE, st.data())
def test_prediction_matrix_names_non_finite_cell(P, bad, data):
    rows, (r, c) = _poisoned(P.rows, data, bad)
    with pytest.raises(ValidationError, match=f"^row {r}, column {c}: "):
        PredictionMatrix(rows)


@settings(max_examples=25, deadline=None)
@given(prediction_matrices(max_n=6, max_l=3), NON_FINITE, st.data())
def test_ranking_distribution_names_non_finite_cell(P, bad, data):
    entries, (r, c) = _poisoned(ua_rank(P).entries, data, bad)
    with pytest.raises(ValidationError, match=f"^ranking distribution: row {r}, column {c}: "):
        RankingDistribution(entries)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4),
    st.sampled_from(["type weights", "ground truth", "predicted"]), NON_FINITE, st.data(),
)
def test_population_model_names_non_finite_cell(seed, T, L, field, bad, data):
    pop = random_population(np.random.default_rng(seed), T, L)
    tables = {
        "type weights": pop.weights[None],
        "ground truth": pop.ground_truth,
        "predicted": pop.predicted,
    }
    tables[field], (r, c) = _poisoned(tables[field], data, bad)
    with pytest.raises(ValidationError, match=f"^{field}: row {r}, column {c}: "):
        PopulationModel(pop.type_names, tables["type weights"][0], tables["ground truth"],
                        tables["predicted"], pop.groups)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.sampled_from(["label values", "position weights"]), NON_FINITE,
       st.data())
def test_utility_spec_names_non_finite_entry(n, field, bad, data):
    vectors = {"label values": np.arange(1.0, n + 1), "position weights": np.ones(n)}
    i = data.draw(st.integers(0, n - 1))
    vectors[field][i] = bad
    with pytest.raises(ValidationError, match=f"^{field}: entry {i + 1} is "):
        UtilitySpec(vectors["label values"], vectors["position weights"])


# Rows with all mass on one label, padded with zeros, negative zeros and
# denormals small enough that the row still sums to exactly 1.
EDGE_ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, 1e-310])


@st.composite
def edge_matrices(draw, max_n=5, max_l=3):
    n, L = draw(st.integers(1, max_n)), draw(st.integers(1, max_l))
    rows = np.array(draw(st.lists(st.lists(EDGE_ENTRIES, min_size=L, max_size=L),
                                  min_size=n, max_size=n)))
    rows[np.arange(n), draw(st.lists(st.integers(0, L - 1), min_size=n, max_size=n))] = 1.0
    return rows


@settings(max_examples=40, deadline=None)
@given(edge_matrices())
@example(np.array([[1.0]]))
@example(np.array([[-0.0, 1.0], [5e-324, 1.0]]))
def test_edge_inputs_give_doubly_stochastic_rankings(rows):
    P = PredictionMatrix(rows)
    assert np.array_equal(P.rows, rows)
    u = UtilitySpec.dcg(P.n, L=P.L)
    for M in (ua_rank(P), opt_rank(P, u), mix_rank(P, u, 0.5), pl_rank(P, u, 50, 0),
              ua_rank_oracle(P)):
        assert np.abs(M.entries.sum(axis=0) - 1.0).max() <= 1e-9
        assert np.abs(M.entries.sum(axis=1) - 1.0).max() <= 1e-9


@st.composite
def small_populations(draw, max_t=3, max_l=3):
    """Populations with T <= 3 types and L <= 3 labels, every type a singleton
    group plus one drawn group (the full domain is added automatically)."""
    T, L = draw(st.integers(1, max_t)), draw(st.integers(1, max_l))

    def distributions(shape):
        raw = draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0))) + 1e-6
        return raw / raw.sum(axis=-1, keepdims=True)

    groups = {f"g{t}": (t,) for t in range(T)}
    groups["drawn"] = tuple(sorted(draw(st.sets(st.integers(0, T - 1), min_size=1))))
    return PopulationModel(
        type_names=tuple(f"t{t}" for t in range(T)),
        weights=distributions((T,)),
        ground_truth=distributions((T, L)),
        predicted=distributions((T, L)),
        groups=groups,
    )


@settings(max_examples=40, deadline=None)
@given(small_populations(), st.integers(1, 4), st.data())
def test_ua_theorem_gap_bounded_and_anonymous(pop, n, data):
    bound = pop.L * n * multiaccuracy_alpha(pop).alpha
    for group in pop.groups:
        for k in range(1, n + 1):
            assert theorem_gap_exact(pop, n, k, group, fn="ua") <= bound + 1e-12
    # UA is anonymous, so the gap cannot depend on the order in which the model lists its types.
    group, k = data.draw(st.sampled_from(sorted(pop.groups))), data.draw(st.integers(1, n))
    perm = data.draw(st.permutations(range(pop.T)))
    relisted = PopulationModel(
        type_names=tuple(pop.type_names[t] for t in perm), weights=pop.weights[perm],
        ground_truth=pop.ground_truth[perm], predicted=pop.predicted[perm],
        groups={name: tuple(perm.index(t) for t in members) for name, members in pop.groups.items()},
    )
    gap = theorem_gap_exact(pop, n, k, group, fn="ua")
    assert abs(theorem_gap_exact(relisted, n, k, group, fn="ua") - gap) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(small_populations(), st.integers(1, 4), st.floats(0.0, 1.0))
def test_mix_theorem_gap_bounded(pop, n, phi):
    u = UtilitySpec.dcg(n, L=pop.L)
    bound = phi * pop.L * n * multiaccuracy_alpha(pop).alpha + (1.0 - phi)
    for group in pop.groups:
        for k in range(1, n + 1):
            assert theorem_gap_exact(pop, n, k, group, fn="mix", u=u, phi=phi) <= bound + 1e-12
