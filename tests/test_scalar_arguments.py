"""The error contract for scalar arguments: a size, position, index, label, sample count,
seed, mixture weight, bucket width, bias or distance that is not a number of the right kind
in the right range is a ValidationError naming the parameter.  bool is not an integer,
numpy integers and floats are numbers, and NaN lies in no range."""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uarank import (BudgetExceededError, PredictionMatrix, UtilitySpec, ValidationError, if_composition_check,
                    min_rank, mix_rank, nature_closeness_check, opt_rank, pl_rank, theorem_gap_estimate,
                    theorem_gap_exact, ua_rank, ua_rank_conditional)
from uarank.audit import multicalibration_alpha, theorem_bound, two_type_biased_model, type_buckets
from uarank.cli import main
from uarank.rankers import compute_ranking

P = PredictionMatrix(np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]]))
U = UtilitySpec.dcg(3, L=2)
M = ua_rank(P)
POP = two_type_biased_model(0.1)


@pytest.mark.parametrize("call, named", [
    (lambda: ua_rank_conditional(P, 0.5, 1), "individual i"),  # was an IndexError
    (lambda: if_composition_check(P, M, 0.0, 1, 0.1, 1, 1), "individual i"),  # was an IndexError
    (lambda: ua_rank_conditional(P, True, 1), "individual i"),  # returned a (1, n, n) array
    (lambda: ua_rank_conditional(P, 0, 1.5), "label"),  # was a TypeError
    (lambda: pl_rank(P, U, 2.5, 0), "samples"),  # was a TypeError
    (lambda: pl_rank(P, U, 10, 0.5), "seed"),  # was a TypeError
    (lambda: pl_rank(P, U, 10, True), "seed"),  # ran as seed 1
    (lambda: mix_rank(P, U, "0.5"), "mixture weight phi"),  # was a TypeError
    (lambda: theorem_gap_exact(POP, 4.0, 1, "1"), "dataset size n"),  # was a TypeError
    (lambda: theorem_gap_exact(POP, 4, 1, "1", delta="0.5"), "bucket width delta"),  # was a TypeError
    (lambda: theorem_gap_exact(POP, 4, 1.5, "1"), "position k"),  # failed later, in the position-table check
    (lambda: theorem_gap_estimate(POP, 4, 1, "1", mc_samples=2.5), "samples"),  # was a TypeError
    (lambda: nature_closeness_check(POP, 4.5), "dataset size n"),  # was a TypeError
    (lambda: UtilitySpec.dcg(2.5, L=2), "dataset size n"),  # returned 3 weights
    (lambda: UtilitySpec.dcg(2, L=2.5), "label count L"),  # returned 3 label values
    (lambda: UtilitySpec.dcg(2**63 - 1, L=2), "dataset size n"),  # np.arange wrapped to an empty vector
    (lambda: UtilitySpec.dcg(2**63, L=2), "dataset size n"),  # the same
    (lambda: two_type_biased_model("0.1"), "bias alpha"),  # was a TypeError
    (lambda: if_composition_check(P, M, 0, 1, "0.1", 1, 1), "distance d_ij"),  # was a TypeError
], ids=["conditional-i-float", "composition-i-float", "conditional-i-bool", "conditional-label-float",
        "pl-samples-float", "pl-seed-float", "pl-seed-bool", "mix-phi-string", "exact-n-float", "exact-delta-string",
        "exact-k-float", "estimate-samples-float", "nature-n-float", "dcg-n-float", "dcg-L-float",
        "dcg-n-2**63-1", "dcg-n-2**63", "bias-string",
        "composition-d-string"])
def test_malformed_scalar_names_the_parameter(call, named):
    with pytest.raises(ValidationError, match=f"^{re.escape(named)}(, .*,)? must be an? (integer|real number) in "):
        call()


def test_numpy_integers_give_the_bits_of_python_ints():
    as_numpy = theorem_gap_estimate(POP, np.int64(4), np.int64(1), "1", mc_samples=np.int64(10), seed=np.int64(0))
    as_int = theorem_gap_estimate(POP, 4, 1, "1", mc_samples=10, seed=0)
    assert (as_numpy.estimate, as_numpy.mc_error) == (as_int.estimate, as_int.mc_error)
    assert theorem_gap_exact(POP, np.int64(4), np.uint8(2), "1", fn="mix", u=U, phi=np.float32(0.5)) == (
        theorem_gap_exact(POP, 4, 2, "1", fn="mix", u=U, phi=float(np.float32(0.5))))


def test_unknown_group_is_named_by_its_repr():
    for call, group in ((lambda: theorem_gap_exact(POP, 4, 1, 1), "1"),
                        (lambda: theorem_gap_exact(POP, 4, 1, ["1"]), "['1']"),  # was TypeError: unhashable type
                        (lambda: POP.group_mask({}), "{}")):  # the same
        with pytest.raises(ValidationError, match=re.escape(f"unknown group {group}; known: ['1', '2', 'all']")):
            call()


@pytest.mark.parametrize("call", [  # each was an AttributeError: no attribute 'tau'
    lambda: opt_rank(P, None),
    lambda: min_rank(P, None),
    lambda: pl_rank(P, None, 10, 0),
    lambda: compute_ranking("opt", P, u="x"),
    lambda: theorem_gap_exact(POP, 4, 1, "1", fn="opt", u="x"),
], ids=["opt-none", "min-none", "pl-none", "compute-opt-string", "exact-opt-string"])
def test_ranker_without_a_utility_spec_names_u(call):
    with pytest.raises(ValidationError, match=r"^ranking function '\w+' requires u\b"):
        call()


def _numpy(x):
    """x as a numpy scalar of a type that holds it, else x."""
    if isinstance(x, bool):
        return np.bool_(x)
    if isinstance(x, int):
        return np.int64(x) if -2**63 <= x < 2**63 else x
    return np.float64(x) if isinstance(x, float) else x


# Well-formed sizes stay small: UtilitySpec.dcg(n) allocates n weights, and the audits rank datasets of n.
PLAIN = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(-3.0, 3.0).filter(lambda x: not x.is_integer()),  # fractional
    st.integers(-3, 6), st.floats(-1.0, 2.0), st.integers(max_value=-1), st.integers(min_value=2**63),
)
SCALARS = st.one_of(PLAIN, PLAIN.map(_numpy), st.integers(0, 6).map(np.float32))

# One valid call per scalar parameter of the public API, with `x` in that parameter.  A huge integer is
# out of range or refused by the audit budget before any work, except in SIZES, where it is valid and
# would allocate or draw that many: those calls are skipped.
SIZES = {"pl_rank samples", "dcg n", "dcg L", "theorem_gap_estimate mc_samples", "nature_closeness_check samples"}
CALLS = {
    "ua_rank_conditional i": lambda x: ua_rank_conditional(P, x, 1),
    "ua_rank_conditional label": lambda x: ua_rank_conditional(P, 0, x),
    "pl_rank samples": lambda x: pl_rank(P, U, x, 0),
    "pl_rank seed": lambda x: pl_rank(P, U, 5, x),
    "mix_rank phi": lambda x: mix_rank(P, U, x),
    "compute_ranking phi": lambda x: compute_ranking("mix", P, u=U, phi=x),
    "dcg n": lambda x: UtilitySpec.dcg(x, L=2),
    "dcg L": lambda x: UtilitySpec.dcg(3, L=x),
    "two_type_biased_model alpha": lambda x: two_type_biased_model(x),
    "multicalibration_alpha delta": lambda x: multicalibration_alpha(POP, x),
    "type_buckets delta": lambda x: type_buckets(POP, x),
    "theorem_bound n": lambda x: theorem_bound(POP, x),
    "theorem_bound phi": lambda x: theorem_bound(POP, 4, "mix", x),
    "theorem_gap_exact n": lambda x: theorem_gap_exact(POP, x, 1, "1"),
    "theorem_gap_exact k": lambda x: theorem_gap_exact(POP, 6, x, "1"),
    "theorem_gap_exact phi": lambda x: theorem_gap_exact(POP, 4, 1, "1", fn="mix", u=U, phi=x),
    "theorem_gap_exact delta": lambda x: theorem_gap_exact(POP, 4, 1, "1", delta=x),
    "theorem_gap_exact bucket": lambda x: theorem_gap_exact(POP, 4, 1, "1", delta=0.5, bucket=(x, 0)),
    "theorem_gap_estimate n": lambda x: theorem_gap_estimate(POP, x, 1, "1", mc_samples=5),
    "theorem_gap_estimate k": lambda x: theorem_gap_estimate(POP, 6, x, "1", mc_samples=5),
    "theorem_gap_estimate mc_samples": lambda x: theorem_gap_estimate(POP, 3, 1, "1", mc_samples=x),
    "theorem_gap_estimate seed": lambda x: theorem_gap_estimate(POP, 3, 1, "1", mc_samples=5, seed=x),
    "nature_closeness_check n": lambda x: nature_closeness_check(POP, x, samples=5),
    "nature_closeness_check seed": lambda x: nature_closeness_check(POP, 3, seed=x, samples=5),
    "nature_closeness_check samples": lambda x: nature_closeness_check(POP, 3, samples=x),
    "if_composition_check i": lambda x: if_composition_check(P, M, x, 2, 0.1, 1.0, 1.0),
    "if_composition_check j": lambda x: if_composition_check(P, M, 0, x, 0.1, 1.0, 1.0),
    "if_composition_check d_ij": lambda x: if_composition_check(P, M, 0, 1, x, 1.0, 1.0),
    "if_composition_check beta": lambda x: if_composition_check(P, M, 0, 1, 0.1, x, 1.0),
    "if_composition_check gamma": lambda x: if_composition_check(P, M, 0, 1, 0.1, 1.0, x),
}


def _never_a_number(x) -> bool:
    return isinstance(x, (bool, np.bool_, str)) or (isinstance(x, float) and math.isnan(x))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CALLS)), SCALARS)
def test_library_raises_only_typed_errors(call, x):
    """Whatever the scalar, a call returns or raises ValidationError or BudgetExceededError;
    a bool, string or NaN is refused in every parameter, and None wherever it is not the default."""
    if call in SIZES and isinstance(x, int) and x > 64:
        return
    try:
        CALLS[call](x)
    except (ValidationError, BudgetExceededError):
        return
    assert not _never_a_number(x) and (x is not None or call == "theorem_gap_exact delta"), f"{call} took {x!r}"


# A model file's scalars: JSON's own values, integers past float64 and past Python's digit limit for
# integer strings, and arrays nested past the parser's recursion limit.
JSON_SCALARS = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.floats(), st.integers(-3, 6), st.floats(-1.0, 2.0),
    st.integers(min_value=10**308, max_value=10**400), st.just("DIGITS"), st.just("DEEP"),
)
MODEL = {
    "labels": 2,
    "types": [{"name": "1", "weight": 0.5, "groundTruth": [0.5, 0.5], "predicted": [0.4, 0.6]},
              {"name": "2", "weight": 0.5, "groundTruth": [0.5, 0.5], "predicted": [0.6, 0.4]}],
    "groups": [{"name": "1", "members": ["1"]}],
}
PLACES = {  # where a scalar goes in the model
    "labels": lambda d, x: d.update(labels=x),
    "weight": lambda d, x: d["types"][0].update(weight=x),
    "groundTruth": lambda d, x: d["types"][1]["groundTruth"].__setitem__(0, x),
    "predicted": lambda d, x: d["types"][0]["predicted"].__setitem__(1, x),
    "name": lambda d, x: d["types"][1].update(name=x),
    "member": lambda d, x: d["groups"][0]["members"].__setitem__(0, x),
}
MODES = [["multiaccuracy"], ["multicalibration", "--delta", "0.5"],
         ["theorem", "--exact", "--n", "3", "--k", "1", "--group", "1"]]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PLACES)), JSON_SCALARS, st.sampled_from(MODES))
def test_cli_on_malformed_models_exits_0_1_or_2(place, x, mode):
    """`uarank audit` on a model with one malformed scalar exits 0, 1 or 2, and a nonzero exit
    writes `error: validation:` or `error: budget:`, never a traceback."""
    doc = json.loads(json.dumps(MODEL))
    PLACES[place](doc, x)
    text = json.dumps(doc).replace('"DIGITS"', "7" * 5001).replace('"DEEP"', "[" * 100_000 + "]" * 100_000)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["audit", *mode, "--model", str(model)])
    assert code in (0, 1, 2)
    assert (code == 0) == (err.getvalue() == "")
    if code:
        assert err.getvalue().startswith(("error: validation:", "error: budget:")), err.getvalue()
