import json

import numpy as np
import pytest

from uarank import ValidationError, load_population_model, load_prediction_matrix
from uarank.cli import main
from uarank.io import load_utility_spec, serialize_structured
from uarank.rankers import RANKERS


TWO_TYPE_DOC = {
    "labels": 2,
    "types": [
        {"name": "1", "weight": 0.5, "groundTruth": [0.5, 0.5], "predicted": [0.4, 0.6]},
        {"name": "2", "weight": 0.5, "groundTruth": [0.5, 0.5], "predicted": [0.6, 0.4]},
    ],
    "groups": [
        {"name": "1", "members": ["1"]},
        {"name": "2", "members": ["2"]},
    ],
}


@pytest.fixture
def stab_lb_csv(tmp_path):
    p = tmp_path / "stab_lb.csv"
    p.write_text("0.5,0,0.5\n0,1,0\n0,1,0\n")
    return str(p)


@pytest.fixture
def two_type_json(tmp_path):
    p = tmp_path / "twotype.json"
    p.write_text(json.dumps(TWO_TYPE_DOC))
    return str(p)


class TestLoadPredictionMatrix:
    def test_basic(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,0\n0,1\n")
        P = load_prediction_matrix(p)
        assert P.n == 2 and P.L == 2
        assert np.array_equal(P.rows, np.eye(2))

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("label_1,label_2\n0.25,0.75\n")
        assert load_prediction_matrix(p).rows[0, 1] == 0.75

    def test_stab_lb_instance(self, stab_lb_csv):
        P = load_prediction_matrix(stab_lb_csv)
        assert P.rows[0, 0] == 0.5 and P.rows[1, 1] == 1.0

    def test_row_sum_error_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.5,0.4\n")
        with pytest.raises(ValidationError, match=r"row 1 sums to 0\.9"):
            load_prediction_matrix(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.5,0.5\n1.0\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_prediction_matrix(p)

    def test_unparseable_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.5,0.5\n0.5,oops\n")
        with pytest.raises(ValidationError, match="row 2, column 2"):
            load_prediction_matrix(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no such file"):
            load_prediction_matrix(tmp_path / "nope.csv")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"0.5,0.5,0\n0.5,{cell},0.5\n")
        with pytest.raises(ValidationError, match="row 2, column 2"):
            load_prediction_matrix(p)

    def test_out_of_range_names_file_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("label_1,label_2\n0.5,0.5\n1.5,-0.5\n")
        with pytest.raises(ValidationError, match=r"row 2, column 1: 1\.5 is not a probability"):
            load_prediction_matrix(p)


class TestLoadPopulationModel:
    def test_two_type(self, two_type_json):
        pop = load_population_model(two_type_json)
        assert pop.type_names == ("1", "2")
        assert set(pop.groups) == {"1", "2", "all"}
        assert pop.groups["2"] == (1,)

    def test_bad_weight_sum_reports_total(self, tmp_path):
        doc = json.loads(json.dumps(TWO_TYPE_DOC))
        doc["types"][0]["weight"] = 0.6
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="1.1"):
            load_population_model(p)

    def test_unknown_group_member(self, tmp_path):
        doc = json.loads(json.dumps(TWO_TYPE_DOC))
        doc["groups"].append({"name": "ghost", "members": ["3"]})
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="unknown type '3'"):
            load_population_model(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_population_model(p)


class TestLoadUtilitySpec:
    def test_defaults(self):
        u = load_utility_spec(3, 2, None, "dcg")
        assert u.label_values == pytest.approx([1.0, 2.0])
        assert u.position_weights[1] == pytest.approx(1.0 / np.log2(3))

    def test_explicit_values(self):
        u = load_utility_spec(2, 2, "0.5,3", "dcg")
        assert u.label_values == pytest.approx([0.5, 3.0])

    def test_wrong_value_count(self):
        with pytest.raises(ValidationError):
            load_utility_spec(2, 3, "1,2", "dcg")

    def test_weights_file(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("1.0\n0.5\n")
        u = load_utility_spec(2, 2, None, str(p))
        assert u.position_weights == pytest.approx([1.0, 0.5])


class TestCli:
    def test_rank_ua_table(self, stab_lb_csv, capsys):
        assert main(["rank", "--fn", "ua", "--in", stab_lb_csv]) == 0
        first = capsys.readouterr().out.splitlines()[0].split()
        assert [float(x) for x in first] == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)

    def test_oracle_matches_rank(self, stab_lb_csv, capsys):
        assert main(["rank", "--in", stab_lb_csv]) == 0
        a = capsys.readouterr().out
        assert main(["oracle", "--in", stab_lb_csv]) == 0
        assert capsys.readouterr().out == a

    def test_stability_identical_inputs(self, stab_lb_csv, capsys):
        code = main(["stability", "--fn", "ua", "--in", stab_lb_csv, "--in2", stab_lb_csv])
        assert code == 0
        out = capsys.readouterr().out
        assert "inf_gap  0" in out and "l1_dist  0" in out

    def test_utility_opt_normalized_one(self, stab_lb_csv, capsys):
        assert main(["utility", "--fn", "opt", "--in", stab_lb_csv]) == 0
        assert "normalized  1" in capsys.readouterr().out

    def test_audit_multiaccuracy(self, two_type_json, capsys):
        assert main(["audit", "multiaccuracy", "--model", two_type_json]) == 0
        out = capsys.readouterr().out
        assert "alpha  0.05" in out

    def test_audit_theorem_exact_opt(self, two_type_json, capsys):
        code = main([
            "audit", "theorem", "--model", two_type_json,
            "--fn", "opt", "--n", "4", "--k", "1", "--group", "1", "--exact",
        ])
        assert code == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("gap")][0]
        assert float(line.split()[1]) == pytest.approx(0.109375, abs=1e-12)

    def test_validation_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("0.5,0.4\n")
        assert main(["rank", "--in", str(p)]) == 1
        assert "error: validation" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["rank"]) == 1

    def test_budget_exit_code(self, tmp_path, capsys):
        rows = np.full((8, 3), 1.0 / 3.0)
        p = tmp_path / "m.csv"
        p.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        assert main(["oracle", "--in", str(p), "--budget", "100"]) == 2
        assert "error: budget" in capsys.readouterr().err

    def test_phi_required_for_mix(self, stab_lb_csv, capsys):
        assert main(["rank", "--fn", "mix", "--in", stab_lb_csv]) == 1
        assert "--phi" in capsys.readouterr().err

    def test_phi_rejected_for_ua(self, stab_lb_csv, capsys):
        assert main(["rank", "--fn", "ua", "--phi", "0.5", "--in", stab_lb_csv]) == 1
        assert "--phi" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", ["3", "-0.5"])
    @pytest.mark.parametrize("path", [["--exact"], ["--samples", "20", "--seed", "1"]], ids=["exact", "sampled"])
    def test_theorem_rejects_phi_outside_unit_interval(self, two_type_json, capsys, phi, path):
        argv = ["audit", "theorem", "--model", two_type_json, "--fn", "mix", f"--phi={phi}",
                "--n", "3", "--k", "1", "--group", "1", *path]
        assert main(argv) == 1
        assert "mixture weight must lie in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["multiaccuracy", "multicalibration"])
    @pytest.mark.parametrize("flags,named", [
        (["--phi", "3"], "--phi"), (["--samples", "10"], "--samples"), (["--seed", "1"], "--seed"),
        (["--n", "3"], "--n"), (["--k", "1"], "--k"), (["--group", "1"], "--group"),
        (["--exact"], "--exact"), (["--fn", "pl"], "--fn"), (["--fn", "opt"], "--fn"),
        (["--values", "1,2"], "--values"), (["--weights", "w.txt"], "--weights"),
    ])
    def test_alpha_audits_reject_unread_flags(self, two_type_json, capsys, mode, flags, named):
        delta = ["--delta", "0.5"] if mode == "multicalibration" else []
        assert main(["audit", mode, "--model", two_type_json, *delta, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: validation: {mode} audits do not read") and named in err

    def test_multiaccuracy_rejects_delta(self, two_type_json, capsys):
        assert main(["audit", "multiaccuracy", "--model", two_type_json, "--delta", "0.5"]) == 1
        assert "--delta" in capsys.readouterr().err

    def test_alpha_audits_echo_only_read_flags(self, two_type_json, capsys):
        argv = ["audit", "multicalibration", "--model", two_type_json, "--delta", "0.5", "--fn", "ua",
                "--format", "structured"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"] == {
            "command": "audit", "delta": 0.5, "exact": False, "fn": "ua",
            "mode": "multicalibration", "model": two_type_json, "weights": "dcg",
        }

    def test_theorem_rejects_pl(self, two_type_json, capsys):
        code = main([
            "audit", "theorem", "--model", two_type_json, "--fn", "pl",
            "--samples", "10", "--seed", "1", "--n", "3", "--k", "1", "--group", "1", "--exact",
        ])
        assert code == 1
        assert "--fn" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_input_exit_code(self, tmp_path, capsys, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"{cell},0.5,0.5\n0,1,0\n")
        assert main(["rank", "--fn", "opt", "--in", str(p)]) == 1
        err = capsys.readouterr().err
        assert "error: validation" in err and "row 1, column 1" in err

    @pytest.mark.parametrize("mutate,named", [
        (lambda d: d["types"][0].update(weight="abc"), "type 1: 'weight' is not numeric"),
        (lambda d: d["types"][1].update(weight=None), "type 2: 'weight' is not numeric"),
        (lambda d: d["types"][0].update(groundTruth=0.5), "type 1: 'groundTruth' is not numeric"),
        (lambda d: d.update(types=[1, 2]), "type 1 must be an object"),
        (lambda d: d["types"][0].update(weight=float("nan")), "type weights: row 1, column 1: nan"),
        (lambda d: d["types"][1]["groundTruth"].__setitem__(0, float("nan")),
         "ground truth: row 2, column 1: nan"),
        (lambda d: (d.pop("labels"), d["types"][1]["groundTruth"].append(0.0)),
         "type '2' has 3 labels, expected 2"),
    ], ids=["weight-string", "weight-null", "ground-truth-scalar", "types-not-objects",
            "weight-nan", "ground-truth-nan", "ragged-undeclared-labels"])
    def test_malformed_model_exit_code(self, tmp_path, capsys, mutate, named):
        doc = json.loads(json.dumps(TWO_TYPE_DOC))
        mutate(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["audit", "multiaccuracy", "--model", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation:") and named in err

    @pytest.mark.parametrize("values,named", [("nan,1", "entry 1 is not finite"), ("1,inf", "entry 2 is not finite")])
    def test_non_finite_label_values_exit_code(self, tmp_path, capsys, values, named):
        p = tmp_path / "m.csv"
        p.write_text("0.5,0.5\n0,1\n")
        assert main(["utility", "--fn", "opt", "--values", values, "--in", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation:") and named in err

    def test_unparseable_first_cell_is_not_a_header(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("0.5x,0.5\n0.5,0.5\n")
        assert main(["rank", "--in", str(p)]) == 1
        assert "row 1, column 1: cannot parse '0.5x'" in capsys.readouterr().err

    @pytest.mark.parametrize("fn", [fn for fn in RANKERS if fn != "ua"])
    def test_nature_rejects_non_ua_fn(self, two_type_json, capsys, fn):
        argv = ["audit", "nature", "--model", two_type_json, "--n", "3", "--fn", fn]
        assert main(argv) == 1
        assert f"--fn {fn}" in capsys.readouterr().err

    def test_nature_zero_samples_exit_code(self, two_type_json, capsys):
        argv = ["audit", "nature", "--model", two_type_json, "--n", "3", "--samples", "0"]
        assert main(argv) == 1
        assert "error: validation: need at least one sample" in capsys.readouterr().err

    def test_structured_output_deterministic(self, stab_lb_csv, capsys):
        argv = ["rank", "--fn", "ua", "--in", stab_lb_csv, "--format", "structured"]
        assert main(argv) == 0
        a = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == a
        doc = json.loads(a)
        assert doc["config"]["fn"] == "ua"
        assert doc["ranking"][0] == pytest.approx([0.5, 0.0, 0.5], abs=0)

    def test_structured_full_precision_roundtrip(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("0.123456789012345,0.876543210987655\n")
        assert main(["rank", "--in", str(p), "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ranking"][0][0] == 1.0

    def test_out_file(self, stab_lb_csv, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code = main([
            "rank", "--in", stab_lb_csv, "--format", "structured", "--out", str(dest),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(dest.read_text())
        assert doc["ranking"][1] == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)


# Every ranking function crossed with every subcommand that takes --fn; the
# theorem audit only takes the ranking functions the table marks as audited.
FLAG_VALUES = {"phi": "0.5", "samples": "20", "seed": "3"}
FN_SUBCOMMANDS = [
    (fn, cmd)
    for fn, ranker in RANKERS.items()
    for cmd in ("rank", "stability", "utility", "theorem")
    if cmd != "theorem" or ranker.audited
]


def _subcommand_argv(cmd, csv, model):
    return {
        "rank": ["rank", "--in", csv],
        "stability": ["stability", "--in", csv, "--in2", csv],
        "utility": ["utility", "--in", csv],
        "theorem": ["audit", "theorem", "--model", model, "--exact",
                    "--n", "3", "--k", "1", "--group", "1"],
    }[cmd]


@pytest.mark.parametrize("fn,cmd", FN_SUBCOMMANDS)
def test_required_flags_follow_ranker_table(fn, cmd, stab_lb_csv, two_type_json, capsys):
    """With all the flags its table entry requires, `--fn` runs; without any one, exit 1 naming it."""
    base = _subcommand_argv(cmd, stab_lb_csv, two_type_json) + ["--fn", fn]
    flags = [p for p in RANKERS[fn].params if p in FLAG_VALUES]
    full = base + [a for p in flags for a in (f"--{p}", FLAG_VALUES[p])]
    assert main(full) == 0
    capsys.readouterr()
    for dropped in flags:
        argv = base + [a for p in flags if p != dropped for a in (f"--{p}", FLAG_VALUES[p])]
        assert main(argv) == 1
        assert f"--{dropped}" in capsys.readouterr().err


class TestSerializeStructured:
    def test_sorted_and_plain(self):
        text = serialize_structured({"b": np.float64(0.5), "a": np.arange(2)})
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": [0, 1], "b": 0.5}

    def test_full_precision(self):
        x = 1.0 / 3.0
        assert json.loads(serialize_structured({"x": x}))["x"] == x

    def test_golden_mixed_payload(self):
        payload = {
            "matrix": np.array([[0.1, 1.0 / 3.0], [1.0, 0.0]]),
            "count": np.int64(7),
            "weight": np.float64(0.25),
            "bucket": (1, None, True),
            "missing": None,
            "flag": False,
            "outer": {"inner": {"ids": np.arange(3), "ok": True}, "label": "g1"},
        }
        assert serialize_structured(payload) == (
            '{\n  "bucket": [\n    1,\n    null,\n    true\n  ],\n  "count": 7,\n'
            '  "flag": false,\n  "matrix": [\n    [\n      0.1,\n      0.3333333333333333\n'
            '    ],\n    [\n      1.0,\n      0.0\n    ]\n  ],\n  "missing": null,\n'
            '  "outer": {\n    "inner": {\n      "ids": [\n        0,\n        1,\n'
            '        2\n      ],\n      "ok": true\n    },\n    "label": "g1"\n  },\n'
            '  "weight": 0.25\n}\n'
        )
