import argparse
import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from uarank import (PredictionMatrix, RankingDistribution, UtilitySpec, ValidationError, load_population_model,
                    load_prediction_matrix, theorem_gap_exact)
from uarank import cli, rankers, types
from uarank.cli import build_parser, main
from uarank.io import (_WRITE_SLICE, _chunks, _matrix_parts, _write_text, load_utility_spec,
                       population_model_from_dict, structured_parts, table_parts, write_report)
from uarank.rankers import RANKERS, compute_ranking
from uarank.types import _permutation_matrix


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


def _load_with_csv_module(path):
    """The csv-module loader that `load_prediction_matrix` replaced, kept as its reference:
    csv.reader, the blank-row filter, the header rule and float() per cell."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        records = [row for row in csv.reader(fh) if "".join(row).strip()]
    if not records:
        raise ValidationError(f"{path}: empty file")
    if not any(_parses(cell) for cell in records[0]):
        records = records[1:]
        if not records:
            raise ValidationError(f"{path}: header but no data rows")
    width = len(records[0])
    rows = np.empty((len(records), width))
    for r, record in enumerate(records, start=1):
        if len(record) != width:
            raise ValidationError(f"{path}: row {r} has {len(record)} columns, expected {width}")
        for c, cell in enumerate(record, start=1):
            try:
                rows[r - 1, c - 1] = float(cell)
            except ValueError:
                raise ValidationError(f"{path}: row {r}, column {c}: cannot parse '{cell.strip()}'") from None
    try:
        return PredictionMatrix(rows)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _parses(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _loaded(load, path):
    """The rows' bytes (signed zeros included), or the message of the ValidationError."""
    try:
        return load(path).rows.tobytes()
    except ValidationError as exc:
        return str(exc)


def _assert_loads_as_csv_module(path):
    assert _loaded(load_prediction_matrix, path) == _loaded(_load_with_csv_module, path)


LOADER_CORPUS = [
    "0.25,0.75\n0.5,0.5\n",  # plain
    "label_1,label_2\n0.25,0.75\n0.5,0.5\n",  # header
    "\ufeff0.25,0.75\n0.5,0.5\n",  # BOM
    "\ufefflabel_1,label_2\n0.25,0.75\n",  # BOM and header
    "label_1,label_2\r\n0.25,0.75\r\n0.5,0.5\r\n",  # CRLF
    "0.25,0.75\r0.5,0.5\r",  # lone CR
    "label_1,label_2\r0.25,0.75\r",
    "0.25,0.75\n0.5,0.5",  # no final newline
    "0.25,0.75\r\n0.5,0.5",
    "\n\n0.25,0.75\n\n0.5,0.5\n\n",  # blank rows
    "0.25,0.75\n \t\n0.5,0.5\n",  # whitespace-only rows
    "0.25,0.75\n\u3000\n0.5,0.5\n",
    "\u3000\nlabel_1,label_2\n0.25,0.75\n",
    "0.25,0.75\n,\n0.5,0.5\n",  # comma-only rows
    ",,\n0.25,0.75\n",
    '"0.25","0.75"\n"0.5","0.5"\n',  # quoted cells
    '0.25,0.75\n"0.5","0.5"\n',
    '"label_1","label_2"\n0.25,0.75\n',
    '0.25,0.75\n"0.2""5",0.75\n',  # doubled quotes
    '0.25,0.75\n"0.2"5,0.75\n',  # text after a closing quote joins the cell
    '0.25,0.75\n"0.5\n",0.5\n',  # a newline inside quotes
    '"0.25\n",0.75\n',
    '0.25,0.75\n"0.5,0.5"\n',
    "0.25,0.75,\n0.5,0.5,\n",  # a trailing comma
    "0.25,0.75\n1\n",  # ragged rows
    "1\n0.5,0.5\n",
    "0.2_5,0.75\n0.5,0.5\n",  # cells float() takes and numpy does not
    "1_0,0\n",
    "0.5,0.5\n\u0660.\u0662\u0665,0.75\n",
    "\x0c0.25\x0c,\x850.75\x85\n0.5\xa0,\u20000.5\n",  # whitespace around cells
    "\x1c0.25,0.75\n",  # separators numpy strips and float() refuses
    "0.5,0.5\n0.25\x1f,0.75\n",
    "1e-400,1\n-0,1\n0.5,-0\n",  # underflow and signed zeros
    "0.1000000000000000055511151231257827,0.9\n4.9e-324,1\n2.2250738585072011e-308,1\n",
    "0.5,0.5\nnan,1\n",
    "0.5,0.5\ninf,0\n",
    "0.5,0.25,0.25\n",  # one row
    "1\n1\n1\n",  # one column
    "1\n",  # one cell
    "",  # an empty file
    "\n \n",
    "label_1,label_2\n",  # header only
    "label_1,label_2\n\n \n",
    "label_1,label_2",
    "0.5,0.4\n",  # parsed, refused as a distribution
]

LOADER_ALPHABET = ['"', ",", "\n", "\r", " ", "0", "1", ".", "5", "e", "-", "_", "a",
                   "\x85", "\x1c", "\u3000", "\u0661"]


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
        # Each loader's read refuses a missing file: matrix, population model and weights file.
        p = tmp_path / "nope"
        for load in (load_prediction_matrix, load_population_model, lambda p: load_utility_spec(2, 2, None, str(p))):
            with pytest.raises(ValidationError, match=f"^cannot read {re.escape(str(p))}: No such file or directory$"):
                load(p)

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

    @pytest.mark.parametrize("text,message", [
        ("", "empty file"),
        ("\n ,\n", "empty file"),
        ("0.5,0.5\n \t,\u3000\n\n0.5,0.4\n", "row 2 sums to 0.9, expected 1 within 1e-06"),  # blank rows skipped
        ("label_1,label_2\n", "header but no data rows"),
        ("0.5,0.5\n1.0\n", "row 2 has 1 columns, expected 2"),
        ("0.5,0.5\n1,,\n", "row 2 has 3 columns, expected 2"),
        ("1\n0.5,0.5\n", "row 2 has 2 columns, expected 1"),
        ("0.5,0.5\n0.5,oops\n", "row 2, column 2: cannot parse 'oops'"),
        ("0.5,0.5\n0.5, 0x1 \n", "row 2, column 2: cannot parse '0x1'"),
        ("0.5,\n", "row 1, column 2: cannot parse ''"),
        ("0.5,0.5\n0.5,oops\n1\n", "row 2, column 2: cannot parse 'oops'"),  # the first fault in file order
        ("0.5,0.4\n", "row 1 sums to 0.9, expected 1 within 1e-06"),
        ("0.5,0.5,0\n0.5,nan,0.5\n", "row 2, column 2: nan is not a probability in [0, 1]"),
        ("a,b\n1.5,-0.5\n", "row 1, column 1: 1.5 is not a probability in [0, 1]"),
    ])
    def test_malformed_file_messages(self, tmp_path, text, message):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ValidationError) as err:
            load_prediction_matrix(p)
        assert str(err.value) == f"{p}: {message}"

    def test_cells_parse_as_python_float(self, tmp_path):
        cells = [" 0.25 ", "+.25", "2.5e-1", "0_0.25", "\u0660.\u0662\u0665", "1e-400", "-0", "25e-2\t"]
        p = tmp_path / "m.csv"
        p.write_text("".join(f"{cell},{1 - float(cell)}\n" for cell in cells))
        rows = load_prediction_matrix(p).rows
        assert rows[:, 0].tolist() == [float(cell) for cell in cells]
        assert np.signbit(rows[6, 0])

    @pytest.mark.parametrize("text", LOADER_CORPUS)
    def test_numpy_reader_matches_csv_module(self, tmp_path, text):
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode("utf-8"))
        _assert_loads_as_csv_module(p)

    @given(st.text(alphabet=LOADER_ALPHABET, max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_numpy_reader_matches_csv_module_on_random_text(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("corpus") / "m.csv"
        p.write_bytes(text.encode("utf-8"))
        _assert_loads_as_csv_module(p)

    @pytest.mark.parametrize("form", ["plain", "header", "bom", "crlf", "blank"])
    def test_common_files_skip_the_csv_module(self, tmp_path, monkeypatch, form):
        rows = np.random.default_rng(5).dirichlet(np.ones(5), size=1000)
        text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        text = {"plain": text, "header": "label_1,label_2,label_3,label_4,label_5\n" + text,
                "bom": "\ufeff" + text, "crlf": text.replace("\n", "\r\n"), "blank": " ,\n" + text}[form]
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode("utf-8"))

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr("uarank.io.csv.reader", refuse)
        assert load_prediction_matrix(p).rows.tobytes() == PredictionMatrix(rows).rows.tobytes()

    @pytest.mark.parametrize("header", ["", '"label_1","label_2","label_3","label_4","label_5"\n'])
    def test_all_quoted_file_reads_one_record_with_the_csv_module(self, tmp_path, monkeypatch, header):
        """A quote on the first line sends the file to the csv module, which reads every record."""
        rows = np.random.default_rng(6).dirichlet(np.ones(5), size=1000)
        p = tmp_path / "m.csv"
        p.write_text(header + "".join(",".join(f'"{float(v)!r}"' for v in row) + "\n" for row in rows))
        read, reader = [], csv.reader

        def counting(*args, **kwargs):
            for record in reader(*args, **kwargs):
                read.append(record)
                yield record

        monkeypatch.setattr("uarank.io.csv.reader", counting)
        assert load_prediction_matrix(p).rows.tobytes() == PredictionMatrix(rows).rows.tobytes()
        assert len(read) == len(rows) + bool(header)


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

    def test_weights_file_with_utf8_bom(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("\ufeff1.0\n0.5\n", encoding="utf-8")
        assert load_utility_spec(2, 2, None, str(p)).position_weights == pytest.approx([1.0, 0.5])


_TYPE = {"name": "a", "weight": 1.0, "groundTruth": [1.0], "predicted": [1.0]}


def _weights_file(tmp_path, text):
    (tmp_path / "w.txt").write_text(text)
    return str(tmp_path / "w.txt")


@pytest.mark.parametrize("call,message", [
    (lambda tmp: population_model_from_dict([]), "population model: 'types' must be a nonempty list"),
    (lambda tmp: population_model_from_dict({"types": []}), "population model: 'types' must be a nonempty list"),
    (lambda tmp: population_model_from_dict({"types": [{"name": "a", "weight": 1.0, "groundTruth": [1.0]}]}),
     "population model: type 1 is missing 'predicted'"),
    (lambda tmp: population_model_from_dict({"types": [_TYPE, _TYPE]}), "population model: duplicate type names"),
    (lambda tmp: population_model_from_dict({"types": [_TYPE], "groups": [{"name": "g"}]}),
     "population model: each group needs 'name' and 'members'"),
    (lambda tmp: population_model_from_dict({"types": [_TYPE], "groups": ["g"]}),
     "population model: each group needs 'name' and 'members'"),
    (lambda tmp: load_utility_spec(2, 2, "1,x", "dcg"), "cannot parse label values '1,x'"),
    (lambda tmp: load_utility_spec(2, 2, None, _weights_file(tmp, "1\nabc\n")),
     "{tmp}/w.txt: cannot parse position weights"),
    (lambda tmp: load_utility_spec(2, 2, None, _weights_file(tmp, "1\n")),
     "{tmp}/w.txt: 1 position weights for n=2 individuals"),
])
def test_io_validation_messages(call, message, tmp_path):
    with pytest.raises(ValidationError) as err:
        call(tmp_path)
    assert str(err.value) == message.format(tmp=tmp_path)


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
        # 3^13 = 1 594 323 label vectors, over the oracle's budget of 10^6.
        p = tmp_path / "m.csv"
        p.write_text("0.2,0.3,0.5\n" * 13)
        assert main(["oracle", "--in", str(p)]) == 2
        assert capsys.readouterr().err == "error: budget: oracle needs 1594323 label vectors, budget is 1000000\n"

    def test_oracle_beyond_64_individuals(self, tmp_path, capsys):
        # One label: one label vector, one tie block, so every rank is equally likely.
        p = tmp_path / "m.csv"
        p.write_text("1\n" * 70)
        assert main(["oracle", "--in", str(p), "--format", "structured"]) == 0
        assert np.array_equal(json.loads(capsys.readouterr().out)["ranking"], np.full((70, 70), 1 / 70))

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
            "command": "audit", "delta": 0.5, "mode": "multicalibration", "model": two_type_json,
        }

    @pytest.mark.parametrize("argv,config", [
        (["rank", "--fn", "ua"], {"command": "rank", "fn": "ua"}),
        (["rank", "--fn", "opt"], {"command": "rank", "fn": "opt", "weights": "dcg"}),
        (["oracle"], {"command": "oracle"}),
    ], ids=["rank-ua", "rank-opt", "oracle"])
    def test_ranking_calls_echo_only_read_flags(self, stab_lb_csv, capsys, argv, config):
        assert main([*argv, "--in", stab_lb_csv, "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == {**config, "input": stab_lb_csv}

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
        (lambda d: d["groups"].append({"name": "dup", "members": ["1", "1"]}),
         "group 'dup' lists type '1' more than once"),
        (lambda d: d["groups"].append({"name": "1", "members": ["2"]}), "duplicate group name '1'"),
        (lambda d: d["groups"].append({"name": "all", "members": ["1"]}), "group 'all' must hold every type"),
        (lambda d: d["groups"].append({"name": "g", "members": 5}), "group 'g': 'members' must be a list, got 5"),
        (lambda d: d["groups"].append({"name": "g", "members": "12"}),
         "group 'g': 'members' must be a list, got '12'"),
        (lambda d: d.update(labels="2"), "'labels' must be a positive integer, got '2'"),
        (lambda d: d.update(labels=True), "'labels' must be a positive integer, got True"),
        (lambda d: d.update(labels=0), "'labels' must be a positive integer, got 0"),
        (lambda d: d["types"][0].update(weight=True), "type 1: 'weight' is not numeric: True"),
        (lambda d: d["types"][1].update(groundTruth=[True, False]),
         "type 2: 'groundTruth' is not numeric: [True, False]"),
        (lambda d: d["types"][0].update(predicted=["0.5", "0.5"]),
         "type 1: 'predicted' is not numeric: ['0.5', '0.5']"),
        (lambda d: d["types"][0].update(weight="0.5"), "type 1: 'weight' is not numeric: '0.5'"),
        (lambda d: d.update(groups=5), "'groups' must be a list, got 5"),
        (lambda d: d.update(groups=None), "'groups' must be a list, got None"),
        (lambda d: d.update(groups="12"), "'groups' must be a list, got '12'"),
        (lambda d: d.update(groups={"name": "1", "members": ["1"]}), "'groups' must be a list, got {'name'"),
    ], ids=["weight-string", "weight-null", "ground-truth-scalar", "types-not-objects",
            "weight-nan", "ground-truth-nan", "ragged-undeclared-labels", "group-repeated-member",
            "group-duplicate-name", "group-all-not-full-domain", "group-members-int", "group-members-string",
            "labels-string", "labels-bool", "labels-zero", "weight-bool", "ground-truth-bools",
            "predicted-numeric-strings", "weight-numeric-string", "groups-int", "groups-null", "groups-string",
            "groups-object"])
    def test_malformed_model_exit_code(self, tmp_path, capsys, mutate, named):
        doc = json.loads(json.dumps(TWO_TYPE_DOC))
        mutate(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["audit", "multiaccuracy", "--model", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation:") and named in err

    def test_absent_groups_audit_only_the_full_domain(self, tmp_path, capsys):
        doc = {k: v for k, v in TWO_TYPE_DOC.items() if k != "groups"}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        assert main(["audit", "multiaccuracy", "--model", str(p), "--format", "structured"]) == 0
        assert list(json.loads(capsys.readouterr().out)["multiaccuracy"]["perGroup"]) == ["all"]

    @pytest.mark.parametrize("values,named", [("nan,1", "entry 1 is not finite"), ("1,inf", "entry 2 is not finite")])
    def test_non_finite_label_values_exit_code(self, tmp_path, capsys, values, named):
        p = tmp_path / "m.csv"
        p.write_text("0.5,0.5\n0,1\n")
        assert main(["utility", "--fn", "opt", "--values", values, "--in", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation:") and named in err

    @pytest.mark.parametrize("fmt", ["table", "structured"])
    def test_utility_overflow_exit_code(self, tmp_path, capsys, fmt):
        # Finite label values whose utility sums overflow float64: refused, not written as inf/Infinity.
        p, out = tmp_path / "m.csv", tmp_path / "o.txt"
        p.write_text("0.2,0.3,0.5\n0.6,0.2,0.2\n0.1,0.8,0.1\n")
        argv = ["utility", "--fn", "opt", "--in", str(p), "--values", "1e308,1.5e308,1.7e308", "--format", fmt]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: validation: utility overflows: raw inf; scale the label values or position weights down\n")
        assert not out.exists()

    def test_infinite_stability_ratio_is_not_written_as_json(self, tmp_path, capsys):
        # The inputs differ by one subnormal, which flips opt's tie: 1 / 5e-324 overflows to inf.
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("1,0\n1,0\n")
        b.write_text("1,0\n1,5e-324\n")
        # Refused before either format is written, with one message.
        for fmt in ("structured", "table"):
            argv = ["stability", "--fn", "opt", "--in", str(a), "--in2", str(b), "--values", "0,1", "--format", fmt]
            assert main(argv) == 1
            assert capsys.readouterr() == (
                "", "error: validation: stability ratio overflows: inf_gap 1.0 over l1_dist 5e-324\n")

    @pytest.mark.parametrize("text", ["0.5,0,0.5\n0,1,0\n0,1,0\n", "label_1,label_2,label_3\n0.5,0,0.5\n0,1,0\n0,1,0\n"],
                             ids=["data", "header"])
    def test_csv_with_utf8_bom(self, tmp_path, capsys, text):
        # A spreadsheet's "CSV UTF-8" starts with a byte order mark; it is not part of the first cell.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        outs = []
        for p in (plain, marked):
            assert main(["rank", "--fn", "ua", "--in", str(p), "--format", "structured"]) == 0
            outs.append(capsys.readouterr().out.replace(str(p), "IN"))
        assert outs[0] == outs[1]

    def test_population_json_with_utf8_bom(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(json.dumps(TWO_TYPE_DOC), encoding="utf-8")
        marked.write_text("\ufeff" + json.dumps(TWO_TYPE_DOC), encoding="utf-8")
        outs = []
        for p in (plain, marked):
            assert main(["audit", "multiaccuracy", "--model", str(p), "--format", "structured"]) == 0
            outs.append(capsys.readouterr().out.replace(str(p), "MODEL"))
        assert outs[0] == outs[1]

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


def _option_flags():
    """Every optional flag of every subcommand, read from the parser itself, so a
    flag added later is covered without touching this test."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {cmd: [a.option_strings[0] for a in p._actions if a.option_strings and not a.required
                  and a.dest != "help"] for cmd, p in sub.choices.items()}


OPTION_FLAGS = _option_flags()

# What each (command, mode, fn) reads besides its input files, --out and --format,
# written out by hand: (argv head, fn, required flags, optional flags).
UW = ("--values", "--weights")
THEOREM = ("--fn", "--n", "--k", "--group")
READ_SPEC = [
    (["rank"], "ua", ("--fn",), ()),
    (["rank"], "opt", ("--fn",), UW),
    (["rank"], "mix", ("--fn", "--phi"), UW),
    (["rank"], "pl", ("--fn", "--samples", "--seed"), UW),
    (["stability"], "ua", ("--fn",), ()),
    (["stability"], "opt", ("--fn",), UW),
    (["stability"], "mix", ("--fn", "--phi"), UW),
    (["stability"], "pl", ("--fn", "--samples", "--seed"), UW),
    (["utility"], "ua", ("--fn",), UW),
    (["utility"], "opt", ("--fn",), UW),
    (["utility"], "mix", ("--fn", "--phi"), UW),
    (["utility"], "pl", ("--fn", "--samples", "--seed"), UW),
    (["oracle"], None, (), ()),
    (["audit", "multiaccuracy"], None, (), ()),
    (["audit", "multicalibration"], None, ("--delta",), ()),
    (["audit", "nature"], None, ("--n",), ("--samples", "--seed")),
    (["audit", "theorem"], "ua", THEOREM + ("--exact",), ("--delta",)),
    (["audit", "theorem"], "opt", THEOREM + ("--exact",), ("--delta", *UW)),
    (["audit", "theorem"], "mix", THEOREM + ("--exact", "--phi"), ("--delta", *UW)),
    (["audit", "theorem"], "ua", THEOREM + ("--samples", "--seed"), ("--delta",)),
    (["audit", "theorem"], "opt", THEOREM + ("--samples", "--seed"), ("--delta", *UW)),
    (["audit", "theorem"], "mix", THEOREM + ("--samples", "--seed", "--phi"), ("--delta", *UW)),
]


def _spec_id(head, fn, required, optional):
    mode = ("exact" if "--exact" in required else "sampled") if head[1:] == ["theorem"] else None
    return " ".join(w for w in [*head, mode, fn] if w)


@pytest.mark.parametrize("head,fn,required,optional", READ_SPEC, ids=[_spec_id(*spec) for spec in READ_SPEC])
def test_every_flag_is_read_or_rejected(head, fn, required, optional, stab_lb_csv, two_type_json,
                                        tmp_path, capsys):
    """With its required flags a call runs; each flag it reads may be added and it
    still runs; adding any other flag exits 1 naming that flag."""
    weights = tmp_path / "w.txt"
    weights.write_text("1\n0.5\n0.25\n")
    audit = head[0] == "audit"
    value = {"--fn": fn or "opt", "--phi": "0.5", "--samples": "20", "--seed": "3",
             "--values": "1,2" if audit else "1,2,3", "--weights": str(weights),
             "--out": str(tmp_path / "out.txt"), "--format": "structured",
             "--delta": "0.5", "--n": "3", "--k": "1", "--group": "1"}
    inputs = {"rank": ["--in", stab_lb_csv], "oracle": ["--in", stab_lb_csv], "utility": ["--in", stab_lb_csv],
              "stability": ["--in", stab_lb_csv, "--in2", stab_lb_csv], "audit": ["--model", two_type_json]}
    flag = lambda f: [f] if f == "--exact" else [f, value[f]]  # noqa: E731
    base = head + inputs[head[0]] + [a for f in required for a in flag(f)]
    assert main(base) == 0, capsys.readouterr().err
    for f in OPTION_FLAGS[head[0]]:
        if f in required or (f == "--exact" and head[1:] == ["theorem"]):  # --exact picks the mode
            continue
        code = main(base + flag(f))
        err = capsys.readouterr().err
        if f in optional or f in ("--out", "--format"):
            assert code == 0, (f, err)
        else:
            assert code == 1 and re.search(rf"{f}\b", err), (f, err)


PROBES = [  # each exited 0 before every command checked the flags it reads
    (["oracle", "--in", "CSV", "--phi", "3", "--samples", "-5", "--values", "x,y"],
     ["--phi", "--samples", "--values"]),
    (["stability", "--in", "CSV", "--in2", "CSV", "--fn", "ua", "--values", "9,1", "--samples", "-1"],
     ["--values", "--samples"]),
    (["rank", "--in", "CSV", "--fn", "opt", "--samples", "-3", "--seed", "2"], ["--samples", "--seed"]),
    (["rank", "--in", "CSV", "--fn", "ua", "--weights", "/nonexistent"], ["--weights"]),
    (["utility", "--in", "CSV", "--fn", "ua", "--samples", "-9", "--seed", "4"], ["--samples", "--seed"]),
    (["audit", "nature", "--model", "MODEL", "--n", "3", "--phi", "3", "--k", "9", "--group", "nope",
      "--exact", "--delta", "0.3"], ["--phi", "--k", "--group", "--exact", "--delta"]),
    (["audit", "nature", "--model", "MODEL", "--n", "3", "--values", "q"], ["--values"]),
    (["audit", "theorem", "--model", "MODEL", "--fn", "ua", "--exact", "--n", "3", "--k", "1", "--group", "1",
      "--phi", "7", "--samples", "-2", "--values", "a,b"], ["--phi", "--samples", "--values"]),
    (["audit", "theorem", "--model", "MODEL", "--fn", "opt", "--exact", "--n", "3", "--k", "1", "--group", "1",
      "--samples", "10", "--seed", "1"], ["--samples", "--seed"]),
]


@pytest.mark.parametrize("argv,named", PROBES,
                         ids=["-".join([a[a[0] == "audit"], *(f[2:] for f in named)]) for a, named in PROBES])
def test_unread_flag_probes_exit_1(argv, named, stab_lb_csv, two_type_json, capsys):
    argv = [{"CSV": stab_lb_csv, "MODEL": two_type_json}.get(a, a) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation:") and "do not read" in err
    for f in named:
        assert re.search(rf"{f}\b", err), (f, err)


def test_readme_cli_examples_run(tmp_path, capsys):
    """Every `uarank ...` line of the README's CLI usage block exits 0 on small fixtures."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = readme[readme.index("## CLI usage"):]
    block = re.search(r"```sh\n(.*?)```", usage, re.S).group(1)
    model = re.search(r"```json\n(.*?)```", usage, re.S).group(1)
    files = {"preds.csv": "0.2,0.3,0.5\n0.6,0.2,0.2\n0.1,0.8,0.1\n0.3,0.3,0.4\n",
             "before.csv": "0.2,0.3,0.5\n0.6,0.2,0.2\n0.1,0.8,0.1\n",
             "after.csv": "0.25,0.25,0.5\n0.6,0.2,0.2\n0.1,0.7,0.2\n", "pop.json": model}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    calls = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("uarank ")]
    assert len(calls) >= 10
    for argv in calls:
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        assert main(argv) == 0, (argv, capsys.readouterr().err)


NEGATIVE_SEED = [
    ["rank", "--fn", "pl", "--samples", "20", "--seed", "-1", "--in", "CSV"],
    ["audit", "theorem", "--model", "MODEL", "--n", "3", "--k", "1", "--group", "1",
     "--samples", "20", "--seed", "-1"],
    ["audit", "nature", "--model", "MODEL", "--n", "3", "--seed", "-1"],
]


@pytest.mark.parametrize("argv", NEGATIVE_SEED, ids=["rank-pl", "theorem-sampled", "nature"])
def test_negative_seed_exit_1(argv, stab_lb_csv, two_type_json, capsys):
    argv = [{"CSV": stab_lb_csv, "MODEL": two_type_json}.get(a, a) for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: validation: seed must be a nonnegative integer, got -1\n"


TINY_DELTA = [
    ["audit", "multicalibration", "--delta", "1e-20"],
    ["audit", "multicalibration", "--delta", "1e-310"],
    ["audit", "theorem", "--n", "3", "--k", "1", "--group", "1", "--samples", "20", "--seed", "0", "--delta", "1e-20"],
    ["audit", "theorem", "--n", "3", "--k", "1", "--group", "1", "--exact", "--delta", "1e-20"],
]


@pytest.mark.parametrize("argv", TINY_DELTA, ids=["multicalibration", "multicalibration-subnormal",
                                                  "theorem-sampled", "theorem-exact"])
def test_tiny_delta_exit_1(argv, two_type_json, capsys):
    # 1/delta beyond 2^53 (or inf) is refused before it reaches an integer cast.
    assert main([*argv, "--model", two_type_json]) == 1
    delta = argv[argv.index("--delta") + 1]
    assert capsys.readouterr().err == f"error: validation: 1/delta must be at most 2^53, got delta={float(delta)}\n"


FOUR_TYPE_DOC = {
    "labels": 2,
    "types": [
        {"name": "a", "weight": 0.125, "groundTruth": [0.75, 0.25], "predicted": [0.625, 0.375]},
        {"name": "b", "weight": 0.25, "groundTruth": [0.5, 0.5], "predicted": [0.5, 0.5]},
        {"name": "c", "weight": 0.25, "groundTruth": [0.375, 0.625], "predicted": [0.5, 0.5]},
        {"name": "d", "weight": 0.375, "groundTruth": [0.25, 0.75], "predicted": [0.25, 0.75]},
    ],
    "groups": [{"name": "ab", "members": ["a", "b"]}],
}


@pytest.mark.parametrize("n", [12, 16])
def test_exact_audit_of_four_types(n, tmp_path, capsys):
    # 4^n ordered type vectors, audited in closed form as one ranking.
    path = tmp_path / "four.json"
    path.write_text(json.dumps(FOUR_TYPE_DOC))
    argv = ["audit", "theorem", "--model", str(path), "--n", str(n), "--k", "2", "--group", "ab", "--exact",
            "--format", "structured"]
    assert main(argv) == 0
    th = json.loads(capsys.readouterr().out)["theorem"]
    assert th["exactGap"] == theorem_gap_exact(load_population_model(path), n, 2, "ab")
    assert 0.0 < th["exactGap"] <= th["bound"]


# The first n the audit budget refuses: for sampling, 288 for two types (289 multisets
# against a budget of 287); for the exact closed form, one ranking, 1901 for any population.
@pytest.mark.parametrize("types,path,n,refusal", [
    (TWO_TYPE_DOC["types"], ["--exact"], 1901, "exact audit needs 1 ranking, budget is 0"),
    (TWO_TYPE_DOC["types"], ["--samples", "1000000", "--seed", "1"], 288,
     "sampling needs 289 multisets of types, budget is 287"),
    (TWO_TYPE_DOC["types"][:1], ["--exact"], 1901, "exact audit needs 1 ranking, budget is 0"),
], ids=["exact", "sampled", "one-type-exact"])
def test_audit_beyond_n_cap_exit_2(types, path, n, refusal, tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"labels": 2, "types": [{**t, "weight": 1.0 / len(types)} for t in types]}))
    argv = ["audit", "theorem", "--model", str(model), "--n", str(n), "--k", "1", "--group", "all", *path]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: budget: {refusal} at n={n}\n"


def test_audit_nature_beyond_budget_exit_2(two_type_json, capsys):
    # One sampled dataset of 10^6 individuals would need a pair of 10^6 x 10^6 UA matrices.
    assert main(["audit", "nature", "--model", two_type_json, "--n", "1000000", "--samples", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: budget: nature check needs 1 multisets of types, budget is 0 at n=1000000\n"


# tests/test_audit.py's tied_model: types a and b share a predicted row, so opt's
# tau ties across types and falls to the ascending-index tie-break.
TIED_DOC = {
    "labels": 2,
    "types": [
        {"name": "a", "weight": 0.25, "groundTruth": [0.75, 0.25], "predicted": [0.5, 0.5]},
        {"name": "b", "weight": 0.25, "groundTruth": [0.5, 0.5], "predicted": [0.5, 0.5]},
        {"name": "c", "weight": 0.5, "groundTruth": [0.25, 0.75], "predicted": [0.25, 0.75]},
    ],
    "groups": [{"name": "a", "members": ["a"]}, {"name": "ab", "members": ["a", "b"]}],
}

# Structured stdout of the sampled theorem audits and the nature check, which must
# keep these exact bytes.  The config blocks echo only the flags each call reads.
GOLDEN_AUDITS = {
    # Over this call's 300 drawn gaps, the exact mean is 419/76800 = 0.0054557291666666666...
    # and the exact standard error 0.00046347185015059968...
    "ua": ('theorem --fn ua --n 4 --k 2 --group ab --samples 300 --seed 5', """\
{
  "config": {
    "command": "audit",
    "exact": false,
    "fn": "ua",
    "group": "ab",
    "k": 2,
    "mode": "theorem",
    "model": "tied_model.json",
    "n": 4,
    "samples": 300,
    "seed": 5
  },
  "theorem": {
    "alpha": 0.0625,
    "bound": 0.5,
    "bucket": null,
    "delta": null,
    "estimate": 0.005455729166666671,
    "group": "ab",
    "mc_error": 0.00046347185015059935,
    "position": 2,
    "samples": 300,
    "seed": 5
  }
}
"""),
    "opt": ('theorem --fn opt --n 4 --k 1 --group a --samples 300 --seed 6', """\
{
  "config": {
    "command": "audit",
    "exact": false,
    "fn": "opt",
    "group": "a",
    "k": 1,
    "mode": "theorem",
    "model": "tied_model.json",
    "n": 4,
    "samples": 300,
    "seed": 6,
    "weights": "dcg"
  },
  "theorem": {
    "alpha": 0.0625,
    "bound": 0.5,
    "bucket": null,
    "delta": null,
    "estimate": 0.0033333333333333335,
    "group": "a",
    "mc_error": 0.0016582843838537423,
    "position": 1,
    "samples": 300,
    "seed": 6
  }
}
"""),
    "mix": ('theorem --fn mix --phi 0.35 --n 4 --k 3 --group ab --samples 300 --seed 7', """\
{
  "config": {
    "command": "audit",
    "exact": false,
    "fn": "mix",
    "group": "ab",
    "k": 3,
    "mode": "theorem",
    "model": "tied_model.json",
    "n": 4,
    "phi": 0.35,
    "samples": 300,
    "seed": 7,
    "weights": "dcg"
  },
  "theorem": {
    "alpha": 0.0625,
    "bound": 0.825,
    "bucket": null,
    "delta": null,
    "estimate": 0.0025103081597222187,
    "group": "ab",
    "mc_error": 0.00017929555977665593,
    "position": 3,
    "samples": 300,
    "seed": 7
  }
}
"""),
    "nature": ('nature --n 5 --samples 40 --seed 8', """\
{
  "config": {
    "command": "audit",
    "mode": "nature",
    "model": "tied_model.json",
    "n": 5,
    "samples": 40,
    "seed": 8
  },
  "nature": {
    "bound": 2.5,
    "eps": 0.5,
    "max_gap": 0.1796875,
    "samples": 40,
    "seed": 8,
    "within_bound": true
  }
}
"""),
}


@pytest.mark.parametrize("name", GOLDEN_AUDITS)
def test_sampled_audit_golden_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tied_model.json").write_text(json.dumps(TIED_DOC))
    flags, expected = GOLDEN_AUDITS[name]
    mode, *rest = flags.split()
    assert main(["audit", mode, "--model", "tied_model.json", *rest, "--format", "structured"]) == 0
    assert capsys.readouterr().out == expected


# Table bytes of every report mode: one row per (name, value) pair, each name padded
# to the longest name plus two spaces.  CSV is stab_lb, CSV2 its lower-bound partner,
# PREDS a four-row matrix and MODEL the two-type fixture.
GOLDEN_TABLES = {
    "stability": ("stability --in CSV --in2 CSV2", "inf_gap  0.5\nl1_dist  1\nratio    0.5\n"),
    "stability-identical": ("stability --in CSV --in2 CSV", "inf_gap  0\nl1_dist  0\n"),
    "utility": ("utility --in PREDS", "raw         5.18582035654\nmin         4.90241559071\n"
                "max         5.31403497542\nnormalized  0.688511708528\n"),
    "multiaccuracy": ("audit multiaccuracy --model MODEL", "1      0.05\n2      0.05\nall    0\nalpha  0.05\n"),
    "multicalibration": ("audit multicalibration --model MODEL --delta 0.5",
                         "1|0,1    0.05\n2|1,0    0.05\nall|0,1  0.05\nall|1,0  0.05\nalpha    0.05\n"),
    "nature": ("audit nature --model MODEL --n 3",
               "eps      0.2\nbound    0.6\nmax_gap  0.106666666667\nwithin   True\n"),
    "exact-theorem": ("audit theorem --model MODEL --fn opt --n 4 --k 1 --group 1 --exact",
                      "gap    0.109375\nbound  0.4\nalpha  0.05\n"),
    "sampled-theorem": ("audit theorem --model MODEL --n 4 --k 2 --group 1 --samples 200 --seed 3",
                        "estimate  0.0096925\nmc_error  0.000307254774139\nbound     0.4\nalpha     0.05\n"),
}


@pytest.fixture
def table_files(stab_lb_csv, two_type_json, tmp_path):
    (tmp_path / "partner.csv").write_text("1,0,0\n0,1,0\n0,1,0\n")
    (tmp_path / "preds.csv").write_text("0.2,0.3,0.5\n0.6,0.2,0.2\n0.1,0.8,0.1\n0.3,0.3,0.4\n")
    return {"CSV": stab_lb_csv, "CSV2": str(tmp_path / "partner.csv"), "PREDS": str(tmp_path / "preds.csv"),
            "MODEL": two_type_json}


@pytest.mark.parametrize("name", GOLDEN_TABLES)
def test_report_table_golden_bytes(name, table_files, capsys):
    argv, expected = GOLDEN_TABLES[name]
    assert main([table_files.get(a, a) for a in argv.split()]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name", GOLDEN_TABLES)
def test_report_table_rows_are_the_structured_values(name, table_files, capsys):
    """Each table row is `format(v, ".12g")` (a bool as True/False) of the value the
    structured payload holds under that name, group or cell."""
    argv = [table_files.get(a, a) for a in GOLDEN_TABLES[name][0].split()]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main([*argv, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    (payload,) = [v for k, v in doc.items() if k != "config"]
    values = {}
    for key, v in payload.items():
        values.update(v if isinstance(v, dict) else {key: v})
    values.update(gap=values.get("exactGap"), within=values.get("within_bound"))
    width = max(len(line.rsplit(None, 1)[0]) for line in lines) + 2
    for line in lines:
        row, text = line.rsplit(None, 1)
        v = values[row]
        assert line == row.ljust(width) + text
        assert text == (str(v) if isinstance(v, bool) else format(v, ".12g"))


def test_modes_table_has_one_row_per_command_and_audit_mode():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    audit_modes = next(a for a in sub.choices["audit"]._actions if a.dest == "mode").choices
    modes = [c for c in sub.choices if c != "audit"] + [m for m in audit_modes if m != "theorem"]
    assert sorted(cli._MODES) == sorted(modes + ["exact theorem", "sampled theorem"])


NON_ASCII_DOC = {**TWO_TYPE_DOC, "groups": [{"name": "grüppe", "members": ["1"]}]}


@pytest.mark.parametrize("to", ["out", "stdout"])
def test_non_ascii_report_under_an_ascii_locale(to, tmp_path):
    """Under the C locale, --out still writes UTF-8, and stdout, which cannot encode
    the group name, fails with a validation error instead of a traceback."""
    (tmp_path / "m.json").write_text(json.dumps(NON_ASCII_DOC), encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "uarank.cli", "audit", "multiaccuracy", "--model", "m.json"]
    out = tmp_path / "o.txt"
    proc = subprocess.run([*argv, *(["--out", str(out)] if to == "out" else [])], cwd=tmp_path, env=env,
                          capture_output=True, timeout=60)
    if to == "out":
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert out.read_bytes().decode("utf-8") == "all     0\ngrüppe  0.05\nalpha   0.05\n"
    else:
        assert proc.returncode == 1 and proc.stdout == b""
        assert proc.stderr.startswith(b"error: validation: stdout's encoding ")


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0),
    (["rank", "--in", "missing.csv"], 1),
    (["audit", "theorem", "--exact", "--model", "m.json", "--n", "1901", "--k", "1", "--group", "1"], 2),
])
def test_module_entry_point_exit_codes(argv, code, tmp_path):
    """`python -m uarank.cli` exits with main's code: 0, 1 for validation, 2 for the budget."""
    (tmp_path / "m.json").write_text(json.dumps(TWO_TYPE_DOC))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "uarank.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == code
    if code:
        assert proc.stdout == b"" and proc.stderr.startswith({1: b"error: validation: ", 2: b"error: budget: "}[code])
    else:
        assert proc.stderr == b"" and proc.stdout.startswith(b"usage: ")


# json.dumps writes a lone surrogate as the escape "\ud800", which json.loads accepts but UTF-8 cannot encode.
SURROGATE_DOCS = {
    "type": {**TWO_TYPE_DOC, "types": [{**TWO_TYPE_DOC["types"][0], "name": "\ud800"}, TWO_TYPE_DOC["types"][1]],
             "groups": [{"name": "1", "members": ["\ud800"]}]},
    "group": {**TWO_TYPE_DOC, "groups": [{"name": "\ud800", "members": ["1"]}]},
}


@pytest.mark.parametrize("entry", ["type", "group"])
def test_lone_surrogate_name_exit_1(entry, tmp_path, capsys):
    model, out = tmp_path / "m.json", tmp_path / "o.txt"
    model.write_text(json.dumps(SURROGATE_DOCS[entry]))
    assert main(["audit", "multiaccuracy", "--model", str(model), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: validation: {model}: {entry} 1: name '\\ud800' does not encode as UTF-8\n"
    assert not out.exists()


def structured_text(payload: dict) -> str:
    """The structured report's whole text, joined from the parts `write_report` writes."""
    return "".join(_chunks(structured_parts(payload)))


def table_text(M) -> str:
    """The table report's whole text, joined from the parts `write_report` writes."""
    return "".join(_chunks(table_parts(M)))


class TestSerializeStructured:
    def test_sorted_and_plain(self):
        text = structured_text({"b": np.float64(0.5), "a": np.arange(2)})
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": [0, 1], "b": 0.5}

    def test_full_precision(self):
        x = 1.0 / 3.0
        assert json.loads(structured_text({"x": x}))["x"] == x

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
        assert structured_text(payload) == (
            '{\n  "bucket": [\n    1,\n    null,\n    true\n  ],\n  "count": 7,\n'
            '  "flag": false,\n  "matrix": [\n    [\n      0.1,\n      0.3333333333333333\n'
            '    ],\n    [\n      1.0,\n      0.0\n    ]\n  ],\n  "missing": null,\n'
            '  "outer": {\n    "inner": {\n      "ids": [\n        0,\n        1,\n'
            '        2\n      ],\n      "ok": true\n    },\n    "label": "g1"\n  },\n'
            '  "weight": 0.25\n}\n'
        )

    @pytest.mark.parametrize("payload", [
        {"x": float("inf")},
        {"outer": {"nan": np.float64("nan")}},
        {"ranking": np.diag([1.0, 1.0, -np.inf, 1.0])},  # arrays, not rankings: json writes them itself
        {"ranking": np.array([[0.1, np.nan], [0.3, 0.4]])},
    ], ids=["float", "nested", "few-distinct", "all-distinct"])
    def test_non_finite_is_a_validation_error(self, payload):
        with pytest.raises(ValidationError, match="^cannot write structured output: Out of range float values"):
            structured_text(payload)


class TestFormatMatrix:
    def test_negative_zero_cell_widens_every_column(self):
        # -1e-13 lies inside the ranking distribution's 1e-12 entry slack.
        R = RankingDistribution(np.array([[1.0, -1e-13, 1e-13], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]))
        assert table_text(R) == (
            " 1.000000  -0.000000   0.000000\n"
            " 0.000000   0.500000   0.500000\n"
            " 0.000000   0.500000   0.500000\n"
        )

    def test_signed_zero_alone(self):
        R = RankingDistribution(np.array([[1.0, -0.0], [0.0, 1.0]]))
        assert table_text(R) == " 1.000000  -0.000000\n 0.000000   1.000000\n"

    def test_one_by_one(self, tmp_path, capsys):
        assert table_text(RankingDistribution(np.array([[1.0]]))) == "1.000000\n"
        assert table_text(RankingDistribution.from_order([0])) == "1.000000\n"
        p = tmp_path / "one.csv"
        p.write_text("0.3,0.7\n")
        assert main(["rank", "--in", str(p)]) == 0
        assert capsys.readouterr().out == "1.000000\n"


# Matrices for structured_parts' arrays, which json writes itself: the float cases
# (signed zero, the smallest subnormal, non-terminating binaries) beside integers
# and arbitrary finite floats.
MATRICES = st.one_of(
    arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
           elements=st.one_of(st.sampled_from([-0.0, 5e-324, 0.1, 1.0 / 3.0, 1.0]),
                              st.integers(-99, 99).map(float),
                              st.floats(allow_nan=False, allow_infinity=False))),
    arrays(np.int64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6), elements=st.integers(-99, 99)),
)


# Matrices of at most three distinct values, up to 20x20.
FEW_DISTINCT = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0 / 3.0, 1.0]), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=3,
).flatmap(lambda pool: arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=20),
                              elements=st.sampled_from(pool)))


def with_signed_zeros(draw, M):
    """M with a few of its 0.0 cells drawn to -0.0 or the smallest subnormal, which the
    doubly stochastic check admits."""
    zeros = np.argwhere(M == 0)
    for _ in range(draw(st.integers(0, 3)) if zeros.size else 0):
        M[tuple(zeros[draw(st.integers(0, len(zeros) - 1))])] = draw(st.sampled_from([-0.0, 5e-324]))
    return M


@st.composite
def rankings(draw):
    """A ranking that keeps its order, or a mixture of one to n + 2 permutation matrices up to
    20x20: weights from a pool of a few values give few distinct cells (the lookup), arbitrary
    weights on small n nearly all distinct (the rows path)."""
    n = draw(st.integers(1, 20))
    if draw(st.booleans()):
        return RankingDistribution.from_order(draw(st.permutations(range(n))))
    weight = st.one_of(st.sampled_from([1.0, 0.5, 1.0 / 3.0]), st.floats(1e-3, 1.0))
    weights = np.array(draw(st.lists(weight, min_size=1, max_size=n + 2)))
    M = np.zeros((n, n))
    for w in weights / weights.sum():
        M[np.arange(n), draw(st.permutations(range(n)))] += w
    return RankingDistribution(with_signed_zeros(draw, M))


def plain_structured(payload) -> str:
    """`json.dumps` of the payload, arrays and rankings (as their `entries`) as lists."""
    return json.dumps(payload, sort_keys=True, indent=2, default=lambda o: getattr(o, "entries", o).tolist()) + "\n"


def assert_writers_equal_plain(R, payload):
    """Both writers give the bytes of the plain expressions they replace for the ranking R,
    compared line by line: a failure names the first differing line instead of diffing megabytes."""
    structured, table = structured_text(payload), table_text(R)
    assert structured.split("\n") == plain_structured(payload).split("\n")
    cells = [[f"{v:.6f}" for v in row] for row in R.entries]
    width = max(len(c) for row in cells for c in row)
    assert table.split("\n") == ["  ".join(c.rjust(width) for c in row) for row in cells] + [""]


@settings(max_examples=400, deadline=None)
@given(rankings())
def test_writers_equal_the_plain_expressions(R):
    M = _permutation_matrix(R.order) if R.order is not None else R.entries
    payload = {"ranking": R, "config": {"fn": "ua", "n": R.n}, "diagonal": np.diagonal(M),
               "peak": M.max(), "nested": {"matrix": M}, "transposed": M.T}
    assert_writers_equal_plain(R, payload)


@settings(max_examples=400, deadline=None)
@given(st.one_of(MATRICES, FEW_DISTINCT))
def test_structured_arrays_equal_json_dumps(M):
    """An array, which is not a ranking, takes json's own path wherever it sits."""
    payload = {"matrix": M, "config": {"n": M.shape[0]}, "diagonal": np.diagonal(M),
               "peak": M.max(initial=0), "nested": {"matrix": M}, "transposed": M.T}
    assert structured_text(payload).split("\n") == plain_structured(payload).split("\n")


def test_signed_zeros_keep_their_sign_in_both_writers():
    M = 0.5 * np.eye(8) + 0.5 * np.roll(np.eye(8), 1, axis=1)
    M[2, 5] = M[6, 1] = -0.0
    R = RankingDistribution(M)  # three distinct bit patterns in 64 cells: each is formatted once
    assert_writers_equal_plain(R, {"ranking": R})
    rows = json.loads(structured_text({"ranking": R}))["ranking"]
    assert [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if np.signbit(v)] == [(2, 5), (6, 1)]
    table = [line.split() for line in table_text(R).splitlines()]
    assert [(i, j) for i, row in enumerate(table) for j, c in enumerate(row) if c == "-0.000000"] == [(2, 5), (6, 1)]


@pytest.mark.parametrize("rows, n", [(1, 8), (2, 4), (3, 4), (2, 2)], ids=["1x8", "2x4", "3x4", "2x2"])
def test_looked_up_rows_end_where_the_plain_rows_end(rows, n, monkeypatch):
    """The lookup path marks a row's last cell and the matrix's last cell apart in each block's
    `rows` x n array of cells; a block of one row puts both marks on one row, a last block
    shorter than the others ends the matrix mid-step, and n = 2 holds one value."""
    monkeypatch.setattr(rankers, "_CHUNK_CELLS", rows * n)
    R = RankingDistribution(0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1))  # 0.5 and 0.0
    assert 4 * np.unique(R.entries).size <= n * n
    assert_writers_equal_plain(R, {"ranking": R, "config": {"n": n}})


@pytest.mark.parametrize("fn, params, looked_up", [
    ("opt", {}, True), ("pl", {"samples": 500, "seed": 1}, True), ("mix", {"phi": 0.5}, False), ("ua", {}, False),
], ids=["opt", "pl", "mix", "ua"])
def test_rankings_at_n300_equal_the_plain_expressions(fn, params, looked_up):
    """Each ranking held dense: opt's 0/1 matrix (2 values) and pl (at most 501 values) take the
    lookup of distinct values; mix and ua (nearly every entry distinct) take the row path.
    `looked_up` says whether at most a quarter of the cells are distinct.  opt's ranking itself,
    which keeps its order, takes the order path, as `test_path_of_each_ranker_at_n300` checks."""
    rows = np.random.default_rng(300).dirichlet(np.ones(3), size=300)
    M = compute_ranking(fn, PredictionMatrix(rows), u=UtilitySpec.dcg(300, L=3), **params).entries
    assert (4 * np.unique(M.view(np.uint64)).size <= M.size) == looked_up
    R = RankingDistribution(M)
    assert_writers_equal_plain(R, {"config": {"fn": fn, **params}, "ranking": R})


# Rankings of long runs of equal cells, up to 40x40: dense permutation matrices,
# block-diagonal ones of k x k blocks of 1/k, and banded ones (a mixture of
# 2w + 1 cyclic shifts), with a few 0.0 cells drawn to -0.0 or the smallest
# subnormal.  A run that fills a row's end carries on into the next row whenever
# the two rows end and start alike, and few values fill them, so the larger ones
# take the lookup.
@st.composite
def long_runs(draw):
    kind = draw(st.sampled_from(["permutation", "blocks", "band"]))
    if kind == "permutation":
        n = draw(st.integers(1, 40))
        M = np.zeros((n, n))
        M[np.arange(n), draw(st.permutations(range(n)))] = 1.0
    elif kind == "blocks":
        sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=10))
        M = np.zeros((sum(sizes), sum(sizes)))
        for lo, k in zip(np.cumsum([0, *sizes]), sizes):
            M[lo:lo + k, lo:lo + k] = 1.0 / k
    else:
        width = draw(st.integers(0, 3))
        n = draw(st.integers(2 * width + 1, 40))
        M = sum(np.roll(np.eye(n), s, axis=1) for s in range(-width, width + 1)) / (2 * width + 1)
    return RankingDistribution(with_signed_zeros(draw, M))


@settings(max_examples=300, deadline=None)
@given(long_runs())
def test_long_runs_equal_the_plain_expressions(R):
    M = R.entries
    payload = {"ranking": R, "transposed": M.T, "nonzero": (M != 0).astype(np.int64), "nonzero_mask": M != 0,
               "config": {"n": R.n}}
    assert_writers_equal_plain(R, payload)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_run_is_a_validation_error(bad):
    M = np.zeros((40, 40))
    M[7, 3:30] = bad  # a run of 27 bad cells in 1600: not a ranking, so json's own path refuses it
    with pytest.raises(ValidationError, match="^cannot write structured output: Out of range float values"):
        structured_text({"ranking": M})


def test_finite_cells_whose_sum_overflows_are_written():
    M = np.full((3, 3), 1e308)  # each cell finite, their sum inf
    assert structured_text({"ranking": M}) == json.dumps({"ranking": M.tolist()}, sort_keys=True, indent=2) + "\n"


def count_paths(R):
    """The row blocks `_matrix_parts` gives for the ranking R, with counting `cell` and `row`
    callables, checked against the plain text and to end at row ends: how many blocks, how many
    parts they hold, and how often each callable was called."""
    calls = {"cell": 0, "row": 0}

    def cell(v):
        calls["cell"] += 1
        return repr(v)

    def row(r):
        calls["row"] += 1
        return ",".join(map(repr, r))

    blocks = [list(block) for block in _matrix_parts(R, ",", ";\n", lambda values: (cell, row))]
    M = R.entries if R.order is None else _permutation_matrix(R.order)
    parts = sum(len(block) for block in blocks)
    blocks = ["".join(block) for block in blocks]
    assert "".join(blocks) == ";\n".join(",".join(map(repr, r)) for r in M.tolist())
    step = max(1, rankers._CHUNK_CELLS // M.shape[1])
    sizes = [min(step, M.shape[0] - lo) for lo in range(0, M.shape[0], step)]
    assert [b.count(";\n") for b in blocks] == [*sizes[:-1], sizes[-1] - 1]
    return len(blocks), parts, calls["cell"], calls["row"]


@pytest.mark.parametrize("fn, params", [
    ("opt", {}), ("pl", {"samples": 500, "seed": 1}), ("mix", {"phi": 0.5}), ("ua", {}),
], ids=["opt", "pl", "mix", "ua"])
def test_path_of_each_ranker_at_n300(fn, params):
    """Each ranking written as `cli._emit` hands it over.  opt, which keeps its order, takes the
    order path (two values formatted once, far fewer parts than cells, no matrix built); pl's few
    values the lookup (one part per cell, each distinct value formatted once); ua and mix, nearly
    every entry distinct, the row path (one row string per row, one part per block).  The 9 * 10^4
    cells come in two blocks of 218 and 82 rows."""
    rows = np.random.default_rng(300).dirichlet(np.ones(3), size=300)
    R = compute_ranking(fn, PredictionMatrix(rows), u=UtilitySpec.dcg(300, L=3), **params)
    M = R.entries if R.order is None else _permutation_matrix(R.order)
    distinct = np.unique(M.view(np.uint64)).size
    path = {"opt": "order", "pl": "lookup"}.get(fn, "rows")
    assert (R.order is not None, 4 * distinct <= M.size) == {
        "order": (True, True), "lookup": (False, True), "rows": (False, False)}[path]
    blocks, parts, cells, row_calls = count_paths(R)
    assert (blocks, parts, cells, row_calls) == {
        "order": (2, parts, 2, 0), "lookup": (2, M.size, distinct, 0), "rows": (2, 2, 0, 300)}[path]
    if path == "order":
        assert 6 * parts <= M.size and "entries" not in vars(R)


@pytest.mark.parametrize("n", [1, 1000])
def test_order_blocks_share_their_strings(n, monkeypatch):
    """Every block of an order's text, in both formats, references the same B + 3 strings,
    B = (n - 1).bit_length(), and the matrix's bare last cell, all from one call of `formats`
    on 0.0 and 1.0.  At n = 1 the table's one cell keeps the width of 1.000000."""
    R = RankingDistribution.from_order(np.random.default_rng(n).permutation(n))
    formatted = []

    def counted(R, sep, row_sep, formats):
        def once(values):
            formatted.append(values.tolist())
            return formats(values)
        return _matrix_parts(R, sep, row_sep, once)

    monkeypatch.setattr("uarank.io._matrix_parts", counted)
    for parts in (structured_parts({"ranking": R}), table_parts(R)):
        formatted.clear()
        blocks = [list(block) for part in parts if not isinstance(part, str) for block in part]
        assert len({id(s) for block in blocks for s in block}) <= (n - 1).bit_length() + 5
        assert formatted == [[0.0, 1.0]]
    assert "entries" not in vars(R)
    if n == 1:
        assert table_text(R) == "1.000000\n"


def assert_same_lines(got: str, want: str):
    """got == want, failing with the first differing line instead of a diff of megabytes."""
    got, want = got.split("\n"), want.split("\n")
    if got != want:
        at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        g, w = (lines[at] if at < len(lines) else "" for lines in (got, want))
        c = len(os.path.commonprefix([g, w]))
        pytest.fail(f"line {at + 1} of {len(got)} (want {len(want)}), character {c + 1}: "
                    f"{g[max(0, c - 20):c + 20]!r} != {w[max(0, c - 20):c + 20]!r}")


def assert_order_writes_its_matrix(order):
    """A ranking that keeps `order` writes the texts of its permutation matrix held dense, block
    by block, and never builds its `entries`; returns the rows of each block."""
    R = RankingDistribution.from_order(order)
    M = RankingDistribution(_permutation_matrix(R.order))
    config = {"fn": "opt", "n": M.n}
    assert_same_lines(structured_text({"config": config, "ranking": R}), structured_text({"config": config, "ranking": M}))
    assert_same_lines(table_text(R), table_text(M))

    def blocks(M):
        formats = (repr, lambda r: ",".join(map(repr, r)))
        return ["".join(block) for block in _matrix_parts(M, ",", ";\n", lambda values: formats)]

    texts, dense = blocks(R), blocks(M)
    assert len(texts) == len(dense)
    for text, want in zip(texts, dense):
        assert_same_lines(text, want)
    assert "entries" not in vars(R)
    return [text.count(";\n") for text in texts[:-1]] + [texts[-1].count(";\n") + 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))))
def test_order_writes_the_text_of_its_permutation_matrix(order):
    assert_order_writes_its_matrix(np.array(order))


@pytest.mark.parametrize("n, rows", [(1, [1]), (2, [2]), (300, [218, 82]), (1000, [65] * 15 + [25])],
                         ids=["n1", "n2", "n300", "n1000"])
@pytest.mark.parametrize("last", ["first", "last"])
def test_order_at_fixed_sizes_writes_its_permutation_matrix(n, rows, last):
    """The last row holds its 1.0 in column 0 or column n - 1, so the matrix ends with a run of
    zeros or with the 1.0; n = 300 comes in blocks of 218 and 82 rows, n = 1000 in 16 blocks."""
    order = np.random.default_rng(n).permutation(n)
    k, column = int(np.flatnonzero(order == n - 1)[0]), 0 if last == "first" else n - 1
    order[[k, column]] = order[[column, k]]
    assert assert_order_writes_its_matrix(order) == rows


@pytest.mark.parametrize("fmt", ["structured", "table"])
def test_rank_opt_writes_the_dense_bytes_without_building_the_matrix(fmt, tmp_path, capsys, monkeypatch):
    """`rank --fn opt` at n = 1000 writes, to stdout and to --out, the bytes of the 0/1 matrix of a
    stable argsort of -tau written as a dense ranking, with `_permutation_matrix` refusing to run."""
    p = tmp_path / "p1000.csv"
    np.savetxt(p, np.random.default_rng(0).dirichlet(np.ones(5), size=1000), delimiter=",")
    P = load_prediction_matrix(p)
    order = np.argsort(-UtilitySpec.dcg(P.n, L=P.L).tau(P), kind="stable")
    dense = np.zeros((P.n, P.n))
    dense[order, np.arange(P.n)] = 1.0
    argv = ["rank", "--fn", "opt", "--in", str(p), "--format", fmt]
    spec = cli._MODES["rank"]
    monkeypatch.setitem(cli._MODES, "rank", (*spec[:-1], lambda args: RankingDistribution(dense)))
    expected = _report(argv, capsys)
    monkeypatch.setitem(cli._MODES, "rank", spec)

    def refuse(order):
        raise AssertionError("rank --fn opt built its permutation matrix")

    monkeypatch.setattr(types, "_permutation_matrix", refuse)
    assert_same_lines(_report(argv, capsys).decode(), expected.decode())
    dest = tmp_path / "report"
    assert main([*argv, "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert_same_lines(dest.read_bytes().decode(), expected.decode())


@pytest.mark.parametrize("n", [37, 300])
def test_rank_mix_phi_0_writes_the_bytes_of_rank_opt(n, tmp_path, capsys):
    """`rank --fn mix --phi 0` holds opt's 0/1 matrix as a dense array, which takes the lookup,
    and `rank --fn opt` writes it from its order on the order path: the tables are the same bytes,
    and the structured reports hold the same "ranking" beside their own config blocks."""
    p = tmp_path / "p.csv"
    np.savetxt(p, np.random.default_rng(n).dirichlet(np.ones(3), size=n), delimiter=",")
    mix, opt = (["rank", "--fn", *fn, "--in", str(p)] for fn in (["mix", "--phi", "0"], ["opt"]))
    assert_same_lines(_report(mix, capsys).decode(), _report(opt, capsys).decode())
    mixed, ordered = (json.loads(_report([*argv, "--format", "structured"], capsys)) for argv in (mix, opt))
    assert mixed["ranking"] == ordered["ranking"] and len(ordered["ranking"]) == n
    assert mixed["config"] != ordered["config"]


def _emitted(R, fmt: str, out) -> bytes:
    """The bytes `cli._emit` writes for the ranking R, to the file `out` or, if None, to stdout."""
    args = argparse.Namespace(command="rank", format=fmt, out=None if out is None else str(out))
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    with contextlib.redirect_stdout(stdout):
        cli._emit(args, R, set())
    stdout.flush()
    return stdout.buffer.getvalue() if out is None else out.read_bytes()


@pytest.mark.parametrize("rows", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(R=st.one_of(long_runs(), rankings()))
def test_row_blocks_of_one_to_three_rows_join_to_the_whole_text(rows, R, tmp_path_factory):
    """With blocks of one, two or three rows, orders (the order path), long runs and few distinct
    values (the lookup) and arbitrary mixtures (the rows path) give the plain texts, joined whole
    and as `_emit` writes them to --out and to stdout block by block."""
    out = tmp_path_factory.mktemp("blocks") / "report"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rankers, "_CHUNK_CELLS", rows * R.n)
        payload = {"config": {"command": "rank"}, "ranking": R}
        assert_writers_equal_plain(R, payload)
        structured = structured_text(payload).encode()
        assert _emitted(R, "structured", out) == _emitted(R, "structured", None) == structured
        assert _emitted(R, "table", out) == _emitted(R, "table", None) == table_text(R).encode()


@pytest.mark.parametrize("M", [
    np.where(np.arange(300)[:, None] == np.arange(300), 1.0, 0.0),  # two values
    np.resize(np.arange(1, 301) / 300, (300, 300)),  # 300 values, each row all of them
    np.random.default_rng(4).random((300, 300)),  # nearly all distinct
], ids=["identity", "lookup", "rows"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_last_cell_writes_nothing(M, bad, tmp_path, capsys, monkeypatch):
    """A non-finite cell in the last row of a result array, which json writes itself (a ranking's
    cells are finite), is refused before the first byte: an existing --out file keeps its bytes,
    and stdout receives nothing."""
    M = M.copy()
    M[-1, -1] = bad
    monkeypatch.setitem(cli._MODES, "rank", ((), (), rankers.RANKING_FUNCTION_IDS, lambda args: ("ranking", M, None)))
    dest = tmp_path / "report"
    dest.write_bytes(b"old report\n" * 1000)
    argv = ["rank", "--in", "unread.csv", "--format", "structured"]
    for to in ([], ["--out", str(dest)]):
        assert main([*argv, *to]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: validation: cannot write structured output: Out of range float")
    assert dest.read_bytes() == b"old report\n" * 1000


def test_text_stdout_cannot_encode_writes_nothing(monkeypatch):
    """A report whose head or tail text stdout's encoding cannot hold is refused before its first
    block is made or anything is written."""
    made = []

    def blocks():
        made.append(True)
        yield "0.5,0.5\n"

    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    for parts in (["head\n", blocks(), "grüppe\n"], ["grüppe\n", blocks(), "tail\n"]):
        with pytest.raises(ValidationError, match="^stdout's encoding ascii cannot write 'ü'; --out writes UTF-8$"):
            write_report(None, parts)
    stdout.flush()
    assert made == [] and stdout.buffer.getvalue() == b""


def test_pl_report_at_n1000_holds_one_block_beside_the_matrix(tmp_path, capsys):
    """A 2000-sample pl ranking at n = 1000 written through --out: beside its 8 MB matrix the call
    holds about one block, where the whole 12 MB text, its cell list and lookup arrays took 24 MB."""
    rows = np.random.default_rng(0).dirichlet(np.ones(5), size=1000)
    p, dest = tmp_path / "p1000.csv", tmp_path / "report.json"
    np.savetxt(p, rows, delimiter=",")
    argv = ["rank", "--fn", "pl", "--samples", "2000", "--seed", "1", "--in", str(p), "--format", "structured",
            "--out", str(dest)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = 1000 * 1000 * 8
    assert peak - matrix < 1.5 * matrix  # 24 MB when the report was built whole; about 2.8 MB here
    R = np.array(json.loads(dest.read_bytes())["ranking"])
    assert R.shape == (1000, 1000) and np.allclose(R.sum(axis=0), 1) and np.allclose(R.sum(axis=1), 1)


@pytest.mark.parametrize("fmt", ["table", "structured"])
@pytest.mark.parametrize("cmd", ["rank", "oracle"])
def test_out_file_bytes_equal_stdout(cmd, fmt, tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("0.2,0.3,0.5\n0.6,0.2,0.2\n0.1,0.8,0.1\n0.3,0.3,0.4\n")
    argv = [cmd, "--in", str(p), "--format", fmt]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    dest = tmp_path / "report"
    assert main([*argv, "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_bytes() == stdout.encode()


UNREADABLE = [  # (argv, the path the error names, OS reason); DIR is a directory, U16 a UTF-16 file
    (["rank", "--in", "DIR"], "DIR", "Is a directory"),
    (["audit", "multiaccuracy", "--model", "DIR"], "DIR", "Is a directory"),
    (["rank", "--fn", "opt", "--weights", "DIR", "--in", "CSV"], "DIR", "Is a directory"),
    (["rank", "--in", "U16"], "U16", "not UTF-8 text"),
    (["audit", "multiaccuracy", "--model", "U16"], "U16", "not UTF-8 text"),
    (["rank", "--in", "NONE"], "NONE", "No such file or directory"),
    (["audit", "multiaccuracy", "--model", "NONE"], "NONE", "No such file or directory"),
    (["rank", "--fn", "opt", "--weights", "NONE", "--in", "CSV"], "NONE", "No such file or directory"),
]


@pytest.mark.parametrize("argv,path,reason", UNREADABLE,
                         ids=["csv-dir", "model-dir", "weights-dir", "csv-utf16", "model-utf16",
                              "csv-missing", "model-missing", "weights-missing"])
def test_unreadable_input_exit_1(argv, path, reason, stab_lb_csv, tmp_path, capsys):
    files = {"DIR": str(tmp_path), "CSV": stab_lb_csv, "U16": str(tmp_path / "utf16.txt"),
             "NONE": str(tmp_path / "missing.txt")}
    (tmp_path / "utf16.txt").write_text("0.5,0.5\n", encoding="utf-16")  # starts with bytes ff fe
    assert main([files.get(a, a) for a in argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: validation: cannot read {files[path]}: {reason}")


def test_unwritable_out_exit_1(stab_lb_csv, tmp_path, capsys):
    out = tmp_path / "nodir" / "x.txt"
    assert main(["rank", "--in", stab_lb_csv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: validation: cannot write {out}: No such file or directory\n"


# --out over an existing file: written in place, then cut at the report's end.

def _report(argv, capsys) -> bytes:
    """The stdout bytes of a call that must succeed."""
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.fixture
def ranked(tmp_path):
    """A rank call's argv, without --out and --format, on a 4 x 3 matrix."""
    p = tmp_path / "m.csv"
    p.write_text("0.2,0.3,0.5\n0.6,0.2,0.2\n0.1,0.8,0.1\n0.3,0.3,0.4\n")
    return ["rank", "--in", str(p)]


@pytest.mark.parametrize("fmt", ["table", "structured"])
@pytest.mark.parametrize("old", ["longer", "shorter"])
def test_out_over_an_existing_file_holds_exactly_the_report(old, fmt, ranked, tmp_path, capsys):
    argv = [*ranked, "--format", fmt]
    report = _report(argv, capsys)
    dest = tmp_path / "report"
    dest.write_bytes(b"#" * (3 * len(report)) if old == "longer" else b"#\n")
    assert main([*argv, "--out", str(dest)]) == 0
    assert capsys.readouterr() == ("", "")
    assert dest.read_bytes() == report


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_out_keeps_an_existing_files_inode_mode_and_links(fmt, ranked, tmp_path, capsys):
    argv = [*ranked, "--format", fmt]
    report = _report(argv, capsys)
    dest, link = tmp_path / "report", tmp_path / "link"
    dest.write_bytes(b"#" * 5000)
    dest.chmod(0o604)
    os.link(dest, link)
    before = dest.stat()
    assert main([*argv, "--out", str(dest)]) == 0
    after = dest.stat()
    assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)
    assert link.read_bytes() == report


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_new_out_file_gets_0o666_less_the_umask(fmt, ranked, tmp_path, capsys):
    dest = tmp_path / "report"
    umask = os.umask(0o027)
    try:
        assert main([*ranked, "--format", fmt, "--out", str(dest)]) == 0
    finally:
        os.umask(umask)
    assert dest.stat().st_mode & 0o777 == 0o666 & ~0o027


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_out_to_dev_null_and_a_fifo(fmt, ranked, tmp_path, capsys):
    argv = [*ranked, "--format", fmt]
    report = _report(argv, capsys)
    assert main([*argv, "--out", os.devnull]) == 0
    fifo, read = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main([*argv, "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and read == [report]
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_out_naming_a_directory_exit_1(fmt, ranked, tmp_path, capsys):
    assert main([*ranked, "--format", fmt, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: validation: cannot write {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_out_over_its_own_input(fmt, ranked, capsys):
    argv = [*ranked, "--format", fmt]
    report = _report(argv, capsys)
    assert main([*argv, "--out", ranked[-1]]) == 0
    assert Path(ranked[-1]).read_bytes() == report


@pytest.mark.parametrize("old", [None, "longer", "shorter"])
def test_report_of_several_slices_is_its_utf8_encoding(old, tmp_path):
    """A report of three and a half slices, with characters of one to four bytes on
    either side of each slice boundary, is written as `text.encode("utf-8")`, over
    no file, a longer one or a shorter one."""
    chars = np.array(list("aé€😀\n"))
    picks = chars[np.random.default_rng(8).integers(0, chars.size, size=7 * _WRITE_SLICE // 2)]
    for k in (1, 2, 3):
        picks[k * _WRITE_SLICE - 1 : k * _WRITE_SLICE + 1] = chars[k], chars[k % 3 + 1]
    text = "".join(picks.tolist())
    dest = tmp_path / "report"
    if old:
        dest.write_bytes(b"#" * (len(text.encode()) + 1 if old == "longer" else 1))
    cuts = [0, 1000, _WRITE_SLICE + 1, 3 * _WRITE_SLICE - 7, len(text)]  # chunks end inside and at slices
    _write_text(str(dest), [text[a:b] for a, b in zip(cuts, cuts[1:])])
    assert dest.read_bytes() == text.encode("utf-8")


WRITE_LIMIT = 4096  # bytes: RLIMIT_FSIZE of the child below, well under its report


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_write_failing_part_way_leaves_no_old_bytes(fmt, tmp_path, capsys):
    """A child whose file size limit falls inside its report, with SIGXFSZ ignored so
    that the write fails with EFBIG, writing over a longer file: exit 1 naming the path,
    and the file holds a prefix of the report no longer than the limit, nothing after it."""
    p = tmp_path / "m.csv"
    p.write_text("".join(f"{i % 7 / 10},{1 - i % 7 / 10}\n" for i in range(40)))
    argv = ["rank", "--fn", "ua", "--in", str(p), "--format", fmt]
    report = _report(argv, capsys)
    assert len(report) > 2 * WRITE_LIMIT
    dest = tmp_path / "report"
    dest.write_bytes(b"#" * (2 * len(report)))
    child = ("import resource, signal, sys\n"
             "from uarank.cli import main\n"
             "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
             f"resource.setrlimit(resource.RLIMIT_FSIZE, ({WRITE_LIMIT}, {WRITE_LIMIT}))\n"
             "sys.exit(main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", child, *argv, "--out", str(dest)], env=env,
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == f"error: validation: cannot write {dest}: File too large\n".encode()
    written = dest.read_bytes()
    assert len(written) <= WRITE_LIMIT and written == report[:len(written)]


@pytest.fixture
def fresh_parser_cache():
    """An empty parser cache before the test and after it, so that neither sees the other's parser."""
    cached = cli._parser
    cached.cache_clear()
    yield
    cached.cache_clear()


def _replay(argvs, out: Path, capsys):
    """Each call's exit code, stdout, stderr and --out bytes, in order, in this process."""
    results = []
    for argv in argvs:
        out.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        results.append((argv, code, captured.out, captured.err, out.read_bytes() if out.exists() else None))
    return results


def test_reused_parser_matches_a_fresh_one_per_call(stab_lb_csv, two_type_json, tmp_path, capsys, monkeypatch,
                                                    fresh_parser_cache):
    """A mixed call list, forwards then reversed, gives the same results from the one
    cached parser as from a parser built afresh for every call."""
    out = tmp_path / "report"
    csv, model = stab_lb_csv, two_type_json
    theorem = ["audit", "theorem", "--model", model, "--n", "3", "--k", "1", "--group", "1"]
    valid = [
        ["rank", "--fn", "ua", "--in", csv], ["rank", "--fn", "mix", "--phi", "0.5", "--in", csv],
        ["rank", "--fn", "pl", "--samples", "20", "--seed", "1", "--in", csv, "--out", str(out)],
        ["oracle", "--in", csv, "--format", "structured", "--out", str(out)],
        ["stability", "--fn", "opt", "--in", csv, "--in2", csv, "--format", "structured"],
        ["utility", "--fn", "opt", "--values", "0,1,3", "--in", csv],
        ["audit", "multiaccuracy", "--model", model],
        ["audit", "multicalibration", "--model", model, "--delta", "0.5", "--format", "structured"],
        ["audit", "nature", "--model", model, "--n", "3", "--samples", "5"],
        [*theorem, "--fn", "opt", "--exact", "--format", "structured", "--out", str(out)],
        [*theorem, "--fn", "ua", "--samples", "20", "--seed", "2"],
    ]
    usage = [[], ["rank"], ["bogus"], ["rank", "--in", csv, "--fn", "nope"], ["rank", "--in", csv, "--bogus"],
             ["audit", "theorem"], ["--help"], ["audit", "--help"], ["rank", "-h"]]
    probes = [[{"CSV": csv, "MODEL": model}.get(a, a) for a in argv] for argv, _ in PROBES]
    calls = valid + usage + probes + [[*theorem, "--fn", "mix", "--exact"], ["rank", "--in", str(tmp_path)]]
    calls += calls[::-1]
    reused = _replay(calls, out, capsys)
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)  # a new parser for every call
    assert _replay(calls, out, capsys) == reused
    assert {code for _, code, *_ in reused} == {0, 1}


def test_main_builds_one_parser_per_process(stab_lb_csv, monkeypatch, capsys, fresh_parser_cache):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    for argv in (["rank", "--in", stab_lb_csv], ["rank"], ["--help"], ["oracle", "--in", stab_lb_csv]) * 3:
        main(argv)
    assert len(built) == 1


def test_help_follows_columns_at_each_call(monkeypatch, capsys, fresh_parser_cache):
    """The cached parser, built at the first call's width, wraps --help to each later call's."""
    helps = []
    for columns in ("40", "120", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(["audit", "--help"]) == 0
        helps.append(capsys.readouterr().out)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli._parser.__wrapped__)
            assert main(["audit", "--help"]) == 0
        assert capsys.readouterr().out == helps[-1]
    assert helps[0] == helps[2] != helps[1]
