import csv
import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_bounds import oracle_sweep_table
from test_jets import (
    SLOPE_ZERO,
    SLOPE_ZERO_ONE_VARIABLE,
    ZERO_ROW_SLOPE_ZERO,
    ZERO_ROW_THREE,
    models_up_to_three_variables,
)

from frobjets import acceptance, bounds, cli, principal_parts
from frobjets.cli import (
    COMMANDS,
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_CONTRADICTION,
    EXIT_OK,
    OUTPUT_FORMATS,
    RunConfig,
    build_parser,
    main,
    run,
)
from frobjets.fano import CharPnVerdict
from frobjets.jets import frobenius_threshold, separates_frobenius_jets
from frobjets.models import projective_space
from frobjets.monomials import verify_lemma_monomials
from frobjets.principal_parts import mori_endgame


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def render_sweep_csv(table):
    """Reference: the --sweep-csv text of (e, m, separates, value) cells."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["m", "e", "separates", "value"])
    for e, m, separating, value in table:
        text = f"{value.numerator}/{value.denominator}" if separating else ""
        writer.writerow([m, e, separating, text])
    return buffer.getvalue()


class TestJetsCommand:
    def test_reference_separation(self, capsys):
        code, out, _ = run_cli(
            capsys, ["jets", "--model", "pn:2", "--m", "4", "--l", "1", "--e", "1", "--p", "2"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["separates"] is True
        assert doc["pn_threshold"] == 4

    def test_missing_witness_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, ["jets", "--model", "pn:2", "--m", "3", "--l", "1", "--e", "1", "--p", "2"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["separates"] is False
        assert doc["witness_missing_exponent"] == [3, 1]

    def test_oracle_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "jets", "--model", "product:1,1,1,2", "--m", "3", "--l", "2",
                "--e", "1", "--p", "2", "--oracle",
            ],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["methods_agree"] is True
        assert doc["oracle"] == doc["separates"]
        assert "rank_check" not in doc


    def test_oracle_disagreement_exits_1(self, capsys, monkeypatch):
        # an oracle that answers the opposite of the fast checker
        def flipped(model, m, ell, e, p):
            return not separates_frobenius_jets(model, m, ell, e, p)

        monkeypatch.setattr(cli, "separates_by_cobasis", flipped)
        argv = ["jets", "--model", "pn:2", "--m", "4", "--l", "1", "--e", "1", "--oracle"]
        assert run_cli(capsys, argv) == (
            EXIT_CHECK_FAILED,
            '{\n  "e": 1,\n  "l": 1,\n  "m": 4,\n  "methods_agree": false,\n'
            '  "oracle": false,\n  "p": 2,\n  "pn_threshold": 4,\n  "separates": true\n}\n',
            "",
        )

    def test_seventeen_digit_prime_answers(self, capsys):
        argv = ["jets", "--model", "pn:1", "--m", "2", "--l", "1", "--p", "99999999999999997"]
        assert run_cli(capsys, argv) == (
            EXIT_OK,
            '{\n  "e": 0,\n  "l": 1,\n  "m": 2,\n  "p": 99999999999999997,\n'
            '  "pn_threshold": 1,\n  "separates": true\n}\n',
            "",
        )

    def test_characteristic_beyond_the_exact_test_refused(self, capsys):
        limit = 3317044064679887385961981
        argv = ["jets", "--model", "pn:1", "--m", "2", "--l", "1", "--p", str(limit)]
        assert run_cli(capsys, argv) == (
            EXIT_BAD_INPUT,
            "",
            f"invalid input: characteristic must be below {limit} to be tested, got {limit}\n",
        )


class TestSeshadriCommand:
    def test_frobenius_with_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["seshadri", "--model", "pn:2", "--p", "2", "--l", "0", "--m-max", "6", "--e-max", "2"],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == "1/2"
        assert doc["witness"] == [2, 1]
        assert doc["closed_form"] == "1/2"

    def test_ordinary(self, capsys):
        code, out, _ = run_cli(
            capsys, ["seshadri", "--model", "product:1,1,2,3", "--m-max", "10", "--kind", "ordinary"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == "2/1"

    def test_ordinary_on_pn_has_closed_form(self, capsys):
        argv = ["seshadri", "--model", "pn:2", "--m-max", "5", "--kind", "ordinary"]
        assert run_cli(capsys, argv) == (
            EXIT_OK,
            '{\n  "closed_form": "1/1",\n  "derivation": [\n    "direct"\n  ],\n'
            '  "kind": "seshadri",\n  "value": "1/1",\n  "witness": [\n    1,\n    1\n  ]\n}\n',
            "",
        )

    def test_sweep_csv(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            [
                "seshadri", "--model", "pn:1", "--p", "2", "--m-max", "4",
                "--e-max", "2", "--sweep-csv", str(target),
            ],
        )
        assert code == EXIT_OK
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "m,e,separates,value"
        assert len(lines) == 1 + 4 * 3

    def test_sweep_csv_over_the_work_limit_refused(self, capsys, tmp_path):
        # 2,000,000 * 4 rows once wrote 46 MB before a timeout killed the run
        target = tmp_path / "huge.csv"
        argv = [
            "seshadri", "--model", "pn:1", "--p", "2", "--e-max", "3", "--sweep-csv", str(target),
        ]
        assert run_cli(capsys, argv + ["--m-max", "2000000"]) == (
            EXIT_BAD_INPUT,
            "",
            "invalid input: the sweep table would hold 2000000*4 rows, "
            "over the work limit of 1000000\n",
        )
        assert not target.exists()
        # four rows over the limit are refused too
        code, _, err = run_cli(capsys, argv + ["--m-max", "250001"])
        assert code == EXIT_BAD_INPUT
        assert err.startswith("invalid input: the sweep table would hold 250001*4 rows, ")
        assert not target.exists()

    def test_sweep_csv_evaluates_each_cell_once(self, capsys, tmp_path, monkeypatch):
        # one threshold per e decides every cell of its row; no cell asks separation
        calls = {"threshold": 0, "separates": 0}

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counted

        monkeypatch.setattr(
            bounds, "frobenius_threshold", counting("threshold", frobenius_threshold)
        )
        monkeypatch.setattr(
            bounds, "separates_frobenius_jets", counting("separates", separates_frobenius_jets)
        )
        m_max, e_max = 7, 3
        code, _, _ = run_cli(
            capsys,
            [
                "seshadri", "--model", "product:1,1,1,2", "--p", "3", "--l", "1",
                "--m-max", str(m_max), "--e-max", str(e_max),
                "--sweep-csv", str(tmp_path / "sweep.csv"),
            ],
        )
        assert code == EXIT_OK
        assert calls == {"threshold": e_max + 1, "separates": 0}
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + m_max * (e_max + 1)

    @given(
        model=models_up_to_three_variables(),
        p=st.sampled_from([2, 3]),
        ell=st.integers(0, 2),
        m_max=st.integers(1, 8),
        e_max=st.integers(1, 2),
    )
    @example(model=SLOPE_ZERO, p=2, ell=0, m_max=4, e_max=2)
    @example(model=ZERO_ROW_SLOPE_ZERO, p=3, ell=1, m_max=8, e_max=1)
    @example(model=SLOPE_ZERO_ONE_VARIABLE, p=2, ell=0, m_max=3, e_max=2)
    @example(model=ZERO_ROW_THREE, p=2, ell=1, m_max=8, e_max=2)
    @settings(max_examples=60, deadline=None)
    def test_sweep_csv_matches_per_cell_oracle(self, model, p, ell, m_max, e_max):
        argv = [
            "seshadri", "--model", json.dumps(model.to_config()), "--p", str(p),
            "--l", str(ell), "--m-max", str(m_max), "--e-max", str(e_max),
        ]
        with tempfile.TemporaryDirectory() as scratch:
            target = os.path.join(scratch, "sweep.csv")
            with redirect_stdout(io.StringIO()):
                code = main(argv + ["--sweep-csv", target])
            with open(target, newline="") as handle:
                written = handle.read()
        assert code == EXIT_OK
        assert written == render_sweep_csv(oracle_sweep_table(model, p, ell, m_max, e_max))

    def test_missing_p_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["seshadri", "--model", "pn:2", "--m-max", "5"])
        assert code == EXIT_BAD_INPUT
        assert "invalid input" in err


class TestOtherCommands:
    def test_pp(self, capsys):
        code, out, _ = run_cli(capsys, ["pp", "--n", "2", "--l", "2"])
        assert code == EXIT_OK
        assert json.loads(out) == {"det": {"l": 6, "omega": 4}, "rank": 6}

    def test_pp_reads_the_closed_form_once(self, capsys, monkeypatch):
        # the recursion made 5000 big-integer comb calls twice: killed at 30 s
        def unused(*args):
            raise AssertionError("the handler ran the recursion")

        monkeypatch.setattr(principal_parts, "det_pp_recursive", unused)
        code, out, _ = run_cli(capsys, ["pp", "--n", "5000", "--l", "5000"])
        assert code == EXIT_OK
        # C(n + l, n), and l / (n + 1) of it
        total = comb(10000, 5000)
        expected = {"det": {"l": total, "omega": total * 5000 // 5001}, "rank": total}
        assert json.loads(out) == expected

    def test_inclusion_check(self, capsys):
        code, out, _ = run_cli(
            capsys, ["inclusion-check", "--n", "2", "--l", "1", "--e", "1", "--p", "2"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["all_ok"] is True
        assert doc["witness"] == [3, 1]

    def test_mori_endgame(self, capsys):
        code, out, _ = run_cli(capsys, ["mori-endgame", "--a", "2,1,1"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["b"] == 4 and doc["gg"] is True

    def test_mori_endgame_leading_negative_degree(self, capsys):
        # argparse on its own reads "-3,0,5,1" as an unknown option
        attached = run_cli(capsys, ["mori-endgame", "--a=-3,0,5,1"])
        assert run_cli(capsys, ["mori-endgame", "--a", "-3,0,5,1"]) == attached
        code, out, err = attached
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["b"] == 3

    @pytest.mark.parametrize("degrees", ["2,,1", "2,1,"])
    def test_mori_endgame_empty_entry_named(self, capsys, degrees):
        code, out, err = run_cli(capsys, ["mori-endgame", "--a", degrees])
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == "invalid input: summand degree must be an integer, got ''\n"

    def test_handlers_return_the_library_reports(self):
        # render() serializes them; no handler copies a report into a dict
        report, code = COMMANDS["inclusion-check"].handler({"n": 2, "l": 1, "e": 1, "p": 2})
        assert (report, code) == (verify_lemma_monomials(2, 1, 1, 2), EXIT_OK)
        report, _ = COMMANDS["mori-endgame"].handler({"a": "2,1,1"})
        assert report == mori_endgame((2, 1, 1))
        report, _ = COMMANDS["fano"].handler({"json": '{"n": 3, "char": 2}', "input": None})
        assert isinstance(report, CharPnVerdict) and report.verdict == "no_conclusion"

    def test_cartier(self, capsys):
        code, out, _ = run_cli(
            capsys, ["cartier", "--n", "1", "--p", "2", "--e", "1", "--box", "8"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["surjective"] is True and doc["ideal_identity"] is True

    def test_fano_inline(self, capsys):
        doc = {"n": 3, "char": 2, "eps_lower_at_point": "4/1"}
        code, out, _ = run_cli(capsys, ["fano", "--json", json.dumps(doc)])
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "isomorphic_to_Pn"

    def test_fano_input_file(self, capsys, tmp_path):
        doc = {"n": 3, "char": 2, "eps_lower_at_point": "4/1", "curves_through_x": [[4, 1]]}
        path = tmp_path / "fano.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, ["fano", "--input", str(path)]) == (
            EXIT_OK,
            '{\n  "checks": {\n    "curve_upper_bound": "4/1",\n    "point_bound_met": true\n'
            '  },\n  "fired": [\n    "point_bound_char_p"\n  ],\n'
            '  "rule": "point_bound_char_p",\n  "verdict": "isomorphic_to_Pn",\n'
            '  "warnings": []\n}\n',
            "",
        )

    def test_fano_everywhere_bound_fires_both_rules(self, capsys):
        doc = {"n": 2, "char": 3, "eps_lower_everywhere": "3", "antican_selfint": 9}
        assert run_cli(capsys, ["fano", "--json", json.dumps(doc)]) == (
            EXIT_OK,
            '{\n  "checks": {\n    "degree_condition_derivable": true,\n'
            '    "point_bound_met": true\n  },\n'
            '  "fired": [\n    "point_bound_char_p",\n    "all_points_degree_bound"\n  ],\n'
            '  "rule": "point_bound_char_p",\n  "verdict": "isomorphic_to_Pn",\n'
            '  "warnings": []\n}\n',
            "",
        )

    def test_fano_quadric_no_conclusion(self, capsys):
        doc = {"n": 3, "char": 5, "curves_through_x": [[3, 1]]}
        code, out, _ = run_cli(capsys, ["fano", "--json", json.dumps(doc)])
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "no_conclusion"

    def test_fano_contradiction_exit_code(self, capsys):
        doc = {
            "n": 3,
            "char": 5,
            "eps_lower_at_point": "4/1",
            "curves_through_x": [[3, 1]],
        }
        code, out, err = run_cli(capsys, ["fano", "--json", json.dumps(doc)])
        assert code == EXIT_CONTRADICTION
        assert "contradiction" in err


class TestConfigAndFormats:
    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "command": "pp",
                    "parameters": {"n": 2, "l": 2},
                    "output_format": "json",
                }
            )
        )
        code, out, _ = run_cli(capsys, ["--config", str(config)])
        assert code == EXIT_OK
        assert json.loads(out)["rank"] == 6

    def test_unknown_parameter_rejected(self):
        code, out, err = run(RunConfig("pp", {"n": 2, "l": 2, "bogus": 1}))
        assert code == EXIT_BAD_INPUT
        assert "unknown parameters" in err

    def test_json_round_trip_is_byte_identical(self, capsys):
        code, out, _ = run_cli(
            capsys, ["seshadri", "--model", "pn:3", "--p", "3", "--l", "1", "--m-max", "20"]
        )
        assert code == EXIT_OK
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, ["pp", "--n", "2", "--l", "1", "--format", "table"])
        assert code == EXIT_OK
        rows = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert rows["rank"].strip() == "3"

    def test_l_zero_not_dropped(self, capsys):
        code, out, _ = run_cli(
            capsys, ["jets", "--model", "pn:2", "--m", "1", "--l", "0", "--e", "1", "--p", "3"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["l"] == 0 and doc["e"] == 1
        assert doc["separates"] == (1 >= doc["pn_threshold"])

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, ["pp", "--n", "2", "--l", "2", "--format", "csv"])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "key,value"

    def test_parser_built_once_and_reused_cleanly(self, capsys):
        assert build_parser() is build_parser()
        base = ["jets", "--model", "pn:1", "--m", "2", "--l", "1"]
        code, out, _ = run_cli(capsys, base + ["--oracle", "--format", "csv"])
        assert code == EXIT_OK and "oracle," in out
        # flags of the earlier call must not leak into this one
        code, out, _ = run_cli(capsys, base)
        assert code == EXIT_OK
        assert "oracle" not in json.loads(out)

    def test_shorthand_signs_and_spaces(self, capsys):
        code, out, _ = run_cli(capsys, ["mori-endgame", "--a= -3, 5,+2"])
        assert code == EXIT_OK
        assert json.loads(out)["b"] == 4

    def test_no_command_prints_usage(self, capsys):
        code, out, err = run_cli(capsys, [])
        assert code == EXIT_BAD_INPUT
        assert "usage" in err


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fano", "--json", '{"n":3,"char":2,"eps_lower_at_point":"1/0"}'],
            ["fano", "--json", '{"n":"x"}'],
            [
                "jets", "--model", '{"kind":"custom","n":2,"constraints":[[1,2]]}',
                "--m", "3", "--l", "1",
            ],
            ["jets", "--model", '{"kind":"pn","n":null}', "--m", "3", "--l", "1"],
            [
                "jets", "--model", '{"kind":"custom","n":2,"constraints":5}',
                "--m", "3", "--l", "1",
            ],
            [
                "jets", "--model", '{"kind":"product","n1":[1],"n2":1,"c":1,"d":1}',
                "--m", "3", "--l", "1",
            ],
            ["jets", "--model", '{"kind":"pn","n":1e400}', "--m", "3", "--l", "1"],
            [
                "jets", "--model", '{"kind":"custom","n":2,"constraints":[[[1,1e400],1]]}',
                "--m", "3", "--l", "1",
            ],
            ["cartier", "--n", "1", "--p", "2", "--e", "1", "--box", "3", "--ideal", "5"],
            ["cartier", "--n", "1", "--p", "2", "--e", "1", "--box", "3", "--ideal", "[5]"],
            ["cartier", "--n", "1", "--p", "2", "--e", "1", "--box", "3", "--ideal", "[[null]]"],
            # wrong JSON types that used to be coerced
            ["jets", "--model", '{"kind":"pn","n":2.9}', "--m", "3", "--l", "1"],
            [
                "seshadri", "--model", '{"kind":"custom","n":1,"constraints":[[[1],2.5]]}',
                "--m-max", "4", "--kind", "ordinary",
            ],
            [
                "fano", "--json",
                '{"n":3,"char":5,"eps_lower_at_point":"13/4","curves_through_x":[[3.5,1]]}',
            ],
            # 0.1 parsed as a binary fraction exceeds the curve bound 1/10
            [
                "fano", "--json",
                '{"n":2,"char":3,"eps_lower_at_point":0.1,"curves_through_x":[[1,10]]}',
            ],
            ["fano", "--json", '{"n":3,"char":2,"eps_lower_at_point":4.0}'],
            # shorthands take ASCII digits only
            ["jets", "--model", "pn:1_0", "--m", "3", "--l", "1"],
            ["jets", "--model", "product:1,1,1,\u0662", "--m", "3", "--l", "1"],
            ["mori-endgame", "--a", "1_0,\u0662"],
            # every comma-separated entry must parse, an empty one included
            ["mori-endgame", "--a", "2,,1"],
            ["mori-endgame", "--a", "2,1,"],
            # "4/" has no denominator; it is not 4
            ["fano", "--json", '{"n": 3, "char": 2, "eps_lower_at_point": "4/"}'],
            # the ordinary kind has no characteristic, which would go unchecked
            ["seshadri", "--model", "pn:2", "--m-max", "5", "--kind", "ordinary", "--p", "4"],
            # nor a jet level or a Frobenius range, which would be dropped
            ["seshadri", "--model", "pn:2", "--m-max", "5", "--kind", "ordinary", "--l", "3"],
            ["seshadri", "--model", "pn:2", "--m-max", "5", "--kind", "ordinary", "--e-max", "9"],
        ],
        ids=[
            "zero-denominator",
            "non-integer-n",
            "malformed-constraint",
            "null-model-n",
            "non-list-constraints",
            "list-model-field",
            "infinite-model-n",
            "infinite-constraint-weight",
            "scalar-ideal",
            "scalar-generator",
            "null-exponent",
            "float-model-n",
            "float-constraint-slope",
            "float-curve-degree",
            "float-eps-contradiction",
            "float-eps",
            "underscore-pn-dimension",
            "non-ascii-product-parameter",
            "non-ascii-mori-degrees",
            "empty-mori-degree",
            "trailing-comma-mori-degrees",
            "empty-denominator-eps",
            "ordinary-with-p",
            "ordinary-with-l",
            "ordinary-with-e-max",
        ],
    )
    def test_rejected_with_one_line_diagnostic(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("invalid input: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, prefix",
        [
            ('[]', "invalid config: "),
            ('{"command": ["pp"]}', "invalid config: "),
            ('{"command": "pp", "parameters": 5}', "invalid config: "),
            ('{"command": "pp", "parameters": {"n": [1], "l": 2}}', "invalid input: "),
            ('{"command": "jets", "parameters": {"model": "pn:2", "m": null, "l": 1}}',
             "invalid input: "),
            ('{"command": "seshadri", "parameters": {"model": "pn:2", "p": 2, "m_max": 1e400}}',
             "invalid input: "),
            ('{"command": "fano", "parameters": {"json": 5}}', "invalid input: "),
            # open(0) would read stdin: the type check must come first
            ('{"command": "fano", "parameters": {"input": 0}}',
             "invalid input: parameter 'input' must be a string"),
            ('{"command": "seshadri", '
             '"parameters": {"model": "pn:1", "p": 2, "m_max": 2, "sweep_csv": 1}}',
             "invalid input: "),
            ('{"command": "verify-all", "output_format": "xml"}', "unknown output format"),
            # wrong JSON types that used to be coerced
            ('{"command": "jets", "parameters": {"model": "pn:1", "m": 2, "l": 1, "oracle": "no"}}',
             "invalid input: parameter 'oracle' must be a boolean"),
            ('{"command": "jets", "parameters": {"model": "pn:1", "m": 2.7, "l": 1}}',
             "invalid input: parameter 'm' must be an integer"),
            ('{"command": "jets", "parameters": {"model": "pn:1", "m": 2, "l": "1"}}',
             "invalid input: parameter 'l' must be an integer"),
            ('{"command": "jets", "parameters": {"model": "pn:1", "m": 2, "l": true}}',
             "invalid input: parameter 'l' must be an integer"),
            ('{"command": "jets", "parameters": {"model": 5, "m": 2, "l": 1}}',
             "invalid input: parameter 'model' must be a string"),
            ('{"command": "mori-endgame", "parameters": {"a": 2}}',
             "invalid input: parameter 'a' must be a string"),
            ('{"command": "seshadri", "parameters": {"model": "pn:1", "m_max": 2, "kind": "x"}}',
             "invalid input: unknown kind 'x'; expected ordinary or frobenius"),
            # the streamed table must not skip the parameter check
            ('{"command": "verify-all", "parameters": {"n": 1}, "output_format": "table"}',
             "invalid input: unknown parameters: ['n']"),
        ],
        ids=[
            "list-document",
            "list-command",
            "scalar-parameters",
            "list-integer-parameter",
            "null-integer-parameter",
            "infinite-integer-parameter",
            "non-string-fano-json",
            "non-string-fano-input",
            "non-string-sweep-csv",
            "verify-all-unknown-format",
            "string-oracle",
            "float-integer-parameter",
            "string-integer-parameter",
            "boolean-integer-parameter",
            "integer-model",
            "integer-mori-degrees",
            "unknown-choice",
            "verify-all-table-with-parameter",
        ],
    )
    def test_config_rejected_with_one_line_diagnostic(self, capsys, tmp_path, text, prefix):
        config = tmp_path / "run.json"
        config.write_text(text)
        code, out, err = run_cli(capsys, ["--config", str(config)])
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith(prefix)
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ["cartier", "--n", "2", "--p", "2", "--e", "1", "--box", "-1"],
                "invalid input: box must be >= 0\n",
            ),
            (
                ["cartier", "--n", "2", "--p", "2", "--e", "-1", "--box", "2"],
                "invalid input: e must be >= 0\n",
            ),
            (
                ["jets", "--model", '{"kind":"pn"}', "--m", "2", "--l", "1"],
                "invalid input: missing model key 'n'\n",
            ),
            (
                [
                    "jets", "--model", '{"kind":"product","n1":1,"c":1,"d":1}',
                    "--m", "2", "--l", "1",
                ],
                "invalid input: missing model key 'n2'\n",
            ),
            (
                ["seshadri", "--model", '{"kind":"custom","n":1}', "--m-max", "2"],
                "invalid input: missing model key 'constraints'\n",
            ),
            (["pp", "--n", "-1", "--l", "1"], "invalid input: need n >= 1 and ell >= 0\n"),
        ],
        ids=[
            "negative-box",
            "negative-e",
            "pn-without-n",
            "product-without-n2",
            "custom-without-constraints",
            "negative-n",
        ],
    )
    def test_exact_diagnostic(self, capsys, argv, err):
        assert run_cli(capsys, argv) == (EXIT_BAD_INPUT, "", err)

    @pytest.mark.parametrize(
        "text, err",
        [
            ("[1]", "invalid input: FanoInput must be a JSON object\n"),
            ("{}", "invalid input: missing FanoInput key 'n'\n"),
            (
                '{"n": 2, "eps_lower_at_point": "0"}',
                "invalid input: eps_lower_at_point must be positive\n",
            ),
            # a rational-curve degree below 1 is malformed, not a contradiction (exit 3)
            (
                '{"n": 2, "char": 3, "min_rc_degree": -2}',
                "invalid input: min_rc_degree must be >= 1\n",
            ),
            (
                '{"n": 2, "char": 3, "min_rc_degree": 0, "eps_lower_everywhere": "1"}',
                "invalid input: min_rc_degree must be >= 1\n",
            ),
        ],
        ids=["array", "no-n", "zero-bound", "negative-rc-degree", "zero-rc-degree"],
    )
    def test_malformed_fano_document(self, capsys, text, err):
        assert run_cli(capsys, ["fano", "--json", text]) == (EXIT_BAD_INPUT, "", err)

    def test_config_with_unknown_command(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"command": "nope"}))
        assert run_cli(capsys, ["--config", str(config)]) == (
            EXIT_BAD_INPUT, "", "unknown command 'nope'\n"
        )

    def test_config_without_command_names_the_key(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"parameters": {"n": 2, "l": 2}}))
        assert run_cli(capsys, ["--config", str(config)]) == (
            EXIT_BAD_INPUT, "", "invalid config: missing config key 'command'\n"
        )

    def test_ordinary_rejects_sweep_csv(self, capsys, tmp_path):
        # the ordinary kind has no sweep table; the file used to be silently not written
        out_csv = tmp_path / "out.csv"
        argv = ["seshadri", "--model", "pn:2", "--m-max", "5", "--kind", "ordinary"]
        code, out, err = run_cli(capsys, argv + ["--sweep-csv", str(out_csv)])
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "invalid input: parameters ['sweep_csv'] apply only to kind 'frobenius'\n"
        assert not out_csv.exists()
        params = {"model": "pn:2", "m_max": 5, "kind": "ordinary", "p": 2}
        assert run(RunConfig("seshadri", params))[0] == EXIT_BAD_INPUT

    def test_config_with_subcommand_rejected(self, capsys, tmp_path):
        config = tmp_path / "pp.json"
        config.write_text(json.dumps({"command": "pp", "parameters": {"n": 2, "l": 2}}))
        argv = ["--config", str(config), "jets", "--model", "pn:2", "--m", "4", "--l", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "invalid config: --config cannot be combined with the subcommand 'jets'\n"

    @pytest.mark.parametrize("oracle", [False, True])
    def test_config_oracle_is_a_boolean(self, oracle):
        params = {"model": "pn:1", "m": 2, "l": 1, "oracle": oracle}
        code, out, err = run(RunConfig("jets", params))
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert ("oracle" in doc, "methods_agree" in doc) == (oracle, oracle)
        if oracle:
            assert doc["oracle"] is doc["separates"] is doc["methods_agree"] is True

    def test_parallelism_flag_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seshadri", "--model", "pn:2", "--p", "2", "--m-max", "5", "--parallelism", "2"])
        assert exc.value.code == EXIT_BAD_INPUT
        assert "--parallelism" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["seshadri", "--model", "pn:2", "--m-max", "5", "--parallelism", "2"],
                "frobjets: error: unrecognized arguments: --parallelism 2",
            ),
            (
                ["pp", "--n", "1_0", "--l", "1"],
                "frobjets pp: error: argument --n: invalid int value: '1_0'",
            ),
            (
                ["jets", "--m", "3", "--l", "1"],
                "frobjets jets: error: the following arguments are required: --model",
            ),
            (
                ["seshadri", "--model", "pn:2", "--m-max", "5", "--kind", "bogus"],
                "frobjets seshadri: error: argument --kind: invalid choice: 'bogus' "
                "(choose from 'ordinary', 'frobenius')",
            ),
            (
                ["pp", "--l", "1", "--n"],
                "frobjets pp: error: argument --n: expected one argument",
            ),
        ],
        ids=["unknown-flag", "bad-integer", "missing-flag", "bad-choice", "no-value"],
    )
    def test_argparse_errors_are_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_BAD_INPUT
        assert capsys.readouterr() == ("", message + "\n")

    @pytest.mark.parametrize("model", ["pn:100000000", '{"kind": "pn", "n": 100000000}'])
    def test_oversized_model_refused_unbuilt(self, capsys, model):
        code, out, err = run_cli(capsys, ["jets", "--model", model, "--m", "3", "--l", "1"])
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == (
            "invalid input: the model would hold 1 x 100000000 constraint weights, "
            "over the work limit of 1000000\n"
        )

    @pytest.mark.parametrize("value", ["1_0", "٢"], ids=["underscore", "non-ascii"])
    def test_integer_flags_take_ascii_digits_only(self, capsys, value):
        # int() reads these as 10 and 2
        for name, command in COMMANDS.items():
            for key, param in command.params.items():
                if param.kind is not int:
                    continue
                flag = "--" + key.replace("_", "-")
                with pytest.raises(SystemExit) as exc:
                    main([name, flag, value])
                assert exc.value.code == EXIT_BAD_INPUT
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.endswith(f"argument {flag}: invalid int value: {value!r}\n")

    @pytest.mark.parametrize("value, n", [("2", 2), (" 2 ", 2), ("+2", 2)])
    def test_integer_flag_keeps_sign_and_spaces(self, capsys, value, n):
        code, out, _ = run_cli(capsys, ["pp", "--n", value, "--l", "1"])
        assert code == EXIT_OK
        assert json.loads(out)["rank"] == n + 1


# Small ints keep cartier and seshadri cheap. The sampled texts are models,
# ideals, degree lists and fano documents, so requests get past the parsers.
FUZZ_TEXTS = st.one_of(
    st.text(max_size=4),
    st.sampled_from(
        [
            "pn:1", "product:1,1,1,1", '{"kind": "pn", "n": 1}', "[]", "[[1]]",
            "[[1, 0], [0, 2]]", "1,1", "{}", '{"n": 2}', '{"n": 1, "char": 2}',
            '{"n": 2, "char": 3, "eps_lower_at_point": "3/1", "curves_through_x": [[2, 1]]}',
        ]
    ),
)
FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 2),
    st.sampled_from([2.5, 1e400]),
    st.builds(list),
    st.builds(dict),
    FUZZ_TEXTS,
)


def fuzz_typed(kind):
    if kind is int:
        return st.sampled_from([2, 1, 0, -1])
    if kind is bool:
        return st.booleans()
    return st.sampled_from(kind) if isinstance(kind, tuple) else FUZZ_TEXTS


@st.composite
def fuzz_requests(draw):
    """A request drawn from a command's own parameters plus one unknown key.

    Each key is usually present and its value usually well typed, so a fair
    share of requests reach a handler; a wild value is any of FUZZ_VALUES.
    """
    name = draw(st.sampled_from([name for name in COMMANDS if name != "verify-all"]))
    params = {}
    for key, param in [*COMMANDS[name].params.items(), ("bogus", None)]:
        # present 9 times in 10 (an unknown key 2 in 10), well typed 4 in 5
        if draw(st.sampled_from(range(10))) > (7 if param is None else 0):
            wild = param is None or draw(st.sampled_from(range(5))) == 0
            params[key] = draw(FUZZ_VALUES if wild else fuzz_typed(param.kind))
    return RunConfig(name, params, draw(st.sampled_from(OUTPUT_FORMATS)))


class TestRunFuzz:
    @settings(max_examples=300, deadline=None)
    @given(fuzz_requests())
    def test_exit_code_and_one_line_diagnostic(self, config):
        # a fresh directory per request: seshadri may write its sweep CSV
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                code, report, diagnostics = run(config)
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in report + diagnostics
        if code == EXIT_BAD_INPUT:
            assert report == ""
            assert diagnostics.count("\n") == 1 and diagnostics.endswith("\n")


class TestCartierWorkLimit:
    """A cartier request whose q or walk is over the work limit exits 2 with one line."""

    @pytest.mark.parametrize(
        "argv, estimate",
        [
            (["--n", "2", "--p", "1000000000000000003", "--e", "1", "--box", "2"],
             "q = 1000000000000000003^1 has at least 60 bits"),
            (["--n", "1", "--p", "101", "--e", "4", "--box", "2"],
             "q = 101^4 has at least 25 bits"),
            (["--n", "5", "--p", "2", "--e", "1", "--box", "30"],
             "the surjectivity walk would visit 31^5 points"),
            (["--n", "38", "--p", "2", "--e", "1", "--box", "0"],
             "the ideal design would trace 28158 lowered forms of 38 entries"),
        ],
    )
    def test_refused(self, capsys, argv, estimate):
        err = f"invalid input: {estimate}, over the work limit of 1000000\n"
        assert run_cli(capsys, ["cartier", *argv]) == (EXIT_BAD_INPUT, "", err)


    @pytest.mark.parametrize(
        "argv, estimate",
        [
            (["cartier", "--n", "2000", "--p", "2", "--e", "0", "--box", "0"],
             "the Cartier design would hold up to 14001 forms of 2000 entries"),
            (["inclusion-check", "--n", "1500", "--l", "0", "--e", "0", "--p", "2"],
             "m^1 in 1500 variables has 1500*C(1500, 1) generator entries"),
            (["inclusion-check", "--n", "1500", "--l", "1", "--e", "0", "--p", "2"],
             "m^1 in 1500 variables has 1500*C(1500, 1) generator entries"),
            (["cartier", "--n", "200", "--p", "2", "--e", "0", "--box", "0"],
             "m^2 in 200 variables has 200*C(201, 2) generator entries"),
        ],
    )
    def test_many_variables_refused(self, capsys, argv, estimate):
        # these raised RecursionError, or would build millions of generator entries
        err = f"invalid input: {estimate}, over the work limit of 1000000\n"
        assert run_cli(capsys, argv) == (EXIT_BAD_INPUT, "", err)


class TestHugeIntegers:
    """A q or a report integer past the digit limit exits 2 with one line, at once."""

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    @pytest.mark.parametrize(
        "argv, err",
        [
            (["cartier", "--n", "1", "--p", "3", "--e", "10000000", "--box", "0"],
             "invalid input: q = 3^10000000 has at least 10000001 bits, "
             "over the work limit of 1000000\n"),
            (["jets", "--model", "pn:1", "--m", "2", "--l", "1", "--p", "3", "--e", "100000"],
             "invalid input: the report holds an integer of more than 4300 digits\n"),
            (["jets", "--model", "pn:1", "--m", "2", "--l", "1", "--p", "3", "--e", "10000000"],
             "invalid input: q = 3^10000000 has at least 10000001 bits, "
             "over the work limit of 1000000\n"),
            (["inclusion-check", "--n", "1", "--l", "0", "--e", "10000000", "--p", "3"],
             "invalid input: q = 3^10000000 has at least 10000001 bits, "
             "over the work limit of 1000000\n"),
        ],
        ids=["cartier-q", "jets-report", "jets-q", "inclusion-check-q"],
    )
    def test_refused_with_one_line(self, capsys, argv, err, fmt):
        code, out, diagnostics = run_cli(capsys, [*argv, "--format", fmt])
        assert (code, out, diagnostics) == (EXIT_BAD_INPUT, "", err)
        assert "Traceback" not in diagnostics and "set_int_max_str_digits" not in diagnostics


class TestWorkBudgets:
    """A Frobenius sweep or a mori-endgame list over the work limit is refused before any work."""

    @pytest.mark.parametrize(
        "argv, estimate",
        [
            (["seshadri", "--model", "pn:1", "--p", "2", "--m-max", "5", "--e-max", "100000"],
             "the Frobenius sweep would compute 100001 loads of up to 1563 words"),
            (["mori-endgame", "--a", ",".join(["1"] * 13)],
             "13 summands have C(26, 14) quotient degrees"),
            (lambda: bounds.frobenius_seshadri_lower(projective_space(1), 2, 0, 5, 100000),
             "the Frobenius sweep would compute 100001 loads of up to 1563 words"),
        ],
        ids=["e-max", "mori-endgame", "library-e-max"],
    )
    def test_refused_with_one_line(self, capsys, argv, estimate):
        # all three were killed at 8 s before they had a budget
        err = f"{estimate}, over the work limit of 1000000"
        if callable(argv):
            with pytest.raises(ValueError) as refused:
                argv()
            assert str(refused.value) == err
        else:
            assert run_cli(capsys, argv) == (EXIT_BAD_INPUT, "", f"invalid input: {err}\n")

    def test_sweep_at_the_limit_answers(self, capsys):
        # pn:1 has one row and 2^e fits in e // 64 + 1 words: 8000 * 125 is the limit
        argv = ["seshadri", "--model", "pn:1", "--p", "2", "--m-max", "5", "--e-max"]
        for e_max in ("5000", "7999"):
            code, out, _ = run_cli(capsys, argv + [e_max])
            assert code == EXIT_OK and json.loads(out)["witness"] == [1, 1]
        code, _, err = run_cli(capsys, argv + ["8000"])
        assert code == EXIT_BAD_INPUT
        estimate = "the Frobenius sweep would compute 8001 loads of up to 126 words"
        assert err.startswith(f"invalid input: {estimate}, over")

    def test_sweep_refused_before_any_threshold(self, capsys, monkeypatch):
        computed = []

        def recording(*args):
            computed.append(args)
            return frobenius_threshold(*args)

        monkeypatch.setattr(bounds, "WORK_LIMIT", 12)
        monkeypatch.setattr(bounds, "frobenius_threshold", recording)
        # product:1,1,1,2 has two rows: 2 * (5 + 1) loads of one word are at the limit
        argv = ["seshadri", "--model", "product:1,1,1,2", "--p", "3", "--m-max", "5", "--e-max"]
        assert run_cli(capsys, argv + ["5"])[0] == EXIT_OK
        assert len(computed) == 6
        code, _, err = run_cli(capsys, argv + ["6"])
        assert code == EXIT_BAD_INPUT
        estimate = "the Frobenius sweep would compute 14 loads of up to 1 words"
        assert err.startswith(f"invalid input: {estimate}, over")
        assert len(computed) == 6


class TestCartierSeed:
    def test_seed_is_accepted_and_ignored(self, capsys):
        argv = ["cartier", "--n", "2", "--p", "3", "--e", "2", "--box", "2"]
        runs = [run_cli(capsys, argv + extra) for extra in ([], ["--seed", "0"], ["--seed", "99"])]
        assert runs[0][0] == EXIT_OK
        assert json.loads(runs[0][1]) == dict.fromkeys(
            ["ideal_identity", "iteration", "semilinear", "surjective"], True
        )
        assert runs[1] == runs[2] == runs[0]


class TestVerifyAll:
    def test_table_format_streams_lines(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-all", "--format", "table"])
        assert code == EXIT_OK
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) == 12
        assert "12/12 acceptance criteria passed" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-all"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert len(doc["criteria"]) == 12

    @pytest.fixture
    def criterion_6_fails(self, monkeypatch):
        monkeypatch.setattr(acceptance, "check_comparison", lambda *args: False)

    def test_table_format_exits_1_on_a_failure(self, capsys, criterion_6_fails):
        code, out, _ = run_cli(capsys, ["verify-all", "--format", "table"])
        assert code == EXIT_CHECK_FAILED
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL  criterion  6  comparison inequalities: failed at (1, 0, 'sandwich')"]
        assert out.endswith("\n11/12 acceptance criteria passed\n")

    def test_json_format_exits_1_on_a_failure(self, capsys, criterion_6_fails):
        code, out, _ = run_cli(capsys, ["verify-all"])
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(out)
        assert doc["all_passed"] is False
        assert [c["passed"] for c in doc["criteria"]] == [n != 6 for n in range(1, 13)]
