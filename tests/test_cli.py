import json

import pytest

from frobjets import bounds
from frobjets.cli import (
    EXIT_BAD_INPUT,
    EXIT_CONTRADICTION,
    EXIT_OK,
    RunConfig,
    main,
    run,
)
from frobjets.jets import separates_frobenius_jets


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_sweep_csv_evaluates_each_cell_once(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return separates_frobenius_jets(*args, **kwargs)

        monkeypatch.setattr(bounds, "separates_frobenius_jets", counting)
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
        assert len(calls) == m_max * (e_max + 1)

    def test_missing_p_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["seshadri", "--model", "pn:2", "--m-max", "5"])
        assert code == EXIT_BAD_INPUT
        assert "invalid input" in err


class TestOtherCommands:
    def test_pp(self, capsys):
        code, out, _ = run_cli(capsys, ["pp", "--n", "2", "--l", "2"])
        assert code == EXIT_OK
        assert json.loads(out) == {"det": {"l": 6, "omega": 4}, "rank": 6}

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

    def test_parallelism_flag_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seshadri", "--model", "pn:2", "--p", "2", "--m-max", "5", "--parallelism", "2"])
        assert exc.value.code == EXIT_BAD_INPUT
        assert "--parallelism" in capsys.readouterr().err


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
