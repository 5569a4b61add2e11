"""Golden CLI corpus: exact stdout, stderr, exit code and written files.

`golden_cli.json` holds, one case per line, the README CLI examples in every
output format, a few certificate, tie-break and validation cases, and a
legacy `--config` document that still carries `"parallelism": 4`. Each
case's `argv` runs in a fresh directory, so relative paths such as
`sweep.csv` land there; `config` (if present) is written to `run.json`
first. Everything must match byte for byte.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from frobjets.cli import main

CASES = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_output_unchanged(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if "config" in case:
        Path("run.json").write_text(json.dumps(case["config"]))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(case["argv"]))
    assert (code, out.getvalue(), err.getvalue()) == (case["exit"], case["stdout"], case["stderr"])
    for name, content in case.get("files", {}).items():
        with open(name, newline="") as handle:
            assert handle.read() == content
