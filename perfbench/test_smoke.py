"""Smoke test of the benchmark harness.

A one-second run of every workload, untraced and traced, must emit every
metric that BENCHMARK.json lists, with the unit listed there. Run it from the
repository root with `python3 -m pytest perfbench/test_smoke.py`; it takes
about a minute, most of it three cold verify-all batteries.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace, section):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1
    for metric in SPEC[section]:
        emitted = summary["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        if section == "end_to_end":
            assert emitted["value"] > 0, metric["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("results"))
    proc = _run(tmp_path, "ideal-build", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
