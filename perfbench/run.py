"""Benchmark for frobjets: end-to-end and per-layer metrics on four workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists): verify-all, ideal-build,
sweep, cli. Every workload is a closed loop: one client in one process, no
threads, issuing each op only after the previous one completes. Ops come in
passes: a pass is one cold acceptance battery on verify-all, and a seeded
deck with a fixed mix of request kinds on the other three. The run keeps
starting passes until --seconds have elapsed (at least one pass, two when
traced).

Only the calls into frobjets are timed, by the thread's CPU time; the
benchmark's own input generation and output checks run between them. Every
time in the end-to-end metrics is scaled to a reference host speed by fixed
reference work timed around each pass (see meter.py for why). With
--trace 1, every other pass records spans and the last line reports the
per-layer metrics; the end-to-end metrics come from --trace 0 runs. Each run
writes a result file with run metadata under perfbench/results/, and the
last line of stdout is the JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from meter import REFERENCE_S, Meter, Strata, reference_seconds, self_times

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = RESULTS / "work"

# the module that builds each seeded workload's passes; verify-all has none
WORKLOADS = {"verify-all": None, "ideal-build": "ideal_build", "sweep": "sweep", "cli": "cli_mix"}
# modules a user of each workload imports; their import time is set-up time
ENTRY_MODULES = {
    "verify-all": "frobjets.acceptance",
    "ideal-build": "frobjets",
    "sweep": "frobjets",
    "cli": "frobjets.cli",
}
SETUP_REPEATS = 9
# A pass still running 4 x --seconds (at least HARD_LIMIT_FLOOR_S) after the
# timed phase began, or RUN_DEADLINE_S after start, is cut off and its
# unfinished ops count as failed, so that a run always ends within 180 s.
HARD_LIMIT_FLOOR_S = 60
RUN_DEADLINE_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_norm_s": "s",
    "ops_per_norm_s": "1/s",
    "op_norm_p50_ms": "ms",
    "op_norm_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

MONOMIAL_CALLS = (
    "power", "minimalize", "bracket_power", "cobasis",
    "membership", "contains", "lemma", "staircase_max_degree",
)
JETS_CALLS = ("separates", "s_jets", "s_frobenius")
BOUNDS_CALLS = ("seshadri_lower", "frobenius_seshadri_lower", "derive", "reverify")
CLI_SUBCOMMANDS = ("inclusion-check", "jets", "seshadri", "cartier", "pp", "mori-endgame", "fano")


def _per_layer_units():
    units = {f"acceptance.criterion_{i:02d}_s": "s/pass" for i in range(1, 13)}
    for layer, calls in (
        ("monomials", MONOMIAL_CALLS),
        ("jets", JETS_CALLS),
        ("bounds", BOUNDS_CALLS),
        ("cli", CLI_SUBCOMMANDS),
    ):
        for call in calls:
            units[f"{layer}.{call}_s"] = "s/pass"
            if layer != "bounds":
                units[f"{layer}.{call}_calls"] = "count/pass"
    units.update(
        {
            "monomials.minimalize_keep_ratio": "ratio",
            "monomials.cobasis_fill_ratio": "ratio",
            "monomials.membership_tests": "count/pass",
            "monomials.membership_hit_ratio": "ratio",
            "bounds.sweep_cells": "count/pass",
            "bounds.cells_per_s": "1/s",
            "bounds.seshadri_degrees": "count/pass",
            "cli.bad_input_calls": "count/pass",
            "cli.csv_bytes": "B/pass",
            "trace.overhead_s": "s/pass",
            "input.repeat_share": "ratio",
            "input.max_cobasis_box": "points",
        }
    )
    return units


PER_LAYER_UNITS = _per_layer_units()


class Overrun(BaseException):
    """The hard time limit fired in the middle of a pass.

    A BaseException, so that no `except Exception` in frobjets swallows it.
    """


def _raise_overrun(signum, frame):
    raise Overrun


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.seconds = 0.0  # CPU time of the pass's calls into frobjets
        self.wall = 0.0  # wall time of the whole pass, checks included
        self.op_times = []  # CPU time of each op
        # REFERENCE_S over the reference work's time around the pass; on
        # verify-all, around and during each criterion, weighted by its time
        self.scale = 1.0


class Run:
    """What one benchmark run has observed so far."""

    def __init__(self):
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.known_defect_failures = 0
        self.failures = []
        self.keys = set()
        self.repeats = 0
        self.digest_items = []
        self.peak_rss_kb = 0
        self.overrun = False

    def record(self, kind, key, seconds, ok, output, known_defect=False):
        self.attempted += 1
        if key in self.keys:
            self.repeats += 1
        self.keys.add(key)
        if seconds is not None:
            self.passes[-1].op_times.append(seconds)
        if len(self.passes) == 1:
            self.digest_items.append([kind, output])
        if not ok:
            self.failed += 1
            self.known_defect_failures += known_defect
            if len(self.failures) < 20:
                self.failures.append({"kind": kind, "key": repr(key)[:300], "known_defect": known_defect})


# --- passes -----------------------------------------------------------------


def _seeded_pass(module, workload, seed, index, meter, run):
    ops = _deck(module, workload, seed, index)
    busy = meter.busy
    reference = reference_seconds()
    done = 0
    try:
        for op in ops:
            t0 = meter.begin_op(run.attempted)
            before = meter.busy
            try:
                ok, output = op.fn(meter)
            except Exception as exc:  # a program error is a failed op
                ok, output = False, f"{type(exc).__name__}: {exc}"
            meter.end_op(f"op.{op.kind}", t0)
            run.record(op.kind, op.key, meter.busy - before, ok, output, op.known_defect)
            done += 1
    except Overrun:
        for op in ops[done:]:
            run.record(op.kind, op.key, None, False, None, op.known_defect)
        raise
    finally:
        run.passes[-1].seconds = meter.busy - busy
        run.passes[-1].scale = 2 * REFERENCE_S / (reference + reference_seconds())


def _deck(module, workload, seed, index):
    rng = random.Random(f"{workload}/{seed}/{index}")
    strata = Strata(workload, index)
    if workload == "cli":
        return module.deck(rng, strata, WORK.relative_to(ROOT).as_posix())
    return module.deck(rng, strata)


def _battery_pass(criteria_count, index, meter, run):
    """One cold acceptance battery in a child process; each criterion is an op."""
    stamps, summary = [], None
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "battery.py"), str(SRC)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        with proc.stdout:
            for line in proc.stdout:
                doc = json.loads(line)
                if "line" in doc:
                    stamps.append(doc)
                else:
                    summary = doc
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.wait()
        passed = summary["passed"] if summary else None
        if summary:
            run.peak_rss_kb = max(run.peak_rss_kb, summary["maxrss_kb"])
        traced = run.passes[-1].traced
        parent = None
        if traced and stamps:
            parent = meter.add_span("op.battery", stamps[0]["t0"], stamps[-1]["t1"], None, index)
        total = scaled = 0.0
        for i in range(criteria_count):
            kind = f"criterion_{i + 1:02d}"
            if i < len(stamps):
                t0, t1 = stamps[i]["t0"], stamps[i]["t1"]
                total += t1 - t0
                scaled += (t1 - t0) * REFERENCE_S / stamps[i]["ref"]
                if traced:
                    meter.add_span(f"acceptance.{kind}", t0, t1, parent, index)
                # a battery cut off by the time limit leaves only the lines
                ok = passed[i] if summary else stamps[i]["line"].startswith("PASS")
                output = stamps[i]["line"]
                run.record(kind, (kind,), t1 - t0, ok, output)
            else:
                run.record(kind, (kind,), None, False, None)
        meter.busy += total
        run.passes[-1].seconds = total
        if total:
            run.passes[-1].scale = scaled / total


# --- set-up -----------------------------------------------------------------


def _import_seconds(module):
    """CPU time to import module in a fresh interpreter, scaled like a pass."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.thread_time(); "
        f"import {module}; t = time.thread_time() - t; "
        "import statistics; from meter import reference_seconds; "
        "print(t, statistics.median(reference_seconds() for _ in range(3)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60, cwd=HERE,
    )
    seconds, reference = map(float, out.stdout.split())
    return seconds * REFERENCE_S / reference


def _setup_seconds(workload, module, seed):
    """Median fresh-interpreter import plus median first-pass generation.

    Both are CPU times scaled to the reference host speed, like the passes.
    """
    imports = [_import_seconds(ENTRY_MODULES[workload]) for _ in range(SETUP_REPEATS)]
    generation = [0.0]
    if module is not None:
        generation = []
        for _ in range(SETUP_REPEATS):
            t0 = time.thread_time()
            _deck(module, workload, seed, 0)
            seconds = time.thread_time() - t0
            generation.append(seconds * REFERENCE_S / reference_seconds())
    return statistics.median(imports) + statistics.median(generation)


# --- metrics ----------------------------------------------------------------


def _nearest_rank(values, q):
    """The q-th percentile as an observed value, not an interpolation."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def _end_to_end(passes, setup_s, peak_rss_kb, per_battery):
    times = [t * p.scale for p in passes for t in p.op_times] or [0.0]
    # A verify-all run holds 24-36 criteria, whose median falls in a 4x gap
    # between the ms-long and the second-long ones; its latencies are those
    # of the whole battery, the command a user waits for.
    seconds = [p.seconds * p.scale for p in passes]
    latencies = seconds if per_battery else times
    return {
        "setup_s": setup_s,
        # a mean, not a median: the parameters that set a pass's cost cycle
        # across passes, so the mean over a run covers the whole cycles while
        # the median depends on which passes fall in the middle
        "pass_norm_s": statistics.fmean(seconds),
        "ops_per_norm_s": len(times) / sum(times) if sum(times) else 0.0,
        "op_norm_p50_ms": 1e3 * statistics.median(latencies),
        "op_norm_p90_ms": 1e3 * _nearest_rank(latencies, 90),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def _ratio(a, b):
    return a / b if b else 0.0


def _per_layer(meter, run, traced, untraced):
    passes = len(traced)
    times = self_times(meter.spans)
    counts = meter.counts
    values = {}
    for name, (total, calls) in times.items():
        values[f"{name}_s"] = total / passes
        values[f"{name}_calls"] = calls / passes
    for name, amount in counts.items():
        values[name] = amount / passes
    sweep_time = times.get("bounds.frobenius_seshadri_lower", (0.0, 0))[0]
    values.update(
        {
            "monomials.minimalize_keep_ratio": _ratio(
                counts["monomials.minimalize_kept"], counts["monomials.minimalize_given"]
            ),
            "monomials.cobasis_fill_ratio": _ratio(
                counts["monomials.cobasis_points"], counts["monomials.cobasis_box_points"]
            ),
            "monomials.membership_hit_ratio": _ratio(
                counts["monomials.membership_hits"], counts["monomials.membership_tests"]
            ),
            "bounds.cells_per_s": _ratio(counts["bounds.sweep_cells"], sweep_time),
            "trace.overhead_s": statistics.median(p.seconds * p.scale for p in traced)
            - (statistics.median(p.seconds * p.scale for p in untraced) if untraced else 0.0),
            "input.repeat_share": _ratio(run.repeats, run.attempted),
            "input.max_cobasis_box": meter.maxima.get("input.max_cobasis_box", 0),
        }
    )
    return {name: values.get(name, 0.0) for name in PER_LAYER_UNITS}


# --- metadata ---------------------------------------------------------------


def _git_sha():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _steal_seconds():
    """CPU time the hypervisor gave to others, summed over this machine's CPUs."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _metadata(seed):
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
        "steal_s_start": _steal_seconds(),
    }


# --- main -------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "frobjets" / "__init__.py").is_file():
        print(f"perfbench: no frobjets sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    metadata = _metadata(args.seed)

    module, criteria_count = None, 0
    if WORKLOADS[args.workload] is None:
        from frobjets import acceptance

        criteria_count = len(acceptance.CRITERIA)
    else:
        module = importlib.import_module(WORKLOADS[args.workload])

    setup_s = _setup_seconds(args.workload, module, args.seed)
    WORK.mkdir(parents=True, exist_ok=True)

    meter, run = Meter(), Run()
    min_passes = 2 if args.trace else 1
    hard_limit = min(max(4 * args.seconds, HARD_LIMIT_FLOOR_S), RUN_DEADLINE_S - (time.perf_counter() - START))
    signal.signal(signal.SIGALRM, _raise_overrun)
    signal.setitimer(signal.ITIMER_REAL, hard_limit)
    began = time.perf_counter()
    index = 0
    try:
        while index < min_passes or time.perf_counter() - began < args.seconds:
            current = Pass(traced=bool(args.trace) and index % 2 == 0)
            run.passes.append(current)
            wall = time.perf_counter()
            meter.tracing = current.traced
            if module is None:
                _battery_pass(criteria_count, index, meter, run)
            else:
                _seeded_pass(module, args.workload, args.seed, index, meter, run)
            current.wall = time.perf_counter() - wall
            index += 1
    except Overrun:
        run.overrun = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        meter.tracing = False
        shutil.rmtree(WORK, ignore_errors=True)
    if module is not None:
        run.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    unexpected = run.failed - run.known_defect_failures
    traced = [p for p in run.passes if p.traced]
    untraced = [p for p in run.passes if not p.traced]
    end_to_end = _end_to_end(untraced, setup_s, run.peak_rss_kb, module is None) if untraced else {}
    per_layer = _per_layer(meter, run, traced, untraced) if traced else {}
    digest = hashlib.sha256(
        json.dumps(run.digest_items, sort_keys=True, default=str).encode()
    ).hexdigest()
    metadata["loadavg_end"] = os.getloadavg()
    metadata["steal_s_end"] = _steal_seconds()
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": metadata,
        "correct": unexpected == 0 and not run.overrun,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": _ratio(run.failed, run.attempted),
        "known_defect_failures": run.known_defect_failures,
        "failures": run.failures,
        "overrun": run.overrun,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_seconds": [round(p.seconds, 4) for p in run.passes],
        "pass_scales": [round(p.scale, 4) for p in run.passes],
        "pass_wall_seconds": [round(p.wall, 4) for p in run.passes],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "input_properties": {
            "repeat_share": _ratio(run.repeats, run.attempted),
            "max_cobasis_box": meter.maxima.get("input.max_cobasis_box", 0),
        },
        "output_sha256": digest,
        "digest_ops": len(run.digest_items),
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2, default=str) + "\n")
    if args.trace:
        with (RESULTS / f"{stem}.spans.jsonl").open("w") as handle:
            for span in meter.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")

    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    summary = {
        "correct": result["correct"],
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
