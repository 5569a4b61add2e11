"""The `cli` workload: one `frobjets.cli.main(argv)` call per op.

stdout and stderr are captured in memory. The mix covers seven subcommands
(all but verify-all) in the three output formats, plus malformed requests
that must exit 2 or 3. Expected exit codes and report fields come from
closed forms computed here, not from frobjets.

Three requests are known to escape as exceptions at the commit that defined
this benchmark (ROADMAP open item 5). They stay in every pass and count as
failed ops until the CLI rejects them with exit 2.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

from frobjets import cli
from meter import Op
from sweep import admits, best_frobenius, best_seshadri, random_model

FORMATS = ("json", "csv", "table")

KNOWN_DEFECTS = (
    ["fano", "--json", '{"n":3,"char":2,"eps_lower_at_point":"1/0"}'],
    ["fano", "--json", '{"n":"x"}'],
    ["jets", "--model", '{"kind":"custom","n":2,"constraints":[[1,2]]}', "--m", "3", "--l", "1"],
)


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _flatten(value, f"{prefix}{key}.")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _flatten(value, f"{prefix}{i}.")
    else:
        yield prefix[:-1], doc


def _fields(text, fmt):
    """The report as {dotted key: value text}, whatever the format."""
    if fmt == "json":
        return {k: str(v) for k, v in _flatten(json.loads(text))}
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return dict(rows[1:]) if rows and rows[0] == ["key", "value"] else {}
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value.strip()
    return fields


def _fraction(value):
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def request(subcommand, argv, code, fields=None, fmt=None, csv_check=None, known_defect=False):
    """An op that runs argv and checks its exit code and report fields."""
    if fmt is not None:
        argv = argv + ["--format", fmt]

    def run(meter):
        got, out, err = meter.call(f"cli.{subcommand}", _invoke, argv)
        if got == 2:
            meter.count("cli.bad_input_calls")
        ok = got == code and "Traceback" not in err
        if ok and fields:
            report = _fields(out, fmt)
            ok = all(report.get(k) == str(v) for k, v in fields.items())
        output = [argv, got, out]
        if csv_check is not None:
            path, rows, separating = csv_check
            data = Path(path).read_bytes() if Path(path).exists() else b""
            meter.count("cli.csv_bytes", len(data))
            table = list(csv.reader(io.StringIO(data.decode())))
            ok = ok and len(table) == rows + 1 and sum(r[2] == "True" for r in table[1:]) == separating
            output.append(data.decode())
        return ok, output

    return Op(subcommand, ("cli", tuple(argv)), run, known_defect)


def _model_arg(rng, kind):
    model, constraints = random_model(rng, kind)
    if kind == "pn":
        spec = f"pn:{model.n}"
    elif kind == "product":
        n1, n2, c, d = model.params
        spec = f"product:{n1},{n2},{c},{d}"
    else:
        spec = json.dumps({"kind": "custom", "n": model.n, "constraints": [[list(w), s] for w, s in constraints]})
    return model, constraints, spec


def inclusion_check(rng, fmt):
    n, ell, e, p = rng.randrange(1, 5), rng.randrange(4), rng.randrange(3), rng.choice((2, 3, 5))
    q = p**e
    argv = ["inclusion-check", "--n", str(n), "--l", str(ell), "--e", str(e), "--p", str(p)]
    return request("inclusion-check", argv, 0, {"all_ok": True, "witness.0": ell * q + q - 1}, fmt)


def jets_request(rng, fmt):
    model, constraints, spec = _model_arg(rng, rng.choice(("pn", "product", "custom")))
    m, ell, e, p = rng.randrange(1, 300), rng.randrange(4), rng.randrange(5), rng.choice((2, 3, 5))
    argv = ["jets", "--model", spec, "--m", str(m), "--l", str(ell), "--e", str(e), "--p", str(p)]
    fields = {"separates": admits(constraints, m, ell, e, p)}
    if model.kind == "pn":
        q = p**e
        fields["pn_threshold"] = ell * q + model.n * (q - 1)
    return request("jets", argv, 0, fields, fmt)


def jets_oracle(rng, fmt):
    """jets --oracle enumerates the cobasis and builds a rank matrix: tiny models only."""
    c, d = rng.randrange(1, 4), rng.randrange(1, 4)
    spec, constraints = rng.choice(
        (
            ("pn:1", (((1,), 1),)),
            ("pn:2", (((1, 1), 1),)),
            (f"product:1,1,{c},{d}", (((1, 0), c), ((0, 1), d))),
        )
    )
    m, ell, e, p = rng.randrange(1, 9), rng.randrange(2), rng.randrange(2), rng.choice((2, 3))
    argv = ["jets", "--model", spec, "--m", str(m), "--l", str(ell), "--e", str(e),
            "--p", str(p), "--oracle"]
    separates = admits(constraints, m, ell, e, p)
    return request("jets", argv, 0, {"separates": separates, "oracle": separates}, fmt)


def seshadri_ordinary(rng, fmt):
    model, constraints, spec = _model_arg(rng, rng.choice(("pn", "product", "custom")))
    m_max = rng.randrange(5, 41)
    value, m = best_seshadri(constraints, m_max)
    argv = ["seshadri", "--model", spec, "--m-max", str(m_max), "--kind", "ordinary"]
    return request("seshadri", argv, 0, {"value": _fraction(value), "witness.0": m}, fmt)


def seshadri_frobenius(rng, fmt, csv_path=None):
    model, constraints, spec = _model_arg(rng, rng.choice(("pn", "product", "custom")))
    p, ell = rng.choice((2, 3, 5)), rng.randrange(3)
    m_max, e_max = rng.randrange(5, 61), rng.randrange(2, 6)
    argv = ["seshadri", "--model", spec, "--p", str(p), "--l", str(ell),
            "--m-max", str(m_max), "--e-max", str(e_max)]
    best = best_frobenius(constraints, p, ell, m_max, e_max)
    fields = {} if best is None else {"value": _fraction(best[0]), "witness.0": best[1][0]}
    csv_check = None
    if csv_path is not None:
        argv += ["--sweep-csv", csv_path]
        separating = sum(
            admits(constraints, m, ell, e, p)
            for e in range(e_max + 1) for m in range(1, m_max + 1)
        )
        csv_check = (csv_path, m_max * (e_max + 1), separating)
    return request("seshadri", argv, 0, fields, fmt, csv_check)


CARTIER_SHAPES = (
    [(1, p, e, box) for p in (2, 3) for e in (1, 2) for box in (2, 4, 6)]
    + [(2, p, e, box) for p in (2, 3) for e in (1, 2) for box in (2, 4, 6)]
    + [(3, p, 1, box) for p in (2, 3) for box in (2, 3)]
)


def cartier(rng, fmt, shape):
    n, p, e, box = shape
    argv = ["cartier", "--n", str(n), "--p", str(p), "--e", str(e), "--box", str(box),
            "--seed", str(rng.randrange(100))]
    fields = {"surjective": True, "ideal_identity": True, "semilinear": True, "iteration": True}
    return request("cartier", argv, 0, fields, fmt)


def principal_parts(rng, fmt):
    n, ell = rng.randrange(1, 7), rng.randrange(9)
    # rank 1 + sum of C(n+k-1, n-1) and the omega exponent sum of C(n+k-1, n),
    # for k = 1..ell, telescope to these binomials
    fields = {"rank": comb(n + ell, n), "det.omega": comb(n + ell, n + 1), "det.l": comb(n + ell, n)}
    return request("pp", ["pp", "--n", str(n), "--l", str(ell)], 0, fields, fmt)


def mori_endgame(rng, fmt):
    a = [rng.randrange(-3, 6) for _ in range(rng.randrange(1, 5))]
    fields = {"b": sum(a), "gg": (len(a) + 1) * min(a) >= sum(a)}
    # --a=... so that a leading minus sign is not read as an option
    argv = ["mori-endgame", "--a=" + ",".join(map(str, a))]
    return request("mori-endgame", argv, 0, fields, fmt)


def fano(rng, fmt):
    n = rng.randrange(1, 6)
    eps = Fraction(rng.randrange(1, 4 * (n + 1)), rng.randrange(1, 4))
    doc = {"n": n, "char": rng.choice((0, 2, 3, 5, 7)), "eps_lower_at_point": _fraction(eps)}
    if rng.random() < 0.5:
        # curves whose degree/multiplicity is at least eps never contradict it
        mult = rng.randrange(1, 3)
        doc["curves_through_x"] = [[-(-eps.numerator * mult // eps.denominator), mult]]
    verdict = "isomorphic_to_Pn" if eps >= n + 1 else "no_conclusion"
    return request("fano", ["fano", "--json", json.dumps(doc)], 0, {"verdict": verdict}, fmt)


def fano_contradiction(rng, fmt):
    n = rng.randrange(2, 5)
    doc = {"n": n, "char": 5, "eps_lower_at_point": f"{n + 1}/1", "curves_through_x": [[n, 1]]}
    return request("fano", ["fano", "--json", json.dumps(doc)], 3, None, fmt)


def malformed(rng, fmt):
    """Requests that the CLI must reject with exit 2."""
    n = rng.randrange(1, 4)
    choices = [
        ("pp", ["pp", "--n", "0", "--l", str(n)]),
        ("inclusion-check", ["inclusion-check", "--n", str(n), "--l", "1", "--e", "1", "--p", "4"]),
        ("jets", ["jets", "--model", "pn:x", "--m", "3", "--l", "1"]),
        ("jets", ["jets", "--model", f"product:1,{n},2", "--m", "3", "--l", "1"]),
        ("jets", ["jets", "--m", "3", "--l", "1"]),
        ("seshadri", ["seshadri", "--model", f"pn:{n}", "--m-max", "5"]),
        ("mori-endgame", ["mori-endgame", "--a", ""]),
        ("fano", ["fano", "--json", "{not json"]),
        ("fano", ["fano", "--json", json.dumps({"n": n, "bogus": 1})]),
        ("cartier", ["cartier", "--n", str(n), "--p", "4", "--e", "1", "--box", "3"]),
    ]
    subcommand, argv = rng.choice(choices)
    return request(subcommand, argv, 2, None, fmt)


def deck(rng, strata, work_dir):
    """One pass: a fixed count of each request, formats and parameters seeded.

    cartier dominates a pass's cost, so its shapes cycle across passes.
    """
    makers = (
        [inclusion_check] * 4 + [jets_request] * 4 + [jets_oracle] * 2
        + [seshadri_ordinary] * 2 + [seshadri_frobenius] + [principal_parts] * 4
        + [mori_endgame] * 4 + [fano] * 4 + [fano_contradiction] + [malformed] * 6
    )
    ops = [make(rng, rng.choice(FORMATS)) for make in makers]
    ops += [
        cartier(rng, rng.choice(FORMATS), strata.pick(f"cartier.{i}", CARTIER_SHAPES))
        for i in range(2)
    ]
    ops += [
        seshadri_frobenius(rng, rng.choice(FORMATS), f"{work_dir}/sweep-{i}.csv")
        for i in range(2)
    ]
    ops += [request(argv[0], list(argv), 2, known_defect=True) for argv in KNOWN_DEFECTS]
    rng.shuffle(ops)
    return ops
