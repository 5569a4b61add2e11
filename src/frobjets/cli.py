"""Batch command-line front end: sweeps, verifiers, machine-readable reports.

Exit codes: 0 success, 1 property or acceptance failure, 2 invalid input,
3 data contradiction. Reports go to stdout, diagnostics to stderr. Every
command runs serially, so its output depends on its configuration alone.

A --config document is checked at the boundary: it must be a JSON object
whose "command" is a string and whose "parameters" is an object; integer
parameters go through one helper, and keys the CLI does not read are ignored.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field

from fractions import Fraction

from . import acceptance
from .bounds import (
    best_frobenius_certificate,
    closed_form_pn,
    frobenius_sweep_table,
    seshadri_lower,
)
from .cartier import cartier_report
from .fano import DataContradictionError, FanoInput, charpn_verdict
from .jets import (
    missing_exponent,
    pn_threshold,
    separates_frobenius_jets,
)
from .models import model_from_spec
from .monomials import MonomialIdeal, verify_lemma_monomials
from .principal_parts import det_pp_recursive, mori_endgame, rank_pp
from .serialize import dumps_report, format_fraction, to_jsonable

OUTPUT_FORMATS = ("json", "csv", "table")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CONTRADICTION = 3


@dataclass
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)
    output_format: str = "json"


def _require(params: dict, allowed: set[str], required: set[str]):
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown parameters: {sorted(unknown)}")
    missing = required - set(params)
    if missing:
        raise ValueError(f"missing parameters: {sorted(missing)}")


def _int_param(params: dict, key: str, default: int | None = None) -> int:
    value = params.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"parameter {key!r} must be an integer, got {value!r}") from None


def _text_param(params: dict, key: str) -> str:
    value = params[key]
    if not isinstance(value, str):
        raise ValueError(f"parameter {key!r} must be a string, got {value!r}")
    return value


def _cmd_inclusion_check(params):
    _require(params, {"n", "l", "e", "p"}, {"n", "l", "e", "p"})
    report = verify_lemma_monomials(*(_int_param(params, k) for k in ("n", "l", "e", "p")))
    payload = {
        "left_inclusion": report.left_inclusion,
        "right_inclusion": report.right_inclusion,
        "sharpness": report.sharpness,
        "witness": list(report.witness),
        "all_ok": report.all_ok,
    }
    return payload, EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def _cmd_jets(params):
    _require(params, {"model", "m", "l", "e", "p", "oracle"}, {"model", "m", "l"})
    model = model_from_spec(str(params["model"]))
    m = _int_param(params, "m")
    ell = _int_param(params, "l")
    e = _int_param(params, "e", 0)
    p = _int_param(params, "p", 2)
    separates = separates_frobenius_jets(model, m, ell, e, p)
    payload = {"separates": separates, "m": m, "l": ell, "e": e, "p": p}
    if model.kind == "pn":
        payload["pn_threshold"] = pn_threshold(model.n, ell, e, p)
    if not separates:
        payload["witness_missing_exponent"] = list(missing_exponent(model, m, ell, e, p))
    if params.get("oracle"):
        oracle = separates_frobenius_jets(model, m, ell, e, p, method="cobasis")
        payload["oracle"] = oracle
        payload["methods_agree"] = oracle == separates
        if oracle != separates:
            return payload, EXIT_CHECK_FAILED
    return payload, EXIT_OK


def _certificate_payload(cert, closed_form=None):
    if cert is None:
        payload = {"value": None, "witness": None, "derivation": None}
    else:
        payload = cert.to_json()
    if closed_form is not None:
        payload["closed_form"] = format_fraction(closed_form)
    return payload


def _cmd_seshadri(params):
    allowed = {"model", "p", "l", "m_max", "e_max", "kind", "sweep_csv"}
    _require(params, allowed, {"model", "m_max"})
    model = model_from_spec(str(params["model"]))
    kind = str(params.get("kind", "frobenius"))
    m_max = _int_param(params, "m_max")
    closed = None
    if kind == "ordinary":
        cert = seshadri_lower(model, m_max)
        if model.kind == "pn":
            closed = Fraction(1)
        payload = _certificate_payload(cert, closed)
        return payload, EXIT_OK
    if kind != "frobenius":
        raise ValueError(f"unknown kind {kind!r}; expected ordinary or frobenius")
    if "p" not in params:
        raise ValueError("missing parameters: ['p']")
    p = _int_param(params, "p")
    ell = _int_param(params, "l", 0)
    e_max = _int_param(params, "e_max", 4)
    table = frobenius_sweep_table(model, p, ell, m_max, e_max)
    if model.kind == "pn":
        closed = closed_form_pn(model.n, ell)
    payload = _certificate_payload(best_frobenius_certificate(table, p, ell), closed)
    if params.get("sweep_csv"):
        with open(_text_param(params, "sweep_csv"), "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["m", "e", "separates", "value"])
            for e, m, separating, value in table:
                writer.writerow(
                    [m, e, separating, format_fraction(value) if separating else ""]
                )
        payload["sweep_csv"] = params["sweep_csv"]
    return payload, EXIT_OK


def _cmd_cartier(params):
    _require(params, {"n", "p", "e", "box", "ideal", "seed"}, {"n", "p", "e", "box"})
    n = _int_param(params, "n")
    ideal = None
    if params.get("ideal"):
        gens = json.loads(_text_param(params, "ideal"))
        if not isinstance(gens, list) or not all(
            isinstance(g, list) and all(type(x) is int for x in g) for g in gens
        ):
            raise ValueError(f"ideal must be a JSON array of integer arrays, got {gens!r}")
        ideal = MonomialIdeal(n, tuple(map(tuple, gens)))
    payload = cartier_report(
        n,
        _int_param(params, "p"),
        _int_param(params, "e"),
        _int_param(params, "box"),
        ideal=ideal,
        seed=_int_param(params, "seed", 0),
    )
    ok = all(v for k, v in payload.items() if k != "counterexample")
    return payload, EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_pp(params):
    _require(params, {"n", "l"}, {"n", "l"})
    n, ell = _int_param(params, "n"), _int_param(params, "l")
    det = det_pp_recursive(n, ell)
    payload = {"rank": rank_pp(n, ell), "det": det.to_json()}
    return payload, EXIT_OK


def _cmd_mori_endgame(params):
    _require(params, {"a"}, {"a"})
    degrees = [int(x) for x in str(params["a"]).split(",") if x.strip() != ""]
    report = mori_endgame(degrees)
    return report.to_json(), EXIT_OK


def _cmd_fano(params):
    _require(params, {"input", "json"}, set())
    if "json" in params:
        doc = json.loads(_text_param(params, "json"))
    elif "input" in params:
        with open(_text_param(params, "input")) as handle:
            doc = json.load(handle)
    else:
        raise ValueError("fano needs --input FILE or --json TEXT")
    verdict = charpn_verdict(FanoInput.from_json(doc))
    return verdict.to_json(), EXIT_OK


def _cmd_verify_all(params):
    _require(params, set(), set())
    results = acceptance.run_all()
    payload = {
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return payload, EXIT_OK if payload["all_passed"] else EXIT_CHECK_FAILED


_HANDLERS = {
    "inclusion-check": _cmd_inclusion_check,
    "jets": _cmd_jets,
    "seshadri": _cmd_seshadri,
    "cartier": _cmd_cartier,
    "pp": _cmd_pp,
    "mori-endgame": _cmd_mori_endgame,
    "fano": _cmd_fano,
    "verify-all": _cmd_verify_all,
}


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(_flatten(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), payload))
    return rows


def render(payload, output_format: str) -> str:
    if output_format == "json":
        return dumps_report(payload)
    rows = _flatten(to_jsonable(payload))
    if output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["key", "value"])
        writer.writerows(rows)
        return buffer.getvalue()
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows) + "\n"


def run(config: RunConfig) -> tuple[int, str, str]:
    """Execute one configured command; returns (exit code, report, diagnostics)."""
    if config.output_format not in OUTPUT_FORMATS:
        return EXIT_BAD_INPUT, "", f"unknown output format {config.output_format!r}\n"
    handler = _HANDLERS.get(config.command)
    if handler is None:
        return EXIT_BAD_INPUT, "", f"unknown command {config.command!r}\n"
    try:
        payload, code = handler(config.parameters)
    except DataContradictionError as exc:
        return EXIT_CONTRADICTION, "", f"data contradiction: {exc}\n"
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        return EXIT_BAD_INPUT, "", f"invalid input: {exc}\n"
    return code, render(payload, config.output_format), ""


def _add_common(parser):
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobjets",
        description="Exact jet-separation and Seshadri-bound computations "
        "on monomial section models.",
    )
    parser.add_argument("--config", help="JSON file with {command, parameters, ...}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("inclusion-check", help="verify the power/bracket-power chain")
    for flag in ("--n", "--l", "--e", "--p"):
        p.add_argument(flag, type=int, required=True)
    _add_common(p)

    p = sub.add_parser("jets", help="decide separation of (Frobenius) jets")
    p.add_argument("--model", required=True, help='e.g. pn:2 or product:1,1,2,3')
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--e", type=int, default=0)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--oracle", action="store_true", help="cross-check against the cobasis oracle")
    _add_common(p)

    p = sub.add_parser("seshadri", help="certified lower bounds from a grid sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--m-max", dest="m_max", type=int, required=True)
    p.add_argument("--e-max", dest="e_max", type=int, default=4)
    p.add_argument("--kind", choices=("ordinary", "frobenius"), default="frobenius")
    p.add_argument("--sweep-csv", dest="sweep_csv", help="write the full sweep table")
    _add_common(p)

    p = sub.add_parser("cartier", help="trace-map verification battery")
    for flag in ("--n", "--p", "--e", "--box"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--ideal", help="JSON array of generator exponent arrays")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("pp", help="principal-parts rank and determinant")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("mori-endgame", help="split-bundle positivity arithmetic")
    p.add_argument("--a", required=True, help='summand degrees, e.g. "2,1,1"')
    _add_common(p)

    p = sub.add_parser("fano", help="characterization verdict from a JSON input")
    p.add_argument("--input", help="path to a JSON input document")
    p.add_argument("--json", help="inline JSON input document")
    _add_common(p)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    _add_common(p)

    return parser


def config_from_args(args) -> RunConfig:
    skip = {"command", "config", "format"}
    parameters = {
        key: value
        for key, value in vars(args).items()
        if key not in skip and value is not None and value is not False
    }
    return RunConfig(
        command=args.command,
        parameters=parameters,
        output_format=args.format,
    )


def config_from_document(doc) -> RunConfig:
    """The RunConfig of a parsed --config document, with its types checked."""
    if not isinstance(doc, dict):
        raise ValueError(f"the document must be a JSON object, got {doc!r}")
    command, parameters = doc["command"], doc.get("parameters", {})
    if not isinstance(command, str):
        raise ValueError(f"command must be a string, got {command!r}")
    if not isinstance(parameters, dict):
        raise ValueError(f"parameters must be a JSON object, got {parameters!r}")
    return RunConfig(command, parameters, doc.get("output_format", "json"))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            with open(args.config) as handle:
                config = config_from_document(json.load(handle))
        except (OSError, ValueError, KeyError) as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    elif args.command is None:
        parser.print_usage(file=sys.stderr)
        return EXIT_BAD_INPUT
    else:
        config = config_from_args(args)

    if config.command == "verify-all" and config.output_format in ("csv", "table"):
        # stream one line per criterion for human runs
        results = acceptance.run_all(echo=print)
        print(
            f"{sum(r.passed for r in results)}/{len(results)} acceptance criteria passed"
        )
        return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED

    code, report, diagnostics = run(config)
    if report:
        sys.stdout.write(report)
    if diagnostics:
        sys.stderr.write(diagnostics)
    return code


if __name__ == "__main__":
    sys.exit(main())
