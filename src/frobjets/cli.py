"""Batch command-line front end: sweeps, verifiers, machine-readable reports.

Exit codes: 0 success, 1 property or acceptance failure, 2 invalid input,
3 data contradiction. Reports go to stdout, diagnostics to stderr. Every
command runs serially, so its output depends on its configuration alone.

`COMMANDS` declares each subcommand once: handler, help, and parameters with
type, default and flag help. `build_parser` makes the flags from it; `run`
checks each request against it before a handler runs. A --config document
holds "command", "parameters" and "output_format" (other keys are ignored);
its parameters are the flags, as JSON integers, strings and booleans.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

from fractions import Fraction

from .bounds import FROBENIUS, certified_value, closed_form_pn, frobenius_sweep, seshadri_lower
from .cartier import cartier_report
from .fano import DataContradictionError, FanoInput, charpn_verdict
from .jets import missing_exponent, pn_threshold, separates_by_cobasis
from .models import model_from_spec
from .monomials import WORK_LIMIT, MonomialIdeal, _over_limit, verify_lemma_monomials
from .principal_parts import det_pp_closed, mori_endgame
from .serialize import (
    dumps_report,
    format_fraction,
    parse_int,
    parse_text_int,
    to_jsonable,
)

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


def _cmd_inclusion_check(params):
    report = verify_lemma_monomials(params["n"], params["l"], params["e"], params["p"])
    return report, EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def _cmd_jets(params):
    model = model_from_spec(params["model"])
    m, ell, e, p = params["m"], params["l"], params["e"], params["p"]
    witness = missing_exponent(model, m, ell, e, p)
    separates = witness is None
    payload = {"separates": separates, "m": m, "l": ell, "e": e, "p": p}
    if model.kind == "pn":
        payload["pn_threshold"] = pn_threshold(model.n, ell, e, p)
    if not separates:
        payload["witness_missing_exponent"] = list(witness)
    if params["oracle"]:
        oracle = separates_by_cobasis(model, m, ell, e, p)
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
    model = model_from_spec(params["model"])
    m_max = params["m_max"]
    closed = None
    if params["kind"] == "ordinary":
        # these default to None, so a value here was given and would be dropped
        given = [name for name in ("p", "l", "e_max", "sweep_csv") if params[name] is not None]
        if given:
            raise ValueError(f"parameters {given} apply only to kind 'frobenius'")
        cert = seshadri_lower(model, m_max)
        if model.kind == "pn":
            closed = Fraction(1)
        payload = _certificate_payload(cert, closed)
        return payload, EXIT_OK
    p = params["p"]
    ell = 0 if params["l"] is None else params["l"]
    e_max = 4 if params["e_max"] is None else params["e_max"]
    if p is None:
        raise ValueError("missing parameters: ['p']")
    thresholds, cert = frobenius_sweep(model, p, ell, m_max, e_max)
    # the table has a row per cell; a table too large is refused before its file is opened
    if params["sweep_csv"] and m_max * (e_max + 1) > WORK_LIMIT:
        raise _over_limit(f"the sweep table would hold {m_max}*{e_max + 1} rows")
    if model.kind == "pn":
        closed = closed_form_pn(model.n, ell)
    payload = _certificate_payload(cert, closed)
    if params["sweep_csv"]:
        with open(params["sweep_csv"], "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["m", "e", "separates", "value"])
            # one row of the grid at a time, e-major: cell (m, e) separates iff m >= m_e
            for e, m_e in enumerate(thresholds):
                for m in range(1, m_max + 1):
                    if m_e is not None and m >= m_e:
                        value = format_fraction(certified_value(FROBENIUS, (m, e), ell, p))
                        writer.writerow([m, e, True, value])
                    else:
                        writer.writerow([m, e, False, ""])
        payload["sweep_csv"] = params["sweep_csv"]
    return payload, EXIT_OK


def _cmd_cartier(params):
    n, ideal = params["n"], None
    if params["ideal"]:
        gens = json.loads(params["ideal"])
        if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
            raise ValueError(f"ideal must be a JSON array of integer arrays, got {gens!r}")
        ideal = MonomialIdeal(n, tuple(gens))
    payload = cartier_report(n, params["p"], params["e"], params["box"], ideal=ideal)
    ok = all(v for k, v in payload.items() if k != "counterexample")
    return payload, EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_pp(params):
    # the rank of the principal-parts bundle is the L exponent of its determinant
    det = det_pp_closed(params["n"], params["l"])
    return {"rank": det.l_exp, "det": det}, EXIT_OK


def _cmd_mori_endgame(params):
    degrees = [parse_text_int(x, "summand degree") for x in params["a"].split(",")]
    return mori_endgame(degrees), EXIT_OK


def _cmd_fano(params):
    if params["json"] is not None:
        doc = json.loads(params["json"])
    elif params["input"] is not None:
        with open(params["input"]) as handle:
            doc = json.load(handle)
    else:
        raise ValueError("fano needs --input FILE or --json TEXT")
    return charpn_verdict(FanoInput.from_json(doc)), EXIT_OK


def _cmd_verify_all(params):
    # imported here, as in main: only verify-all loads the battery
    from . import acceptance

    results = acceptance.run_all()
    all_passed = all(r.passed for r in results)
    payload = {"criteria": results, "all_passed": all_passed}
    return payload, EXIT_OK if all_passed else EXIT_CHECK_FAILED


REQUIRED = object()


class Param(NamedTuple):
    # kind is int, str, bool (a flag without a value) or a tuple of choices;
    # default is REQUIRED, a value, or None for a parameter that may be left out
    kind: object
    default: object = REQUIRED
    help: str | None = None


class Command(NamedTuple):
    # a handler returns its report (anything to_jsonable renders) and an exit code
    handler: Callable[[dict], tuple[object, int]]
    help: str
    params: dict[str, Param]


COMMANDS = {
    "inclusion-check": Command(
        _cmd_inclusion_check,
        "verify the power/bracket-power chain",
        {"n": Param(int), "l": Param(int), "e": Param(int), "p": Param(int)},
    ),
    "jets": Command(
        _cmd_jets,
        "decide separation of (Frobenius) jets",
        {
            "model": Param(str, help="e.g. pn:2 or product:1,1,2,3"),
            "m": Param(int),
            "l": Param(int),
            "e": Param(int, 0),
            "p": Param(int, 2),
            "oracle": Param(bool, False, "cross-check against the cobasis oracle"),
        },
    ),
    "seshadri": Command(
        _cmd_seshadri,
        "certified lower bounds from a grid sweep",
        {
            "model": Param(str),
            "p": Param(int, None),
            "l": Param(int, None),
            "m_max": Param(int),
            "e_max": Param(int, None),
            "kind": Param(("ordinary", "frobenius"), "frobenius"),
            "sweep_csv": Param(str, None, "write the full sweep table"),
        },
    ),
    "cartier": Command(
        _cmd_cartier,
        "trace-map verification battery",
        {
            "n": Param(int), "p": Param(int), "e": Param(int), "box": Param(int),
            "ideal": Param(str, None, "JSON array of generator exponent arrays"),
            "seed": Param(int, 0, "accepted and ignored: the checks use no random draws"),
        },
    ),
    "pp": Command(
        _cmd_pp, "principal-parts rank and determinant", {"n": Param(int), "l": Param(int)}
    ),
    "mori-endgame": Command(
        _cmd_mori_endgame,
        "split-bundle positivity arithmetic",
        {"a": Param(str, help='summand degrees, e.g. "2,1,1"')},
    ),
    "fano": Command(
        _cmd_fano,
        "characterization verdict from a JSON input",
        {
            "input": Param(str, None, "path to a JSON input document"),
            "json": Param(str, None, "inline JSON input document"),
        },
    ),
    "verify-all": Command(_cmd_verify_all, "run the full acceptance suite", {}),
}

_TYPE_NAMES = {str: "a string", bool: "a boolean"}


def _typed_parameters(params: dict[str, Param], given: dict) -> dict:
    """Every parameter of a command, defaults filled in, once `given` checks out."""
    unknown = set(given) - set(params)
    if unknown:
        raise ValueError(f"unknown parameters: {sorted(unknown)}")
    missing = {name for name, param in params.items() if param.default is REQUIRED} - set(given)
    if missing:
        raise ValueError(f"missing parameters: {sorted(missing)}")
    for name, value in given.items():
        kind = params[name].kind
        if kind is int:
            parse_int(value, f"parameter {name!r}")
        elif isinstance(kind, tuple):
            if value not in kind:
                raise ValueError(f"unknown {name} {value!r}; expected {' or '.join(kind)}")
        elif not isinstance(value, kind):
            raise ValueError(f"parameter {name!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return {name: given.get(name, param.default) for name, param in params.items()}


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
    command = COMMANDS.get(config.command)
    if command is None:
        return EXIT_BAD_INPUT, "", f"unknown command {config.command!r}\n"
    try:
        payload, code = command.handler(_typed_parameters(command.params, config.parameters))
        return code, render(payload, config.output_format), ""
    except DataContradictionError as exc:
        return EXIT_CONTRADICTION, "", f"data contradiction: {exc}\n"
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        return EXIT_BAD_INPUT, "", f"invalid input: {exc}\n"


def _int_flag(text: str) -> int:
    # argparse's own int() would take "1_0" and non-ASCII digits
    try:
        return parse_text_int(text, "flag")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


class _OneLineParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one line, like every other bad input."""

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of `COMMANDS`, built once per process; subparsers share its class."""
    parser = _OneLineParser(
        prog="frobjets",
        description="Exact jet-separation and Seshadri-bound computations "
        "on monomial section models.",
    )
    parser.add_argument("--config", help="JSON file with {command, parameters, ...}")
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        # a flag left out is absent from the namespace; run() fills its default
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for key, param in command.params.items():
            flag = "--" + key.replace("_", "-")
            if param.kind is bool:
                p.add_argument(flag, action="store_true", help=param.help)
                continue
            p.add_argument(
                flag,
                type=_int_flag if param.kind is int else None,
                choices=param.kind if isinstance(param.kind, tuple) else None,
                required=param.default is REQUIRED,
                help=param.help,
            )
        p.add_argument("--format", choices=OUTPUT_FORMATS, default="json")
    return parser


def _attach_negative_values(argv):
    # argparse reads a value such as "-3,0,5,1" as an unknown option; no flag
    # starts with a digit, so "--flag -3,..." is passed on as "--flag=-3,..."
    joined = []
    for token in argv:
        negative = token[:1] == "-" and token[1:2].isdigit()
        if negative and joined and joined[-1].startswith("--") and "=" not in joined[-1]:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def config_from_document(doc) -> RunConfig:
    """The RunConfig of a parsed --config document, with its types checked."""
    if not isinstance(doc, dict):
        raise ValueError(f"the document must be a JSON object, got {doc!r}")
    if "command" not in doc:
        raise ValueError("missing config key 'command'")
    command, parameters = doc["command"], doc.get("parameters", {})
    if not isinstance(command, str):
        raise ValueError(f"command must be a string, got {command!r}")
    if not isinstance(parameters, dict):
        raise ValueError(f"parameters must be a JSON object, got {parameters!r}")
    return RunConfig(command, parameters, doc.get("output_format", "json"))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    if args.config and args.command is not None:
        print(
            f"invalid config: --config cannot be combined with the subcommand {args.command!r}",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
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
        # build_parser leaves every flag that was not given out of args
        skip = ("command", "config", "format")
        parameters = {key: value for key, value in vars(args).items() if key not in skip}
        config = RunConfig(args.command, parameters, args.format)

    human = config.output_format in ("csv", "table")
    if config.command == "verify-all" and human and not config.parameters:
        # stream one line per criterion for human runs; run() rejects parameters
        from . import acceptance

        results = acceptance.run_all(echo=print)
        print(
            f"{sum(r.passed for r in results)}/{len(results)} acceptance criteria passed"
        )
        return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED

    code, report, diagnostics = run(config)
    sys.stdout.write(report)
    sys.stderr.write(diagnostics)
    return code


if __name__ == "__main__":
    sys.exit(main())
