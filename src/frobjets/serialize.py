"""Lossless JSON-friendly rendering of exact values, and the input parsers.

Rationals serialize as "num/den" strings and minus infinity as "-inf", so
emitted reports parse back without any floating point. parse_int is the
package's one integer check, run once on an integer argument where it
enters the package. DataContradictionError is defined here, where the CLI
can catch it without importing `fano`, which raises it and exports it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

# the interpreter's limit on the digits of an int converted to text; 0, or no
# such function (before Python 3.10.7), means no limit
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


class DataContradictionError(ValueError):
    """Supplied geometric data contradict a claimed bound."""


def _check_digits(value: int) -> int:
    """The int `value`, refused when its decimal text would pass the digit limit.

    An int of at most 3*limit bits is below 8^limit, so only a longer one is
    compared with 10^limit.
    """
    limit = _max_str_digits()
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise ValueError(f"the report holds an integer of more than {limit} digits")
    return value


def check_digit_estimate(low_bits: int, what: str) -> None:
    """Refuse `what`, uncomputed, when it is at least 2^low_bits and that passes the digit limit.

    2^b >= 10^(3b/10), so such a value has at least 3b//10 + 1 digits.
    """
    limit, digits = _max_str_digits(), low_bits * 3 // 10 + 1
    if limit and digits > limit:
        raise ValueError(f"{what} has at least {digits} digits, over the report's limit of {limit}")


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return f"{_check_digits(value.numerator)}/{_check_digits(value.denominator)}"


def parse_int(value, name: str, low: int | None = None) -> int:
    """The integer `value` itself; ValueError naming `name` for anything else.

    The package's one integer check, made once where an integer argument or
    a JSON document's integer enters the package. Only an exact int passes:
    a bool or another int subclass (an IntEnum member), a float (even 2.0 or
    1e400), text or None is refused rather than coerced. With `low`, a value
    below it is refused too, as "`name` must be >= `low`".
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


def parse_text_int(text: str, name: str) -> int:
    """The integer written in `text`; ValueError naming `name` for anything else.

    The one integer check on text: an optional sign and ASCII digits, with
    surrounding whitespace ignored. Unlike int(), it refuses underscores
    ("1_0") and non-ASCII digits ("٢").
    """
    digits = text.strip()
    unsigned = digits[1:] if digits[:1] in ("+", "-") else digits
    if not (unsigned.isascii() and unsigned.isdigit()):
        raise ValueError(f"{name} must be an integer, got {text!r}")
    return int(digits)


def parse_fraction(value) -> Fraction:
    """An exact rational from "num/den" text, an exact int, or a Fraction.

    Raises ValueError on anything else, a float included (0.1 is not 1/10).
    """
    try:
        if isinstance(value, str):
            num, slash, den = value.partition("/")
            den = parse_text_int(den, "denominator") if slash else 1
            return Fraction(parse_text_int(num, "numerator"), den)
        if isinstance(value, Fraction):
            return value
        return Fraction(parse_int(value, "value"))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {value!r}") from exc


def to_jsonable(obj):
    """Recursively convert exact values into JSON-safe primitives.

    A dataclass renders as the dict of its fields, unless it defines
    `to_json` for a wire format that differs from them.
    """
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, float):
        if obj == float("-inf"):
            return "-inf"
        raise ValueError(f"refusing to serialize inexact float {obj!r}")
    if isinstance(obj, int):
        return _check_digits(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(x) for x in items]
    if is_dataclass(obj) and not isinstance(obj, type):
        if hasattr(obj, "to_json"):
            return to_jsonable(obj.to_json())
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(payload) -> str:
    """Canonical JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(to_jsonable(payload), indent=2, sort_keys=True) + "\n"
