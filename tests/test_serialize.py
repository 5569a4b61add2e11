from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from frobjets.monomials import maximal_ideal
from frobjets.principal_parts import PicClass
from frobjets.serialize import dumps_report, parse_fraction, parse_int, parse_text_int, to_jsonable


@dataclass(frozen=True)
class _Inner:
    ratio: Fraction
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class _Report:
    name: str
    value: Fraction
    pair: tuple[int, int]
    checks: dict
    inner: _Inner
    missing: int | None = None
    tags: frozenset = field(default=frozenset())


class TestToJsonable:
    def test_dataclass_renders_by_its_fields(self):
        report = _Report(
            name="r",
            value=Fraction(3, 4),
            pair=(1, 2),
            checks={"bound": Fraction(5, 2), "ok": True, 3: (Fraction(1), -1)},
            inner=_Inner(Fraction(-1, 3), (4, 0)),
            tags=frozenset({"b", "a"}),
        )
        assert to_jsonable(report) == {
            "name": "r",
            "value": "3/4",
            "pair": [1, 2],
            "checks": {"bound": "5/2", "ok": True, "3": ["1/1", -1]},
            "inner": {"ratio": "-1/3", "degrees": [4, 0]},
            "missing": None,
            "tags": ["a", "b"],
        }

    def test_to_json_overrides_the_fields(self):
        # a wire format that differs from the fields: no _rule, "generators" for gens
        assert to_jsonable(PicClass(4, 6)) == {"omega": 4, "l": 6}
        assert to_jsonable({"ideal": maximal_ideal(2)}) == {
            "ideal": {"n": 2, "generators": [[0, 1], [1, 0]]}
        }

    def test_canonical_text(self):
        assert dumps_report(_Inner(Fraction(1, 2), ())) == (
            '{\n  "degrees": [],\n  "ratio": "1/2"\n}\n'
        )

    @pytest.mark.parametrize("value", [0.5, _Report, object()])
    def test_refuses_what_it_cannot_render_exactly(self, value):
        with pytest.raises((TypeError, ValueError)):
            to_jsonable({"x": value})


class TestParseInt:
    @pytest.mark.parametrize("value", [0, -3, 2, 10**40])
    def test_integers_pass_through(self, value):
        assert parse_int(value, "n") == value

    @pytest.mark.parametrize(
        "value", [True, False, 2.0, 2.5, float("inf"), "2", None, [2], {}, Fraction(2)]
    )
    def test_everything_else_rejected_naming_the_field(self, value):
        with pytest.raises(ValueError, match=r"^model field 'n' must be an integer, got "):
            parse_int(value, "model field 'n'")


class TestParseTextInt:
    @pytest.mark.parametrize(
        "text, value", [("0", 0), ("12", 12), ("-3", -3), ("+2", 2), (" 7 ", 7), ("007", 7)]
    )
    def test_ascii_digits(self, text, value):
        assert parse_text_int(text, "n") == value

    @pytest.mark.parametrize(
        "text", ["", "-", "1_0", "\u0662", "\u00b2", "1.0", "1e3", "0x10", "--1", "1 2", "x"]
    )
    def test_everything_else_rejected_naming_the_field(self, text):
        with pytest.raises(ValueError, match=r"^pn dimension must be an integer, got "):
            parse_text_int(text, "pn dimension")


class TestParseFraction:
    def test_text_and_integers(self):
        assert parse_fraction("13/4") == Fraction(13, 4)
        assert parse_fraction("3") == Fraction(3)
        assert parse_fraction(5) == Fraction(5)

    @pytest.mark.parametrize(
        "value", ["1/0", "x", None, [1], 0.1, 4.0, float("inf"), True, "1_0/3", "3/\u0662"]
    )
    def test_malformed_rejected(self, value):
        with pytest.raises(ValueError):
            parse_fraction(value)
