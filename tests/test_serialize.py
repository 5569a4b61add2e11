from fractions import Fraction

import pytest

from frobjets.serialize import parse_fraction, parse_int, parse_text_int


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
