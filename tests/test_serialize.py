import re
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

import pytest

import frobjets
from frobjets import serialize
from frobjets.cartier import (
    MonomialForm,
    cartier_report,
    ideal_identity_counterexample,
    iteration_counterexample,
    residue_table_counterexample,
    semilinearity_counterexample,
    surjectivity_counterexample,
)
from frobjets.jets import missing_exponent
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

    def test_integers_up_to_the_digit_limit(self, monkeypatch):
        # at the interpreter's limit of 50 digits: 10^50 - 1 renders, 10^50 has 51 digits
        monkeypatch.setattr(serialize, "_max_str_digits", lambda: 50)
        top = 10**50 - 1
        assert dumps_report({"x": [top, -top, Fraction(1, top)]}) == (
            f'{{\n  "x": [\n    {top},\n    -{top},\n    "1/{top}"\n  ]\n}}\n'
        )
        message = r"^the report holds an integer of more than 50 digits$"
        for value in (top + 1, -top - 1, Fraction(top + 1, 3), Fraction(3, top + 1)):
            with pytest.raises(ValueError, match=message):
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


class _Two(IntEnum):
    TWO = 2


_P2 = frobjets.projective_space(2)
_M2 = maximal_ideal(2)
_CERT = frobjets.certificate_at(_P2, 2, 1, 4, 1)
_FORMS = [(3, 1)]

# every integer parameter of the public functions: (name in the diagnostic,
# the call with the value v in that parameter and valid values elsewhere)
INTEGER_PARAMETERS = [
    ("variable count n", lambda v: frobjets.MonomialIdeal(v, ())),
    ("variable count n", lambda v: frobjets.maximal_ideal(v)),
    ("variable count n", lambda v: frobjets.minimalize([(1, 0)], v)),
    ("power exponent", lambda v: frobjets.power(_M2, v)),
    ("characteristic", lambda v: frobjets.bracket_power(_M2, v, 1)),
    ("Frobenius exponent e", lambda v: frobjets.bracket_power(_M2, 2, v)),
    ("variable count n", lambda v: frobjets.verify_lemma_monomials(v, 1, 1, 2)),
    ("ell", lambda v: frobjets.verify_lemma_monomials(2, v, 1, 2)),
    ("e", lambda v: frobjets.verify_lemma_monomials(2, 1, v, 2)),
    ("characteristic", lambda v: frobjets.verify_lemma_monomials(2, 1, 1, v)),
    ("characteristic", lambda v: frobjets.trace(MonomialForm(1, (3, 1)), v, 1)),
    ("e", lambda v: frobjets.trace(MonomialForm(1, (3, 1)), 2, v)),
    ("coefficient", lambda v: frobjets.trace(MonomialForm(v, (3, 1)), 2, 1)),
    ("n", lambda v: surjectivity_counterexample(v, 2, 1, 2)),
    ("characteristic", lambda v: surjectivity_counterexample(2, v, 1, 2)),
    ("e", lambda v: surjectivity_counterexample(2, 2, v, 2)),
    ("box", lambda v: surjectivity_counterexample(2, 2, 1, v)),
    ("characteristic", lambda v: ideal_identity_counterexample(_M2, v, 1)),
    ("e", lambda v: ideal_identity_counterexample(_M2, 2, v)),
    ("n", lambda v: residue_table_counterexample(v, 2, 1)),
    ("characteristic", lambda v: residue_table_counterexample(2, v, 1)),
    ("e", lambda v: residue_table_counterexample(2, 2, v)),
    ("characteristic", lambda v: semilinearity_counterexample(v, 1, [])),
    ("e", lambda v: semilinearity_counterexample(2, v, [])),
    ("characteristic", lambda v: iteration_counterexample(v, 1, 1, _FORMS)),
    ("e1", lambda v: iteration_counterexample(2, v, 1, _FORMS)),
    ("e2", lambda v: iteration_counterexample(2, 1, v, _FORMS)),
    ("variable count n", lambda v: cartier_report(v, 2, 1, 2)),
    ("characteristic", lambda v: cartier_report(2, v, 1, 2)),
    ("e", lambda v: cartier_report(2, 2, v, 2)),
    ("box", lambda v: cartier_report(2, 2, 1, v)),
    ("n", lambda v: frobjets.pn_threshold(v, 1, 1, 2)),
    ("ell", lambda v: frobjets.pn_threshold(2, v, 1, 2)),
    ("e", lambda v: frobjets.pn_threshold(2, 1, v, 2)),
    ("characteristic", lambda v: frobjets.pn_threshold(2, 1, 1, v)),
    ("ell", lambda v: frobjets.frobenius_threshold(_P2, v, 1, 2)),
    ("e", lambda v: frobjets.frobenius_threshold(_P2, 1, v, 2)),
    ("characteristic", lambda v: frobjets.frobenius_threshold(_P2, 1, 1, v)),
    ("degree m", lambda v: frobjets.separates_frobenius_jets(_P2, v, 1, 1, 2)),
    ("ell", lambda v: frobjets.separates_frobenius_jets(_P2, 4, v, 1, 2)),
    ("e", lambda v: frobjets.separates_frobenius_jets(_P2, 4, 1, v, 2)),
    ("characteristic", lambda v: frobjets.separates_frobenius_jets(_P2, 4, 1, 1, v)),
    ("degree m", lambda v: frobjets.separates_jets(_P2, v, 1)),
    ("ell", lambda v: frobjets.separates_jets(_P2, 4, v)),
    ("degree m", lambda v: frobjets.s_jets(_P2, v)),
    ("degree m", lambda v: frobjets.s_frobenius(_P2, v, 1, 2)),
    ("ell", lambda v: frobjets.s_frobenius(_P2, 4, v, 2)),
    ("characteristic", lambda v: frobjets.s_frobenius(_P2, 4, 1, v)),
    ("model dimension n", lambda v: frobjets.SectionModel(v, (((1, 1), 1),))),
    ("constraint weight", lambda v: frobjets.SectionModel(2, (((1, v), 1),))),
    ("constraint slope", lambda v: frobjets.SectionModel(2, (((1, 1), v),))),
    ("n", lambda v: frobjets.projective_space(v)),
    ("n1", lambda v: frobjets.product_projective(v, 1, 1, 1)),
    ("n2", lambda v: frobjets.product_projective(1, v, 1, 1)),
    ("c", lambda v: frobjets.product_projective(1, 1, v, 1)),
    ("d", lambda v: frobjets.product_projective(1, 1, 1, v)),
    ("model dimension n", lambda v: frobjets.custom_staircase(v, [((1,), 1)])),
    ("scale factor r", lambda v: frobjets.scaled_model(_P2, v)),
    ("n", lambda v: frobjets.model_from_config({"kind": "pn", "n": v})),
    ("m_max", lambda v: frobjets.seshadri_lower(_P2, v)),
    ("characteristic", lambda v: frobjets.frobenius_seshadri_lower(_P2, v, 1, 5, 2)),
    ("ell", lambda v: frobjets.frobenius_seshadri_lower(_P2, 2, v, 5, 2)),
    ("m_max", lambda v: frobjets.frobenius_seshadri_lower(_P2, 2, 1, v, 2)),
    ("e_max", lambda v: frobjets.frobenius_seshadri_lower(_P2, 2, 1, 5, v)),
    ("characteristic", lambda v: frobjets.certificate_at(_P2, v, 1, 4, 1)),
    ("ell", lambda v: frobjets.certificate_at(_P2, 2, v, 4, 1)),
    ("degree m", lambda v: frobjets.certificate_at(_P2, 2, 1, v, 1)),
    ("e", lambda v: frobjets.certificate_at(_P2, 2, 1, 4, v)),
    ("n", lambda v: frobjets.closed_form_pn(v, 1)),
    ("ell", lambda v: frobjets.closed_form_pn(2, v)),
    ("n", lambda v: frobjets.subsequence_demo(v, 1, 2, 3)),
    ("ell", lambda v: frobjets.subsequence_demo(2, v, 2, 3)),
    ("characteristic", lambda v: frobjets.subsequence_demo(2, 1, v, 3)),
    ("e_max", lambda v: frobjets.subsequence_demo(2, 1, 2, v)),
    ("r", lambda v: frobjets.tensor_power_scale(_CERT, v, 2)),
    ("p", lambda v: frobjets.tensor_power_scale(_CERT, 2, v)),
    ("j", lambda v: frobjets.gg_twist_extend(_CERT, v, _P2)),
    ("n", lambda v: frobjets.check_comparison(v, 1, Fraction(1), Fraction(1, 2))),
    ("ell", lambda v: frobjets.check_comparison(2, v, Fraction(1), Fraction(1, 2))),
    ("n", lambda v: frobjets.check_level_comparison(v, 3, 1, Fraction(1), Fraction(1))),
    ("ell", lambda v: frobjets.check_level_comparison(2, v, 0, Fraction(1), Fraction(1))),
    ("lower_level", lambda v: frobjets.check_level_comparison(2, 3, v, Fraction(1), Fraction(1))),
    ("ell", lambda v: frobjets.exact_frobenius_seshadri(_P2, v)),
    ("n", lambda v: frobjets.adjoint_jet_report(v, 1, eps=Fraction(5))),
    ("ell", lambda v: frobjets.adjoint_jet_report(2, v, eps_frob=Fraction(3))),
    ("curve degree", lambda v: frobjets.seshadri_upper_from_curves([(v, 1)])),
    ("curve multiplicity", lambda v: frobjets.seshadri_upper_from_curves([(3, v)])),
    ("n", lambda v: frobjets.FanoInput(n=v)),
    ("char", lambda v: frobjets.FanoInput(n=2, char=v)),
    ("antican_selfint", lambda v: frobjets.FanoInput(n=2, antican_selfint=v)),
    ("min_rc_degree", lambda v: frobjets.FanoInput(n=2, min_rc_degree=v)),
    ("curve degree", lambda v: frobjets.FanoInput(n=2, curves_through_x=((v, 1),))),
    ("curve multiplicity", lambda v: frobjets.FanoInput(n=2, curves_through_x=((3, v),))),
    ("n", lambda v: frobjets.degree_bound_check(v, Fraction(2), 9)),
    ("antican_selfint", lambda v: frobjets.degree_bound_check(2, Fraction(2), v)),
    ("n", lambda v: frobjets.rank_pp(v, 1)),
    ("ell", lambda v: frobjets.rank_pp(2, v)),
    ("n", lambda v: frobjets.det_pp_recursive(v, 1)),
    ("ell", lambda v: frobjets.det_pp_recursive(2, v)),
    ("n", lambda v: frobjets.det_pp_closed(v, 1)),
    ("ell", lambda v: frobjets.det_pp_closed(2, v)),
    ("summand degree", lambda v: frobjets.mori_endgame([v, 1, 1])),
    ("n", lambda v: frobjets.seshineq_check(v, Fraction(3), {1: 1})),
    ("degree m", lambda v: frobjets.seshineq_check(2, Fraction(3), {v: 1})),
    ("s(m)", lambda v: frobjets.seshineq_check(2, Fraction(3), {1: v})),
    ("degree m", lambda v: missing_exponent(_P2, v, 1, 1, 2)),
    ("ell", lambda v: missing_exponent(_P2, 4, v, 1, 2)),
    ("e", lambda v: missing_exponent(_P2, 4, 1, v, 2)),
    ("characteristic", lambda v: missing_exponent(_P2, 4, 1, 1, v)),
    ("degree m", lambda v: frobjets.separates_by_cobasis(_P2, v, 1, 1, 2)),
    ("ell", lambda v: frobjets.separates_by_cobasis(_P2, 4, v, 1, 2)),
    ("e", lambda v: frobjets.separates_by_cobasis(_P2, 4, 1, v, 2)),
    ("characteristic", lambda v: frobjets.separates_by_cobasis(_P2, 4, 1, 1, v)),
    ("witness m", lambda v: frobjets.BoundCertificate("seshadri", (v, 1))),
    ("witness s", lambda v: frobjets.BoundCertificate("seshadri", (2, v))),
    ("witness e", lambda v: frobjets.BoundCertificate("frobenius_seshadri", (4, v), 1, 2)),
    ("ell", lambda v: frobjets.BoundCertificate("frobenius_seshadri", (4, 1), v, 2)),
    ("characteristic", lambda v: frobjets.BoundCertificate("frobenius_seshadri", (4, 1), 1, v)),
]


class TestEveryIntegerParameter:
    @pytest.mark.parametrize("value", [2.0, True, _Two.TWO], ids=["float", "bool", "IntEnum"])
    @pytest.mark.parametrize(
        "name, call",
        INTEGER_PARAMETERS,
        ids=[f"{i}-{name}" for i, (name, _) in enumerate(INTEGER_PARAMETERS)],
    )
    def test_refused_naming_the_parameter(self, name, call, value):
        # the type is refused before any range check, which 2 or 1 might pass
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer, got "):
            call(value)


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
        "value",
        ["1/0", "4/", "/4", "x", None, [1], 0.1, 4.0, float("inf"), True, "1_0/3", "3/\u0662"],
    )
    def test_malformed_rejected(self, value):
        with pytest.raises(ValueError):
            parse_fraction(value)
