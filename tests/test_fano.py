from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobjets.fano import (
    RULE_ALL_POINTS_DEGREE,
    RULE_POINT_CHAR_P,
    RULE_POINT_CHAR_ZERO,
    DataContradictionError,
    FanoInput,
    adjoint_jet_report,
    charpn_verdict,
    degree_bound_check,
    seshadri_upper_from_curves,
    seshineq_check,
)
from frobjets.jets import s_jets
from frobjets.models import projective_space, scaled_model


class TestAdjointJetReport:
    def test_seshadri_criterion_fires(self):
        report = adjoint_jet_report(3, 1, eps=Fraction(9, 2))
        assert report.seshadri_criterion
        assert report.separates
        assert "1-jets" in report.conclusion

    def test_frobenius_needs_strict(self):
        report = adjoint_jet_report(3, 1, eps_frob=Fraction(2))
        assert report.frobenius_criterion is False
        assert not report.separates

    def test_boundary_is_excluded(self):
        report = adjoint_jet_report(3, 1, eps=Fraction(4))
        assert not report.seshadri_criterion
        assert not report.separates
        assert report.conclusion == "no conclusion"

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 6),
        ell=st.integers(0, 6),
        eps=st.none() | st.fractions(Fraction(1, 4), 15, max_denominator=6),
        eps_frob=st.none() | st.fractions(Fraction(1, 4), 8, max_denominator=6),
    )
    def test_either_criterion_separates(self, n, ell, eps, eps_frob):
        assume(eps is not None or eps_frob is not None)
        report = adjoint_jet_report(n, ell, eps=eps, eps_frob=eps_frob)
        # the threshold implied through the comparison factor is the Seshadri criterion
        implied = None if eps is None else Fraction(ell + 1, ell + n) * eps > ell + 1
        assert implied == report.seshadri_criterion
        either = bool(report.seshadri_criterion) or bool(report.frobenius_criterion)
        assert report.separates == either

    def test_requires_some_bound(self):
        with pytest.raises(ValueError):
            adjoint_jet_report(2, 0)

    @pytest.mark.parametrize("bound", ["eps", "eps_frob"])
    def test_float_bound_refused(self, bound):
        # 4.6 > n + ell would fire the criterion if a float were compared
        with pytest.raises(ValueError, match="^not an exact rational: 4.6$"):
            adjoint_jet_report(3, 1, **{bound: 4.6})

    def test_text_bound_parsed_exactly(self):
        report = adjoint_jet_report(3, 1, eps="9/2", eps_frob="2")
        assert report.seshadri_criterion and report.frobenius_criterion is False


class TestSeshineq:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pn_data_with_equality(self, n):
        eps = Fraction(n + 1)
        model = scaled_model(projective_space(n), n + 1)
        s_values = {m: s_jets(model, m) for m in range(1, 11)}
        assert all(s_values[m] == m * (n + 1) for m in s_values)
        assert seshineq_check(n, eps, s_values)
        # both links of the chain are equalities on this data
        for m, s in s_values.items():
            assert (m + 1) * eps - (n + 1) == s == m * eps

    def test_violation_detected(self):
        n = 3
        assert not seshineq_check(n, Fraction(n + 1), {1: n})

    def test_every_entry_checked_after_a_violation(self):
        with pytest.raises(ValueError, match=r"^s\(m\) must be an integer"):
            seshineq_check(3, Fraction(4), {1: 3, 2: 4.0})

    def test_float_eps_refused(self):
        with pytest.raises(ValueError, match="^not an exact rational"):
            seshineq_check(1, 2.0, {1: 2})


class TestCurveUpperBounds:
    def test_line(self):
        assert seshadri_upper_from_curves([(4, 1)]) == 4

    def test_min_of_ratios(self):
        assert seshadri_upper_from_curves([(6, 2), (4, 1)]) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            seshadri_upper_from_curves([])

    @pytest.mark.parametrize("curves", [[(True, 1)], [(4, 0)], [(4,)], 4])
    def test_malformed_curves_rejected(self, curves):
        with pytest.raises(ValueError, match="^curve|^curves_through_x"):
            seshadri_upper_from_curves(curves)


class TestDegreeBound:
    def test_p3_equality(self):
        assert degree_bound_check(3, Fraction(4), 64)

    def test_strict_failure(self):
        assert not degree_bound_check(3, Fraction(4), 63)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_threshold_equality(self, n):
        assert degree_bound_check(n, Fraction(n + 1), (n + 1) ** n)

    def test_exactness_beats_floats(self):
        # 10^15 + 1 vs (10^5 + something)^3 style traps stay exact
        assert degree_bound_check(3, Fraction(10**5), 10**15)
        assert not degree_bound_check(3, Fraction(10**5) + Fraction(1, 10**6), 10**15)


class TestCharPnVerdict:
    def test_point_rule_char_p(self):
        verdict = charpn_verdict(
            FanoInput(n=3, char=2, eps_lower_at_point=Fraction(4))
        )
        assert verdict.verdict == "isomorphic_to_Pn"
        assert verdict.rule == RULE_POINT_CHAR_P

    def test_point_rule_char_zero(self):
        verdict = charpn_verdict(FanoInput(n=3, char=0, eps_lower_at_point=Fraction(4)))
        assert verdict.rule == RULE_POINT_CHAR_ZERO

    def test_quadric_curve_data_blocks(self):
        verdict = charpn_verdict(
            FanoInput(n=3, char=5, curves_through_x=((3, 1),))
        )
        assert verdict.verdict == "no_conclusion"
        assert verdict.warnings

    def test_just_below_threshold(self):
        verdict = charpn_verdict(
            FanoInput(n=3, char=2, eps_lower_at_point=Fraction(4) - Fraction(1, 1000))
        )
        assert verdict.verdict == "no_conclusion"

    def test_all_points_rule(self):
        verdict = charpn_verdict(
            FanoInput(n=3, char=2, eps_lower_everywhere=Fraction(4), antican_selfint=64)
        )
        assert verdict.verdict == "isomorphic_to_Pn"
        assert RULE_ALL_POINTS_DEGREE in verdict.fired
        assert verdict.rule == RULE_POINT_CHAR_P

    def test_curve_upper_bounds_never_fire(self):
        verdict = charpn_verdict(FanoInput(n=2, char=3, curves_through_x=((9, 1),)))
        assert verdict.verdict == "no_conclusion"

    def test_contradiction_curves_vs_lower(self):
        with pytest.raises(DataContradictionError):
            charpn_verdict(
                FanoInput(
                    n=3,
                    char=5,
                    eps_lower_at_point=Fraction(4),
                    curves_through_x=((3, 1),),
                )
            )

    def test_contradiction_degree(self):
        with pytest.raises(DataContradictionError):
            charpn_verdict(
                FanoInput(n=3, char=2, eps_lower_at_point=Fraction(5), antican_selfint=64)
            )

    def test_contradiction_rc_degree(self):
        with pytest.raises(DataContradictionError):
            charpn_verdict(
                FanoInput(n=3, char=2, eps_lower_everywhere=Fraction(4), min_rc_degree=3)
            )

    def test_from_json(self):
        inp = FanoInput.from_json(
            {
                "n": 3,
                "char": 2,
                "eps_lower_at_point": "4/1",
                "curves_through_x": [[4, 1]],
            }
        )
        assert charpn_verdict(inp).verdict == "isomorphic_to_Pn"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FanoInput.from_json({"n": 2, "bogus": 1})

    def test_unknown_keys_message_lists_them_sorted(self):
        with pytest.raises(ValueError, match=r"^unknown FanoInput keys: \['a', 'b'\]$"):
            FanoInput.from_json({"n": 2, "b": 1, "a": 2, "char": 2})

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3, "char": 5, "curves_through_x": [[3.5, 1]]},
            {"n": 3, "char": 5, "curves_through_x": [["3", 1]]},
            {"n": 3, "char": 5, "curves_through_x": [[3, True]]},
            {"n": 3.0},
            {"n": 3, "char": 2.0},
            {"n": 3, "antican_selfint": "8"},
            {"n": 3, "min_rc_degree": 4.5},
        ],
    )
    def test_non_integer_fields_rejected(self, doc):
        with pytest.raises(ValueError, match="must be an integer"):
            FanoInput.from_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "char": 3, "min_rc_degree": -2},
            {"n": 2, "char": 3, "min_rc_degree": 0, "eps_lower_everywhere": "1"},
        ],
    )
    def test_min_rc_degree_below_one_refused(self, doc):
        # a degree below 1 is malformed input, not data that contradict a bound
        with pytest.raises(ValueError, match="^min_rc_degree must be >= 1$") as raised:
            FanoInput.from_json(doc)
        assert not isinstance(raised.value, DataContradictionError)


def _bound(n):
    # a positive rational, with the threshold n + 1 and values just below it over-weighted
    return st.one_of(
        st.sampled_from([Fraction(n + 1), Fraction(n + 1) - Fraction(1, 7), Fraction(n)]),
        st.fractions(Fraction(1, 4), 2 * n + 4, max_denominator=4),
    )


@st.composite
def fano_inputs(draw):
    n = draw(st.integers(1, 5))
    fields = {"n": n, "char": draw(st.sampled_from([0, 2, 3, 5, 7]))}
    optional = {
        "eps_lower_at_point": _bound(n),
        "eps_lower_everywhere": _bound(n),
        "antican_selfint": st.one_of(
            st.sampled_from([(n + 1) ** n - 1, (n + 1) ** n]), st.integers(1, 3 * (n + 1) ** n)
        ),
        "min_rc_degree": st.integers(1, 2 * n + 4),
        "curves_through_x": st.lists(
            st.tuples(st.integers(1, 3 * n + 4), st.integers(1, 3)), min_size=1, max_size=2
        ).map(tuple),
    }
    for name, values in optional.items():
        if draw(st.booleans()):
            fields[name] = draw(values)
    return FanoInput(**fields)


def specified_verdict(inp):
    """What charpn_verdict must answer, from its statement: (fired, checks, warnings).

    Raises DataContradictionError with the message of the first contradiction.
    """
    n, char, everywhere = inp.n, inp.char, inp.eps_lower_everywhere
    lows = [b for b in (inp.eps_lower_at_point, everywhere) if b is not None]
    best = max(lows) if lows else None
    upper = min((Fraction(d, k) for d, k in inp.curves_through_x), default=None)
    if upper is not None and best is not None and upper < best:
        raise DataContradictionError(
            f"curve upper bound {upper} is below the claimed lower bound {best}"
        )
    if everywhere is not None and inp.min_rc_degree is not None and inp.min_rc_degree < everywhere:
        raise DataContradictionError(
            "minimal rational-curve degree is below the everywhere lower bound"
        )
    if inp.antican_selfint is not None and best is not None and best**n > inp.antican_selfint:
        raise DataContradictionError(
            "claimed lower bound exceeds the n-th root of the anti-canonical degree"
        )
    fired, checks, warnings = [], {}, []
    if best is not None and best >= n + 1:
        fired.append(RULE_POINT_CHAR_P if char > 0 else RULE_POINT_CHAR_ZERO)
    all_points = char > 0 and everywhere is not None and everywhere >= n + 1
    if all_points:
        fired.append(RULE_ALL_POINTS_DEGREE)
    if upper is not None:
        checks["curve_upper_bound"] = upper
        if upper < n + 1:
            warnings.append(
                f"curve upper bound {upper} < {n + 1}: the point hypothesis cannot hold here"
            )
    if all_points:
        checks["degree_condition_derivable"] = True
    if best is not None:
        checks["point_bound_met"] = best >= n + 1
    return fired, checks, warnings


class TestCharPnVerdictSpecification:
    @settings(max_examples=400, deadline=None)
    @given(fano_inputs())
    def test_matches_the_specification(self, inp):
        try:
            fired, checks, warnings = specified_verdict(inp)
        except DataContradictionError as exc:
            with pytest.raises(DataContradictionError) as raised:
                charpn_verdict(inp)
            assert str(raised.value) == str(exc)
            return
        verdict = charpn_verdict(inp)
        assert verdict.fired == tuple(fired)
        assert verdict.rule == (fired[0] if fired else None)
        assert verdict.verdict == ("isomorphic_to_Pn" if fired else "no_conclusion")
        assert verdict.checks == checks
        assert verdict.warnings == tuple(warnings)

    def test_everywhere_bound_fires_both_rules(self):
        inp = FanoInput.from_json(
            {"n": 2, "char": 3, "eps_lower_everywhere": "3", "antican_selfint": 9}
        )
        verdict = charpn_verdict(inp)
        assert verdict.fired == (RULE_POINT_CHAR_P, RULE_ALL_POINTS_DEGREE)
        assert verdict.checks == {"degree_condition_derivable": True, "point_bound_met": True}
        assert verdict.warnings == ()

    def test_everywhere_bound_in_char_zero_fires_the_point_rule_only(self):
        verdict = charpn_verdict(FanoInput(n=2, eps_lower_everywhere=Fraction(3)))
        assert verdict.fired == (RULE_POINT_CHAR_ZERO,)
        assert verdict.checks == {"point_bound_met": True}
