import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_jets import (
    SLOPE_ZERO,
    SLOPE_ZERO_ONE_VARIABLE,
    ZERO_ROW_SLOPE_ZERO,
    ZERO_ROW_THREE,
    models_up_to_three_variables,
)

from frobjets import bounds
from frobjets.bounds import (
    FROBENIUS,
    SESHADRI,
    BoundCertificate,
    RuleInapplicableError,
    certificate_at,
    certified_value,
    check_comparison,
    check_level_comparison,
    closed_form_pn,
    exact_frobenius_seshadri,
    exact_seshadri,
    frobenius_seshadri_lower,
    frobenius_sweep,
    gg_twist_extend,
    seshadri_lower,
    subsequence_demo,
    tensor_power_scale,
)
from frobjets.jets import (
    frobenius_threshold,
    missing_exponent,
    pn_threshold,
    s_frobenius,
    s_jets,
    separates_by_cobasis,
    separates_frobenius_jets,
)
from frobjets.models import (
    custom_staircase,
    product_projective,
    projective_space,
    scaled_model,
)


def oracle_sweep_table(model, p, ell, m_max, e_max):
    """Reference: ask the cobasis oracle at every cell of the grid, e-major."""
    rows = []
    for e in range(e_max + 1):
        for m in range(1, m_max + 1):
            separating = separates_by_cobasis(model, m, ell, e, p)
            value = Fraction((p**e - 1) * (ell + 1), m) if separating else None
            rows.append((e, m, separating, value))
    return rows


def frobenius_sweep_table(model, p, ell, m_max, e_max):
    """Reference: all (e, m, separates, value) cells of the grid, e-major.

    One threshold per e decides its row, as on the fast path; the per-cell
    oracle above checks the table, and the table checks the reduction.
    """
    rows = []
    for e, m_e in enumerate(frobenius_sweep(model, p, ell, m_max, e_max)[0]):
        numerator = (p**e - 1) * (ell + 1)
        for m in range(1, m_max + 1):
            separating = m_e is not None and m >= m_e
            rows.append((e, m, separating, Fraction(numerator, m) if separating else None))
    return rows


def keyed_best_cell(table):
    """Reference: the separating cell with the largest (value, -e, -m), or None."""
    cells = [cell for cell in table if cell[2]]
    if not cells:
        return None
    e, m, _, value = max(cells, key=lambda cell: (cell[3], -cell[0], -cell[1]))
    return value, (m, e)


def double_loop_homogeneity(model, r, p, ell, m_max, e_max, scale=scaled_model):
    """Whether every separating base cell (m, e) lifts to (ceil(m/r), e) on the
    r-scaled model, with r times the base value when r | m."""
    scaled = scale(model, r)
    for e in range(e_max + 1):
        for m in range(1, m_max + 1):
            if not separates_frobenius_jets(model, m, ell, e, p):
                continue
            if not separates_frobenius_jets(scaled, -(-m // r), ell, e, p):
                return False
            if m % r == 0:
                base_value = Fraction((p**e - 1) * (ell + 1), m)
                if Fraction((p**e - 1) * (ell + 1), m // r) != r * base_value:
                    return False
    return True


def limit_constants(model, ell):
    """eps = min s/W and eps_F = (ell+1) * min s/(ell*W + S) over rows with W > 0.

    W = max(w) and S = sum(w) of a constraint (w, s); a zero row bounds nothing.
    """
    rows = [(s, max(w), sum(w)) for w, s in model.constraints if max(w) > 0]
    eps = min(Fraction(s, big) for s, big, _ in rows)
    eps_f = (ell + 1) * min(Fraction(s, ell * big + total) for s, big, total in rows)
    return eps, eps_f


def scanned_seshadri(model, m_max):
    """Reference: the first strict maximum of s(m)/m over m = 1, ..., m_max, as (value, (m, s))."""
    best = None
    for m in range(1, m_max + 1):
        s = s_jets(model, m)
        if best is None or Fraction(s, m) > best[0]:
            best = (Fraction(s, m), (m, s))
    return best


@st.composite
def models_and_degree_bounds(draw):
    """A model and an m_max on either side of its Seshadri denominator b.

    Custom rows with weights and slopes up to 9 give b up to 9; the models
    of models_up_to_three_variables have b <= 3.
    """
    if draw(st.booleans()):
        model = draw(models_up_to_three_variables())
    else:
        n = draw(st.integers(1, 3))
        rows = draw(
            st.lists(
                st.tuples(st.tuples(*[st.integers(0, 9)] * n), st.integers(0, 9)), max_size=2
            )
        )
        # a row with every weight positive bounds every variable
        rows.append((tuple(draw(st.integers(1, 9)) for _ in range(n)), draw(st.integers(0, 9))))
        model = custom_staircase(n, rows)
    b = limit_constants(model, 0)[0].denominator
    if b > 1 and draw(st.booleans()):
        return model, draw(st.integers(1, b - 1))
    return model, draw(st.integers(b, 3 * b))


class TestZeroRows:
    @given(
        model=models_up_to_three_variables(),
        slopes=st.lists(st.integers(0, 3), min_size=1, max_size=3),
        m=st.integers(1, 40),
        ell=st.integers(0, 3),
        e=st.integers(0, 3),
        p=st.sampled_from([2, 3]),
        m_max=st.integers(1, 30),
    )
    @example(model=SLOPE_ZERO, slopes=[0], m=3, ell=1, e=1, p=2, m_max=5)
    @example(model=ZERO_ROW_THREE, slopes=[0, 2], m=7, ell=2, e=2, p=3, m_max=2)
    @settings(max_examples=150, deadline=None)
    def test_appended_zero_rows_change_nothing(self, model, slopes, m, ell, e, p, m_max):
        padded = custom_staircase(
            model.n, model.constraints + tuple(((0,) * model.n, s) for s in slopes)
        )

        def closed_forms(mdl):
            return (
                frobenius_threshold(mdl, ell, e, p),
                missing_exponent(mdl, m, ell, e, p),
                s_jets(mdl, m),
                s_frobenius(mdl, m, ell, p),
                seshadri_lower(mdl, m_max),
                exact_seshadri(mdl),
                exact_frobenius_seshadri(mdl, ell),
            )

        assert closed_forms(padded) == closed_forms(model)


class TestSeshadriLower:
    def test_pn_value_one(self):
        cert = seshadri_lower(projective_space(2), 10)
        assert cert.value == 1
        assert cert.witness == (1, 1)

    def test_product_min(self):
        cert = seshadri_lower(product_projective(1, 1, 2, 3), 10)
        assert cert.value == 2
        # Oracle: sweep the s-values directly.
        assert max(Fraction(s_jets(product_projective(1, 1, 2, 3), m), m) for m in range(1, 11)) == 2

    def test_scaled_pn(self):
        cert = seshadri_lower(scaled_model(projective_space(2), 3), 10)
        assert cert.value == 3
        for m in range(1, 11):
            assert s_jets(scaled_model(projective_space(2), 3), m) == 3 * m

    def test_slope_zero_certifies_zero(self):
        # only the origin is attainable, and it separates 0-jets at every degree
        model = custom_staircase(1, [((1,), 0)])
        cert = seshadri_lower(model, 3)
        assert cert.value == 0
        assert cert.witness == (1, 0)
        assert cert.reverify(model, method="cobasis")

    def test_soundness(self):
        for model in (projective_space(3), product_projective(1, 2, 1, 2)):
            cert = seshadri_lower(model, 8)
            assert cert.reverify(model)
            assert cert.reverify(model, method="cobasis")

    @given(case=models_and_degree_bounds())
    @example(case=(SLOPE_ZERO, 1))
    @example(case=(ZERO_ROW_SLOPE_ZERO, 1))
    @example(case=(ZERO_ROW_THREE, 2))
    @example(case=(ZERO_ROW_THREE, 3))
    @example(case=(custom_staircase(1, [((7,), 5)]), 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_degree_scan(self, case):
        model, m_max = case
        cert = seshadri_lower(model, m_max)
        assert (cert.value, cert.witness) == scanned_seshadri(model, m_max)
        assert (cert.kind, cert.derivation) == (SESHADRI, ("direct",))

    @pytest.mark.parametrize("m_max, witness, scanned", [(6, (3, 2), 6), (7, (7, 5), 0)])
    def test_scan_only_below_the_denominator(self, monkeypatch, m_max, witness, scanned):
        # s(m) = floor(5m/7): 2/3 at m = 3 leads up to m = 6, and 5/7 is exact at m = 7
        calls = []
        monkeypatch.setattr(bounds, "s_jets", lambda *args: calls.append(args) or s_jets(*args))
        cert = seshadri_lower(custom_staircase(1, [((7,), 5)]), m_max)
        assert cert.witness == witness
        assert cert.value == Fraction(witness[1], witness[0])
        assert len(calls) == scanned

    def test_scan_over_the_limit_is_refused_unscanned(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bounds, "s_jets", lambda *args: calls.append(args) or s_jets(*args))
        monkeypatch.setattr(bounds, "WORK_LIMIT", 12)
        # two rows, of slopes 1/7 and 1/9: b = 9, and 6 degrees of 2 rows are at the limit
        model = custom_staircase(2, [((7, 0), 1), ((0, 9), 1)])
        assert seshadri_lower(model, 6).witness == (1, 0)
        assert len(calls) == 6
        message = r"^the Seshadri scan would ask 2 rows at 7 degrees, over the work limit of 1000000$"
        with pytest.raises(ValueError, match=message):
            seshadri_lower(model, 7)
        # the exact certificate is never refused
        for m_max in (9, 10**12):
            assert seshadri_lower(model, m_max).witness == (9, 1)
        assert len(calls) == 6
        # at the real limit, a scan of 10^9 degrees (about an hour) is refused too
        monkeypatch.undo()
        with pytest.raises(ValueError, match=r"^the Seshadri scan would ask 1 rows at 1000000000 "):
            seshadri_lower(custom_staircase(1, [((10**9 + 7,), 1)]), 10**9)


class TestFrobeniusSeshadriLower:
    def test_p2_reference(self):
        cert = frobenius_seshadri_lower(projective_space(2), 2, 0, 6, 2)
        assert cert.value == Fraction(1, 2)
        assert cert.witness == (2, 1)

    def test_ties_prefer_small_e_then_m(self):
        # On P^2 with ell=0, p=2: (2,1) and (6,2) both give 1/2.
        table = frobenius_sweep_table(projective_space(2), 2, 0, 6, 2)
        values = {(m, e) for e, m, sep, v in table if sep and v == Fraction(1, 2)}
        assert (2, 1) in values and (6, 2) in values
        cert = frobenius_seshadri_lower(projective_space(2), 2, 0, 6, 2)
        assert cert.witness == (2, 1)

    def test_approaches_closed_form(self):
        model = projective_space(2)
        values = []
        for e in range(1, 7):
            m = pn_threshold(2, 1, e, 2)
            values.append(certificate_at(model, 2, 1, m, e).value)
        assert values == sorted(values)
        assert all(v < closed_form_pn(2, 1) for v in values)
        assert closed_form_pn(2, 1) - values[-1] < Fraction(2, 2**6)

    def test_e_zero_certificates_worth_zero(self):
        # Force a grid with no separation at e >= 1: tiny m_max.
        model = projective_space(2)
        cert = frobenius_seshadri_lower(model, 2, 1, 1, 3)
        # threshold for e=1 is 4 > m_max=1, e=0 separates ell=1 at m=1
        assert cert.value == 0
        assert cert.witness == (1, 0)

    def test_no_certificate(self):
        model = projective_space(2)
        # m_max=1 cannot separate 2-jets at all, so nothing in the grid fires.
        assert frobenius_seshadri_lower(model, 2, 2, 1, 2) is None

    @pytest.mark.parametrize(
        "p, ell, m_max, e_max, message",
        [
            (4, -1, 0, 3, "m_max and e_max must be >= 1"),
            (4, -1, 5, 0, "m_max and e_max must be >= 1"),
            (4, -1, 5, 3, "ell must be >= 0"),
            (4, 0, 5, 3, "characteristic must be prime"),
        ],
    )
    def test_grid_validated_in_order(self, p, ell, m_max, e_max, message):
        for sweep in (frobenius_sweep, frobenius_seshadri_lower):
            with pytest.raises(ValueError, match=message):
                sweep(projective_space(2), p, ell, m_max, e_max)

    @pytest.mark.parametrize(
        "model",
        [projective_space(2), product_projective(1, 1, 1, 2), custom_staircase(2, [((2, 1), 3)])],
    )
    def test_matches_keyed_reduction(self, model):
        # oracle: the largest (value, -e, -m) over the separating cells
        for p, ell in ((2, 0), (2, 1), (3, 1)):
            cert = frobenius_seshadri_lower(model, p, ell, 20, 3)
            best = keyed_best_cell(frobenius_sweep_table(model, p, ell, 20, 3))
            assert (cert.value, cert.witness) == best

    @given(
        model=models_up_to_three_variables(),
        p=st.sampled_from([2, 3]),
        ell=st.integers(0, 2),
        m_max=st.integers(1, 10),
        e_max=st.integers(1, 2),
    )
    @example(model=SLOPE_ZERO, p=2, ell=0, m_max=4, e_max=2)
    @example(model=SLOPE_ZERO, p=2, ell=1, m_max=4, e_max=1)
    @example(model=ZERO_ROW_SLOPE_ZERO, p=3, ell=1, m_max=8, e_max=1)
    @example(model=SLOPE_ZERO_ONE_VARIABLE, p=2, ell=0, m_max=3, e_max=2)
    @example(model=ZERO_ROW_THREE, p=2, ell=1, m_max=8, e_max=2)
    @settings(max_examples=80, deadline=None)
    def test_matches_per_cell_oracle(self, model, p, ell, m_max, e_max):
        # the largest (value, -e, -m) over the cells the cobasis oracle separates
        cert = frobenius_seshadri_lower(model, p, ell, m_max, e_max)
        best = keyed_best_cell(oracle_sweep_table(model, p, ell, m_max, e_max))
        assert (None if cert is None else (cert.value, cert.witness)) == best
        if cert is not None:
            assert (cert.ell, cert.p, cert.derivation) == (ell, p, ("direct",))

    def test_one_threshold_and_fraction_per_row(self, monkeypatch):
        calls = {"threshold": 0, "fraction": 0}

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return call

        monkeypatch.setattr(
            bounds, "frobenius_threshold", counted("threshold", frobenius_threshold)
        )
        monkeypatch.setattr(bounds, "Fraction", counted("fraction", Fraction))
        cert = frobenius_seshadri_lower(projective_space(3), 2, 1, 3000, 12)
        assert calls["threshold"] == 13 and calls["fraction"] <= 13
        # values grow with e, and m_e = 4 * 2^e - 3 passes m_max at e = 10
        assert cert.witness == (pn_threshold(3, 1, 9, 2), 9) == (2045, 9)

    def test_soundness_and_conservativity(self):
        for n in (1, 2, 3):
            model = projective_space(n)
            for ell in (0, 1, 2):
                cert = frobenius_seshadri_lower(model, 2, ell, 12, 3)
                assert cert.reverify(model)
                assert cert.value <= closed_form_pn(n, ell)


class TestSweepTableOracle:
    @given(
        model=models_up_to_three_variables(),
        p=st.sampled_from([2, 3]),
        ell=st.integers(0, 2),
        m_max=st.integers(1, 8),
        e_max=st.integers(1, 2),
    )
    @example(model=SLOPE_ZERO, p=2, ell=0, m_max=4, e_max=2)
    @example(model=ZERO_ROW_SLOPE_ZERO, p=3, ell=1, m_max=8, e_max=1)
    @example(model=SLOPE_ZERO_ONE_VARIABLE, p=2, ell=0, m_max=3, e_max=2)
    @example(model=ZERO_ROW_THREE, p=2, ell=1, m_max=8, e_max=2)
    @settings(max_examples=80, deadline=None)
    def test_table_matches_per_cell_oracle(self, model, p, ell, m_max, e_max):
        table = frobenius_sweep_table(model, p, ell, m_max, e_max)
        assert table == oracle_sweep_table(model, p, ell, m_max, e_max)


class TestClosedForm:
    def test_values(self):
        assert closed_form_pn(2, 0) == Fraction(1, 2)
        assert closed_form_pn(1, 7) == 1
        assert closed_form_pn(3, 2) == Fraction(3, 5)

    def test_tends_to_one(self):
        delta = Fraction(1, 10)
        n = 3
        ell = -(-(n * (1 - delta)) // delta)  # ceil(n(1-d)/d)
        assert closed_form_pn(n, int(ell)) > 1 - delta


class TestSubsequenceDemo:
    def test_reference_values(self):
        demo = subsequence_demo(2, 1, 2, 8)
        assert demo.lower_seq[-1] == Fraction(254, 765)
        assert abs(demo.lower_seq[-1] - Fraction(1, 3)) < Fraction(1, 100)

    def test_upper_strictly_increasing_below_limit(self):
        demo = subsequence_demo(2, 1, 2, 8)
        assert list(demo.upper_seq) == sorted(set(demo.upper_seq))
        assert all(v < closed_form_pn(2, 1) for v in demo.upper_seq)

    def test_lower_limit(self):
        demo = subsequence_demo(3, 2, 3, 6)
        target = Fraction(2 + 1, (2 + 3) * 3)
        assert abs(demo.lower_seq[-1] - target) < Fraction(1, 50)

    def test_e_max_validated(self):
        with pytest.raises(ValueError):
            subsequence_demo(2, 1, 2, 1)


class TestDerivationRules:
    def test_tensor_power_d3(self):
        cert = certificate_at(projective_space(2), 2, 0, 2, 1)
        scaled = tensor_power_scale(cert, 3, 2)
        assert scaled.witness == (2 * 7, 3)
        assert scaled.value == cert.value

    def test_tensor_power_oracle_recheck(self):
        model = projective_space(2)
        cert = certificate_at(model, 2, 0, 2, 1)
        scaled = tensor_power_scale(cert, 2, 2)
        assert scaled.witness == (6, 2)
        assert scaled.value == Fraction(1, 2)
        assert scaled.reverify(model, method="cobasis")

    def test_tensor_power_identity(self):
        cert = certificate_at(projective_space(2), 2, 0, 2, 1)
        assert tensor_power_scale(cert, 1, 2).witness == cert.witness

    def test_tensor_power_rejects_e_zero(self):
        cert = certificate_at(projective_space(2), 2, 1, 1, 0)
        with pytest.raises(RuleInapplicableError):
            tensor_power_scale(cert, 2, 2)

    def test_gg_twist(self):
        model = projective_space(2)
        cert = certificate_at(model, 2, 0, 2, 1)
        twisted = gg_twist_extend(cert, 1, model)
        assert twisted.witness == (3, 1)
        assert twisted.value == Fraction(1, 3)
        assert twisted.reverify(model, method="cobasis")

    def test_gg_twist_identity(self):
        model = projective_space(2)
        cert = certificate_at(model, 2, 0, 2, 1)
        assert gg_twist_extend(cert, 0, model) == cert

    def test_chained_rules_reproduce_geometric_witnesses(self):
        # Witnesses m0 * (p^(re) - 1) / (p^(e0) - 1) from scaling then twisting.
        model = projective_space(2)
        cert = certificate_at(model, 2, 0, 2, 1)
        for r in (2, 3):
            derived = gg_twist_extend(tensor_power_scale(cert, r, 2), 1, model)
            m0, e0 = cert.witness
            assert derived.witness == (m0 * (2 ** (r * 1) - 1) // (2**1 - 1) + 1, r)
            assert derived.reverify(model)
            assert derived.derivation == ("direct", f"tensor_power({r})", "gg_twist(1)")


class TestComparisons:
    def test_pn_closed_forms(self):
        for n in range(1, 7):
            for ell in range(7):
                eps = Fraction(1)
                assert check_comparison(n, ell, eps, closed_form_pn(n, ell))
                # left side is an equality on this model
                assert Fraction(ell + 1, ell + n) * eps == closed_form_pn(n, ell)
                if ell >= 1 and n >= 2:
                    assert closed_form_pn(n, ell) < eps

    def test_trivial_case(self):
        eps = Fraction(5, 7)
        assert check_comparison(1, 0, eps, eps)

    def test_limit_constants_of_pn(self):
        for n, ell in ((1, 0), (2, 1), (3, 2), (4, 0)):
            model = projective_space(n)
            assert limit_constants(model, ell) == (1, closed_form_pn(n, ell))
            pair = (exact_seshadri(model).value, exact_frobenius_seshadri(model, ell))
            assert pair == (1, closed_form_pn(n, ell))

    def test_exact_constants_skip_zero_rows(self):
        # SLOPE_ZERO's only row with W > 0 has slope 0, ZERO_ROW_THREE's give 2 and 1/3
        assert exact_seshadri(SLOPE_ZERO) == BoundCertificate(SESHADRI, (1, 0))
        assert exact_seshadri(ZERO_ROW_THREE).witness == (3, 1)
        assert exact_frobenius_seshadri(ZERO_ROW_SLOPE_ZERO, 1) == Fraction(2, 5)

    @given(
        model=models_up_to_three_variables(),
        ell=st.integers(0, 3),
        p=st.sampled_from([2, 3]),
        m_max=st.integers(1, 60),
        e_max=st.integers(1, 4),
    )
    @example(model=SLOPE_ZERO, ell=0, p=2, m_max=10, e_max=2)
    @example(model=SLOPE_ZERO, ell=1, p=3, m_max=10, e_max=2)
    @example(model=ZERO_ROW_SLOPE_ZERO, ell=1, p=3, m_max=40, e_max=3)
    @example(model=SLOPE_ZERO_ONE_VARIABLE, ell=0, p=2, m_max=5, e_max=1)
    @example(model=ZERO_ROW_THREE, ell=2, p=2, m_max=60, e_max=4)
    @settings(max_examples=100, deadline=None)
    def test_paper_comparison_on_linear_models(self, model, ell, p, m_max, e_max):
        # the sandwich (ell+1)/(ell+n) * eps <= eps_F <= eps of the limit constants
        eps, eps_f = limit_constants(model, ell)
        assert check_comparison(model.n, ell, eps, eps_f)
        exact = exact_seshadri(model)
        assert (exact.value, exact_frobenius_seshadri(model, ell)) == (eps, eps_f)
        assert exact.reverify(model, method="cobasis")
        assert seshadri_lower(model, m_max).value <= eps
        cert = frobenius_seshadri_lower(model, p, ell, m_max, e_max)
        assert cert is None or cert.value <= eps_f
        # no cell attains the Frobenius limit once ell >= 1
        assert cert is None or ell == 0 or cert.value < eps_f

    def test_level_comparison_on_closed_forms(self):
        for n in range(1, 5):
            for low in range(0, 4):
                for high in range(low + 1, 5):
                    assert check_level_comparison(
                        n, high, low, closed_form_pn(n, high), closed_form_pn(n, low)
                    )

    def test_level_comparison_requires_order(self):
        with pytest.raises(ValueError):
            check_level_comparison(2, 1, 1, Fraction(1), Fraction(1))

    def test_level_comparison_checks_ell_before_comparing(self):
        with pytest.raises(ValueError, match="^ell must be an integer, got '3'"):
            check_level_comparison(2, "3", 1, Fraction(1), Fraction(1))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: check_comparison(2, 1, 1.0, 0.7),
            lambda: check_comparison(2, 1, Fraction(1), 0.7),
            lambda: check_level_comparison(2, 2, 1, 0.75, 0.7),
            lambda: check_level_comparison(2, 2, 1, Fraction(3, 4), 0.7),
        ],
        ids=["comparison", "comparison-eps_frob", "level", "level-eps_low"],
    )
    def test_float_bounds_refused(self, call):
        with pytest.raises(ValueError, match="^not an exact rational: "):
            call()

    def test_text_bounds_compare_exactly(self):
        # (l+1)/(l+n) = 2/3 for n = 2, l = 1; 3/4 for l = 2
        assert check_comparison(2, 1, "1", "2/3")
        assert not check_comparison(2, 1, "1", "6666/10000")
        assert check_level_comparison(2, 2, 1, "1", "2/3")
        assert not check_level_comparison(2, 2, 1, "1000001/1000000", "2/3")


class TestHomogeneity:
    def test_pn_scaled_closed_form(self):
        # On the r-scaled model the best certificates approach r*(ell+1)/(ell+n).
        r = 2
        model = scaled_model(projective_space(2), r)
        cert = frobenius_seshadri_lower(model, 2, 1, 40, 4)
        assert cert.value <= r * closed_form_pn(2, 1)
        assert cert.reverify(model)

    def test_r_one_trivial(self):
        assert double_loop_homogeneity(projective_space(2), 1, 2, 0, 6, 2)

    def test_p2_grid(self):
        assert double_loop_homogeneity(projective_space(2), 3, 2, 0, 12, 3)

    def test_product_grid(self):
        assert double_loop_homogeneity(product_projective(1, 1, 1, 2), 2, 3, 1, 10, 2)

    @given(
        model=models_up_to_three_variables(),
        r=st.integers(1, 3),
        p=st.sampled_from([2, 3]),
        ell=st.integers(0, 2),
        m_max=st.integers(0, 12),
        e_max=st.integers(0, 3),
    )
    @example(model=SLOPE_ZERO, r=2, p=2, ell=0, m_max=6, e_max=2)
    @example(model=ZERO_ROW_SLOPE_ZERO, r=3, p=3, ell=1, m_max=12, e_max=2)
    @example(model=SLOPE_ZERO_ONE_VARIABLE, r=2, p=2, ell=0, m_max=4, e_max=1)
    @example(model=ZERO_ROW_THREE, r=2, p=2, ell=1, m_max=12, e_max=3)
    @settings(max_examples=100, deadline=None)
    def test_every_lift_holds(self, model, r, p, ell, m_max, e_max):
        assert double_loop_homogeneity(model, r, p, ell, m_max, e_max)

    def test_broken_scale_is_caught(self):
        # a scale that leaves the model unscaled makes the lift of (2, 1) to (1, 1) fail
        assert not double_loop_homogeneity(
            projective_space(2), 2, 2, 0, 6, 2, scale=lambda base, r: base
        )


class TestCertificateJson:
    def test_round_trip_fields(self):
        cert = certificate_at(projective_space(2), 2, 1, 4, 1)
        doc = cert.to_json()
        assert doc["value"] == "1/2"
        assert doc["witness"] == [4, 1]
        assert doc["kind"] == FROBENIUS
        assert doc["p"] == 2 and doc["ell"] == 1
        # the value is written in lowest terms, zero as "0/1"
        assert BoundCertificate(SESHADRI, (6, 4)).to_json()["value"] == "2/3"
        assert BoundCertificate(FROBENIUS, (3, 0), ell=1, p=2).to_json()["value"] == "0/1"


class TestCertificateFields:
    @pytest.mark.parametrize(
        "args, message",
        [
            (("bogus", (2, 1)), "kind must be 'seshadri' or 'frobenius_seshadri', got 'bogus'"),
            ((FROBENIUS, (0, 1), 1, 2), "witness m must be >= 1"),
            ((SESHADRI, (4, 1.0)), "witness s must be an integer, got 1.0"),
            ((FROBENIUS, (4, 1.0), 1, 2), "witness e must be an integer, got 1.0"),
            ((SESHADRI, (2, -3)), "witness s must be >= 0"),
            ((SESHADRI, (2, 1, 0)), "witness must be a pair, got (2, 1, 0)"),
            ((SESHADRI, 4), "witness must be a pair, got 4"),
            ((FROBENIUS, (4, 1), -1, 2), "ell must be >= 0"),
            ((FROBENIUS, (4, 1), 1, 4), "characteristic must be prime, got 4"),
            ((FROBENIUS, (4, 1), 1, None), "characteristic must be an integer, got None"),
            ((SESHADRI, (4, 1), 1, None), "an ordinary certificate has no ell or p"),
            ((SESHADRI, (4, 1), None, 2), "an ordinary certificate has no ell or p"),
        ],
    )
    def test_bad_field_refused(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BoundCertificate(*args)

    @pytest.mark.parametrize("derivation", ["direct", None, ["direct"], ("direct", ""), ("a", 3)])
    def test_bad_derivation_refused(self, derivation):
        # a string is not a tuple of its characters, and None is no derivation
        message = f"derivation must be a tuple of non-empty strings, got {derivation!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BoundCertificate(SESHADRI, (2, 1), derivation=derivation)

    def test_replace_checks_the_fields(self):
        cert = certificate_at(projective_space(2), 2, 1, 4, 1)
        with pytest.raises(ValueError, match="witness m must be >= 1"):
            replace(cert, witness=(0, 1))
        with pytest.raises(ValueError, match="characteristic must be prime"):
            replace(cert, p=4)
        with pytest.raises(ValueError, match="derivation must be a tuple of non-empty strings"):
            replace(cert, derivation="x")

    def test_witness_stored_as_tuple(self):
        cert = BoundCertificate(SESHADRI, [6, 4])
        assert cert.witness == (6, 4)
        assert cert == BoundCertificate(SESHADRI, (6, 4))
        assert hash(cert) == hash(BoundCertificate(SESHADRI, (6, 4)))


class TestDerivedValue:
    def test_value_argument_refused(self):
        # the old call shape, with the value second, no longer fits the signature
        with pytest.raises(TypeError):
            BoundCertificate(FROBENIUS, Fraction(9), (4, 1), ell=1, p=2)
        with pytest.raises(TypeError, match="unexpected keyword argument 'value'"):
            BoundCertificate(SESHADRI, witness=(1, 1), value=Fraction(1))

    @given(
        kind=st.sampled_from([SESHADRI, FROBENIUS]),
        m=st.integers(1, 200),
        second=st.integers(0, 8),
        ell=st.integers(0, 4),
        p=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_value_is_certified_value(self, kind, m, second, ell, p):
        # an ordinary certificate carries no ell or p
        if kind == SESHADRI:
            ell = p = None
        cert = BoundCertificate(kind, (m, second), ell, p)
        assert cert.value == certified_value(kind, (m, second), ell, p)

    def test_replace_recomputes_the_value(self):
        cert = certificate_at(projective_space(2), 2, 1, 4, 1)
        assert cert.value == Fraction(1, 2)
        assert replace(cert, witness=(5, 1)).value == Fraction(2, 5)
        with pytest.raises(ValueError):
            replace(cert, value=Fraction(9))

    def test_wrong_witness_fails_reverify(self):
        # (4, 1) is the threshold cell of 1-jets on P^2 at p = 2; (3, 1) lies below it
        cert = BoundCertificate(FROBENIUS, (3, 1), ell=1, p=2)
        assert cert.value == Fraction(2, 3)
        assert not cert.reverify(projective_space(2))
        assert not cert.reverify(projective_space(2), method="cobasis")
