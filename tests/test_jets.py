import itertools
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobjets import jets
from frobjets.bounds import SESHADRI, BoundCertificate
from frobjets.cartier import random_primary_ideal
from frobjets.jets import (
    NEG_INF,
    _cobasis_corners,
    frobenius_threshold,
    jet_ideal,
    missing_exponent,
    pn_threshold,
    s_frobenius,
    s_jets,
    separates_by_cobasis,
    separates_frobenius_jets,
    separates_jets,
)
from frobjets.models import (
    custom_staircase,
    product_projective,
    projective_space,
    scaled_model,
)
from frobjets.monomials import cobasis


def divides(a, b):
    """Oracle: componentwise a <= b, i.e. x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


class TestSeparatesJets:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pn_separates_iff_degree_at_least_ell(self, n):
        model = projective_space(n)
        for m in range(1, 8):
            for ell in range(8):
                assert separates_jets(model, m, ell) == (m >= ell)

    def test_zero_jets_always_separate(self):
        assert separates_jets(product_projective(1, 1, 1, 1), 1, 0)
        assert separates_jets(projective_space(3), 1, 0)

    def test_product_cutoff(self):
        model = product_projective(1, 1, 1, 2)
        assert separates_jets(model, 3, 3)
        assert not separates_jets(model, 3, 4)
        # Oracle: cobasis of the (ell+1)-st power against the (3, 6) box.
        for ell in (3, 4):
            quotient = cobasis(jet_ideal(2, ell, 0, 2))
            covered = all(a[0] <= 3 and a[1] <= 6 for a in quotient)
            assert covered == separates_jets(model, 3, ell)


class TestSeparatesFrobeniusJets:
    def test_pn_reference_threshold(self):
        model = projective_space(2)
        assert separates_frobenius_jets(model, 4, 1, 1, 2)
        assert not separates_frobenius_jets(model, 3, 1, 1, 2)

    def test_e_zero_reduces_to_ordinary(self):
        model = product_projective(1, 1, 2, 3)
        for m in range(1, 6):
            for ell in range(6):
                assert separates_frobenius_jets(model, m, ell, 0, 3) == separates_jets(
                    model, m, ell
                )

    def test_pn_threshold_values(self):
        assert pn_threshold(2, 1, 1, 2) == 4
        assert pn_threshold(3, 2, 1, 3) == 12
        assert pn_threshold(3, 2, 2, 2) == 17
        assert pn_threshold(5, 3, 0, 7) == 3

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pn_threshold_is_the_load(self, n, p):
        # the load of the one row; the least separating degree is max(1, load)
        for ell, e in itertools.product(range(4), range(4)):
            q = p**e
            assert pn_threshold(n, ell, e, p) == ell * q + n * (q - 1)
            least = frobenius_threshold(projective_space(n), ell, e, p)
            assert least == max(1, ell * q + n * (q - 1))
        # they differ only at ell = e = 0, where the load is 0
        assert pn_threshold(n, 0, 0, p) == 0
        assert frobenius_threshold(projective_space(n), 0, 0, p) == 1

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_methods_agree_on_pn(self, n, p):
        model = projective_space(n)
        for ell, e in itertools.product(range(3), range(3)):
            threshold = pn_threshold(n, ell, e, p)
            for m in range(max(1, threshold - 2), threshold + 3):
                fast = separates_frobenius_jets(model, m, ell, e, p)
                oracle = separates_by_cobasis(model, m, ell, e, p)
                assert fast == oracle == (m >= threshold)

    def test_methods_agree_on_product(self):
        model = product_projective(1, 1, 1, 2)
        for m, ell, e in itertools.product(range(1, 9), range(3), range(3)):
            fast = separates_frobenius_jets(model, m, ell, e, 2)
            oracle = separates_by_cobasis(model, m, ell, e, 2)
            assert fast == oracle

    def test_unknown_method_rejected(self):
        # reverify is the one place that picks a checker by name
        cert = BoundCertificate(SESHADRI, (1, 0))
        with pytest.raises(ValueError, match="unknown method"):
            cert.reverify(projective_space(1), method="guess")
        with pytest.raises(ValueError, match="unknown method"):
            cert.reverify(projective_space(1), method="rank")

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            separates_frobenius_jets(projective_space(1), 0, 0, 0, 2)
        with pytest.raises(ValueError):
            separates_frobenius_jets(projective_space(1), 1, 0, 1, 4)


def full_scan(model, m, ell, e, p):
    """Reference oracle: ask the model at every point of the cobasis."""
    return all(model.attains(a, m) for a in cobasis(jet_ideal(model.n, ell, e, p)))


@st.composite
def models_up_to_three_variables(draw):
    """Random P^n, product and custom models with n <= 3."""
    kind = draw(st.sampled_from(["pn", "product", "custom"]))
    if kind == "pn":
        return projective_space(draw(st.integers(1, 3)))
    if kind == "product":
        n1 = draw(st.integers(1, 2))
        n2 = draw(st.integers(1, 3 - n1))
        return product_projective(n1, n2, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    n = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.tuples(st.tuples(*[st.integers(0, 3)] * n), st.integers(0, 3)),
            min_size=1,
            max_size=3,
        )
    )
    # a row with every weight positive bounds every variable
    rows.append((tuple(draw(st.integers(1, 3)) for _ in range(n)), draw(st.integers(0, 3))))
    return custom_staircase(n, rows)


def counted_s_jets(model, m):
    """Reference: count ell upward while the cobasis oracle separates ell-jets."""
    if not separates_by_cobasis(model, m, 0, 0, 2):
        return NEG_INF
    ell = 0
    while separates_by_cobasis(model, m, ell + 1, 0, 2):
        ell += 1
    return ell


def counted_s_frobenius(model, m, ell, p):
    """Reference: count e upward while the cobasis oracle separates Frobenius ell-jets."""
    if not separates_by_cobasis(model, m, ell, 0, p):
        return NEG_INF
    e = 0
    while separates_by_cobasis(model, m, ell, e + 1, p):
        e += 1
    return e


# slope-0 rows and all-zero rows, the edge cases of the load formula
SLOPE_ZERO = custom_staircase(2, [((0, 0), 3), ((1, 2), 0)])
ZERO_ROW_SLOPE_ZERO = custom_staircase(2, [((0, 0), 0), ((2, 1), 1)])
SLOPE_ZERO_ONE_VARIABLE = custom_staircase(2, [((1, 0), 0), ((1, 1), 2)])
ZERO_ROW_THREE = custom_staircase(3, [((0, 0, 0), 2), ((1, 1, 1), 2), ((0, 3, 0), 1)])


def brute_corners(ideal):
    """Reference: the maximal points of the full cobasis, those a with no a + e_i in it."""
    quotient = cobasis(ideal)
    return frozenset(
        a
        for a in quotient
        if all(a[:i] + (a[i] + 1,) + a[i + 1 :] not in quotient for i in range(ideal.n))
    )


class TestCornerOracle:
    """The cobasis checker asks only the corners; the full scan is the reference."""

    @given(
        model=models_up_to_three_variables(),
        m=st.integers(1, 30),
        ell=st.integers(0, 3),
        e=st.integers(0, 2),
        p=st.sampled_from([2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_corners_match_full_scan(self, model, m, ell, e, p):
        corners = separates_by_cobasis(model, m, ell, e, p)
        assert corners == full_scan(model, m, ell, e, p)
        assert corners == separates_frobenius_jets(model, m, ell, e, p)

    @given(
        n=st.integers(1, 3),
        ell=st.integers(0, 3),
        e=st.integers(0, 2),
        p=st.sampled_from([2, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_corners_are_the_maximal_points(self, n, ell, e, p):
        ideal = jet_ideal(n, ell, e, p)
        quotient = cobasis(ideal)
        corners = _cobasis_corners(ideal)
        assert corners <= quotient
        assert all(any(divides(a, c) for c in corners) for a in quotient)
        assert not any(divides(c, d) for c in corners for d in corners if c != d)

    @given(
        n=st.integers(1, 3),
        ell=st.integers(0, 3),
        e=st.integers(0, 2),
        p=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_staircase_candidates_find_every_corner(self, n, ell, e, p, seed):
        # the corners come from the staircase candidates, not from a cobasis scan
        for ideal in (jet_ideal(n, ell, e, p), random_primary_ideal(n, random.Random(seed))):
            assert _cobasis_corners.__wrapped__(ideal) == brute_corners(ideal)

    def test_pn_corners(self):
        # the cobasis of m^(ell+1) is the degree <= ell simplex, whose
        # maximal points are the degree-ell monomials
        for n, ell in itertools.product(range(1, 4), range(4)):
            corners = _cobasis_corners(jet_ideal(n, ell, 0, 2))
            assert corners == {a for a in cobasis(jet_ideal(n, ell, 0, 2)) if sum(a) == ell}


class TestMissingExponent:
    def test_witness_is_missed_cobasis_point(self):
        model = projective_space(2)
        witness = missing_exponent(model, 3, 1, 1, 2)
        assert witness is not None
        assert witness in cobasis(jet_ideal(2, 1, 1, 2))
        assert not model.attains(witness, 3)

    def test_none_when_separating(self):
        assert missing_exponent(projective_space(2), 4, 1, 1, 2) is None

    @pytest.mark.parametrize(
        "args, message",
        [
            ((3, 1, 1, 4), "characteristic must be prime, got 4"),
            ((3, 1.0, 1, 2), "ell must be an integer, got 1.0"),
            ((-5, 1, 1, 2), "degree m must be >= 1"),
            ((2.0, -1, 1, 2), "degree m must be an integer, got 2.0"),
            ((3, 1.0, -1, 2), "ell must be an integer, got 1.0"),
            ((3, -1, 1.0, 4), "ell and e must be >= 0"),
        ],
        ids=["p-4", "float-ell", "negative-m", "m-first", "ell-type-first", "ell-range-first"],
    )
    def test_arguments_checked(self, args, message):
        # the fast checker and the oracle refuse the first bad argument alike: m, ell, e, p
        for check in (missing_exponent, separates_by_cobasis):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check(projective_space(2), *args)

    def test_witness_iff_not_separating(self):
        for model in (projective_space(2), product_projective(1, 1, 1, 2), SLOPE_ZERO):
            for m, ell, e, p in itertools.product(range(1, 7), range(3), range(3), (2, 3)):
                witness = missing_exponent(model, m, ell, e, p)
                assert (witness is None) == separates_frobenius_jets(model, m, ell, e, p)
                if witness is not None:
                    assert witness not in jet_ideal(model.n, ell, e, p)
                    assert not model.attains(witness, m)

    def test_tied_heaviest_coordinates_keep_the_first(self):
        # W = 3 at coordinates 1 and 2: ell * q goes on coordinate 1
        model = custom_staircase(3, [((2, 3, 3), 1)])
        witness = missing_exponent(model, 1, 1, 1, 2)
        assert witness == (1, 3, 1)
        assert witness in cobasis(jet_ideal(3, 1, 1, 2))
        assert not model.attains(witness, 1)


class TestSJets:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_pn(self, n):
        model = projective_space(n)
        for m in range(1, 12):
            assert s_jets(model, m) == m

    def test_scaled_pn(self):
        model = scaled_model(projective_space(2), 3)
        for m in range(1, 6):
            assert s_jets(model, m) == 3 * m

    def test_product(self):
        assert s_jets(product_projective(1, 1, 2, 3), 1) == 2

    def test_huge_degree(self):
        # a count of ell upward one test at a time could never reach this
        assert s_jets(custom_staircase(2, [((3, 1), 2)]), 10**30) == 2 * 10**30 // 3

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            s_jets(projective_space(2), 0)

    @given(model=models_up_to_three_variables(), m=st.integers(1, 8))
    @example(model=custom_staircase(2, [((0, 0), 3), ((1, 2), 0)]), m=5)
    @example(model=custom_staircase(2, [((0, 0), 0), ((2, 1), 1)]), m=7)
    @example(model=custom_staircase(3, [((0, 0, 0), 2), ((1, 1, 1), 2), ((0, 3, 0), 1)]), m=4)
    @settings(max_examples=100, deadline=None)
    def test_closed_form_matches_counted_oracle(self, model, m):
        assert s_jets(model, m) == counted_s_jets(model, m)

    @given(m1=st.integers(1, 8), m2=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_superadditivity(self, m1, m2):
        for model in (product_projective(1, 1, 2, 3), projective_space(2)):
            assert s_jets(model, m1 + m2) >= s_jets(model, m1) + s_jets(model, m2)


class TestSFrobenius:
    def test_reference_value(self):
        # Thresholds on P^2 with ell=0, p=2: e=1 needs m>=2, e=2 needs m>=6.
        model = projective_space(2)
        assert s_frobenius(model, 5, 0, 2) == 1
        assert s_frobenius(model, 6, 0, 2) == 2

    def test_below_ell_gives_neg_inf(self):
        model = projective_space(3)
        assert s_frobenius(model, 2, 3, 2) == NEG_INF

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pn_closed_form(self, n, p):
        # On P^n: separation iff (m+n)/(ell+n) >= p^e, so the answer is the
        # floor of log_p of that ratio.
        model = projective_space(n)
        for ell in range(3):
            for m in range(ell, 30):
                if m < 1:
                    continue
                expected = 0
                while (m + n) >= (ell + n) * p ** (expected + 1):
                    expected += 1
                assert s_frobenius(model, m, ell, p) == expected

    def test_oracle_agreement(self):
        # the largest e at which the cobasis oracle separates, counted upward
        model = product_projective(1, 1, 1, 2)
        for m in range(1, 10):
            for ell in range(3):

                def oracle(e):
                    return separates_by_cobasis(model, m, ell, e, 2)

                expected = NEG_INF
                if oracle(0):
                    expected = 0
                    while oracle(expected + 1):
                        expected += 1
                assert s_frobenius(model, m, ell, 2) == expected

    @given(
        model=models_up_to_three_variables(),
        m=st.integers(1, 8),
        ell=st.integers(0, 2),
        p=st.sampled_from([2, 3]),
    )
    @example(model=SLOPE_ZERO, m=5, ell=0, p=2)
    @example(model=SLOPE_ZERO, m=5, ell=1, p=3)
    @example(model=ZERO_ROW_SLOPE_ZERO, m=7, ell=0, p=2)
    @example(model=SLOPE_ZERO_ONE_VARIABLE, m=4, ell=0, p=3)
    @example(model=ZERO_ROW_THREE, m=8, ell=1, p=2)
    @settings(max_examples=100, deadline=None)
    def test_closed_form_matches_counted_oracle(self, model, m, ell, p):
        assert s_frobenius(model, m, ell, p) == counted_s_frobenius(model, m, ell, p)

    def test_huge_degree(self):
        # a count of e upward one test at a time takes e steps; this is one min
        model = projective_space(2)
        assert s_frobenius(model, 2**200, 0, 2) == 199
        assert s_frobenius(model, 2**200 - 2, 0, 2) == 199
        assert s_frobenius(model, 2**200 - 3, 0, 2) == 198

    def test_huge_frobenius_exponent_stays_exact(self):
        # arbitrary-precision exponents: e = 40 must not overflow anything
        model = projective_space(3)
        threshold = pn_threshold(3, 2, 40, 2)
        assert threshold == 2 * 2**40 + 3 * (2**40 - 1)
        assert separates_frobenius_jets(model, threshold, 2, 40, 2)
        assert not separates_frobenius_jets(model, threshold - 1, 2, 40, 2)


class TestFrobeniusThreshold:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pn_is_pn_threshold(self, n, p):
        for ell, e in itertools.product(range(4), range(4)):
            expected = max(1, pn_threshold(n, ell, e, p))
            assert frobenius_threshold(projective_space(n), ell, e, p) == expected

    def test_slope_zero_row_with_load_separates_nowhere(self):
        assert frobenius_threshold(SLOPE_ZERO, 0, 0, 2) == 1
        assert frobenius_threshold(SLOPE_ZERO, 1, 0, 2) is None
        assert frobenius_threshold(SLOPE_ZERO, 0, 1, 2) is None
        assert not separates_frobenius_jets(SLOPE_ZERO, 10**9, 0, 1, 2)

    def test_zero_row_asks_nothing(self):
        # the zero row has load 0 even at slope 0; the row ((2, 1), 1) decides
        for ell, e in itertools.product(range(3), range(3)):
            load = 2 * ell * 3**e + 3 * (3**e - 1)
            assert frobenius_threshold(ZERO_ROW_SLOPE_ZERO, ell, e, 3) == max(1, load)

    @pytest.mark.parametrize(
        "ell, e, p, message",
        [
            (-1, 0, 2, "ell and e must be >= 0"),
            (0, -1, 2, "ell and e must be >= 0"),
            (0, 1, 4, "characteristic must be prime"),
        ],
    )
    def test_invalid_inputs_rejected(self, ell, e, p, message):
        with pytest.raises(ValueError, match=message):
            frobenius_threshold(projective_space(2), ell, e, p)

    @given(
        model=models_up_to_three_variables(),
        ell=st.integers(0, 2),
        e=st.integers(0, 2),
        p=st.sampled_from([2, 3]),
    )
    @example(model=SLOPE_ZERO, ell=0, e=0, p=2)
    @example(model=SLOPE_ZERO, ell=1, e=1, p=2)
    @example(model=ZERO_ROW_SLOPE_ZERO, ell=2, e=1, p=3)
    @example(model=SLOPE_ZERO_ONE_VARIABLE, ell=0, e=1, p=2)
    @example(model=ZERO_ROW_THREE, ell=1, e=2, p=2)
    @settings(max_examples=100, deadline=None)
    def test_smallest_degree_the_oracle_separates(self, model, ell, e, p):
        def oracle(m):
            return separates_by_cobasis(model, m, ell, e, p)

        m_e = frobenius_threshold(model, ell, e, p)
        if m_e is None:
            # separation is monotone in m, so failing at a huge degree fails everywhere
            assert not oracle(10**12)
        else:
            assert oracle(m_e)
            assert m_e == 1 or not oracle(m_e - 1)


class TestScaledModelThreshold:
    @pytest.mark.parametrize("r", [2, 3])
    def test_threshold_divides_by_scale(self, r):
        # Oracle re-run on the scaled model: the minimal separating degree
        # becomes ceil(threshold / r).
        for n, ell, e, p in [(2, 1, 1, 2), (2, 2, 1, 3), (1, 3, 2, 2)]:
            model = scaled_model(projective_space(n), r)
            expected = -(-pn_threshold(n, ell, e, p) // r)
            for m in range(1, expected + 3):
                oracle = separates_by_cobasis(model, m, ell, e, p)
                assert oracle == (m >= expected)


class TestPropagationRules:
    @pytest.mark.parametrize("p", [2, 3])
    def test_monotone_in_degree(self, p):
        model = product_projective(1, 1, 1, 2)
        for m, ell, e in itertools.product(range(1, 12), range(3), range(3)):
            if separates_frobenius_jets(model, m, ell, e, p):
                assert separates_frobenius_jets(model, m + 1, ell, e, p)

    def test_antimonotone_in_ell_and_e(self):
        model = projective_space(2)
        for m, ell, e in itertools.product(range(1, 16), range(4), range(3)):
            if separates_frobenius_jets(model, m, ell, e, 2):
                for ell2 in range(ell + 1):
                    assert separates_frobenius_jets(model, m, ell2, e, 2)
                for e2 in range(e + 1):
                    assert separates_frobenius_jets(model, m, ell, e2, 2)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_tensor_power_propagation(self, r):
        for model in (projective_space(2), product_projective(1, 1, 1, 2)):
            for p in (2, 3):
                for m, ell, e in itertools.product(range(1, 8), range(3), (1,)):
                    if separates_frobenius_jets(model, m, ell, e, p):
                        d_r = (p ** (r * e) - 1) // (p**e - 1)
                        assert separates_frobenius_jets(model, m * d_r, ell, r * e, p)


class CountedRows(tuple):
    """A model's rows that count the passes made over them."""

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class UnreadableRows(tuple):
    """A model's rows that refuse to be read."""

    def __iter__(self):
        raise AssertionError("the oracle read model.rows")

    __getitem__ = __len__ = __iter__


def with_rows(model, kind):
    """A copy of the model whose rows are replaced by kind(model.rows)."""
    copy = replace(model)
    rows = kind(model.rows)
    rows.passes = 0
    object.__setattr__(copy, "rows", rows)
    return copy, rows


def refuse(*args, **kwargs):
    raise AssertionError("this path must not be taken")


# P^n, product and custom models, the custom ones with slope-0 and zero rows
APART_MODELS = (
    projective_space(2),
    product_projective(1, 1, 1, 2),
    SLOPE_ZERO,
    ZERO_ROW_SLOPE_ZERO,
    ZERO_ROW_THREE,
)
APART_CELLS = tuple(itertools.product(range(1, 9), range(3), range(3), (2, 3)))


@st.composite
def custom_with_edge_rows(draw):
    """Custom models with n <= 3 that always hold a zero row, often a slope-0 row."""
    n = draw(st.integers(1, 3))
    weights = st.tuples(*[st.integers(0, 3)] * n)
    rows = draw(st.lists(st.tuples(weights, st.integers(0, 3)), max_size=3))
    rows.append(((0,) * n, draw(st.integers(0, 3))))
    if draw(st.booleans()):
        rows.append((draw(weights), 0))
    # a row with every weight positive bounds every variable
    rows.append((tuple(draw(st.integers(1, 3)) for _ in range(n)), draw(st.integers(0, 3))))
    return custom_staircase(n, draw(st.permutations(rows)))


class TestCheckersApart:
    """The fast checker and the cobasis oracle share no code but the argument check."""

    def test_oracle_needs_no_load_formula(self, monkeypatch):
        expected = {
            (model, cell): separates_frobenius_jets(model, *cell)
            for model in APART_MODELS
            for cell in APART_CELLS
        }
        monkeypatch.setattr(jets, "frobenius_threshold", refuse)
        monkeypatch.setattr(jets, "_load", refuse)
        for model in APART_MODELS:
            unread, _ = with_rows(model, UnreadableRows)
            for cell in APART_CELLS:
                assert separates_by_cobasis(unread, *cell) == expected[model, cell]

    def test_fast_checker_needs_no_threshold(self, monkeypatch):
        # the answers of the oracle, and the witnesses, before the threshold goes
        expected = {
            model: [
                (separates_by_cobasis(model, *cell), missing_exponent(model, *cell))
                for cell in APART_CELLS
            ]
            for model in APART_MODELS
        }
        ladder = {
            model: [counted_s_frobenius(model, m, ell, p) for m, ell, _, p in APART_CELLS]
            for model in APART_MODELS
        }
        monkeypatch.setattr(jets, "frobenius_threshold", refuse)
        for model in APART_MODELS:
            found = [
                (separates_frobenius_jets(model, *cell), missing_exponent(model, *cell))
                for cell in APART_CELLS
            ]
            assert found == expected[model]
            ladder_found = [s_frobenius(model, m, ell, p) for m, ell, _, p in APART_CELLS]
            assert ladder_found == ladder[model]

    @pytest.mark.parametrize("model", APART_MODELS, ids=lambda model: model.label)
    def test_one_pass_over_the_rows(self, model):
        for m, ell, e, p in APART_CELLS:
            for call in (
                lambda model: separates_frobenius_jets(model, m, ell, e, p),
                lambda model: missing_exponent(model, m, ell, e, p),
                lambda model: s_frobenius(model, m, ell, p),
            ):
                counted, rows = with_rows(model, CountedRows)
                call(counted)
                assert rows.passes == 1

    @given(
        model=st.one_of(custom_with_edge_rows(), models_up_to_three_variables()),
        m=st.integers(1, 300),
        ell=st.integers(0, 3),
        e=st.integers(0, 3),
        p=st.sampled_from([2, 3, 5]),
    )
    @example(model=SLOPE_ZERO, m=10**9, ell=0, e=1, p=2)
    @example(model=ZERO_ROW_SLOPE_ZERO, m=1, ell=0, e=0, p=2)
    @example(model=SLOPE_ZERO_ONE_VARIABLE, m=4, ell=0, e=0, p=3)
    @settings(max_examples=300, deadline=None)
    def test_separation_is_the_threshold(self, model, m, ell, e, p):
        # the two statements of the row inequality: per degree, and solved for m
        m_e = frobenius_threshold(model, ell, e, p)
        assert separates_frobenius_jets(model, m, ell, e, p) == (m_e is not None and m >= m_e)
