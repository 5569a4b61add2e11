import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from frobjets import principal_parts
from frobjets.principal_parts import (
    PicClass,
    det_pp_closed,
    det_pp_recursive,
    mori_endgame,
    rank_pp,
)
from frobjets.serialize import to_jsonable


class TestRank:
    def test_reference(self):
        # 1 + C(2,1) + C(3,1) = 6, the binomial C(4,2)
        assert rank_pp(2, 2) == 6

    def test_zeroth_is_line_bundle(self):
        for n in (1, 2, 5):
            assert rank_pp(n, 0) == 1

    def test_line(self):
        for ell in range(8):
            assert rank_pp(1, ell) == ell + 1

    def test_telescoping_equals_binomial(self):
        for n in range(1, 7):
            for ell in range(11):
                assert rank_pp(n, ell) == comb(n + ell, n)


class TestDeterminant:
    def test_first_recursion_step(self):
        assert det_pp_recursive(2, 1) == PicClass(1, 3)

    def test_reference_case(self):
        assert det_pp_recursive(2, 2) == PicClass(4, 6)
        assert det_pp_closed(2, 2) == PicClass(4, 6)

    def test_line_case(self):
        assert det_pp_closed(1, 1) == PicClass(1, 2)

    def test_ell_zero(self):
        for n in (1, 3, 6):
            assert det_pp_recursive(n, 0) == det_pp_closed(n, 0) == PicClass(0, 1)

    def test_recursive_equals_closed(self):
        for n in range(1, 8):
            for ell in range(11):
                assert det_pp_recursive(n, ell) == det_pp_closed(n, ell)

    def test_json(self):
        assert det_pp_closed(2, 2).to_json() == {"omega": 4, "l": 6}


def assert_binomial_identities(n, ell):
    """The two exact-rational identities behind the determinant recursion."""
    step = comb(n + ell - 1, n) + Fraction(ell - 1, n + 1) * comb(n + ell - 1, n)
    assert step == Fraction(ell, n + 1) * comb(n + ell, n)
    assert comb(n + ell - 1, n - 1) + comb(n + ell - 1, n) == comb(n + ell, n)


class TestBinomialIdentities:
    def test_reference(self):
        # 3 + (1/3)*3 = 4 = (2/3)*6
        assert_binomial_identities(2, 2)

    def test_pascal_instance(self):
        assert comb(3, 1) + comb(3, 2) == comb(4, 2) == 6

    def test_sweep(self):
        for n in range(1, 7):
            for ell in range(1, 11):
                assert_binomial_identities(n, ell)


def derived_quotient_degrees(a):
    """Oracle: (Sym^(n+1) of the dual)^dual tensor O(-b), expanded on plain integers."""
    n, b = len(a), sum(a)
    dual = [-d for d in a]
    sym = [
        sum(dual[i] for i in choice)
        for choice in itertools.combinations_with_replacement(range(n), n + 1)
    ]
    return tuple(sorted(-s - b for s in sym))


class TestMoriEndgame:
    def test_tangent_of_p3_on_a_line(self):
        report = mori_endgame((2, 1, 1))
        assert report.b == 4
        assert min(report.quotient_degrees) == 0
        assert report.gg
        assert report.all_ai_positive

    def test_extremal_failure(self):
        for n in (2, 3, 4):
            a = (n + 1,) + (0,) * (n - 1)
            report = mori_endgame(a)
            assert report.b == n + 1
            assert min(report.quotient_degrees) == -(n + 1)
            assert not report.gg
            assert not report.all_ai_positive

    def test_min_inequality_matches_expansion(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randrange(1, 5)
            a = tuple(rng.randrange(-5, 6) for _ in range(n))
            report = mori_endgame(a)
            oracle = derived_quotient_degrees(a)
            assert report.quotient_degrees == oracle
            assert len(report.quotient_degrees) == comb(2 * n, n + 1)
            assert report.gg == all(d >= 0 for d in oracle)

    def test_positive_conclusion_needs_positive_b(self):
        report = mori_endgame((0, 0))
        assert report.b == 0
        assert report.gg
        assert not report.all_ai_positive

    def test_non_integer_degrees_rejected(self):
        for bad in ([2.7, 1], ["2", 1], [2.0, 1]):
            with pytest.raises(ValueError, match="integer"):
                mori_endgame(bad)
        assert mori_endgame([2, 1, 1]) == mori_endgame((2, 1, 1))

    def test_json(self):
        doc = to_jsonable(mori_endgame((2, 1, 1)))
        assert doc["b"] == 4 and doc["gg"] is True


class TestMoriWorkLimit:
    """The quotient-degree list is refused unbuilt when it would be over WORK_LIMIT."""

    def test_at_the_limit_the_list_is_built(self):
        assert principal_parts.WORK_LIMIT == 10**6
        # 11 summands have C(22, 12) = 646,646 quotient degrees, 12 have 2,496,144
        assert len(mori_endgame((1,) * 11).quotient_degrees) == comb(22, 12)
        message = r"^12 summands have C\(24, 13\) quotient degrees, over the work limit of 1000000$"
        with pytest.raises(ValueError, match=message):
            mori_endgame((1,) * 12)

    def test_refused_before_the_enumeration(self, monkeypatch):
        enumerated = []

        def recording(a, k):
            enumerated.append(k)
            return itertools.combinations_with_replacement(a, k)

        monkeypatch.setattr(principal_parts, "WORK_LIMIT", 15)
        monkeypatch.setattr(principal_parts, "combinations_with_replacement", recording)
        assert len(mori_endgame((2, 1, 1)).quotient_degrees) == 15
        with pytest.raises(ValueError, match=r"^4 summands have C\(8, 5\) quotient degrees"):
            mori_endgame((2, 1, 1, 1))
        assert enumerated == [4]

    def test_many_summands_refused_at_once(self):
        # C(2 * 10^5, 10^5 + 1) has about 60,000 digits; the estimate stops at its second factor
        with pytest.raises(ValueError, match=r"^100000 summands have C\(200000, 100001\)"):
            mori_endgame((1,) * 10**5)
