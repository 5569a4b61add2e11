import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobjets.cartier as cartier
from frobjets.cartier import (
    MonomialForm,
    cartier_report,
    ideal_identity_counterexample,
    ideal_identity_counterexamples,
    iteration_counterexample,
    random_primary_ideal,
    residue_class_cases,
    residue_class_forms,
    semilinearity_counterexample,
    surjectivity_counterexample,
    trace,
)
from frobjets.monomials import (
    MonomialIdeal,
    bracket_power,
    is_prime,
    maximal_ideal,
    power,
    unit_ideal,
)


def brute_trace_one_var(a: int, p: int) -> int | None:
    """Oracle for one application of the trace in one variable.

    Characterized by F_p-semilinearity x^(p*c) * w -> x^c * T(w) together
    with the normalizations T(x^(p-1) dx) = dx and T(x^j dx) = 0 for
    0 <= j < p - 1. Every exponent a splits as j + p*c.
    """
    j = a % p
    c = a // p
    if j == p - 1:
        return c
    return None


def _times(w: MonomialForm, c) -> MonomialForm:
    """The form x^c * w; the zero form stays as it is."""
    if w.is_zero:
        return w
    return MonomialForm(w.coeff, tuple(x + y for x, y in zip(w.exponent, c)))


class TestTraceFormula:
    def test_p2_one_variable(self):
        assert trace(MonomialForm(1, (3,)), 2, 1) == MonomialForm(1, (1,))
        assert trace(MonomialForm(1, (2,)), 2, 1).is_zero

    def test_matches_semilinear_normalization_oracle(self):
        for p in (2, 3, 5):
            for a in range(40):
                expected = brute_trace_one_var(a, p)
                got = trace(MonomialForm(1, (a,)), p, 1)
                if expected is None:
                    assert got.is_zero
                else:
                    assert got == MonomialForm(1, (expected,))

    def test_e_zero_is_identity(self):
        w = MonomialForm(2, (4, 1))
        assert trace(w, 3, 0) == w

    def test_p3_two_variables(self):
        got = trace(MonomialForm(1, (5, 2)), 3, 1)
        assert got == MonomialForm(1, (1, 0))

    def test_kernel_characterization(self):
        for p, e in [(2, 1), (3, 1), (2, 2)]:
            q = p**e
            for a in itertools.product(range(2 * q + 2), repeat=2):
                expect_zero = any((x + 1) % q for x in a)
                assert trace(MonomialForm(1, a), p, e).is_zero == expect_zero

    def test_coefficient_root_is_identity_on_prime_field(self):
        # c^(p^e) == c on F_p, which is why trace keeps the coefficient as is
        for p in (2, 3, 5, 7):
            for c in range(p):
                for e in range(4):
                    assert pow(c, p**e, p) == c

    def test_zero_coefficient_normalizes(self):
        assert trace(MonomialForm(6, (1, 1)), 3, 0) == MonomialForm(0, (0, 0))
        assert trace(MonomialForm(3, (5, 5)), 3, 1).is_zero

    @given(
        p=st.sampled_from([2, 3, 5]),
        e=st.integers(0, 3),
        coeff=st.integers(0, 12),
        exponent=st.lists(st.integers(0, 60), min_size=1, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_iterated_one_variable_oracle(self, p, e, coeff, exponent):
        expected = list(exponent)
        for _ in range(e):
            expected = [None if x is None else brute_trace_one_var(x, p) for x in expected]
        got = trace(MonomialForm(coeff, tuple(exponent)), p, e)
        if coeff % p == 0 or None in expected:
            assert got == MonomialForm(0, (0,) * len(exponent))
        else:
            assert got == MonomialForm(coeff % p, tuple(expected))
        # the walks' kernel agrees with trace at coefficient 1, e = 0 included
        kernel = cartier._trace_exponent(tuple(exponent), p**e)
        assert kernel == (None if None in expected else tuple(expected))
        unit = trace(MonomialForm(1, tuple(exponent)), p, e)
        assert unit.is_zero if kernel is None else unit == MonomialForm(1, kernel)

    def test_validates_p_and_e_on_every_call(self):
        w = MonomialForm(1, (5, 2))
        for _ in range(2):
            assert trace(w, 3, 1) == MonomialForm(1, (1, 0))
            for p in (0, 1, 4, 9):
                assert not is_prime(p)
                with pytest.raises(ValueError):
                    trace(w, p, 1)
            with pytest.raises(ValueError):
                trace(w, 3, -1)
            # a float or negative exponent entry, or a float coefficient
            for bad in (
                MonomialForm(1, (1.0, 3)),
                MonomialForm(1, (-1, 3)),
                MonomialForm(1.0, (5, 2)),
            ):
                with pytest.raises(ValueError):
                    trace(bad, 3, 1)

    def test_walks_validate_p_and_e(self):
        # bad input is reported in the order p, box, e by surjectivity, and p,
        # e, box by the ideal identity, whose e message is bracket_power's
        for p in (0, 1, 4, 9):
            message = rf"^characteristic must be prime, got {p}$"
            for e in (1, -1):
                with pytest.raises(ValueError, match=message):
                    surjectivity_counterexample(2, p, e, 2)
                with pytest.raises(ValueError, match=message):
                    ideal_identity_counterexample(maximal_ideal(2), p, e, 2)
        with pytest.raises(ValueError, match=r"^e must be >= 0$"):
            surjectivity_counterexample(2, 2, -1, 2)
        with pytest.raises(ValueError, match=r"^box must be >= 0$"):
            surjectivity_counterexample(2, 2, -1, -1)
        for box in (2, -1):
            with pytest.raises(ValueError, match=r"^Frobenius exponent e must be >= 0$"):
                ideal_identity_counterexample(maximal_ideal(2), 2, -1, box)


class TestMonomialForm:
    def test_repr(self):
        # cartier_report renders a counterexample form by its repr
        w = MonomialForm(2, (1, 0))
        assert repr(w) == "MonomialForm(coeff=2, exponent=(1, 0))"
        assert repr(MonomialForm(0, (0,))) == "MonomialForm(coeff=0, exponent=(0,))"

    def test_is_zero_reads_the_coefficient(self):
        assert MonomialForm(0, (4, 1)).is_zero
        assert not MonomialForm(1, (0, 0)).is_zero

    def test_immutable(self):
        w = MonomialForm(2, (1, 0))
        with pytest.raises(AttributeError):
            w.coeff = 3
        with pytest.raises(AttributeError):
            w.exponent = (0, 0)
        assert w == MonomialForm(2, (1, 0))


class TestSurjectivity:
    def test_one_var_box(self):
        assert surjectivity_counterexample(1, 2, 1, 10) is None

    def test_e_zero_trivial(self):
        assert surjectivity_counterexample(2, 5, 0, 4) is None

    def test_two_vars_e2(self):
        assert surjectivity_counterexample(2, 3, 2, 5) is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_sweep(self, n, p):
        for e in (1, 2):
            assert surjectivity_counterexample(n, p, e, 6) is None

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("box", [-1, -5])
    def test_negative_box_rejected(self, n, box):
        # an empty box would verify vacuously
        with pytest.raises(ValueError, match=r"^box must be >= 0$"):
            surjectivity_counterexample(n, 2, 1, box)
        with pytest.raises(ValueError, match=r"^box must be >= 0$"):
            ideal_identity_counterexample(power(maximal_ideal(n), 2), 2, 1, box)

    def test_box_zero_checks_the_origin(self):
        assert surjectivity_counterexample(2, 3, 1, 0) is None
        assert ideal_identity_counterexample(maximal_ideal(2), 3, 1, 0) is None

    @given(
        n=st.integers(1, 3),
        p=st.sampled_from([2, 3, 5]),
        e=st.integers(0, 2),
        box=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_trace_calls_as_plain_scan(self, n, p, e, box):
        # the preimage walk traces what the per-target scan traces, in its order
        for wrapped in (_TRUE_KERNEL, _lowered_trace):
            walked = _recorded(surjectivity_counterexample, wrapped, n, p, e, box)
            plain = _recorded(_plain_surjectivity_counterexample, wrapped, n, p, e, box)
            assert walked == plain


class TestIdealIdentity:
    def test_principal_one_var(self):
        assert ideal_identity_counterexample(MonomialIdeal(1, ((1,),)), 2, 1, 12) is None

    def test_unit_ideal_reduces_to_surjectivity(self):
        assert ideal_identity_counterexample(unit_ideal(2), 3, 1, 4) is None

    def test_square_of_maximal(self):
        assert ideal_identity_counterexample(power(maximal_ideal(2), 2), 3, 1, 10) is None

    def test_random_ideals(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randrange(1, 4)
            p = rng.choice([2, 3])
            e = rng.randrange(1, 3)
            box = max(2, 30 // (p**e * n))
            ideal = random_primary_ideal(n, rng)
            assert ideal_identity_counterexample(ideal, p, e, box) is None


_TRUE_KERNEL = cartier._trace_exponent


def _lowered_trace(exponent, q):
    # wrong on purpose: lowers the last nonzero entry of every image
    t = _TRUE_KERNEL(exponent, q)
    if t is None or not any(t):
        return t
    i = max(i for i, x in enumerate(t) if x)
    return t[:i] + (t[i] - 1,) + t[i + 1 :]


def _lossy_trace(exponent, q):
    # wrong on purpose: drops every image of total degree 2 mod 3
    t = _TRUE_KERNEL(exponent, q)
    if t is not None and sum(t) % 3 == 2:
        return None
    return t


def _reversed_trace(exponent, q):
    # wrong on purpose: reverses every image exponent
    t = _TRUE_KERNEL(exponent, q)
    return None if t is None else t[::-1]


def _phantom_trace(exponent, q):
    # wrong on purpose: also traces to x^(a // q) when every entry is q - 1 mod q,
    # or is at least q and q - 2 mod q, so some zero traces become nonzero
    t = _TRUE_KERNEL(exponent, q)
    if t is None and all(x % q == q - 1 or x >= q and x % q == q - 2 for x in exponent):
        return tuple(x // q for x in exponent)
    return t


def _outward_trace(exponent, q):
    # wrong on purpose: sends every image of odd total degree to x1^(t1 + 5), which
    # is out of every box of side at most 5, and in n >= 2 variables may be out of the ideal
    t = _TRUE_KERNEL(exponent, q)
    if t is not None and sum(t) % 2:
        return (t[0] + 5,) + (0,) * (len(t) - 1)
    return t


_PRINCIPAL = (1, ((0,),))
_AXES = (3, ((0, 0, 2), (0, 8, 0), (8, 0, 0)))
_MIXED = (3, ((0, 0, 8), (0, 8, 0), (1, 1, 0), (8, 0, 0)))
_PURE = (1, ((2,),))
_STAIRS = (2, ((0, 8), (3, 6), (5, 3), (7, 0)))
_CUBE = (2, ((0, 3), (1, 2), (2, 1), (3, 0)))


class TestCounterexampleOrder:
    """With a deliberately wrong trace, the verifiers report fixed counterexamples.

    The expected values were recorded before bracket membership was decided
    per q-block. They pin the lexicographic scan order, the rule that the
    first traced form to escape the ideal is returned, and the minimum of
    the image/ideal symmetric difference otherwise.
    """

    @pytest.mark.parametrize(
        "wrong, ideal, p, e, box, expected",
        [
            (_lowered_trace, _PRINCIPAL, 3, 1, 8, (8,)),
            (_lowered_trace, _AXES, 2, 1, 4, (0, 0, 1)),
            (_lowered_trace, _MIXED, 3, 1, 2, (1, 0, 0)),
            (_lowered_trace, _PURE, 2, 1, 12, (1,)),
            (_lowered_trace, _STAIRS, 2, 1, 6, (3, 5)),
            (_lowered_trace, _CUBE, 3, 1, 6, (0, 2)),
            (_lossy_trace, _PRINCIPAL, 3, 1, 8, (2,)),
            (_lossy_trace, _AXES, 2, 1, 4, (0, 0, 2)),
            (_lossy_trace, _MIXED, 3, 1, 2, (1, 1, 0)),
            (_lossy_trace, _PURE, 2, 1, 12, (2,)),
            (_lossy_trace, _STAIRS, 2, 1, 6, (5, 3)),
            (_lossy_trace, _CUBE, 3, 1, 6, (0, 5)),
            (_reversed_trace, _AXES, 2, 1, 4, (2, 0, 0)),
            (_reversed_trace, _MIXED, 3, 1, 2, (0, 1, 1)),
            (_reversed_trace, _STAIRS, 2, 1, 6, (3, 5)),
        ],
    )
    def test_ideal_identity(self, monkeypatch, wrong, ideal, p, e, box, expected):
        monkeypatch.setattr(cartier, "_trace_exponent", wrong)
        assert ideal_identity_counterexample(MonomialIdeal(*ideal), p, e, box) == expected

    @pytest.mark.parametrize(
        "wrong, n, p, e, box, expected",
        [
            (_lowered_trace, 1, 2, 1, 6, (1,)),
            (_lowered_trace, 2, 3, 1, 5, (0, 1)),
            (_lowered_trace, 3, 2, 2, 4, (0, 0, 1)),
            (_lossy_trace, 1, 2, 1, 6, (2,)),
            (_lossy_trace, 2, 3, 1, 5, (0, 2)),
            (_lossy_trace, 3, 2, 2, 4, (0, 0, 2)),
        ],
    )
    def test_surjectivity(self, monkeypatch, wrong, n, p, e, box, expected):
        monkeypatch.setattr(cartier, "_trace_exponent", wrong)
        assert surjectivity_counterexample(n, p, e, box) == expected


class TestSemilinearity:
    def test_plain_trace_at_c_zero(self):
        assert semilinearity_counterexample(2, 1, [((0,), (3,))]) is None

    def test_reference_instance(self):
        # both sides equal x^2 dx
        lhs = trace(MonomialForm(1, (5,)), 2, 1)
        rhs = _times(trace(MonomialForm(1, (3,)), 2, 1), (1,))
        assert lhs == rhs == MonomialForm(1, (2,))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_residue_class_design(self, p):
        for n in (1, 2, 3):
            for e in (0, 1, 2):
                cases = residue_class_cases(n, p**e)
                assert semilinearity_counterexample(p, e, cases) is None

    @given(
        a=st.tuples(st.integers(0, 20), st.integers(0, 20)),
        c=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        coeff=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_semilinearity_property(self, a, c, coeff):
        for p, e in [(2, 1), (5, 1), (3, 2)]:
            w = MonomialForm(coeff % p, a)
            q = p**e
            lhs = trace(_times(w, tuple(q * x for x in c)), p, e)
            rhs = _times(trace(w, p, e), c)
            if rhs.is_zero:
                assert lhs.is_zero
            else:
                assert lhs == rhs


class TestIteration:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_iteration_law_box(self, p):
        for e1, e2 in itertools.product((0, 1, 2), repeat=2):
            for a in itertools.product(range(21), repeat=2):
                w = MonomialForm(1, a)
                assert trace(w, p, e1 + e2) == trace(trace(w, p, e1), p, e2)

    def test_residue_class_forms(self):
        for p in (2, 3, 5):
            for e1, e2 in ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1)):
                forms = residue_class_forms(2, p ** (e1 + e2))
                assert iteration_counterexample(p, e1, e2, forms) is None


class TestReport:
    def test_clean_report(self):
        report = cartier_report(2, 3, 1, 6)
        assert report == {
            "surjective": True,
            "ideal_identity": True,
            "semilinear": True,
            "iteration": True,
        }

    def test_first_failed_check_gives_the_counterexample(self, monkeypatch):
        monkeypatch.setattr(cartier, "semilinearity_counterexample", lambda *a: ((1,), "w"))
        monkeypatch.setattr(cartier, "iteration_counterexample", lambda *a: "v")
        report = cartier_report(1, 2, 1, 3)
        assert report == {
            "surjective": True,
            "ideal_identity": True,
            "semilinear": False,
            "iteration": False,
            "counterexample": {"check": "semilinear", "data": "((1,), 'w')"},
        }

    def test_negative_box_rejected(self):
        with pytest.raises(ValueError, match=r"^box must be >= 0$"):
            cartier_report(2, 2, 1, -1)

    def test_report_with_explicit_ideal(self):
        report = cartier_report(1, 2, 2, 8, ideal=MonomialIdeal(1, ((2,),)))
        assert all(report.values())

    def test_ideal_of_another_variable_count_rejected(self):
        # the ideal identity would run in 2 variables inside a 3-variable report
        with pytest.raises(ValueError, match=r"^ideal has 2 variables, expected n = 3$"):
            cartier_report(3, 2, 1, 4, ideal=MonomialIdeal(2, ((1, 0), (0, 1))))


def _plain_ideal_identity_counterexample(ideal, p, e, box):
    """Oracle: the plain lexicographic scan, asking the bracket at every point."""
    q = p**e
    bracket = bracket_power(ideal, p, e)
    image = set()
    for a in itertools.product(range(q * (box + 1)), repeat=ideal.n):
        if a not in bracket:
            continue
        traced = cartier.trace(MonomialForm(1, a), p, e)
        if traced.is_zero:
            continue
        if traced.exponent not in ideal:
            return traced.exponent
        if all(x <= box for x in traced.exponent):
            image.add(traced.exponent)
    target = {b for b in itertools.product(range(box + 1), repeat=ideal.n) if b in ideal}
    difference = image.symmetric_difference(target)
    return min(difference) if difference else None


def _plain_surjectivity_counterexample(n, p, e, box):
    """Oracle: the per-target scan, building each preimage q*b + q - 1."""
    q = p**e
    for b in itertools.product(range(box + 1), repeat=n):
        if cartier._trace_exponent(tuple([q * x + q - 1 for x in b]), q) != b:
            return b
    return None


def _recorded(scan, wrapped, *args):
    """The scan's result and every (exponent, q) it passed to the trace kernel.

    The plain scans call the kernel too (the ideal-image one through the
    public trace), so the recording covers both sides.
    """
    calls = []

    def recording(exponent, q):
        calls.append((exponent, q))
        return wrapped(exponent, q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cartier, "_trace_exponent", recording)
        result = scan(*args)
    return result, calls


class TestRowWalk:
    """The row walk traces exactly what the plain scan traces, in its order."""

    @given(
        n=st.integers(1, 3),
        p=st.sampled_from([2, 3]),
        e=st.integers(1, 2),
        box=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_trace_calls_as_plain_scan(self, n, p, e, box, seed):
        ideal = random_primary_ideal(n, random.Random(seed))
        for wrapped in (_TRUE_KERNEL, _lowered_trace, _outward_trace):
            walked = _recorded(ideal_identity_counterexample, wrapped, ideal, p, e, box)
            plain = _recorded(_plain_ideal_identity_counterexample, wrapped, ideal, p, e, box)
            assert walked == plain


class TestUpSetQuestions:
    """Each line of the target box costs one binary search, and no bracket ideal is asked."""

    @pytest.mark.parametrize("seed", range(3))
    def test_questions_per_line_are_logarithmic(self, monkeypatch, seed):
        n, p, e, box = 3, 2, 1, 10
        ideal = random_primary_ideal(n, random.Random(seed))
        has, contains = MonomialIdeal._has, MonomialIdeal.__contains__
        asked = {"other ideals": 0, "ideal": 0, "escape checks": 0}

        def counting_has(asked_ideal, a):
            # the bracket would be another object, equal to bracket_power(ideal, p, e)
            asked["ideal" if asked_ideal is ideal else "other ideals"] += 1
            return has(asked_ideal, a)

        def counting_contains(asked_ideal, a):
            asked["escape checks"] += 1
            return contains(asked_ideal, a)

        monkeypatch.setattr(MonomialIdeal, "_has", counting_has)
        monkeypatch.setattr(MonomialIdeal, "__contains__", counting_contains)
        assert ideal_identity_counterexample(ideal, p, e, box) is None
        # every trace of the true kernel is in the box, so the line firsts answer
        # each escape check and the ideal is asked the line questions only
        bound = (box + 1) ** (n - 1) * math.ceil(math.log2(box + 2))
        assert asked["other ideals"] == asked["escape checks"] == 0
        assert 0 < asked["ideal"] <= bound

    def test_only_traces_out_of_the_box_ask_the_ideal(self, monkeypatch):
        ideal, p, e, box = MonomialIdeal(2, ((0, 2), (2, 1), (6, 0))), 2, 1, 3
        has, asked = MonomialIdeal._has, []

        def counting_has(asked_ideal, a):
            if max(a) > box:
                asked.append(a)
            return has(asked_ideal, a)

        monkeypatch.setattr(MonomialIdeal, "_has", counting_has)
        for kernel, answer in [(_TRUE_KERNEL, None), (_outward_trace, (5, 0))]:
            asked.clear()
            found, calls = _recorded(ideal_identity_counterexample, kernel, ideal, p, e, box)
            traced = [t for t in (kernel(a, q) for a, q in calls) if t is not None]
            # the walk stops at the escape, so each trace out of the box asks once
            assert asked == [t for t in traced if max(t) > box]
            assert found == answer
        assert asked


class TestSharedWalk:
    """Ideals that share a box share one walk over their sum's bracket members."""

    @given(
        n=st.integers(1, 3),
        pe=st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]),
        box=st.integers(0, 3),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_answer_is_its_own_plain_scan(self, n, pe, box, seeds):
        p, e = pe
        # small boxes: at most 1000 points for each plain scan
        while box and (p**e * (box + 1)) ** n > 1000:
            box -= 1
        ideals = [random_primary_ideal(n, random.Random(seed)) for seed in seeds]
        kernels = (_lowered_trace, _lossy_trace, _reversed_trace, _phantom_trace, _outward_trace)
        for kernel in (_TRUE_KERNEL, *kernels):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cartier, "_trace_exponent", kernel)
                shared = ideal_identity_counterexamples(ideals, p, e, box)
                plain = [_plain_ideal_identity_counterexample(ideal, p, e, box) for ideal in ideals]
            assert shared == plain
        # under the true kernel no ideal escapes, so the walk traces every member of the sum
        total = MonomialIdeal(n, tuple(g for ideal in ideals for g in ideal.gens))
        walked = _recorded(ideal_identity_counterexamples, _TRUE_KERNEL, ideals, p, e, box)
        summed = _recorded(_plain_ideal_identity_counterexample, _TRUE_KERNEL, total, p, e, box)
        assert walked == ([None] * len(ideals), summed[1])

    def test_mixed_variable_counts_refused(self):
        message = r"^a shared walk needs one variable count, got \[1, 2\]$"
        with pytest.raises(ValueError, match=message):
            ideal_identity_counterexamples([maximal_ideal(2), maximal_ideal(1)], 2, 1, 2)

    def test_no_ideals(self):
        assert ideal_identity_counterexamples([], 2, 1, 2) == []
        # p, e and box are checked even so
        with pytest.raises(ValueError, match=r"^box must be >= 0$"):
            ideal_identity_counterexamples([], 2, 1, -1)


def _negative_trace(exponent, q):
    # malformed on purpose: every nonzero image starts with -1
    t = _TRUE_KERNEL(exponent, q)
    return None if t is None else (-1,) + t[1:]


def _float_trace(exponent, q):
    # malformed on purpose: every nonzero image starts with a float
    t = _TRUE_KERNEL(exponent, q)
    return None if t is None else (float(t[0]),) + t[1:]


def _raised(scan, kernel, *args):
    """The ValueError message the scan raises under the kernel, and the kernel calls before it."""
    calls = []

    def recording(exponent, q):
        calls.append((exponent, q))
        return kernel(exponent, q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cartier, "_trace_exponent", recording)
        with pytest.raises(ValueError) as raised:
            scan(*args)
    return str(raised.value), calls


class TestMalformedTraces:
    """A kernel image that is no exponent is refused at its first escape check."""

    @pytest.mark.parametrize(
        "kernel, message",
        [
            (_negative_trace, r"^exponent entries must be >= 0, got \(-1, "),
            (_float_trace, r"^exponent entries must be integers, got \(\d+\.0, "),
        ],
        ids=["negative", "float"],
    )
    @pytest.mark.parametrize("p, e, box", [(2, 1, 3), (3, 1, 2), (2, 2, 1)])
    def test_same_error_after_the_same_calls_as_the_plain_scan(self, kernel, message, p, e, box):
        gens = [((1, 1),), ((0, 1), (2, 0)), ((1, 0), (0, 1))]
        ideals = [MonomialIdeal(2, g) for g in gens]
        for ideal in ideals:
            walked = _raised(ideal_identity_counterexample, kernel, ideal, p, e, box)
            assert walked == _raised(_plain_ideal_identity_counterexample, kernel, ideal, p, e, box)
            assert re.match(message, walked[0])
        # a shared walk raises at the first nonzero trace of the sum's bracket
        total = MonomialIdeal(2, tuple(g for ideal in ideals for g in ideal.gens))
        shared = _raised(ideal_identity_counterexamples, kernel, ideals, p, e, box)
        assert shared == _raised(_plain_ideal_identity_counterexample, kernel, total, p, e, box)


_BIG_PRIME = 1000000000000000003


class TestResidueClassDesign:
    """The semilinearity and iteration checks run on one fixed design of at most 1 + 7n cases."""

    def test_cases_at_n_2_and_q_9(self):
        top, e_1 = (8, 8), (1, 0)
        shifts = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3), (1, 1)]
        cross = [(0, 8), (1, 8), (7, 8), (8, 0), (8, 1), (8, 7)]
        pairs = [(c, top) for c in shifts] + [(e_1, r) for r in cross]
        assert residue_class_cases(2, 9) == pairs
        forms = [tuple(9 * x + y for x, y in zip(c, r)) for c, r in pairs]
        assert residue_class_forms(2, 9) == forms

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_shifts_and_residues(self, n):
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        pairs = {tuple(map(sum, zip(units[i], units[(i + 1) % n]))) for i in range(n)}
        shifts = {(0,) * n} | {tuple(k * x for x in u) for k in (1, 2, 3) for u in units} | pairs
        for q, lowered in [(1, set()), (2, {0}), (3, {0, 1}), (4, {0, 1, 2}), (9, {0, 1, 7})]:
            cases = residue_class_cases(n, q)
            top = (q - 1,) * n
            on_top = [c for c, a in cases if a == top]
            assert len(on_top) == len(set(on_top)) and set(on_top) == shifts
            cross = [(c, a) for c, a in cases if a != top]
            assert all(c == units[0] for c, _ in cross)
            assert sorted(r for _, r in cross) == sorted(
                top[:i] + (r,) + top[i + 1 :] for i in range(n) for r in lowered
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
    @pytest.mark.parametrize("p", [2, 5, _BIG_PRIME])
    def test_size_is_linear_in_n_for_every_p(self, n, p):
        for e in (0, 1, 2, 3):
            q = p**e
            cases, forms = residue_class_cases(n, q), residue_class_forms(n, q)
            assert len(cases) == len(forms) <= 1 + 7 * n
            assert all(type(x) is int for c, a in cases for x in c + a)
            assert all(type(x) is int for a in forms for x in a)

    # at n = 1 the reversed kernel is the true one
    @pytest.mark.parametrize("p, e", [(2, 1), (2, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize(
        "wrong, n",
        list(itertools.product((_lowered_trace, _lossy_trace, _phantom_trace), (1, 2, 3)))
        + [(_reversed_trace, 2), (_reversed_trace, 3)],
    )
    def test_every_test_kernel_is_caught(self, monkeypatch, wrong, n, p, e):
        monkeypatch.setattr(cartier, "_trace_exponent", wrong)
        report = cartier_report(n, p, e, 0)
        assert not (report["semilinear"] and report["iteration"])
        assert report["counterexample"]["check"] in ("semilinear", "iteration")

    def test_first_counterexample_at_q_9(self, monkeypatch):
        # the first shift of degree 2 mod 3, on the top residue
        monkeypatch.setattr(cartier, "_trace_exponent", _lossy_trace)
        cases = residue_class_cases(2, 9)
        assert semilinearity_counterexample(3, 2, cases) == ((2, 0), (8, 8))


def _reference_semilinearity(p, e, cases):
    """Oracle: the first (c, form) where the public trace breaks semilinearity, or None.

    It checks trace(x^(q*c) * w) == x^c * trace(w) on forms, with the design's
    exponents and coefficients that alternate 1 and p - 1.
    """
    q = p**e
    for (c, a), coeff in zip(cases, itertools.cycle((1, p - 1))):
        w = MonomialForm(coeff, a)
        if trace(_times(w, tuple(q * x for x in c)), p, e) != _times(trace(w, p, e), c):
            return (c, w)
    return None


def _reference_iteration(p, e1, e2, exponents):
    """Oracle: the first form where the public trace breaks the iteration law, or None."""
    for a, coeff in zip(exponents, itertools.cycle((1, p - 1))):
        w = MonomialForm(coeff, a)
        if trace(w, p, e1 + e2) != trace(trace(w, p, e1), p, e2):
            return w
    return None


class TestExponentChecksMatchForms:
    """The exponent-level checks find a counterexample exactly where the form-level ones do.

    The scalar of a form never changes which exponents break a law: on F_p,
    lambda^(p^e) == lambda, so both sides carry the same nonzero coefficient.
    """

    @pytest.mark.parametrize("p, e", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
    @pytest.mark.parametrize(
        "kernel",
        [_TRUE_KERNEL, _lowered_trace, _lossy_trace, _reversed_trace, _phantom_trace],
        ids=["true", "lowered", "lossy", "reversed", "phantom"],
    )
    def test_same_counterexamples(self, monkeypatch, kernel, p, e):
        monkeypatch.setattr(cartier, "_trace_exponent", kernel)
        for n in (1, 2, 3):
            cases = residue_class_cases(n, p**e)
            found = semilinearity_counterexample(p, e, cases)
            reference = _reference_semilinearity(p, e, cases)
            assert found == (None if reference is None else (reference[0], reference[1].exponent))
            for e1 in range(e + 1):
                exponents = residue_class_forms(n, p**e)
                found = iteration_counterexample(p, e1, e - e1, exponents)
                reference = _reference_iteration(p, e1, e - e1, exponents)
                assert found == (None if reference is None else reference.exponent)

    def test_the_reference_catches_every_test_kernel(self, monkeypatch):
        # so that the comparison above is not between two checks that never fire
        for kernel in (_lowered_trace, _lossy_trace, _reversed_trace, _phantom_trace):
            monkeypatch.setattr(cartier, "_trace_exponent", kernel)
            cases, exponents = residue_class_cases(3, 4), residue_class_forms(3, 4)
            assert _reference_semilinearity(2, 2, cases) or _reference_iteration(
                2, 1, 1, exponents
            )


class TestWorkLimit:
    """A walk over more than WORK_LIMIT points is refused before it allocates."""

    def test_estimate_at_the_limit(self):
        limit = cartier.WORK_LIMIT
        assert limit == 10**6
        for side, n in [(1000, 2), (10, 6), (31, 4), (0, 5), (1, 10**12)]:
            cartier._check_work("surjectivity", side, n)
        for side, n in [(1001, 2), (31, 5), (2, 20), (2, 10**12), (_BIG_PRIME, 1)]:
            message = (
                rf"^the surjectivity walk would visit {side}\^{n} points, "
                rf"over the work limit of {limit}$"
            )
            with pytest.raises(ValueError, match=message):
                cartier._check_work("surjectivity", side, n)

    def test_surjectivity_box_over_the_limit(self):
        with pytest.raises(ValueError, match=r"^the surjectivity walk would visit 31\^5 points"):
            surjectivity_counterexample(5, 2, 1, 30)

    def test_ideal_walk_over_the_limit(self):
        # q * (box + 1) = 3 * 10^18 per coordinate: refused before any row is built
        message = rf"^the ideal identity walk would visit {3 * _BIG_PRIME}\^2 points"
        with pytest.raises(ValueError, match=message):
            ideal_identity_counterexample(power(maximal_ideal(2), 2), _BIG_PRIME, 1, 2)
        with pytest.raises(ValueError, match=r"^the ideal identity walk would visit \d+\^1 points"):
            ideal_identity_counterexample(MonomialIdeal(1, ((1,),)), 101, 4, 2)

    def test_report_checks_both_costs_before_the_default_ideal(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("the default ideal was built")

        monkeypatch.setattr(cartier, "power", unbuilt)
        with pytest.raises(ValueError, match=r"^the ideal identity walk would visit"):
            cartier_report(2, _BIG_PRIME, 1, 2)
        with pytest.raises(ValueError, match=r"^the surjectivity walk would visit 31\^5 points"):
            cartier_report(5, 2, 1, 30)
        # the ideal identity runs on min(box, 8): 16^5 > 10^6 but the full box is refused first
        with pytest.raises(ValueError, match=r"^the ideal identity walk would visit 18\^5 points"):
            cartier_report(5, 2, 1, 10)

    def test_design_over_the_limit(self, monkeypatch):
        # (1 + 7n) * n entries: n = 377 holds 995,280, n = 378 holds 1,000,566
        monkeypatch.setattr(cartier, "residue_class_cases", lambda *args: [])
        monkeypatch.setattr(cartier, "residue_class_forms", lambda *args: [])
        ideal = MonomialIdeal(377, ((1,) + (0,) * 376,))
        assert cartier_report(377, 2, 0, 0, ideal=ideal)["semilinear"]
        message = r"^the Cartier design would hold up to 2647 forms of 378 entries, over"
        with pytest.raises(ValueError, match=message):
            cartier_report(378, 2, 0, 0, ideal=MonomialIdeal(378, ((1,) + (0,) * 377,)))

    def test_large_prime_with_e_zero_is_allowed(self):
        report = cartier_report(3, 99999999999999997, 0, 3)
        assert report == dict.fromkeys(["surjective", "ideal_identity", "semilinear", "iteration"], True)
