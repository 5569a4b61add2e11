import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobjets.cartier as cartier
from frobjets.cartier import (
    MonomialForm,
    cartier_report,
    ideal_identity_counterexample,
    iteration_counterexample,
    random_primary_ideal,
    residue_class_cases,
    residue_class_forms,
    residue_table_counterexample,
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

    def test_verifiers_validate_p_and_e(self):
        # bad input is reported in the order p, box, e by surjectivity, p, e by
        # the ideal identity and n, p, e by the residue table
        for p in (0, 1, 4, 9):
            message = rf"^characteristic must be prime, got {p}$"
            for e in (1, -1):
                with pytest.raises(ValueError, match=message):
                    surjectivity_counterexample(2, p, e, 2)
                with pytest.raises(ValueError, match=message):
                    ideal_identity_counterexample(maximal_ideal(2), p, e)
                with pytest.raises(ValueError, match=message):
                    residue_table_counterexample(2, p, e)
        for check in (
            lambda: surjectivity_counterexample(2, 2, -1, 2),
            lambda: ideal_identity_counterexample(maximal_ideal(2), 2, -1),
            lambda: residue_table_counterexample(2, 2, -1),
        ):
            with pytest.raises(ValueError, match=r"^e must be >= 0$"):
                check()
        with pytest.raises(ValueError, match=r"^box must be >= 0$"):
            surjectivity_counterexample(2, 2, -1, -1)
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            residue_table_counterexample(0, 4, -1)


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

    def test_box_zero_checks_the_origin(self):
        assert surjectivity_counterexample(2, 3, 1, 0) is None

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
        assert ideal_identity_counterexample(MonomialIdeal(1, ((1,),)), 2, 1) is None

    def test_unit_ideal_reduces_to_surjectivity(self):
        assert ideal_identity_counterexample(unit_ideal(2), 3, 1) is None

    def test_square_of_maximal(self):
        assert ideal_identity_counterexample(power(maximal_ideal(2), 2), 3, 1) is None

    def test_random_ideals(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randrange(1, 4)
            p = rng.choice([2, 3])
            e = rng.randrange(0, 3)
            ideal = random_primary_ideal(n, rng)
            assert ideal_identity_counterexample(ideal, p, e) is None

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 9])
    def test_each_generator_under_the_top_and_lowered_residues(self, q):
        ideal = MonomialIdeal(2, ((0, 3), (2, 1), (4, 0)))
        p, e = {1: (2, 0), 2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2)}[q]
        top = (q - 1, q - 1)
        lowered = [a for _, a in residue_class_cases(2, q) if a != top]
        expected = [
            tuple(q * x + y for x, y in zip(g, r)) for g in ideal.gens for r in [top] + lowered
        ]
        found, calls = _recorded(ideal_identity_counterexample, _TRUE_KERNEL, ideal, p, e)
        assert found is None
        assert calls == [(a, q) for a in expected]


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
    """With a deliberately wrong trace, the scans report fixed counterexamples.

    The expected values were recorded before bracket membership was decided
    per q-block, and the plain ideal-image scan still reports them. They pin
    the lexicographic scan order, the rule that the first traced form to
    escape the ideal is returned, and the minimum of the image/ideal
    symmetric difference otherwise.
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
        assert _plain_ideal_identity_counterexample(MonomialIdeal(*ideal), p, e, box) == expected

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


def _negative_trace(exponent, q):
    # malformed on purpose: every nonzero image starts with -1
    t = _TRUE_KERNEL(exponent, q)
    return None if t is None else (-1,) + t[1:]


def _float_trace(exponent, q):
    # malformed on purpose: every nonzero image starts with a float
    t = _TRUE_KERNEL(exponent, q)
    return None if t is None else (float(t[0]),) + t[1:]


def _plain_residue_counterexample(n, p, e, box):
    """Oracle: the plain box scan of the residue table, each exponent through the public trace.

    x^a dx must trace to x^((a+1)/q - 1) dx when q divides every entry of
    a + 1, and to zero otherwise.
    """
    q = p**e
    for a in itertools.product(range(q * (box + 1)), repeat=n):
        expected = tuple((x + 1) // q - 1 for x in a) if all((x + 1) % q == 0 for x in a) else None
        traced = trace(MonomialForm(1, a), p, e)
        if (None if traced.is_zero else traced.exponent) != expected:
            return a
    return None


_WRONG_KERNELS = {
    "lowered": _lowered_trace,
    "lossy": _lossy_trace,
    "reversed": _reversed_trace,
    "phantom": _phantom_trace,
    "outward": _outward_trace,
}


class TestDesignAgainstPlainScans:
    """The residue-complete design and the plain box scans agree on every test kernel.

    Both pass the true kernel, and both fail each wrong one. The phantom
    kernel traces only zero classes wrongly, onto x^(a // q), which is in I
    whenever x^a is in I^[q]: surjectivity and the ideal identity still hold
    under it, so among the scans only the plain residue scan catches it.
    """

    @given(
        n=st.integers(1, 3),
        pe=st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_design_and_plain_scans_agree(self, n, pe, seed):
        p, e = pe
        ideal = random_primary_ideal(n, random.Random(seed))
        # box 1 reaches total degree 2 from n = 2 on, box 2 at n = 1; at most 5832 points
        box = 3 if n < 3 else 1
        for name, kernel in [("true", _TRUE_KERNEL), *_WRONG_KERNELS.items()]:
            if n == 1 and name == "reversed":
                continue  # reversing one entry changes nothing
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cartier, "_trace_exponent", kernel)
                table = residue_table_counterexample(n, p, e)
                design = ideal_identity_counterexample(ideal, p, e)
                identities = [
                    _plain_surjectivity_counterexample(n, p, e, box),
                    _plain_ideal_identity_counterexample(ideal, p, e, box),
                ]
                residues = _plain_residue_counterexample(n, p, e, box)
            if name == "true":
                assert table is design is residues is None
                assert identities == [None, None]
            else:
                assert table is not None and residues is not None, name
                assert (identities != [None, None]) == (name != "phantom"), name

    @pytest.mark.parametrize("kernel", [_negative_trace, _float_trace], ids=["negative", "float"])
    def test_malformed_images_fail_the_design(self, monkeypatch, kernel):
        # the plain ideal scan refuses the first nonzero image as an exponent; the
        # design reports the exponent it traced: (2.0,) == (2,), so types count
        monkeypatch.setattr(cartier, "_trace_exponent", kernel)
        ideal = MonomialIdeal(2, ((0, 1), (2, 0)))
        with pytest.raises(ValueError, match=r"^exponent entries must be "):
            _plain_ideal_identity_counterexample(ideal, 2, 1, 1)
        assert ideal_identity_counterexample(ideal, 2, 1) == (1, 3)
        assert residue_table_counterexample(2, 2, 1) == (1, 1)


class TestResidueTable:
    """Every residue of [0, q)^n under the design's shifts and the far corner 30*1."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p, e", [(2, 0), (2, 1), (3, 1), (2, 2)])
    def test_every_residue_under_every_shift(self, n, p, e):
        q = p**e
        top = (q - 1,) * n
        shifts = [c for c, a in residue_class_cases(n, q) if a == top] + [(30,) * n]
        residues = list(itertools.product(range(q), repeat=n))
        found, calls = _recorded(residue_table_counterexample, _TRUE_KERNEL, n, p, e)
        assert found is None
        assert calls == [
            (tuple(q * x + y for x, y in zip(c, r)), q) for c in shifts for r in residues
        ]

    def test_first_counterexample_at_q_9(self, monkeypatch):
        # the first shift of degree 2 mod 3, 2*e_1, on the top residue
        monkeypatch.setattr(cartier, "_trace_exponent", _lossy_trace)
        assert residue_table_counterexample(2, 3, 2) == (26, 8)

    def test_far_corner_reaches_the_30_box(self, monkeypatch):
        def deep(exponent, q):
            # wrong on purpose, and only far out: drops every image with all entries >= 30
            t = _TRUE_KERNEL(exponent, q)
            return None if t is not None and min(t) >= 30 else t

        monkeypatch.setattr(cartier, "_trace_exponent", deep)
        assert residue_table_counterexample(2, 2, 1) == (61, 61)
        assert surjectivity_counterexample(2, 2, 1, 30) == (30, 30)
        assert surjectivity_counterexample(2, 2, 1, 29) is None

    def test_over_the_limit(self):
        # up to 2 + 4n shifts of q^n residues of n entries; 2^14 of them at n = 14 is 950,272
        assert residue_table_counterexample(14, 2, 0) is None
        message = r"^the residue table would trace up to 62 shifts of 2\^15 residues, over"
        with pytest.raises(ValueError, match=message):
            residue_table_counterexample(15, 2, 1)


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
    """A q, a walk or a design over WORK_LIMIT is refused before it is built."""

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

    @pytest.mark.parametrize(
        "p, e, bits",
        [(_BIG_PRIME, 1, 60), (101, 4, 25), (1000003, 1, 20), (2, 20, 21), (3, 10**12, 10**12 + 1)],
    )
    def test_q_over_the_limit_is_refused_before_it_is_computed(self, p, e, bits):
        # 3^(10^12) would never be computed: the bit lengths decide
        message = rf"^q = {p}\^{e} has at least {bits} bits, over the work limit of 1000000$"
        for check in (
            lambda: surjectivity_counterexample(1, p, e, 0),
            lambda: ideal_identity_counterexample(MonomialIdeal(1, ((1,),)), p, e),
            lambda: residue_table_counterexample(1, p, e),
            lambda: cartier_report(1, p, e, 0),
        ):
            with pytest.raises(ValueError, match=message):
                check()

    @pytest.mark.parametrize("p, e", [(2, 19), (999983, 1), (_BIG_PRIME, 0), (3, 12)])
    def test_q_at_most_the_limit_is_allowed(self, p, e):
        assert surjectivity_counterexample(1, p, e, 0) is None
        assert ideal_identity_counterexample(MonomialIdeal(1, ((1,),)), p, e) is None
        assert cartier_report(1, p, e, 0)["ideal_identity"]

    def test_report_checks_every_cost_before_the_default_ideal(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("the default ideal was built")

        monkeypatch.setattr(cartier, "power", unbuilt)
        with pytest.raises(ValueError, match=r"^q = 1000000000000000003\^1 has at least 60 bits"):
            cartier_report(2, _BIG_PRIME, 1, 2)
        with pytest.raises(ValueError, match=r"^the surjectivity walk would visit 31\^5 points"):
            cartier_report(5, 2, 1, 30)
        # m^2 in 38 variables has 741 generators, each under 38 lowered residues at q = 2
        message = r"^the ideal design would trace 28158 lowered forms of 38 entries, over"
        with pytest.raises(ValueError, match=message):
            cartier_report(38, 2, 1, 0)

    def test_ideal_design_at_the_limit(self):
        # 703 generators of m^2 in 37 variables: 703 * 37 * 37 = 962,407 entries
        assert cartier_report(37, 2, 1, 0)["ideal_identity"]
        # at q = 1 no residue is lowered, so m^2's own budget decides
        assert cartier_report(38, 2, 0, 0)["ideal_identity"]

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
