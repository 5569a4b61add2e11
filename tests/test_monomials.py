import inspect
import itertools
import random
from enum import IntEnum
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobjets import monomials
from frobjets.cartier import (
    MonomialForm,
    iteration_counterexample,
    random_primary_ideal,
    semilinearity_counterexample,
    trace,
)
from frobjets.jets import frobenius_threshold, pn_threshold
from frobjets.models import projective_space
from frobjets.monomials import (
    InclusionReport,
    MonomialIdeal,
    bracket_power,
    cobasis,
    contains,
    contains_maximal_power,
    ensure_prime,
    is_prime,
    maximal_ideal,
    minimalize,
    noncontainment_witness,
    power,
    staircase_corners,
    staircase_max_degree,
    unit_ideal,
    verify_lemma_monomials,
    _dominance_index,
)


class _One(IntEnum):
    ONE = 1


def degree_monomials(n, d):
    """All exponents in n variables of total degree exactly d."""
    return [a for a in itertools.product(range(d + 1), repeat=n) if sum(a) == d]


def divides(a, b):
    """Oracle: componentwise a <= b, i.e. x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def scan_member(gens, a):
    """Oracle: x^a is in the ideal iff some generator divides it."""
    return any(divides(g, a) for g in gens)


def brute_power_gens(base_gens, k, n):
    """Oracle: all k-fold products of generators, as a raw exponent set."""
    if k == 0:
        return {(0,) * n}
    sums = {(0,) * n}
    for _ in range(k):
        sums = {
            tuple(x + y for x, y in zip(a, g)) for a in sums for g in base_gens
        }
    return sums


def trial_division(p):
    """Oracle: p is prime iff p >= 2 and no d in [2, sqrt(p)] divides it."""
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


# least strong pseudoprimes to every prime base up to 7, 11, 13, 17, 23 and 37
STRONG_PSEUDOPRIMES = [
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
]
# the least strong pseudoprime to every prime base up to 41: no exact answer there
PRIME_TEST_LIMIT = 3317044064679887385961981


class TestPrimes:
    def test_small_primes(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_prime_char_rejects_composite(self):
        with pytest.raises(ValueError):
            ensure_prime(6)
        assert ensure_prime(5) == 5

    def test_agrees_with_trial_division(self):
        # the table below 41^2 and the Miller-Rabin test above it
        for p in range(-3, 30000):
            assert is_prime(p) == trial_division(p), p

    def test_products_of_primes_above_the_bases(self):
        rng = random.Random(20)
        primes = [q for q in range(43, 20000) if trial_division(q)]
        for _ in range(300):
            a, b = rng.choice(primes), rng.choice(primes)
            assert is_prime(a) and not is_prime(a * b), (a, b)

    @pytest.mark.parametrize("p", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes_are_composite(self, p):
        assert not is_prime(p)

    @pytest.mark.parametrize("p", [10**16 + 61, 99999999999999997, 2**61 - 1, 2**31 - 1])
    def test_large_primes(self, p):
        assert ensure_prime(p) == p

    @pytest.mark.parametrize("p", [PRIME_TEST_LIMIT, PRIME_TEST_LIMIT + 2, 10**40])
    def test_refused_from_the_limit_on(self, p):
        message = f"characteristic must be below {PRIME_TEST_LIMIT} to be tested, got {p}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            ensure_prime(p)


class TestMinimalize:
    def test_divisibility_collapse(self):
        assert minimalize([(2,), (3,)], 1).gens == ((2,),)

    def test_empty_is_zero_ideal(self):
        ideal = minimalize([], 1)
        assert ideal.is_zero()

    def test_antichain_untouched(self):
        gens = [(1, 1), (2, 0), (0, 2)]
        assert set(minimalize(gens, 2).gens) == set(gens)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            minimalize([(1, 2, 3)], 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            minimalize([(1, -1)], 2)

    @pytest.mark.parametrize("bad", [1.5, 2.0, "1", True])
    def test_non_integer_entry_rejected(self, bad):
        # refused, not truncated: int(1.5) would build (1, 1)
        with pytest.raises(ValueError, match="integers"):
            MonomialIdeal(2, ((bad, 1),))
        assert MonomialIdeal(2, ([1, 1], [2, 0])).gens == ((1, 1), (2, 0))

    @pytest.mark.parametrize("bad", [1.9, "1"])
    def test_non_integer_member_rejected(self, bad):
        for ideal in (MonomialIdeal(2, ((1, 0),)), power(maximal_ideal(2), 2)):
            with pytest.raises(ValueError, match="integers"):
                (bad, 0) in ideal

    @pytest.mark.parametrize("a", [(True, 0), (0, False), (1, True), (_One.ONE, 0)])
    def test_bool_member_rejected_like_bool_generator(self, a):
        # bools and IntEnum members are int subclasses, refused like any non-int
        with pytest.raises(ValueError, match="integers"):
            MonomialIdeal(2, (a,))
        shapes = (
            MonomialIdeal(2, ((1, 0),)),
            maximal_ideal(2),
            bracket_power(MonomialIdeal(2, ((1, 1),)), 2, 1),
        )
        for ideal in shapes:
            with pytest.raises(ValueError, match="integers"):
                a in ideal


def pairwise_minimal(gens):
    """Oracle: keep g iff no other distinct generator divides it, then sort."""
    distinct = {tuple(g) for g in gens}
    return tuple(
        sorted(g for g in distinct if not any(divides(h, g) for h in distinct if h != g))
    )


@st.composite
def generator_lists(draw):
    """n and a generator list with repeats, mixing lists and tuples."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=12))
    gens = pool + draw(st.lists(st.sampled_from(pool), max_size=6)) if pool else []
    gens = draw(st.permutations(gens))
    return n, [list(g) if draw(st.booleans()) else g for g in gens]


@st.composite
def raw_generator_lists(draw):
    """n and up to 200 raw generators with repeats; perhaps one coordinate near
    10**12, perhaps the unit generator among them."""
    n = draw(st.integers(1, 4))
    entries = [st.integers(0, 6)] * n
    if draw(st.booleans()):
        entries[draw(st.integers(0, n - 1))] = st.one_of(
            st.integers(0, 6), st.integers(10**12 - 2, 10**12 + 2)
        )
    pool = draw(st.lists(st.tuples(*entries), min_size=1, max_size=120))
    gens = pool + draw(st.lists(st.sampled_from(pool), max_size=80))
    if draw(st.booleans()):
        gens.append((0,) * n)
    return n, draw(st.permutations(gens))


def antichain_with_dominated_extras(size):
    """The antichain {(i, size - i)} and, shuffled among it, generators it divides."""
    antichain = [(i, size - i) for i in range(size + 1)]
    extras = [(i + 1 + i % 3, size - i) for i in range(0, size + 1, 2)]
    extras += [(i, size - i + 1 + i % 5) for i in range(1, size + 1, 3)]
    gens = antichain + extras
    random.Random(size).shuffle(gens)
    return antichain, gens


class TestConstruction:
    """The batched generator check and the minimal antichain."""

    @given(data=generator_lists())
    @settings(max_examples=150, deadline=None)
    def test_minimalize_matches_pairwise_oracle(self, data):
        n, gens = data
        assert minimalize(gens, n).gens == pairwise_minimal(gens)
        assert MonomialIdeal(n, tuple(gens)).gens == pairwise_minimal(gens)

    @given(data=raw_generator_lists())
    @settings(max_examples=60, deadline=None)
    def test_many_raw_generators_match_pairwise_oracle(self, data):
        n, gens = data
        assert minimalize(gens, n).gens == pairwise_minimal(gens)

    def test_antichain_larger_than_a_block(self):
        # 2501 generators fill three blocks of the dominance index
        antichain, gens = antichain_with_dominated_extras(2500)
        assert minimalize(gens, 2).gens == tuple(antichain)

    # The first bad generator in list order decides the exception and its
    # text, also when an equal valid one, such as (2,) for (2.0,), is present.
    @pytest.mark.parametrize(
        "n,gens,error,message",
        [
            (1, ((2,), (2.0,)), ValueError, "exponent entries must be integers, got (2.0,)"),
            (1, ((2.0,), (2,)), ValueError, "exponent entries must be integers, got (2.0,)"),
            (2, ((1, True),), ValueError, "exponent entries must be integers, got (1, True)"),
            (
                2,
                ((_One.ONE, 0),),
                ValueError,
                "exponent entries must be integers, got (<_One.ONE: 1>, 0)",
            ),
            (2, ((1, -1), (1.5, 0)), ValueError, "exponent entries must be >= 0, got (1, -1)"),
            (2, ((1, 2), (0, -1)), ValueError, "exponent entries must be >= 0, got (0, -1)"),
            (2, ((1, 1), (1, 2, 3)), ValueError, "exponent (1, 2, 3) has length 3, expected 2"),
            (2, ((1, 2), (-3,)), ValueError, "exponent (-3,) has length 1, expected 2"),
            (2, ((1, 2), [3, 4.0]), ValueError, "exponent entries must be integers, got (3, 4.0)"),
            (2, ("ab",), ValueError, "exponent entries must be integers, got ('a', 'b')"),
            (1, (5,), TypeError, "'int' object is not iterable"),
            (2, ((2.0, 5), 5), ValueError, "exponent entries must be integers, got (2.0, 5)"),
            (2, (5, (2.0, 5)), TypeError, "'int' object is not iterable"),
        ],
    )
    def test_first_error_in_list_order(self, n, gens, error, message):
        for build in (lambda: MonomialIdeal(n, gens), lambda: minimalize(gens, n)):
            with pytest.raises(error) as info:
                build()
            assert type(info.value) is error
            assert str(info.value) == message


class TestMaximalIdeal:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generated_by_variables(self, n):
        m = maximal_ideal(n)
        assert len(m.gens) == n
        assert all(sum(g) == 1 for g in m.gens)

    def test_zero_variables_rejected(self):
        with pytest.raises(ValueError):
            maximal_ideal(0)


class TestPower:
    def test_square_of_maximal(self):
        assert set(power(maximal_ideal(2), 2).gens) == {(2, 0), (1, 1), (0, 2)}

    def test_zeroth_power_is_unit(self):
        assert power(maximal_ideal(3), 0) == unit_ideal(3)
        assert power(MonomialIdeal(2, ()), 0) == unit_ideal(2)

    def test_fifth_power_generator_count(self):
        # Oracle: degree-5 monomials in two variables form the minimal basis.
        expected = degree_monomials(2, 5)
        assert len(expected) == 6
        assert set(power(maximal_ideal(2), 5).gens) == set(expected)

    @given(
        a=st.integers(0, 4),
        b=st.integers(0, 4),
        gens=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_additivity(self, a, b, gens):
        ideal = MonomialIdeal(2, tuple(gens))
        lhs = power(ideal, a + b)
        prod_gens = {
            tuple(x + y for x, y in zip(g, h))
            for g in power(ideal, a).gens
            for h in power(ideal, b).gens
        }
        assert lhs == MonomialIdeal(2, tuple(prod_gens))

    def test_power_matches_brute_force(self):
        ideal = MonomialIdeal(2, ((2, 0), (1, 1)))
        for k in range(4):
            oracle = minimalize(brute_power_gens(ideal.gens, k, 2), 2)
            assert power(ideal, k) == oracle


def recursive_compositions(k, n):
    """Oracle: the compositions of k into n parts, by the first part, in ascending order."""
    if n == 1:
        return [(k,)]
    return [(i,) + rest for i in range(k + 1) for rest in recursive_compositions(k - i, n - 1)]


class _Built(Exception):
    pass


class TestMaximalPowerBudget:
    """m^k is built without recursion, and refused over WORK_LIMIT generator entries."""

    def test_generators_in_the_recursive_order(self):
        for n in range(1, 7):
            for k in range(9):
                assert power(maximal_ideal(n), k).gens == tuple(recursive_compositions(k, n))

    def test_generators_in_many_variables(self):
        # a recursion per variable passed the interpreter's depth limit near 1000
        assert unit_ideal(5000).gens == ((0,) * 5000,)
        assert maximal_ideal(1000).gens[:2] == ((0,) * 999 + (1,), (0,) * 998 + (1, 0))

    @pytest.mark.parametrize(
        "n, k", [(1000, 1), (10**6, 0), (2, 499999), (125, 2), (1, 10**30), (8, 6)]
    )
    def test_at_or_under_the_limit_is_built(self, monkeypatch, n, k):
        def built(*args):
            raise _Built

        monkeypatch.setattr(monomials, "combinations_with_replacement", built)
        with pytest.raises(_Built):
            monomials._maximal_ideal_power(n, k)

    @pytest.mark.parametrize(
        "n, k",
        [
            (1001, 1), (10**6 + 1, 0), (2, 500000), (126, 2),
            (10**12, 1), (3, 10**30), (10**9, 10**9),
        ],
    )
    def test_over_the_limit_is_refused(self, n, k):
        message = (
            rf"^m\^{k} in {n} variables has {n}\*C\({n + k - 1}, {k}\) "
            rf"generator entries, over the work limit of {monomials.WORK_LIMIT}$"
        )
        with pytest.raises(ValueError, match=message):
            monomials._maximal_ideal_power(n, k)

    def test_public_constructors_are_refused(self):
        for build in (
            lambda: maximal_ideal(1500),
            lambda: unit_ideal(10**7),
            lambda: power(maximal_ideal(100), 3),
            lambda: power(maximal_ideal(2), 10**40),
        ):
            with pytest.raises(ValueError, match=r"generator entries, over the work limit"):
                build()


class TestBracketPower:
    def test_scaling_rule(self):
        assert bracket_power(maximal_ideal(2), 2, 1).gens == ((0, 2), (2, 0))

    def test_e_zero_identity(self):
        ideal = MonomialIdeal(2, ((2, 0), (1, 1)))
        assert bracket_power(ideal, 3, 0) == ideal

    def test_entrywise(self):
        ideal = MonomialIdeal(2, ((2, 0), (1, 1)))
        assert set(bracket_power(ideal, 3, 1).gens) == {(6, 0), (3, 3)}

    @given(e1=st.integers(0, 3), e2=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_composition(self, e1, e2):
        ideal = MonomialIdeal(3, ((1, 0, 2), (0, 2, 1), (2, 1, 0)))
        for p in (2, 3):
            assert bracket_power(bracket_power(ideal, p, e1), p, e2) == bracket_power(
                ideal, p, e1 + e2
            )

    def test_composite_characteristic_rejected(self):
        with pytest.raises(ValueError):
            bracket_power(maximal_ideal(1), 4, 1)


class TestFrobeniusPower:
    """Every caller of _frobenius_power takes a q of up to WORK_LIMIT bits and refuses more."""

    CALLERS = {
        "bracket_power": lambda p, e: bracket_power(maximal_ideal(1), p, e),
        "frobenius_threshold": lambda p, e: frobenius_threshold(projective_space(1), 0, e, p),
        "pn_threshold": lambda p, e: pn_threshold(1, 0, e, p),
        "trace": lambda p, e: trace(MonomialForm(1, (1,)), p, e),
        "semilinearity": lambda p, e: semilinearity_counterexample(p, e, []),
        "iteration-e1": lambda p, e: iteration_counterexample(p, e, 0, []),
        "iteration-e2": lambda p, e: iteration_counterexample(p, 0, e, []),
    }

    @pytest.mark.parametrize("caller", CALLERS)
    def test_bits_at_most_the_limit(self, caller):
        # 2^999999 has exactly 10^6 bits
        self.CALLERS[caller](2, 999_999)
        for p, e, bits in ((2, 10**6, 10**6 + 1), (3, 10**12, 10**12 + 1)):
            # 3^(10^12) would never be computed: the bit lengths decide
            message = rf"^q = {p}\^{e} has at least {bits} bits, over the work limit of 1000000$"
            with pytest.raises(ValueError, match=message):
                self.CALLERS[caller](p, e)

    def test_checks_p_then_e(self):
        with pytest.raises(ValueError, match="characteristic must be prime"):
            monomials._frobenius_power(4, -1)
        for name in ("e", "e1", "Frobenius exponent e"):
            with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
                monomials._frobenius_power(2, -1, name)


class TestContains:
    def test_bracket_contains_fifth_power(self):
        big = bracket_power(power(maximal_ideal(2), 2), 2, 1)
        assert set(big.gens) == {(4, 0), (2, 2), (0, 4)}
        small = power(maximal_ideal(2), 5)
        assert contains(big, small)
        # Oracle: every degree-5 monomial is divisible by a generator of big.
        for a in degree_monomials(2, 5):
            assert any(divides(g, a) for g in big.gens)

    def test_witness_for_fourth_power(self):
        big = MonomialIdeal(2, ((4, 0), (2, 2), (0, 4)))
        small = power(maximal_ideal(2), 4)
        assert not contains(big, small)
        assert noncontainment_witness(big, small) == (1, 3) or noncontainment_witness(
            big, small
        ) == (3, 1)
        assert (3, 1) not in big

    def test_reflexive(self):
        ideal = MonomialIdeal(2, ((1, 2), (3, 0)))
        assert contains(ideal, ideal)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(maximal_ideal(2), maximal_ideal(3))

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1,
                max_size=3,
            ),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_partial_order(self, triples):
        ideals = [MonomialIdeal(2, tuple(g)) for g in triples]
        a, b, c = ideals
        # reflexivity
        assert contains(a, a)
        # antisymmetry on canonical forms
        if contains(a, b) and contains(b, a):
            assert a == b
        # transitivity
        if contains(a, b) and contains(b, c):
            assert contains(a, c)


class TestCobasis:
    def test_box(self):
        assert cobasis(MonomialIdeal(2, ((2, 0), (0, 2)))) == {
            (0, 0),
            (1, 0),
            (0, 1),
            (1, 1),
        }

    def test_twelve_elements(self):
        # Oracle count by direct enumeration over the bounding box.
        ideal = MonomialIdeal(2, ((4, 0), (2, 2), (0, 4)))
        expected = {
            a
            for a in itertools.product(range(4), repeat=2)
            if a not in ideal
        }
        assert cobasis(ideal) == expected
        assert len(expected) == 12

    @pytest.mark.parametrize("ell,q", [(1, 2), (2, 3), (0, 5)])
    def test_single_variable_count(self, ell, q):
        ideal = MonomialIdeal(1, (((ell + 1) * q,),))
        assert len(cobasis(ideal)) == (ell + 1) * q

    def test_unit_ideal_has_empty_cobasis(self):
        assert cobasis(unit_ideal(3)) == frozenset()

    def test_infinite_complement_rejected(self):
        with pytest.raises(ValueError, match="zero-dimensional"):
            cobasis(MonomialIdeal(2, ((1, 1),)))
        with pytest.raises(ValueError, match="zero-dimensional"):
            cobasis(MonomialIdeal(2, ()))

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=4
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_of_bounding_box(self, extra):
        gens = [(6, 0), (0, 6)] + extra
        ideal = MonomialIdeal(2, tuple(gens))
        outside = cobasis(ideal)
        for a in itertools.product(range(7), repeat=2):
            assert (a in outside) != (a in ideal)


def box_scan(ideal):
    """Oracle: the points of the pure-power box that no generator divides."""
    if ideal.is_unit():
        return set()
    bounds = [
        min(g[i] for g in ideal.gens if g[i] > 0 and sum(g) == g[i])
        for i in range(ideal.n)
    ]
    return {
        a
        for a in itertools.product(*(range(b) for b in bounds))
        if not scan_member(ideal.gens, a)
    }


@st.composite
def ideals_with_pure_powers(draw, max_n=4, top=5):
    """A random ideal in n <= max_n variables that includes every pure power."""
    n = draw(st.integers(1, max_n))
    pure = [draw(st.integers(1, top)) for _ in range(n)]
    gens = [tuple(b if i == j else 0 for i in range(n)) for j, b in enumerate(pure)]
    gens += draw(st.lists(st.tuples(*[st.integers(0, top)] * n), max_size=5))
    return MonomialIdeal(n, tuple(gens))


class TestCobasisWalk:
    """The staircase walk against a scan of the whole pure-power box."""

    def assert_walk_matches_scan(self, ideal):
        cobasis.cache_clear()
        assert cobasis(ideal) == box_scan(ideal)

    @given(ideal=ideals_with_pure_powers())
    @settings(max_examples=150, deadline=None)
    def test_random_ideals(self, ideal):
        self.assert_walk_matches_scan(ideal)

    @given(n=st.integers(1, 4), k=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_maximal_ideal_powers(self, n, k):
        self.assert_walk_matches_scan(power(maximal_ideal(n), k))

    @given(
        n=st.integers(1, 3),
        k=st.integers(1, 3),
        p=st.sampled_from([2, 3]),
        e=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_bracket_of_maximal_power(self, n, k, p, e):
        self.assert_walk_matches_scan(bracket_power(power(maximal_ideal(n), k), p, e))

    @given(
        ideal=ideals_with_pure_powers(max_n=3, top=4),
        pe=st.sampled_from([(2, 0), (2, 1), (3, 1), (2, 2)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bracket_of_plain_ideal(self, ideal, pe):
        self.assert_walk_matches_scan(bracket_power(ideal, *pe))

    @given(
        n=st.integers(1, 3),
        seed=st.integers(0, 10**6),
        pe=st.sampled_from([(2, 0), (2, 1), (3, 1)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_primary_ideals(self, n, seed, pe):
        ideal = random_primary_ideal(n, random.Random(seed))
        self.assert_walk_matches_scan(bracket_power(ideal, *pe))

    def test_thin_staircase_asks_few_points(self, monkeypatch):
        # The box scan would ask all N^2 = 10^8 points of this box.
        N = 10**4
        calls = 0
        has = MonomialIdeal._has

        def counting_has(ideal, a):
            nonlocal calls
            calls += 1
            return has(ideal, a)

        monkeypatch.setattr(MonomialIdeal, "_has", counting_has)
        cobasis.cache_clear()
        points = cobasis(MonomialIdeal(2, ((N, 0), (0, N), (1, 1))))
        assert len(points) == 2 * N - 1
        assert points == {(x, 0) for x in range(N)} | {(0, y) for y in range(N)}
        assert calls <= 40 * N


def product_scan_corners(ideal):
    """Oracle: the points of the corner candidates' whole product outside the ideal.

    A candidate coordinate is a generator coordinate minus one; the points
    come in ``itertools.product`` order.
    """
    if ideal.is_unit():
        return []
    candidates = [sorted({g[i] - 1 for g in ideal.gens if g[i] >= 1}) for i in range(ideal.n)]
    return [a for a in itertools.product(*candidates) if not scan_member(ideal.gens, a)]


@st.composite
def corner_ideals(draw):
    """random_primary_ideal or m^k in n <= 4 variables, perhaps raised to a bracket power."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        ideal = random_primary_ideal(n, random.Random(draw(st.integers(0, 2**32 - 1))))
    else:
        ideal = power(maximal_ideal(n), draw(st.integers(1, 5)))
    if draw(st.booleans()):
        ideal = bracket_power(ideal, draw(st.sampled_from([2, 3])), draw(st.integers(1, 2)))
    return ideal


class TestStaircaseCorners:
    """The up-set walk against a scan of the whole candidate product."""

    @given(ideal=corner_ideals())
    @settings(max_examples=150, deadline=None)
    def test_same_sequence_as_product_scan(self, ideal):
        # the structured ideal answers by its rule, the plain copy by its generators
        for asked in (ideal, MonomialIdeal(ideal.n, ideal.gens)):
            assert list(staircase_corners(asked)) == product_scan_corners(ideal)

    def test_unit_ideal_has_no_corners(self):
        assert list(staircase_corners(unit_ideal(3))) == product_scan_corners(unit_ideal(3)) == []

    def test_infinite_complement_rejected(self):
        with pytest.raises(ValueError, match="zero-dimensional"):
            list(staircase_corners(MonomialIdeal(2, ((1, 1),))))

    @pytest.mark.parametrize(
        "ideal,missing",
        [
            (MonomialIdeal(2, ((1, 1),)), "x1, x2"),
            (MonomialIdeal(3, ((2, 0, 0), (0, 1, 1))), "x2, x3"),
            (bracket_power(MonomialIdeal(2, ((3, 0), (1, 1))), 2, 1), "x2"),
            (MonomialIdeal(2, ()), "x1, x2"),
        ],
    )
    def test_infinite_complement_message(self, ideal, missing):
        message = f"not zero-dimensional: no pure power of variable(s) {missing}"
        with pytest.raises(ValueError) as info:
            list(staircase_corners(ideal))
        assert str(info.value) == message

    def test_maximal_powers_and_their_brackets_skip_the_pure_power_check(self, monkeypatch):
        def refuse(ideal):
            raise AssertionError("pure powers checked")

        monkeypatch.setattr(monomials, "_pure_power_bounds", refuse)
        for ideal in (power(maximal_ideal(4), 2), bracket_power(power(maximal_ideal(4), 2), 3, 2)):
            assert list(staircase_corners(ideal)) == product_scan_corners(ideal)
        # a plain ideal with the same generators is still checked
        with pytest.raises(AssertionError, match="pure powers checked"):
            list(staircase_corners(MonomialIdeal(4, power(maximal_ideal(4), 2).gens)))

    def test_asks_far_fewer_questions_than_the_product(self, monkeypatch):
        # the candidate product has 5^5 = 3125 points, of which C(9, 5) = 126 lie outside
        calls = 0
        has = MonomialIdeal._has

        def counting_has(ideal, a):
            nonlocal calls
            calls += 1
            return has(ideal, a)

        ideal = bracket_power(power(maximal_ideal(5), 5), 3, 1)
        monkeypatch.setattr(MonomialIdeal, "_has", counting_has)
        assert len(list(staircase_corners(ideal))) == 126
        assert calls <= 500


class TestStaircaseMaxDegree:
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
            min_size=0,
            max_size=4,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_enumeration(self, extra):
        gens = [(5, 0, 0), (0, 5, 0), (0, 0, 5)] + extra
        ideal = MonomialIdeal(3, tuple(gens))
        oracle = max(sum(a) for a in cobasis(ideal)) if cobasis(ideal) else -1
        assert staircase_max_degree(ideal) == oracle

    def test_unit_ideal(self):
        assert staircase_max_degree(unit_ideal(2)) == -1

    @given(n=st.integers(1, 3), k=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_maximal_power_shortcut_matches_corner_scan(self, n, k):
        ideal = power(maximal_ideal(n), k)
        # the generic ideal has no rule, so this runs the corner scan
        scanned = staircase_max_degree(MonomialIdeal(n, ideal.gens))
        assert staircase_max_degree(ideal) == scanned == k - 1

    @given(d=st.integers(1, 9))
    @settings(max_examples=20, deadline=None)
    def test_maximal_power_containment_matches_definition(self, d):
        ideal = MonomialIdeal(2, ((3, 0), (1, 1), (0, 3)))
        # Oracle: direct containment of the materialized power.
        oracle = contains(ideal, power(maximal_ideal(2), d))
        assert contains_maximal_power(ideal, d) == oracle


class TestVerifyLemmaMonomials:
    def test_reference_case(self):
        report = verify_lemma_monomials(2, 1, 1, 2)
        assert report.all_ok
        assert report.witness == (3, 1)

    def test_single_variable_equalities(self):
        for ell, e, p in [(0, 1, 2), (2, 2, 3), (3, 1, 5)]:
            q = p**e
            bracket = bracket_power(power(maximal_ideal(1), ell + 1), p, e)
            left = power(maximal_ideal(1), ell * q + (q - 1) + 1)
            right = power(maximal_ideal(1), (ell + 1) * q)
            assert left == bracket == right
            assert verify_lemma_monomials(1, ell, e, p).all_ok

    def test_all_ok_is_derived_not_passed(self):
        assert "all_ok" not in inspect.signature(InclusionReport).parameters
        with pytest.raises(TypeError):
            InclusionReport(True, True, True, (1,), all_ok=True)
        assert InclusionReport(True, True, True, (1,)).all_ok is True
        for parts in itertools.product((True, False), repeat=3):
            if not all(parts):
                assert InclusionReport(*parts, (1,)).all_ok is False

    def test_e_zero_collapse(self):
        for n, ell in [(1, 0), (2, 3), (3, 1)]:
            report = verify_lemma_monomials(n, ell, 0, 5)
            assert report.all_ok
            assert sum(report.witness) == ell

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_materialized_containments(self, n, p):
        # Oracle: the same checks on fully materialized ideals.
        for ell, e in itertools.product(range(3), range(3)):
            q = p**e
            bracket = bracket_power(power(maximal_ideal(n), ell + 1), p, e)
            left = contains(bracket, power(maximal_ideal(n), ell * q + n * (q - 1) + 1))
            right = contains(power(maximal_ideal(n), (ell + 1) * q), bracket)
            report = verify_lemma_monomials(n, ell, e, p)
            assert report.left_inclusion == left
            assert report.right_inclusion == right
            assert report.witness in power(maximal_ideal(n), ell * q + n * (q - 1))
            assert report.witness not in bracket


points_in_n_variables = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(0, 40)] * n), min_size=1, max_size=30
    ).map(lambda points: (n, points))
)


@st.composite
def zero_dimensional_ideals(draw):
    n = draw(st.integers(1, 3))
    pure = [draw(st.integers(1, 6)) for _ in range(n)]
    gens = [tuple(b if i == j else 0 for i in range(n)) for j, b in enumerate(pure)]
    gens += draw(st.lists(st.tuples(*[st.integers(0, 6)] * n), max_size=4))
    return MonomialIdeal(n, tuple(gens))


def assert_same_as_generic(ideal):
    generic = MonomialIdeal(ideal.n, ideal.gens)
    assert ideal == generic
    assert hash(ideal) == hash(generic)
    assert repr(ideal) == repr(generic)


class TestStructuredMembership:
    """Membership by rule (m^k, bracket powers) agrees with the antichain scan."""

    @given(data=points_in_n_variables, k=st.integers(0, 7))
    @settings(max_examples=80, deadline=None)
    def test_maximal_power(self, data, k):
        n, points = data
        ideal = power(maximal_ideal(n), k)
        assert_same_as_generic(ideal)
        for a in points:
            assert (a in ideal) == scan_member(ideal.gens, a) == (sum(a) >= k)

    @given(
        data=points_in_n_variables,
        k=st.integers(0, 5),
        p=st.sampled_from([2, 3, 5]),
        e=st.integers(0, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_bracket_of_maximal_power(self, data, k, p, e):
        n, points = data
        ideal = bracket_power(power(maximal_ideal(n), k), p, e)
        assert_same_as_generic(ideal)
        for a in points:
            assert (a in ideal) == scan_member(ideal.gens, a)

    @given(
        ideal=zero_dimensional_ideals(),
        p=st.sampled_from([2, 3]),
        e=st.integers(0, 3),
        points=st.lists(st.lists(st.integers(0, 60), min_size=3, max_size=3), max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_bracket_of_zero_dimensional_ideal(self, ideal, p, e, points):
        bracket = bracket_power(ideal, p, e)
        assert_same_as_generic(bracket)
        for a in points:
            a = tuple(a[: ideal.n])
            assert (a in bracket) == scan_member(bracket.gens, a)
            assert (a in ideal) == scan_member(ideal.gens, a)

    @given(
        ideal=zero_dimensional_ideals(),
        p=st.sampled_from([2, 3]),
        e1=st.integers(0, 2),
        e2=st.integers(0, 2),
        points=st.lists(st.lists(st.integers(0, 90), min_size=3, max_size=3), max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_nested_brackets(self, ideal, p, e1, e2, points):
        nested = bracket_power(bracket_power(ideal, p, e1), p, e2)
        direct = bracket_power(ideal, p, e1 + e2)
        assert nested == direct
        assert hash(nested) == hash(direct)
        assert_same_as_generic(nested)
        for a in points:
            a = tuple(a[: ideal.n])
            assert (a in nested) == (a in direct) == scan_member(direct.gens, a)

    def test_unit_and_maximal_ideal_equal_generic(self):
        for n in (1, 2, 3):
            assert_same_as_generic(unit_ideal(n))
            assert_same_as_generic(maximal_ideal(n))
            assert unit_ideal(n) == MonomialIdeal(n, ((0,) * n,))

    def test_power_of_maximal_power(self):
        assert power(power(maximal_ideal(3), 2), 3) == power(maximal_ideal(3), 6)

    def test_large_maximal_power(self):
        # Guards the direct construction: iterated Minkowski sums took ~8 s here.
        ideal = power(maximal_ideal(4), 20)
        assert len(ideal.gens) == 1771  # C(23, 3)
        assert staircase_max_degree(ideal) == 19

    @pytest.mark.parametrize(
        "ideal",
        [
            MonomialIdeal(2, ((2, 0), (1, 1), (0, 3))),
            power(maximal_ideal(2), 3),
            bracket_power(power(maximal_ideal(2), 2), 3, 1),
            bracket_power(MonomialIdeal(2, ((2, 0), (1, 1), (0, 3))), 2, 2),
        ],
        ids=["generic", "maximal-power", "bracket-of-maximal-power", "bracket"],
    )
    @pytest.mark.parametrize(
        "bad",
        [(1, 2, 3), (1,), (3, -1), (-2, 5), [1, 2, 3], [4]],
        ids=["long", "short", "negative", "negative-first", "long-list", "short-list"],
    )
    def test_invalid_exponent_rejected(self, ideal, bad):
        with pytest.raises(ValueError):
            bad in ideal

    def test_non_numeric_entry_rejected(self):
        for ideal in (MonomialIdeal(2, ((1, 1),)), maximal_ideal(2)):
            with pytest.raises(ValueError):
                ("x", 1) in ideal
            assert [1, 1] in ideal


@st.composite
def plain_ideals_and_points(draw):
    """A plain ideal (zero, unit, or random, perhaps with entries near 10**12) and
    points to ask it: random ones, one above every generator entry and one below."""
    n = draw(st.integers(1, 4))
    top = draw(st.sampled_from([6, 10**12]))
    shape = draw(st.sampled_from(["zero", "unit", "random"]))
    if shape == "zero":
        gens = []
    elif shape == "unit":
        gens = [(0,) * n] + draw(st.lists(st.tuples(*[st.integers(0, 6)] * n), max_size=5))
    else:
        entry = st.one_of(st.integers(0, 6), st.integers(top - 3, top))
        gens = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=40))
    entries = [x for g in gens for x in g] or [0]
    points = draw(st.lists(st.tuples(*[st.integers(0, top + 1)] * n), max_size=20))
    points += [(max(entries) + 1,) * n, (max(min(entries) - 1, 0),) * n, (0,) * n]
    return MonomialIdeal(n, tuple(gens)), points


def assert_index_matches_scan(ideal, points, pe):
    bracket = bracket_power(ideal, *pe)
    q = pe[0] ** pe[1]
    for a in points:
        assert ideal._has(a) == scan_member(ideal.gens, a)
        for b in (tuple(q * x for x in a), tuple(q * x + q - 1 for x in a), a):
            assert bracket._has(b) == scan_member(bracket.gens, b)


class TestDominanceIndex:
    """Membership in a plain ideal asks the dominance index, not a scan."""

    @given(data=plain_ideals_and_points(), pe=st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    @settings(max_examples=150, deadline=None)
    def test_has_matches_scan(self, data, pe):
        ideal, points = data
        assert_index_matches_scan(ideal, points, pe)

    def test_more_than_a_block_of_generators(self):
        _, gens = antichain_with_dominated_extras(2500)
        ideal = MonomialIdeal(2, tuple(gens))
        rng = random.Random(0)
        points = [(rng.randrange(2600), rng.randrange(2600)) for _ in range(60)]
        points += [(i, 2500 - i) for i in range(0, 2501, 250)]
        points += [(i - 1, 2500 - i) for i in range(1, 2501, 250)]
        assert_index_matches_scan(ideal, points, (3, 1))

    def test_index_is_not_part_of_equality_hash_or_repr(self):
        # (2, 1) is dropped, so construction keeps no index and the first question builds it
        gens = ((2, 0), (1, 1), (2, 1))
        asked, fresh = MonomialIdeal(2, gens), MonomialIdeal(2, gens)
        assert (1, 3) in asked and asked._index is not None and fresh._index is None
        assert asked == fresh and hash(asked) == hash(fresh) and repr(asked) == repr(fresh)

    @pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 2500, 5000])
    def test_blocks_keep_the_index_linear(self, count):
        # ceil(count / 1024) blocks, each with one table entry per distinct value
        # and masks of at most 1024 bits, so the index grows linearly
        gens = [(i, count - i, 10**12) for i in range(count)]
        index = _dominance_index(gens)
        assert len(index) == -(-count // 1024)
        for start, tables in zip(range(0, count, 1024), index):
            block = gens[start : start + 1024]
            for column, (values, below) in zip(zip(*block), tables):
                assert values == sorted(set(column))
                assert len(below) == len(values) + 1
                assert max(mask.bit_length() for mask in below) == len(block) <= 1024


class TestIndexedOnce:
    """An ideal whose candidates are all minimal keeps the index it minimalized with."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []

        def counting(gens):
            calls.append(len(gens))
            return _dominance_index(gens)

        monkeypatch.setattr(monomials, "_dominance_index", counting)
        return calls

    def test_minimalize_then_ask_builds_one_index(self, built):
        ideal = random_primary_ideal(3, random.Random(4))
        built.clear()
        again = minimalize(ideal.gens, 3)
        assert (8, 8, 8) in again and (0, 0, 0) not in again
        assert built == [len(ideal.gens)]

    def test_minkowski_of_an_antichain_builds_one_index(self, built):
        # every sum of (2, 0), (0, 3) with itself is minimal: (4, 0), (2, 3), (0, 6)
        squared = power(MonomialIdeal(2, ((2, 0), (0, 3))), 2)
        built.clear()
        for a in [(4, 0), (2, 3), (0, 6), (3, 2), (1, 5)]:
            assert (a in squared) == scan_member(squared.gens, a)
        assert built == []

    def test_a_dropped_candidate_leaves_the_index_to_the_first_question(self, built):
        ideal = MonomialIdeal(2, ((2, 0), (1, 1), (2, 1)))
        assert built == [3] and ideal._index is None
        assert (2, 1) in ideal and (0, 5) not in ideal
        assert built == [3, 2]

    @given(data=plain_ideals_and_points())
    @settings(max_examples=60, deadline=None)
    def test_kept_index_answers_like_the_scan(self, data):
        ideal, points = data
        again = minimalize(ideal.gens, ideal.n)
        assert again._index is not None
        for a in points:
            assert again._has(a) == scan_member(again.gens, a)


class TestRendering:
    def test_json(self):
        doc = MonomialIdeal(2, ((1, 1),)).to_json()
        assert doc == {"n": 2, "generators": [[1, 1]]}


@st.composite
def ideals_of_every_shape(draw):
    """A plain (indexed), an m^k or a bracket ideal, with its variable count."""
    shape = draw(st.sampled_from(["plain", "maximal-power", "bracket"]))
    if shape == "maximal-power":
        return power(maximal_ideal(draw(st.integers(1, 4))), draw(st.integers(0, 6)))
    ideal = draw(zero_dimensional_ideals())
    if shape == "bracket":
        base = draw(st.sampled_from([ideal, power(maximal_ideal(ideal.n), 2)]))
        ideal = bracket_power(base, draw(st.sampled_from([2, 3])), draw(st.integers(0, 2)))
    return ideal


class TestTrustedMembership:
    """`_has` skips validation but answers exactly like `in`."""

    @given(ideal=ideals_of_every_shape(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_has_matches_contains(self, ideal, data):
        points = data.draw(
            st.lists(st.tuples(*[st.integers(0, 40)] * ideal.n), min_size=1, max_size=20)
        )
        for a in points:
            assert ideal._has(a) == (a in ideal) == scan_member(ideal.gens, a)
            assert (list(a) in ideal) == (a in ideal)
