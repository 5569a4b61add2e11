"""Exact arithmetic on monomial ideals in n variables over characteristic p.

Monomials are exponent tuples; ideals are stored as the divisibility-minimal
antichain of generators, so ideal equality is plain set equality. Everything
here is pure, exact (Python integers), and immutable.

x^a is in the ideal iff some generator divides it. One dominance index
(``_dominance_index``) answers that for a generator set: it keeps the minimal
antichain at construction and answers membership in a plain ideal. The scans
it replaced are the tests' oracles. Two shapes built here answer membership
structurally instead (Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 1-5):

* powers of the maximal ideal, ``power(maximal_ideal(n), k)`` (and the unit
  and maximal ideals themselves, as k = 0 and k = 1):
  x^a is in m^k iff sum(a) >= k;
* Frobenius powers, ``bracket_power(I, p, e)`` with q = p^e:
  x^a is in I^[q] iff x^(a // q) is in I, answered by I's own rule.

Neither shape is re-minimalized: the compositions of k are the minimal
generators of m^k, and scaling by q keeps an antichain an antichain.

Construction checks all generators at once, and one at a time only to name
the first bad one; m^k over WORK_LIMIT generator entries is refused unbuilt,
and ``_frobenius_power`` refuses a q = p^e over WORK_LIMIT bits uncomputed.
An ideal is an up-set, so the cobasis and the staircase corners are one
walk (``_outside``) by binary search, not a scan of a box.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, combinations_with_replacement, compress, repeat
from operator import add, and_, or_, sub

from .serialize import parse_int


Exponent = tuple[int, ...]


# the most points one walk may visit, entries one m^k may hold, or bits one p^e may have
WORK_LIMIT = 10**6


def _over_limit(estimate: str) -> ValueError:
    return ValueError(f"{estimate}, over the work limit of {WORK_LIMIT}")


def _power_over_limit(side: int, n: int) -> bool:
    """Whether side^n is more than WORK_LIMIT.

    side^n >= 2^(n*(side.bit_length()-1)), so a huge n is decided by bit
    lengths alone, before any power is computed.
    """
    return side > 1 and (
        n * (side.bit_length() - 1) >= WORK_LIMIT.bit_length() or side**n > WORK_LIMIT
    )


def _check_work(walk: str, side: int, n: int) -> None:
    """Refuse a walk over side^n points when that is more than WORK_LIMIT."""
    if _power_over_limit(side, n):
        raise _over_limit(f"the {walk} walk would visit {side}^{n} points")


# Miller-Rabin with the 13 prime bases 2..41 is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson-Webster, Math. Comp. 2017)
_PRIME_TEST_LIMIT = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# below 41^2 a number is prime iff it is no proper multiple of a base
_SMALL_PRIMES = frozenset(range(2, 41**2)).difference(*(range(2 * b, 41**2, b) for b in _BASES))


def is_prime(p: int) -> bool:
    """Exact primality below _PRIME_TEST_LIMIT: a table below 41^2, Miller-Rabin above."""
    if p < 41**2:
        return p in _SMALL_PRIMES
    if p >= _PRIME_TEST_LIMIT:
        raise ValueError(f"characteristic must be below {_PRIME_TEST_LIMIT} to be tested, got {p}")
    if any(p % b == 0 for b in _BASES):
        return False
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    # p is a strong probable prime to base b: b^d = 1, or b^(d * 2^r) = -1 for some r < s
    return all(
        pow(b, d, p) == 1 or any(pow(b, d << r, p) == p - 1 for r in range(s)) for b in _BASES
    )


def ensure_prime(p: int) -> int:
    """Return p if it is a prime characteristic; raise ValueError otherwise."""
    if not is_prime(parse_int(p, "characteristic")):
        raise ValueError(f"characteristic must be prime, got {p}")
    return p


def _q_over_limit(p: int, e: int) -> ValueError:
    return _over_limit(f"q = {p}^{e} has at least {e * (p.bit_length() - 1) + 1} bits")


def _frobenius_power(p: int, e: int, name: str = "e") -> int:
    """q = p^e for a prime p and an e >= 0 (`name`); over WORK_LIMIT bits, refused uncomputed."""
    ensure_prime(p)
    if parse_int(e, name, 0) * (p.bit_length() - 1) >= WORK_LIMIT:
        raise _q_over_limit(p, e)
    return p**e


def _check_exponent(a, n: int) -> Exponent:
    a = tuple(a)
    for x in a:
        # a float or numeric text is refused, not truncated; so is a bool
        if type(x) is not int:
            raise ValueError(f"exponent entries must be integers, got {a!r}")
    if len(a) != n:
        raise ValueError(f"exponent {a} has length {len(a)}, expected {n}")
    if any(x < 0 for x in a):
        raise ValueError(f"exponent entries must be >= 0, got {a}")
    return a


_BLOCK = 1024  # generators per block of a dominance index, and bits per mask


def _dominance_index(gens: tuple[Exponent, ...] | list[Exponent]) -> list:
    """Per block of at most _BLOCK generators and per coordinate i, a table (values, below).

    values are the ascending distinct g[i]; below[k] is the bitmask (bit j for
    the block's j-th generator) of those whose g[i] is among the k least, so
    the ones dividing x^a are the AND over i of below[bisect_right(values, a_i)].
    """
    index = []
    for start in range(0, len(gens), _BLOCK):
        block = gens[start : start + _BLOCK]
        bits = [1 << j for j in range(len(block))]
        tables = []
        for column in zip(*block):
            at = {}  # per distinct entry, the mask of the generators that have it
            for x, bit in zip(column, bits):
                at[x] = at.get(x, 0) | bit
            values = sorted(at)
            tables.append((values, [0, *accumulate(map(at.__getitem__, values), or_)]))
        index.append(tables)
    return index


def _minimal_antichain(gens: set[Exponent]) -> tuple[list[Exponent], list | None]:
    """The sorted minimal candidates, and their index if all are kept (else None).

    Membership asks only whether a mask is nonzero, so that index serves the ideal.
    """
    # a candidate is minimal iff the only candidate dividing it is itself
    candidates = list(gens)
    columns = list(zip(*candidates))
    index = _dominance_index(candidates)
    divisors = repeat(0)
    for tables in index:
        masks = repeat(-1)
        for (values, below), column in zip(tables, columns):
            at = {x: below[bisect_right(values, x)] for x in set(column)}  # a search per value
            masks = map(and_, masks, map(at.__getitem__, column))
        divisors = list(map(add, divisors, map(int.bit_count, masks)))
    kept = sorted(compress(candidates, map((1).__eq__, divisors)))
    return kept, index if len(kept) == len(candidates) else None


@dataclass(frozen=True)
class MonomialIdeal:
    """A finitely generated monomial ideal, canonicalized at construction.

    The empty generator set is the zero ideal; the all-zero exponent
    generates the unit ideal.

    ``_rule`` says how membership is answered: None asks the dominance index
    of the generators, an int k means the ideal is m^k, and a pair (base, q)
    means it is base^[q]. Only the constructors below that know the ideal's
    shape set it. ``_index`` is that index: construction keeps the one it
    minimalized with when no candidate was dropped, and otherwise the first
    question builds it. Neither is part of equality, hashing or repr.

    ``a in ideal`` takes any exponent a caller supplies: it runs the same
    one check as construction (length, then entries; a list is accepted)
    and then asks ``_has``. ``_has(a)`` skips that check, so it is only for
    exponents the package built itself: the points it enumerates (by
    ``product`` or the up-set walk), and the generators of another
    ideal with the same n, which construction has already checked.
    """

    n: int
    gens: tuple[Exponent, ...] = field(default=())
    _rule: int | tuple[MonomialIdeal, int] | None = field(
        default=None, init=False, compare=False, repr=False
    )
    _index: list | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = parse_int(self.n, "variable count n", 1)
        raw = tuple(self.gens)
        try:
            gens = list(map(tuple, raw))
        except TypeError:
            gens = None
        # check all entries at once and dedupe only after, as (2,) == (2.0,);
        # on a failure the check per generator raises the first error in order
        if gens is None or not (
            set(map(type, chain.from_iterable(gens))) <= {int}
            and set(map(len, gens)) <= {n}
            and min(chain.from_iterable(gens), default=0) >= 0
        ):
            gens = [_check_exponent(g, n) for g in raw]
        kept, index = _minimal_antichain(set(gens))
        object.__setattr__(self, "gens", tuple(kept))
        object.__setattr__(self, "_index", index)

    @classmethod
    def _structured(cls, n: int, gens: tuple[Exponent, ...], rule, index=None) -> MonomialIdeal:
        # gens must already be the sorted minimal antichain of the ideal, and
        # index None or a dominance index of those generators in any order
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "n", n)
        object.__setattr__(ideal, "gens", gens)
        object.__setattr__(ideal, "_rule", rule)
        object.__setattr__(ideal, "_index", index)
        return ideal

    def __contains__(self, a) -> bool:
        return self._has(_check_exponent(a, self.n))

    def _has(self, a: Exponent) -> bool:
        # a must already be a tuple of n non-negative ints
        ideal, rule = self, self._rule
        if type(rule) is tuple:
            # x^a is in base^[q] iff x^(a // q) is in base
            ideal, q = rule
            a = [x // q for x in a]
            rule = ideal._rule
        if rule is not None:
            return sum(a) >= rule
        if ideal._index is None:
            object.__setattr__(ideal, "_index", _dominance_index(ideal.gens))
        for tables in ideal._index:
            mask = -1
            for (values, below), x in zip(tables, a):
                mask &= below[bisect_right(values, x)]
            if mask:
                return True
        return False

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.n,)

    def to_json(self) -> dict:
        return {"n": self.n, "generators": [list(g) for g in self.gens]}


def minimalize(gens, n: int) -> MonomialIdeal:
    """Ideal generated by `gens`, reduced to its minimal antichain."""
    return MonomialIdeal(n, tuple(gens))


def _capped_binomial(top: int, k: int, scale: int = 1) -> int:
    """scale * C(top, k) if at most WORK_LIMIT, else some number over it; k <= top / 2.

    scale * C(top, i) grows with i up to k, so it is given up once over the limit.
    """
    value = scale
    for i in range(1, k + 1):
        if value > WORK_LIMIT:
            break
        value = value * (top - i + 1) // i
    return value


def _maximal_ideal_power(n: int, k: int) -> MonomialIdeal:
    # The degree-k monomials are exactly the minimal generators of m^k, with
    # n * C(n+k-1, k) = n * C(n+k-1, min(n-1, k)) entries.
    parse_int(n, "variable count n", 1)
    entries = _capped_binomial(n + k - 1, min(n - 1, k), n)
    if entries > WORK_LIMIT:
        raise _over_limit(f"m^{k} in {n} variables has {n}*C({n + k - 1}, {k}) generator entries")
    # stars and bars, in ascending order: each cut list c_1 <= ... <= c_(n-1) in
    # [0, k], in lexicographic order, gives the parts c_1, c_2 - c_1, ..., k - c_(n-1)
    cut_lists = combinations_with_replacement(range(k + 1), n - 1)
    gens = tuple([tuple(map(sub, cuts + (k,), (0,) + cuts)) for cuts in cut_lists])
    return MonomialIdeal._structured(n, gens, k)


def unit_ideal(n: int) -> MonomialIdeal:
    return _maximal_ideal_power(n, 0)


def maximal_ideal(n: int) -> MonomialIdeal:
    """The ideal (x1, ..., xn) of the origin."""
    return _maximal_ideal_power(n, 1)


def _minkowski(a_gens, b_gens, n: int) -> MonomialIdeal:
    sums = {tuple(x + y for x, y in zip(a, b)) for a in a_gens for b in b_gens}
    kept, index = _minimal_antichain(sums)
    return MonomialIdeal._structured(n, tuple(kept), None, index)


def power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-fold product ideal; the 0th power is the unit ideal.

    A power of the maximal ideal m^d (as built by this module) is m^(d*k),
    generated directly by the compositions of d*k. Any other ideal is
    computed by iterated Minkowski sums of the generator exponents, with
    minimalization after every step to bound intermediate blowup.
    """
    parse_int(k, "power exponent", 0)
    if type(ideal._rule) is int:
        return _maximal_ideal_power(ideal.n, ideal._rule * k)
    if k == 0:
        return unit_ideal(ideal.n)
    result = ideal
    for _ in range(k - 1):
        result = _minkowski(result.gens, ideal.gens, ideal.n)
    return result


def bracket_power(ideal: MonomialIdeal, p: int, e: int) -> MonomialIdeal:
    """Frobenius power: every generator exponent scaled entrywise by p^e."""
    q = _frobenius_power(p, e, "Frobenius exponent e")
    if q == 1:
        return ideal
    # Scaling by q keeps the sorted minimal antichain sorted and minimal.
    gens = tuple(tuple([q * x for x in g]) for g in ideal.gens)
    # (I^[r])^[q] = I^[r*q], so a bracket's base is never itself a bracket
    base, r = ideal._rule if type(ideal._rule) is tuple else (ideal, 1)
    return MonomialIdeal._structured(ideal.n, gens, (base, r * q))


def contains(big: MonomialIdeal, small: MonomialIdeal) -> bool:
    """Whether small is a subset of big, generator by generator."""
    return noncontainment_witness(big, small) is None


def noncontainment_witness(big: MonomialIdeal, small: MonomialIdeal) -> Exponent | None:
    """A minimal generator of small that is not in big, if any."""
    if big.n != small.n:
        raise ValueError(f"variable counts differ: {big.n} vs {small.n}")
    for g in small.gens:
        if not big._has(g):
            return g
    return None


def _pure_power_bounds(ideal: MonomialIdeal) -> list[int]:
    # For a finite complement every variable needs a pure-power generator;
    # the complement then lives strictly below those powers.
    bounds = [None] * ideal.n
    for g in ideal.gens:
        support = [i for i, x in enumerate(g) if x > 0]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or g[i] < bounds[i]:
                bounds[i] = g[i]
    missing = [i for i, b in enumerate(bounds) if b is None]
    if missing:
        raise ValueError(
            "not zero-dimensional: no pure power of variable(s) "
            + ", ".join(f"x{i + 1}" for i in missing)
        )
    return bounds


def _first_member(ideal: MonomialIdeal, prefix: Exponent, line, pad=(), lo: int = 0) -> int:
    """The index in the ascending `line` of the first x with prefix + (x,) + pad in the ideal.

    An ideal is an up-set, so its members on a line form a tail; below `lo` is outside.
    """
    return bisect_left(line, True, lo, key=lambda x: ideal._has(prefix + (x,) + pad))


def _outside(ideal: MonomialIdeal, values) -> list[Exponent]:
    """The points of product(*values) outside the ideal, in product order.

    The ascending `values` must have their least point outside. A prefix is
    kept while its pad by the least remaining values is outside (if it is
    inside, so is every extension) and takes the values before its first member.
    """
    least = tuple(v[0] for v in values)
    points: list[Exponent] = [()]
    for i, line in enumerate(values):
        pad = least[i + 1 :]
        points = [a + (x,) for a in points for x in line[: _first_member(ideal, a, line, pad, 1)]]
    return points


@lru_cache(maxsize=256)
def cobasis(ideal: MonomialIdeal) -> frozenset[Exponent]:
    """Exponents of the monomials outside the ideal (the staircase complement).

    Raises if the complement is infinite. The complement is the up-set walk
    below the pure powers, so it asks ``_has`` about one binary search per
    kept prefix, not about every point of the bounding box.
    """
    if ideal.is_unit():
        return frozenset()
    if ideal.is_zero():
        raise ValueError("not zero-dimensional: zero ideal has infinite complement")
    return frozenset(_outside(ideal, [range(b) for b in _pure_power_bounds(ideal)]))


def staircase_corners(ideal: MonomialIdeal):
    """Candidate componentwise-maximal points of the staircase complement, in product order.

    Every maximal point outside the ideal has each coordinate equal to some
    generator coordinate minus one, so the points of the product of those
    candidate values that lie outside cover all corners; the up-set walk
    finds them without testing the whole product.
    """
    if ideal.is_unit():
        return
    base = ideal._rule[0] if type(ideal._rule) is tuple else ideal
    if type(base._rule) is not int:  # m^k (k >= 1 here) and its brackets are zero-dimensional
        _pure_power_bounds(ideal)
    # the least candidate point is below every nonzero generator in some coordinate
    values = [sorted({g[i] - 1 for g in ideal.gens if g[i] >= 1}) for i in range(ideal.n)]
    yield from _outside(ideal, values)


def staircase_max_degree(ideal: MonomialIdeal) -> int:
    """Largest total degree of a monomial outside the ideal; -1 if none.

    Requires a finite complement. Searches staircase corners only, which
    keeps powers with huge exponents tractable. For m^k (k >= 1) the answer
    is k - 1 without a search; every other shape, brackets included, is
    searched.
    """
    if ideal.is_unit():
        return -1
    if type(ideal._rule) is int:
        return ideal._rule - 1
    best = -1
    for a in staircase_corners(ideal):
        d = sum(a)
        if d > best:
            best = d
    return best


def contains_maximal_power(ideal: MonomialIdeal, d: int) -> bool:
    """Whether the d-th power of the maximal ideal is a subset of `ideal`.

    A monomial lies in that power exactly when its total degree is >= d, so
    the containment holds iff everything outside `ideal` has degree < d.
    """
    if d <= 0:
        return ideal.is_unit()
    if ideal.is_zero():
        return False
    return staircase_max_degree(ideal) < d


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of the three-part power/bracket-power inclusion check."""

    left_inclusion: bool
    right_inclusion: bool
    sharpness: bool
    witness: Exponent
    all_ok: bool = field(init=False)

    def __post_init__(self):
        ok = self.left_inclusion and self.right_inclusion and self.sharpness
        object.__setattr__(self, "all_ok", ok)


def verify_lemma_monomials(n: int, ell: int, e: int, p: int) -> InclusionReport:
    """Check the inclusion chain around the bracket power of a maximal-ideal power.

    Verifies, for the maximal ideal in n variables:

        (ordinary power of degree ell*p^e + n*(p^e-1) + 1)
            is contained in (bracket power by p^e of the (ell+1)-st power)
            is contained in (ordinary power of degree (ell+1)*p^e),

    and that the chain is sharp: the monomial x1^(ell*p^e) * (x1*...*xn)^(p^e-1)
    has total degree ell*p^e + n*(p^e-1) but lies outside the bracket power.
    """
    if parse_int(ell, "ell") < 0 or parse_int(e, "e") < 0:
        raise ValueError("ell and e must be >= 0")
    # maximal_ideal checks n, and bracket_power checks p
    bracket = bracket_power(power(maximal_ideal(n), ell + 1), p, e)
    q = p**e

    left = contains_maximal_power(bracket, ell * q + n * (q - 1) + 1)
    right_degree = (ell + 1) * q
    right = all(sum(g) >= right_degree for g in bracket.gens)

    witness = tuple(ell * q + (q - 1) if i == 0 else q - 1 for i in range(n))
    sharpness = sum(witness) == ell * q + n * (q - 1) and witness not in bracket
    return InclusionReport(left, right, sharpness, witness)
