"""The `ideal-build` workload: build a monomial ideal, then query it a few times.

Each op is one construction request followed by a handful of queries, so the
cost of building dominates. A change that moves work from queries into
construction (an index, a cached cobasis) shows here as slower ops or a
larger peak RSS. Every answer is checked by code in this file that does not
call frobjets: binomial counts, the floor-sum test for bracket powers, and
direct divisibility scans over generators the benchmark itself chose.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, prod

from frobjets import monomials
from meter import Op

# Largest power k of the maximal ideal per variable count n. These keep one
# op under ~100 ms at the commit that added this benchmark (the cobasis of m^k,
# C(n+k-1, n) points, is found by scanning a k^n box).
MAX_POWER = {2: 30, 3: 10, 4: 6}
BRACKET_POWER = {2: 12, 3: 6, 4: 4}
MAX_BOX = 2500
SAMPLES = 24


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _in_generated(a, gens):
    return any(_divides(g, a) for g in gens)


def _sample_points(rng, n, top, count=SAMPLES):
    return [tuple(rng.randrange(top + 1) for _ in range(n)) for _ in range(count)]


def _membership(meter, ideal, points):
    found = meter.call("monomials.membership", lambda: [a in ideal for a in points])
    meter.count("monomials.membership_tests", len(points))
    meter.count("monomials.membership_hits", sum(found))
    return found


def _cobasis(meter, ideal, box):
    points = meter.call("monomials.cobasis", monomials.cobasis, ideal)
    meter.count("monomials.cobasis_points", len(points))
    meter.count("monomials.cobasis_box_points", box)
    meter.note_max("input.max_cobasis_box", box)
    return points


def _minimalize(meter, gens, n):
    ideal = meter.call("monomials.minimalize", monomials.minimalize, gens, n)
    meter.count("monomials.minimalize_given", len(gens))
    meter.count("monomials.minimalize_kept", len(ideal.gens))
    return ideal


def power_of_maximal(rng, n, k):
    points = _sample_points(rng, n, k)

    def run(meter):
        ideal = meter.call(
            "monomials.power", lambda: monomials.power(monomials.maximal_ideal(n), k)
        )
        cob = _cobasis(meter, ideal, k**n)
        degree = meter.call(
            "monomials.staircase_max_degree", monomials.staircase_max_degree, ideal
        )
        found = _membership(meter, ideal, points)
        ok = (
            len(ideal.gens) == comb(n + k - 1, n - 1)
            and len(cob) == comb(n + k - 1, n)
            and degree == k - 1
            and found == [sum(a) >= k for a in points]
        )
        return ok, [ideal.gens, len(cob), degree, found]

    return Op("power", ("power", n, k), run)


def bracket_of_maximal_power(rng, n, k):
    p = rng.choice((2, 3, 5))
    e = rng.randrange(1, 4)
    q = p**e
    points = _sample_points(rng, n, q * (k + 1))

    def run(meter):
        base = meter.call(
            "monomials.power", lambda: monomials.power(monomials.maximal_ideal(n), k)
        )
        bracket = meter.call("monomials.bracket_power", monomials.bracket_power, base, p, e)
        found = _membership(meter, bracket, points)
        inside = meter.call("monomials.contains", monomials.contains, base, bracket)
        witness = meter.call(
            "monomials.contains", monomials.noncontainment_witness, bracket, base
        )
        degree = meter.call(
            "monomials.staircase_max_degree", monomials.staircase_max_degree, bracket
        )
        ok = (
            found == [sum(x // q for x in a) >= k for a in points]
            and inside
            and witness is not None
            and sum(x // q for x in witness) < k
            # the largest degree outside (m^k)^[q] is (k-1)q + n(q-1)
            and degree == (k - 1) * q + n * (q - 1)
        )
        return ok, [bracket.gens, found, inside, witness, degree]

    return Op("bracket_power", ("bracket_power", n, k, p, e), run)


def _zero_dimensional_gens(rng, n, k):
    """Pure powers plus a few mixed generators, with a bounded power box."""
    while True:
        pure = [rng.randrange(2, 9) for _ in range(n)]
        if prod(k * b for b in pure) <= MAX_BOX:
            break
    gens = [tuple(b if i == j else 0 for i in range(n)) for j, b in enumerate(pure)]
    for _ in range(rng.randrange(1, 5)):
        # at least two variables in the support, so `pure` stays the box
        mixed = [rng.randrange(max(pure)) for _ in range(n)]
        if sum(x > 0 for x in mixed) >= 2:
            gens.append(tuple(mixed))
    return gens, pure


def power_of_zero_dimensional(rng, n, k):
    gens, pure = _zero_dimensional_gens(rng, n, k)
    box = prod(k * b for b in pure)
    points = _sample_points(rng, n, k * max(pure))

    def in_power(a):
        # x^a lies in I^k iff a dominates a sum of k generators of I
        return any(
            _divides(tuple(map(sum, zip(*choice))), a)
            for choice in combinations_with_replacement(gens, k)
        )

    def run(meter):
        ideal = _minimalize(meter, gens, n)
        result = meter.call("monomials.power", monomials.power, ideal, k)
        cob = _cobasis(meter, result, box)
        found = _membership(meter, result, points)
        inside = meter.call("monomials.contains", monomials.contains, ideal, result)
        degree = meter.call(
            "monomials.staircase_max_degree", monomials.staircase_max_degree, result
        )
        expected = [in_power(a) for a in points]
        ok = (
            found == expected
            and all((a in cob) == (not hit) for a, hit in zip(points, expected))
            and inside
            and degree == max((sum(a) for a in cob), default=-1)
        )
        return ok, [result.gens, len(cob), found, degree]

    return Op("power_zero_dim", ("power_zero_dim", n, k, tuple(gens)), run)


def minimalize_redundant(rng, n, total, kept):
    """A known antichain of up to `kept` monomials hidden among `total` generators."""
    degree = rng.randrange(4, 9)
    corners = list(_compositions(n, degree))
    base = sorted(rng.sample(corners, min(len(corners), kept)))
    gens = list(base)
    while len(gens) < total:
        g = rng.choice(base)
        bump = [rng.randrange(3) for _ in range(n)]
        bump[rng.randrange(n)] += 1
        gens.append(tuple(x + y for x, y in zip(g, bump)))
    rng.shuffle(gens)
    points = _sample_points(rng, n, degree + 2)

    def run(meter):
        ideal = _minimalize(meter, gens, n)
        # rebuilding from an existing antichain re-minimalizes it
        rebuilt = _minimalize(meter, ideal.gens, n)
        found = _membership(meter, ideal, points)
        ok = (
            list(ideal.gens) == base
            and rebuilt == ideal
            and found == [_in_generated(a, base) for a in points]
        )
        return ok, [ideal.gens, found]

    return Op("minimalize", ("minimalize", n, tuple(base), total), run)


def _compositions(n, total):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(n - 1, total - first):
            yield (first,) + rest


def lemma(rng, n, ell):
    e = rng.randrange(4)
    p = rng.choice((2, 3, 5))

    def run(meter):
        report = meter.call(
            "monomials.lemma", monomials.verify_lemma_monomials, n, ell, e, p
        )
        return report.all_ok, [report.all_ok, report.witness]

    return Op("lemma", ("lemma", n, ell, e, p), run)


BRACKET_SHAPES = [(n, k) for n, top in BRACKET_POWER.items() for k in range(1, top + 1)]
ZERO_DIM_SHAPES = [(n, k) for n in (2, 3) for k in (2, 3)]
LEMMA_SHAPES = [(n, ell) for n in range(1, 6) for ell in range(5)]


def deck(rng, strata):
    """One pass: the same mix of request kinds every time, in shuffled order.

    The parameters that set an op's cost (variable count, power, generator
    counts) cycle through their ranges across passes; the rest is drawn.
    """
    ops = [
        power_of_maximal(rng, n, strata.pick(f"power.{n}", range(2, MAX_POWER[n] + 1)))
        for n in (2, 3, 4)
    ]
    for i in range(2):
        ops.append(bracket_of_maximal_power(rng, *strata.pick(f"bracket.{i}", BRACKET_SHAPES)))
        ops.append(power_of_zero_dimensional(rng, *strata.pick(f"zero_dim.{i}", ZERO_DIM_SHAPES)))
        n = strata.pick(f"minimalize.{i}.n", (2, 3, 4))
        total = strata.pick(f"minimalize.{i}.total", range(200, 1500, 130)) + rng.randrange(130)
        kept = strata.pick(f"minimalize.{i}.kept", range(10, 60, 10)) + rng.randrange(10)
        ops.append(minimalize_redundant(rng, n, total, kept))
    ops += [lemma(rng, *strata.pick(f"lemma.{i}", LEMMA_SHAPES)) for i in range(3)]
    rng.shuffle(ops)
    return ops
