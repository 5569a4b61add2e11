"""The trace map on monomial top-forms over a characteristic-p local model.

A form is lambda * x^a * dx1^...^dxn with lambda in the prime field F_p. The
e-fold trace sends x^a dx to x^((a+1)/p^e - 1) dx when p^e divides every
entry of a + 1, and to zero otherwise; lambda picks up its unique p^e-th
root, which on the prime field is lambda itself.

The monomial formula is hard-coded in one private kernel, _trace_exponent;
its correctness is pinned down by the verification suite in this module
(explicit surjectivity preimages, the ideal-image identity, semilinearity
over p^e-th powers, and the iteration law), not derived from duality theory.
Only the public trace handles forms, validating p, e and the form on every
call. The four verifiers validate p and e once and call the kernel on plain
exponents: lambda^(p^e) == lambda puts one scalar on both sides of each law.

The ideal-image check asks the ideal by one binary search per line b of its
box: an ideal is an up-set, so its members on b form a tail, and x^a is in
I^[q] iff x^(a//q) is in I (Miller-Sturmfels, Combinatorial Commutative
Algebra, ch. 1-5), so the first member on b, scaled by q, starts the bracket's
members on every prefix a[:-1] with a[:-1]//q == b. Ideals that share a box
share one walk over the members of their sum's bracket, which starts on b at
the least of their first members: the box is walked by rows over those runs
only, in the order of a plain scan, and each member is traced once, for
every ideal whose bracket holds it. The same first members answer whether a
trace escapes an ideal: a trace t in the box is in it iff t[-1] is on or past
the first member on t[:-1], so only a trace out of the box asks the ideal.
Under the true kernel none is out: a < q*(box+1) gives a//q <= box.

Both walks refuse, before they allocate, a box of more than WORK_LIMIT
points. Semilinearity and iteration are checked on one fixed design of
residue classes: the trace of x^a dx depends only on a mod q and a // q
(Blickle-Schwede, p^(-1)-linear maps in algebra and geometry, 2013).
"""

from __future__ import annotations

from itertools import compress, product, repeat
from operator import add, ne
from typing import NamedTuple

from .monomials import Exponent, MonomialIdeal, ensure_prime, maximal_ideal, power
from .monomials import WORK_LIMIT, _check_exponent, _check_work, _first_member, _over_limit
from .serialize import parse_int


class MonomialForm(NamedTuple):
    """coeff * x^exponent * dx1^...^dxn; the zero form has coeff 0."""

    coeff: int
    exponent: Exponent

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0


def _trace_exponent(exponent: Exponent, q: int) -> Exponent | None:
    """The exponent of the trace of x^exponent dx at q = p^e, or None for zero.

    Unvalidated: callers check p and e.
    """
    top = q - 1
    # a + 1 must be divisible by q, i.e. a % q == q - 1, in every coordinate;
    # then (a + 1)/q - 1 == a // q
    for a in exponent:
        if a % q != top:
            return None
    return tuple([a // q for a in exponent])


def trace(w: MonomialForm, p: int, e: int) -> MonomialForm:
    """Apply the e-fold trace to a monomial top-form, validating p, e and w.

    The exponent is mapped by _trace_exponent; the zero form is
    MonomialForm(0, (0,) * n).
    """
    ensure_prime(p)
    q = p ** parse_int(e, "e", 0)
    coeff = parse_int(w.coeff, "coefficient") % p
    _check_exponent(w.exponent, len(w.exponent))
    image = _trace_exponent(w.exponent, q) if coeff else None
    if image is None:
        return MonomialForm(0, (0,) * len(w.exponent))
    # coeff^(p^e) == coeff on F_p, so coeff is its own p^e-th root
    return MonomialForm(coeff, image)


def _box(n: int, top: int):
    return product(range(parse_int(top, "box", 0) + 1), repeat=n)


def surjectivity_counterexample(n: int, p: int, e: int, box: int):
    """A target exponent within the box whose canonical preimage fails, or None.

    For each target b the form x^(p^e*(b+1)-1) dx must trace to x^b dx.
    Refused when the (box+1)^n targets are more than WORK_LIMIT.
    """
    # bad input is reported in the order n, p, box, e
    parse_int(n, "n", 1)
    ensure_prime(p)
    targets = _box(n, box)
    q = p ** parse_int(e, "e", 0)
    _check_work("surjectivity", box + 1, n)
    preimages = product(range(q - 1, q * (box + 1), q), repeat=n)
    # lazy, so the kernel stops at the first mismatch; each side has its own targets
    images = map(_trace_exponent, preimages, repeat(q))
    return next(compress(targets, map(ne, images, _box(n, box))), None)


def ideal_identity_counterexample(ideal: MonomialIdeal, p: int, e: int, box: int):
    """A box exponent violating trace(bracket-power forms) == ideal forms, or None.

    Compares, within the box, the set of exponents hit by tracing forms with
    exponent in the bracket power against the set of exponents in the ideal;
    also rejects any traced form that escapes the ideal, and returns the first
    one that the walk of ideal_identity_counterexamples meets.
    """
    return ideal_identity_counterexamples([ideal], p, e, box)[0]


def ideal_identity_counterexamples(
    ideals: list[MonomialIdeal], p: int, e: int, box: int
) -> list:
    """What ideal_identity_counterexample returns for each ideal, from one shared walk.

    Each ideal is asked one binary search per line b of the target box for its
    first member first[b]: its targets on b are the x >= first[b], and its
    bracket holds prefix + (x,) iff x >= q * first[prefix // q]. The ideals' sum
    starts on b at the least first[b], and the members of its bracket are
    walked by rows, in the order of a plain scan, each traced once. A nonzero
    trace goes to every ideal with no escape yet whose bracket holds the point,
    and the first trace to escape an ideal is its answer; the walk stops once
    every ideal has one. The trace's entries are checked once, before its first
    escape check. A trace t in the box escapes ideal j iff t[-1] < first[t[:-1]],
    read from the firsts; only a trace out of the box asks the ideal. Refused,
    after p, e and box are checked, for mixed variable counts or a walk over
    more than WORK_LIMIT points.
    """
    # p, then e, then box, once for the whole walk
    q = ensure_prime(p) ** parse_int(e, "Frobenius exponent e", 0)
    side = q * (parse_int(box, "box", 0) + 1)
    counts = {ideal.n for ideal in ideals}
    if len(counts) > 1:
        raise ValueError(f"a shared walk needs one variable count, got {sorted(counts)}")
    if not counts:
        return []
    (n,) = counts
    _check_work("ideal identity", side, n)
    heads = list(_box(n - 1, box))
    firsts = [[_first_member(ideal, b, range(box + 1)) for b in heads] for ideal in ideals]
    # per line b of the target box: where the sum's bracket members start on
    # the prefixes over b, where each ideal's do, and each ideal's first member on b
    starts = {
        b: (q * min(line), [q * first for first in line], line)
        for b, line in zip(heads, zip(*firsts))
    }
    found = [None] * len(ideals)
    images = [set() for _ in ideals]
    undecided = list(range(len(ideals)))
    for prefix in _box(n - 1, side - 1):
        low, begins, _ = starts[tuple([x // q for x in prefix])]
        for last in range(low, side):
            traced = _trace_exponent(prefix + (last,), q)
            if traced is None:
                continue
            inside, escaped, line = max(traced) <= box, False, None
            for j in undecided:
                if last < begins[j]:
                    continue
                if line is None:
                    # checked once, before its first escape check
                    traced = _check_exponent(traced, n)
                    line = starts[traced[:-1]][2] if inside else ()
                # in the box, ideal j holds the trace iff it is on or past j's first member
                held = traced[-1] >= line[j] if inside else ideals[j]._has(traced)
                if not held:
                    found[j], escaped = traced, True
                elif inside:
                    images[j].add(traced)
            if escaped:
                undecided = [j for j in undecided if found[j] is None]
                if not undecided:
                    return found
    for j in undecided:
        target = {b + (x,) for b, first in zip(heads, firsts[j]) for x in range(first, box + 1)}
        difference = images[j].symmetric_difference(target)
        found[j] = min(difference) if difference else None
    return found


def semilinearity_counterexample(p: int, e: int, samples):
    """A (c, a) pair violating trace(x^(p^e*c) x^a dx) == x^c trace(x^a dx), or None."""
    ensure_prime(p)
    q = p ** parse_int(e, "e", 0)
    for c, a in samples:
        lhs = _trace_exponent(tuple(map(add, a, map(q.__mul__, c))), q)
        rhs = _trace_exponent(a, q)
        if lhs != (None if rhs is None else tuple(map(add, rhs, c))):
            return (c, a)
    return None


def residue_class_cases(n: int, q: int) -> list[tuple[Exponent, Exponent]]:
    """The semilinearity check's (c, a) pairs at q = p^e: at most 1 + 7n of them.

    Each shift c in 0, k*e_i (k = 1, 2, 3) and e_i + e_(i+1 mod n) on the top
    residue (q-1)*1, which traces to dx; then, at c = e_1, the top residue
    with one coordinate lowered to each of range(q - 1) when q <= 4, else to
    each of 0, 1 and q - 2, which trace to zero.
    """
    units = [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]
    shifts = [(0,) * n] + [tuple([k * x for x in u]) for k in (1, 2, 3) for u in units]
    # at n = 1 the pair is 2*e_1, and at n = 2 both pairs are e_1 + e_2
    pairs = [tuple(map(add, u, v)) for u, v in zip(units, units[1:] + units[:1])]
    top = (q - 1,) * n
    lowered = range(q - 1) if q <= 4 else (0, 1, q - 2)
    cross = [(units[0], top[:i] + (r,) + top[i + 1 :]) for i in range(n) for r in lowered]
    return [(c, top) for c in shifts + pairs[: n if n > 2 else n - 1]] + cross


def residue_class_forms(n: int, q: int) -> list[Exponent]:
    """The iteration check's exponents q*c + a over the same design, at q = p^(e1+e2)."""
    return [tuple([q * x + y for x, y in zip(c, a)]) for c, a in residue_class_cases(n, q)]


def random_primary_ideal(n: int, rng) -> MonomialIdeal:
    """A monomial ideal with finite complement: each x_i^8, and 1 to 5 gens in [0, 8]^n from rng."""
    gens = [
        tuple(8 if i == j else 0 for i in range(n))
        for j in range(n)
    ]
    for _ in range(rng.randrange(1, 6)):
        gens.append(tuple(rng.randrange(9) for _ in range(n)))
    return MonomialIdeal(n, tuple(gens))


def iteration_counterexample(p: int, e1: int, e2: int, exponents):
    """An exponent where the (e1+e2)-fold trace differs from the composite, or None."""
    ensure_prime(p)
    q1, q2 = p ** parse_int(e1, "e1", 0), p ** parse_int(e2, "e2", 0)
    q = q1 * q2
    for a in exponents:
        once = _trace_exponent(a, q1)
        if _trace_exponent(a, q) != (None if once is None else _trace_exponent(once, q2)):
            return a
    return None


def cartier_report(n: int, p: int, e: int, box: int, ideal: MonomialIdeal | None = None) -> dict:
    """Run the verification battery into one JSON-able report (ideal identity on min(box, 8)).

    Every argument and every cost is checked before the default ideal m^2 is built.
    """
    parse_int(n, "variable count n", 1)
    if ideal is not None and ideal.n != n:
        raise ValueError(f"ideal has {ideal.n} variables, expected n = {n}")
    ensure_prime(p)
    ideal_box = min(parse_int(box, "box", 0), 8)
    q = p ** parse_int(e, "e", 0)
    _check_work("surjectivity", box + 1, n)
    _check_work("ideal identity", q * (ideal_box + 1), n)
    if (1 + 7 * n) * n > WORK_LIMIT:
        raise _over_limit(f"the Cartier design would hold up to {1 + 7 * n} forms of {n} entries")
    if ideal is None:
        ideal = power(maximal_ideal(n), 2)
    # each check's counterexample or None, in the order the checks run
    found = {
        "surjective": surjectivity_counterexample(n, p, e, box),
        "ideal_identity": ideal_identity_counterexample(ideal, p, e, ideal_box),
        "semilinear": semilinearity_counterexample(p, e, residue_class_cases(n, q)),
        "iteration": iteration_counterexample(
            p, 1, max(e - 1, 0), residue_class_forms(n, max(q, p))
        ),
    }
    report = {check: cex is None for check, cex in found.items()}
    for check, cex in found.items():
        if cex is not None:
            report["counterexample"] = {"check": check, "data": repr(cex)}
            break
    return report
