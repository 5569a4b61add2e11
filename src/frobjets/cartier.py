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
call. The verifiers validate p and e once and call the kernel on plain
exponents: lambda^(p^e) == lambda puts one scalar on both sides of each law.

The trace of x^a dx depends only on a mod q and a // q (Blickle-Schwede,
p^(-1)-linear maps in algebra and geometry, 2013), so every check but
surjectivity_counterexample's walk over a box runs on a fixed design of
residues r under shifts c: x^(q*c + r) dx must trace to x^c dx on the top
residue r = (q-1)*1 and to zero on every other r. The residue table puts all
of [0, q)^n under the shifts of residue_class_cases and the far corner 30*1.
The ideal identity takes each generator g of the ideal as a shift: the top
residue, in I^[q], traces onto g, and residue_class_cases' lowered residues
trace to zero, so every generator of I is hit and no class near one leaves I.
Every q = p^e is monomials._frobenius_power's, bounded in bits; a walk or a
design also refuses q over WORK_LIMIT in value, and none over it is built.
"""

from __future__ import annotations

from itertools import compress, product, repeat
from operator import add, ne
from typing import NamedTuple

from .monomials import Exponent, MonomialIdeal, ensure_prime, maximal_ideal, power
from .monomials import WORK_LIMIT, _check_exponent, _check_work, _frobenius_power, _over_limit
from .monomials import _power_over_limit, _q_over_limit
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
    q = _frobenius_power(p, e)
    coeff = parse_int(w.coeff, "coefficient") % p
    _check_exponent(w.exponent, len(w.exponent))
    image = _trace_exponent(w.exponent, q) if coeff else None
    if image is None:
        return MonomialForm(0, (0,) * len(w.exponent))
    # coeff^(p^e) == coeff on F_p, so coeff is its own p^e-th root
    return MonomialForm(coeff, image)


def _small_frobenius_power(p: int, e: int) -> int:
    """q = p^e of a walk or a design: refused also when over WORK_LIMIT in value."""
    q = _frobenius_power(p, e)
    if q > WORK_LIMIT:
        raise _q_over_limit(p, e)
    return q


def _check_design(n: int, q: int, gens: int) -> None:
    """Refuse, before it is built, a design of more than WORK_LIMIT exponent entries.

    residue_class_cases holds up to 1 + 7n forms; the ideal identity adds,
    for each of `gens` generators, the n * min(q - 1, 3) lowered residues.
    """
    if (1 + 7 * n) * n > WORK_LIMIT:
        raise _over_limit(f"the Cartier design would hold up to {1 + 7 * n} forms of {n} entries")
    lowered = gens * n * min(q - 1, 3)
    if lowered * n > WORK_LIMIT:
        raise _over_limit(f"the ideal design would trace {lowered} lowered forms of {n} entries")


def _box(n: int, top: int):
    return product(range(parse_int(top, "box", 0) + 1), repeat=n)


def surjectivity_counterexample(n: int, p: int, e: int, box: int):
    """A target exponent within the box whose canonical preimage fails, or None.

    For each target b the form x^(p^e*(b+1)-1) dx must trace to x^b dx.
    Refused when q = p^e or the (box+1)^n targets are more than WORK_LIMIT.
    """
    # bad input is reported in the order n, p, box, e
    parse_int(n, "n", 1)
    ensure_prime(p)
    targets = _box(n, box)
    q = _small_frobenius_power(p, e)
    _check_work("surjectivity", box + 1, n)
    preimages = product(range(q - 1, q * (box + 1), q), repeat=n)
    # lazy, so the kernel stops at the first mismatch; each side has its own targets
    images = map(_trace_exponent, preimages, repeat(q))
    return next(compress(targets, map(ne, images, _box(n, box))), None)


def _design_counterexample(q: int, shifts, residues) -> Exponent | None:
    """The first exponent q*c + r, by shift c and then residue r, whose trace is wrong, or None.

    x^(q*c + r) dx must trace to x^c dx on the top residue r = (q-1)*1 and to
    zero otherwise. The image must be c itself, int entries included, since
    (2.0,) == (2,).
    """
    top = (q - 1,) * len(residues[0])
    for c in shifts:
        base = [q * x for x in c]
        for r in residues:
            a = tuple(map(add, base, r))
            image = _trace_exponent(a, q)
            if image != (c if r == top else None) or r == top and {*map(type, image)} != {int}:
                return a
    return None


def residue_table_counterexample(n: int, p: int, e: int):
    """An exponent where the trace fails on the residue-complete design, or None.

    Every residue in [0, q)^n under each top-residue shift c of
    residue_class_cases, and under the far corner 30*1. Refused when q, or the
    up to 2 + 4n shifts of q^n residues of n entries, are over WORK_LIMIT.
    """
    parse_int(n, "n", 1)
    q = _small_frobenius_power(p, e)
    if _power_over_limit(q, n) or (2 + 4 * n) * q**n * n > WORK_LIMIT:
        raise _over_limit(f"the residue table would trace up to {2 + 4 * n} shifts of {q}^{n} residues")
    top = (q - 1,) * n
    shifts = [c for c, a in residue_class_cases(n, q) if a == top] + [(30,) * n]
    return _design_counterexample(q, shifts, list(product(range(q), repeat=n)))


def ideal_identity_counterexample(ideal: MonomialIdeal, p: int, e: int):
    """An exponent where the trace fails on the ideal's generator design, or None.

    Each generator g is a shift: x^(q*g + (q-1)*1) dx, in I^[q], must trace
    to x^g dx, and the lowered residues of residue_class_cases under g must
    trace to zero. Refused when q or the design is over WORK_LIMIT.
    """
    q = _small_frobenius_power(p, e)
    n = ideal.n
    _check_design(n, q, len(ideal.gens))
    top = (q - 1,) * n
    residues = [top] + [a for _, a in residue_class_cases(n, q) if a != top]
    return _design_counterexample(q, ideal.gens, residues)


def semilinearity_counterexample(p: int, e: int, samples):
    """A (c, a) pair violating trace(x^(p^e*c) x^a dx) == x^c trace(x^a dx), or None."""
    q = _frobenius_power(p, e)
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
    q1, q2 = _frobenius_power(p, e1, "e1"), _frobenius_power(p, e2, "e2")
    q = q1 * q2
    for a in exponents:
        once = _trace_exponent(a, q1)
        if _trace_exponent(a, q) != (None if once is None else _trace_exponent(once, q2)):
            return a
    return None


def cartier_report(n: int, p: int, e: int, box: int, ideal: MonomialIdeal | None = None) -> dict:
    """Run the verification battery into one JSON-able report.

    Surjectivity is walked over the box; the ideal identity runs on the
    ideal's generator design. Every argument and every cost is checked before
    the default ideal m^2 is built.
    """
    parse_int(n, "variable count n", 1)
    if ideal is not None and ideal.n != n:
        raise ValueError(f"ideal has {ideal.n} variables, expected n = {n}")
    ensure_prime(p)
    parse_int(box, "box", 0)
    q = _small_frobenius_power(p, e)
    _check_work("surjectivity", box + 1, n)
    # m^2 has C(n + 1, 2) generators
    _check_design(n, q, n * (n + 1) // 2 if ideal is None else len(ideal.gens))
    if ideal is None:
        ideal = power(maximal_ideal(n), 2)
    # each check's counterexample or None, in the order the checks run
    found = {
        "surjective": surjectivity_counterexample(n, p, e, box),
        "ideal_identity": ideal_identity_counterexample(ideal, p, e),
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
