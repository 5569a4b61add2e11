"""Integer calculus for principal-parts bundles and split bundles on the line.

Determinant classes live in the free abelian group on the canonical class and
the line bundle class; no geometry is attempted. The closed-form determinant
has a fractional-looking exponent, so it is evaluated in exact rationals and
asserted integral; the recursion provides the independent certificate.
Split bundles on the line are plain tuples of their summand degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .monomials import WORK_LIMIT, _capped_binomial, _over_limit
from .serialize import parse_int


@dataclass(frozen=True)
class PicClass:
    """omega^omega_exp tensor L^l_exp in the rank-2 class lattice."""

    omega_exp: int
    l_exp: int

    def to_json(self) -> dict:
        return {"omega": self.omega_exp, "l": self.l_exp}


def rank_pp(n: int, ell: int) -> int:
    """Rank of the ell-th principal-parts bundle in dimension n.

    Its filtration by the Sym^k(Omega) tensor L makes its rank the L exponent of its determinant.
    """
    return det_pp_recursive(n, ell).l_exp


def det_pp_recursive(n: int, ell: int) -> PicClass:
    """Determinant class accumulated step by step along the rank recursion."""
    if parse_int(n, "n") < 1 or parse_int(ell, "ell") < 0:
        raise ValueError("need n >= 1 and ell >= 0")
    omega_exp, l_exp = 0, 1
    for k in range(1, ell + 1):
        omega_exp += comb(n + k - 1, n)
        l_exp += comb(n + k - 1, n - 1)
    return PicClass(omega_exp, l_exp)


def det_pp_closed(n: int, ell: int) -> PicClass:
    """Closed form (omega^ell tensor L^(n+1)) ^ (C(n+ell, n) / (n+1)).

    The division is carried out in exact arithmetic and must be integral;
    a non-integral exponent would contradict the recursion and raises.
    """
    if parse_int(n, "n") < 1 or parse_int(ell, "ell") < 0:
        raise ValueError("need n >= 1 and ell >= 0")
    total = comb(n + ell, n)
    omega_exp = Fraction(ell * total, n + 1)
    l_exp = Fraction((n + 1) * total, n + 1)
    if omega_exp.denominator != 1 or l_exp.denominator != 1:
        raise ArithmeticError(
            f"closed-form determinant exponent is not integral at (n={n}, ell={ell})"
        )
    return PicClass(int(omega_exp), int(l_exp))


@dataclass(frozen=True)
class MoriEndgameReport:
    """Arithmetic of the positivity endgame for a pulled-back tangent bundle.

    For summand degrees a on the line, b is the anti-canonical degree sum(a);
    the quotient bundle has degrees (multiset sums of n+1 of the a_i) - b, it
    is globally generated iff (n+1)*min(a) >= b, and global generation with
    b > 0 forces every a_i >= b/(n+1) > 0.
    """

    b: int
    quotient_degrees: tuple[int, ...]
    gg: bool
    all_ai_positive: bool


def mori_endgame(a) -> MoriEndgameReport:
    a = tuple(parse_int(x, "summand degree") for x in a)
    if not a:
        raise ValueError("need at least one summand degree")
    n = len(a)
    # refused before the enumeration, which yields C(2n, n+1) = C(2n, n-1) degrees
    if _capped_binomial(2 * n, n - 1) > WORK_LIMIT:
        raise _over_limit(f"{n} summands have C({2 * n}, {n + 1}) quotient degrees")
    b = sum(a)
    # (Sym^(n+1) of the dual)^dual tensor O(-b): sums of n+1 summand degrees, shifted by -b
    quotient_degrees = tuple(sorted(sum(c) - b for c in combinations_with_replacement(a, n + 1)))
    gg = (n + 1) * min(a) >= b
    return MoriEndgameReport(
        b=b,
        quotient_degrees=quotient_degrees,
        gg=gg,
        all_ai_positive=gg and b > 0 and min(a) > 0,
    )
