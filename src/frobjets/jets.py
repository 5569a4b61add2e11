"""Separation of ordinary and Frobenius jets on staircase section models.

Separation of a jet ideal at degree m means exactly that the ideal's cobasis
is attainable at m: on a monomial model the restriction map is diagonal on the
monomial basis (attainable monomials map to their own residue classes, ideal
monomials to zero), so surjectivity is staircase coverage.

Separation has a fast checker and an independent oracle:

* missing_exponent, the fast checker, maximizes <w, a> over the complement
  of the jet ideal per row, in closed form.  A monomial x^a lies outside
  the bracket power by p^e of the (ell+1)-st maximal-ideal power iff
  sum_i floor(a_i / p^e) <= ell, so with q = p^e the maximum is the load
  _load = ell * q * W + (q - 1) * S of the model's row (s, W, S, i), where
  W = max(w) and S = sum(w) (see SectionModel.rows).  Degree m separates
  iff every load is <= s * m; frobenius_threshold solves that for m.
* separates_by_cobasis, the oracle, asks the model at the maximal points
  (corners) of the cobasis, the staircase corners a with every a + e_i in
  the ideal (a generator dividing a + e_i but not a has g_i = a_i + 1). An
  attainable set is downward closed (the weights are non-negative), so it
  covers the cobasis iff it covers the corners. No load formula is used.

A rank check of the restriction matrix would add nothing: the matrix has at
most one 1 per row, so its rank counts the attained cobasis monomials, which
is the oracle's check again.

The indices need no checker: s(m) is the closed form min over the rows of
floor(s * m / W), and s_F(m) solves the load inequality for p^e in one pass.
"""

from __future__ import annotations

from functools import lru_cache

from .models import SectionModel
from .monomials import (
    Exponent,
    MonomialIdeal,
    _frobenius_power,
    bracket_power,
    maximal_ideal,
    power,
    staircase_corners,
)
from .serialize import parse_int

NEG_INF = float("-inf")


@lru_cache(maxsize=512)
def jet_ideal(n: int, ell: int, e: int, p: int) -> MonomialIdeal:
    """The bracket power by p^e of the (ell+1)-st power of the maximal ideal."""
    return bracket_power(power(maximal_ideal(n), ell + 1), p, e)


def pn_threshold(n: int, ell: int, e: int, p: int) -> int:
    """The load ell * p^e + n * (p^e - 1) of P^n's one row (1, ..., 1; 1).

    P^n separates p^e-Frobenius ell-jets from degree max(1, pn_threshold) on:
    that is frobenius_threshold(projective_space(n), ...), and 0 only at ell = e = 0.
    """
    parse_int(n, "n", 1)
    parse_int(ell, "ell", 0)
    return _load(1, n, ell, _frobenius_power(p, e))


def _load(W: int, S: int, ell: int, q: int) -> int:
    # max of <w, a> over exponents outside the jet ideal (see module docstring)
    return ell * q * W + (q - 1) * S


def _check_jets(ell: int, e: int, p: int) -> int:
    """q = p^e, once ell and e are integers >= 0 and p is a prime."""
    if parse_int(ell, "ell") < 0 or parse_int(e, "e") < 0:
        raise ValueError("ell and e must be >= 0")
    return _frobenius_power(p, e)


def frobenius_threshold(model: SectionModel, ell: int, e: int, p: int) -> int | None:
    """Smallest degree m >= 1 that separates p^e-Frobenius ell-jets, or None.

    Each row (s, W, S, i) asks for s * m >= its load; None means that a row
    of slope 0 has a positive load, so that no degree separates.
    """
    q = _check_jets(ell, e, p)
    m_e = 1
    for s, W, S, _ in model.rows:
        load = _load(W, S, ell, q)
        if load > s * m_e:
            if s == 0:
                return None
            m_e = -(-load // s)
    return m_e


@lru_cache(maxsize=256)
def _cobasis_corners(ideal: MonomialIdeal) -> frozenset[Exponent]:
    """The maximal points of the cobasis, found among the staircase corners."""
    return frozenset(
        a
        for a in staircase_corners(ideal)
        if all(ideal._has(a[:i] + (a[i] + 1,) + a[i + 1 :]) for i in range(ideal.n))
    )


def separates_by_cobasis(model: SectionModel, m: int, ell: int, e: int, p: int) -> bool:
    """The oracle: whether the model attains every cobasis corner of the jet ideal at m."""
    parse_int(m, "degree m", 1)
    _check_jets(ell, e, p)
    # the attainable set is downward closed, so covering the corners covers all
    corners = _cobasis_corners(jet_ideal(model.n, ell, e, p))
    return all(model.attains(a, m) for a in corners)


def missing_exponent(model: SectionModel, m: int, ell: int, e: int, p: int):
    """A cobasis exponent of the jet ideal that the model misses, or None.

    None iff degree m separates p^e-Frobenius ell-jets. Else the witness
    maximizes the first violated row's load: all coordinates at p^e - 1,
    plus ell * p^e on that row's first heaviest coordinate i.
    """
    parse_int(m, "degree m", 1)
    q = _check_jets(ell, e, p)
    for s, W, S, i in model.rows:
        if _load(W, S, ell, q) > s * m:
            a = [q - 1] * model.n
            a[i] += ell * q
            return tuple(a)


def separates_frobenius_jets(model: SectionModel, m: int, ell: int, e: int, p: int) -> bool:
    """Whether degree-m sections separate p^e-Frobenius ell-jets at the point."""
    return missing_exponent(model, m, ell, e, p) is None


def separates_jets(model: SectionModel, m: int, ell: int) -> bool:
    """Whether degree-m sections separate ordinary ell-jets at the point."""
    return separates_frobenius_jets(model, m, ell, 0, 2)


def s_jets(model: SectionModel, m: int) -> int:
    """Largest ell such that degree-m sections separate ell-jets.

    A row (s, W, S, i) admits ell-jets at m iff ell * W <= s * m (its load
    at e = 0).
    """
    parse_int(m, "degree m", 1)
    return min(s * m // W for s, W, _, _ in model.rows)


def s_frobenius(model: SectionModel, m: int, ell: int, p: int) -> int | float:
    """Largest e such that degree-m sections separate p^e-Frobenius ell-jets.

    Returns -inf when even e = 0 fails. With q = p^e, a row (s, W, S, i)
    admits the jets iff its load ell*q*W + (q-1)*S <= s*m, that is iff
    q <= (s*m + S) // (ell*W + S). As W >= 1, the bound is 0 exactly when a
    row fails at q = 1.
    """
    parse_int(m, "degree m", 1)
    _check_jets(ell, 0, p)
    bound = min((s * m + S) // (ell * W + S) for s, W, S, _ in model.rows)
    if bound == 0:
        return NEG_INF
    e, q = 0, p
    while q <= bound:
        e, q = e + 1, q * p
    return e
