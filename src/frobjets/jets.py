"""Separation of ordinary and Frobenius jets on staircase section models.

Separation of a jet ideal at degree m means exactly that the ideal's cobasis
is attainable at m: on a monomial model the restriction map is diagonal on the
monomial basis (attainable monomials map to their own residue classes, ideal
monomials to zero), so surjectivity is staircase coverage.

Separation has two interchangeable checkers, the fast path and its oracle:

* "fast": per-constraint maximization of <w, a> over the complement of the
  jet ideal, in closed form.  A monomial x^a lies outside the bracket power
  by p^e of the (ell+1)-st maximal-ideal power iff
  sum_i floor(a_i / p^e) <= ell, so with q = p^e the maximum is the load
  _load = ell * q * W + (q - 1) * S of the model's row (s, W, S, i), where
  W = max(w) and S = sum(w) (see SectionModel.rows).  Degree m separates
  iff m >= frobenius_threshold, the least m with every load <= s * m.
* "cobasis": ask the model at the maximal points (corners) of the cobasis.
  They are the staircase corners a with every a + e_i in the ideal: a
  generator dividing a + e_i but not a has g_i = a_i + 1. An attainable set
  is downward closed (a model's weights are non-negative), so it covers the
  cobasis exactly when it covers the corners. No load formula is used.

A rank check of the restriction matrix would add nothing: the matrix has at
most one 1 per row, so its rank counts the attained cobasis monomials, which
is the "cobasis" check again.

The indices need no checker: s(m) is the closed form min over the rows of
floor(s * m / W), and s_F(m) solves the load inequality for p^e.
"""

from __future__ import annotations

from functools import lru_cache

from .models import SectionModel
from .monomials import (
    Exponent,
    MonomialIdeal,
    bracket_power,
    ensure_prime,
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
    ensure_prime(p)
    return _load(1, n, ell, p ** parse_int(e, "e", 0))


def _load(W: int, S: int, ell: int, q: int) -> int:
    # max of <w, a> over exponents outside the jet ideal (see module docstring)
    return ell * q * W + (q - 1) * S


def frobenius_threshold(model: SectionModel, ell: int, e: int, p: int) -> int | None:
    """Smallest degree m >= 1 that separates p^e-Frobenius ell-jets, or None.

    Each row (s, W, S, i) asks for s * m >= its load; None means that a row
    of slope 0 has a positive load, so that no degree separates.
    """
    if parse_int(ell, "ell") < 0 or parse_int(e, "e") < 0:
        raise ValueError("ell and e must be >= 0")
    q = ensure_prime(p) ** e
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


def separates_frobenius_jets(
    model: SectionModel, m: int, ell: int, e: int, p: int, method: str = "fast"
) -> bool:
    """Whether degree-m sections separate p^e-Frobenius ell-jets at the point."""
    parse_int(m, "degree m", 1)
    # the threshold checks ell, e and p; the cobasis oracle does not use it
    m_e = frobenius_threshold(model, ell, e, p)
    if method == "fast":
        return m_e is not None and m >= m_e
    if method != "cobasis":
        raise ValueError(f"unknown method {method!r}; expected one of ('fast', 'cobasis')")
    # the attainable set is downward closed, so covering the corners covers all
    corners = _cobasis_corners(jet_ideal(model.n, ell, e, p))
    return all(model.attains(a, m) for a in corners)


def separates_jets(model: SectionModel, m: int, ell: int, method: str = "fast") -> bool:
    """Whether degree-m sections separate ordinary ell-jets at the point."""
    return separates_frobenius_jets(model, m, ell, 0, 2, method=method)


def missing_exponent(model: SectionModel, m: int, ell: int, e: int, p: int):
    """A cobasis exponent of the jet ideal that the model misses, or None.

    None iff degree m separates (separates_frobenius_jets checks the arguments).
    Else the witness maximizes the first violated row's load: all coordinates
    at p^e - 1, plus ell * p^e on that row's first heaviest coordinate i.
    """
    if separates_frobenius_jets(model, m, ell, e, p):
        return None
    q = p**e
    for s, W, S, i in model.rows:
        if _load(W, S, ell, q) > s * m:
            a = [q - 1] * model.n
            a[i] += ell * q
            return tuple(a)


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
    q <= (s*m + S) // (ell*W + S).
    """
    if not separates_frobenius_jets(model, m, ell, 0, p):
        return NEG_INF
    bound = min((s * m + S) // (ell * W + S) for s, W, S, _ in model.rows)
    e, q = 0, p
    while q <= bound:
        e, q = e + 1, q * p
    return e
