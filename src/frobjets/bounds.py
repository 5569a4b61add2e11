"""Certified exact-rational lower bounds for Seshadri-type constants.

Every bound comes as a certificate whose witness re-verifies against the jets
engine and whose value is certified_value's, the one value rule; derivation
rules (tensor powers, globally generated twists) transform certificates
without leaving the certified world. No floating point anywhere.

Every model separates 0-jets, so the ordinary bound always has a certificate;
a Frobenius sweep has none when no (m, e) cell separates. Separation is
monotone in m, so cell (m, e) separates iff m >= m_e, the threshold of row e;
a sweep is its e_max + 1 thresholds, and no per-cell table is ever built.

Both constants are exact. Over the model's rows (s, W, S, i), W > 0 (see
SectionModel.rows), the Seshadri constant a/b = min s/W (lowest terms) is
certified at (b, a): every floor of s(m) = min floor(s*m/W) is exact at
m = b, and s(m)/m < a/b where b does not divide m, so seshadri_lower returns
(b, a) whenever b <= m_max and scans the degrees only below it. The
Frobenius constant (ell+1) * min s/(ell*W + S) is a limit, a Fraction: no
cell attains it once ell >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .jets import (
    frobenius_threshold,
    pn_threshold,
    s_frobenius,
    s_jets,
    separates_by_cobasis,
    separates_frobenius_jets,
)
from .models import SectionModel, projective_space
from .monomials import WORK_LIMIT, _frobenius_power, _over_limit, ensure_prime
from .serialize import format_fraction, parse_fraction, parse_int

SESHADRI = "seshadri"
FROBENIUS = "frobenius_seshadri"


class RuleInapplicableError(ValueError):
    """A certificate derivation rule was applied outside its preconditions."""


def certified_value(kind: str, witness: tuple[int, int], ell=None, p=None) -> Fraction:
    """The value s/m of an ordinary witness (m, s), (p^e - 1)(ell + 1)/m of a Frobenius (m, e)."""
    m, second = witness
    if kind == SESHADRI:
        return Fraction(second, m)
    return Fraction((p**second - 1) * (ell + 1), m)


@dataclass(frozen=True)
class BoundCertificate:
    """An exact rational lower bound together with its finite witness.

    The witness is (m, s) for the ordinary kind, (m, e) for the Frobenius
    kind, exact ints with m >= 1 and s, e >= 0; a Frobenius certificate has
    ell >= 0, a prime p and a p^e of at most WORK_LIMIT bits, an ordinary one
    neither; the derivation is a tuple of non-empty strings. The fields are
    checked at construction, and `value` is set to what certified_value gives
    them.
    """

    kind: str
    value: Fraction = field(init=False)
    witness: tuple[int, int]
    ell: int | None = None
    p: int | None = None
    derivation: tuple[str, ...] = ("direct",)

    def __post_init__(self):
        if self.kind not in (SESHADRI, FROBENIUS):
            raise ValueError(f"kind must be {SESHADRI!r} or {FROBENIUS!r}, got {self.kind!r}")
        try:
            m, second = self.witness
        except (TypeError, ValueError):
            raise ValueError(f"witness must be a pair, got {self.witness!r}") from None
        parse_int(m, "witness m", 1)
        parse_int(second, "witness s" if self.kind == SESHADRI else "witness e", 0)
        if self.kind == FROBENIUS:
            parse_int(self.ell, "ell", 0)
            # the witness's p^e is bounded here, where e enters; certified_value computes it
            _frobenius_power(self.p, second)
        elif self.ell is not None or self.p is not None:
            raise ValueError("an ordinary certificate has no ell or p")
        steps = self.derivation
        if type(steps) is not tuple or not all(type(step) is str and step for step in steps):
            raise ValueError(f"derivation must be a tuple of non-empty strings, got {steps!r}")
        object.__setattr__(self, "witness", (m, second))
        value = certified_value(self.kind, self.witness, self.ell, self.p)
        object.__setattr__(self, "value", value)

    def reverify(self, model: SectionModel, method: str = "fast") -> bool:
        """Re-check the witness by the fast checker or by the cobasis oracle."""
        checkers = {"fast": separates_frobenius_jets, "cobasis": separates_by_cobasis}
        if method not in checkers:
            raise ValueError(f"unknown method {method!r}; expected one of {tuple(checkers)}")
        m, second = self.witness
        ell, e, p = (second, 0, 2) if self.kind == SESHADRI else (self.ell, second, self.p)
        return checkers[method](model, m, ell, e, p)

    def to_json(self) -> dict:
        doc = {
            "kind": self.kind,
            "value": format_fraction(self.value),
            "witness": list(self.witness),
            "derivation": list(self.derivation),
        }
        if self.kind == FROBENIUS:
            doc["ell"] = self.ell
            doc["p"] = self.p
        return doc


def exact_seshadri(model: SectionModel) -> BoundCertificate:
    """The Seshadri constant a/b = min s/W over the rows with W > 0, certified at (b, a)."""
    value = min(certified_value(SESHADRI, (W, s)) for s, W, _, _ in model.rows)
    return BoundCertificate(SESHADRI, (value.denominator, value.numerator))


def exact_frobenius_seshadri(model: SectionModel, ell: int) -> Fraction:
    """The Frobenius-Seshadri limit (ell+1) * min s/(ell*W + S) over the rows with W > 0."""
    parse_int(ell, "ell", 0)
    return (ell + 1) * min(Fraction(s, ell * W + S) for s, W, S, _ in model.rows)


def seshadri_lower(model: SectionModel, m_max: int) -> BoundCertificate:
    """Best bound max s(m)/m over degrees up to m_max; ties go to smallest m.

    That is exact_seshadri's certificate (b, a) when b <= m_max; only a
    smaller m_max scans the degrees, refused when m_max * rows is over WORK_LIMIT.
    """
    parse_int(m_max, "m_max", 1)
    exact = exact_seshadri(model)
    if exact.witness[0] <= m_max:
        return exact
    if m_max * len(model.rows) > WORK_LIMIT:
        raise _over_limit(f"the Seshadri scan would ask {len(model.rows)} rows at {m_max} degrees")
    scan = ((m, s_jets(model, m)) for m in range(1, m_max + 1))
    return BoundCertificate(SESHADRI, max(scan, key=lambda cell: certified_value(SESHADRI, cell)))


def frobenius_sweep(model: SectionModel, p: int, ell: int, m_max: int, e_max: int):
    """The thresholds m_e (None: no m separates) of rows e = 0, ..., e_max, and
    the best cell's certificate (None: no cell separates), refused before any
    threshold when over WORK_LIMIT. Row e's best cell is (m_e, e) if m_e <= m_max;
    max keeps the first maximum, so ties go to the smallest e, then m.
    """
    if parse_int(m_max, "m_max") < 1 or parse_int(e_max, "e_max") < 1:
        raise ValueError("m_max and e_max must be >= 1")
    parse_int(ell, "ell", 0)
    ensure_prime(p)
    # each threshold computes a load per model row from p^e, of at most the
    # 64-bit words of p^e_max, so the sweep grows as e_max^2
    loads, words = len(model.rows) * (e_max + 1), e_max * (p - 1).bit_length() // 64 + 1
    if loads * words > WORK_LIMIT:
        raise _over_limit(f"the Frobenius sweep would compute {loads} loads of up to {words} words")
    thresholds = [frobenius_threshold(model, ell, e, p) for e in range(e_max + 1)]
    cells = [(m_e, e) for e, m_e in enumerate(thresholds) if m_e is not None and m_e <= m_max]
    best = max(cells, key=lambda cell: certified_value(FROBENIUS, cell, ell, p), default=None)
    return thresholds, None if best is None else BoundCertificate(FROBENIUS, best, ell, p)


def frobenius_seshadri_lower(
    model: SectionModel, p: int, ell: int, m_max: int, e_max: int
) -> BoundCertificate | None:
    """Best Frobenius bound over the (m, e) grid; ties go to smallest (e, m).

    Returns None when no grid cell separates ("no certificate").
    """
    return frobenius_sweep(model, p, ell, m_max, e_max)[1]


def certificate_at(model: SectionModel, p: int, ell: int, m: int, e: int) -> BoundCertificate:
    """Certificate for one verified (m, e) witness."""
    if not separates_frobenius_jets(model, m, ell, e, p):
        raise ValueError(f"degree {m} does not separate p^{e}-Frobenius {ell}-jets")
    return BoundCertificate(FROBENIUS, (m, e), ell, p)


def closed_form_pn(n: int, ell: int) -> Fraction:
    """Exact Frobenius-Seshadri value (ell+1)/(ell+n) on projective n-space."""
    parse_int(n, "n", 1)
    parse_int(ell, "ell", 0)
    return Fraction(ell + 1, ell + n)


@dataclass(frozen=True)
class SubsequenceDemo:
    """Certificate values along the two degree subsequences m_e and m_e - 1.

    Entry i corresponds to e = i + 1. The upper sequence increases to the
    closed-form limit (ell+1)/(ell+n); the lower one converges to the smaller
    limit (ell+1)/((ell+n)*p), which is why the defining supremum is only a
    limit superior.
    """

    upper_seq: tuple[Fraction, ...]
    lower_seq: tuple[Fraction | None, ...]


def subsequence_demo(n: int, ell: int, p: int, e_max: int) -> SubsequenceDemo:
    parse_int(e_max, "e_max", 2)
    model = projective_space(n)
    upper = []
    lower = []
    for e in range(1, e_max + 1):
        m_e = pn_threshold(n, ell, e, p)
        upper.append(certified_value(FROBENIUS, (m_e, e), ell, p))
        m_low = m_e - 1
        if m_low < 1:
            lower.append(None)
            continue
        # m_low >= ell, the e = 0 threshold, so s_frobenius is an integer here
        s = s_frobenius(model, m_low, ell, p)
        lower.append(certified_value(FROBENIUS, (m_low, s), ell, p))
    return SubsequenceDemo(tuple(upper), tuple(lower))


def tensor_power_scale(cert: BoundCertificate, r: int, p: int) -> BoundCertificate:
    """Stretch a Frobenius witness (m, e) to (m * d_r, r * e), d_r = (p^(re)-1)/(p^e-1).

    The certified value is unchanged. A p^(re) over WORK_LIMIT bits is refused uncomputed.
    """
    if cert.kind != FROBENIUS:
        raise RuleInapplicableError("tensor-power scaling applies to Frobenius certificates")
    if cert.p != parse_int(p, "p"):
        raise RuleInapplicableError(f"certificate characteristic {cert.p} != {p}")
    parse_int(r, "r", 1)
    m, e = cert.witness
    if e == 0:
        raise RuleInapplicableError("tensor-power scaling needs a witness with e >= 1")
    d_r = (_frobenius_power(p, r * e) - 1) // (_frobenius_power(p, e) - 1)
    scaled = replace(
        cert,
        witness=(m * d_r, r * e),
        derivation=cert.derivation + (f"tensor_power({r})",),
    )
    assert scaled.value == cert.value
    return scaled


def gg_twist_extend(
    cert: BoundCertificate, j: int, model: SectionModel
) -> BoundCertificate:
    """Twist a Frobenius witness by j extra degrees of the model.

    Every model is globally generated at the point (see SectionModel), so
    the witness moves from (m, e) to (m + j, e) and the value shrinks
    accordingly; the new witness is re-verified against the jets engine.
    """
    if cert.kind != FROBENIUS:
        raise RuleInapplicableError("gg twisting applies to Frobenius certificates")
    if parse_int(j, "j", 0) == 0:
        return cert
    m, e = cert.witness
    twisted = replace(cert, witness=(m + j, e), derivation=cert.derivation + (f"gg_twist({j})",))
    if not twisted.reverify(model):
        raise RuleInapplicableError("twisted witness failed re-verification")
    return twisted


def check_comparison(n: int, ell: int, eps: Fraction, eps_frob: Fraction) -> bool:
    """Sandwich between (ell+1)/(ell+n) * eps and eps, exactly."""
    eps, eps_frob = parse_fraction(eps), parse_fraction(eps_frob)
    return closed_form_pn(n, ell) * eps <= eps_frob <= eps


def check_level_comparison(
    n: int, ell: int, lower_level: int, eps_high: Fraction, eps_low: Fraction
) -> bool:
    """Double inequality between Frobenius constants of levels ell > lower_level."""
    if parse_int(ell, "ell", 0) <= parse_int(lower_level, "lower_level", 0):
        raise ValueError("requires ell > lower_level")
    eps_high, eps_low = parse_fraction(eps_high), parse_fraction(eps_low)
    return (
        closed_form_pn(n, ell) * eps_low
        <= eps_high
        <= Fraction(ell + 1, lower_level + 1) * eps_low
    )
