"""Threshold predicates and verdicts built from certified positivity inputs.

Geometric inputs (anti-canonical degrees, curve lists, self-intersections)
are caller-supplied data; this module is the inference layer over them. All
comparisons are exact rational comparisons, and every strictness matches the
criterion it implements: the adjoint-jet criteria are strict, the ambient
characterization threshold is non-strict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction

from .monomials import ensure_prime
from .serialize import parse_fraction, parse_int

# rule identifiers for the characterization verdict, by what each one needs
RULE_POINT_CHAR_P = "point_bound_char_p"
RULE_POINT_CHAR_ZERO = "point_bound_char_zero"
RULE_ALL_POINTS_DEGREE = "all_points_degree_bound"


class DataContradictionError(ValueError):
    """Supplied geometric data contradict a claimed bound."""


def _parse_curves(curves) -> tuple[tuple[int, int], ...]:
    """The (degree, multiplicity) pairs of `curves`, each entry an integer >= 1."""
    try:
        curves = tuple((d, mult) for d, mult in curves)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            "curves_through_x must be a list of (degree, multiplicity) pairs"
        ) from exc
    for d, mult in curves:
        parse_int(d, "curve degree", 1)
        parse_int(mult, "curve multiplicity", 1)
    return curves


@dataclass(frozen=True)
class FanoInput:
    """Certified inputs about an n-dimensional smooth variety with ample
    anti-canonical bundle.

    char is 0 or a prime; eps bounds refer to the anti-canonical bundle at a
    point (or uniformly at all points); curves_through_x lists pairs of
    (anti-canonical degree, multiplicity at the point).
    """

    n: int
    char: int = 0
    eps_lower_at_point: Fraction | None = None
    eps_lower_everywhere: Fraction | None = None
    antican_selfint: int | None = None
    min_rc_degree: int | None = None
    curves_through_x: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        parse_int(self.n, "n", 1)
        if parse_int(self.char, "char") != 0:
            ensure_prime(self.char)
        for name, low in (("antican_selfint", 1), ("min_rc_degree", None)):
            if getattr(self, name) is not None:
                parse_int(getattr(self, name), name, low)
        for name in ("eps_lower_at_point", "eps_lower_everywhere"):
            value = getattr(self, name)
            if value is not None:
                value = parse_fraction(value)
                if value <= 0:
                    raise ValueError(f"{name} must be positive")
                object.__setattr__(self, name, value)
        object.__setattr__(self, "curves_through_x", _parse_curves(self.curves_through_x))

    @classmethod
    def from_json(cls, doc: dict) -> "FanoInput":
        if not isinstance(doc, dict):
            raise ValueError("FanoInput must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown FanoInput keys: {sorted(unknown)}")
        if "n" not in doc:
            raise ValueError("missing FanoInput key 'n'")
        doc = dict(doc)
        if doc.get("curves_through_x") is None:
            doc.pop("curves_through_x", None)
        return cls(**doc)


@dataclass(frozen=True)
class AdjointJetReport:
    """Which separation criteria fire for the adjoint bundle at the point."""

    seshadri_criterion: bool | None
    frobenius_criterion: bool | None
    frobenius_threshold_implied: bool | None
    separates: bool
    conclusion: str


def adjoint_jet_report(
    n: int, ell: int, eps: Fraction | None = None, eps_frob: Fraction | None = None
) -> AdjointJetReport:
    """Strict thresholds: eps > n + ell, or the level-ell bound > ell + 1.

    A Seshadri bound also implies the Frobenius threshold through the
    comparison factor (ell+1)/(ell+n).
    """
    parse_int(n, "n", 1)
    parse_int(ell, "ell", 0)
    if eps is None and eps_frob is None:
        raise ValueError("need at least one of eps or eps_frob")
    eps = None if eps is None else parse_fraction(eps)
    eps_frob = None if eps_frob is None else parse_fraction(eps_frob)
    seshadri_fires = None if eps is None else eps > n + ell
    frobenius_fires = None if eps_frob is None else eps_frob > ell + 1
    implied = None if eps is None else Fraction(ell + 1, ell + n) * eps > ell + 1
    separates = bool(seshadri_fires) or bool(frobenius_fires) or bool(implied)
    conclusion = (
        f"adjoint bundle separates {ell}-jets at the point"
        if separates
        else "no conclusion"
    )
    return AdjointJetReport(seshadri_fires, frobenius_fires, implied, separates, conclusion)


def seshineq_check(n: int, eps: Fraction, s_values: dict) -> bool:
    """(m+1)*eps - (n+1) <= s(m) <= m*eps for every supplied degree m."""
    parse_int(n, "n", 1)
    eps = parse_fraction(eps)
    for m, s in s_values.items():
        parse_int(m, "degree m", 1)
        parse_int(s, "s(m)", 0)
    return all((m + 1) * eps - (n + 1) <= s <= m * eps for m, s in s_values.items())


def seshadri_upper_from_curves(curves) -> Fraction:
    """min over curves of degree/multiplicity, an upper bound at the point."""
    curves = _parse_curves(curves)
    if not curves:
        raise ValueError("need at least one curve")
    return min(Fraction(d, mult) for d, mult in curves)


def degree_bound_check(n: int, eps: Fraction, antican_selfint: int) -> bool:
    """eps^n <= (-K)^n, compared exactly (no real roots taken)."""
    parse_int(n, "n", 1)
    parse_int(antican_selfint, "antican_selfint", 1)
    return parse_fraction(eps) ** n <= antican_selfint


@dataclass(frozen=True)
class CharPnVerdict:
    verdict: str
    rule: str | None
    fired: tuple[str, ...]
    checks: dict
    warnings: tuple[str, ...]


def charpn_verdict(inp: FanoInput) -> CharPnVerdict:
    """Decide whether the inputs force the variety to be projective space.

    Fires on a point bound >= n+1 (positive characteristic, or characteristic
    zero through the cited degeneration), or on an everywhere bound >= n+1 in
    positive characteristic via the rational-curve and degree conditions.
    Curve data can only block, never fire, and inconsistent data raise.
    """
    n = inp.n
    target = n + 1
    checks: dict = {}
    warnings: list[str] = []

    curve_upper = None
    if inp.curves_through_x:
        curve_upper = seshadri_upper_from_curves(inp.curves_through_x)
        checks["curve_upper_bound"] = curve_upper

    claimed = [
        b for b in (inp.eps_lower_at_point, inp.eps_lower_everywhere) if b is not None
    ]
    best_point = max(claimed) if claimed else None

    if curve_upper is not None and best_point is not None and curve_upper < best_point:
        raise DataContradictionError(
            f"curve upper bound {curve_upper} is below the claimed lower bound {best_point}"
        )
    if inp.eps_lower_everywhere is not None and inp.min_rc_degree is not None:
        if inp.min_rc_degree < inp.eps_lower_everywhere:
            raise DataContradictionError(
                "minimal rational-curve degree is below the everywhere lower bound"
            )
    if inp.antican_selfint is not None and best_point is not None:
        if not degree_bound_check(n, best_point, inp.antican_selfint):
            raise DataContradictionError(
                "claimed lower bound exceeds the n-th root of the anti-canonical degree"
            )

    fired = []
    if best_point is not None and best_point >= target:
        if inp.char > 0:
            fired.append(RULE_POINT_CHAR_P)
        else:
            fired.append(RULE_POINT_CHAR_ZERO)
    if (
        inp.char > 0
        and inp.eps_lower_everywhere is not None
        and inp.eps_lower_everywhere >= target
    ):
        # the all-points route needs the degree condition; it is derivable
        # from the everywhere bound, and provided data must agree with it
        degree_ok = (
            inp.antican_selfint is None
            or degree_bound_check(n, Fraction(target), inp.antican_selfint)
        )
        checks["degree_condition_derivable"] = degree_ok
        if degree_ok:
            fired.append(RULE_ALL_POINTS_DEGREE)

    if best_point is not None:
        checks["point_bound_met"] = best_point >= target
    if curve_upper is not None and curve_upper < target and not fired:
        warnings.append(
            f"curve upper bound {curve_upper} < {target}: the point hypothesis cannot hold here"
        )

    verdict = "isomorphic_to_Pn" if fired else "no_conclusion"
    return CharPnVerdict(
        verdict=verdict,
        rule=fired[0] if fired else None,
        fired=tuple(fired),
        checks=checks,
        warnings=tuple(warnings),
    )
