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
        for name in ("antican_selfint", "min_rc_degree"):
            if getattr(self, name) is not None:
                parse_int(getattr(self, name), name, 1)
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
    separates: bool
    conclusion: str


def adjoint_jet_report(
    n: int, ell: int, eps: Fraction | None = None, eps_frob: Fraction | None = None
) -> AdjointJetReport:
    """Strict thresholds: eps > n + ell, or the level-ell bound > ell + 1.

    The adjoint bundle separates ell-jets when either criterion fires. What eps
    implies through the comparison, (ell+1)/(ell+n) * eps > ell + 1, is eps > n + ell.
    """
    parse_int(n, "n", 1)
    parse_int(ell, "ell", 0)
    if eps is None and eps_frob is None:
        raise ValueError("need at least one of eps or eps_frob")
    seshadri_fires = None if eps is None else parse_fraction(eps) > n + ell
    frobenius_fires = None if eps_frob is None else parse_fraction(eps_frob) > ell + 1
    separates = bool(seshadri_fires) or bool(frobenius_fires)
    conclusion = (
        f"adjoint bundle separates {ell}-jets at the point"
        if separates
        else "no conclusion"
    )
    return AdjointJetReport(seshadri_fires, frobenius_fires, separates, conclusion)


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

    It fires on one condition: the best point bound, the larger of the two
    lower bounds, is at least n+1. The rule is then the point rule of the
    characteristic (char 0 goes through the cited degeneration). In positive
    characteristic an everywhere bound >= n+1 also meets the all-points
    route, which is recorded as a second fired rule. Its degree condition
    (n+1)^n <= (-K)^n needs no check of its own: when (-K)^n is given, the
    contradiction check has already shown best^n <= (-K)^n with best >= n+1.
    Curve data can only block, never fire, and inconsistent data raise.
    """
    n, everywhere = inp.n, inp.eps_lower_everywhere
    target = n + 1
    claimed = [b for b in (inp.eps_lower_at_point, everywhere) if b is not None]
    best_point = max(claimed) if claimed else None
    checks: dict = {}
    warnings: list[str] = []

    if inp.curves_through_x:
        curve_upper = seshadri_upper_from_curves(inp.curves_through_x)
        checks["curve_upper_bound"] = curve_upper
        if best_point is not None and curve_upper < best_point:
            raise DataContradictionError(
                f"curve upper bound {curve_upper} is below the claimed lower bound {best_point}"
            )
        # below n+1 the bound blocks: no consistent point bound can reach n+1
        if curve_upper < target:
            warnings.append(
                f"curve upper bound {curve_upper} < {target}: the point hypothesis cannot hold here"
            )
    if everywhere is not None and inp.min_rc_degree is not None:
        if inp.min_rc_degree < everywhere:
            raise DataContradictionError(
                "minimal rational-curve degree is below the everywhere lower bound"
            )
    if inp.antican_selfint is not None and best_point is not None:
        if not degree_bound_check(n, best_point, inp.antican_selfint):
            raise DataContradictionError(
                "claimed lower bound exceeds the n-th root of the anti-canonical degree"
            )

    met = best_point is not None and best_point >= target
    fired = []
    if met:
        fired.append(RULE_POINT_CHAR_P if inp.char > 0 else RULE_POINT_CHAR_ZERO)
        if inp.char > 0 and everywhere is not None and everywhere >= target:
            checks["degree_condition_derivable"] = True
            fired.append(RULE_ALL_POINTS_DEGREE)
    if best_point is not None:
        checks["point_bound_met"] = met

    return CharPnVerdict(
        verdict="isomorphic_to_Pn" if fired else "no_conclusion",
        rule=fired[0] if fired else None,
        fired=tuple(fired),
        checks=checks,
        warnings=tuple(warnings),
    )
