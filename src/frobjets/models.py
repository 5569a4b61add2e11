"""Graded staircase models of the local monomials reachable by global sections.

A model assigns to every degree m the downward-closed set of exponents
attainable at the chosen point. All built-in models are cut out by linear
constraints <w, a> <= slope * m with non-negative integer data, which makes
membership testing O(1) per constraint and keeps huge degrees cheap: the
attainable set is never materialized except against a finite cobasis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .monomials import WORK_LIMIT, Exponent, _over_limit
from .serialize import parse_int, parse_text_int

Constraint = tuple[tuple[int, ...], int]


def _check_size(n: int, count: int) -> None:
    """Refuse, before any weight is built, a model of more than WORK_LIMIT weights."""
    if n * count > WORK_LIMIT:
        raise _over_limit(f"the model would hold {count} x {n} constraint weights")


@dataclass(frozen=True)
class SectionModel:
    """Attainable exponents at degree m: all a with <w, a> <= s*m per constraint.

    Weights and slopes are non-negative, so the zero exponent is attainable
    at every degree: every model is globally generated at the point.

    `rows`, derived once from `constraints`, holds (s, W, S, i) for each
    (w, s) with W = max(w) = w[i] > 0, S = sum(w) and i the first heaviest
    coordinate: all that the closed forms of jets and bounds read.
    """

    n: int
    constraints: tuple[Constraint, ...]
    label: str = ""
    kind: str = "custom"
    params: tuple = field(default=(), compare=False)
    rows: tuple[tuple[int, int, int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_size(parse_int(self.n, "model dimension n", 1), len(self.constraints))
        cleaned = []
        for constraint in self.constraints:
            try:
                weights, slope = constraint
                weights = tuple(weights)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"malformed constraint {constraint!r}: expected [weights, slope]"
                ) from exc
            weights = tuple(parse_int(w, "constraint weight", 0) for w in weights)
            slope = parse_int(slope, "constraint slope", 0)
            if len(weights) != self.n:
                raise ValueError(f"constraint weights {weights} have wrong length")
            cleaned.append((weights, slope))
        # with no constraints there are no weight columns, and x1 is the first unbounded
        bounded = [any(column) for column in zip(*[w for w, _ in cleaned])] or [False]
        if not all(bounded):
            raise ValueError(
                f"unbounded staircase: no constraint bounds variable x{bounded.index(False) + 1}"
            )
        object.__setattr__(self, "constraints", tuple(cleaned))
        rows = tuple((s, max(w), sum(w), w.index(max(w))) for w, s in cleaned if max(w) > 0)
        object.__setattr__(self, "rows", rows)

    def attains(self, a: Exponent, m: int) -> bool:
        """Whether the exponent a is attainable at degree m."""
        if len(a) != self.n:
            raise ValueError(f"exponent {a} has wrong length for n={self.n}")
        return all(
            sum(w * x for w, x in zip(weights, a)) <= slope * m
            for weights, slope in self.constraints
        )

    def to_config(self) -> dict:
        if self.kind == "pn":
            return {"kind": "pn", "n": self.params[0]}
        if self.kind == "product":
            n1, n2, c, d = self.params
            return {"kind": "product", "n1": n1, "n2": n2, "c": c, "d": d}
        return {
            "kind": "custom",
            "n": self.n,
            "constraints": [[list(w), s] for w, s in self.constraints],
        }


def projective_space(n: int) -> SectionModel:
    """Degree-m sections hit every monomial of total degree at most m."""
    _check_size(parse_int(n, "n", 1), 1)
    return SectionModel(
        n=n,
        constraints=(((1,) * n, 1),),
        label=f"P^{n}",
        kind="pn",
        params=(n,),
    )


def product_projective(n1: int, n2: int, c: int, d: int) -> SectionModel:
    """Bidegree-(c*m, d*m) box model on a product of two projective factors."""
    for name, value in zip(("n1", "n2", "c", "d"), (n1, n2, c, d)):
        parse_int(value, name, 1)
    _check_size(n1 + n2, 2)
    w1 = (1,) * n1 + (0,) * n2
    w2 = (0,) * n1 + (1,) * n2
    return SectionModel(
        n=n1 + n2,
        constraints=((w1, c), (w2, d)),
        label=f"P^{n1}xP^{n2}, bidegree ({c},{d})",
        kind="product",
        params=(n1, n2, c, d),
    )


def custom_staircase(n: int, constraints) -> SectionModel:
    """Model cut out by arbitrary non-negative linear constraints."""
    try:
        constraints = tuple(constraints)
    except TypeError:
        raise ValueError(f"constraints must be a sequence, got {constraints!r}") from None
    return SectionModel(n=n, constraints=constraints, label="custom staircase")


def scaled_model(model: SectionModel, r: int) -> SectionModel:
    """Replace degree m by r*m: every slope is multiplied by r."""
    if parse_int(r, "scale factor r", 1) == 1:
        return model
    return SectionModel(
        n=model.n,
        constraints=tuple((w, r * s) for w, s in model.constraints),
        label=f"{model.label} scaled by {r}" if model.label else f"scaled by {r}",
    )


def model_from_config(config: dict) -> SectionModel:
    """Rebuild a model from its JSON description; the constructors check its fields."""
    kind = config.get("kind")
    try:
        if kind == "pn":
            return projective_space(config["n"])
        if kind == "product":
            return product_projective(*(config[k] for k in ("n1", "n2", "c", "d")))
        if kind == "custom":
            return custom_staircase(config["n"], config["constraints"])
    except KeyError as exc:
        # only the config[...] lookups above raise KeyError
        raise ValueError(f"missing model key {exc}") from None
    raise ValueError(f"unknown model kind {kind!r}")


def model_from_spec(spec: str) -> SectionModel:
    """Parse a CLI model description.

    Accepts inline JSON ({"kind": ...}) or the shorthands "pn:N" and
    "product:N1,N2,C,D".
    """
    spec = spec.strip()
    if spec.startswith("{"):
        return model_from_config(json.loads(spec))
    kind, _, rest = spec.partition(":")
    if kind == "pn":
        return projective_space(parse_text_int(rest, "pn dimension"))
    if kind == "product":
        parts = [parse_text_int(x, "product parameter") for x in rest.split(",")]
        if len(parts) != 4:
            raise ValueError("product model needs four integers: n1,n2,c,d")
        return product_projective(*parts)
    raise ValueError(f"cannot parse model spec {spec!r}")
