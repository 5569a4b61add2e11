"""The `sweep` workload: certificate searches on seeded staircase models.

Every request runs on the default (fast) checker, so no monomial ideal is
built inside a timed call: a `monomials` change should leave this workload
unchanged, while closed-form invariants or a single-pass sweep should speed
it up. Results are checked against closed forms computed here from the
model's constraints: a constraint (w, s) admits p^e-Frobenius ell-jets at
degree m iff ell*p^e*max(w) + (p^e - 1)*sum(w) <= s*m.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import ceil

from frobjets import bounds, jets, models
from meter import Op

NEG_INF = float("-inf")
PRIMES = (2, 3, 5)
# cobasis re-verification enumerates a (p^e * (ell + 1))^n box; sample only
# certificates whose box stays below this
COBASIS_BOX = 4096


# --- closed forms, independent of frobjets --------------------------------


def _load(weights, ell, q):
    return ell * q * max(weights) + (q - 1) * sum(weights)


def admits(constraints, m, ell, e, p):
    q = p**e
    return all(_load(w, ell, q) <= s * m for w, s in constraints)


def _min_degree(constraints, ell, e, p):
    q = p**e
    return max(1, max(-(-_load(w, ell, q) // s) for w, s in constraints))


def _s_jets(constraints, m):
    return min(s * m // max(w) for w, s in constraints)


def _s_frobenius(constraints, m, ell, p):
    if not admits(constraints, m, ell, 0, p):
        return NEG_INF
    e = 0
    while admits(constraints, m, ell, e + 1, p):
        e += 1
    return e


def best_seshadri(constraints, m_max):
    best = None
    for m in range(1, m_max + 1):
        value = Fraction(_s_jets(constraints, m), m)
        if best is None or value > best[0]:
            best = (value, m)
    return best


def best_frobenius(constraints, p, ell, m_max, e_max):
    # the smallest separating degree of each e gives that e's best value;
    # ties go to the smaller e, then the smaller m
    best = None
    for e in range(e_max + 1):
        m = _min_degree(constraints, ell, e, p)
        if m > m_max:
            continue
        key = (Fraction((p**e - 1) * (ell + 1), m), -e, -m)
        if best is None or key > best:
            best = key
    return None if best is None else (best[0], (-best[2], -best[1]))


# --- models ------------------------------------------------------------------


SHAPES = {
    "pn": (1, 2, 3, 4),
    "product": tuple((c, d) for c in (1, 2, 3) for d in (1, 2, 3)),
    "custom": tuple((n, rows) for n in (1, 2, 3) for rows in (1, 2, 3)),
}
# (largest weight, slope) shared by every row of a custom staircase. s(m) is
# then slope * m // largest weight, and a Seshadri search or a ladder costs in
# proportion to s(m), so the pair sets their cost up to 6x.
RATIOS = tuple((top, slope) for top in (1, 2, 3) for slope in (1, 2))


def random_model(rng, kind, shape=None, ratio=None):
    """(model, constraints) for a seeded P^n, product or custom staircase.

    shape and ratio fix what sets a search's cost: n on P^n, the slopes
    (c, d) of a product, the variable and constraint counts and the
    (largest weight, slope) pair of a custom staircase.
    """
    if shape is None:
        shape = rng.choice(SHAPES[kind])
    if kind == "pn":
        return models.projective_space(shape), (((1,) * shape, 1),)
    if kind == "product":
        n1, n2 = rng.randrange(1, 3), rng.randrange(1, 3)
        c, d = shape
        w1, w2 = (1,) * n1 + (0,) * n2, (0,) * n1 + (1,) * n2
        return models.product_projective(n1, n2, c, d), ((w1, c), (w2, d))
    n, count = shape
    top, slope = ratio or rng.choice(RATIOS)
    rows = []
    for _ in range(count):
        row = [rng.randrange(top + 1) for _ in range(n)]
        row[rng.randrange(n)] = top
        rows.append(row)
    for i in range(n):
        if not any(row[i] for row in rows):
            rng.choice(rows)[i] = rng.randrange(1, top + 1)
    constraints = tuple((tuple(row), slope) for row in rows)
    return models.custom_staircase(n, constraints), constraints


def _cobasis_reverify(cert, model, q, ell):
    # an oracle check outside the timed calls, on small boxes only
    if (q * (ell + 1)) ** model.n > COBASIS_BOX:
        return True
    return cert.reverify(model, method="cobasis")


# --- requests ---------------------------------------------------------------


def seshadri(rng, kind, shape, ratio, m_max):
    model, constraints = random_model(rng, kind, shape, ratio)

    def run(meter):
        cert = meter.call("bounds.seshadri_lower", bounds.seshadri_lower, model, m_max)
        meter.count("bounds.seshadri_degrees", m_max)
        reverified = meter.call("bounds.reverify", cert.reverify, model)
        value, m = best_seshadri(constraints, m_max)
        ok = (
            reverified
            and cert.value == value
            and cert.witness == (m, _s_jets(constraints, m))
            and _cobasis_reverify(cert, model, 1, cert.witness[1])
        )
        if kind == "pn":
            ok = ok and cert.value == 1 and cert.witness == (1, 1)
        return ok, cert.to_json()

    return Op("seshadri_lower", ("seshadri_lower", constraints, m_max), run)


def frobenius(rng, kind, shape, m_max, e_max, p):
    model, constraints = random_model(rng, kind, shape)
    ell = rng.randrange(4)

    def run(meter):
        cert = meter.call(
            "bounds.frobenius_seshadri_lower",
            bounds.frobenius_seshadri_lower,
            model, p, ell, m_max, e_max,
        )
        meter.count("bounds.sweep_cells", m_max * (e_max + 1))
        expected = best_frobenius(constraints, p, ell, m_max, e_max)
        if cert is None:
            return expected is None, None
        reverified = meter.call("bounds.reverify", cert.reverify, model)
        q = p ** cert.witness[1]
        ok = (
            reverified
            and (cert.value, cert.witness) == expected
            and _cobasis_reverify(cert, model, q, ell)
        )
        if kind == "pn":
            ok = ok and cert.value <= Fraction(ell + 1, ell + model.n)
        return ok, cert.to_json()

    return Op("frobenius_seshadri_lower", ("frobenius", constraints, p, ell, m_max, e_max), run)


def ladder(rng, kind, shape, ratio, p, ell):
    """s(m) and s_F^ell(m) up a ladder of 16 degrees m.

    s(m) is r * m rounded down, where r is the smallest slope over largest
    weight among the constraints. The degrees are spaced by 1/r so that r * m
    lands once in each 25 of [1, 400]; s(m) then climbs alike on every model
    and a ladder costs about the same on each. With plain degrees its cost
    swung 6x with r, and since ladders hold the median op of a pass, that
    median moved by up to 16% from seed to seed.
    """
    model, constraints = random_model(rng, kind, shape, ratio)
    r = min(Fraction(s, max(w)) for w, s in constraints)
    degrees = [ceil((25 * i + rng.randrange(1, 26)) / r) for i in range(16)]

    def run(meter):
        frob = [meter.call("jets.s_frobenius", jets.s_frobenius, model, m, ell, p) for m in degrees]
        ordinary = [meter.call("jets.s_jets", jets.s_jets, model, m) for m in degrees]
        ok = frob == [_s_frobenius(constraints, m, ell, p) for m in degrees] and ordinary == [
            _s_jets(constraints, m) for m in degrees
        ]
        return ok, [[str(x) for x in frob], ordinary]

    return Op("ladder", ("ladder", constraints, p, ell, tuple(degrees)), run)


def probe(rng, kind):
    """Single separation decisions at random grid cells."""
    model, constraints = random_model(rng, kind)
    cells = [
        (rng.randrange(1, 200), rng.randrange(4), rng.randrange(6), rng.choice(PRIMES))
        for _ in range(8)
    ]

    def run(meter):
        found = [
            meter.call("jets.separates", jets.separates_frobenius_jets, model, m, ell, e, p)
            for m, ell, e, p in cells
        ]
        found += [
            meter.call("jets.separates", jets.separates_jets, model, m, ell)
            for m, ell, _, _ in cells
        ]
        expected = [admits(constraints, m, ell, e, p) for m, ell, e, p in cells]
        expected += [admits(constraints, m, ell, 0, 2) for m, ell, _, _ in cells]
        return found == expected, found

    return Op("probe", ("probe", constraints, tuple(cells)), run)


def derive(rng, kind):
    """certificate_at -> tensor_power_scale -> gg_twist_extend at the minimal degree."""
    model, constraints = random_model(rng, kind)
    p = rng.choice(PRIMES)
    ell = rng.randrange(3)
    e = rng.randrange(1, 4)
    r = rng.randrange(1, 4)
    j = rng.randrange(3)
    m = _min_degree(constraints, ell, e, p)

    def chain():
        cert = bounds.certificate_at(model, p, ell, m, e)
        return bounds.gg_twist_extend(bounds.tensor_power_scale(cert, r, p), j, model)

    def run(meter):
        derived = meter.call("bounds.derive", chain)
        reverified = meter.call("bounds.reverify", derived.reverify, model)
        minimal = m == 1 or not meter.call(
            "jets.separates", jets.separates_frobenius_jets, model, m - 1, ell, e, p
        )
        d_r = (p ** (r * e) - 1) // (p**e - 1)
        ok = (
            reverified
            and minimal
            and derived.witness == (m * d_r + j, r * e)
            and derived.value == Fraction((p ** (r * e) - 1) * (ell + 1), m * d_r + j)
        )
        return ok, derived.to_json()

    return Op("derive", ("derive", constraints, p, ell, e, r, j), run)


KINDS = ("pn", "product", "custom")
ORDERS = tuple(permutations(KINDS))


def deck(rng, strata):
    """One pass of 18 ops: per model kind, each search, two ladders, a probe, a derivation.

    Which kind gets which third of the size range, the model shapes, the
    weight-slope pairs of custom staircases, the sizes within each third and
    the ladders' primes and jet orders cycle across passes, so every run of
    a few cycles does about the same amount of work.
    """
    ops = []
    for search, low, high in (("seshadri", 100, 401), ("frobenius", 500, 3001)):
        step = (high - low) // 3
        kinds = strata.pick(f"{search}.kinds", ORDERS)
        for i, kind in enumerate(kinds):
            shape = strata.pick(f"{search}.{kind}.shape", SHAPES[kind])
            sub = step // 10
            start = low + i * step
            size = strata.pick(f"{search}.{i}.size", range(start, start + 10 * sub, sub))
            size += rng.randrange(sub)
            if search == "seshadri":
                ratio = strata.pick(f"seshadri.{kind}.ratio", RATIOS)
                ops.append(seshadri(rng, kind, shape, ratio, size))
            else:
                e_max = strata.pick(f"frobenius.{kind}.e_max", range(4, 13))
                p = strata.pick(f"frobenius.{kind}.p", PRIMES)
                ops.append(frobenius(rng, kind, shape, size, e_max, p))
    for kind in KINDS:
        # Ladders hold the median op of a pass, and their cost still spans
        # 3x with the model's constraint count: two per kind give the median
        # twice the samples, and every parameter they depend on cycles.
        for i in range(2):
            shape = strata.pick(f"ladder.{kind}.{i}.shape", SHAPES[kind])
            ratio = strata.pick(f"ladder.{kind}.{i}.ratio", RATIOS)
            p = strata.pick(f"ladder.{kind}.{i}.p", PRIMES)
            ell = strata.pick(f"ladder.{kind}.{i}.ell", range(4))
            ops.append(ladder(rng, kind, shape, ratio, p, ell))
        ops.append(probe(rng, kind))
        ops.append(derive(rng, kind))
    rng.shuffle(ops)
    return ops
