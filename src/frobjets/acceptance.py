"""The acceptance suite: every exit criterion as one entry of a table.

`@criterion(number, name, detail)` registers a body in `CRITERIA`, in
number order. A body only finds failures: it yields each one it meets and
may return its count of cases (or, for a value check, the value), which a
callable pass detail formats. One runner, `criterion`'s `check`, turns every
body into a `CriterionResult` and formats every failure detail; `run_all`
executes the full battery. All checks are exact. Each independent oracle
(the cobasis separation checker, the symmetric-power expansion, the
re-verification of a certificate's witness) stays inline in its criterion,
which never calls the fast path it validates to check that fast path.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    certificate_at,
    check_comparison,
    check_level_comparison,
    closed_form_pn,
    exact_frobenius_seshadri,
    exact_seshadri,
    frobenius_seshadri_lower,
    gg_twist_extend,
    seshadri_lower,
    subsequence_demo,
    tensor_power_scale,
)
from .cartier import (
    ideal_identity_counterexample,
    iteration_counterexample,
    random_primary_ideal,
    residue_class_forms,
    residue_table_counterexample,
)
from .fano import (
    DataContradictionError,
    FanoInput,
    charpn_verdict,
    degree_bound_check,
    seshineq_check,
)
from .jets import pn_threshold, s_jets, separates_by_cobasis
from .models import custom_staircase, product_projective, projective_space, scaled_model
from .monomials import verify_lemma_monomials
from .principal_parts import det_pp_closed, det_pp_recursive, mori_endgame


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number:2d}  {self.name}: {self.detail}"


CRITERIA = []


def criterion(number, name, detail, failed="failed at {first}", need=0):
    """Register a failure-finding body as criterion `number` of `CRITERIA`.

    `detail` is the pass detail, or a function of the body's return value
    and the number of cases that did not fail. On a failure, `failed`
    formats the detail from the pass `detail` and the `first` failure. With
    `need`, fewer than `need` cases fail the criterion too.
    """

    def register(find_failures):
        @functools.wraps(find_failures)
        def check() -> CriterionResult:
            failures, body = [], find_failures()
            try:
                while True:
                    failures.append(next(body))
            except StopIteration as stop:
                count = stop.value
            text = detail(count, count - len(failures)) if callable(detail) else detail
            if failures:
                text = failed.format(detail=text, first=failures[0])
            passed = not failures and not (need and count < need)
            return CriterionResult(number, name, passed, text)

        CRITERIA.append(check)
        return check

    return register


@criterion(1, "projective-space jet threshold", lambda cells, ok: f"{ok}/{cells} cells agree",
           failed="{detail}; first mismatch {first}")
def criterion_1_pn_jet_threshold():
    """The cobasis oracle's Frobenius-jet separation matches the closed-form threshold."""
    cells = 0
    for n in (1, 2, 3):
        model = projective_space(n)
        for p in (2, 3):
            for ell in range(4):
                for e in range(3):
                    threshold = pn_threshold(n, ell, e, p)
                    for m in range(1, 41):
                        cells += 1
                        brute = separates_by_cobasis(model, m, ell, e, p)
                        if brute != (m >= threshold):
                            yield (n, p, ell, e, m)
    return cells


@criterion(2, "ordinary Seshadri on projective space",
           "value 1 with witness (1,1) and s(m)=m for n<=5, m<=20")
def criterion_2_ordinary_seshadri_pn():
    for n in range(1, 6):
        model = projective_space(n)
        cert = seshadri_lower(model, 20)
        if cert.value != 1 or cert.witness != (1, 1):
            yield (n, "certificate", cert)
        for m in range(1, 21):
            if s_jets(model, m) != m:
                yield (n, "s_jets", m)


@criterion(3, "Frobenius-Seshadri closed form",
           "grid n<=4, ell<=4, p in {2,3}, e<=6 within 2/p^6 of (ell+1)/(ell+n)")
def criterion_3_frobenius_closed_form():
    """Certificates along the threshold degrees approach (ell+1)/(ell+n).

    For ell >= 1 the sequence is strictly increasing and strictly below the
    closed form; for ell = 0 the certificate equals the closed form exactly
    at every e, so the strictness clauses are replaced by exact equality.
    """
    for n in range(1, 5):
        model = projective_space(n)
        for ell in range(5):
            limit = closed_form_pn(n, ell)
            for p in (2, 3):
                values = []
                for e in range(1, 7):
                    m = pn_threshold(n, ell, e, p)
                    values.append(certificate_at(model, p, ell, m, e).value)
                if abs(limit - values[-1]) > Fraction(2, p**6):
                    yield (n, ell, p, "tolerance")
                if ell == 0:
                    if any(v != limit for v in values):
                        yield (n, ell, p, "exact-equality")
                else:
                    if not all(a < b for a, b in zip(values, values[1:])):
                        yield (n, ell, p, "monotone")
                    if not all(v < limit for v in values):
                        yield (n, ell, p, "below-limit")


@criterion(4, "limsup/lim gap demonstration",
           lambda value, _: f"lower-sequence value {value} vs limit 1/3", failed="{detail}")
def criterion_4_limsup_not_limit():
    value = subsequence_demo(2, 1, 2, 8).lower_seq[-1]
    if value != Fraction(254, 765) or abs(value - Fraction(1, 3)) >= Fraction(1, 100):
        yield value
    return value


@criterion(5, "power/bracket-power inclusion suite",
           lambda cases, ok: f"{ok}/{cases} inclusion chains verified", failed="{detail}")
def criterion_5_inclusion_suite():
    cases = 0
    for n in range(1, 6):
        for ell in range(5):
            for e in range(4):
                for p in (2, 3, 5):
                    cases += 1
                    report = verify_lemma_monomials(n, ell, e, p)
                    if not report.all_ok:
                        yield (n, ell, e, p, report)
    return cases


@criterion(6, "comparison inequalities", "closed-form sandwich and level comparisons hold exactly")
def criterion_6_comparison_inequalities():
    models = [projective_space(n) for n in range(1, 7)]
    models += [product_projective(*dims, 2) for dims in itertools.product((1, 2), (1, 2), (1, 3))]
    rng = random.Random(6)
    for n in [rng.randrange(1, 4) for _ in range(30)]:
        # the first row bounds every variable; the others may have zero weights and slopes
        rows = [([rng.randrange(k, 4) for _ in range(n)], rng.randrange(k, 5)) for k in (1, 0, 0)]
        models.append(custom_staircase(n, rows))
    for model in models:
        n, eps = model.n, exact_seshadri(model).value
        frob = [exact_frobenius_seshadri(model, ell) for ell in range(7)]
        for ell in range(7):
            if model.kind == "pn" and Fraction(ell + 1, ell + n) * eps != frob[ell]:
                yield (n, ell, "left-equality")
            if not check_comparison(n, ell, eps, frob[ell]):
                yield (n, ell, "sandwich")
        for low, high in itertools.combinations(range(5), 2):
            if not check_level_comparison(n, high, low, frob[high], frob[low]):
                yield (n, high, low, "level-comparison")


@criterion(7, "derivation-rule soundness",
           lambda count, ok: f"{ok}/{count} derived certificates re-verified (need >= 100)",
           failed="{detail}", need=100)
def criterion_7_derived_certificates():
    models = [
        projective_space(1),
        projective_space(2),
        product_projective(1, 1, 1, 2),
    ]
    count = 0
    for model, p, ell in itertools.product(models, (2, 3), (0, 1, 2)):
        # the threshold of P^n, n = model.n, separates on all three models
        base_m = pn_threshold(model.n, ell, 1, p)
        base = certificate_at(model, p, ell, base_m, 1)
        for r in (1, 2, 3):
            for j in (0, 1, 2):
                derived = gg_twist_extend(tensor_power_scale(base, r, p), j, model)
                count += 1
                if not derived.reverify(model, method="cobasis"):
                    yield (model.label, p, ell, r, j)
    return count


@criterion(8, "trace-map verification suite",
           "surjectivity and 100 ideal identities on the residue-complete design, "
           "iteration on the residue-class design")
def criterion_8_cartier_suite():
    for n in (1, 2, 3):
        # at e = 0 the trace is the identity whatever p is, so p = 2 stands for p = 3
        for p, e in ((2, 0), (2, 1), (2, 2), (3, 1), (3, 2)):
            if residue_table_counterexample(n, p, e) is not None:
                yield ("surjectivity", n, p, e)
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randrange(1, 4)
        p = rng.choice([2, 3])
        e = rng.randrange(1, 3)
        ideal = random_primary_ideal(n, rng)
        if ideal_identity_counterexample(ideal, p, e) is not None:
            yield ("ideal-identity", ideal, p, e)
    for p in (2, 3):
        for e1, e2 in ((1, 1), (1, 2), (2, 1)):
            forms = residue_class_forms(2, p ** (e1 + e2))
            if iteration_counterexample(p, e1, e2, forms) is not None:
                yield ("iteration", p, e1, e2)


@criterion(9, "principal-parts determinants",
           lambda cases, _: f"{cases} determinant classes agree, (2,2) gives omega^4 L^6")
def criterion_9_principal_parts():
    cases = 0
    for n in range(1, 8):
        for ell in range(11):
            cases += 1
            try:
                if det_pp_recursive(n, ell) != det_pp_closed(n, ell):
                    yield (n, ell)
            except ArithmeticError:
                yield (n, ell, "integrality")
    reference = det_pp_recursive(2, 2)
    if (reference.omega_exp, reference.l_exp) != (4, 6):
        yield ("reference", reference)
    return cases


@criterion(10, "split-bundle positivity endgame",
           "min-inequality matches full expansion on 200 random inputs")
def criterion_10_split_bundle_endgame():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(1, 5)
        a = tuple(rng.randrange(-5, 6) for _ in range(n))
        report = mori_endgame(a)
        # independent oracle: raw expansion of the symmetric power
        b = sum(a)
        sums = [
            sum(choice)
            for choice in itertools.combinations_with_replacement(a, n + 1)
        ]
        oracle_gg = all(s - b >= 0 for s in sums)
        if report.gg != oracle_gg:
            yield a
    for n in range(2, 6):
        report = mori_endgame((2,) + (1,) * (n - 1))
        if not report.gg or min(report.quotient_degrees) != 0:
            yield ("reference", n)


@criterion(11, "positivity chain and verdicts",
           "chain equalities, verdict firing/refusal, degree-bound equalities")
def criterion_11_fano_chain_and_verdicts():
    for n in range(1, 5):
        eps = Fraction(n + 1)
        model = scaled_model(projective_space(n), n + 1)
        s_values = {m: s_jets(model, m) for m in range(1, 11)}
        if not seshineq_check(n, eps, s_values):
            yield (n, "chain")
        if any((m + 1) * eps - (n + 1) != s for m, s in s_values.items()):
            yield (n, "chain-equality")
    verdict = charpn_verdict(FanoInput(n=3, char=2, eps_lower_at_point=Fraction(4)))
    if verdict.verdict != "isomorphic_to_Pn":
        yield "point-rule"
    quadric = charpn_verdict(FanoInput(n=3, char=5, curves_through_x=((3, 1),)))
    if quadric.verdict != "no_conclusion":
        yield "quadric-refusal"
    try:
        charpn_verdict(
            FanoInput(
                n=3, char=5, eps_lower_at_point=Fraction(4), curves_through_x=((3, 1),)
            )
        )
        yield "missing-contradiction"
    except DataContradictionError:
        pass
    for n in range(1, 7):
        if not degree_bound_check(n, Fraction(n + 1), (n + 1) ** n):
            yield (n, "degree-equality")


@criterion(12, "product-model bounds",
           "ordinary value min(c,d); Frobenius certificates never exceed it")
def criterion_12_product_model():
    for c in range(1, 4):
        for d in range(1, 4):
            model = product_projective(1, 1, c, d)
            cert = seshadri_lower(model, 15)
            if cert.value != min(c, d):
                yield (c, d, "ordinary", cert)
            for ell in range(3):
                for p in (2, 3):
                    frob = frobenius_seshadri_lower(model, p, ell, 12, 4)
                    if frob is not None and frob.value > min(c, d):
                        yield (c, d, ell, p, "conservativity", frob.value)
                    if frob is not None and not frob.reverify(model, method="cobasis"):
                        yield (c, d, ell, p, "reverify")
    # cobasis oracle spot checks of the degree sweep behind the values
    for c, d in ((1, 2), (3, 3)):
        model = product_projective(1, 1, c, d)
        for m in range(1, 9):
            s = s_jets(model, m)
            separates = separates_by_cobasis(model, m, s, 0, 2)
            if not separates or separates_by_cobasis(model, m, s + 1, 0, 2):
                yield (c, d, m, "s_jets-oracle")


def run_all(echo=None) -> list[CriterionResult]:
    """Run every criterion; optionally echo one line per result as it lands."""
    results = []
    for check in CRITERIA:
        result = check()
        results.append(result)
        if echo is not None:
            echo(result.line())
    return results
