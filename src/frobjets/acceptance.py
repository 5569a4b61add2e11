"""The acceptance suite: every exit criterion as a callable check.

Each criterion returns a result with a pass flag and a short detail string;
`run_all` executes the full battery. All checks are exact; independent
oracles (the cobasis corners asked of the model, symmetric-power expansion,
direct lattice counts) are recomputed here rather than trusted from the
fast paths they validate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    certificate_at,
    check_comparison,
    check_level_comparison,
    closed_form_pn,
    frobenius_seshadri_lower,
    gg_twist_extend,
    seshadri_lower,
    subsequence_demo,
    tensor_power_scale,
)
from .cartier import (
    ideal_identity_counterexample,
    iteration_counterexample,
    random_forms,
    random_primary_ideal,
    surjectivity_counterexample,
)
from .fano import (
    DataContradictionError,
    FanoInput,
    charpn_verdict,
    degree_bound_check,
    seshineq_check,
)
from .jets import pn_threshold, s_jets, separates_frobenius_jets, separates_jets
from .models import product_projective, projective_space, scaled_model
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


def criterion_1_pn_jet_threshold() -> CriterionResult:
    """The cobasis oracle's Frobenius-jet separation matches the closed-form threshold."""
    cells = 0
    mismatches = []
    for n in (1, 2, 3):
        model = projective_space(n)
        for p in (2, 3):
            for ell in range(4):
                for e in range(3):
                    threshold = pn_threshold(n, ell, e, p)
                    for m in range(1, 41):
                        cells += 1
                        brute = separates_frobenius_jets(
                            model, m, ell, e, p, method="cobasis"
                        )
                        if brute != (m >= threshold):
                            mismatches.append((n, p, ell, e, m))
    passed = not mismatches
    detail = f"{cells - len(mismatches)}/{cells} cells agree"
    if mismatches:
        detail += f"; first mismatch {mismatches[0]}"
    return CriterionResult(1, "projective-space jet threshold", passed, detail)


def criterion_2_ordinary_seshadri_pn() -> CriterionResult:
    failures = []
    for n in range(1, 6):
        model = projective_space(n)
        cert = seshadri_lower(model, 20)
        if cert.value != 1 or cert.witness != (1, 1):
            failures.append((n, "certificate", cert))
        for m in range(1, 21):
            if s_jets(model, m) != m:
                failures.append((n, "s_jets", m))
    detail = "value 1 with witness (1,1) and s(m)=m for n<=5, m<=20"
    if failures:
        detail = f"failed at {failures[0]}"
    return CriterionResult(2, "ordinary Seshadri on projective space", not failures, detail)


def criterion_3_frobenius_closed_form() -> CriterionResult:
    """Certificates along the threshold degrees approach (ell+1)/(ell+n).

    For ell >= 1 the sequence is strictly increasing and strictly below the
    closed form; for ell = 0 the certificate equals the closed form exactly
    at every e, so the strictness clauses are replaced by exact equality.
    """
    failures = []
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
                    failures.append((n, ell, p, "tolerance"))
                if ell == 0:
                    if any(v != limit for v in values):
                        failures.append((n, ell, p, "exact-equality"))
                else:
                    if not all(a < b for a, b in zip(values, values[1:])):
                        failures.append((n, ell, p, "monotone"))
                    if not all(v < limit for v in values):
                        failures.append((n, ell, p, "below-limit"))
    detail = "grid n<=4, ell<=4, p in {2,3}, e<=6 within 2/p^6 of (ell+1)/(ell+n)"
    if failures:
        detail = f"failed at {failures[0]}"
    return CriterionResult(3, "Frobenius-Seshadri closed form", not failures, detail)


def criterion_4_limsup_not_limit() -> CriterionResult:
    demo = subsequence_demo(2, 1, 2, 8)
    value = demo.lower_seq[-1]
    expected = Fraction(254, 765)
    target = Fraction(1, 3)
    passed = value == expected and abs(value - target) < Fraction(1, 100)
    detail = f"lower-sequence value {value} vs limit 1/3"
    return CriterionResult(4, "limsup/lim gap demonstration", passed, detail)


def criterion_5_inclusion_suite() -> CriterionResult:
    cases = 0
    failures = []
    for n in range(1, 6):
        for ell in range(5):
            for e in range(4):
                for p in (2, 3, 5):
                    cases += 1
                    report = verify_lemma_monomials(n, ell, e, p)
                    if not report.all_ok:
                        failures.append((n, ell, e, p, report))
    detail = f"{cases - len(failures)}/{cases} inclusion chains verified"
    return CriterionResult(5, "power/bracket-power inclusion suite", not failures, detail)


def criterion_6_comparison_inequalities() -> CriterionResult:
    failures = []
    for n in range(1, 7):
        for ell in range(7):
            eps = Fraction(1)
            frob = closed_form_pn(n, ell)
            if Fraction(ell + 1, ell + n) * eps != frob:
                failures.append((n, ell, "left-equality"))
            if not check_comparison(n, ell, eps, frob):
                failures.append((n, ell, "sandwich"))
    for n in range(1, 5):
        for low in range(5):
            for high in range(low + 1, 5):
                if not check_level_comparison(
                    n, high, low, closed_form_pn(n, high), closed_form_pn(n, low)
                ):
                    failures.append((n, high, low, "level-comparison"))
    detail = "closed-form sandwich and level comparisons hold exactly"
    if failures:
        detail = f"failed at {failures[0]}"
    return CriterionResult(6, "comparison inequalities", not failures, detail)


def criterion_7_derived_certificates() -> CriterionResult:
    models = [
        projective_space(1),
        projective_space(2),
        product_projective(1, 1, 1, 2),
    ]
    count = 0
    failures = []
    for model, p, ell in itertools.product(models, (2, 3), (0, 1, 2)):
        # the threshold of P^n, n = model.n, separates on all three models
        base_m = pn_threshold(model.n, ell, 1, p)
        base = certificate_at(model, p, ell, base_m, 1)
        for r in (1, 2, 3):
            for j in (0, 1, 2):
                derived = gg_twist_extend(tensor_power_scale(base, r, p), j, model)
                count += 1
                if not derived.reverify(model, method="cobasis"):
                    failures.append((model.label, p, ell, r, j))
    passed = not failures and count >= 100
    detail = f"{count - len(failures)}/{count} derived certificates re-verified (need >= 100)"
    return CriterionResult(7, "derivation-rule soundness", passed, detail)


def criterion_8_cartier_suite() -> CriterionResult:
    failures = []
    for n in (1, 2, 3):
        for p in (2, 3):
            for e in (0, 1, 2):
                if surjectivity_counterexample(n, p, e, 30) is not None:
                    failures.append(("surjectivity", n, p, e))
    rng = random.Random(2024)
    ideals = 0
    while ideals < 100:
        n = rng.randrange(1, 4)
        p = rng.choice([2, 3])
        e = rng.randrange(1, 3)
        q = p**e
        box = max(2, min(10, int(round(40000 ** (1 / n))) // q - 1))
        ideal = random_primary_ideal(n, rng)
        ideals += 1
        if ideal_identity_counterexample(ideal, p, e, box) is not None:
            failures.append(("ideal-identity", ideal, p, e, box))
    for p in (2, 3):
        forms = random_forms(2, p, 200, seed=5)
        for e1, e2 in ((1, 1), (1, 2), (2, 1)):
            if iteration_counterexample(p, e1, e2, forms) is not None:
                failures.append(("iteration", p, e1, e2))
    detail = "surjectivity on 30-boxes, 100 ideal identities, iteration on 200 forms"
    if failures:
        detail = f"failed at {failures[0]}"
    return CriterionResult(8, "trace-map verification suite", not failures, detail)


def criterion_9_principal_parts() -> CriterionResult:
    failures = []
    cases = 0
    for n in range(1, 8):
        for ell in range(11):
            cases += 1
            try:
                if det_pp_recursive(n, ell) != det_pp_closed(n, ell):
                    failures.append((n, ell))
            except ArithmeticError:
                failures.append((n, ell, "integrality"))
    reference = det_pp_recursive(2, 2)
    if (reference.omega_exp, reference.l_exp) != (4, 6):
        failures.append(("reference", reference))
    detail = f"{cases} determinant classes agree, (2,2) gives omega^4 L^6"
    if failures:
        detail = f"failed at {failures[0]}"
    return CriterionResult(9, "principal-parts determinants", not failures, detail)


def criterion_10_split_bundle_endgame() -> CriterionResult:
    rng = random.Random(99)
    failures = []
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
            failures.append(a)
    for n in range(2, 6):
        report = mori_endgame((2,) + (1,) * (n - 1))
        if not report.gg or min(report.quotient_degrees) != 0:
            failures.append(("reference", n))
    detail = "min-inequality matches full expansion on 200 random inputs"
    if failures:
        detail = f"failed at {failures[0]}"
    return CriterionResult(10, "split-bundle positivity endgame", not failures, detail)


def criterion_11_fano_chain_and_verdicts() -> CriterionResult:
    failures = []
    for n in range(1, 5):
        eps = Fraction(n + 1)
        model = scaled_model(projective_space(n), n + 1)
        s_values = {m: s_jets(model, m) for m in range(1, 11)}
        if not seshineq_check(n, eps, s_values):
            failures.append((n, "chain"))
        if any((m + 1) * eps - (n + 1) != s for m, s in s_values.items()):
            failures.append((n, "chain-equality"))
    verdict = charpn_verdict(FanoInput(n=3, char=2, eps_lower_at_point=Fraction(4)))
    if verdict.verdict != "isomorphic_to_Pn":
        failures.append("point-rule")
    quadric = charpn_verdict(FanoInput(n=3, char=5, curves_through_x=((3, 1),)))
    if quadric.verdict != "no_conclusion":
        failures.append("quadric-refusal")
    try:
        charpn_verdict(
            FanoInput(
                n=3, char=5, eps_lower_at_point=Fraction(4), curves_through_x=((3, 1),)
            )
        )
        failures.append("missing-contradiction")
    except DataContradictionError:
        pass
    for n in range(1, 7):
        if not degree_bound_check(n, Fraction(n + 1), (n + 1) ** n):
            failures.append((n, "degree-equality"))
    detail = "chain equalities, verdict firing/refusal, degree-bound equalities"
    if failures:
        detail = f"failed at {failures[0]}"
    return CriterionResult(11, "positivity chain and verdicts", not failures, detail)


def criterion_12_product_model() -> CriterionResult:
    failures = []
    for c in range(1, 4):
        for d in range(1, 4):
            model = product_projective(1, 1, c, d)
            cert = seshadri_lower(model, 15)
            if cert.value != min(c, d):
                failures.append((c, d, "ordinary", cert))
            for ell in range(3):
                for p in (2, 3):
                    frob = frobenius_seshadri_lower(model, p, ell, 12, 4)
                    if frob is not None and frob.value > min(c, d):
                        failures.append((c, d, ell, p, "conservativity", frob.value))
                    if frob is not None and not frob.reverify(model, method="cobasis"):
                        failures.append((c, d, ell, p, "reverify"))
    # cobasis oracle spot checks of the degree sweep behind the values
    for c, d in ((1, 2), (3, 3)):
        model = product_projective(1, 1, c, d)
        for m in range(1, 9):
            s = s_jets(model, m)
            separates = separates_jets(model, m, s, method="cobasis")
            if not separates or separates_jets(model, m, s + 1, method="cobasis"):
                failures.append((c, d, m, "s_jets-oracle"))
    detail = "ordinary value min(c,d); Frobenius certificates never exceed it"
    if failures:
        detail = f"failed at {failures[0]}"
    return CriterionResult(12, "product-model bounds", not failures, detail)


CRITERIA = (
    criterion_1_pn_jet_threshold,
    criterion_2_ordinary_seshadri_pn,
    criterion_3_frobenius_closed_form,
    criterion_4_limsup_not_limit,
    criterion_5_inclusion_suite,
    criterion_6_comparison_inequalities,
    criterion_7_derived_certificates,
    criterion_8_cartier_suite,
    criterion_9_principal_parts,
    criterion_10_split_bundle_endgame,
    criterion_11_fano_chain_and_verdicts,
    criterion_12_product_model,
)


def run_all(echo=None) -> list[CriterionResult]:
    """Run every criterion; optionally echo one line per result as it lands."""
    results = []
    for check in CRITERIA:
        result = check()
        results.append(result)
        if echo is not None:
            echo(result.line())
    return results
