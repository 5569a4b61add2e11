"""One test per acceptance criterion; each prints its pass/fail line.

Each criterion also gets a failure path: one fast path that `acceptance`
imports is patched to answer wrongly, and the criterion must then fail with
its exact line, without raising.
"""

from dataclasses import replace

import pytest

from frobjets import acceptance, cartier
from test_cartier import _WRONG_KERNELS


@pytest.mark.parametrize(
    "check", acceptance.CRITERIA, ids=lambda c: c.__name__.replace("criterion_", "")
)
def test_criterion(check):
    result = check()
    print(result.line())
    assert result.passed, result.line()


def test_criteria_order_and_names():
    # the test ids above and perfbench's acceptance.criterion_NN_s read these
    assert [check.__name__ for check in acceptance.CRITERIA] == [
        "criterion_1_pn_jet_threshold",
        "criterion_2_ordinary_seshadri_pn",
        "criterion_3_frobenius_closed_form",
        "criterion_4_limsup_not_limit",
        "criterion_5_inclusion_suite",
        "criterion_6_comparison_inequalities",
        "criterion_7_derived_certificates",
        "criterion_8_cartier_suite",
        "criterion_9_principal_parts",
        "criterion_10_split_bundle_endgame",
        "criterion_11_fano_chain_and_verdicts",
        "criterion_12_product_model",
    ]


def shifted(fast):
    return lambda *args: fast(*args) + 1


def negated(fast):
    return lambda *args: not fast(*args)


def changed(**fields):
    """Wrap a fast path so that the named fields of its dataclass result change.

    Each keyword maps the true result to the field's new value.
    """

    def wrap(fast):
        def call(*args):
            result = fast(*args)
            return replace(result, **{name: new(result) for name, new in fields.items()})

        return call

    return wrap


FAILURE_PATHS = [
    (1, "pn_threshold", shifted,
     "FAIL  criterion  1  projective-space jet threshold: "
     "2817/2880 cells agree; first mismatch (1, 2, 0, 1, 1)"),
    (2, "seshadri_lower", changed(witness=lambda cert: (2, 2)),
     "FAIL  criterion  2  ordinary Seshadri on projective space: failed at (1, 'certificate', "
     "BoundCertificate(kind='seshadri', value=Fraction(1, 1), witness=(2, 2), ell=None, "
     "p=None, derivation=('direct',)))"),
    (3, "closed_form_pn", shifted,
     "FAIL  criterion  3  Frobenius-Seshadri closed form: failed at (1, 0, 2, 'tolerance')"),
    (4, "subsequence_demo", changed(lower_seq=lambda demo: demo.lower_seq[:-1]),
     "FAIL  criterion  4  limsup/lim gap demonstration: lower-sequence value 42/127 vs limit 1/3"),
    (5, "verify_lemma_monomials", changed(sharpness=lambda report: False),
     "FAIL  criterion  5  power/bracket-power inclusion suite: 0/300 inclusion chains verified"),
    (6, "check_comparison", negated,
     "FAIL  criterion  6  comparison inequalities: failed at (1, 0, 'sandwich')"),
    (6, "exact_frobenius_seshadri", shifted,
     "FAIL  criterion  6  comparison inequalities: failed at (1, 0, 'left-equality')"),
    # a certificate's value follows its witness, so the witness is what goes wrong
    (7, "gg_twist_extend", changed(witness=lambda cert: (cert.witness[0], cert.witness[1] + 1)),
     "FAIL  criterion  7  derivation-rule soundness: "
     "7/162 derived certificates re-verified (need >= 100)"),
    (8, "residue_table_counterexample", lambda fast: lambda *args: (0,),
     "FAIL  criterion  8  trace-map verification suite: failed at ('surjectivity', 1, 2, 0)"),
    (9, "det_pp_closed", changed(l_exp=lambda pic: pic.l_exp + 1),
     "FAIL  criterion  9  principal-parts determinants: failed at (1, 0)"),
    (10, "mori_endgame", changed(gg=lambda report: not report.gg),
     "FAIL  criterion 10  split-bundle positivity endgame: failed at (1, -2, 4, -3)"),
    (11, "seshineq_check", negated,
     "FAIL  criterion 11  positivity chain and verdicts: failed at (1, 'chain')"),
    (12, "s_jets", shifted,
     "FAIL  criterion 12  product-model bounds: failed at (1, 2, 1, 's_jets-oracle')"),
]


@pytest.mark.parametrize(
    "number, fast_path, corrupt, line",
    FAILURE_PATHS,
    ids=[f"{number}-{name}" for number, name, _, _ in FAILURE_PATHS],
)
def test_criterion_fails_on_a_wrong_fast_path(number, fast_path, corrupt, line, monkeypatch):
    monkeypatch.setattr(acceptance, fast_path, corrupt(getattr(acceptance, fast_path)))
    result = acceptance.CRITERIA[number - 1]()
    assert result.passed is False
    assert result.line() == line


def test_criterion_8_traces_each_kernel_input_once(monkeypatch):
    # the kernel inputs of each check's calls, one list per call
    calls = {"residue table": [], "ideal identity": [], "iteration": []}
    check_call = []
    kernel = cartier._trace_exponent

    def recording(exponent, q):
        check_call[-1].append((exponent, q))
        return kernel(exponent, q)

    def tagged(name, check):
        def call(*args):
            calls[name].append([])
            check_call.append(calls[name][-1])
            try:
                return check(*args)
            finally:
                check_call.pop()

        return call

    monkeypatch.setattr(cartier, "_trace_exponent", recording)
    for name, check in [
        ("residue table", "residue_table_counterexample"),
        ("ideal identity", "ideal_identity_counterexample"),
        ("iteration", "iteration_counterexample"),
    ]:
        monkeypatch.setattr(acceptance, check, tagged(name, getattr(acceptance, check)))
    assert acceptance.criterion_8_cartier_suite().passed
    # the iteration law traces the images of its forms again, so only the designs are pinned
    designs = calls["residue table"] + calls["ideal identity"]
    assert all(len(inputs) == len(set(inputs)) for inputs in designs)
    assert {name: len(lists) for name, lists in calls.items()} == {
        "residue table": 15,
        "ideal identity": 100,
        "iteration": 6,
    }
    traced = {name: sum(map(len, lists)) for name, lists in calls.items()}
    assert traced == {"residue table": 12700, "ideal identity": 1697, "iteration": 220}


# criterion 8's failures under each wrong kernel: (surjectivity, ideal identity,
# iteration) of 15 residue tables, 100 ideal designs and 6 iteration designs
_CRITERION_8_FAILURES = {
    "lowered": (15, 90, 6),
    "lossy": (15, 65, 2),
    # at n = 1 the reversed kernel is the true one
    "reversed": (10, 59, 6),
    # at e = 0 every residue is the top one, so the phantom kernel is the true one
    "phantom": (12, 90, 6),
    "outward": (15, 62, 3),
}


@pytest.mark.parametrize("kernel", list(_CRITERION_8_FAILURES))
def test_criterion_8_fails_on_every_wrong_kernel(kernel, monkeypatch):
    monkeypatch.setattr(cartier, "_trace_exponent", _WRONG_KERNELS[kernel])
    assert acceptance.criterion_8_cartier_suite().passed is False
    failures = list(acceptance.criterion_8_cartier_suite.__wrapped__())
    kinds = ("surjectivity", "ideal-identity", "iteration")
    assert tuple(sum(f[0] == kind for f in failures) for kind in kinds) == _CRITERION_8_FAILURES[kernel]
