"""Exact local-positivity computations on monomial section models.

Jet separation, Seshadri and Frobenius-Seshadri lower-bound certificates,
trace-map verification, principal-parts determinant calculus, and threshold
predicates for characterizing projective space, all in exact rational
arithmetic.
"""

from .bounds import (
    BoundCertificate,
    RuleInapplicableError,
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
from .cartier import MonomialForm, trace
from .fano import (
    CharPnVerdict,
    DataContradictionError,
    FanoInput,
    adjoint_jet_report,
    charpn_verdict,
    degree_bound_check,
    seshadri_upper_from_curves,
    seshineq_check,
)
from .jets import (
    NEG_INF,
    frobenius_threshold,
    pn_threshold,
    s_frobenius,
    s_jets,
    separates_by_cobasis,
    separates_frobenius_jets,
    separates_jets,
)
from .models import (
    SectionModel,
    custom_staircase,
    model_from_config,
    model_from_spec,
    product_projective,
    projective_space,
    scaled_model,
)
from .monomials import (
    Exponent,
    MonomialIdeal,
    bracket_power,
    cobasis,
    contains,
    maximal_ideal,
    minimalize,
    power,
    verify_lemma_monomials,
)
from .principal_parts import (
    PicClass,
    det_pp_closed,
    det_pp_recursive,
    mori_endgame,
    rank_pp,
)

__version__ = "0.1.0"
