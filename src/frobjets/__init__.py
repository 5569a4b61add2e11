"""Exact local-positivity computations on monomial section models.

Jet separation, Seshadri and Frobenius-Seshadri lower-bound certificates,
trace-map verification, principal-parts determinant calculus, and threshold
predicates for characterizing projective space, all in exact rational
arithmetic.

`import frobjets` loads no submodule: each name of `__all__`, and each
submodule as an attribute, is imported on first use (PEP 562).
"""

from importlib import import_module as _import_module

# each exported name, by the submodule that defines it
_EXPORTS = {
    "bounds": """BoundCertificate RuleInapplicableError certificate_at check_comparison
        check_level_comparison closed_form_pn exact_frobenius_seshadri exact_seshadri
        frobenius_seshadri_lower gg_twist_extend seshadri_lower subsequence_demo
        tensor_power_scale""",
    "cartier": "MonomialForm trace",
    "fano": """CharPnVerdict DataContradictionError FanoInput adjoint_jet_report charpn_verdict
        degree_bound_check seshadri_upper_from_curves seshineq_check""",
    "jets": """NEG_INF frobenius_threshold pn_threshold s_frobenius s_jets separates_by_cobasis
        separates_frobenius_jets separates_jets""",
    "models": """SectionModel custom_staircase model_from_config model_from_spec
        product_projective projective_space scaled_model""",
    "monomials": """Exponent MonomialIdeal bracket_power cobasis contains maximal_ideal
        minimalize power verify_lemma_monomials""",
    "principal_parts": "PicClass det_pp_closed det_pp_recursive mori_endgame rank_pp",
}
_SUBMODULES = frozenset(_EXPORTS) | {"acceptance", "cli", "serialize"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        # the import binds the submodule here, so this runs once per submodule
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
