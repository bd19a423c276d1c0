"""pcalc: a calculus engine for deformation derivatives.

The derivative of f at t is taken along a family p(t, h) deforming the
identity: the limit of (f(p(t, h)) - f(t)) / h.  Where the h-derivative
ph_zero(t) of the family is nonzero this equals ph_zero(t) * f'(t), and
the package keeps both routes so they can be played against each other.
On top sit the weighted antiderivative, mean-value searches, a certified
quadratic IVP solver, and exact divergence ladders for the classical
nowhere-differentiable cosine series.

`import pcalc` loads no submodule: each module is imported when one of
its names (or the module itself, e.g. `pcalc.quadrature`) is first used,
and the name is then kept in this namespace (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule and its public names, in __all__ order
_EXPORTS = {
    "expr": "Expr Num Var Neg BinOp Call "
            "parse evaluate differentiate substitute variables to_source",
    "families": "Interval PFunction make_family FAMILY_KINDS EpsilonRecord SolvabilityReport "
                "check_offset_solvability L1Report check_l1 DEFAULT_EPSILONS",
    "derivatives": "DerivEstimate ComparisonReport "
                   "p_derivative_limit p_derivative_formula compare_definitions",
    "integrals": "QuadratureResult p_integral ftc_forward ftc_backward integration_by_parts_check",
    "theorems": "MvtResult MonotonicityReport MaxPrincipleReport find_mvt_point "
                "find_cauchy_mvt_point find_rolle_point check_monotonicity_conditions "
                "max_principle_check polygonal polygonal_derivative_scan",
    "riccati": "RiccatiProblem ContractionCertificate RiccatiSolution "
               "contraction_precheck solve_riccati riccati_residual",
    "weierstrass": "WeierstrassParams HmStep check_growth_condition term_count "
                   "weierstrass_eval build_hm_sequence divergence_report",
    "corpus": "CorpusEntry corpus_list corpus_entry smooth_entries",
    "errors": "PcalcError UsageError ParseError ParameterError EvaluationError DomainError "
              "DifferentiationError QuadratureError NonIntegrableError RootSearchError "
              "InfeasibleCertificateError DivergenceError BoundViolationError",
    "quadrature": "",
    "cli": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
