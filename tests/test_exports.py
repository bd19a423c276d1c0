"""The package namespace: pcalc.__all__, its lazy names and its submodules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcalc

# every public name with the module it comes from, in __all__ order
# (after "__version__"), as pcalc has exported them since its first release
HOMES = {
    "expr": ("Expr", "Num", "Var", "Neg", "BinOp", "Call",
             "parse", "evaluate", "differentiate", "substitute", "variables", "to_source"),
    "families": ("Interval", "PFunction", "make_family", "FAMILY_KINDS",
                 "EpsilonRecord", "SolvabilityReport", "check_offset_solvability",
                 "L1Report", "check_l1", "DEFAULT_EPSILONS"),
    "derivatives": ("DerivEstimate", "ComparisonReport",
                    "p_derivative_limit", "p_derivative_formula", "compare_definitions"),
    "integrals": ("QuadratureResult", "p_integral",
                  "ftc_forward", "ftc_backward", "integration_by_parts_check"),
    "theorems": ("MvtResult", "MonotonicityReport", "MaxPrincipleReport",
                 "find_mvt_point", "find_cauchy_mvt_point", "find_rolle_point",
                 "check_monotonicity_conditions", "max_principle_check",
                 "polygonal", "polygonal_derivative_scan"),
    "riccati": ("RiccatiProblem", "ContractionCertificate", "RiccatiSolution",
                "contraction_precheck", "solve_riccati", "riccati_residual"),
    "weierstrass": ("WeierstrassParams", "HmStep", "check_growth_condition", "term_count",
                    "weierstrass_eval", "build_hm_sequence", "divergence_report"),
    "corpus": ("CorpusEntry", "corpus_list", "corpus_entry", "smooth_entries"),
    "errors": ("PcalcError", "UsageError", "ParseError", "ParameterError",
               "EvaluationError", "DomainError", "DifferentiationError",
               "QuadratureError", "NonIntegrableError", "RootSearchError",
               "InfeasibleCertificateError", "DivergenceError", "BoundViolationError"),
}
EXPECTED_ALL = ["__version__", *(name for names in HOMES.values() for name in names)]
SUBMODULES = (*HOMES, "quadrature", "cli")
SRC = str(Path(pcalc.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports pcalc from SRC."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout


def test_all_is_unchanged():
    assert len(EXPECTED_ALL) == 73
    assert pcalc.__all__ == EXPECTED_ALL


@pytest.mark.parametrize("module, names", HOMES.items())
def test_each_name_is_its_home_object(module, names):
    home = importlib.import_module(f"pcalc.{module}")
    for name in names:
        assert getattr(pcalc, name) is getattr(home, name)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from pcalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPECTED_ALL)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="^module 'pcalc' has no attribute 'nosuch'$"):
        pcalc.nosuch


def test_dir_lists_every_name_and_submodule():
    assert set(EXPECTED_ALL) | set(SUBMODULES) <= set(dir(pcalc))


def test_import_loads_no_submodule():
    code = "import sys, pcalc; print(sorted(m for m in sys.modules if m.startswith('pcalc.')))"
    assert _fresh(code) == "[]\n"


def test_every_submodule_resolves_on_first_use():
    code = ("import sys, pcalc\n"
            f"for name in {SUBMODULES!r}:\n"
            "    assert getattr(pcalc, name) is sys.modules['pcalc.' + name], name\n"
            "print('ok')")
    assert _fresh(code) == "ok\n"


def test_deriv_loads_only_what_it_uses():
    argv = ["deriv", "--family", "khalil", "--alpha", "0.5", "--f", "t^2", "--t", "4"]
    code = ("import io, sys, contextlib, pcalc.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert pcalc.cli.main({argv!r}) == 0\n"
            "print(*sys.modules)")
    loaded = set(_fresh(code).split())
    assert "pcalc.derivatives" in loaded
    assert not {"pcalc.integrals", "pcalc.riccati", "pcalc.theorems", "pcalc.weierstrass",
                "pcalc.corpus", "pcalc.quadrature"} & loaded
