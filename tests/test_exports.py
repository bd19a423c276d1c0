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


# the paper's scalar results, each through its plain-float path; none of
# them builds an array, so none may import numpy
SCALAR_PASS = """
import contextlib, io, sys
from fractions import Fraction
import pcalc
import pcalc.cli

fams = [pcalc.make_family(kind, alpha, beta=1.5 if kind == "gfd" else None)
        for kind, alpha in (("khalil", 0.5), ("katugampola", 0.5), ("gfd", 0.5),
                            ("nderiv", 0.5), ("cosine", 0.5), ("power", 2.0))]
# the custom multiplier sqrt(t)/(1 + t) uses only operations whose ufuncs
# match the scalar ones bit for bit
custom = pcalc.make_family("custom", F="t + h*sqrt(t)/(1 + t)")
khalil = fams[0]
fams.append(custom)
for fam in fams:
    t = 1.0 if fam.kind != "cosine" else 0.7
    pcalc.p_derivative_limit(fam, "sin(t)*t", t)
    if fam.kind != "power":
        pcalc.p_derivative_formula(fam, "sin(t)*t", t)
pcalc.p_integral(khalil, "sin(t)", 0.0, 2.0)
pcalc.ftc_forward(khalil, "cos(t)", 0.0, 1.0)
pcalc.ftc_backward(khalil, "t^2", 0.0, 2.0)
pcalc.integration_by_parts_check(khalil, "t^2", "sin(t)", 0.5, 2.0)
pcalc.check_l1(khalil, 0.0, 1.0)
pcalc.compare_definitions(khalil, fams[2], "exp(t)", 1.2)
pcalc.polygonal_derivative_scan([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)], fams[5], [0.5, 1.0])
pcalc.divergence_report(pcalc.WeierstrassParams(41, 0.9, 2.0), Fraction(1, 3), m_max=3)
K = ["--family", "khalil", "--alpha", "0.5"]
for argv in (["deriv", *K, "--f", "t^2", "--t", "4"],
             ["integral", *K, "--f", "sin(t)", "--a", "0", "--b", "4"],
             ["ftc", *K, "--f", "corpus:sin", "--a", "0", "--b", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert pcalc.cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy loaded by a scalar path"

ts = [0.25, 1.0, 2.5, 7.0]
got = custom.ph_zero_array(ts)
assert "numpy" in sys.modules
assert got.tolist() == [custom.ph_zero(x) for x in ts]
print("ok")
"""


def test_scalar_calculus_never_imports_numpy():
    assert _fresh(SCALAR_PASS) == "ok\n"
