"""Command line interface.

One subcommand per engine operation group.  Output is a JSON document
with fixed top-level keys {command, inputs, result, diagnostics}; the
plot-oriented commands (riccati, weierstrass, polygon) default to CSV
rows instead.  --format overrides either default, --output redirects to
a file, --tol sets the working tolerance (PCALC_TOL as fallback).

Exit codes: 0 success, 1 usage error (bad flags, malformed expressions,
invalid parameters), 2 numerical failure (non-convergence, infeasible
certificate, violated bound).  In JSON mode numerical errors also emit a
machine-readable error object on stderr.

Identical invocations produce byte-identical output: no randomness, no
timestamps, floats printed via repr, '.' as the decimal separator.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .corpus import corpus_entry
from .derivatives import compare_definitions, p_derivative_formula, p_derivative_limit
from .errors import PcalcError, UsageError
from .expr import Expr, parse
from .families import (
    DEFAULT_EPSILONS,
    FAMILY_KINDS,
    PFunction,
    check_offset_solvability,
    make_family,
)
from .integrals import ftc_backward, ftc_forward, integration_by_parts_check, p_integral
from .riccati import RiccatiProblem, solve_riccati
from .theorems import (
    find_cauchy_mvt_point,
    find_mvt_point,
    find_rolle_point,
    max_principle_check,
    polygonal_derivative_scan,
)
from .weierstrass import WeierstrassParams, check_growth_condition, divergence_report

__all__ = ["main"]

_DEFAULT_FORMAT = {"riccati": "csv", "weierstrass": "csv", "polygon": "csv"}


class _Parser(argparse.ArgumentParser):
    # argparse wants to exit(2); route everything through UsageError instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


# --- output helpers ----------------------------------------------------------

def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(args, command: str, inputs: dict, result: dict, diagnostics: dict,
          columns: list[str] | None = None, rows: list[list] | None = None,
          flat: dict | None = None, preamble: str | None = None) -> int:
    fmt = args.format or _DEFAULT_FORMAT.get(command, "json")
    if fmt == "json":
        doc = {"command": command, "inputs": inputs,
               "result": result, "diagnostics": diagnostics}
        text = json.dumps(_json_safe(doc), indent=2) + "\n"
    else:
        if rows is None:
            flat = result if flat is None else flat
            columns = list(flat.keys())
            rows = [[flat[k] for k in columns]]
        lines = [] if preamble is None else [preamble]
        lines.append(",".join(columns))  # type: ignore[arg-type]
        lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


# --- shared argument plumbing ------------------------------------------------

def _resolve_tol(args) -> float:
    if args.tol is not None:
        tol = args.tol
    else:
        raw = os.environ.get("PCALC_TOL")
        if raw is None:
            tol = 1e-8
        else:
            try:
                tol = float(raw)
            except ValueError:
                raise UsageError(f"PCALC_TOL={raw!r} is not a number") from None
    if not 1e-12 <= tol <= 1e-2:
        raise UsageError(f"tolerance must lie in [1e-12, 1e-2], got {tol!r}")
    return tol


def _add_family_args(p: argparse.ArgumentParser, suffix: str = "") -> None:
    tag = f" (second family)" if suffix else ""
    p.add_argument(f"--family{suffix}", default="khalil", choices=FAMILY_KINDS,
                   help=f"deformation family kind{tag}")
    p.add_argument(f"--alpha{suffix}", type=float, default=None,
                   help=f"family order parameter{tag}")
    p.add_argument(f"--beta{suffix}", type=float, default=None,
                   help=f"gfd second parameter{tag}")
    p.add_argument(f"--F{suffix}", default=None, metavar="EXPR",
                   help=f"nderiv multiplier expression in t, alpha{tag}")
    p.add_argument(f"--p{suffix}", dest=f"p_expr{suffix}", default=None, metavar="EXPR",
                   help=f"custom full p(t, h) expression{tag}")


def _family_from(args, suffix: str = "") -> PFunction:
    kind = getattr(args, f"family{suffix}")
    alpha = getattr(args, f"alpha{suffix}")
    beta = getattr(args, f"beta{suffix}")
    f_expr = getattr(args, f"F{suffix}")
    p_expr = getattr(args, f"p_expr{suffix}")
    if kind == "custom":
        if p_expr is None:
            raise UsageError("custom family needs --p EXPR (the full p(t, h))")
        return make_family("custom", alpha, F=p_expr)
    if p_expr is not None:
        raise UsageError("--p only applies to the custom family")
    return make_family(kind, alpha, beta=beta, F=f_expr)


def _family_label(args, suffix: str = "") -> str:
    kind = getattr(args, f"family{suffix}")
    parts = [kind]
    for name in ("alpha", "beta"):
        v = getattr(args, f"{name}{suffix}")
        if v is not None:
            parts.append(f"{name}={v:g}")
    return " ".join(parts)


def _fn_arg(text: str) -> Expr:
    if text.startswith("corpus:"):
        return corpus_entry(text[len("corpus:"):]).f
    return parse(text)


def _float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated list of numbers") from None


def _read_vertices(path: str) -> list[tuple[float, float]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read vertices file {path!r}: {exc}") from None
    out: list[tuple[float, float]] = []
    for i, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise UsageError(f"{path}:{i}: expected 'x,y', got {line!r}")
        try:
            out.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise UsageError(f"{path}:{i}: non-numeric vertex {line!r}") from None
    if len(out) < 2:
        raise UsageError(f"{path}: need at least two vertices")
    return out


# --- subcommand handlers -----------------------------------------------------

def _cmd_deriv(args) -> int:
    tol = _resolve_tol(args)
    fam = _family_from(args)
    f = _fn_arg(args.f)
    est = p_derivative_limit(fam, f, args.t, side=args.side, tol=tol)
    formula = None
    formula_error = None
    try:
        formula = p_derivative_formula(fam, f, args.t)
    except PcalcError as exc:
        formula_error = str(exc)
    result = {"limit": est.value, "formula": formula,
              "error_estimate": est.error_estimate, "converged": est.converged}
    diag = {"side": est.side, "levels": len(est.h_sequence),
            "formula_error": formula_error, "tol": tol}
    inputs = {"family": _family_label(args), "f": args.f, "t": args.t}
    return _emit(args, "deriv", inputs, result, diag)


def _cmd_integral(args) -> int:
    tol = _resolve_tol(args)
    fam = _family_from(args)
    res = p_integral(fam, _fn_arg(args.f), args.a, args.b, tol=tol)
    result = {"value": res.value, "error_estimate": res.error_estimate,
              "subdivisions": res.subdivisions, "graded": res.graded}
    inputs = {"family": _family_label(args), "f": args.f, "a": args.a, "b": args.b}
    return _emit(args, "integral", inputs, result, {"tol": tol})


def _cmd_ftc(args) -> int:
    tol = _resolve_tol(args)
    fam = _family_from(args)
    if args.direction == "forward":
        residual = ftc_forward(fam, _fn_arg(args.f), args.a, args.b, tol=tol)
    else:
        residual = ftc_backward(fam, _fn_arg(args.f), args.a, args.b, tol=tol)
    inputs = {"family": _family_label(args), "direction": args.direction,
              "f": args.f, "a": args.a, "b": args.b}
    return _emit(args, "ftc", inputs, {"residual": residual}, {"tol": tol})


def _cmd_ibp(args) -> int:
    tol = _resolve_tol(args)
    fam = _family_from(args)
    residual = integration_by_parts_check(
        fam, _fn_arg(args.f), _fn_arg(args.g), args.a, args.b, tol=tol)
    inputs = {"family": _family_label(args), "f": args.f, "g": args.g,
              "a": args.a, "b": args.b}
    return _emit(args, "ibp", inputs, {"residual": residual}, {"tol": tol})


def _mvt_payload(args, r, inputs, command) -> int:
    tol = _resolve_tol(args)
    result = {"c": r.c, "k": r.k, "residual": r.residual,
              "bracket": [r.bracket[0], r.bracket[1]], "degenerate": r.degenerate}
    flat = {"c": r.c, "k": r.k, "residual": r.residual,
            "bracket_lo": r.bracket[0], "bracket_hi": r.bracket[1],
            "degenerate": r.degenerate}
    return _emit(args, command, inputs, result, {"tol": tol}, flat=flat)


def _cmd_mvt(args) -> int:
    tol = _resolve_tol(args)
    fam = _family_from(args)
    f = _fn_arg(args.f)
    inputs = {"family": _family_label(args), "f": args.f, "g": args.g,
              "a": args.a, "b": args.b}
    if args.g is None:
        r = find_mvt_point(fam, f, args.a, args.b, tol=tol)
    else:
        r = find_cauchy_mvt_point(fam, f, _fn_arg(args.g), args.a, args.b, tol=tol)
    return _mvt_payload(args, r, inputs, "mvt")


def _cmd_rolle(args) -> int:
    tol = _resolve_tol(args)
    fam = _family_from(args)
    r = find_rolle_point(fam, _fn_arg(args.f), args.a, args.b, tol=tol)
    inputs = {"family": _family_label(args), "f": args.f, "a": args.a, "b": args.b}
    return _mvt_payload(args, r, inputs, "rolle")


def _cmd_maxprinciple(args) -> int:
    tol = _resolve_tol(args)
    fam = _family_from(args)
    rep = max_principle_check(fam, _fn_arg(args.f), args.a, args.b, tol=tol)
    result = {
        "c": rep.c,
        "f_at_c": rep.f_at_c,
        "derivative": rep.derivative.value,
        "derivative_error": rep.derivative.error_estimate,
        "vanishes": rep.vanishes,
        "interior": rep.interior,
        "left_decreasing": rep.monotonicity.left_decreasing,
        "right_increasing": rep.monotonicity.right_increasing,
    }
    inputs = {"family": _family_label(args), "f": args.f, "a": args.a, "b": args.b}
    return _emit(args, "maxprinciple", inputs, result, {"tol": tol})


def _cmd_hypothesis(args) -> int:
    tol = _resolve_tol(args)
    fam = _family_from(args)
    eps = DEFAULT_EPSILONS if args.epsilons is None else _float_list(args.epsilons, "--epsilons")
    rep = check_offset_solvability(fam, args.t, eps)
    records = [{"epsilon": r.epsilon, "h_plus": r.h_plus, "h_minus": r.h_minus}
               for r in rep.records]
    result = {"verdict_plus": rep.verdict_plus, "verdict_minus": rep.verdict_minus,
              "records": records}
    rows = [[r.epsilon, r.h_plus, r.h_minus] for r in rep.records]
    inputs = {"family": _family_label(args), "t": args.t}
    return _emit(args, "hypothesis", inputs, result, {"tol": tol},
                 columns=["epsilon", "h_plus", "h_minus"], rows=rows)


def _cmd_riccati(args) -> int:
    tol = _resolve_tol(args)
    fam = _family_from(args)
    problem = RiccatiProblem(family=fam, q=_fn_arg(args.q), u0=args.u0,
                             T=args.T, grid_n=args.n, tol=tol)
    sol = solve_riccati(problem, override=args.override, start=args.start)
    cert = {
        "feasible": sol.certificate.feasible,
        "b": sol.certificate.b,
        "k": sol.certificate.k,
        "l1_norm": sol.certificate.l1_norm,
        "q_inf": sol.certificate.q_inf,
        "margin": sol.certificate.margin,
    }
    result = {
        "certificate": cert,
        "iterations": sol.iterations,
        "final_delta": sol.final_delta,
        "residual": sol.residual,
        "max_iterate_norm": sol.max_iterate_norm,
        "override": sol.override,
        "grid": list(sol.grid),
        "u": list(sol.u),
    }
    diag = {"tol": tol, "updates": list(sol.updates)}
    inputs = {"family": _family_label(args), "q": args.q, "u0": args.u0,
              "T": args.T, "n": args.n}
    rows = [[t, u] for t, u in zip(sol.grid, sol.u)]
    preamble = "# " + json.dumps(_json_safe(cert))
    return _emit(args, "riccati", inputs, result, diag,
                 columns=["t", "u"], rows=rows, preamble=preamble)


def _cmd_weierstrass(args) -> int:
    tol = _resolve_tol(args)
    params = WeierstrassParams(a=args.a, b=args.b, alpha=args.alpha)
    steps = divergence_report(params, args.x, m_max=args.m, tol=tol)
    rows = [[s.m, s.alpha_m, float(s.t_m), s.h_m, s.quotient, s.lower_bound]
            for s in steps]
    result = {"steps": [
        {"m": s.m, "alpha_m": s.alpha_m, "t_m": s.t_m, "t_m_float": float(s.t_m),
         "h_m": s.h_m, "quotient": s.quotient, "lower_bound": s.lower_bound}
        for s in steps
    ]}
    growth = args.a ** (1.0 / args.alpha) * args.b
    diag = {"tol": tol, "growth": growth, "threshold": 1.0 + 1.5 * math.pi,
            "condition": check_growth_condition(params)}
    inputs = {"a": args.a, "b": args.b, "alpha": args.alpha, "x": args.x, "m": args.m}
    return _emit(args, "weierstrass", inputs, result, diag,
                 columns=["m", "alpha_m", "t_m", "h_m", "quotient", "lower_bound"],
                 rows=rows)


def _cmd_polygon(args) -> int:
    tol = _resolve_tol(args)
    fam = _family_from(args)
    vertices = _read_vertices(args.vertices)
    if args.grid is None:
        grid = tuple(x for x, _ in vertices)
    else:
        grid = _float_list(args.grid, "--grid")
    ests = polygonal_derivative_scan(vertices, fam, grid, side=args.side, tol=tol)
    rows = [[t, e.value, e.error_estimate, e.converged] for t, e in zip(grid, ests)]
    result = {"points": [
        {"t": t, "value": e.value, "error_estimate": e.error_estimate,
         "converged": e.converged}
        for t, e in zip(grid, ests)
    ]}
    inputs = {"family": _family_label(args), "vertices": args.vertices,
              "grid": list(grid), "side": args.side}
    return _emit(args, "polygon", inputs, result, {"tol": tol},
                 columns=["t", "value", "error_estimate", "converged"], rows=rows)


def _cmd_compare(args) -> int:
    tol = _resolve_tol(args)
    fam1 = _family_from(args)
    fam2 = _family_from(args, suffix="2")
    rep = compare_definitions(fam1, fam2, _fn_arg(args.f), args.t, tol=tol)
    result = {
        "value_1": rep.value_1,
        "value_2": rep.value_2,
        "abs_diff": rep.abs_diff,
        "ratio": rep.ratio,
        "expected_ratio": rep.expected_ratio,
        "converged_1": rep.converged_1,
        "converged_2": rep.converged_2,
    }
    inputs = {"family_1": _family_label(args), "family_2": _family_label(args, "2"),
              "f": args.f, "t": args.t}
    return _emit(args, "compare", inputs, result, {"tol": tol})


# --- parser ------------------------------------------------------------------

def _build_parser() -> _Parser:
    top = _Parser(prog="pcalc", allow_abbrev=False,
                  description="calculus along deformation families p(t, h)")
    common = _Parser(add_help=False, allow_abbrev=False)
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (default json; csv for plot commands)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write output to a file instead of stdout")
    common.add_argument("--tol", type=float, default=None,
                        help="working tolerance in [1e-12, 1e-2] (env PCALC_TOL, default 1e-8)")

    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("deriv", parents=[common], allow_abbrev=False,
                       help="derivative of f at a point, limit and formula routes")
    _add_family_args(p)
    p.add_argument("--f", required=True, help="expression in t, or corpus:NAME")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--side", choices=("both", "left", "right"), default="both")
    p.set_defaults(handler=_cmd_deriv)

    p = sub.add_parser("integral", parents=[common], allow_abbrev=False,
                       help="weighted integral of f over [a, b]")
    _add_family_args(p)
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(handler=_cmd_integral)

    p = sub.add_parser("ftc", parents=[common], allow_abbrev=False,
                       help="fundamental-theorem residual in either direction")
    _add_family_args(p)
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p.add_argument("--f", required=True,
                   help="integrand (forward) or antiderivative (backward)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True,
                   help="evaluation point (forward) or upper endpoint (backward)")
    p.set_defaults(handler=_cmd_ftc)

    p = sub.add_parser("ibp", parents=[common], allow_abbrev=False,
                       help="integration-by-parts residual")
    _add_family_args(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(handler=_cmd_ibp)

    p = sub.add_parser("mvt", parents=[common], allow_abbrev=False,
                       help="mean-value point (two-function form with --g)")
    _add_family_args(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", default=None)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(handler=_cmd_mvt)

    p = sub.add_parser("rolle", parents=[common], allow_abbrev=False,
                       help="interior derivative zero under equal endpoint values")
    _add_family_args(p)
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(handler=_cmd_rolle)

    p = sub.add_parser("maxprinciple", parents=[common], allow_abbrev=False,
                       help="derivative at a located interior maximum")
    _add_family_args(p)
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(handler=_cmd_maxprinciple)

    p = sub.add_parser("hypothesis", parents=[common], allow_abbrev=False,
                       help="solvability of p(t, h) = t +- eps near h = 0")
    _add_family_args(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--epsilons", default=None,
                   help="comma-separated decreasing offsets (default 1e-2..1e-8)")
    p.set_defaults(handler=_cmd_hypothesis)

    p = sub.add_parser("riccati", parents=[common], allow_abbrev=False,
                       help="certified Picard solve of D u = q - u^2")
    _add_family_args(p)
    p.add_argument("--q", required=True)
    p.add_argument("--u0", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--n", type=int, default=64, help="grid intervals (>= 16)")
    p.add_argument("--override", action="store_true",
                   help="iterate even when the certificate is infeasible")
    p.add_argument("--start", type=float, default=None,
                   help="constant starting iterate (default u0)")
    p.set_defaults(handler=_cmd_riccati)

    p = sub.add_parser("weierstrass", parents=[common], allow_abbrev=False,
                       help="divergence ladder of the lacunary cosine series")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", required=True, help="exact rational, e.g. 1/3 or 0.25")
    p.add_argument("--m", type=int, default=6, help="ladder depth")
    p.set_defaults(handler=_cmd_weierstrass)

    p = sub.add_parser("polygon", parents=[common], allow_abbrev=False,
                       help="derivative scan of a piecewise-linear function")
    _add_family_args(p)
    p.add_argument("--vertices", required=True, metavar="FILE",
                   help="CSV file of x,y vertices")
    p.add_argument("--grid", default=None,
                   help="comma-separated scan points (default: vertex x's)")
    p.add_argument("--side", choices=("both", "left", "right"), default="both")
    p.set_defaults(handler=_cmd_polygon)

    p = sub.add_parser("compare", parents=[common], allow_abbrev=False,
                       help="limit-route derivatives under two families")
    _add_family_args(p)
    _add_family_args(p, suffix="2")
    p.add_argument("--f", required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(handler=_cmd_compare)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SystemExit as exc:  # --help has printed the usage
        return int(exc.code or 0)
    fmt = args.format or _DEFAULT_FORMAT.get(args.command, "json")
    try:
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except PcalcError as exc:
        if fmt == "json":
            doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            sys.stderr.write(json.dumps(doc) + "\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
