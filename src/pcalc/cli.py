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
from typing import Callable, NamedTuple

import pcalc

from .errors import PcalcError, UsageError
from .expr import Expr, parse
from .families import (DEFAULT_EPSILONS, FAMILY_KINDS, PFunction, check_offset_solvability,
                       make_family)

__all__ = ["main"]

_SUFFIXES = ("", "2")  # option suffixes of the first and second family


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


def _emit(output: str | None, fmt: str, command: str, inputs: dict, result: dict,
          diagnostics: dict, columns: list[str] | None = None,
          rows: list[list] | None = None, flat: dict | None = None,
          preamble: str | None = None) -> int:
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
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


# --- shared argument plumbing ------------------------------------------------

def _resolve_tol(args) -> float:
    tol = args.tol
    if tol is None:
        raw = os.environ.get("PCALC_TOL", "1e-8")
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
    kind, alpha, beta, f_expr, p_expr = (
        getattr(args, name + suffix) for name in ("family", "alpha", "beta", "F", "p_expr"))
    if kind == "custom":
        if p_expr is None:
            raise UsageError("custom family needs --p EXPR (the full p(t, h))")
        if f_expr is not None:
            raise UsageError(f"--F{suffix} does not apply to the custom family; use --p{suffix}")
        return make_family("custom", alpha, beta=beta, F=p_expr)
    if p_expr is not None:
        raise UsageError("--p only applies to the custom family")
    return make_family(kind, alpha, beta=beta, F=f_expr)


def _family_label(args, suffix: str = "") -> str:
    parts = [getattr(args, "family" + suffix)]
    for name in ("alpha", "beta"):
        if (v := getattr(args, name + suffix)) is not None:
            parts.append(f"{name}={v:g}")
    return " ".join(parts)


def _fn_arg(text: str) -> Expr:
    if text.startswith("corpus:"):
        return pcalc.corpus_entry(text[len("corpus:"):]).f
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
# A handler gets the parsed args, the tolerance and the command's families,
# parses its own expressions and files, and returns the result plus the
# _emit keywords that differ from the defaults ("inputs" there replaces
# echoed arguments by the values actually used).

def _fields(obj, names: str) -> dict:
    return {name: getattr(obj, name) for name in names.split()}


def _deriv(args, tol, fam):
    f = _fn_arg(args.f)
    est = pcalc.p_derivative_limit(fam, f, args.t, side=args.side, tol=tol)
    formula = formula_error = None
    try:
        formula = pcalc.p_derivative_formula(fam, f, args.t)
    except PcalcError as exc:
        formula_error = str(exc)
    result = {"limit": est.value, "formula": formula,
              "error_estimate": est.error_estimate, "converged": est.converged}
    diag = {"side": est.side, "levels": len(est.h_sequence),
            "formula_error": formula_error, "tol": tol}
    return result, {"diagnostics": diag}


def _integral(args, tol, fam):
    res = pcalc.p_integral(fam, _fn_arg(args.f), args.a, args.b, tol=tol)
    return _fields(res, "value error_estimate subdivisions graded"), {}


def _ftc(args, tol, fam):
    ftc = pcalc.ftc_forward if args.direction == "forward" else pcalc.ftc_backward
    return {"residual": ftc(fam, _fn_arg(args.f), args.a, args.b, tol=tol)}, {}


def _ibp(args, tol, fam):
    residual = pcalc.integration_by_parts_check(
        fam, _fn_arg(args.f), _fn_arg(args.g), args.a, args.b, tol=tol)
    return {"residual": residual}, {}


def _mvt_payload(r):
    lo, hi = r.bracket
    head = _fields(r, "c k residual")
    return ({**head, "bracket": [lo, hi], "degenerate": r.degenerate},
            {"flat": {**head, "bracket_lo": lo, "bracket_hi": hi, "degenerate": r.degenerate}})


def _mvt(args, tol, fam):
    f = _fn_arg(args.f)
    if args.g is None:
        return _mvt_payload(pcalc.find_mvt_point(fam, f, args.a, args.b, tol=tol))
    g = _fn_arg(args.g)
    return _mvt_payload(pcalc.find_cauchy_mvt_point(fam, f, g, args.a, args.b, tol=tol))


def _rolle(args, tol, fam):
    return _mvt_payload(pcalc.find_rolle_point(fam, _fn_arg(args.f), args.a, args.b, tol=tol))


def _maxprinciple(args, tol, fam):
    rep = pcalc.max_principle_check(fam, _fn_arg(args.f), args.a, args.b, tol=tol)
    return {"c": rep.c, "f_at_c": rep.f_at_c, "derivative": rep.derivative.value,
            "derivative_error": rep.derivative.error_estimate,
            "vanishes": rep.vanishes, "interior": rep.interior,
            **_fields(rep.monotonicity, "left_decreasing right_increasing")}, {}


def _hypothesis(args, tol, fam):
    eps = DEFAULT_EPSILONS if args.epsilons is None else _float_list(args.epsilons, "--epsilons")
    rep = check_offset_solvability(fam, args.t, eps)
    columns = "epsilon h_plus h_minus"
    records = [_fields(r, columns) for r in rep.records]
    result = {**_fields(rep, "verdict_plus verdict_minus"), "records": records}
    return result, {"columns": columns.split(), "rows": [list(r.values()) for r in records]}


def _riccati(args, tol, fam):
    problem = pcalc.RiccatiProblem(family=fam, q=_fn_arg(args.q), u0=args.u0,
                                   T=args.T, grid_n=args.n, tol=tol)
    sol = pcalc.solve_riccati(problem, override=args.override, start=args.start)
    cert = _fields(sol.certificate, "feasible b k l1_norm q_inf margin")
    result = {"certificate": cert,
              **_fields(sol, "iterations final_delta residual max_iterate_norm override"),
              "grid": list(sol.grid), "u": list(sol.u)}
    return result, {"diagnostics": {"tol": tol, "updates": list(sol.updates)},
                    "columns": ["t", "u"], "rows": [[t, u] for t, u in zip(sol.grid, sol.u)],
                    "preamble": "# " + json.dumps(_json_safe(cert))}


def _weierstrass(args, tol):
    params = pcalc.WeierstrassParams(a=args.a, b=args.b, alpha=args.alpha)
    steps = pcalc.divergence_report(params, args.x, m_max=args.m, tol=tol)
    columns = ["m", "alpha_m", "t_m", "h_m", "quotient", "lower_bound"]
    rows = [[s.m, s.alpha_m, float(s.t_m), s.h_m, s.quotient, s.lower_bound] for s in steps]
    result = {"steps": [{**_fields(s, "m alpha_m t_m"), "t_m_float": float(s.t_m),
                         **_fields(s, "h_m quotient lower_bound")} for s in steps]}
    diag = {"tol": tol, "growth": args.a ** (1.0 / args.alpha) * args.b,
            "threshold": 1.0 + 1.5 * math.pi, "condition": pcalc.check_growth_condition(params)}
    return result, {"diagnostics": diag, "columns": columns, "rows": rows}


def _polygon(args, tol, fam):
    vertices = _read_vertices(args.vertices)
    if args.grid is None:
        grid = tuple(x for x, _ in vertices)
    else:
        grid = _float_list(args.grid, "--grid")
    ests = pcalc.polygonal_derivative_scan(vertices, fam, grid, side=args.side, tol=tol)
    points = [{"t": t, **_fields(e, "value error_estimate converged")}
              for t, e in zip(grid, ests)]
    return {"points": points}, {"inputs": {"grid": list(grid)},
                                "columns": ["t", "value", "error_estimate", "converged"],
                                "rows": [list(p.values()) for p in points]}


def _compare(args, tol, fam1, fam2):
    rep = pcalc.compare_definitions(fam1, fam2, _fn_arg(args.f), args.t, tol=tol)
    return _fields(rep, "value_1 value_2 abs_diff ratio expected_ratio "
                        "converged_1 converged_2"), {}


# --- command table -----------------------------------------------------------

class _Command(NamedTuple):
    help: str
    handler: Callable
    families: int            # 0, 1, or 2 (compare's second set has suffix 2)
    format: str              # default output format
    args: tuple              # (flag, add_argument keywords), in --help order
    quiet: tuple[str, ...] = ()  # arguments not echoed under "inputs"


_FN = {"required": True}
_NUM = {"type": float, "required": True}
_SIDE = ("--side", {"choices": ("both", "left", "right"), "default": "both"})
_INTERVAL = (("--f", _FN), ("--a", _NUM), ("--b", _NUM))

_COMMANDS = {
    "deriv": _Command(
        "derivative of f at a point, limit and formula routes", _deriv, 1, "json",
        (("--f", {**_FN, "help": "expression in t, or corpus:NAME"}),
         ("--t", _NUM), _SIDE), ("side",)),
    "integral": _Command(
        "weighted integral of f over [a, b]", _integral, 1, "json", _INTERVAL),
    "ftc": _Command(
        "fundamental-theorem residual in either direction", _ftc, 1, "json",
        (("--direction", {"choices": ("forward", "backward"), "default": "forward"}),
         ("--f", {**_FN, "help": "integrand (forward) or antiderivative (backward)"}),
         ("--a", _NUM),
         ("--b", {**_NUM, "help": "evaluation point (forward) or upper endpoint (backward)"}))),
    "ibp": _Command(
        "integration-by-parts residual", _ibp, 1, "json",
        (("--f", _FN), ("--g", _FN), ("--a", _NUM), ("--b", _NUM))),
    "mvt": _Command(
        "mean-value point (two-function form with --g)", _mvt, 1, "json",
        (("--f", _FN), ("--g", {}), ("--a", _NUM), ("--b", _NUM))),
    "rolle": _Command(
        "interior derivative zero under equal endpoint values", _rolle, 1, "json", _INTERVAL),
    "maxprinciple": _Command(
        "derivative at a located interior maximum", _maxprinciple, 1, "json", _INTERVAL),
    "hypothesis": _Command(
        "solvability of p(t, h) = t +- eps near h = 0", _hypothesis, 1, "json",
        (("--t", _NUM),
         ("--epsilons", {"help": "comma-separated decreasing offsets (default 1e-2..1e-8)"})),
        ("epsilons",)),
    "riccati": _Command(
        "certified Picard solve of D u = q - u^2", _riccati, 1, "csv",
        (("--q", _FN), ("--u0", _NUM), ("--T", _NUM),
         ("--n", {"type": int, "default": 64, "help": "grid intervals (>= 16)"}),
         ("--override", {"action": "store_true",
                         "help": "iterate even when the certificate is infeasible"}),
         ("--start", {"type": float, "help": "constant starting iterate (default u0)"})),
        ("override", "start")),
    "weierstrass": _Command(
        "divergence ladder of the lacunary cosine series", _weierstrass, 0, "csv",
        (("--a", {"type": int, "required": True}), ("--b", _NUM), ("--alpha", _NUM),
         ("--x", {**_FN, "help": "exact rational, e.g. 1/3 or 0.25"}),
         ("--m", {"type": int, "default": 6, "help": "ladder depth"}))),
    "polygon": _Command(
        "derivative scan of a piecewise-linear function", _polygon, 1, "csv",
        (("--vertices", {"required": True, "metavar": "FILE",
                         "help": "CSV file of x,y vertices"}),
         ("--grid", {"help": "comma-separated scan points (default: vertex x's)"}),
         _SIDE)),
    "compare": _Command(
        "limit-route derivatives under two families", _compare, 2, "json",
        (("--f", _FN), ("--t", _NUM))),
}


def _build_parser(command: str | None) -> _Parser:
    """The pcalc parser, with arguments on the subparser of `command` only."""
    top = _Parser(prog="pcalc", allow_abbrev=False,
                  description="calculus along deformation families p(t, h)")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False, help=cmd.help)
        if name != command:
            continue
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="output format (default json; csv for plot commands)")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write output to a file instead of stdout")
        p.add_argument("--tol", type=float, default=None,
                       help="working tolerance in [1e-12, 1e-2] (env PCALC_TOL, default 1e-8)")
        for suffix in _SUFFIXES[:cmd.families]:
            _add_family_args(p, suffix)
        for flag, kw in cmd.args:
            p.add_argument(flag, **kw)
    return top


def main(argv: list[str] | None = None) -> int:
    fmt = "json"
    argv = sys.argv[1:] if argv is None else argv
    # no top-level option takes a value: the command is the first non-option
    command = next((a for a in argv if not a.startswith("-")), None)
    try:
        args = _build_parser(command).parse_args(argv)
        cmd = _COMMANDS[args.command]
        fmt = args.format or cmd.format
        tol = _resolve_tol(args)
        suffixes = _SUFFIXES[:cmd.families]
        fams = [_family_from(args, suffix) for suffix in suffixes]
        result, kw = cmd.handler(args, tol, *fams)
        labels = ("family",) if cmd.families == 1 else ("family_1", "family_2")
        inputs = {k: _family_label(args, s) for k, s in zip(labels, suffixes)}
        inputs.update((flag[2:], getattr(args, flag[2:])) for flag, _ in cmd.args
                      if flag[2:] not in cmd.quiet)
        inputs.update(kw.pop("inputs", {}))
        kw.setdefault("diagnostics", {"tol": tol})
        return _emit(args.output, fmt, args.command, inputs, result, **kw)
    except SystemExit as exc:  # --help has printed the usage
        return int(exc.code or 0)
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
