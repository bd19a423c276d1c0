"""Deformation families p(t, h) and their diagnostics.

A family bundles the map p(t, h), the multiplier ph_zero(t) (the
h-derivative of p at h = 0) and the valid t-interval.  Each closed-form
kind (khalil, katugampola, gfd, nderiv, cosine, power) is one row of the
_KINDS table, with p and the multiplier as expressions; a row's alpha test
keeps p(t, h) in its domain for small h.  "custom" takes a full p(t, h)
expression, whose range is not checked, and differentiates it symbolically
in h; nderiv with an expression F is t + h*F on that path, refused where F
is not finite at t = 0.1, 1 or 10.  Every kind compiles its trees with
expr.compile_expr, and compile_array compiles the multiplier on first use.

Two numerical checks live here as well:

- check_offset_solvability: can p(t, h) = t +- eps be solved for h near 0,
  with the solutions shrinking as eps does?  (Solvability is reported per
  sign; some families genuinely fail one side.)
- check_l1: is 1/|ph_zero| integrable over an interval?  It integrates the
  weight with quadrature.integrate_graded, the integrator p_integral uses,
  and reports divergence instead of raising it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DifferentiationError,
    DomainError,
    EvaluationError,
    NonIntegrableError,
    ParameterError,
    QuadratureError,
)
from .expr import (EXPR_TYPES, BinOp, Expr, Num, Var, compile_array, compile_expr,
                   differentiate, parse, substitute, variables)

# np in annotations is numpy, which only the functions that use arrays import

__all__ = [
    "Interval", "PFunction", "make_family", "FAMILY_KINDS",
    "EpsilonRecord", "SolvabilityReport", "check_offset_solvability",
    "L1Report", "check_l1", "DEFAULT_EPSILONS",
]


@dataclass(frozen=True)
class Interval:
    """A real interval with individually open or closed endpoints."""

    lo: float
    hi: float
    closed_lo: bool = False
    closed_hi: bool = False

    def contains(self, t: float) -> bool:
        if not math.isfinite(t):
            return False
        if t < self.lo or (t == self.lo and not self.closed_lo):
            return False
        if t > self.hi or (t == self.hi and not self.closed_hi):
            return False
        return True

    def contains_array(self, t: np.ndarray) -> np.ndarray:
        """contains, element by element; an infinite end is open either way."""
        lo = t >= self.lo if self.closed_lo and math.isfinite(self.lo) else t > self.lo
        return lo & (t <= self.hi if self.closed_hi and math.isfinite(self.hi) else t < self.hi)

    def contains_closure(self, t: float) -> bool:
        return math.isfinite(t) and self.lo <= t <= self.hi

    def __str__(self) -> str:
        left = "[" if self.closed_lo else "("
        right = "]" if self.closed_hi else ")"
        lo = f"{self.lo:g}" if math.isinf(self.lo) else repr(self.lo)
        hi = f"{self.hi:g}" if math.isinf(self.hi) else repr(self.hi)
        return f"{left}{lo}, {hi}{right}"


class PFunction:
    """One deformation family: p, the multiplier ph_zero, a domain.

    p and ph_zero are methods over the callables given at construction;
    ph_zero checks the domain first.  ph0a is the multiplier's numpy form
    over a whole array: a kernel, or the expression that the first
    ph_zero_array call compiles with compile_array and keeps, as the memo
    does not for a tree over _MEMO_NODES.  A kernel must not raise: a
    non-finite value marks a point that ph_zero decides.  ph0a is None
    only for an unavailable custom multiplier, whose every point is then
    marked.  Instances are immutable by convention; use make_family.
    """

    __slots__ = ("kind", "alpha", "beta", "F", "domain", "label", "_p", "_ph0", "_ph0a")

    def __init__(self, kind: str, alpha: float | None, beta: float | None,
                 F: Expr | None, domain: Interval, label: str,
                 p: Callable[[float, float], float],
                 ph0: Callable[[float], float],
                 ph0a: Expr | Callable[[np.ndarray], np.ndarray] | None = None) -> None:
        self.kind = kind
        self.alpha = alpha
        self.beta = beta
        self.F = F
        self.domain = domain
        self.label = label
        self._p = p
        self._ph0 = ph0
        self._ph0a = ph0a

    def p(self, t: float, h: float) -> float:
        return self._p(t, h)

    def ph_zero(self, t: float) -> float:
        self.require(t)
        return self._ph0(t)

    def ph_zero_array(self, t: np.ndarray) -> np.ndarray:
        """ph_zero at every point of t, marked as compile_array marks: NaN
        outside the domain and wherever the kernel cannot vouch for the
        scalar value.  Never raises; resolve(m, t, self.ph_zero) gives
        [ph_zero(x) for x in t], the first failing point raising."""
        import numpy as np
        t = np.asarray(t, dtype=float)
        if isinstance(self._ph0a, EXPR_TYPES):
            self._ph0a = compile_array(self._ph0a)
        if self._ph0a is None:
            return np.full(t.shape, math.nan)
        with np.errstate(all="ignore"):
            out = self._ph0a(t)
        out[~self.domain.contains_array(t)] = math.nan
        return out

    def require(self, t: float) -> None:
        if not self.domain.contains(t):
            raise DomainError(f"t={t!r} outside the {self.label} domain {self.domain}")

    def __repr__(self) -> str:
        return f"PFunction<{self.label}>"


def _coerce_expr(source: Expr | str, allowed: frozenset[str], what: str) -> Expr:
    e = parse(source) if isinstance(source, str) else source
    if not isinstance(e, Expr):
        raise ParameterError(f"{what} must be an expression or source text")
    extra = variables(e) - allowed
    if extra:
        raise ParameterError(
            f"{what} may only reference {sorted(allowed)}; found {sorted(extra)}"
        )
    return e


class _Kind(NamedTuple):
    """A closed-form kind: its t-domain, the alpha range it accepts (as a
    test and as text), and p(t, h) and the multiplier ph_zero(t) as
    expressions in t, h, alpha and c0, the gfd coefficient (1 elsewhere).
    The multiplier is written out, not derived: deriving katugampola's
    would give t*exp(0)*t^-alpha, which is not t^(1-alpha) bit for bit."""

    domain: Interval
    accepts: Callable[[float], bool]
    needs: str
    p: Expr
    mult: Expr


_POSITIVE_T = Interval(0.0, math.inf)
_positive = lambda a: a > 0.0  # alpha > 0 suffices; values >= 1 are permitted and used


def _row(domain: Interval, accepts: Callable[[float], bool], needs: str, p: str,
         mult: str) -> _Kind:
    return _Kind(domain, accepts, needs, parse(p, ("c0",)), parse(mult, ("c0",)))


_KINDS: dict[str, _Kind] = {
    "khalil": _row(_POSITIVE_T, _positive, "alpha > 0", "t + h*t^(1-alpha)", "t^(1-alpha)"),
    "katugampola": _row(_POSITIVE_T, _positive, "alpha > 0", "t*exp(h*t^-alpha)",
                        "t^(1-alpha)"),
    "gfd": _row(_POSITIVE_T, _positive, "alpha > 0", "t + c0*h*t^(1-alpha)",
                "c0*t^(1-alpha)"),
    "nderiv": _row(_POSITIVE_T, _positive, "alpha > 0", "t + h*exp(t^-alpha)",
                   "exp(t^-alpha)"),
    "cosine": _row(Interval(0.0, math.pi / 2.0, closed_lo=True), lambda a: 0.0 < a <= 1.0,
                   "0 < alpha <= 1", "t + sin(h)*cos(t)^(1-alpha)", "cos(t)^(1-alpha)"),
    # d/dh h^alpha vanishes at h=0 since alpha > 1
    "power": _row(Interval(-math.inf, math.inf), lambda a: a > 1.0, "alpha > 1",
                  "t + h^alpha", "0"),
}
FAMILY_KINDS = (*_KINDS, "custom")


def _expression_forms(pe: Expr, alpha: float | None, m: Expr | None = None) -> tuple:
    """The forms of a p(t, h) expression at a fixed alpha: p compiled in
    (t, h), the multiplier m compiled in t alone, and m itself, which
    ph_zero_array compiles for arrays.  m is by default the symbolic
    h-derivative of p at h = 0.  alpha and h = 0 are folded in as
    constants after differentiating, never before: the derivative's short
    cuts drop a product with a numeric 0, so folding first would turn the
    -0.0 of (0-t)*alpha at alpha = 0 into 0.0."""
    a = Var("alpha") if alpha is None else Num(float(alpha))  # None: pe has no alpha
    p = compile_expr(substitute(pe, "alpha", a), ("t", "h"))
    if m is None:
        try:
            m = substitute(differentiate(pe, "h"), "h", Num(0.0))
        except DifferentiationError as exc:
            msg = str(exc)

            def unavailable(t: float, msg: str = msg) -> float:
                raise DifferentiationError(f"custom family multiplier unavailable: {msg}")

            return p, unavailable, None
    m = substitute(m, "alpha", a)
    return p, compile_expr(m), m


def make_family(kind: str, alpha: float | None = None, beta: float | None = None,
                F: Expr | str | None = None) -> PFunction:
    """Construct a PFunction, validating parameters for the given kind.

    F is the generalized-family hook: for kind "nderiv" it is an expression
    in (t, alpha) replacing exp(t^(-alpha)), making p = t + h*F; for kind
    "custom" it is the full p(t, h) expression (variables t, h, and
    optionally alpha).
    """
    if kind not in FAMILY_KINDS:
        raise ParameterError(f"unknown family {kind!r}; valid: {', '.join(FAMILY_KINDS)}")
    if beta is not None and kind != "gfd":
        raise ParameterError(f"beta only applies to the gfd family, not {kind!r}")
    if F is not None and kind not in ("nderiv", "custom"):
        raise ParameterError(f"F only applies to nderiv/custom families, not {kind!r}")

    if alpha is not None and not math.isfinite(alpha):
        raise ParameterError("alpha must be finite")
    if kind == "custom":
        if F is None:
            raise ParameterError("custom family requires F: the full p(t, h) expression")
        pe = _coerce_expr(F, frozenset({"t", "h", "alpha"}), "custom p")
        if "alpha" in variables(pe) and alpha is None:
            raise ParameterError("custom p references alpha but no alpha was given")
        return PFunction(kind, alpha, None, pe, Interval(-math.inf, math.inf),
                         "custom(p=...)", *_expression_forms(pe, alpha))

    if alpha is None:
        raise ParameterError(f"{kind} family requires alpha")
    row = _KINDS[kind]
    if not row.accepts(alpha):
        raise ParameterError(f"{kind} family needs {row.needs}, got {alpha!r}")
    c0, label = 1.0, f"alpha={alpha:g}"
    if kind == "gfd":
        if beta is None:
            raise ParameterError("gfd family requires beta")
        if not math.isfinite(beta):
            raise ParameterError("beta must be finite")
        if beta <= 0.0 and beta == math.floor(beta):
            raise ParameterError(f"gfd needs beta not in {{0, -1, -2, ...}}; got {beta!r}")
        try:
            g = math.gamma(beta), math.gamma(beta - alpha + 1.0)
            # a subnormal or underflowed gamma leaves too few digits for c0
            c0 = g[0] / g[1] if min(map(abs, g)) >= sys.float_info.min else math.inf
        except ValueError:
            raise ParameterError(
                f"gamma pole at beta={beta!r}, alpha={alpha!r}: "
                "beta - alpha + 1 must avoid {0, -1, -2, ...}"
            ) from None
        except OverflowError:
            c0 = math.inf
        if math.isinf(c0):  # the quotient of two normal gammas may overflow too
            raise ParameterError(
                f"gfd coefficient Gamma(beta)/Gamma(beta - alpha + 1) is out of "
                f"float range at beta={beta!r}, alpha={alpha!r}")
        label += f", beta={beta:g}"
    if F is None:
        c = Num(c0)
        fe, forms = None, _expression_forms(substitute(row.p, "c0", c), alpha,
                                            substitute(row.mult, "c0", c))
    else:  # nderiv: p = t + h*F, whose h-derivative folds to the F node itself
        fe = _coerce_expr(F, frozenset({"t", "alpha"}), "nderiv F")
        forms = _expression_forms(BinOp("+", Var("t"), BinOp("*", Var("h"), fe)), alpha)
        label += ", F=..."
        for t in (0.1, 1.0, 10.0):  # |h| <= t/(4|F(t)|) keeps p in (0, inf) where F is finite
            try:
                v = forms[1](t)
            except EvaluationError:
                continue  # p fails there too
            if not math.isfinite(v):
                raise ParameterError(f"{kind}({label}): F({t:g}) = {v!r}, so p(t, h) "
                                     f"leaves the domain {row.domain}")
    return PFunction(kind, alpha, beta, fe, row.domain, f"{kind}({label})", *forms)


# --- solvability of p(t, h) = t +- eps near h = 0 ---------------------------

DEFAULT_EPSILONS = tuple(10.0 ** (-k) for k in range(2, 9))
_DOUBLINGS = 64  # points of each doubling row h = +-1e-18 * 2^k


@dataclass(frozen=True)
class EpsilonRecord:
    """Solutions of p(t, h) = t + eps and p(t, h) = t - eps, if found."""

    epsilon: float
    h_plus: float | None
    h_minus: float | None
    gap_plus: float | None
    gap_minus: float | None


@dataclass(frozen=True)
class SolvabilityReport:
    t: float
    records: tuple[EpsilonRecord, ...]
    verdict_plus: bool
    verdict_minus: bool

    @property
    def both(self) -> bool:
        return self.verdict_plus and self.verdict_minus


def check_offset_solvability(
    fam: PFunction,
    t: float,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
) -> SolvabilityReport:
    """Probe whether both one-sided offsets of t are reachable by p(t, .).

    A side's verdict is true when every epsilon produced a root h and the
    root magnitudes shrink toward 0 as epsilon does.  Absence of a root is
    an outcome, never an error.
    """
    fam.require(t)
    eps = tuple(float(e) for e in epsilons)
    if not eps:
        raise ParameterError("need at least one epsilon")
    if not all(math.isfinite(e) for e in eps):
        raise ParameterError("epsilons must be finite")
    if any(e <= 0.0 for e in eps):
        raise ParameterError("epsilons must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ParameterError("epsilons must be strictly decreasing")

    def value(h: float) -> float | None:
        try:
            v = fam.p(t, h)
        except EvaluationError:
            return None
        return v if math.isfinite(v) else None

    # p(t, 0) and the doubling rows h = +-1e-18 * 2^k, each up to its first
    # failure, do not depend on the target, so every target shares them
    v0, rows = value(0.0), []
    for sign in (1.0, -1.0) if v0 is not None else ():
        row, h = [], 1e-18 * sign
        while len(row) < _DOUBLINGS and (v := value(h)) is not None:
            row.append((h, v))
            h *= 2.0
        rows.append(row)
    records = []
    for e in eps:
        hp, gp = _solve_offset(value, v0, rows, t, t + e)
        hm, gm = _solve_offset(value, v0, rows, t, t - e)
        records.append(EpsilonRecord(e, hp, hm, gp, gm))
    return SolvabilityReport(
        t=t,
        records=tuple(records),
        verdict_plus=_shrinking([r.h_plus for r in records]),
        verdict_minus=_shrinking([r.h_minus for r in records]),
    )


def _shrinking(hs: list[float | None]) -> bool:
    if any(h is None for h in hs):
        return False
    mags = [abs(h) for h in hs]  # type: ignore[arg-type]
    if len(mags) == 1:
        return True
    ordered = all(b <= a * (1.0 + 1e-12) for a, b in zip(mags, mags[1:]))
    return ordered and mags[-1] < mags[0]


def _solve_offset(
    value: Callable[[float], float | None], v0: float | None,
    rows: list[list[tuple[float, float]]], t: float, target: float,
) -> tuple[float | None, float | None]:
    """The root of p(t, h) = target nearest 0 from the first sign change
    of each doubling row, bisected, and its gap |p(t, h) - target|."""
    def resid(h: float) -> float | None:
        v = value(h)
        return None if v is None else v - target

    if v0 is None or v0 - target == 0.0:
        return None, None  # degenerate target; h=0 is not an admissible root

    best: tuple[float, float] | None = None
    for row in rows:
        prev_h, prev_r = 0.0, v0 - target
        for h, v in row:
            r = v - target
            if r == 0.0 or (r > 0.0) != (prev_r > 0.0):
                root = h if r == 0.0 else _bisect(resid, prev_h, h, prev_r, 128)[0]
                rr = resid(root)
                gap = abs(rr) if rr is not None else math.inf
                if best is None or abs(root) < abs(best[0]):
                    best = (root, gap)
                break
            prev_h, prev_r = h, r

    if best is None:
        return None, None
    root, gap = best
    if gap > 1e-3 * abs(target - t):
        return None, None
    return root, gap


def _bisect(res: Callable[[float], float | None], lo: float, hi: float, rlo: float,
            steps: int, width: float = 0.0) -> tuple[float, float, float]:
    """Halve a bracket of a sign change of res, with res(lo) = rlo, for at
    most `steps` steps or until it is at most `width` wide, and return
    (root, lo, hi).  hi may lie below lo; a residual of None counts as
    past the root."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if abs(hi - lo) <= width or mid == lo or mid == hi:
            break
        rm = res(mid)
        if rm == 0.0:
            return mid, mid, mid
        if rm is not None and (rm > 0.0) == (rlo > 0.0):
            lo, rlo = mid, rm
        else:
            hi = mid
    return 0.5 * (lo + hi), lo, hi


# --- integrability of 1/|ph_zero| --------------------------------------------

@dataclass(frozen=True)
class L1Report:
    """The integral of 1/|ph_zero| over [a, b], or a divergence verdict.

    estimate is inf when diverged and nan when the quadrature gave up
    short of a verdict; levels is the number of quadrature panels used
    (0 when no integral was formed).
    """

    interval: tuple[float, float]
    estimate: float
    converged: bool
    levels: int
    diverged: bool


def check_l1(fam: PFunction, a: float, b: float, tol: float = 1e-8) -> L1Report:
    """Integrate 1/|ph_zero| over [a, b] with integrate_graded.

    converged means the error estimate is within error_target(tol, value).
    A vanishing or failing multiplier, or an endpoint exponent of 0.98 or
    more (the endpoint grading's resolution limit), reports divergence
    instead of raising; any other quadrature failure reports no convergence.
    """
    if not a < b:
        raise ParameterError(f"need a < b, got [{a!r}, {b!r}]")
    if not (fam.domain.contains_closure(a) and fam.domain.contains_closure(b)):
        raise DomainError(
            f"[{a!r}, {b!r}] not within the closure of the {fam.label} domain {fam.domain}")
    from .quadrature import error_target, integrate_graded  # pcalc deriv never loads it

    try:
        value, err, panels, _ = integrate_graded(
            lambda x: 1.0 / abs(fam._ph0(x)), a, b, tol)
    except (NonIntegrableError, EvaluationError, ZeroDivisionError):
        return L1Report((a, b), math.inf, False, 0, True)
    except QuadratureError:
        return L1Report((a, b), math.nan, False, 0, False)
    return L1Report((a, b), value, err <= error_target(tol, value), panels, False)
