"""Derivatives along a deformation family.

Two routes:

- p_derivative_limit extrapolates the difference quotient
  (f(p(t, h)) - f(t)) / h to h -> 0 along a geometric ladder of step
  sizes, one Neville polynomial extrapolation per side.  It is the one
  limit ladder: integrals.ftc_forward runs it on a running integral.
- p_derivative_formula evaluates ph_zero(t) * f'(t), valid only where the
  multiplier is nonzero and f is symbolically differentiable: one point
  of FormulaRoute, whose grid call covers an array of points at once.

compare_definitions runs the limit route under two families at the same
point and reports the observed and predicted ratio.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DifferentiationError, EvaluationError, PcalcError, UsageError
from .expr import (EXPR_TYPES, Expr, _differentiate, _memo, compile_array, compile_expr,
                   differentiate, parse, resolve)
from .families import PFunction

# np in annotations is numpy, which only the functions that use arrays import

__all__ = ["DerivEstimate", "ComparisonReport",
           "p_derivative_limit", "p_derivative_formula", "compare_definitions"]

_EPS = sys.float_info.epsilon
_SIDES = ("both", "left", "right")


@dataclass(frozen=True)
class DerivEstimate:
    """Extrapolated difference-quotient limit.

    h_sequence and quotient_sequence hold the raw ladder actually used
    (levels skipped for domain or noise reasons are absent); for
    side="both" the right-side entries come first, then the left.
    converged=False still carries the best value found: error_estimate is
    then only indicative.
    """

    value: float
    error_estimate: float
    side: str
    h_sequence: tuple[float, ...]
    quotient_sequence: tuple[float, ...]
    converged: bool


def as_scalar_fn(f: Expr | str | Callable[[float], float]) -> tuple[Callable[[float], float], Expr | None]:
    """Coerce an expression, source text, or plain callable to t -> f(t).

    Expressions come back compiled (compile_expr), so the result is cheap
    to call at many points.
    """
    if isinstance(f, str):
        f = parse(f)
    if isinstance(f, EXPR_TYPES):
        return compile_expr(f), f
    if callable(f):
        return f, None
    raise UsageError(f"cannot interpret {f!r} as a function of t")


def as_array_fn(f: Expr | str | Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """as_scalar_fn for 1-d arrays of t: the values of f at every point.

    Expressions run their compile_array kernel; resolve gives the points
    it marks, and every point of a plain callable, to the scalar form in
    index order.
    """
    return array_fn(*as_scalar_fn(f))


def array_fn(fn: Callable[[float], float], e: Expr | None) -> Callable[[np.ndarray], np.ndarray]:
    """as_array_fn of what as_scalar_fn returned, without compiling e again."""
    import numpy as np
    marked = compile_array(e) if e is not None else lambda t: np.full(len(t), math.nan)
    return lambda t: resolve(marked(t), t, fn)


def extrapolate_quotient(quotient: Callable[[float], float | None], sign: float, h0: float,
                         tol: float, max_levels: int,
                         ) -> tuple[float, float, bool, list[float], list[float]]:
    """Drive quotient(h) -> h=0 along h0 * 2^-k * sign.

    quotient returns None to skip a level.  Convergence: two successive
    extrapolants (with at least three support points) agree within
    tol * max(1, |value|).  Returns (value, error, converged, hs, qs).

    The extrapolant is the Neville tableau at h=0.  Each accepted level
    adds one diagonal, diag[j] being the value of the polynomial through
    the last j+1 points, built from the previous diagonal in O(levels).
    """
    hs: list[float] = []
    qs: list[float] = []
    diag: list[float] = []
    prev: float | None = None
    last_delta = math.inf
    for k in range(max_levels):
        h = h0 * (2.0 ** (-k)) * sign
        q = quotient(h)
        if q is None:
            continue
        hs.append(h)
        qs.append(q)
        new = [q]
        for j, d in enumerate(diag):
            xi = hs[-2 - j]
            new.append((h * d - xi * new[-1]) / (h - xi))
        diag = new
        val = diag[-1]
        if prev is not None:
            last_delta = abs(val - prev)
            if len(hs) >= 3 and last_delta <= tol * max(1.0, abs(val)):
                return val, last_delta, True, hs, qs
        prev = val
    if prev is None:
        which = "left" if sign < 0 else "right"
        raise EvaluationError(
            f"difference quotient has no evaluable levels on the {which} "
            "side of h=0; the one-sided limit may still exist (side=...)"
        )
    return prev, last_delta, False, hs, qs


def p_derivative_limit(fam: PFunction, f: Expr | str | Callable[[float], float], t: float,
                       side: str = "both", tol: float = 1e-8,
                       max_levels: int = 30) -> DerivEstimate:
    """Estimate the deformation derivative of f at t from its definition.

    Levels where f(p(t, h)) fails to evaluate are skipped; so are levels
    where p(t, h) rounds to t, or whose numerator is nonzero yet below the
    rounding floor of f(t), since those quotients carry no signal.
    One-sided requests use only the matching sign of h.  The ladder starts
    at h0 = 1e-2 max(1, |t|), halved while p(t, +-h0) moves t by more than
    a quarter of max(1, |t|) and of the distance to each domain edge t is
    not on (by 0 where p raises), so that its first level stays local;
    that level reuses the check's p(t, +-h0).
    """
    if side not in _SIDES:
        raise UsageError(f"side must be one of {_SIDES}, got {side!r}")
    fam.require(t)
    fn, _ = as_scalar_fn(f)
    f_t = fn(t)
    if not math.isfinite(f_t):
        raise EvaluationError(f"f({t!r}) is not finite")
    noise_floor = 1e3 * _EPS * abs(f_t)
    pending: list[float | None] = []  # the h0 check's p(t, h) for level 0, None where p raised

    def p_at(h: float) -> float | None:  # p(t, h), None where p raises
        try:
            return fam.p(t, h)
        except EvaluationError:
            return None

    def quotient(h: float) -> float | None:
        try:
            x = pending.pop() if pending else fam.p(t, h)
            if x is None:
                return None
            fp = fn(x)
        except EvaluationError:
            return None
        if x == t or not math.isfinite(fp):  # p(t, h) rounds to t: no signal
            return None
        num = fp - f_t
        if num != 0.0 and abs(num) < noise_floor:
            return None
        q = num / h
        return q if math.isfinite(q) else None

    h0, dom = max(1e-2, 1e-2 * abs(t)), fam.domain
    reach = 0.25 * min(max(1.0, abs(t)), t - dom.lo or math.inf, dom.hi - t or math.inf)
    while h0 > 1e-300:  # a side where p raises, or gives NaN, does not move t
        xr = p_at(h0)
        if xr is None or not abs(xr - t) > reach:
            xl = p_at(-h0)
            if xl is None or not abs(xl - t) > reach:
                break
        h0 *= 0.5
    else:  # h0 ran out: the check's last values are those of 2*h0
        xr, xl = p_at(h0), p_at(-h0)
    if side == "right" or side == "left":
        sign = 1.0 if side == "right" else -1.0
        pending.append(xr if side == "right" else xl)
        val, err, conv, hs, qs = extrapolate_quotient(quotient, sign, h0, tol, max_levels)
        return DerivEstimate(val, err, side, tuple(hs), tuple(qs), conv)

    pending.append(xr)  # every ladder's first level is level 0
    vr, er, cr, hr, qr = extrapolate_quotient(quotient, 1.0, h0, tol, max_levels)
    pending.append(xl)
    vl, el, cl, hl, ql = extrapolate_quotient(quotient, -1.0, h0, tol, max_levels)
    value = 0.5 * (vr + vl)
    gap = abs(vr - vl)
    agree = gap <= 10.0 * tol * max(1.0, abs(value))
    converged = cr and cl and agree
    err = max(er, el) if agree else max(er, el, 0.5 * gap)
    return DerivEstimate(value, err, "both",
                         tuple(hr) + tuple(hl), tuple(qr) + tuple(ql), converged)


class FormulaRoute:
    """ph_zero(t) * f'(t) for one f under one family, at a point or a grid.

    f' is derived at the first call past the multiplier checks; kinks=True
    adds abs(u)' = (u/abs(u)) u', 0/0 where u = 0; route(t) runs f' compiled.
    route.grid(ts), ts 1-d, gives one array: route(ts[i]) to a few ulp
    where it is finite, NaN or inf where the scalar route decides, which
    is where f' or the product is not finite, the multiplier is 0 or
    marked by fam.ph_zero_array, or the array kernel of f' marks the point.
    It never raises.  Callers resolve those points on a scalar route in
    index order, and pass mult = fam.ph_zero_array(ts) when they have it.
    """

    def __init__(self, fam: PFunction, f: Expr | str | Callable[[float], float],
                 fprime: Expr | str | Callable[[float], float] | None = None,
                 kinks: bool = False) -> None:
        self.fam, self._spec = fam, (f, fprime, kinks)
        self._fprime = self._fn = self._kernel = None

    def _derivative(self) -> Expr | Callable[[float], float]:
        # f' as a tree, or the callable given as fprime
        if self._fprime is None:
            f, fprime, kinks = self._spec
            if fprime is None:
                e = parse(f) if isinstance(f, str) else f
                if not isinstance(e, EXPR_TYPES):
                    raise UsageError(
                        "formula route needs an expression for f, or an explicit fprime"
                    )
                fprime = _memo(_differentiate, e)(e, "t", True) if kinks else differentiate(e)
            self._fprime = parse(fprime) if isinstance(fprime, str) else fprime
        return self._fprime

    def __call__(self, t: float) -> float:
        mult = self.fam.ph_zero(t)
        if mult == 0.0:
            raise EvaluationError(
                f"multiplier of {self.fam.label} vanishes at t={t!r}; "
                "the product formula does not apply (use p_derivative_limit)"
            )
        if self._fn is None:
            fp = self._derivative()
            self._fn = compile_expr(fp) if isinstance(fp, EXPR_TYPES) else fp
        d = self._fn(t)
        if not math.isfinite(d):
            raise EvaluationError(f"f'({t!r}) is not finite")
        return mult * d

    def grid(self, ts: np.ndarray, mult: np.ndarray | None = None) -> np.ndarray:
        import numpy as np
        try:
            fp = self._derivative()
        except PcalcError:
            fp = None
        if not isinstance(fp, EXPR_TYPES):
            return np.full(len(ts), math.nan)
        mult = self.fam.ph_zero_array(ts) if mult is None else mult
        self._kernel = self._kernel or compile_array(fp)
        with np.errstate(all="ignore"):
            return np.where(mult == 0.0, math.nan, mult * self._kernel(ts))


def p_derivative_formula(fam: PFunction, f: Expr | str | Callable[[float], float], t: float,
                         fprime: Expr | str | Callable[[float], float] | None = None) -> float:
    """Product form ph_zero(t) * f'(t).

    Raises EvaluationError where the multiplier vanishes (the formula says
    nothing there; use p_derivative_limit) and DifferentiationError when f
    cannot be differentiated symbolically and no fprime was supplied.
    """
    return FormulaRoute(fam, f, fprime)(t)


@dataclass(frozen=True)
class ComparisonReport:
    """Limit-route derivatives of the same f under two families."""

    value_1: float
    value_2: float
    abs_diff: float
    ratio: float
    expected_ratio: float | None
    converged_1: bool
    converged_2: bool


def compare_definitions(fam1: PFunction, fam2: PFunction,
                        f: Expr | str | Callable[[float], float], t: float,
                        tol: float = 1e-8, side: str = "both") -> ComparisonReport:
    """Run the limit definition under two families at one point.

    expected_ratio is the multiplier quotient ph_zero_1(t)/ph_zero_2(t)
    when both multipliers are available and the second is nonzero; the
    observed ratio should match it wherever the product formula holds.
    """
    e1 = p_derivative_limit(fam1, f, t, side=side, tol=tol)
    e2 = p_derivative_limit(fam2, f, t, side=side, tol=tol)
    v1, v2 = e1.value, e2.value
    if v2 != 0.0:
        ratio = v1 / v2
    else:
        ratio = math.nan if v1 == 0.0 else math.copysign(math.inf, v1)
    expected: float | None
    try:
        m1, m2 = fam1.ph_zero(t), fam2.ph_zero(t)
        expected = m1 / m2 if m2 != 0.0 else None
    except (EvaluationError, DifferentiationError):
        expected = None
    return ComparisonReport(v1, v2, abs(v1 - v2), ratio, expected,
                            e1.converged, e2.converged)
