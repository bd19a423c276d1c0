"""Weighted integrals along a deformation family, and the calculus checks.

The antiderivative pairing divides the integrand by the multiplier:
I(f)(t) = integral of f(x)/ph_zero(x) over [a, t].  Endpoint blowups of
1/ph_zero (khalil-style at 0) are handled by the graded quadrature layer.

ftc_forward and ftc_backward quantify both directions of the fundamental
theorem, ftc_forward by taking p_derivative_limit of the running integral;
integration_by_parts_check does the same for the product rule in integral
form.  All three return plain residual magnitudes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .derivatives import FormulaRoute, as_scalar_fn, p_derivative_limit
from .errors import EvaluationError, NonIntegrableError, ParameterError, QuadratureError
from .expr import Expr
from .families import PFunction
from .quadrature import integrate_graded

__all__ = ["QuadratureResult", "p_integral",
           "ftc_forward", "ftc_backward", "integration_by_parts_check"]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int
    graded: bool


def _weighted_integrand(fam: PFunction,
                        fn: Callable[[float], float]) -> Callable[[float], float]:
    def g(x: float) -> float:
        d = fam.ph_zero(x)
        if d == 0.0:
            raise NonIntegrableError(
                f"multiplier of {fam.label} vanishes at x={x!r}; "
                "1/ph_zero is not integrable across that point"
            )
        return fn(x) / d

    return g


def _require_interval(fam: PFunction, a: float, t: float) -> None:
    if not a <= t:
        raise ParameterError(f"need a <= t, got a={a!r}, t={t!r}")
    if not (fam.domain.contains_closure(a) and fam.domain.contains_closure(t)):
        raise ParameterError(
            f"[{a!r}, {t!r}] not within the closure of the {fam.label} domain {fam.domain}"
        )


def p_integral(fam: PFunction, f: Expr | str | Callable[[float], float],
               a: float, t: float, tol: float = 1e-8) -> QuadratureResult:
    """Integrate f(x)/ph_zero(x) over [a, t] to error_target(tol, value)."""
    _require_interval(fam, a, t)
    if a == t:
        return QuadratureResult(0.0, 0.0, 0, False)
    fn, _ = as_scalar_fn(f)
    value, err, panels, graded = integrate_graded(_weighted_integrand(fam, fn), a, t, tol)
    return QuadratureResult(value, err, panels, graded)


def ftc_forward(fam: PFunction, f: Expr | str | Callable[[float], float],
                a: float, t: float, tol: float = 1e-8) -> float:
    """|derivative-of-the-integral residual| at an interior point t.

    Differentiates the running integral, I(f)(x) - I(f)(t), with
    p_derivative_limit and compares the limit against f(t).  Each level
    integrates only [t, x], x = p(t, h), the inner tolerance scaled by
    |x - t| / |ph_zero(t)| (about |h|) and max(1, |f(t)|), so the quotient
    noise stays near tol/100 of that scale; a failed quadrature is NaN.
    """
    if not a < t:
        raise ParameterError(f"need a < t, got a={a!r}, t={t!r}")
    fam.require(t)
    fn, _ = as_scalar_fn(f)
    f_t = fn(t)
    if not math.isfinite(f_t):
        raise EvaluationError(f"f({t!r}) is not finite")
    g = _weighted_integrand(fam, fn)
    scale = (tol / 100.0) * max(1.0, abs(f_t))

    def running(x: float) -> float:
        if x == t:
            return 0.0
        fam.require(x)
        lo, hi = min(x, t), max(x, t)
        try:
            seg = integrate_graded(g, lo, hi, scale * (hi - lo) / (abs(fam.ph_zero(t)) or 1.0))[0]
        except QuadratureError:
            return math.nan
        return seg if x > t else -seg

    return abs(p_derivative_limit(fam, running, t, tol=tol, max_levels=16).value - f_t)


def ftc_backward(fam: PFunction, F: Expr | str, a: float, b: float,
                 tol: float = 1e-8) -> float:
    """|integral-of-the-derivative residual| over [a, b].

    The derivative of F is taken on the product-formula route and pushed
    back through the weighted quadrature, so both halves of the pairing
    are exercised rather than cancelled symbolically.  The quadrature's
    tolerance is scaled by max(1, |F(a)|, |F(b)|).
    """
    fn, e = as_scalar_fn(F)
    if e is None:
        raise ParameterError("ftc_backward needs F as an expression")
    _require_interval(fam, a, b)
    fa, fb = fn(a), fn(b)
    res = p_integral(fam, FormulaRoute(fam, e), a, b, tol * max(1.0, abs(fa), abs(fb)))
    return abs(res.value - (fb - fa))


def integration_by_parts_check(fam: PFunction, f: Expr | str, g: Expr | str,
                               a: float, b: float, tol: float = 1e-8) -> float:
    """Residual of the integral product rule over [a, b].

    Compares I(f * Dg) against [f*g] at the endpoints minus I(Df * g),
    with both derivatives on the product-formula route and the
    quadrature's tolerance scaled by max(1, |f(a)g(a)|, |f(b)g(b)|).
    """
    ffn, fe = as_scalar_fn(f)
    gfn, ge = as_scalar_fn(g)
    if fe is None or ge is None:
        raise ParameterError("integration_by_parts_check needs f and g as expressions")
    _require_interval(fam, a, b)
    fga, fgb = ffn(a) * gfn(a), ffn(b) * gfn(b)
    tol *= max(1.0, abs(fga), abs(fgb))
    df, dg = FormulaRoute(fam, fe), FormulaRoute(fam, ge)
    lhs = p_integral(fam, lambda x: ffn(x) * dg(x), a, b, tol).value
    rhs = (fgb - fga) - p_integral(fam, lambda x: df(x) * gfn(x), a, b, tol).value
    return abs(lhs - rhs)
