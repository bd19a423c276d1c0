"""Mean-value results, monotonicity diagnostics, and the vanishing scan.

The root searches all share one strategy: evaluate the residual on a
uniform interior grid, declare the degenerate case when it is uniformly
below tolerance, otherwise bisect the leftmost sign change; when the
residual touches zero without crossing (a kink minimum), fall back to a
golden-section squeeze of |residual| around the grid minimum.  The grid
is one array call of the product formula (FormulaRoute.grid, which takes
abs(u)' = (u/abs(u)) u' off the kinks); expr.resolve gives the points it
leaves non-finite to the scalar route in ascending index order, the
formula where it applies and the limit route elsewhere, as do bisection
and golden refinement.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .derivatives import DerivEstimate, FormulaRoute, array_fn, as_scalar_fn, p_derivative_limit
from .errors import (DifferentiationError, EvaluationError, ParameterError, RootSearchError,
                     UsageError)
from .expr import Expr, resolve
from .families import PFunction, _bisect

# np in annotations is numpy, which only the functions that use arrays import

__all__ = ["MvtResult", "MonotonicityReport", "MaxPrincipleReport",
           "find_mvt_point", "find_cauchy_mvt_point", "find_rolle_point",
           "check_monotonicity_conditions", "max_principle_check",
           "polygonal", "polygonal_derivative_scan"]

_GRID_N = 1024
_SIGN_WIDTH = 1e-12
_KINK_WIDTH = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class MvtResult:
    """A mean-value point c with its multiplier and achieved residual.

    bracket is the enclosing interval the search ended with; the
    degenerate everything-works case is signalled by bracket == (a, b).
    """

    c: float
    k: float
    residual: float
    bracket: tuple[float, float]

    @property
    def degenerate(self) -> bool:
        return self.bracket[1] - self.bracket[0] > _KINK_WIDTH * 10.0


def _scan_derivative(fam: PFunction, fn: Callable[[float], float], e: Expr | None,
                     tol: float) -> tuple[Callable[[float], float], FormulaRoute]:
    """The scans' scalar derivative of fn (tree e, if any), and its route.
    A limit value counts even unconverged: the scans need only a signal."""
    route = FormulaRoute(fam, fn if e is None else e, kinks=True)

    def dp(c: float) -> float:
        try:
            return route(c)
        except (EvaluationError, DifferentiationError, UsageError):
            pass  # a multiplier zero or failure, a kink, or no symbolic f'
        return p_derivative_limit(fam, fn, c, side="both", tol=tol).value

    return dp, route


def _golden_min(phi: Callable[[float], float], lo: float, hi: float,
                width: float) -> tuple[float, float, float]:
    while hi - lo > width:
        x1, x2 = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
        if phi(x1) < phi(x2):
            hi = x2
        else:
            lo = x1
    return 0.5 * (lo + hi), lo, hi


def _scan_for_root(residual: Callable[[float], float], a: float, b: float, tol: float,
                   grid: Callable[[np.ndarray], np.ndarray]) -> tuple[float, tuple[float, float]]:
    """Locate c in (a, b) with residual(c) ~ 0; see module docstring."""
    import numpy as np
    cs = a + (b - a) * np.arange(1, _GRID_N + 1) / (_GRID_N + 1)
    rs = resolve(grid(cs), cs, residual)

    if float(np.max(np.abs(rs))) < tol:
        return 0.5 * (a + b), (a, b)

    with np.errstate(all="ignore"):
        hits = np.flatnonzero((rs[:-1] == 0.0) | (rs[:-1] * rs[1:] < 0.0))
    if hits.size:  # the leftmost zero or sign change
        i = int(hits[0])
        if rs[i] == 0.0:
            return float(cs[i]), (float(cs[i]), float(cs[i]))
        c, lo, hi = _bisect(residual, float(cs[i]), float(cs[i + 1]), float(rs[i]),
                            200, _SIGN_WIDTH)
        return c, (lo, hi)

    # no crossing: squeeze |residual| around the grid minimum
    i0 = int(np.argmin(np.abs(rs)))
    lo, hi = float(cs[max(i0 - 1, 0)]), float(cs[min(i0 + 1, len(cs) - 1)])
    c, lo, hi = _golden_min(lambda x: abs(residual(x)), lo, hi, _KINK_WIDTH)
    if abs(residual(c)) < tol:
        return c, (lo, hi)
    raise RootSearchError(f"no sign change and no residual below {tol:g} in ({a!r}, {b!r})",
                          grid=tuple(cs.tolist()), residuals=tuple(rs.tolist()))


def _need_interval(a: float, b: float) -> None:  # the searches sample grids over [a, b]
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ParameterError(f"need finite a < b, got [{a!r}, {b!r}]")


def find_mvt_point(fam: PFunction, f: Expr | str | Callable[[float], float],
                   a: float, b: float, tol: float = 1e-8) -> MvtResult:
    """Find c in (a, b) where the deformation derivative matches the
    multiplier-weighted secant slope of f."""
    import numpy as np
    _need_interval(a, b)
    fn, e = as_scalar_fn(f)
    slope = (fn(b) - fn(a)) / (b - a)
    dp, route = _scan_derivative(fam, fn, e, tol / 10.0)

    def residual(c: float) -> float:
        return dp(c) - slope * fam.ph_zero(c)

    def grid(cs: np.ndarray) -> np.ndarray:
        mult = fam.ph_zero_array(cs)
        with np.errstate(all="ignore"):
            return route.grid(cs, mult) - slope * mult

    c, bracket = _scan_for_root(residual, a, b, tol, grid)
    return MvtResult(c, fam.ph_zero(c), abs(residual(c)), bracket)


def find_cauchy_mvt_point(fam: PFunction, f: Expr | str, g: Expr | str,
                          a: float, b: float, tol: float = 1e-8) -> MvtResult:
    """Find c where the two-function mean-value ratio balances.

    k reports the denominator derivative at c.  Preconditions checked by
    sampling: the deformation derivative of g keeps away from zero on
    (a, b), and g separates the endpoints.
    """
    import numpy as np
    _need_interval(a, b)
    ffn, fe = as_scalar_fn(f)
    gfn, ge = as_scalar_fn(g)
    if fe is not None and ge is not None and fe == ge:
        # identical numerator and denominator: every interior point works
        c = 0.5 * (a + b)
        return MvtResult(c, _scan_derivative(fam, gfn, ge, tol / 10.0)[0](c), 0.0, (a, b))

    df, dg = ffn(b) - ffn(a), gfn(b) - gfn(a)
    if abs(dg) <= 1e-14 * max(1.0, abs(gfn(a)), abs(gfn(b))):
        raise ParameterError("g(b) = g(a): the two-function ratio is undefined")

    dp_f, route_f = _scan_derivative(fam, ffn, fe, tol / 10.0)
    dp_g, route_g = _scan_derivative(fam, gfn, ge, tol / 10.0)
    cj = a + (b - a) * np.arange(1, 65) / 65.0
    for c, v in zip(cj.tolist(), route_g.grid(cj).tolist()):  # lazy, in index order
        if abs(v if math.isfinite(v) else dp_g(c)) <= 1e-12:
            raise ParameterError(f"derivative of g vanishes near c={c:g}; denominator degenerate")

    def residual(c: float) -> float:
        return df * dp_g(c) - dg * dp_f(c)

    def grid(cs: np.ndarray) -> np.ndarray:
        mult = fam.ph_zero_array(cs)
        with np.errstate(all="ignore"):
            return df * route_g.grid(cs, mult) - dg * route_f.grid(cs, mult)

    c, bracket = _scan_for_root(residual, a, b, tol, grid)
    return MvtResult(c, dp_g(c), abs(residual(c)), bracket)


def find_rolle_point(fam: PFunction, f: Expr | str | Callable[[float], float],
                     a: float, b: float, tol: float = 1e-8) -> MvtResult:
    """Find an interior zero of the deformation derivative.

    Requires |f| below tol at both endpoints, in keeping with the
    equal-values hypothesis.
    """
    _need_interval(a, b)
    fn, e = as_scalar_fn(f)
    fa, fb = fn(a), fn(b)
    if abs(fa) >= tol or abs(fb) >= tol:
        raise ParameterError(
            f"endpoint values f(a)={fa!r}, f(b)={fb!r} are not both below {tol:g}"
        )
    dp, route = _scan_derivative(fam, fn, e, tol / 10.0)
    c, bracket = _scan_for_root(dp, a, b, tol, route.grid)
    return MvtResult(c, fam.ph_zero(c), abs(dp(c)), bracket)


# --- monotone deformation and interior extrema -------------------------------

_DEFAULT_H_SAMPLES = tuple(10.0 ** (-k) for k in range(1, 9))


@dataclass(frozen=True)
class MonotonicityReport:
    """Sampled one-sided displacement signs of p(t, .) at a point.

    right_increasing: p(t, h) > t for every sampled h > 0.
    left_decreasing:  p(t, h) < t for every sampled h < 0.
    Families violating the left condition (even powers of h) still admit
    one-sided derivative statements on the right.
    """

    t: float
    left_decreasing: bool
    right_increasing: bool
    sampled_h: tuple[float, ...]


def check_monotonicity_conditions(fam: PFunction, t: float,
                                  h_samples: Sequence[float] = _DEFAULT_H_SAMPLES,
                                  ) -> MonotonicityReport:
    fam.require(t)
    mags = tuple(float(h) for h in h_samples)
    if any(h <= 0.0 for h in mags):
        raise ParameterError("h_samples must be positive magnitudes")

    def holds(sign: float) -> bool:
        # p(t, sign * mag) lies on the sign side of t for every magnitude
        for mag in mags:
            try:
                pt = fam.p(t, sign * mag)
            except EvaluationError:
                return False
            if not (pt > t if sign > 0.0 else pt < t):
                return False
        return True

    return MonotonicityReport(t=t, left_decreasing=holds(-1.0),
                              right_increasing=holds(1.0), sampled_h=mags)


@dataclass(frozen=True)
class MaxPrincipleReport:
    """Interior-extremum check: at a located maximum of f, the deformation
    derivative should vanish whenever the displacement signs behave."""

    c: float
    f_at_c: float
    derivative: DerivEstimate
    monotonicity: MonotonicityReport
    interior: bool
    vanishes: bool


def max_principle_check(fam: PFunction, f: Expr | str | Callable[[float], float],
                        a: float, b: float, tol: float = 1e-8) -> MaxPrincipleReport:
    """Locate the maximum of f on [a, b] by dense sampling plus golden
    refinement, then measure the deformation derivative there; it
    vanishes when its magnitude is at most 1e-4."""
    import numpy as np
    _need_interval(a, b)
    fn, e = as_scalar_fn(f)
    cs = np.linspace(a, b, 2048)
    vals = array_fn(fn, e)(cs)
    i0 = int(np.argmax(vals))
    interior = 0 < i0 < len(cs) - 1
    lo, hi = float(cs[max(i0 - 1, 0)]), float(cs[min(i0 + 1, len(cs) - 1)])
    c, _, _ = _golden_min(lambda x: -fn(x), lo, hi, _KINK_WIDTH)
    est = p_derivative_limit(fam, fn, c, side="both", tol=tol)
    return MaxPrincipleReport(c=c, f_at_c=fn(c), derivative=est,
                              monotonicity=check_monotonicity_conditions(fam, c),
                              interior=interior, vanishes=abs(est.value) <= 1e-4)


# --- piecewise-linear interpolants -------------------------------------------

def polygonal(vertices: Sequence[tuple[float, float]]) -> Callable[[float], float]:
    """Piecewise-linear function through the given (x, y) vertices.

    Outside the vertex range the end segments extend linearly, so the
    result is defined on the whole line.
    """
    pts = sorted((float(x), float(y)) for x, y in vertices)
    if len(pts) < 2:
        raise ParameterError("need at least two vertices")
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    if any(x1 == x0 for x0, x1 in zip(xs, xs[1:])):
        raise ParameterError("vertex x-coordinates must be distinct")

    def f(x: float) -> float:
        i = bisect_right(xs, x) - 1
        i = min(max(i, 0), len(xs) - 2)
        x0, x1, y0, y1 = xs[i], xs[i + 1], ys[i], ys[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    return f


def polygonal_derivative_scan(vertices: Sequence[tuple[float, float]], fam: PFunction,
                              grid: Sequence[float], side: str = "both",
                              tol: float = 1e-8) -> list[DerivEstimate]:
    """Limit-route derivatives of a polygonal function on a grid of points.

    Only meaningful for families whose multiplier vanishes identically and
    which leave t fixed at h=0 (the derivative is then 0 everywhere, kinks
    included); both properties are verified at each grid point.
    """
    f = polygonal(vertices)
    out: list[DerivEstimate] = []
    for t in grid:
        t = float(t)
        if fam.ph_zero(t) != 0.0:
            raise ParameterError(
                f"{fam.label} has nonvanishing multiplier at t={t!r}; "
                "the polygonal scan needs ph_zero identically 0"
            )
        if abs(fam.p(t, 0.0) - t) > 1e-12:
            raise ParameterError(f"{fam.label} does not fix t={t!r} at h=0")
        out.append(p_derivative_limit(fam, f, t, side=side, tol=tol))
    return out
