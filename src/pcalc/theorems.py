"""Mean-value results, monotonicity diagnostics, and the vanishing scan.

The root searches all share one strategy: evaluate the residual on a
uniform interior grid, declare the degenerate case when it is uniformly
below tolerance, otherwise bisect the leftmost sign change; when the
residual touches zero without crossing (a kink minimum), fall back to a
golden-section squeeze of |residual| around the grid minimum.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .derivatives import DerivEstimate, as_scalar_fn, p_derivative_limit
from .errors import (
    DifferentiationError,
    EvaluationError,
    ParameterError,
    RootSearchError,
)
from .expr import Expr, differentiate, evaluate
from .families import PFunction

__all__ = [
    "MvtResult", "MonotonicityReport", "MaxPrincipleReport",
    "find_mvt_point", "find_cauchy_mvt_point", "find_rolle_point",
    "check_monotonicity_conditions", "max_principle_check",
    "polygonal", "polygonal_derivative_scan",
]

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


def _dp_evaluator(
    fam: PFunction, f: Expr | str | Callable[[float], float], tol: float
) -> Callable[[float], float]:
    """Pointwise deformation derivative, product formula when it applies.

    Falls back to the limit route at multiplier zeros and for functions
    with no symbolic derivative; the limit value is used even when its
    convergence flag is off, since the scan only needs a residual signal.
    """
    fn, e = as_scalar_fn(f)
    fprime: Expr | None = None
    if e is not None:
        try:
            fprime = differentiate(e, "t")
        except DifferentiationError:
            fprime = None

    def dp(c: float) -> float:
        if fprime is not None:
            try:
                m = fam.ph_zero(c)
                if m != 0.0:
                    v = evaluate(fprime, {"t": c})
                    if math.isfinite(v):
                        return m * v
            except EvaluationError:
                pass
        return p_derivative_limit(fam, f, c, side="both", tol=tol).value

    return dp


def _golden_min(phi: Callable[[float], float], lo: float, hi: float,
                width: float) -> tuple[float, float, float]:
    while hi - lo > width:
        x1 = hi - _INVPHI * (hi - lo)
        x2 = lo + _INVPHI * (hi - lo)
        if phi(x1) < phi(x2):
            hi = x2
        else:
            lo = x1
    return 0.5 * (lo + hi), lo, hi


def _bisect_sign_change(res: Callable[[float], float], lo: float, hi: float,
                        rlo: float) -> tuple[float, float, float]:
    for _ in range(200):
        if hi - lo <= _SIGN_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        rm = res(mid)
        if rm == 0.0:
            return mid, mid, mid
        if (rm > 0.0) == (rlo > 0.0):
            lo, rlo = mid, rm
        else:
            hi = mid
    return 0.5 * (lo + hi), lo, hi


def _scan_for_root(residual: Callable[[float], float], a: float, b: float,
                   tol: float) -> tuple[float, tuple[float, float], bool]:
    """Locate c in (a, b) with residual(c) ~ 0; see module docstring."""
    cs = a + (b - a) * np.arange(1, _GRID_N + 1) / (_GRID_N + 1)
    rs = np.array([residual(c) for c in cs])

    if float(np.max(np.abs(rs))) < tol:
        return 0.5 * (a + b), (a, b), True

    for i in range(len(cs) - 1):
        if rs[i] == 0.0:
            return float(cs[i]), (float(cs[i]), float(cs[i])), False
        if rs[i] * rs[i + 1] < 0.0:
            c, lo, hi = _bisect_sign_change(residual, float(cs[i]), float(cs[i + 1]),
                                            float(rs[i]))
            return c, (lo, hi), False

    # no crossing: squeeze |residual| around the grid minimum
    i0 = int(np.argmin(np.abs(rs)))
    lo = float(cs[i0 - 1]) if i0 > 0 else float(cs[0])
    hi = float(cs[i0 + 1]) if i0 < len(cs) - 1 else float(cs[-1])
    c, lo, hi = _golden_min(lambda x: abs(residual(x)), lo, hi, _KINK_WIDTH)
    if abs(residual(c)) < tol:
        return c, (lo, hi), False
    raise RootSearchError(
        f"no sign change and no residual below {tol:g} in ({a!r}, {b!r})",
        grid=tuple(float(x) for x in cs),
        residuals=tuple(float(r) for r in rs),
    )


def find_mvt_point(fam: PFunction, f: Expr | str | Callable[[float], float],
                   a: float, b: float, tol: float = 1e-8) -> MvtResult:
    """Find c in (a, b) where the deformation derivative matches the
    multiplier-weighted secant slope of f."""
    if not a < b:
        raise ParameterError(f"need a < b, got [{a!r}, {b!r}]")
    fn, _ = as_scalar_fn(f)
    slope = (fn(b) - fn(a)) / (b - a)
    dp = _dp_evaluator(fam, f, tol / 10.0)

    def residual(c: float) -> float:
        return dp(c) - slope * fam.ph_zero(c)

    c, bracket, degenerate = _scan_for_root(residual, a, b, tol)
    if degenerate:
        return MvtResult(c, fam.ph_zero(c), abs(residual(c)), (a, b))
    return MvtResult(c, fam.ph_zero(c), abs(residual(c)), bracket)


def find_cauchy_mvt_point(fam: PFunction, f: Expr | str, g: Expr | str,
                          a: float, b: float, tol: float = 1e-8) -> MvtResult:
    """Find c where the two-function mean-value ratio balances.

    k reports the denominator derivative at c.  Preconditions checked by
    sampling: the deformation derivative of g keeps away from zero on
    (a, b), and g separates the endpoints.
    """
    if not a < b:
        raise ParameterError(f"need a < b, got [{a!r}, {b!r}]")
    ffn, fe = as_scalar_fn(f)
    gfn, ge = as_scalar_fn(g)
    if fe is not None and ge is not None and fe == ge:
        # identical numerator and denominator: every interior point works
        c = 0.5 * (a + b)
        dp_g = _dp_evaluator(fam, g, tol / 10.0)
        return MvtResult(c, dp_g(c), 0.0, (a, b))

    df = ffn(b) - ffn(a)
    dg = gfn(b) - gfn(a)
    if abs(dg) <= 1e-14 * max(1.0, abs(gfn(a)), abs(gfn(b))):
        raise ParameterError("g(b) = g(a): the two-function ratio is undefined")

    dp_f = _dp_evaluator(fam, f, tol / 10.0)
    dp_g = _dp_evaluator(fam, g, tol / 10.0)
    for j in range(1, 65):
        cj = a + (b - a) * j / 65.0
        if abs(dp_g(cj)) <= 1e-12:
            raise ParameterError(
                f"derivative of g vanishes near c={cj:g}; denominator degenerate"
            )

    def residual(c: float) -> float:
        return df * dp_g(c) - dg * dp_f(c)

    c, bracket, degenerate = _scan_for_root(residual, a, b, tol)
    if degenerate:
        return MvtResult(c, dp_g(c), abs(residual(c)), (a, b))
    return MvtResult(c, dp_g(c), abs(residual(c)), bracket)


def find_rolle_point(fam: PFunction, f: Expr | str | Callable[[float], float],
                     a: float, b: float, tol: float = 1e-8) -> MvtResult:
    """Find an interior zero of the deformation derivative.

    Requires |f| below tol at both endpoints, in keeping with the
    equal-values hypothesis.
    """
    if not a < b:
        raise ParameterError(f"need a < b, got [{a!r}, {b!r}]")
    fn, _ = as_scalar_fn(f)
    fa, fb = fn(a), fn(b)
    if abs(fa) >= tol or abs(fb) >= tol:
        raise ParameterError(
            f"endpoint values f(a)={fa!r}, f(b)={fb!r} are not both below {tol:g}"
        )
    dp = _dp_evaluator(fam, f, tol / 10.0)
    c, bracket, degenerate = _scan_for_root(dp, a, b, tol)
    if degenerate:
        return MvtResult(c, fam.ph_zero(c), abs(dp(c)), (a, b))
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


def check_monotonicity_conditions(
    fam: PFunction, t: float, h_samples: Sequence[float] = _DEFAULT_H_SAMPLES
) -> MonotonicityReport:
    fam.require(t)
    mags = tuple(float(h) for h in h_samples)
    if any(h <= 0.0 for h in mags):
        raise ParameterError("h_samples must be positive magnitudes")

    def holds(sign: float, cmp: Callable[[float, float], bool]) -> bool:
        for mag in mags:
            try:
                pt = fam.p(t, sign * mag)
            except EvaluationError:
                return False
            if not cmp(pt, t):
                return False
        return True

    return MonotonicityReport(
        t=t,
        left_decreasing=holds(-1.0, lambda pt, t0: pt < t0),
        right_increasing=holds(1.0, lambda pt, t0: pt > t0),
        sampled_h=mags,
    )


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
                        a: float, b: float, tol: float = 1e-8,
                        vanish_tol: float = 1e-4) -> MaxPrincipleReport:
    """Locate the maximum of f on [a, b] by dense sampling plus golden
    refinement, then measure the deformation derivative there."""
    if not a < b:
        raise ParameterError(f"need a < b, got [{a!r}, {b!r}]")
    fn, _ = as_scalar_fn(f)
    cs = np.linspace(a, b, 2048)
    vals = np.array([fn(c) for c in cs])
    i0 = int(np.argmax(vals))
    interior = 0 < i0 < len(cs) - 1
    lo = float(cs[max(i0 - 1, 0)])
    hi = float(cs[min(i0 + 1, len(cs) - 1)])
    c, _, _ = _golden_min(lambda x: -fn(x), lo, hi, _KINK_WIDTH)
    est = p_derivative_limit(fam, f, c, side="both", tol=tol)
    return MaxPrincipleReport(
        c=c,
        f_at_c=fn(c),
        derivative=est,
        monotonicity=check_monotonicity_conditions(fam, c),
        interior=interior,
        vanishes=abs(est.value) <= vanish_tol,
    )


# --- piecewise-linear interpolants -------------------------------------------

def polygonal(vertices: Sequence[tuple[float, float]]) -> Callable[[float], float]:
    """Piecewise-linear function through the given (x, y) vertices.

    Outside the vertex range the end segments extend linearly, so the
    result is defined on the whole line.
    """
    pts = sorted((float(x), float(y)) for x, y in vertices)
    if len(pts) < 2:
        raise ParameterError("need at least two vertices")
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    if any(x1 == x0 for x0, x1 in zip(xs, xs[1:])):
        raise ParameterError("vertex x-coordinates must be distinct")

    def f(x: float) -> float:
        i = bisect_right(xs, x) - 1
        i = min(max(i, 0), len(xs) - 2)
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = ys[i], ys[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    return f


def polygonal_derivative_scan(
    vertices: Sequence[tuple[float, float]],
    fam: PFunction,
    grid: Sequence[float],
    side: str = "both",
    tol: float = 1e-8,
) -> list[DerivEstimate]:
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
