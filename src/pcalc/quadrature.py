"""Adaptive Gauss-Kronrod quadrature with graded endpoint handling.

The core rule is the 15-point Kronrod extension of 7-point Gauss (open:
no endpoint evaluations), driven by worst-panel-first bisection.  Endpoint
singularities of algebraic type |g(x)| ~ (x-a)^(-gamma), 0 < gamma < 1,
are detected by the least-squares log-log line `_line_fit` through six
probes and removed with the change of variable x = a + u^m, m =
3/(1-gamma), which maps the integrand to a bounded, vanishing one near
u = 0.  A panel samples and sums its 15 nodes as Python floats.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections.abc import Callable

from .errors import EvaluationError, NonIntegrableError, QuadratureError

__all__ = [
    "gk15", "integrate_adaptive", "integrate_graded", "endpoint_exponent", "error_target",
]

# 15-point Kronrod / 7-point Gauss abscissae and weights (positive half).
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
)
_WGK = (
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
)
_WG = (
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
)


def _build_rule() -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    xs: list[float] = []
    wk: list[float] = []
    wg: list[float] = []
    for i in range(8):
        gauss_w = _WG[(i - 1) // 2] if i % 2 == 1 else 0.0
        if i < 7:
            xs.extend((-_XGK[i], _XGK[i]))
            wk.extend((_WGK[i], _WGK[i]))
            wg.extend((gauss_w, gauss_w))
        else:
            xs.append(0.0)
            wk.append(_WGK[i])
            wg.append(gauss_w)
    return tuple(xs), tuple(wk), tuple(wg)


_NODES, _WEIGHTS_K, _WEIGHTS_G = _build_rule()


def gk15(fn: Callable[[float], float], a: float, b: float,
         to_x: Callable[[float], float] | None = None) -> tuple[float, float]:
    """One Gauss-Kronrod 15(7) panel.  Returns (integral, error_estimate).

    to_x maps the integration variable to the caller's coordinate for the
    panel an error reports.
    """
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    vals = [float(fn(c + hw * x)) for x in _NODES]
    # every Kronrod weight is nonzero, so a non-finite value or an
    # overflowing sum leaves res_k non-finite (float arithmetic never warns)
    res_k = hw * sum(map(operator.mul, _WEIGHTS_K, vals))
    res_g = hw * sum(map(operator.mul, _WEIGHTS_G, vals))
    if not math.isfinite(res_k):
        if to_x is not None:
            a, b = sorted((to_x(a), to_x(b)))
        raise NonIntegrableError(f"non-finite integrand value on [{a!r}, {b!r}]")
    return res_k, abs(res_k - res_g)


def error_target(tol: float, value: float) -> float:
    """The error worth refining to: tol, or the value's own rounding
    (16 eps |value|) when that is larger."""
    return max(tol, 16.0 * math.ulp(1.0) * abs(value))


def integrate_adaptive(
    fn: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    max_panels: int = 4096,
    to_x: Callable[[float], float] | None = None,
) -> tuple[float, float, int]:
    """Globally adaptive bisection; requires a <= b.

    Returns (value, error_estimate, panels), refined to error_target(tol,
    value).  Raises QuadratureError when that takes over max_panels,
    NonIntegrableError when the integrand is non-finite.  to_x maps the
    integration variable to the caller's coordinate for error locations.
    """
    if a == b:
        return 0.0, 0.0, 0
    val, err = gk15(fn, a, b, to_x)
    # heap of (-err, lo, hi, val); split the worst panel first
    heap: list[tuple[float, float, float, float]] = [(-err, a, b, val)]
    total = val
    total_err = err
    panels = 1
    min_width = abs(b - a) * 1e-14
    while total_err > error_target(tol, total) and heap:
        neg_err, lo, hi, v = heapq.heappop(heap)
        if hi - lo <= min_width:
            # cannot refine further: either roundoff-limited or an
            # undetected non-integrable spike
            near = lo if to_x is None else to_x(lo)
            raise QuadratureError(
                f"tolerance {tol!r} unreachable near x={near!r} "
                f"(residual error {total_err!r})"
            )
        mid = 0.5 * (lo + hi)
        v1, e1 = gk15(fn, lo, mid, to_x)
        v2, e2 = gk15(fn, mid, hi, to_x)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - (-neg_err)
        panels += 1
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        if panels > max_panels:
            raise QuadratureError(
                f"exceeded {max_panels} panels (error estimate {total_err!r}, "
                f"requested {tol!r})"
            )
    return total, total_err, panels


def endpoint_exponent(
    fn: Callable[[float], float],
    a: float,
    b: float,
    side: str,
) -> float | None:
    """Estimate gamma with |fn| ~ dist^(-gamma) at an endpoint, or None.

    side is "left" (endpoint a) or "right" (endpoint b); gamma is minus the
    `_line_fit` slope of log |fn| on log dist, dist = span * 10^-j, j = 2..7.
    Returns None for a bounded endpoint, the exponent for 0.05 < gamma <
    0.98, and raises NonIntegrableError at 0.98 and above: that band is
    either divergent or too close to it for float sampling to tell apart.
    """
    span = b - a
    dists = [span * 10.0 ** (-j) for j in range(2, 8)]
    logs_d: list[float] = []
    logs_v: list[float] = []
    saw_failure = False
    for d in dists:
        x = a + d if side == "left" else b - d
        try:
            v = abs(fn(x))
        except (EvaluationError, ZeroDivisionError):  # check_l1 divides by ph_zero
            saw_failure = True
            continue
        if not math.isfinite(v):
            raise NonIntegrableError(
                f"integrand is not finite near the {side} endpoint"
            )
        if v > 0.0 and x != a and x != b:  # a probe rounded onto an end is no sample
            logs_d.append(math.log(d))
            logs_v.append(math.log(v))
    if len(logs_d) < 3:
        if saw_failure:
            # cannot see the endpoint behavior; grade conservatively
            return 0.9
        return None  # integrand vanishes near the endpoint
    gamma = -_line_fit(logs_d, logs_v)[0]
    if gamma <= 0.05:
        return None
    if gamma >= 0.98:
        raise NonIntegrableError(
            f"endpoint exponent {gamma:.3f} at the {side} endpoint: "
            "integral diverges or is too singular to resolve"
        )
    return gamma


def _transform(
    fn: Callable[[float], float], end: float, sign: float, span: float,
    gamma: float, d0: float, offset: float,
) -> tuple[Callable[[float], float], float, float, Callable[[float], float]]:
    """Change of variable x = end + sign * (u^m - offset) removing a
    singularity at the pole `offset` beyond the endpoint `end` (sign +1
    at the left endpoint, -1 at the right).

    u^m is the distance from the pole, so m = 3/(1-gamma) leaves the
    transformed integrand ~u^2 right up to the start of the integration,
    the u-image of distance d0 from `end`, below which the analytic tail
    model takes over (measured from `end` instead, a pole a fraction of
    an ulp beyond it bends the integrand in a thin layer there that one
    Kronrod panel can miss by more than its error estimate); samples
    that still round onto the endpoint return the corner limit 0.  A few
    ulp from the endpoint, x rounded onto the float grid is up to 6% off
    its nominal distance, so fn's value is carried back along
    |dist + offset|^(-gamma).  Returns (g, u_lo, u_hi, u -> x).
    """
    m = 3.0 / (1.0 - gamma)

    def to_x(u: float) -> float:
        return end + sign * (u ** m - offset)

    def g(u: float) -> float:
        pole_dist = u ** m
        d = pole_dist - offset
        x = end + sign * d
        if x == end:
            return 0.0
        v = fn(x)
        dx = sign * (x - end)
        if dx != d:
            v *= ((dx + offset) / pole_dist) ** gamma
        return v * m * u ** (m - 1.0)

    return g, (d0 + offset) ** (1.0 / m), (span + offset) ** (1.0 / m), to_x


def _endpoint_tail(
    fn: Callable[[float], float],
    end: float,
    sign: float,
    span: float,
    fallback_gamma: float,
) -> tuple[float, float, float]:
    """Analytic completion of the float-blind zone at a singular endpoint.

    fn cannot be sampled closer to the endpoint than one ulp of it, yet
    with |fn| ~ A d^(-gamma) the zone inside a few ulp still carries about
    ulp^(1-gamma) of mass (~1e-8 for gamma=1/2 at a unit-scale endpoint).
    Fit (A, gamma) on distances 1024 ulp and beyond, where the distances
    themselves are exact to 0.1%, and integrate the model over [0, d0],
    d0 = 8 ulp.  Returns (d0, tail_value, tail_uncertainty, offset), offset
    being the estimated distance of the pole beyond `end`; the numeric
    integral is expected to cover distances >= d0.
    """
    ulp = math.ulp(end) or 5.0e-324
    d0 = 8.0 * ulp
    if 1024.0 * ulp > 0.01 * span:  # no distance of the fit fits in the interval
        raise QuadratureError(
            f"interval of width {span!r} near {end!r} is below float "
            "resolution; cannot resolve the endpoint singularity"
        )
    dists: list[float] = []
    vals: list[float] = []
    d = 1024.0 * ulp
    while len(dists) < 8 and d <= 0.01 * span:
        try:
            v = fn(end + sign * d)
        except EvaluationError:
            v = math.nan
        if math.isfinite(v) and v != 0.0:
            dists.append(d)
            vals.append(v)
        d *= 4.0
    if not dists:
        return d0, 0.0, 0.0, 0.0
    if len(dists) < 4:
        # not enough points for a trustworthy fit: no correction, but
        # charge the blind-zone mass bound to the uncertainty
        amp = abs(vals[-1]) * dists[-1] ** fallback_gamma
        bound = amp * d0 ** (1.0 - fallback_gamma) / (1.0 - fallback_gamma)
        return d0, 0.0, bound, 0.0
    xs = [math.log(t) for t in dists]
    ys = [math.log(abs(v)) for v in vals]
    n = len(xs)
    slope, xbar, ybar, sxx = _line_fit(xs, ys)
    resid2 = sum((y - ybar - slope * (x - xbar)) ** 2 for x, y in zip(xs, ys))
    s = math.sqrt(resid2 / (n - 2))
    sigma_slope = s / math.sqrt(sxx)
    gamma = -slope
    if gamma >= 0.98:
        raise NonIntegrableError(
            f"local endpoint exponent {gamma:.3f} near {end!r}: "
            "integral diverges or is too singular to resolve"
        )
    log_amp = ybar - slope * xbar
    amp = math.exp(log_amp)
    sgn = 1.0 if vals[0] > 0.0 else -1.0
    if any((v > 0.0) != (vals[0] > 0.0) for v in vals):
        s += 1.0  # sign changes: the power model is unreliable

    def mass(offset: float, amp: float = amp, gamma: float = gamma) -> float:
        # model mass over distances [0, d0] with the pole `offset` beyond end
        return amp * ((d0 + offset) ** (1.0 - gamma)
                      - math.copysign(abs(offset) ** (1.0 - gamma), offset)) / (1.0 - gamma)

    # The pole need not be the float endpoint itself: cos(fl(pi/2)) is
    # 6e-17, not 0.  The sample at the nearest float inside, d1 away, puts
    # it where the model meets that sample; below what the fit and its
    # rounding resolve (u, relative to d1) the pole stays on the endpoint,
    # and that resolution is charged to the uncertainty.
    offset, spread = 0.0, 0.0
    x1 = math.nextafter(end, sign * math.inf)
    try:
        v1 = fn(x1)
    except (EvaluationError, QuadratureError, ArithmeticError):
        v1 = math.nan
    if gamma > 0.05 and math.isfinite(v1) and v1 * sgn > 0.0:
        d1 = abs(x1 - end)
        ly1 = math.log(abs(v1))
        lr = (log_amp + slope * math.log(d1) - ly1) / gamma  # log((d1 + offset)/d1)
        u = (sigma_slope * abs(math.log(d1) - xbar) + s
             + 1e-14 * (abs(ybar) + abs(ly1) + abs(log_amp))) / gamma
        if abs(lr) > u:
            offset = d1 * math.expm1(min(lr, math.log(span / d1)))
        w = (d1 + offset) * min(u, 0.5)
        spread = 0.5 * (mass(offset - w) - mass(offset + w))
    tail = sgn * mass(offset)
    # model error: how far the tail moves when the fit window drops its
    # farthest or its nearest sample; a window that sees a non-integrable
    # exponent leaves the tail unbounded
    shift = 0.0
    for window in (slice(0, n - 1), slice(1, n)):
        ws, wx, wy, _ = _line_fit(xs[window], ys[window])
        shift = max(shift, abs(sgn * mass(offset, math.exp(wy - ws * wx), -ws) - tail)
                    if -ws < 0.98 else math.inf)
    rel = sigma_slope * abs(math.log(d0) - xbar) + s
    return d0, tail, abs(tail) * rel + spread + shift, offset


def _line_fit(xs: list[float], ys: list[float]) -> tuple[float, float, float, float]:
    """Least-squares line through (xs, ys): (slope, xbar, ybar, sxx)."""
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    return slope, xbar, ybar, sxx


def _graded_side(
    fn: Callable[[float], float],
    a: float,
    b: float,
    gamma: float,
    side: str,
    tol: float,
) -> tuple[float, float, int]:
    end, sign = (a, 1.0) if side == "left" else (b, -1.0)
    try:
        d0, tail, terr, offset = _endpoint_tail(fn, end, sign, b - a, gamma)
    except OverflowError:
        tail = math.inf
    if not math.isfinite(tail):  # the fitted power law leaves float range
        raise QuadratureError(f"endpoint model near {end!r} leaves float range")
    g, lo, hi, to_x = _transform(fn, end, sign, b - a, gamma, d0, offset)
    v, e, n = integrate_adaptive(g, lo, hi, tol, to_x=to_x)
    return v + tail, e + terr, n


def integrate_graded(
    fn: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
) -> tuple[float, float, int, bool]:
    """Adaptive integral of fn over [a, b] with endpoint grading.

    Returns (value, error_estimate, panels, graded).  a < b required.
    """
    ga = endpoint_exponent(fn, a, b, "left")
    gb = endpoint_exponent(fn, a, b, "right")
    if ga is None and gb is None:
        v, e, n = integrate_adaptive(fn, a, b, tol)
        return v, e, n, False
    if ga is not None and gb is not None:
        mid = 0.5 * (a + b)
        v1, e1, n1 = _graded_side(fn, a, mid, ga, "left", 0.5 * tol)
        v2, e2, n2 = _graded_side(fn, mid, b, gb, "right", 0.5 * tol)
        return v1 + v2, e1 + e2, n1 + n2, True
    gamma, side = (ga, "left") if ga is not None else (gb, "right")
    return (*_graded_side(fn, a, b, gamma, side, tol), True)
