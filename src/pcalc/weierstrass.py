"""Divergence certificates for the classical cosine lacunary series.

f(x) = sum of b^n cos(a^n pi x), a odd, 0 < b < 1.  Under the growth
condition a^(1/alpha) b > 1 + 3 pi / 2, the fractional difference
quotients (f(x + h^alpha) - f(x)) / h blow up along an explicit sequence
h_m chosen so that a^m (x + h_m^alpha) is exactly an integer.  An angle
r = n/d is held as the integers (n mod 2d, d), so r * a mod 2 is exact and
the head/tail split of the quotient is free of catastrophic cancellation;
n / d rounds correctly, as float(Fraction(n, d)) does, reduced or not.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice

from .errors import BoundViolationError, ParameterError

__all__ = [
    "WeierstrassParams", "HmStep",
    "check_growth_condition", "term_count", "weierstrass_eval",
    "build_hm_sequence", "divergence_report",
]

MAX_DIGITS = 1000  # most decimal digits x may have above or below its fraction bar
_LIMIT = 10 ** MAX_DIGITS
_TAIL_TERMS = 100_000  # most terms the collapsed tail may sum


@dataclass(frozen=True)
class WeierstrassParams:
    a: int
    b: float
    alpha: float

    def __post_init__(self) -> None:
        if not isinstance(self.a, int) or self.a < 3 or self.a % 2 == 0:
            raise ParameterError(f"a must be an odd integer >= 3, got {self.a!r}")
        if not 0.0 < self.b < 1.0:
            raise ParameterError(f"b must lie in (0, 1), got {self.b!r}")
        if not self.alpha > 1.0:
            raise ParameterError(f"alpha must exceed 1, got {self.alpha!r}")


def check_growth_condition(params: WeierstrassParams) -> bool:
    """a^(1/alpha) * b > 1 + 3 pi / 2, the divergence-rate hypothesis."""
    if params.a > sys.float_info.max:  # int-float comparison is exact
        raise ParameterError(f"a must not exceed the largest float, {sys.float_info.max!r}")
    return params.a ** (1.0 / params.alpha) * params.b > 1.0 + 1.5 * math.pi


def term_count(params: WeierstrassParams, tol: float) -> int:
    """Terms needed so the truncated series tail stays below tol."""
    if tol <= 0.0:
        raise ParameterError("tol must be positive")
    arg = tol * (1.0 - params.b)
    if arg >= 1.0:
        return 1
    return max(1, math.ceil(math.log(arg) / math.log(params.b)))


def _as_fraction(x) -> Fraction:
    """x as an exact rational with at most MAX_DIGITS digits above and below."""
    if not isinstance(x, (str, Fraction, int, float)):
        raise ParameterError(f"cannot read {x!r} as an exact rational")
    exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", x) if isinstance(x, str) else None
    try:
        if exp and abs(int(exp[1])) > MAX_DIGITS:  # Fraction would build 10**exponent
            raise ValueError(f"exponent beyond +-{MAX_DIGITS}")
        xf = Fraction(x)  # a float's exact binary value; nan and inf raise
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot read {x!r} as an exact rational: {exc}") from None
    if abs(xf.numerator) >= _LIMIT or xf.denominator >= _LIMIT:
        raise ParameterError(f"x has more than {MAX_DIGITS} digits above or below its bar")
    return xf


def _cos_pi(n: int, d: int) -> float:
    """cos(pi n / d) for 0 <= n < 2d, with n / d shifted into (-1, 1]."""
    if 2 * n % d == 0:  # n / d is 0, 1/2, 1 or 3/2: exact values
        return (1.0, 0.0, -1.0, 0.0)[2 * n // d]
    return math.cos(math.pi * ((n - 2 * d if n > d else n) / d))


def _cosines(r: Fraction, a: int) -> Iterator[float]:
    """cos(pi r a^k) for k = 0, 1, ..., each angle exact as (n mod 2d, d)."""
    d, d2 = r.denominator, 2 * r.denominator
    n = r.numerator % d2
    while True:
        yield _cos_pi(n, d)
        n = n * a % d2


def weierstrass_eval(params: WeierstrassParams, x, tol: float = 1e-8) -> float:
    """Evaluate the series at an exact rational x to within tol."""
    xf = _as_fraction(x)
    n_terms = term_count(params, tol)
    total, bn = 0.0, 1.0
    for cos_n in islice(_cosines(xf, params.a), n_terms):
        total += bn * cos_n
        bn *= params.b
    return total


@dataclass(frozen=True)
class HmStep:
    """One rung of the divergence ladder at scale a^-m.

    alpha_m is the integer nearest a^m x (ties resolved upward, so t_m,
    the exact remainder a^m x - alpha_m, lies in (-1/2, 1/2]).  h_m > 0 is
    chosen so a^m (x + h_m^alpha) = alpha_m + 1 exactly.  quotient and
    lower_bound stay None until divergence_report fills them.
    """

    m: int
    alpha_m: int
    t_m: Fraction
    h_m: float
    quotient: float | None = None
    lower_bound: float | None = None


def build_hm_sequence(params: WeierstrassParams, x, m_max: int = 8) -> list[HmStep]:
    """The ladder of exact step geometries for m = 1 .. m_max."""
    if m_max < 1:
        raise ParameterError("m_max must be at least 1")
    xf = _as_fraction(x)
    steps: list[HmStep] = []
    am = 1
    for m in range(1, m_max + 1):
        am *= params.a
        v = am * xf
        alpha_m = math.ceil(v - Fraction(1, 2))
        t_m = v - alpha_m
        h_pow = (1 - t_m) / am  # exact h_m^alpha
        assert Fraction(-1, 2) < t_m <= Fraction(1, 2)
        assert 0 < h_pow <= Fraction(3, 2 * am)
        assert am * xf - alpha_m - t_m == 0
        h_m = float(h_pow) ** (1.0 / params.alpha)
        if not 0.0 < h_m < math.inf:
            raise ParameterError(f"ladder too deep: h_m = {h_m!r} at m={m} is not positive")
        steps.append(HmStep(m=m, alpha_m=alpha_m, t_m=t_m, h_m=h_m))
    return steps


def _bound_coefficient(params: WeierstrassParams) -> float:
    a, b, alpha = params.a, params.b, params.alpha
    return ((2.0 / 3.0) ** (1.0 / alpha)
            - math.pi / (a * b - 1.0) * (3.0 / 2.0) ** ((alpha - 1.0) / alpha))


def divergence_report(params: WeierstrassParams, x, m_max: int = 8,
                      tol: float = 1e-8) -> list[HmStep]:
    """Difference quotients along the ladder with their growth floors.

    quotient_m = |f(x + h_m^alpha) - f(x)| / h_m, split into an exact-angle
    head (n < m) and an analytically collapsed tail (n >= m), each term of
    which is nonnegative.  lower_bound_m = C a^(m/alpha) b^m with C the
    growth coefficient.  A quotient below its floor raises
    BoundViolationError carrying the offending step.
    """
    if not check_growth_condition(params):
        raise ParameterError("growth condition a^(1/alpha) b > 1 + 3 pi / 2 fails; "
                             "no divergence floor holds")
    xf = _as_fraction(x)
    steps = build_hm_sequence(params, xf, m_max)
    coeff = _bound_coefficient(params)
    a, b, alpha = params.a, params.b, params.alpha
    base = list(islice(_cosines(xf, a), m_max))  # cos(pi a^n x), shared by every rung

    out: list[HmStep] = []
    for step in steps:
        m, h = step.m, step.h_m
        # x + h_m^alpha = (alpha_m + 1) / a^m exactly: its angle has its own d
        shifted = _cosines(Fraction(step.alpha_m + 1, a ** m), a)
        head, bn = 0.0, 1.0
        for cos_base, cos_shift in zip(base[:m], shifted):
            head += bn * (cos_shift - cos_base)
            bn *= b
        head /= h

        sign = 1.0 if (step.alpha_m + 1) % 2 == 0 else -1.0
        tail_sum, bn = 0.0, b ** m
        scale, floor = (1.0 - b) * h, tol * b ** m
        for cos_t in islice(_cosines(step.t_m, a), _TAIL_TERMS):
            tail_sum += bn * (1.0 + cos_t)
            bn *= b
            if 2.0 * bn / scale < floor:
                break
        else:
            raise ParameterError(f"tail at m={m} not below tol={tol!r} after {_TAIL_TERMS} terms")
        tail = sign * tail_sum / h

        quotient = abs(head + tail)
        try:
            lower = coeff * a ** (m / alpha) * b ** m
        except OverflowError:
            raise ParameterError(f"a^(m/alpha) at m={m} exceeds the largest float") from None
        filled = replace(step, quotient=quotient, lower_bound=lower)
        if quotient < lower:
            raise BoundViolationError(f"difference quotient {quotient:.6g} fell below its "
                                      f"floor {lower:.6g} at m={m}", step=filled)
        out.append(filled)
    return out
