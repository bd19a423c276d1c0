import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcalc.errors import BoundViolationError, ParameterError
from pcalc.weierstrass import (
    MAX_DIGITS,
    WeierstrassParams,
    build_hm_sequence,
    check_growth_condition,
    divergence_report,
    term_count,
    weierstrass_eval,
)

PARAMS = WeierstrassParams(a=41, b=0.9, alpha=2.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            WeierstrassParams(a=4, b=0.9, alpha=2.0)
        with pytest.raises(ParameterError):
            WeierstrassParams(a=1, b=0.9, alpha=2.0)
        with pytest.raises(ParameterError):
            WeierstrassParams(a=41, b=0.0, alpha=2.0)
        with pytest.raises(ParameterError):
            WeierstrassParams(a=41, b=1.0, alpha=2.0)
        with pytest.raises(ParameterError):
            WeierstrassParams(a=41, b=0.9, alpha=1.0)

    def test_growth_condition(self):
        # 41^(1/2) * 0.9 = 5.7628 > 1 + 3 pi / 2 = 5.7124  [tools/oracles.py]
        assert check_growth_condition(PARAMS)
        assert not check_growth_condition(WeierstrassParams(9, 0.9, 2.0))

    def test_term_count(self):
        # ceil(ln(1e-8 * 0.1) / ln 0.9) = 197  [tools/oracles.py]
        assert term_count(PARAMS, 1e-8) == 197
        assert term_count(PARAMS, 1e90) == 1
        with pytest.raises(ParameterError):
            term_count(PARAMS, 0.0)


class TestSeriesEval:
    def test_integer_points(self):
        # f(0) = 1/(1-b) = 10, f(1) = -10 since every a^n is odd
        assert weierstrass_eval(PARAMS, 0) == pytest.approx(10.0, abs=2e-8)
        assert weierstrass_eval(PARAMS, 1) == pytest.approx(-10.0, abs=2e-8)

    def test_even_and_periodic(self):
        x = Fraction(1, 7)
        assert weierstrass_eval(PARAMS, x) == pytest.approx(
            weierstrass_eval(PARAMS, -x), abs=1e-12)
        # period 2 holds exactly: the angle reduction is identical
        assert weierstrass_eval(PARAMS, x) == weierstrass_eval(PARAMS, x + 2)

    def test_rational_string_input(self):
        assert weierstrass_eval(PARAMS, "1/3") == pytest.approx(
            weierstrass_eval(PARAMS, Fraction(1, 3)), abs=0.0)
        with pytest.raises(ParameterError):
            weierstrass_eval(PARAMS, "one third")


class TestLadder:
    def test_exact_geometry(self):
        x = Fraction(5, 7)
        steps = build_hm_sequence(PARAMS, x, m_max=6)
        assert [s.m for s in steps] == [1, 2, 3, 4, 5, 6]
        for s in steps:
            am = PARAMS.a ** s.m
            # the remainder identity holds in exact arithmetic
            assert am * x - s.alpha_m - s.t_m == 0
            assert Fraction(-1, 2) < s.t_m <= Fraction(1, 2)
            h_pow = (1 - s.t_m) / am
            assert 0 < h_pow <= Fraction(3, 2 * am)
            assert s.h_m ** PARAMS.alpha == pytest.approx(float(h_pow), rel=1e-12)
            assert s.quotient is None and s.lower_bound is None

    def test_at_origin(self):
        steps = build_hm_sequence(PARAMS, 0, m_max=4)
        for s in steps:
            assert s.alpha_m == 0
            assert s.t_m == 0
            assert s.h_m == pytest.approx(41.0 ** (-s.m / 2.0), rel=1e-14)

    def test_m_max_validation(self):
        with pytest.raises(ParameterError):
            build_hm_sequence(PARAMS, 0, m_max=0)


class TestDivergenceReport:
    def test_frozen_quotients_at_origin(self):
        steps = divergence_report(PARAMS, 0, m_max=6)
        # [tools/oracles.py]
        assert steps[0].quotient == pytest.approx(115.2750243133491, rel=1e-5)
        assert steps[1].quotient == pytest.approx(664.3083435371494, rel=1e-5)
        assert steps[0].lower_bound == pytest.approx(4.087676032694150, rel=1e-9)
        for s in steps:
            assert s.quotient >= s.lower_bound

    def test_bound_coefficient(self):
        # lower_m = C a^(m/alpha) b^m with C = 0.7093197148974867
        # [tools/oracles.py]
        steps = divergence_report(PARAMS, 0, m_max=3)
        for s in steps:
            lam = 41.0 ** (s.m / 2.0) * 0.9 ** s.m
            assert s.lower_bound == pytest.approx(0.7093197148974867 * lam,
                                                  rel=1e-9)

    def test_geometric_growth_at_origin(self):
        steps = divergence_report(PARAMS, 0, m_max=7)
        lam = 41.0 ** 0.5 * 0.9
        for prev, nxt in zip(steps, steps[1:]):
            ratio = nxt.quotient / prev.quotient
            assert 0.8 * lam <= ratio <= 1.2 * lam

    def test_growth_off_origin_two_step(self):
        # at x = 1/3 the per-step ratios alternate; the two-step geometric
        # mean still tracks a^(1/alpha) b
        steps = divergence_report(PARAMS, Fraction(1, 3), m_max=8)
        lam = 41.0 ** 0.5 * 0.9
        for i in range(len(steps) - 2):
            gm = math.sqrt(steps[i + 2].quotient / steps[i].quotient)
            assert 0.8 * lam <= gm <= 1.2 * lam
        for s in steps:
            assert s.quotient >= s.lower_bound

    def test_requires_growth_condition(self):
        with pytest.raises(ParameterError):
            divergence_report(WeierstrassParams(9, 0.9, 2.0), 0)

    def test_violation_error_carries_step(self):
        err = BoundViolationError("quotient under floor", step=None)
        assert err.step is None
        assert "floor" in str(err)

    def test_unconverged_tail_is_an_error(self):
        # b this close to 1 needs about 300,000 tail terms at m = 1; the sum
        # capped at 100,000 terms was 4.5e-5 off in relative terms
        params = WeierstrassParams(41, 0.9999, 2.0)
        assert check_growth_condition(params)
        with pytest.raises(ParameterError, match=r"m=1 .*tol=1e-08.*100000 terms"):
            divergence_report(params, Fraction(1, 3), m_max=1)

    def test_ladder_deeper_than_floats_is_an_error(self):
        # h_m^alpha = (1 - t_m) / 41^m leaves the float range at m = 201
        with pytest.raises(ParameterError, match="m=201"):
            build_hm_sequence(PARAMS, Fraction(1, 3), m_max=300)
        assert len(build_hm_sequence(PARAMS, Fraction(1, 3), m_max=200)) == 200


class TestFloatRange:
    def test_a_beyond_the_largest_float_is_a_parameter_error(self):
        # a is an int; the growth condition used to overflow converting it
        params = WeierstrassParams(a=10 ** 400 + 1, b=0.9, alpha=2.0)
        with pytest.raises(ParameterError, match="largest float, 1.7976931348623157e"):
            check_growth_condition(params)
        with pytest.raises(ParameterError, match="largest float"):
            divergence_report(params, "1/3")

    def test_limit_is_the_largest_float(self):
        top = int(sys.float_info.max)  # even: a multiple of 2^971
        assert check_growth_condition(WeierstrassParams(a=top - 1, b=0.9, alpha=2.0))
        with pytest.raises(ParameterError):
            check_growth_condition(WeierstrassParams(a=top + 1, b=0.9, alpha=2.0))

    def test_floor_beyond_the_largest_float_is_a_parameter_error(self):
        # h_5 is a positive subnormal, but a^(5/alpha) ~ 1e312 overflowed
        params = WeierstrassParams(a=10 ** 63 + 1, b=0.1, alpha=1.01)
        assert len(divergence_report(params, "1/3", m_max=4)) == 4
        with pytest.raises(ParameterError, match=r"a\^\(m/alpha\) at m=5"):
            divergence_report(params, "1/3", m_max=5)


class TestInputX:
    @pytest.mark.parametrize("x", [
        math.nan, math.inf, -math.inf, "1e5000", "1e10000000", "1e-1001",
        10 ** MAX_DIGITS, Fraction(1, 10 ** MAX_DIGITS), "1e" + "9" * 5000, [1],
    ], ids=["nan", "inf", "-inf", "1e5000", "1e10000000", "1e-1001", "10^cap",
            "10^-cap", "5000-digit exponent", "list"])
    def test_rejected(self, x):
        with pytest.raises(ParameterError):
            weierstrass_eval(PARAMS, x)

    def test_digit_cap_is_inclusive(self):
        largest = 10 ** MAX_DIGITS - 1
        for x in (largest, Fraction(1, largest), f"1e{MAX_DIGITS - 1}", "0.25e-3"):
            weierstrass_eval(PARAMS, x)


# the Fraction algorithm the integer angles replaced, kept as the reference
def _ref_cos_pi(r):
    r = r % 2
    if r > 1:
        r -= 2
    if r == 0:
        return 1.0
    if r == 1:
        return -1.0
    if r == Fraction(1, 2) or r == Fraction(-1, 2):
        return 0.0
    return math.cos(math.pi * float(r))


def _ref_eval(params, x, tol=1e-8):
    total, bn, ang = 0.0, 1.0, x % 2
    for _ in range(term_count(params, tol)):
        total += bn * _ref_cos_pi(ang)
        bn *= params.b
        ang = (ang * params.a) % 2
    return total


def _ref_report(params, x, m_max, tol=1e-8):
    a, b, alpha = params.a, params.b, params.alpha
    coeff = (2.0 / 3.0) ** (1.0 / alpha) - (
        math.pi / (a * b - 1.0)) * (3.0 / 2.0) ** ((alpha - 1.0) / alpha)
    out = []
    for m in range(1, m_max + 1):
        alpha_m = math.ceil(a ** m * x - Fraction(1, 2))
        t_m = a ** m * x - alpha_m
        h_pow = (1 - t_m) / a ** m
        h = float(h_pow) ** (1.0 / alpha)
        head, bn = 0.0, 1.0
        ang_base, ang_shift = x % 2, (x + h_pow) % 2
        for _ in range(m):
            head += bn * (_ref_cos_pi(ang_shift) - _ref_cos_pi(ang_base))
            bn *= b
            ang_base, ang_shift = (ang_base * a) % 2, (ang_shift * a) % 2
        head /= h
        sign = 1.0 if (alpha_m + 1) % 2 == 0 else -1.0
        tail_sum, bn, ang = 0.0, b ** m, t_m % 2
        for _ in range(100000):
            tail_sum += bn * (1.0 + _ref_cos_pi(ang))
            bn *= b
            ang = (ang * a) % 2
            if 2.0 * bn / ((1.0 - b) * h) < tol * b ** m:
                break
        quotient = abs(head + sign * tail_sum / h)
        out.append((m, alpha_m, t_m, h, quotient, coeff * a ** (m / alpha) * b ** m))
        if quotient < out[-1][-1]:
            break
    return out


_THRESHOLD = 1.0 + 1.5 * math.pi
_B_MAX = 0.95  # keeps the reference's Fraction tail to a few thousand terms


@st.composite
def _ladders(draw):
    a = 2 * draw(st.integers(1, 121)) + 1
    assume(a * _B_MAX > _THRESHOLD)  # else no alpha > 1 meets the growth condition
    alpha = draw(st.floats(1.0, math.log(a) / math.log(_THRESHOLD / _B_MAX),
                           exclude_min=True, exclude_max=True))
    b = draw(st.floats(_THRESHOLD / a ** (1.0 / alpha), _B_MAX, exclude_min=True))
    params = WeierstrassParams(a, b, alpha)
    assume(check_growth_condition(params))
    q = draw(st.integers(1, 10 ** 6))
    return params, Fraction(draw(st.integers(-4 * q, 4 * q)), q), draw(st.integers(1, 8))


class TestIntegerAngles:
    @given(_ladders())
    @settings(max_examples=60)
    def test_bit_identical_to_fraction_angles(self, ladder):
        params, x, m_max = ladder
        expected = _ref_report(params, x, m_max)
        try:
            got = divergence_report(params, x, m_max=m_max)
        except BoundViolationError as exc:
            assert exc.step.m == len(expected)  # the reference stops at this rung
            got, expected = [exc.step], expected[-1:]
        assert [(s.m, s.alpha_m, s.t_m, s.h_m, s.quotient, s.lower_bound)
                for s in got] == expected
        assert weierstrass_eval(params, x) == _ref_eval(params, x)
