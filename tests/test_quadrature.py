import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcalc.errors import NonIntegrableError, QuadratureError
from pcalc.quadrature import (
    _NODES,
    _WEIGHTS_G,
    _WEIGHTS_K,
    _graded_side,
    _line_fit,
    endpoint_exponent,
    error_target,
    gk15,
    integrate_adaptive,
    integrate_graded,
)


class TestGk15:
    def test_exact_on_low_degree_polynomials(self):
        # Gauss-7 is exact through degree 13, Kronrod-15 through 22;
        # the error estimate |K - G| must be ~0 up to degree 13
        for k in range(14):
            val, err = gk15(lambda x, k=k: x ** k, 0.0, 1.0)
            assert val == pytest.approx(1.0 / (k + 1), rel=1e-14)
            assert err < 1e-13

    def test_interval_scaling(self):
        val, _ = gk15(math.sin, 0.0, math.pi / 2)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_open_rule_never_touches_endpoints(self):
        seen = []

        def f(x):
            seen.append(x)
            return 1.0

        gk15(f, 0.0, 1.0)
        assert len(seen) == 15
        assert min(seen) > 0.0 and max(seen) < 1.0

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(NonIntegrableError):
            gk15(lambda x: float("nan"), 0.0, 1.0)
        with pytest.raises(NonIntegrableError):
            gk15(lambda x: float("inf"), 0.0, 1.0)

    # A Kronrod-only node has Gauss weight 0, so the Gauss sum meets inf * 0.
    KRONROD_ONLY = next(i for i, w in enumerate(_WEIGHTS_G) if w == 0.0)

    @pytest.mark.parametrize("fn", [
        lambda x: math.inf if x == 0.5 + 0.5 * _NODES[TestGk15.KRONROD_ONLY] else 1.0,
        lambda x: np.float64(np.inf if x == 0.5 + 0.5 * _NODES[TestGk15.KRONROD_ONLY]
                             else 1.0),
        lambda x: np.float64(1e308),
        lambda x: 1e308,
    ], ids=["inf-at-kronrod-only-node", "float64-inf", "float64-overflow", "sum-overflow"])
    def test_nonfinite_sum_names_the_mapped_panel(self, fn):
        # to_x is decreasing, so the reported panel is [to_x(1), to_x(0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonIntegrableError) as exc:
                gk15(fn, 0.0, 1.0, to_x=lambda u: 5.0 - 2.0 * u)
        assert str(exc.value) == "non-finite integrand value on [3.0, 5.0]"

    @pytest.mark.parametrize("fn", [math.sin, math.exp, lambda x: x ** -0.5,
                                    lambda x: math.cos(40.0 * x)])
    def test_sum_in_node_order_matches_a_numpy_dot(self, fn):
        # the former numpy dot products are the reference; the two orders
        # of summation differ by at most a few roundings of the terms
        a, b = 0.25, 2.0
        hw = 0.5 * (b - a)
        vals = np.array([fn(0.5 * (a + b) + hw * x) for x in _NODES])
        res_k = hw * float(np.array(_WEIGHTS_K) @ vals)
        res_g = hw * float(np.array(_WEIGHTS_G) @ vals)
        val, err = gk15(fn, a, b)
        bound = 32 * 2.0 ** -52 * hw * float(np.abs(vals) @ np.array(_WEIGHTS_K))
        assert abs(val - res_k) <= bound
        assert abs(err - abs(res_k - res_g)) <= 2 * bound


class TestLineFit:
    @given(st.lists(st.floats(-30.0, 5.0), min_size=3, max_size=8, unique=True),
           st.data())
    @settings(max_examples=200)
    def test_slope_matches_polyfit(self, xs, data):
        xs = sorted(xs)
        assume(xs[-1] - xs[0] > 1e-3)
        ys = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=len(xs),
                                max_size=len(xs)))
        slope, xbar, ybar, sxx = _line_fit(xs, ys)
        ref = float(np.polyfit(xs, ys, 1)[0])
        # |slope| <= sqrt(syy / sxx) (Cauchy-Schwarz): the scale at which a
        # slope near 0 is compared
        scale = math.sqrt(sum((y - ybar) ** 2 for y in ys) / sxx)
        assert math.isclose(slope, ref, rel_tol=1e-12, abs_tol=1e-12 * scale)


class TestAdaptive:
    def test_smooth(self):
        val, err, panels = integrate_adaptive(math.sin, 0.0, math.pi, 1e-12)
        assert val == pytest.approx(2.0, abs=1e-12)
        assert err <= 1e-12
        assert panels >= 1

    def test_needle(self):
        # narrow gaussian needs refinement but stays within the budget
        f = lambda x: math.exp(-((x - 0.37) ** 2) * 1e4)
        val, err, panels = integrate_adaptive(f, 0.0, 1.0, 1e-10)
        assert val == pytest.approx(math.sqrt(math.pi) / 100.0, rel=1e-8)
        assert panels > 4

    def test_zero_width(self):
        val, err, panels = integrate_adaptive(math.sin, 1.0, 1.0, 1e-10)
        assert val == 0.0

    def test_refinement_stops_at_the_values_own_rounding(self):
        # one panel resolves 1e10 cos(x) to its last bits; its estimate sits
        # near the value's ulp, far above tol, so splitting further only
        # churns rounding (46 panels to claim an error below one ulp)
        val, err, panels = integrate_adaptive(lambda x: 1e10 * math.cos(x), 0.0, 1.0, 1e-12)
        assert panels == 1
        assert err <= error_target(1e-12, val)
        assert abs(val - 1e10 * math.sin(1.0)) <= err

    @pytest.mark.parametrize("tol,value,target", [
        (1e-8, 1.0, 1e-8),
        (1e-9, -1e10, 16.0 * 2.0 ** -52 * 1e10),
        (0.0, 0.0, 0.0),
    ])
    def test_error_target(self, tol, value, target):
        assert error_target(tol, value) == target

    def test_budget_exhaustion_raises(self):
        f = lambda x: x ** -0.5  # endpoint singularity defeats plain bisection
        with pytest.raises(QuadratureError):
            integrate_adaptive(f, 0.0, 1.0, 1e-13, max_panels=32)


class TestEndpointExponent:
    def test_integrable_singularity_detected(self):
        gamma = endpoint_exponent(lambda x: x ** -0.5, 0.0, 1.0, "left")
        assert gamma is not None
        assert gamma == pytest.approx(0.5, abs=0.05)

    def test_strong_singularity_rejected(self):
        with pytest.raises(NonIntegrableError):
            endpoint_exponent(lambda x: 1.0 / x, 0.0, 1.0, "left")

    def test_bounded_integrand_needs_no_grading(self):
        assert endpoint_exponent(math.sin, 0.0, 1.0, "left") is None
        assert endpoint_exponent(lambda x: x ** 0.5, 0.0, 1.0, "left") is None

    def test_overflowing_probe_is_not_integrable(self):
        # 1e300 / x^2 is inf at the probe 1e-5 from the endpoint
        with pytest.raises(NonIntegrableError,
                           match="^integrand is not finite near the left endpoint$"):
            endpoint_exponent(lambda x: 1e300 / x ** 2, 0.0, 1.0, "left")

    def test_right_side(self):
        gamma = endpoint_exponent(lambda x: (1.0 - x) ** -0.3, 0.0, 1.0, "right")
        assert gamma == pytest.approx(0.3, abs=0.05)

    @given(st.floats(0.06, 0.97), st.floats(1e-3, 1e3), st.floats(1e-3, 10.0),
           st.sampled_from(["left", "right"]))
    @settings(max_examples=200)
    def test_exact_power_law_gives_its_exponent(self, gamma, amp, span, side):
        # the singular end sits at 0, so every probe distance is exact
        if side == "left":
            a, b, fn = 0.0, span, lambda x: amp * x ** -gamma
        else:
            a, b, fn = -span, 0.0, lambda x: amp * (-x) ** -gamma
        assert endpoint_exponent(fn, a, b, side) == pytest.approx(gamma, abs=1e-12)


class TestGraded:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_power_singularity(self, p):
        # int_0^1 x^(-p) dx = 1/(1-p)
        val, err, panels, graded = integrate_graded(lambda x: x ** -p, 0.0, 1.0, 1e-10)
        assert graded
        assert val == pytest.approx(1.0 / (1.0 - p), rel=1e-9)

    def test_two_sided(self):
        # int_0^1 (x(1-x))^(-1/2) dx = pi
        f = lambda x: (x * (1.0 - x)) ** -0.5
        val, err, panels, graded = integrate_graded(f, 0.0, 1.0, 1e-10)
        assert graded
        assert val == pytest.approx(math.pi, rel=1e-9)

    def test_smooth_skips_grading(self):
        val, err, panels, graded = integrate_graded(math.cos, 0.0, 1.0, 1e-12)
        assert not graded
        assert val == pytest.approx(math.sin(1.0), abs=1e-12)

    def test_nonintegrable_raises(self):
        with pytest.raises(NonIntegrableError):
            integrate_graded(lambda x: x ** -1.2, 0.0, 1.0, 1e-8)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_nonfinite_panel_is_reported_in_x(self, side):
        # graded at the singular end, infinite on (1, 3): the panel named
        # must be in x on [0, 4], not in the substituted coordinate u
        def f(x):
            if 1.0 < x < 3.0:
                return math.inf
            return (x if side == "left" else 4.0 - x) ** -0.5

        with pytest.raises(NonIntegrableError) as exc:
            integrate_graded(f, 0.0, 4.0, 1e-8)
        lo, hi = map(float, str(exc.value).split("[")[1].rstrip("]").split(", "))
        assert -1e-12 < lo < 1.0 and 3.0 < hi < 4.0 + 1e-12  # u^m rounds

    def test_error_estimate_is_honest(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = float(rng.uniform(0.1, 0.9))
            b = float(rng.uniform(0.5, 3.0))
            val, err, panels, _ = integrate_graded(lambda x: x ** -p, 0.0, b, 1e-9)
            exact = b ** (1.0 - p) / (1.0 - p)
            assert abs(val - exact) <= max(10.0 * err, 1e-9 * max(1.0, abs(exact)))


class TestEndpointModel:
    def test_model_out_of_float_range_is_quadrature_error(self):
        # sin sampled near 1e300 is noise; the power law fitted to it used
        # to overflow with a bare OverflowError
        b = 1.0000003051757814e+300
        with pytest.raises(QuadratureError, match="leaves float range"):
            _graded_side(math.sin, b - 3.0517578130216632e+293, b, 0.0875, "right", 1e-8)
