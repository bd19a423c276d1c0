import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcalc.expr
from pcalc.corpus import corpus_entry
from pcalc.derivatives import p_derivative_formula
from pcalc.errors import (
    DifferentiationError,
    EvaluationError,
    NonIntegrableError,
    ParameterError,
    QuadratureError,
)
from pcalc.expr import parse
from pcalc.families import check_l1, make_family
from pcalc.integrals import (
    ftc_backward,
    ftc_forward,
    integration_by_parts_check,
    p_integral,
)

KHALIL = make_family("khalil", 0.5)


class TestWeightedIntegral:
    def test_constant_closed_form(self):
        # int_0^4 t^(-1/2) dt = 4  [tools/oracles.py]
        res = p_integral(KHALIL, parse("1"), 0.0, 4.0, tol=1e-10)
        assert res.value == pytest.approx(4.0, abs=1e-9)
        assert res.error_estimate <= 1e-8
        assert res.graded

    def test_linear_closed_form(self):
        # int_0^4 t^(1/2) dt = 16/3  [tools/oracles.py]
        res = p_integral(KHALIL, parse("t"), 0.0, 4.0, tol=1e-10)
        assert res.value == pytest.approx(16.0 / 3.0, abs=1e-9)

    def test_sin_frozen_value(self):
        # int_0^4 sin(t) t^(-1/2) dt = 1.609552978687512  [tools/oracles.py]
        res = p_integral(KHALIL, parse("sin(t)"), 0.0, 4.0, tol=1e-10)
        assert res.value == pytest.approx(1.609552978687512, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_power_law_family_sweep(self, alpha):
        fam = make_family("khalil", alpha)
        res = p_integral(fam, parse("1"), 0.0, 2.0, tol=1e-10)
        assert res.value == pytest.approx(2.0 ** alpha / alpha, rel=1e-9)

    def test_interior_interval_not_graded(self):
        res = p_integral(KHALIL, parse("cos(t)"), 1.0, 2.0, tol=1e-10)
        assert not res.graded
        # reference from a dense trapezoid sum
        xs = np.linspace(1.0, 2.0, 200001)
        ys = np.cos(xs) / np.sqrt(xs)
        ref = np.trapezoid(ys, xs)
        assert res.value == pytest.approx(float(ref), abs=1e-8)

    def test_empty_interval(self):
        res = p_integral(KHALIL, parse("t"), 2.0, 2.0)
        assert res.value == 0.0
        assert res.subdivisions == 0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ParameterError):
            p_integral(KHALIL, parse("t"), 3.0, 1.0)

    def test_vanishing_multiplier_not_integrable(self):
        power = make_family("power", 2.0)
        with pytest.raises(NonIntegrableError):
            p_integral(power, parse("t"), 0.0, 1.0)

    def test_divergent_weight_not_integrable(self):
        fam = make_family("nderiv", 0.5, F="t")  # weight 1/t
        with pytest.raises(NonIntegrableError):
            p_integral(fam, parse("1"), 0.0, 1.0)

    @pytest.mark.parametrize("b", [1e-318, 1e-320, 1e-321, 5e-324])
    def test_subnormal_interval_is_within_claim_or_refused(self, b):
        # the endpoint probes b * 10^-j underflow onto 0 and onto b: such a
        # probe is no sample, and where the window of the endpoint fit does
        # not fit in [0, b] the integral is refused, never called divergent
        try:
            res = p_integral(KHALIL, "1", 0.0, b)
        except QuadratureError as exc:
            assert not isinstance(exc, NonIntegrableError)
            value = None
        else:
            value = res.value
            assert abs(value - 2.0 * math.sqrt(b)) <= res.error_estimate
        rep = check_l1(KHALIL, 0.0, b)
        assert not rep.diverged
        if value is None:
            assert math.isnan(rep.estimate) and not rep.converged
        else:
            assert rep.estimate == value

    def test_failing_sample_at_the_float_next_to_the_end(self):
        # ln(t - 5e-324) raises at 5e-324, the float next to 0 that the
        # endpoint fit samples last, so the pole stays on the endpoint;
        # int_0^1 ln(t)/sqrt(t) dt = -4
        res = p_integral(KHALIL, "ln(t - 5e-324)", 0.0, 1.0)
        assert res.graded
        assert abs(res.value + 4.0) <= res.error_estimate

    def test_probe_rounding_onto_a_regular_end_is_not_a_pole(self):
        # [1, 1 + 1e-12] is 4,500 ulp wide: every probe rounds onto an end,
        # where the integrand is finite, so the interval is not graded
        res = p_integral(KHALIL, "1", 1.0, 1.0 + 1e-12)
        assert not res.graded
        assert res.value == pytest.approx(2.0 * (math.sqrt(1.0 + 1e-12) - 1.0), rel=1e-12)


class TestFtcForward:
    # derivative of the running integral recovers the integrand

    @pytest.mark.parametrize("name", ["linear", "square", "sin", "exp", "sqrt"])
    def test_corpus_functions(self, name):
        entry = corpus_entry(name)
        res = ftc_forward(KHALIL, entry.f, 0.0, 2.0, tol=1e-8)
        assert abs(res) < 1e-5

    def test_interior_base_point(self):
        res = ftc_forward(KHALIL, parse("cos(t)"), 0.5, 1.7, tol=1e-8)
        assert abs(res) < 1e-6

    def test_gfd_family(self):
        fam = make_family("gfd", 0.5, beta=1.5)
        res = ftc_forward(fam, parse("exp(t)"), 0.0, 1.5, tol=1e-8)
        assert abs(res) < 1e-5

    def test_large_integrand_is_resolved_relative_to_f(self):
        # f(3) = exp(e^3) ~ 5.3e8: an inner tolerance of tol/100 * |h| alone
        # is below float resolution there, and the quotient was noise
        fam = make_family("custom", F="t + h*t")
        res = ftc_forward(fam, parse("exp(exp(t))"), 1.0, 3.0, tol=1e-8)
        assert abs(res) < 1e-10 * math.exp(math.exp(3.0))

    @pytest.mark.parametrize("F, f, t", [
        ("t + sqrt(1 + h) - 1", "1", 200.0),  # p(200, -2) raises: sqrt(-1)
        (None, "t", 1e-4),  # khalil p(1e-4, -1e-2) = 0 leaves (0, inf)
        ("t + sin(h)", "1", 100 * math.pi),  # sin(h0) ~ 1e-15: p(t, h0) rounds to t
        (None, "1e300*exp(3000*(t - 1))", 1.0),  # f is inf past 1.0064: the inner integral fails
    ], ids=["p-raises", "p-leaves-domain", "p-returns-to-t", "integral-fails"])
    def test_levels_without_a_quotient(self, F, f, t):
        # such levels are skipped and the ladder goes on with the next h
        fam = KHALIL if F is None else make_family("custom", F=F)
        res = ftc_forward(fam, f, 0.0, t, tol=1e-8)
        assert res <= 1e-9 * max(1.0, abs(pcalc.expr.evaluate(parse(f), {"t": t})))

    def test_level_where_p_rounds_to_t_is_skipped(self):
        # p(1, h) = 1 + h*1e-20 rounds to 1 on every level: no level has a
        # quotient, where each used to count as 0 and the residual read |f|
        fam = make_family("custom", F="t + h*1e-20")
        with pytest.raises(EvaluationError, match="no evaluable levels"):
            ftc_forward(fam, "1", 0.0, 1.0)

    def test_fast_multiplier_starts_the_ladder_locally(self):
        # nderiv's ph_zero(0.01) = 5.4e4: a ladder starting at h0 = 1e-2
        # moved t by about 540 and read 0.0319, where the theorem gives 0
        fam = make_family("nderiv", 0.5)
        assert ftc_forward(fam, "1", 0.0, 0.01) < 1e-8

    @pytest.mark.parametrize("kind, alpha, f, a, t", [
        ("nderiv", 0.845, "1", 0.0, 0.000532935529048646),  # read 6.16e235
        ("katugampola", 0.95, "t^3", 1e-6, 1.1621677007402848e-4),  # read 6.5e43
        ("nderiv", 0.5, "sin(t)", 0.0, 1e-3),  # read 2.6e-5
    ], ids=["nderiv-0.845", "katugampola-0.95", "nderiv-0.5-sin"])
    def test_ladder_starts_within_reach_near_the_left_end(self, kind, alpha, f, a, t):
        # the first level used to leave the local regime by far: h0 was
        # capped by |ph_zero(t)|, not by how far p(t, h0) moves t
        res = ftc_forward(make_family(kind, alpha), f, a, t)
        assert res <= 1e-6 * max(1.0, abs(pcalc.expr.evaluate(parse(f), {"t": t})))

    @pytest.mark.parametrize("f, a, t", [
        ("sqrt(t-1)", 1.0, 1.0001),  # p(t, -1e-2) < 1: the segment leaves f's domain
        ("1/sqrt(1-t)", 0.0, 0.995),  # p(t, 1e-2) > 1: the same on the right
    ], ids=["left-edge", "right-edge"])
    def test_level_whose_segment_leaves_the_domain_of_f(self, f, a, t):
        # such a level is skipped, as the derivative route skips a level
        # where f fails
        assert ftc_forward(KHALIL, f, a, t) < 1e-8

    def test_vanishing_multiplier_has_no_level(self):
        # power's ph_zero is 0: 1/ph_zero is not integrable on any segment
        with pytest.raises(EvaluationError, match="no evaluable levels"):
            ftc_forward(make_family("power", 2.0), "1", 0.0, 1.0)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ParameterError):
            ftc_forward(KHALIL, parse("t"), 2.0, 2.0)

    def test_overflowing_f_at_the_end(self):
        with pytest.raises(EvaluationError, match=r"^f\(1\.0\) is not finite$"):
            ftc_forward(KHALIL, "1e308*t*10", 0.0, 1.0)


class TestFtcBackward:
    # integrating the derivative recovers F(b) - F(a)

    @pytest.mark.parametrize("src,a,b", [
        ("t^2", 0.5, 2.0),
        ("t^2", 0.0, 2.0),
        ("sin(t)", 0.0, 3.0),
        ("exp(t)", 0.1, 1.0),
        ("sqrt(t)", 0.0, 4.0),
    ])
    def test_closed_forms(self, src, a, b):
        res = ftc_backward(KHALIL, parse(src), a, b, tol=1e-8)
        assert abs(res) < 1e-6

    def test_katugampola(self):
        fam = make_family("katugampola", 0.3)
        res = ftc_backward(fam, parse("t^3"), 0.1, 2.0, tol=1e-8)
        assert abs(res) < 1e-6

    def test_callable_rejected(self):
        with pytest.raises(ParameterError):
            ftc_backward(KHALIL, lambda t: t, 0.0, 1.0)

    def test_large_F_is_resolved_relative_to_its_end_values(self):
        # F(30) = exp(30) ~ 1.1e13: an absolute 1e-8 on the integral is
        # below its rounding, so the quadrature ran out of panels
        assert ftc_backward(KHALIL, "exp(t)", 0.0, 30.0) <= 1e-12 * math.exp(30.0)

    def test_interval_outside_the_domain_wins_over_F_failing_there(self):
        with pytest.raises(ParameterError, match=r"^\[-1\.0, 2\.0\] not within the closure"):
            ftc_backward(KHALIL, "ln(t)", -1.0, 2.0)


class TestIntegrationByParts:
    @pytest.mark.parametrize("fsrc,gsrc", [
        ("t", "sin(t)"),
        ("t^2", "exp(t)"),
        ("cos(t)", "sqrt(t)"),
    ])
    def test_residuals_vanish(self, fsrc, gsrc):
        res = integration_by_parts_check(
            KHALIL, parse(fsrc), parse(gsrc), 0.5, 2.0, tol=1e-9)
        assert abs(res) < 1e-7

    def test_from_singular_endpoint(self):
        res = integration_by_parts_check(
            KHALIL, parse("t"), parse("t^2"), 0.0, 1.0, tol=1e-9)
        assert abs(res) < 1e-7

    def test_callable_rejected(self):
        with pytest.raises(ParameterError):
            integration_by_parts_check(KHALIL, lambda t: t, parse("t"), 0.0, 1.0)

    def test_large_boundary_is_resolved_relative_to_it(self):
        # f(30)g(30) = 30^16 ~ 4.3e23
        res = integration_by_parts_check(KHALIL, "t^8", "t^8", 0.5, 30.0)
        assert res <= 1e-12 * 30.0 ** 16

    def test_interval_outside_the_domain_wins_over_f_failing_there(self):
        with pytest.raises(ParameterError, match=r"^\[-1\.0, 2\.0\] not within the closure"):
            integration_by_parts_check(KHALIL, "ln(t)", "t", -1.0, 2.0)


class TestWorkBudget:
    @pytest.fixture
    def differentiations(self, monkeypatch):
        # calls from outside pcalc.expr, not differentiate's own recursion
        calls = [0]
        original = pcalc.expr.differentiate

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("pcalc") and name != "pcalc.expr"
                    and getattr(module, "differentiate", None) is original):
                monkeypatch.setattr(module, "differentiate", counted)
        return calls

    def test_derivative_taken_once(self, differentiations):
        assert ftc_backward(KHALIL, "sin(t)", 0.0, 2.0) < 1e-6
        assert differentiations[0] == 1
        integration_by_parts_check(KHALIL, "t", "sin(t)", 0.5, 2.0)
        assert differentiations[0] == 3

    def test_same_residual_as_per_point_formula(self):
        e = parse("sin(t)*exp(-(t^2))")
        res = p_integral(KHALIL, lambda x: p_derivative_formula(KHALIL, e, x), 0.0, 2.0)
        fn = pcalc.expr.compile_expr(e)
        assert ftc_backward(KHALIL, e, 0.0, 2.0) == abs(res.value - (fn(2.0) - fn(0.0)))

    def test_underivable_f_still_raises(self):
        with pytest.raises(DifferentiationError):
            ftc_backward(KHALIL, "abs(t-1)", 0.5, 2.0)
        with pytest.raises(DifferentiationError):
            integration_by_parts_check(KHALIL, "t", "abs(t-1)", 0.5, 2.0)


def _power_reference(fam, a, b, f=None):
    # 1/ph_zero = t^(alpha-1)/c0: the integral is (b^alpha - a^alpha)/(alpha c0);
    # with an f, t = s^(1/alpha) leaves mpmath.quad f(s^(1/alpha))/(alpha c0)
    with mpmath.workdps(30):
        al = mpmath.mpf(fam.alpha)
        c0 = 1 if fam.kind != "gfd" else (
            mpmath.gamma(fam.beta) / mpmath.gamma(fam.beta - al + 1))
        lo, hi = mpmath.mpf(a) ** al, mpmath.mpf(b) ** al
        if f is None:
            return float((hi - lo) / (al * c0))
        return float(mpmath.quad(lambda s: f(s ** (1 / al)), [lo, hi]) / (al * c0))


def _cosine_reference(alpha, a, b, f=lambda t: 1):
    # f(t) cos(t)^(alpha-1) over [a, b] is f(pi/2 - d) sin(d)^(alpha-1) over
    # d in [pi/2 - b, pi/2 - a]; the float b = fl(pi/2) lies 6e-17 short of
    # the pole.  d = s^(1/alpha) leaves mpmath.quad a smooth integrand.
    with mpmath.workdps(30):
        al = mpmath.mpf(alpha)
        k = 1 / al

        def smooth(s):
            return f(mpmath.pi / 2 - s ** k) * mpmath.sin(s ** k) ** (al - 1) * k * s ** (k - 1)

        lo = (mpmath.pi / 2 - mpmath.mpf(b)) ** al
        hi = (mpmath.pi / 2 - mpmath.mpf(a)) ** al
        return float(mpmath.quad(smooth, [lo, hi]))


def _assert_within_claims(fam, a, b, ref, tol=1e-10):
    """Where check_l1 or p_integral report success, the value is as good
    as claimed: |value - ref| <= max(tol, error_estimate)."""
    rep = check_l1(fam, a, b, tol)
    if rep.converged:
        assert abs(rep.estimate - ref) <= tol
    try:
        res = p_integral(fam, "1", a, b, tol)
    except QuadratureError:
        return rep.converged
    assert abs(res.value - ref) <= max(tol, res.error_estimate)
    return rep.converged


_COEF = st.floats(-2.0, 2.0)


@st.composite
def _smooth_f(draw):
    """a sin(k t) + b exp(c t) + p0 + p1 t + p2 t^2 as (source, mpmath function)."""
    a, b, c, p0, p1, p2 = (draw(_COEF) for _ in range(6))
    k = draw(st.floats(0.1, 5.0))
    source = (f"({a!r})*sin(({k!r})*t) + ({b!r})*exp(({c!r})*t) + ({p0!r}) + ({p1!r})*t "
              f"+ ({p2!r})*t^2")
    return source, lambda t: (a * mpmath.sin(k * t) + b * mpmath.exp(c * t)
                              + p0 + p1 * t + p2 * t ** 2)


def _assert_f_within_claim(fam, f, a, b, ref, tol=1e-10, budget_refusals=False):
    """Whether p_integral returns a value for f; a value it returns is as
    good as claimed.  With budget_refusals, running out of panels returns
    False; every other QuadratureError, a divergence verdict included,
    propagates."""
    try:
        res = p_integral(fam, f[0], a, b, tol)
    except QuadratureError as exc:
        if budget_refusals and type(exc) is QuadratureError and "panels" in str(exc):
            return False
        raise
    assert abs(res.value - ref) <= max(tol, res.error_estimate)
    return True


class TestMpmathOracle:
    @given(_smooth_f(), st.sampled_from(("khalil", "katugampola", "gfd")),
           st.floats(0.1, 0.95), st.floats(0.5, 3.0), st.floats(0.01, 4.0))
    @settings(max_examples=60)
    def test_random_smooth_f_under_power_weights(self, f, kind, alpha, beta, b):
        fam = make_family(kind, alpha, beta=beta if kind == "gfd" else None)
        assert _assert_f_within_claim(fam, f, 0.0, b, _power_reference(fam, 0.0, b, f[1]))

    # at tol 1e-10 graded cosine integrals with a small alpha may run out of
    # panels (see the FOUND line in CHANGES.md); such a refusal claims no value
    @given(_smooth_f(), st.floats(0.1, 0.95),
           st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
    @settings(max_examples=40)
    def test_random_smooth_f_under_cosine_weight(self, f, alpha, a):
        b = math.pi / 2
        _assert_f_within_claim(make_family("cosine", alpha), f, a, b,
                               _cosine_reference(alpha, a, b, f[1]), budget_refusals=True)

    # A singular part too small for the endpoint probes to see is integrated
    # as bounded, and its Kronrod error estimate is below the true error;
    # the random-f property found this (see the FOUND line in CHANGES.md).
    @pytest.mark.xfail(strict=True, reason="endpoint singularity hidden from the probes")
    def test_hidden_singular_part_is_within_claim(self):
        # (1e-8 + t) t^-0.9 over [0, 1] is 1e-8/0.1 + 1/1.1
        res = p_integral(make_family("khalil", 0.1), "1e-8 + t", 0.0, 1.0)
        assert abs(res.value - (1e-7 + 1 / 1.1)) <= max(1e-8, res.error_estimate)

    @given(st.sampled_from(("khalil", "katugampola", "gfd")),
           st.floats(0.1, 0.95), st.floats(0.5, 3.0),
           st.one_of(st.just(0.0), st.floats(0.0, 3.0)), st.floats(0.01, 4.0))
    @settings(max_examples=60)
    def test_power_families(self, kind, alpha, beta, a, width):
        fam = make_family(kind, alpha, beta=beta if kind == "gfd" else None)
        b = a + width
        assert _assert_within_claims(fam, a, b, _power_reference(fam, a, b))

    # one Kronrod panel once missed the layer next to the pole by 4.9e-10
    # here, 14x its error estimate
    @example(alpha=0.509, a=1.4078)
    @given(st.floats(0.1, 0.95), st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
    @settings(max_examples=40)
    def test_cosine_up_to_half_pi(self, alpha, a):
        # the pole of 1/ph_zero is pi/2, just beyond the float endpoint
        b = math.pi / 2
        _assert_within_claims(make_family("cosine", alpha), a, b,
                              _cosine_reference(alpha, a, b))

    # cos(t)^(alpha-1) on [0, fl(pi/2)]; 40 digits of alpha = 0.5 from mpmath
    COSINE_HALF = 2.6220575386419006481

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.5])
    @pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10])
    def test_cosine_error_estimate_covers_the_error(self, alpha, tol):
        b = math.pi / 2
        res = p_integral(make_family("cosine", alpha), "1", 0.0, b, tol)
        assert abs(res.value - _cosine_reference(alpha, 0.0, b)) <= res.error_estimate

    def test_cosine_half_converges_at_1e_9(self):
        # the blind-zone tail used to carry a fixed 1% uncertainty floor
        # (8.4e-10 here), which kept this from converging
        rep = check_l1(make_family("cosine", 0.5), 0.0, math.pi / 2, tol=1e-9)
        assert rep.converged
        assert abs(rep.estimate - self.COSINE_HALF) <= 1e-9
