import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcalc.corpus import corpus_entry, corpus_list, smooth_entries
from pcalc.derivatives import (
    compare_definitions,
    extrapolate_quotient,
    p_derivative_formula,
    p_derivative_limit,
)
from pcalc.errors import DifferentiationError, EvaluationError, UsageError
from pcalc.expr import parse
from pcalc.families import PFunction, make_family

KHALIL = make_family("khalil", 0.5)
CLASSIC = make_family("custom", F="t + h")


class TestLimitRoute:
    def test_frozen_point(self):
        # khalil(0.5): multiplier sqrt(t), D[t^2](4) = 2*8 = 16  [tools/oracles.py]
        est = p_derivative_limit(KHALIL, parse("t^2"), 4.0)
        assert est.value == pytest.approx(16.0, abs=1e-6)
        assert est.converged

    def test_cosine_frozen_point(self):
        # cos(0.7)^0.5 * 1.4 = 1.224373589668446  [tools/oracles.py]
        fam = make_family("cosine", 0.5)
        est = p_derivative_limit(fam, parse("t^2"), 0.7)
        assert est.value == pytest.approx(1.224373589668446, abs=1e-7)

    @pytest.mark.parametrize("f, want, first_left, first_right", [
        # ln fails at p(1, -1e-2) = 0.99 and at p(1, -5e-3) = 0.995
        ("ln(t - 0.995)", 200.0, -2.5e-3, 1e-2),
        # f(p(1, 1e-2)) is inf, and the quotient at h = 5e-3 overflows
        ("1e300*exp(3000*(t - 1))", 3e303, -1e-2, 2.5e-3),
    ], ids=["f-raises", "f-not-finite"])
    def test_levels_without_a_quotient_are_skipped(self, f, want, first_left, first_right):
        est = p_derivative_limit(KHALIL, f, 1.0)
        assert est.value == pytest.approx(want, rel=1e-9) and est.converged
        assert [h for h in est.h_sequence if h < 0.0][0] == first_left
        assert [h for h in est.h_sequence if h > 0.0][0] == first_right

    def test_estimate_invariants(self):
        est = p_derivative_limit(KHALIL, parse("sin(t)"), 1.3, tol=1e-8)
        assert len(est.h_sequence) == len(est.quotient_sequence)
        assert est.side == "both"
        assert est.converged
        assert est.error_estimate <= 1e-8 * max(1.0, abs(est.value))
        # two-sided estimates record right-side levels then left-side levels
        signs = [h > 0 for h in est.h_sequence]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1 and signs[0]

    def test_single_sides(self):
        er = p_derivative_limit(CLASSIC, parse("abs(t)"), 0.0, side="right")
        el = p_derivative_limit(CLASSIC, parse("abs(t)"), 0.0, side="left")
        assert er.value == pytest.approx(1.0, abs=1e-9)
        assert el.value == pytest.approx(-1.0, abs=1e-9)
        assert all(h > 0 for h in er.h_sequence)
        assert all(h < 0 for h in el.h_sequence)

    def test_two_sided_disagreement_is_flagged(self):
        est = p_derivative_limit(CLASSIC, parse("abs(t)"), 0.0, side="both")
        assert not est.converged
        assert est.value == pytest.approx(0.0, abs=1e-9)
        assert est.error_estimate >= 1.0  # half the left/right gap

    def test_constant_is_exact(self):
        est = p_derivative_limit(KHALIL, parse("2"), 1.7)
        assert est.value == 0.0
        assert est.converged
        assert est.error_estimate == 0.0

    def test_invalid_side(self):
        with pytest.raises(Exception):
            p_derivative_limit(KHALIL, parse("t"), 1.0, side="up")

    def test_outside_domain(self):
        with pytest.raises(EvaluationError):
            p_derivative_limit(KHALIL, parse("t"), -2.0)

    def test_callable_argument(self):
        est = p_derivative_limit(KHALIL, lambda t: t * t, 4.0)
        assert est.value == pytest.approx(16.0, abs=1e-6)

    def test_string_argument(self):
        est = p_derivative_limit(KHALIL, "t^2", 4.0)
        assert est.value == pytest.approx(16.0, abs=1e-6)

    def test_uninterpretable_argument(self):
        with pytest.raises(UsageError, match=r"^cannot interpret 3\.0 as a function of t$"):
            p_derivative_limit(KHALIL, 3.0, 1.0)

    def test_overflowing_f_at_the_point(self):
        with pytest.raises(EvaluationError, match=r"^f\(1\.0\) is not finite$"):
            p_derivative_limit(KHALIL, "1e308*t*10", 1.0)

    def test_level_where_p_rounds_to_t_is_skipped(self):
        # p(1, h) - 1 = h*1e-12 is below the noise floor of f = t^2 on the
        # first levels and rounds to 0 after: no level carries a signal,
        # where the zero numerators used to give 0.0 with estimate 0.0
        fam = make_family("custom", F="t + h*1e-12")
        with pytest.raises(EvaluationError, match="no evaluable levels"):
            p_derivative_limit(fam, "t^2", 1.0)


class TestLadderStart:
    # h0 is halved until p(t, +-h0) stays within a quarter of min(max(1, |t|),
    # the distance to the domain edge); near 0 that edge is t itself

    def test_katugampola_near_zero_claims_only_what_holds(self):
        # the first level h0 = 1e-2 mapped t to 6.6e19, and the ladder read
        # 1.3429e-08 with converged=True, 48% off the formula's 2.5759e-08
        fam, t = make_family("katugampola", 0.95), 0.00011621677007402848
        est = p_derivative_limit(fam, "t^3", t)
        assert est.converged
        assert abs(est.value - p_derivative_formula(fam, "t^3", t)) <= est.error_estimate

    @pytest.mark.parametrize("kind, alpha", [
        ("khalil", 0.3), ("khalil", 0.9), ("katugampola", 0.5), ("katugampola", 0.95),
        ("nderiv", 0.3), ("nderiv", 0.5)])  # nderiv 0.9's p overflows at t = 1e-4
    @pytest.mark.parametrize("t", [1e-4, 1e-2])
    def test_first_level_stays_within_reach(self, kind, alpha, t):
        fam = make_family(kind, alpha)
        for side in ("right", "left"):
            est = p_derivative_limit(fam, "t", t, side=side)
            h = est.h_sequence[0]
            assert abs(fam.p(t, h) - t) <= 0.25 * t
            if kind == "khalil" and abs(h) < 1e-2:  # halved, and p is linear in h
                assert abs(fam.p(t, 2.0 * h) - t) > 0.25 * t  # but no further than needed

    @pytest.mark.parametrize("kind, alpha, F, t", [
        ("khalil", 0.5, None, 1.3),  # h0 = 1e-2 at once
        ("katugampola", 0.95, None, 0.00011621677007402848),  # h0 halved
        ("nderiv", 0.9, None, 1e-4),  # p raises at every h != 0: the check's failures are kept too
        ("custom", None, "t + 1 + h", 1.0)])  # p(t, 0) != t: h0 is halved below 1e-300
    @pytest.mark.parametrize("side", ["both", "right", "left"])
    def test_level_zero_reuses_the_check(self, kind, alpha, F, t, side):
        fam, calls = make_family(kind, alpha, F=F), []

        def p(t, h):
            calls.append(h)
            return fam.p(t, h)

        counted = PFunction(fam.kind, fam.alpha, fam.beta, fam.F, fam.domain, fam.label,
                            p, fam._ph0)
        try:
            want = p_derivative_limit(fam, "t^3", t, side=side)
        except EvaluationError as exc:
            with pytest.raises(EvaluationError, match=re.escape(str(exc))):
                p_derivative_limit(counted, "t^3", t, side=side)
        else:
            assert repr(p_derivative_limit(counted, "t^3", t, side=side)) == repr(want)  # NaN
        assert len(calls) == len(set(calls))  # no p(t, h) is computed twice


def _tableau_at_zero(xs, ys):
    # the full Neville tableau, rebuilt from scratch
    p = list(ys)
    for k in range(1, len(p)):
        for i in range(len(p) - k):
            p[i] = (xs[i + k] * p[i] - xs[i] * p[i + 1]) / (xs[i + k] - xs[i])
    return p[0]


class TestExtrapolation:
    @given(st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=1, max_size=24),
           st.floats(1e-6, 1.0), st.sampled_from([1.0, -1.0]),
           st.sampled_from([0.0, 1e-12, 1e-8]))
    def test_incremental_tableau_matches_full(self, levels, h0, sign, tol):
        # None skips a level; the value at every ladder length must equal
        # the from-scratch tableau over the levels actually kept
        for n in range(1, len(levels) + 1):
            def quotient(h, k=iter(levels)):
                return next(k)

            try:
                val, _, _, hs, qs = extrapolate_quotient(quotient, sign, h0, tol, n)
            except EvaluationError:
                assert all(q is None for q in levels[:n])
                continue
            assert hs == [h0 * 2.0 ** -k * sign for k, q in enumerate(levels[:n])
                          if q is not None][:len(hs)]
            assert struct.pack("<d", val) == struct.pack("<d", _tableau_at_zero(hs, qs))

    def test_infinite_extrapolant_is_not_converged(self):
        # the third level's extrapolant is inf, and inf <= tol * max(1, inf) held
        levels = iter([1.0, 1.0, math.inf, math.inf, math.inf])
        _, _, converged, hs, _ = extrapolate_quotient(lambda h: next(levels), 1.0, 1.0, 1e-8, 5)
        assert not converged and len(hs) == 5

    def test_overflowing_ladder_reports_no_convergence(self):
        # p(t, 0) = t + 1: the h0 check halves h0 to 9.6e-301, the quotients run
        # up to 1.05e308 and the extrapolant overflows; it was reported converged
        est = p_derivative_limit(make_family("custom", F="t + 1 + h"), "t^2", 1.0, side="right")
        assert est.value == math.inf and not est.converged


class TestFormulaRoute:
    def test_frozen_point(self):
        assert p_derivative_formula(KHALIL, parse("t^2"), 4.0) == pytest.approx(
            16.0, rel=1e-12)

    def test_explicit_fprime_callable(self):
        v = p_derivative_formula(KHALIL, lambda t: t * t, 4.0, fprime=lambda t: 2 * t)
        assert v == pytest.approx(16.0, rel=1e-12)

    def test_callable_without_fprime_is_rejected(self):
        with pytest.raises(UsageError):
            p_derivative_formula(KHALIL, lambda t: t * t, 4.0)

    def test_nonsmooth_expression_is_rejected(self):
        with pytest.raises(DifferentiationError):
            p_derivative_formula(KHALIL, parse("abs(t)"), 1.0)

    def test_overflowing_derivative(self):
        with pytest.raises(EvaluationError, match=r"^f'\(10\.0\) is not finite$"):
            p_derivative_formula(KHALIL, "1e308*t^2", 10.0)

    def test_vanishing_multiplier_is_exceptional(self):
        power = make_family("power", 2.0)
        with pytest.raises(EvaluationError):
            p_derivative_formula(power, parse("t^2"), 1.0)

    def test_agreement_across_corpus(self):
        rng = np.random.default_rng(11)
        fams = [
            make_family("khalil", 0.3),
            make_family("katugampola", 0.7),
            make_family("gfd", 0.5, beta=1.5),
            make_family("nderiv", 0.4),
        ]
        for entry in smooth_entries():
            lo, hi = entry.domain
            for fam in fams:
                ts = rng.uniform(max(lo, 0.1), min(hi, 3.0), 4)
                for t in ts:
                    t = float(t)
                    est = p_derivative_limit(fam, entry.f, t, tol=1e-9)
                    ref = p_derivative_formula(fam, entry.f, t)
                    assert est.value == pytest.approx(ref, rel=1e-6, abs=1e-6), (
                        entry.name, fam.label, t)


def _family_of_kind(kind, alpha):
    if kind == "gfd":
        return make_family(kind, alpha, beta=1.5)
    if kind == "power":
        return make_family(kind, 1.0 + alpha)
    if kind == "custom":
        return make_family(kind, F="t + h*(1 + t^2) + h^2*t")
    return make_family(kind, alpha)


class TestRoutesAgree:
    # every corpus entry with a derivative, every family kind, at points
    # 0.05 or more inside both domains and |t| <= 4 (as in ACCEPTANCE 1):
    # where ph_zero != 0 the two routes agree to the ACCEPTANCE 1e-6
    # relative cap; where it vanishes (power) the formula route refuses
    # ph_zero = 5.4e4 here: a ladder starting at h0 = 1e-2 began 540
    # units away from t and never recovered
    @example(name="exp", kind="nderiv", alpha=0.875, u=0.00390625)
    @given(st.sampled_from([e.name for e in corpus_list() if e.fprime is not None]),
           st.sampled_from(["khalil", "katugampola", "gfd", "nderiv", "cosine",
                            "power", "custom"]),
           st.floats(0.1, 0.9), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=150)
    def test_limit_matches_formula(self, name, kind, alpha, u):
        entry, fam = corpus_entry(name), _family_of_kind(kind, alpha)
        lo = max(entry.domain[0], fam.domain.lo, -4.0) + 0.05
        hi = min(entry.domain[1], fam.domain.hi, 4.0) - 0.05
        t = lo + u * (hi - lo)
        if fam.ph_zero(t) == 0.0:
            with pytest.raises(EvaluationError):
                p_derivative_formula(fam, entry.f, t)
            return
        est = p_derivative_limit(fam, entry.f, t, tol=1e-8)
        ref = p_derivative_formula(fam, entry.f, t)
        assert abs(est.value - ref) / max(1.0, abs(ref)) < 1e-6, (name, fam.label, t)


class TestPowerFamily:
    def test_kink_derivative_vanishes(self):
        power = make_family("power", 2.0)
        est = p_derivative_limit(power, parse("abs(t)"), 0.0)
        assert est.converged
        assert est.value == pytest.approx(0.0, abs=1e-8)

    def test_sqrt_right_derivative(self):
        # f(p(0,h)) = sqrt(h^2) = |h|, so the right quotient is exactly 1
        power = make_family("power", 2.0)
        est = p_derivative_limit(power, parse("sqrt(t)"), 0.0, side="right")
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_smooth_functions_flatten(self):
        power = make_family("power", 2.0)
        for src in ("sin(t)", "exp(t)", "t^3"):
            est = p_derivative_limit(power, parse(src), 0.8)
            assert est.value == pytest.approx(0.0, abs=1e-7)


class TestComparison:
    def test_khalil_vs_katugampola(self):
        rep = compare_definitions(
            make_family("khalil", 0.5), make_family("katugampola", 0.5),
            parse("sin(t)"), 1.3)
        assert rep.expected_ratio == pytest.approx(1.0, rel=1e-12)
        assert rep.abs_diff < 1e-9
        assert rep.ratio == pytest.approx(1.0, abs=1e-7)
        assert rep.converged_1 and rep.converged_2

    def test_gfd_ratio_is_gamma_factor(self):
        # gamma(1.5)/gamma(2.0) = 0.8862269254527580  [tools/oracles.py]
        rep = compare_definitions(
            make_family("gfd", 0.5, beta=1.5), make_family("khalil", 0.5),
            parse("exp(t)"), 0.9)
        assert rep.expected_ratio == pytest.approx(0.886226925452758, rel=1e-12)
        assert rep.ratio == pytest.approx(rep.expected_ratio, abs=1e-7)

    def test_zero_over_zero_ratio_is_nan(self):
        power = make_family("power", 2.0)
        rep = compare_definitions(power, power, parse("sin(t)"), 0.5)
        assert math.isnan(rep.ratio)
        assert rep.abs_diff == pytest.approx(0.0, abs=1e-8)

    def test_failing_multiplier_gives_no_expected_ratio(self):
        # the multiplier of t + abs(h) raises: abs has no derivative at h = 0
        kinked = make_family("custom", F="t + abs(h)")
        rep = compare_definitions(kinked, KHALIL, "t", 1.0, side="right")
        assert rep.expected_ratio is None

    def test_values_match_single_route(self):
        f = parse("t^3")
        rep = compare_definitions(KHALIL, make_family("katugampola", 0.5), f, 2.0)
        solo = p_derivative_limit(KHALIL, f, 2.0)
        assert rep.value_1 == pytest.approx(solo.value, rel=1e-12)
