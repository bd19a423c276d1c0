import math

import pytest

from pcalc.errors import ParameterError, RootSearchError
from pcalc.expr import parse
from pcalc.families import make_family
from pcalc.theorems import (
    check_monotonicity_conditions,
    find_cauchy_mvt_point,
    find_mvt_point,
    find_rolle_point,
    max_principle_check,
    polygonal,
    polygonal_derivative_scan,
    _scan_for_root,
)

KHALIL = make_family("khalil", 0.5)


class TestMeanValue:
    def test_exact_root(self):
        # r(c) = sqrt(c)(2c - 3): root at 3/2  [tools/oracles.py]
        r = find_mvt_point(KHALIL, parse("t^2"), 1.0, 2.0, tol=1e-8)
        assert r.c == pytest.approx(1.5, abs=1e-9)
        assert abs(r.residual) < 1e-8
        assert r.bracket[0] <= r.c <= r.bracket[1]
        assert not r.degenerate

    def test_kink_point_is_bracketed_tightly(self):
        # residual |c| - c/3 touches zero at c=0 without a sign change
        fam = make_family("custom", F="t + t*h + t^3*h^3")
        r = find_mvt_point(fam, parse("abs(t)"), -1.0, 2.0, tol=1e-8)
        assert abs(r.c) < 1e-9
        assert r.bracket[1] - r.bracket[0] <= 1e-10
        assert r.bracket[0] <= 0.0 <= r.bracket[1]

    def test_degenerate_constant(self):
        r = find_mvt_point(KHALIL, parse("5"), 1.0, 2.0, tol=1e-8)
        assert r.degenerate
        assert r.c == pytest.approx(1.5)
        assert r.bracket == (1.0, 2.0)

    def test_interval_validation(self):
        with pytest.raises(ParameterError):
            find_mvt_point(KHALIL, parse("t"), 2.0, 1.0)

    def test_slope_jump_located_at_kink(self):
        # piecewise-linear f with a slope jump at 0.5: the residual crosses
        # zero only where the two-sided quotient sweeps through the secant
        # slope, pinning c to the kink
        f = polygonal([(0.0, 0.0), (0.5, 1.0), (1.0, 0.5)])
        classic = make_family("custom", F="t + h")
        r = find_mvt_point(classic, f, 0.1, 0.9, tol=1e-8)
        assert r.c == pytest.approx(0.5, abs=1e-6)
        assert not r.degenerate


class TestCauchy:
    def test_frozen_point(self):
        # c = 1/(4 (sqrt2 - 1)^2) = 1.457106781186548  [tools/oracles.py]
        r = find_cauchy_mvt_point(KHALIL, parse("t"), parse("sqrt(t)"), 1.0, 2.0)
        assert r.c == pytest.approx(1.457106781186548, abs=1e-9)
        assert r.k == pytest.approx(0.5, abs=1e-9)
        assert abs(r.residual) < 1e-8

    def test_same_function_degenerates(self):
        r = find_cauchy_mvt_point(KHALIL, parse("t^2"), parse("t^2"), 1.0, 2.0)
        assert r.degenerate

    def test_flat_g_rejected(self):
        with pytest.raises(ParameterError):
            find_cauchy_mvt_point(KHALIL, parse("t"), parse("3"), 1.0, 2.0)


class TestRolle:
    def test_frozen_point(self):
        # sqrt(c) pi cos(pi c) = 0 on [1,2]: c = 3/2  [tools/oracles.py]
        r = find_rolle_point(KHALIL, parse("sin(pi*t)"), 1.0, 2.0)
        assert r.c == pytest.approx(1.5, abs=1e-9)
        # k reports the multiplier at c: sqrt(1.5)
        assert r.k == pytest.approx(math.sqrt(1.5), rel=1e-6)

    def test_nonzero_endpoints_rejected(self):
        with pytest.raises(ParameterError):
            find_rolle_point(KHALIL, parse("cos(pi*t)"), 1.0, 2.0)


class TestScan:
    def test_no_root_raises_with_diagnostics(self):
        with pytest.raises(RootSearchError) as exc:
            _scan_for_root(lambda c: abs(c - 0.3) + 0.5, 0.0, 1.0, 1e-8)
        err = exc.value
        assert len(err.grid) == 1024
        assert len(err.residuals) == 1024
        assert "no sign change" in str(err)
        # bounds keep every digit, so a tiny interval stays readable
        with pytest.raises(RootSearchError) as exc:
            _scan_for_root(lambda c: 0.5, 1.0, 1.0000000001, 1e-8)
        assert "(1.0, 1.0000000001)" in str(exc.value)

    def test_sign_change_bisects(self):
        c, (lo, hi), degenerate = _scan_for_root(
            lambda c: c - 0.637, 0.0, 1.0, 1e-12)
        assert c == pytest.approx(0.637, abs=1e-9)
        assert hi - lo <= 1e-11
        assert not degenerate

    def test_touching_zero_from_above(self):
        c, (lo, hi), degenerate = _scan_for_root(
            lambda c: (c - 0.25) ** 2, 0.0, 1.0, 1e-8)
        assert c == pytest.approx(0.25, abs=1e-4)
        assert hi - lo <= 1e-10
        assert not degenerate


class TestMaxPrinciple:
    def test_interior_maximum(self):
        rep = max_principle_check(KHALIL, parse("sin(pi*t)"), 0.2, 1.0)
        assert rep.c == pytest.approx(0.5, abs=1e-6)
        assert rep.f_at_c == pytest.approx(1.0, abs=1e-9)
        assert rep.interior
        assert rep.vanishes
        assert abs(rep.derivative.value) < 1e-4
        assert rep.monotonicity.left_decreasing
        assert rep.monotonicity.right_increasing

    def test_boundary_maximum(self):
        rep = max_principle_check(KHALIL, parse("t"), 1.0, 2.0)
        assert not rep.interior
        assert rep.c == pytest.approx(2.0, abs=1e-6)
        assert not rep.vanishes

    def test_monotonicity_probe(self):
        rep = check_monotonicity_conditions(KHALIL, 1.0)
        assert rep.left_decreasing
        assert rep.right_increasing
        assert rep.t == 1.0
        assert len(rep.sampled_h) > 0

    def test_even_displacement_fails_left(self):
        # p(t, h) = t + h^2 moves right for both signs of h
        power = make_family("power", 2.0)
        rep = check_monotonicity_conditions(power, 0.7)
        assert not rep.left_decreasing
        assert rep.right_increasing

    def test_monotonicity_rejects_bad_samples(self):
        with pytest.raises(ParameterError):
            check_monotonicity_conditions(KHALIL, 1.0, h_samples=(1e-2, -1e-3))


class TestPolygonal:
    VERTS = [(-2.0, 1.0), (-1.0, -0.5), (0.5, 2.0), (1.5, 0.0), (3.0, 1.0)]

    def test_interpolation(self):
        f = polygonal(self.VERTS)
        assert f(-2.0) == 1.0
        assert f(0.5) == 2.0
        assert f(1.0) == pytest.approx(1.0)
        assert f(2.0) == pytest.approx(1.0 / 3.0)

    def test_linear_extension(self):
        f = polygonal([(0.0, 0.0), (1.0, 2.0)])
        assert f(2.0) == pytest.approx(4.0)
        assert f(-1.0) == pytest.approx(-2.0)

    def test_vertices_sorted_internally(self):
        f = polygonal([(1.0, 2.0), (0.0, 0.0)])
        assert f(0.5) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            polygonal([(0.0, 0.0)])
        with pytest.raises(ParameterError):
            polygonal([(0.0, 0.0), (0.0, 1.0)])

    def test_scan_under_power_family(self):
        power = make_family("power", 2.0)
        grid = [x for x, _ in self.VERTS]
        ests = polygonal_derivative_scan(self.VERTS, power, grid)
        assert len(ests) == len(grid)
        for est in ests:
            assert est.converged
            assert abs(est.value) < 1e-8

    def test_scan_needs_vanishing_multiplier(self):
        with pytest.raises(ParameterError):
            polygonal_derivative_scan(self.VERTS, KHALIL, [1.0])
