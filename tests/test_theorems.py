import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcalc.derivatives
import pcalc.expr
import pcalc.theorems
from pcalc.corpus import corpus_entry, corpus_list
from pcalc.derivatives import FormulaRoute, p_derivative_formula
from pcalc.errors import (DifferentiationError, DomainError, EvaluationError, ParameterError,
                          PcalcError, RootSearchError)
from pcalc.expr import BinOp, Call, Neg, _differentiate, differentiate, evaluate, parse, resolve
from pcalc.families import PFunction, make_family
from pcalc.theorems import (
    _scan_derivative,
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


class TestWorkBudget:
    def test_kinked_search_parses_once(self, monkeypatch):
        # every route of the search (grid, bisection, limit ladder) must reuse
        # the parsed (and compiled) f instead of re-parsing the source
        calls = [0]
        original = pcalc.expr.parse

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("pcalc") and getattr(module, "parse", None) is original:
                monkeypatch.setattr(module, "parse", counted)
        r = find_mvt_point(make_family("khalil", 0.6), "abs(t-1.3)", 1.0, 2.0)
        assert r.c == pytest.approx(1.3, abs=1e-6)
        assert calls[0] <= 2

    @pytest.mark.parametrize("search", ["mvt", "cauchy"])
    def test_multiplier_is_sampled_once_per_grid(self, search, monkeypatch):
        # the formula grids and the mvt slope term share one ph_zero_array per grid
        grids = []
        original = PFunction.ph_zero_array

        def counted(self, t):
            grids.append(len(t))
            return original(self, t)

        monkeypatch.setattr(PFunction, "ph_zero_array", counted)
        if search == "mvt":
            r = find_mvt_point(KHALIL, "t^2", 1.0, 2.0)
            assert grids == [1024]
        else:
            r = find_cauchy_mvt_point(KHALIL, "t", "sqrt(t)", 1.0, 2.0)
            assert grids == [64, 1024]  # the check that g' keeps off zero, then the scan
        assert r.c == pytest.approx(1.5 if search == "mvt" else 1.457106781186548, abs=1e-9)

    @pytest.mark.parametrize("search", ["mvt", "rolle"])
    def test_scalar_route_runs_only_at_marked_points(self, search, monkeypatch):
        # the cosine grid runs past pi/2, where the multiplier marks its points;
        # the points before them stay on the array route
        seen = []
        original = FormulaRoute.__call__

        def counted(self, t):
            seen.append(t)
            return original(self, t)

        monkeypatch.setattr(FormulaRoute, "__call__", counted)
        cosine = make_family("cosine", 0.5)
        with pytest.raises(DomainError, match=r"^t=1\.5717073170731708 outside the cosine"):
            if search == "mvt":
                find_mvt_point(cosine, "t^2", 1.0, 2.0)
            else:
                find_rolle_point(cosine, "(t-1)*(t-2)", 1.0, 2.0)
        assert seen == [1.5717073170731708]

    def test_max_principle_compiles_f_once(self, monkeypatch):
        calls = [0]
        original = pcalc.derivatives.compile_expr

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(pcalc.derivatives, "compile_expr", counted)
        rep = max_principle_check(KHALIL, "-((t-1.3)^2)", 1.0, 2.0)
        assert rep.c == pytest.approx(1.3, abs=1e-6)
        assert calls[0] == 1


class TestKinkPath:
    # abs(u)' = (u/abs(u)) u' off the kink lets the grid run on the product
    # formula; only a kink sitting on a grid node runs the limit route
    @pytest.fixture
    def limit_calls(self, monkeypatch):
        calls = []
        original = pcalc.theorems.p_derivative_limit

        def counted(fam, f, t, *args, **kwargs):
            calls.append(t)
            return original(fam, f, t, *args, **kwargs)

        monkeypatch.setattr(pcalc.theorems, "p_derivative_limit", counted)
        return calls

    @pytest.mark.parametrize("search", ["mvt", "rolle", "cauchy"])
    def test_kinked_searches_skip_the_limit_ladder(self, search, limit_calls):
        # the limit route runs only where the formula cannot, not at each of
        # the 1024 grid points
        fam = make_family("khalil", 0.6)
        if search == "mvt":
            r = find_mvt_point(fam, "abs(t-1.3)", 1.0, 2.0)
        elif search == "rolle":
            r = find_rolle_point(fam, "abs(t-1.5)-0.5", 1.0, 2.0)
        else:
            r = find_cauchy_mvt_point(fam, "abs(t-1.3)", "t", 1.0, 2.0)
        assert r.c == pytest.approx(1.5 if search == "rolle" else 1.3, abs=1e-9)
        assert len(limit_calls) <= 10

    def test_kink_on_a_grid_node_runs_the_limit_route(self, limit_calls):
        # the scan grid of [0, 1025] is the integers 1..1024, so u = t - 512
        # is exactly 0 at one node: 0/0 there, masked onto the limit route
        route = FormulaRoute(KHALIL, parse("abs(t-512)"), kinks=True)
        values = route.grid(np.arange(1.0, 1025.0))
        assert np.flatnonzero(~np.isfinite(values)).tolist() == [511]
        r = find_mvt_point(KHALIL, "abs(t-512)", 0.0, 1025.0)
        assert 512.0 in limit_calls
        assert len(limit_calls) <= 10
        assert abs(r.c - 512.0) <= 1e-9

    def test_public_routes_still_refuse_abs(self):
        with pytest.raises(DifferentiationError):
            differentiate(parse("abs(t)"))
        with pytest.raises(DifferentiationError):
            p_derivative_formula(KHALIL, "abs(t)", 1.0)


_KINDS = ["khalil", "katugampola", "gfd", "nderiv", "cosine", "power", "custom", "exact"]


def _family(kind, alpha):
    if kind == "gfd":
        return make_family(kind, alpha, beta=1.5)
    if kind == "power":
        return make_family(kind, 1.0 + alpha)
    if kind == "custom":
        return make_family(kind, F="t + h*(1 + t^2) + h^2*t")
    if kind == "exact":  # multiplier 1 + t*t: the same floats in numpy and in math
        return make_family("custom", F="t + h*(1 + t*t)")
    return make_family(kind, alpha)


def _exact(e):
    # + - * /, negation, abs and sqrt round alike in numpy and in math
    if isinstance(e, BinOp):
        return e.op != "^" and _exact(e.left) and _exact(e.right)
    if isinstance(e, Neg):
        return _exact(e.arg)
    if isinstance(e, Call):
        return e.func in ("abs", "sqrt") and _exact(e.arg)
    return True


def _exp_args(e, t):
    # |x| summed over the exp(x) nodes of e at t; numpy and math may round x
    # an ulp apart, and exp multiplies that relative error by |x|
    if isinstance(e, BinOp):
        return _exp_args(e.left, t) + _exp_args(e.right, t)
    if isinstance(e, Neg):
        return _exp_args(e.arg, t)
    if isinstance(e, Call):
        inner = abs(evaluate(e.arg, {"t": t})) if e.func == "exp" else 0.0
        return inner + _exp_args(e.arg, t)
    return 0.0


def _outcome(run):
    try:
        return "values", [struct.pack("<d", v) for v in run()]
    except PcalcError as exc:
        return type(exc).__name__, str(exc)


class TestFormulaGrid:
    # the grid call against the scalar route: every corpus entry (abs by the
    # kink rule) under every family kind, at points inside both domains, plus
    # the kink t = 0 and a point left of the family domain when drawn
    @given(st.sampled_from([e.name for e in corpus_list()]), st.sampled_from(_KINDS),
           st.floats(0.1, 0.9), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
           st.booleans(), st.booleans())
    @settings(max_examples=200)
    def test_grid_matches_scalar_route(self, name, kind, alpha, us, kink, outside):
        entry, fam = corpus_entry(name), _family(kind, alpha)
        lo = max(entry.domain[0], fam.domain.lo, -4.0) + 0.05
        hi = min(entry.domain[1], fam.domain.hi, 4.0) - 0.05
        pts = [lo + u * (hi - lo) for u in us]
        if kink and fam.domain.contains(0.0):
            pts.insert(len(pts) // 2, 0.0)
        if outside and math.isfinite(fam.domain.lo):
            pts.append(fam.domain.lo - 1.0)
        ts = np.array(pts)
        route = FormulaRoute(fam, entry.f, kinks=True)
        values = route.grid(ts)
        mask = ~np.isfinite(values)

        fprime = _differentiate(entry.f, "t", True)
        exact = kind in ("exact", "power") and _exact(fprime)
        for i in np.flatnonzero(~mask):
            t = float(ts[i])
            want = route(t)  # an unmasked point never needs the limit route
            if exact:
                assert struct.pack("<d", values[i]) == struct.pack("<d", want)
            else:
                cond = 1.0 + _exp_args(fprime, t) + (t ** -alpha if kind == "nderiv" else 0.0)
                assert abs(values[i] - want) <= 4.0 * cond * math.ulp(want), (t, values[i], want)

        # masked points run the scalar route in ascending index order, so
        # the resolved grid is the scalar loop, first failing point included
        assert _outcome(lambda: resolve(route.grid(ts), ts, route)[mask]) == \
            _outcome(lambda: np.array([route(t) for t in ts.tolist()])[mask])
        dp, _ = _scan_derivative(fam, lambda t: evaluate(entry.f, {"t": t}), entry.f, 1e-9)
        assert _outcome(lambda: resolve(route.grid(ts), ts, dp)[mask]) == \
            _outcome(lambda: np.array([dp(t) for t in ts.tolist()])[mask])


    def test_grid_masks_what_the_kernel_defers(self):
        # 1/(1 + 1/t) is a finite 0 in numpy at t = 0, where the scalar
        # closure divides by zero: the kernel flags it, so the grid masks it
        route = FormulaRoute(make_family("custom", F="t + h"), None, fprime="1/(1 + 1/t)")
        values = route.grid(np.array([1.0, 0.0, 2.0]))
        assert np.isnan(values).tolist() == [False, True, False]
        assert values[2] == route(2.0)
        with pytest.raises(EvaluationError, match="division by zero"):
            route(0.0)


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

    def test_g_derivative_vanishing_at_the_point(self):
        # g = abs(t-1) + (t-1) is flat left of 1, where f' / g' has its root
        with pytest.raises(ParameterError, match=r"^derivative of g vanishes near "
                                                 r"c=0\.523077; denominator degenerate$"):
            find_cauchy_mvt_point(KHALIL, "t", "abs(t-1)+(t-1)", 0.5, 2.0)


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


def _masked(cs):  # a grid that leaves every point to the scalar residual
    return np.full(len(cs), math.nan)


class TestScan:
    def test_no_root_raises_with_diagnostics(self):
        with pytest.raises(RootSearchError) as exc:
            _scan_for_root(lambda c: abs(c - 0.3) + 0.5, 0.0, 1.0, 1e-8, _masked)
        err = exc.value
        assert len(err.grid) == 1024
        assert len(err.residuals) == 1024
        assert "no sign change" in str(err)
        # bounds keep every digit, so a tiny interval stays readable
        with pytest.raises(RootSearchError) as exc:
            _scan_for_root(lambda c: 0.5, 1.0, 1.0000000001, 1e-8, _masked)
        assert "(1.0, 1.0000000001)" in str(exc.value)

    def test_sign_change_bisects(self):
        c, (lo, hi) = _scan_for_root(lambda c: c - 0.637, 0.0, 1.0, 1e-12, _masked)
        assert c == pytest.approx(0.637, abs=1e-9)
        assert hi - lo <= 1e-11
        assert (lo, hi) != (0.0, 1.0)  # not the degenerate bracket

    def test_touching_zero_from_above(self):
        c, (lo, hi) = _scan_for_root(lambda c: (c - 0.25) ** 2, 0.0, 1.0, 1e-8, _masked)
        assert c == pytest.approx(0.25, abs=1e-4)
        assert hi - lo <= 1e-10
        assert (lo, hi) != (0.0, 1.0)

    def test_exact_zero_on_the_grid(self):
        # the grid over [0, 1025] is the integers 1..1024, and 512 is the root
        assert _scan_for_root(lambda c: c - 512.0, 0.0, 1025.0, 1e-8, _masked) == \
            (512.0, (512.0, 512.0))

    def test_degenerate_case_brackets_the_whole_interval(self):
        # a residual below tol everywhere: the midpoint, with (a, b) as bracket
        assert _scan_for_root(lambda c: 0.0, 0.0, 1.0, 1e-8, _masked) == (0.5, (0.0, 1.0))


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

    def test_failing_displacement_fails_its_side(self):
        # p(t, h) = t + h^2.5 is undefined for h < 0 (at t = 0, h^2.5 never rounds away)
        rep = check_monotonicity_conditions(make_family("power", 2.5), 0.0)
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

    def test_scan_needs_t_fixed_at_h_zero(self):
        # the multiplier vanishes, but p(t, 0) = t + 0.5
        shifted = make_family("custom", F="t + 0.5 + h^2")
        with pytest.raises(ParameterError, match=r"does not fix t=1\.0 at h=0$"):
            polygonal_derivative_scan(self.VERTS, shifted, [1.0])
