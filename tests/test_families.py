import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pcalc.expr
from pcalc.errors import (
    DifferentiationError,
    DomainError,
    EvaluationError,
    NonIntegrableError,
    ParameterError,
    PcalcError,
    QuadratureError,
    UsageError,
)
from pcalc.expr import (
    _MEMO_NODES,
    _OPS,
    FUNCTIONS,
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    compile_array,
    compile_expr,
    differentiate,
    evaluate,
    parse,
    resolve,
    substitute,
)
from pcalc.families import (
    DEFAULT_EPSILONS,
    FAMILY_KINDS,
    EpsilonRecord,
    Interval,
    PFunction,
    _expression_forms,
    check_l1,
    check_offset_solvability,
    make_family,
)
from pcalc.integrals import p_integral
from pcalc.quadrature import error_target


def all_builtin_families():
    fams = []
    for alpha in (0.1, 0.5, 0.9):
        fams.append(make_family("khalil", alpha))
        fams.append(make_family("katugampola", alpha))
        fams.append(make_family("gfd", alpha, beta=1.5))
        fams.append(make_family("nderiv", alpha))
        fams.append(make_family("cosine", alpha))
    fams.append(make_family("power", 2.0))
    fams.append(make_family("power", 3.5))
    fams.append(make_family("custom", F="t + t*h + t^3*h^3"))
    return fams


def interior_points(fam, rng, n=12):
    lo, hi = fam.domain.lo, fam.domain.hi
    lo = max(lo, -2.0) + 0.05
    hi = min(hi, 3.0) - 0.05
    return rng.uniform(lo, hi, n)


class TestConstruction:
    def test_kind_enum(self):
        assert set(FAMILY_KINDS) == {
            "khalil", "katugampola", "gfd", "nderiv", "cosine", "power", "custom",
        }

    def test_repr_is_the_label(self):
        assert repr(make_family("khalil", 0.5)) == "PFunction<khalil(alpha=0.5)>"

    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            make_family("fractal", 0.5)

    def test_range_probe_skips_points_where_p_fails(self):
        # F = ln(t - 0.5) raises at t = 0.1, and so does p(0.1, h), so the
        # finiteness check on F looks only at t = 1 and t = 10
        fam = make_family("nderiv", 0.5, F="ln(t - 0.5)")
        with pytest.raises(EvaluationError, match=r"^domain error in ln\("):
            fam.p(0.1, 1e-3)
        assert fam.p(1.0, 1e-3) == 1.0 + 1e-3 * math.log(0.5)

    @pytest.mark.parametrize("kind", ["khalil", "katugampola", "gfd", "nderiv", "cosine"])
    def test_alpha_required_and_positive(self, kind):
        with pytest.raises(ParameterError):
            make_family(kind)
        with pytest.raises(ParameterError):
            make_family(kind, -0.5, beta=1.5)
        with pytest.raises(ParameterError):
            make_family(kind, 0.0, beta=1.5)

    def test_gfd_needs_beta_off_poles(self):
        with pytest.raises(ParameterError):
            make_family("gfd", 0.5)
        # beta - alpha + 1 hits the gamma poles at 0, -1, ...
        with pytest.raises(ParameterError):
            make_family("gfd", 2.5, beta=1.5)
        with pytest.raises(ParameterError):
            make_family("gfd", 3.5, beta=1.5)
        make_family("gfd", 1.5, beta=1.5)  # fine: argument is 1.0

    def test_cosine_alpha_capped_at_one(self):
        make_family("cosine", 1.0)
        with pytest.raises(ParameterError):
            make_family("cosine", 1.2)

    def test_power_needs_alpha_above_one(self):
        with pytest.raises(ParameterError):
            make_family("power", 1.0)
        with pytest.raises(ParameterError):
            make_family("power", 0.5)

    def test_custom_needs_full_expression(self):
        with pytest.raises(ParameterError):
            make_family("custom")
        fam = make_family("custom", F="t + h^3")
        assert fam.p(2.0, 0.1) == pytest.approx(2.001)

    def test_custom_rejects_unknown_variables(self):
        with pytest.raises(UsageError):
            make_family("custom", F="t + h*z")

    def test_param_echo(self):
        fam = make_family("gfd", 0.5, beta=1.5)
        assert fam.kind == "gfd"
        assert fam.alpha == 0.5
        assert fam.beta == 1.5


# make_family's message for each way its arguments can be wrong, in the
# order the checks run: each row is also wrong in every later respect
# it can be, so the row pins which message wins
MESSAGES = [
    (("fractal", 0.5, 1.5, "t"), "unknown family 'fractal'; valid: "
     "khalil, katugampola, gfd, nderiv, cosine, power, custom"),
    (("khalil", None, 1.5, "t"), "beta only applies to the gfd family, not 'khalil'"),
    (("cosine", None, None, "t"), "F only applies to nderiv/custom families, not 'cosine'"),
    (("gfd", None, None, None), "gfd family requires alpha"),
    (("power", math.inf, None, None), "alpha must be finite"),
    (("nderiv", math.nan, None, "z"), "alpha must be finite"),
    (("khalil", -0.5, None, None), "khalil family needs alpha > 0, got -0.5"),
    (("katugampola", 0.0, None, None), "katugampola family needs alpha > 0, got 0.0"),
    (("gfd", -1.0, None, None), "gfd family needs alpha > 0, got -1.0"),
    (("nderiv", 0.0, None, "h"), "nderiv family needs alpha > 0, got 0.0"),
    (("cosine", 1.2, None, None), "cosine family needs 0 < alpha <= 1, got 1.2"),
    (("cosine", 0.0, None, None), "cosine family needs 0 < alpha <= 1, got 0.0"),
    (("power", 1.0, None, None), "power family needs alpha > 1, got 1.0"),
    (("gfd", 0.5, None, None), "gfd family requires beta"),
    (("gfd", 0.5, -2.0, None), "gfd needs beta not in {0, -1, -2, ...}; got -2.0"),
    (("gfd", 0.5, 0.0, None), "gfd needs beta not in {0, -1, -2, ...}; got 0.0"),
    (("gfd", 2.5, 1.5, None),
     "gamma pole at beta=1.5, alpha=2.5: beta - alpha + 1 must avoid {0, -1, -2, ...}"),
    (("gfd", 0.5, 200.0, None), "gfd coefficient Gamma(beta)/Gamma(beta - alpha + 1) is "
     "out of float range at beta=200.0, alpha=0.5"),
    (("gfd", 1.8, -199.7, None), "gfd coefficient Gamma(beta)/Gamma(beta - alpha + 1) is "
     "out of float range at beta=-199.7, alpha=1.8"),  # Gamma(-200.5) underflows to 0
    (("custom", 0.5, None, None), "custom family requires F: the full p(t, h) expression"),
    (("custom", None, None, "t + alpha*h + x"),
     "custom p may only reference ['alpha', 'h', 't']; found ['x']"),
    (("custom", None, None, "t + alpha*h"), "custom p references alpha but no alpha was given"),
    (("nderiv", 0.5, None, 5), "nderiv F must be an expression or source text"),
    (("nderiv", 0.5, None, "t + h"), "nderiv F may only reference ['alpha', 't']; found ['h']"),
    # F overflows to inf, so no step h != 0 keeps p(t, h) = t + h*F(t) finite
    (("nderiv", 0.5, None, "1e308*10"),
     "nderiv(alpha=0.5, F=...): F(0.1) = inf, so p(t, h) leaves the domain (0.0, inf)"),
]


class TestMessages:
    @pytest.mark.parametrize("args, message", MESSAGES)
    def test_message_and_precedence(self, args, message):
        kind, alpha, beta, F = args
        with pytest.raises(ParameterError) as exc:
            make_family(kind, alpha, beta=beta, F=F)
        assert str(exc.value) == message

    @pytest.mark.parametrize("alpha, F", [(math.nan, "t + h*t^(1-alpha)"), (math.inf, "t + h"),
                                          (-math.inf, None)])
    def test_custom_alpha_must_be_finite(self, alpha, F):
        # tested ahead of the custom branch, as for the closed-form kinds,
        # so it also wins over a missing F
        with pytest.raises(ParameterError) as exc:
            make_family("custom", alpha, F=F)
        assert str(exc.value) == "alpha must be finite"

    def test_unknown_variable_is_a_parse_error(self):
        with pytest.raises(UsageError, match=r"^unknown variable 'z' \(byte offset 6\)$"):
            make_family("custom", F="t + h*z")

    @pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
    def test_beta_must_be_finite(self, beta):
        with pytest.raises(ParameterError, match="^beta must be finite$"):
            make_family("gfd", 0.5, beta=beta)

    def test_gfd_coefficient_may_overflow_in_the_quotient(self):
        # Gamma(1e-300) = 1e300 and Gamma(-81.5) = 6e-122 are finite; their
        # quotient is not
        with pytest.raises(ParameterError) as exc:
            make_family("gfd", 82.5, beta=1e-300)
        assert str(exc.value) == ("gfd coefficient Gamma(beta)/Gamma(beta - alpha + 1) is "
                                  "out of float range at beta=1e-300, alpha=82.5")

    @pytest.mark.parametrize("alpha, beta", [
        (0.3, -178.3),  # Gamma(-178.3) underflows to -0.0: c0 was -0.0, not -0.0312
        (0.25, -175.6),  # Gamma(-175.6) = 1.3e-319 is subnormal: c0 was 6.5e-6 off
    ])
    def test_gfd_coefficient_refused_where_a_gamma_is_not_normal(self, alpha, beta):
        with pytest.raises(ParameterError) as exc:
            make_family("gfd", alpha, beta=beta)
        assert str(exc.value) == ("gfd coefficient Gamma(beta)/Gamma(beta - alpha + 1) is "
                                  f"out of float range at beta={beta!r}, alpha={alpha!r}")


_pow, _exp, _sin, _cos = (_OPS[op].scalar for op in ("^", "exp", "sin", "cos"))

# each closed-form kind's domain, p, ph_zero and ph_zero's numpy form for
# (alpha, c0), written out independently of make_family: the hand-written
# closures the kinds had before their rows became expressions
REFERENCE = {
    "khalil": (Interval(0.0, math.inf), lambda a, c0: (
        lambda t, h: t + h * _pow(t, 1.0 - a),
        lambda t: _pow(t, 1.0 - a),
        lambda t: np.power(t, 1.0 - a))),
    "katugampola": (Interval(0.0, math.inf), lambda a, c0: (
        lambda t, h: t * _exp(h * _pow(t, -a)),
        lambda t: _pow(t, 1.0 - a),
        lambda t: np.power(t, 1.0 - a))),
    "gfd": (Interval(0.0, math.inf), lambda a, c0: (
        lambda t, h: t + c0 * h * _pow(t, 1.0 - a),
        lambda t: c0 * _pow(t, 1.0 - a),
        lambda t: c0 * np.power(t, 1.0 - a))),
    "nderiv": (Interval(0.0, math.inf), lambda a, c0: (
        lambda t, h: t + h * _exp(_pow(t, -a)),
        lambda t: _exp(_pow(t, -a)),
        lambda t: np.exp(np.power(t, -a)))),
    "cosine": (Interval(0.0, math.pi / 2.0, closed_lo=True), lambda a, c0: (
        lambda t, h: t + _sin(h) * _pow(_cos(t), 1.0 - a),
        lambda t: _pow(math.cos(t), 1.0 - a),
        lambda t: np.power(np.cos(t), 1.0 - a))),
    "power": (Interval(-math.inf, math.inf), lambda a, c0: (
        lambda t, h: t + _pow(h, a),
        lambda t: 0.0,
        np.zeros_like)),
}
ALPHAS = {"cosine": st.floats(1e-3, 1.0), "power": st.floats(1.0 + 1e-9, 6.0)}
NDERIV_F = ["exp(t^(-alpha)) + t", "t", "ln(t)", "alpha*sqrt(t)", "gamma(t)",
            "abs(t - 1)", "1/(t - 1)", "t^alpha - 2"]
POINTS = st.one_of(st.floats(-1.0, 40.0), st.sampled_from(
    [0.0, 5e-324, 1e-300, 1e-3, 1.0, math.pi / 2, 1e300, math.inf, math.nan]))


def _outcome(call):
    try:
        return "value", call()
    except PcalcError as exc:
        return type(exc).__name__, str(exc)


def _resolved(fam, ts):
    """The marked multiplier resolved by the scalar one: [ph_zero(x) for x in ts]."""
    ts = np.asarray(ts, dtype=float)
    return resolve(fam.ph_zero_array(ts), ts, fam.ph_zero)


def _identical(fam, ref, t, h, ts):
    for call in (lambda f: f.p(t, h), lambda f: f.ph_zero(t),
                 lambda f: _resolved(f, ts)):
        got, want = _outcome(lambda: call(fam)), _outcome(lambda: call(ref))
        assert got[0] == want[0]
        if got[0] == "value":
            assert np.array_equal(got[1], want[1], equal_nan=True)
            assert np.array_equal(np.copysign(1.0, got[1]), np.copysign(1.0, want[1]))
        else:
            assert got[1] == want[1]


class TestClosedForms:
    @given(st.data(), st.sampled_from(sorted(REFERENCE)), POINTS, st.floats(-2.0, 2.0),
           st.lists(POINTS, min_size=1, max_size=8))
    def test_kinds_match_their_closed_forms(self, data, kind, t, h, ts):
        alpha = data.draw(ALPHAS.get(kind, st.floats(1e-3, 4.0)), label="alpha")
        beta = data.draw(st.floats(0.05, 8.0), label="beta") if kind == "gfd" else None
        try:
            fam = make_family(kind, alpha, beta=beta)
        except ParameterError:  # a gamma pole
            return
        c0 = 1.0 if beta is None else math.gamma(beta) / math.gamma(beta - alpha + 1.0)
        domain, forms = REFERENCE[kind]
        assert fam.domain == domain
        ref = PFunction(kind, alpha, beta, None, domain, fam.label, *forms(alpha, c0))
        _identical(fam, ref, t, h, ts)

    @pytest.mark.parametrize("kind, alpha, beta, t, h", [
        ("gfd", 0.6, 1.4, 1.5, 0.3),  # (c0*h)*x and c0*(h*x) round apart here
        ("gfd", 0.6, 1.4, 3.0, 0.1),
        ("khalil", 0.5, None, -1.0, 0.1),  # p has no domain check: "domain error in -1.0^0.5"
        ("katugampola", 0.5, None, -1.0, 0.1),
        ("cosine", 0.5, None, 2.0, 0.1),  # cos(2)^0.5
        ("nderiv", 0.5, None, 1e-300, 0.1),  # exp overflows
        ("power", 2.5, None, 1.0, -0.5),  # (-0.5)^2.5
    ])
    def test_rows_on_fixed_points(self, kind, alpha, beta, t, h):
        fam = make_family(kind, alpha, beta=beta)
        c0 = 1.0 if beta is None else math.gamma(beta) / math.gamma(beta - alpha + 1.0)
        domain, forms = REFERENCE[kind]
        ref = PFunction(kind, alpha, beta, None, domain, fam.label, *forms(alpha, c0))
        _identical(fam, ref, t, h, [t, 0.5, t])

    def test_row_errors_are_the_expression_messages(self):
        with pytest.raises(EvaluationError, match=r"^domain error in -1\.0\^0\.5$"):
            make_family("khalil", 0.5).p(-1.0, 0.1)
        with pytest.raises(EvaluationError, match=r"^overflow in exp\("):
            make_family("nderiv", 0.5).ph_zero(1e-300)

    @given(st.sampled_from(NDERIV_F), st.floats(1e-3, 4.0), POINTS, st.floats(-2.0, 2.0),
           st.lists(POINTS, min_size=1, max_size=8))
    def test_nderiv_F_is_t_plus_h_F(self, F, alpha, t, h, ts):
        try:
            fam = make_family("nderiv", alpha, F=F)
        except ParameterError:
            return
        fe = substitute(parse(F), "alpha", Num(alpha))  # alpha fixed: kernels on t alone
        fc = compile_expr(fe)
        ref = PFunction("nderiv", alpha, None, fam.F, Interval(0.0, math.inf), fam.label,
                        lambda t, h: t + h * fc(t), fc, compile_array(fe))
        _identical(fam, ref, t, h, ts)


def _bits(call):
    try:
        return "value", struct.pack("<d", call())
    except PcalcError as exc:
        return type(exc).__name__, str(exc)


def _three_name_forms(pe, alpha):
    """p and the multiplier of a p(t, h) expression with t, h and alpha all
    bound at call time: the forms the folded trees must reproduce."""
    pc = compile_expr(pe, ("t", "h", "alpha"))
    try:
        dpc = compile_expr(differentiate(pe, "h"), ("t", "h", "alpha"))
    except DifferentiationError as exc:
        message = f"custom family multiplier unavailable: {exc}"

        def dpc(t, h, alpha):
            raise DifferentiationError(message)

    return lambda t, h: pc(t, h, alpha), lambda t: dpc(t, 0.0, alpha)


_P_TREES = st.recursive(
    st.one_of(st.one_of(st.floats(), st.sampled_from([-1.0, 0.0, -0.0, 0.5, 2.0])).map(Num),
              st.sampled_from(["t", "h", "alpha"]).map(Var)),
    lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), kids)),
    max_leaves=10)
CUSTOM_P = ["t + h*(0-t)*alpha", "t + h*t^(1-alpha)", "t*exp(h*t^(-alpha))",
            "t + sin(h)*cos(t)^(1-alpha)", "t + alpha*h^2 + h*ln(t)", "t + abs(h)",
            "t + h*gamma(t)*alpha"]
ALPHA_OR_ZERO = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 2.0]), st.floats())


# nderiv F trees: overflowing and tiny constants, ln, and poles 1/(t - c)
# at and off the points the finiteness check looks at
F_TREES = st.recursive(
    st.sampled_from(["t", "alpha", "2", "0.5", "1e308", "1e-308", "1/(t - 0.1)", "1/(t - 1)",
                     "1/(t - 10)", "1/(t - 3)"]),
    lambda inner: st.one_of(
        inner.map("ln({})".format),
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map("({0[0]}){0[1]}({0[2]})".format)),
    max_leaves=6)


def _closed_row_alpha(kind):
    return {"cosine": st.floats(1e-300, 1.0), "power": st.floats(1.0, 1e300, exclude_min=True),
            "gfd": st.floats(1e-300, 200.0)}.get(kind, st.floats(1e-300, 1e300))


class TestRangeGuarantee:
    """p(t, h) stays in the t-domain for small h: by each closed-form row's
    alpha test, and for nderiv with F wherever F(0.1), F(1) and F(10) are
    finite or undefined."""

    @given(F_TREES, st.floats(1e-3, 4.0))
    @example("1e308*10", 0.5)
    @example("(1e308*10)-(1e308*10)", 0.5)
    @example("ln(t - 1)", 0.5)
    @example("1/(t - 1)", 0.5)
    def test_nderiv_F_is_refused_exactly_where_not_finite(self, F, alpha):
        bad = None
        for t in (0.1, 1.0, 10.0):
            try:
                v = evaluate(parse(F), {"t": t, "alpha": alpha})
            except EvaluationError:
                continue
            if not math.isfinite(v):
                bad = (t, v)
                break
        if bad is None:
            make_family("nderiv", alpha, F=F)
        else:
            with pytest.raises(ParameterError) as exc:
                make_family("nderiv", alpha, F=F)
            assert str(exc.value) == (f"nderiv(alpha={alpha:g}, F=...): F({bad[0]:g}) = "
                                      f"{bad[1]!r}, so p(t, h) leaves the domain (0.0, inf)")

    @given(st.data(), st.sampled_from(sorted(REFERENCE)), st.floats(0.0, 1.0))
    def test_closed_form_rows_keep_p_in_the_domain(self, data, kind, frac):
        alpha = data.draw(_closed_row_alpha(kind), label="alpha")
        beta = data.draw(st.floats(-199.7, 170.0), label="beta") if kind == "gfd" else None
        try:
            fam = make_family(kind, alpha, beta=beta)
        except ParameterError:  # a gamma pole or a coefficient out of float range
            return
        dom = fam.domain
        t = data.draw(st.floats(max(dom.lo, -1e300), min(dom.hi, 1e300),
                                exclude_min=not dom.closed_lo, exclude_max=True), label="t")
        room = min(t - dom.lo, dom.hi - t)
        try:
            speed = abs(fam.ph_zero(t))
        except EvaluationError:
            speed = 0.0
        h = frac * min(1e-3, room / (4.0 * speed) if speed > 0.0 else math.inf)
        for step in (h, -h):
            try:
                pt = fam.p(t, step)
            except EvaluationError:
                continue
            assert dom.contains(pt), (t, step, pt)


class TestExpressionForms:
    """alpha and h = 0 are folded into the trees of custom and nderiv-F
    families; every float and error must be what the expression gives
    with t, h and alpha bound at call time."""

    @given(_P_TREES, ALPHA_OR_ZERO, POINTS, st.floats(-2.0, 2.0))
    @example(parse("t + h*(0-t)*alpha"), 0.0, 2.0, 0.5)  # ph0(2.0) is -0.0
    def test_folded_forms_match_three_name_path(self, pe, alpha, t, h):
        p, ph0, _ = _expression_forms(pe, alpha)
        ref_p, ref_ph0 = _three_name_forms(pe, alpha)
        assert _bits(lambda: p(t, h)) == _bits(lambda: ref_p(t, h))
        assert _bits(lambda: ph0(t)) == _bits(lambda: ref_ph0(t))

    @given(st.sampled_from([("custom", p) for p in CUSTOM_P] + [("nderiv", F) for F in NDERIV_F]),
           ALPHA_OR_ZERO, POINTS, st.floats(-2.0, 2.0))
    @example(("custom", "t + h*(0-t)*alpha"), 0.0, 2.0, 0.5)
    def test_families_match_three_name_path(self, spec, alpha, t, h):
        kind, src = spec
        try:
            fam = make_family(kind, alpha, F=src)
        except ParameterError:  # alpha out of range, or the range probe
            return
        pe = fam.F if kind == "custom" else BinOp("+", Var("t"), BinOp("*", Var("h"), fam.F))
        ref_p, ref_ph0 = _three_name_forms(pe, alpha)
        assert _bits(lambda: fam.p(t, h)) == _bits(lambda: ref_p(t, h))
        assert _bits(lambda: fam.ph_zero(t)) == _bits(lambda: (fam.require(t), ref_ph0(t))[1])

    def test_folding_after_differentiating_keeps_negative_zero(self):
        # folding alpha = 0 first would short-cut (0-t)*alpha to 0.0
        fam = make_family("custom", 0.0, F="t + h*(0-t)*alpha")
        assert struct.pack("<d", fam.ph_zero(2.0)) == struct.pack("<d", -0.0)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_custom_array_multiplier_is_khalils(self, alpha):
        # a scalar exponent lets numpy take the same power paths as khalil's closed form
        t = np.exp(np.random.default_rng(0).uniform(-20.0, 20.0, 10_000))
        custom = make_family("custom", alpha, F="t + h*t^(1-alpha)")
        khalil = make_family("khalil", alpha)
        assert custom.ph_zero_array(t).tobytes() == khalil.ph_zero_array(t).tobytes()


class TestDeformationValues:
    def test_khalil_closed_form(self):
        fam = make_family("khalil", 0.5)
        assert fam.p(4.0, 0.25) == pytest.approx(4.0 + 0.25 * 2.0, rel=1e-15)
        assert fam.ph_zero(4.0) == pytest.approx(2.0, rel=1e-15)

    def test_katugampola_closed_form(self):
        fam = make_family("katugampola", 0.5)
        assert fam.p(4.0, 0.25) == pytest.approx(4.0 * math.exp(0.25 * 0.5), rel=1e-15)
        assert fam.ph_zero(4.0) == pytest.approx(2.0, rel=1e-15)

    def test_gfd_scales_khalil_by_gamma_ratio(self):
        # gamma(1.5)/gamma(2.0) = 0.8862269254527580  [tools/oracles.py]
        fam = make_family("gfd", 0.5, beta=1.5)
        khalil = make_family("khalil", 0.5)
        for t in (0.3, 1.0, 2.7):
            assert fam.ph_zero(t) == pytest.approx(
                0.886226925452758 * khalil.ph_zero(t), rel=1e-12)

    def test_nderiv_multiplier(self):
        fam = make_family("nderiv", 0.5)
        t = 1.7
        assert fam.ph_zero(t) == pytest.approx(math.exp(t ** -0.5), rel=1e-14)

    def test_cosine_multiplier(self):
        fam = make_family("cosine", 0.3)
        t = 0.9
        assert fam.ph_zero(t) == pytest.approx(math.cos(t) ** 0.7, rel=1e-14)

    def test_cosine_p_raises_the_checked_rule_error(self):
        # p does not check its domain; the checked cos rule names the point
        with pytest.raises(EvaluationError, match=r"^domain error in cos\(inf\)$"):
            make_family("cosine", 1.0).p(math.inf, 0.0)

    def test_power_multiplier_vanishes(self):
        fam = make_family("power", 2.0)
        for t in (-3.0, 0.0, 1.0, 17.0):
            assert fam.ph_zero(t) == 0.0
        assert fam.p(1.0, 0.1) == pytest.approx(1.01)
        assert fam.p(1.0, 0.0) == 1.0

    def test_identity_at_h_zero(self):
        rng = np.random.default_rng(3)
        for fam in all_builtin_families():
            for t in interior_points(fam, rng):
                assert fam.p(float(t), 0.0) == pytest.approx(float(t), rel=1e-14)

    def test_ph_matches_difference_quotient(self):
        # ph_zero(t) is d/dh p(t, h) at h = 0.  cosine and the fractional
        # power kind only admit h >= 0: forward difference there, central
        # elsewhere
        rng = np.random.default_rng(4)
        for fam in all_builtin_families():
            one_sided = fam.kind in ("cosine", "power")
            for t in interior_points(fam, rng, n=6):
                t = float(t)
                step = 1e-6
                if one_sided:
                    num = (fam.p(t, step) - fam.p(t, 0.0)) / step
                    assert fam.ph_zero(t) == pytest.approx(num, rel=1e-4, abs=1e-4)
                else:
                    num = (fam.p(t, step) - fam.p(t, -step)) / (2 * step)
                    assert fam.ph_zero(t) == pytest.approx(num, rel=5e-7, abs=5e-7)

    def test_ph_zero_agrees_with_ph(self):
        # the closed-form multiplier of each builtin kind against the
        # symbolic h-derivative of the same p(t, h) at h = 0
        p_source = {
            "khalil": "t + h*t^(1 - alpha)",
            "katugampola": "t*exp(h*t^(-alpha))",
            "nderiv": "t + h*exp(t^(-alpha))",
            "cosine": "t + sin(h)*cos(t)^(1 - alpha)",
            "power": "t + h^alpha",
        }
        rng = np.random.default_rng(5)
        for fam in all_builtin_families():
            if fam.kind not in p_source:
                continue
            ph = make_family("custom", fam.alpha, F=p_source[fam.kind])
            for t in interior_points(fam, rng, n=6):
                t = float(t)
                assert fam.ph_zero(t) == pytest.approx(ph.ph_zero(t), rel=1e-14, abs=0.0)

    def test_domain_enforcement(self):
        fam = make_family("khalil", 0.5)
        with pytest.raises(DomainError):
            fam.require(-1.0)
        with pytest.raises(DomainError):
            fam.require(0.0)  # open at 0
        fam.require(1e-9)
        cos = make_family("cosine", 0.5)
        cos.require(0.0)  # closed at 0
        with pytest.raises(DomainError):
            cos.require(math.pi / 2)
        power = make_family("power", 2.0)
        power.require(-1e6)

    def test_domain_messages_match_expressions(self):
        # families take the power and exp rules from the expression table
        cases = ((make_family("khalil", 0.5).p, (-1.0, 0.1), "t^0.5", -1.0),
                 (make_family("nderiv", 0.5).ph_zero, (1e-6,), "exp(t^(-0.5))", 1e-6))
        for call, args, source, t in cases:
            with pytest.raises(EvaluationError) as fam_err:
                call(*args)
            with pytest.raises(EvaluationError) as expr_err:
                evaluate(parse(source), {"t": t})
            assert str(fam_err.value) == str(expr_err.value)

    def test_domain_str(self):
        assert str(make_family("khalil", 0.5).domain) == "(0.0, inf)"
        assert str(make_family("cosine", 0.5).domain) == "[0.0, 1.5707963267948966)"


# every kind, an F-family, a multiplier that fails inside the domain and
# one that is unavailable
ARRAY_FAMILIES = (
    make_family("khalil", 0.5), make_family("katugampola", 0.3),
    make_family("gfd", 0.7, beta=1.5), make_family("nderiv", 0.4),
    make_family("nderiv", 0.5, F="ln(t) + alpha"), make_family("cosine", 0.6),
    make_family("power", 2.0), make_family("custom", F="t + h*sqrt(t - 1) + h^2"),
    make_family("custom", F="t + abs(h)*t"),
)


_MARK_POINTS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, 1.5, math.pi / 2, -1.0, math.inf, -math.inf, math.nan]))
# 0-d, 1-d (empty too) and 2-d arrays of t
_MARK_ARRAYS = st.one_of(
    _MARK_POINTS.map(np.array),
    st.lists(_MARK_POINTS, max_size=6).map(np.array),
    st.lists(_MARK_POINTS, min_size=6, max_size=6).map(lambda v: np.array(v).reshape(2, 3)))


def _first_error(run, pts):
    """(type, index, message) of the first failing point of run, or None."""
    try:
        run(pts)
    except PcalcError as exc:
        for i in range(len(pts)):
            try:
                run(pts[:i + 1])
            except PcalcError as first:
                return type(first).__name__, i, str(first)
        return type(exc).__name__, None, str(exc)
    return None


class TestMultiplierArray:
    @given(st.sampled_from(ARRAY_FAMILIES),
           st.lists(st.one_of(st.floats(-1.0, 4.0), st.sampled_from(
               [0.0, -0.0, 5e-324, 1e-300, 1e-3, 1.5, math.pi / 2, math.inf, math.nan])),
               min_size=1, max_size=8))
    def test_matches_scalar_loop(self, fam, pts):
        def loop(xs):
            return [fam.ph_zero(x) for x in xs]

        def kernel(xs):
            return _resolved(fam, xs).tolist()

        err = _first_error(loop, pts)
        assert _first_error(kernel, pts) == err
        if err is None:
            for got, ref in zip(kernel(pts), loop(pts)):
                if math.isfinite(ref):
                    assert abs(got - ref) <= 4 * math.ulp(ref)  # numpy pow, exp
                else:
                    assert struct.pack("<d", got) == struct.pack("<d", ref)

    def test_first_failing_point_raises(self):
        khalil = ARRAY_FAMILIES[0]
        with pytest.raises(DomainError, match=r"^t=-1\.0 outside the khalil"):
            _resolved(khalil, [1.0, 2.0, -1.0, 0.0])
        sqrt = make_family("custom", F="t + h*sqrt(t - 1)")
        with pytest.raises(EvaluationError, match=r"sqrt\(-0\.5\)"):
            _resolved(sqrt, [2.0, 0.5, math.inf])
        with pytest.raises(DomainError, match="t=inf"):
            _resolved(sqrt, [2.0, math.inf, 0.5])
        with pytest.raises(DifferentiationError, match="multiplier unavailable"):
            _resolved(ARRAY_FAMILIES[-1], [1.0])

    def test_shape_is_kept(self):
        t = np.linspace(0.5, 2.0, 6).reshape(2, 3)
        assert _resolved(ARRAY_FAMILIES[0], t).shape == (2, 3)
        assert _resolved(ARRAY_FAMILIES[6], t).tolist() == [[0.0] * 3] * 2

    @given(st.sampled_from(ARRAY_FAMILIES), _MARK_ARRAYS)
    def test_marks_and_never_raises(self, fam, t):
        got = fam.ph_zero_array(t)
        assert got.shape == t.shape and got.dtype == np.float64
        for x, v in zip(t.ravel().tolist(), got.ravel().tolist()):
            if math.isfinite(v):  # a finite entry never hides a scalar error
                assert math.isfinite(fam.ph_zero(x))

    def test_kernel_is_compiled_once_per_family(self, monkeypatch):
        # make_family compiles no array kernel; the first ph_zero_array does,
        # and keeps it, also for a tree the _generate memo does not hold
        group = "(" + " + ".join(["t*t"] * 40) + ")"  # the parser nests a chain
        big = make_family("custom", F=f"t + h*({' + '.join([group] * 5)})")
        assert big._ph0a._size > _MEMO_NODES
        fams = [make_family("khalil", 0.5), make_family("nderiv", 0.5, F="ln(t) + alpha"), big]
        compiled = []

        def counting(generate):
            def spy(e, names, array):
                if array:
                    compiled.append(e)
                return generate(e, names, array)
            return spy

        spy = counting(pcalc.expr._generate)
        spy.__wrapped__ = counting(pcalc.expr._generate.__wrapped__)
        monkeypatch.setattr(pcalc.expr, "_generate", spy)
        t = np.linspace(0.5, 2.0, 7)
        for fam in fams:
            first = fam.ph_zero_array(t)
            for _ in range(3):
                assert np.array_equal(fam.ph_zero_array(t), first)
            assert first.tolist() == pytest.approx([fam.ph_zero(x) for x in t], rel=1e-15)
        assert len(compiled) == len(fams)

    def test_unavailable_multiplier_marks_every_point(self):
        fam = make_family("custom", F="t + abs(h)*t")
        t = np.array([[0.5, -1.0, 0.0], [2.0, math.inf, math.nan]])
        got = fam.ph_zero_array(t)
        assert got.shape == t.shape and np.isnan(got).all()

    def test_domain_marks_are_contains(self):
        ends = [-math.inf, -1.0, -0.0, 0.0, math.pi / 2, math.inf]
        t = np.array([y for x in ends for y in (x, math.nextafter(x, -math.inf),
                                                 math.nextafter(x, math.inf))] + [math.nan])
        for lo, hi, closed_lo, closed_hi in itertools.product(ends, ends, *[(False, True)] * 2):
            dom = Interval(lo, hi, closed_lo, closed_hi)
            assert dom.contains_array(t).tolist() == [dom.contains(x) for x in t.tolist()], dom


CUSTOM_P = ["t + sin(1000*h)*h", "t + h^2 - h", "t + abs(h)", "t + h*t^(1-alpha)"]
OFFSET_FAMILIES = st.one_of(
    st.tuples(st.sampled_from(["khalil", "katugampola", "gfd", "nderiv"]),
              st.floats(0.05, 3.0), st.none()),
    st.tuples(st.just("cosine"), ALPHAS["cosine"], st.none()),
    st.tuples(st.just("power"), st.one_of(ALPHAS["power"], st.sampled_from([2.0, 3.0])),
              st.none()),
    st.tuples(st.just("nderiv"), st.floats(0.05, 3.0), st.sampled_from(NDERIV_F)),
    st.tuples(st.just("custom"), st.floats(0.05, 3.0), st.sampled_from(CUSTOM_P)),
)


def _reference_solve(fam, t, target):
    """The per-target offset solver, the oracle of the shared rows: the
    target doubles h = +-1e-18 * 2^k from scratch, 64 times at most, and
    bisects its first sign change on each side."""
    def resid(h):
        try:
            v = fam.p(t, h)
        except EvaluationError:
            return None
        return v - target if math.isfinite(v) else None

    def bisect(lo, hi, rlo):
        for _ in range(128):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            rm = resid(mid)
            if rm == 0.0:
                return mid
            if rm is not None and (rm > 0.0) == (rlo > 0.0):
                lo, rlo = mid, rm
            else:
                hi = mid
        return 0.5 * (lo + hi)

    r0 = resid(0.0)
    if r0 is None or r0 == 0.0:
        return None, None
    best = None
    for sign in (1.0, -1.0):
        prev_h, prev_r = 0.0, r0
        h = 1e-18 * sign
        for _ in range(64):
            r = resid(h)
            if r is None:
                break
            if r == 0.0 or (r > 0.0) != (prev_r > 0.0):
                root = h if r == 0.0 else bisect(prev_h, h, prev_r)
                rr = resid(root)
                gap = abs(rr) if rr is not None else math.inf
                if best is None or abs(root) < abs(best[0]):
                    best = (root, gap)
                break
            prev_h, prev_r = h, r
            h *= 2.0
    if best is None or best[1] > 1e-3 * abs(target - t):
        return None, None
    return best


class TestOffsetSolvability:
    def test_khalil_solves_both_sides(self):
        rep = check_offset_solvability(make_family("khalil", 0.5), 1.0)
        assert rep.verdict_plus and rep.verdict_minus and rep.both
        assert len(rep.records) == len(DEFAULT_EPSILONS)
        # khalil: t + h*t^(1-alpha) = t + eps  =>  h = eps (at t=1)
        for r in rep.records:
            assert r.h_plus == pytest.approx(r.epsilon, rel=1e-4)
            assert r.h_minus == pytest.approx(-r.epsilon, rel=1e-4)

    def test_katugampola_solves_both_sides(self):
        rep = check_offset_solvability(make_family("katugampola", 0.5), 1.0)
        assert rep.both

    def test_power_plus_only(self):
        rep = check_offset_solvability(make_family("power", 2.0), 0.7)
        assert rep.verdict_plus
        assert not rep.verdict_minus
        assert not rep.both
        for r in rep.records:
            assert r.h_minus is None
            assert r.h_plus == pytest.approx(math.sqrt(r.epsilon), rel=1e-4)

    def test_shrinking_offsets_give_shrinking_h(self):
        rep = check_offset_solvability(make_family("khalil", 0.3), 2.0)
        hs = [r.h_plus for r in rep.records]
        assert all(h1 > h2 > 0 for h1, h2 in zip(hs, hs[1:]))

    def test_epsilons_must_decrease(self):
        fam = make_family("khalil", 0.5)
        with pytest.raises(ParameterError):
            check_offset_solvability(fam, 1.0, epsilons=(1e-3, 1e-2))
        with pytest.raises(ParameterError):
            check_offset_solvability(fam, 1.0, epsilons=(1e-3, -1e-4))
        with pytest.raises(ParameterError):
            check_offset_solvability(fam, 1.0, epsilons=())

    def test_empty_epsilons_are_named_as_such(self):
        # no epsilon at all is not a nonpositive one
        fam = make_family("khalil", 0.5)
        with pytest.raises(ParameterError, match="need at least one epsilon"):
            check_offset_solvability(fam, 1.0, epsilons=())
        with pytest.raises(ParameterError, match="epsilons must be positive"):
            check_offset_solvability(fam, 1.0, epsilons=(1e-2, 0.0))

    @pytest.mark.parametrize("epsilons", [(math.nan,), (math.inf,), (1e-2, math.nan),
                                          (-math.inf,), (math.inf, 1e-2)])
    def test_epsilons_must_be_finite(self, epsilons):
        # nan passes both the positivity and the ordering test, and inf the first
        with pytest.raises(ParameterError, match="^epsilons must be finite$"):
            check_offset_solvability(make_family("khalil", 0.5), 1.0, epsilons=epsilons)

    def test_p_is_sampled_once_per_grid_point(self):
        # the 14 targets share p(t, 0) and the doubling rows; solving each
        # target from scratch takes 2,028 p calls
        fam, calls = make_family("khalil", 0.5), []

        def p(t, h):
            calls.append(h)
            return fam.p(t, h)

        counted = PFunction(fam.kind, fam.alpha, fam.beta, fam.F, fam.domain, fam.label,
                            p, fam._ph0)
        rep = check_offset_solvability(counted, 1.0)
        assert rep == check_offset_solvability(fam, 1.0)
        assert len(calls) <= 800
        assert calls.count(0.0) == 1

    @given(OFFSET_FAMILIES, st.data(),
           st.lists(st.floats(1e-12, 2.0), min_size=1, max_size=4, unique=True))
    def test_matches_the_per_target_solver(self, args, data, epsilons):
        # bit for bit the solver that doubled and bisected for each target
        kind, alpha, F = args
        fam = make_family(kind, alpha, beta=1.5 if kind == "gfd" else None, F=F)
        lo, hi = max(fam.domain.lo, -3.0), min(fam.domain.hi, 10.0)
        t = data.draw(st.floats(lo, hi, exclude_min=not fam.domain.closed_lo,
                                exclude_max=True), label="t")
        eps = sorted(epsilons, reverse=True)
        records = []
        for e in eps:
            (hp, gp), (hm, gm) = _reference_solve(fam, t, t + e), _reference_solve(fam, t, t - e)
            records.append(EpsilonRecord(e, hp, hm, gp, gm))
        got = check_offset_solvability(fam, t, eps).records
        assert got == tuple(records)
        assert repr(got) == repr(tuple(records))


class TestWeightNorm:
    def test_khalil_frozen_value(self):
        # int_0^(1/16) t^(-1/2) dt = 0.5  [tools/oracles.py]
        rep = check_l1(make_family("khalil", 0.5), 0.0, 0.0625)
        assert rep.converged and not rep.diverged
        assert rep.estimate == pytest.approx(0.5, abs=1e-9)
        assert rep.interval == (0.0, 0.0625)

    def test_slow_decay_still_converges(self):
        # alpha = 0.1: weight t^(-0.9), integral T^0.1/0.1
        rep = check_l1(make_family("khalil", 0.1), 0.0, 1.0)
        assert rep.converged
        assert rep.estimate == pytest.approx(10.0, rel=1e-8)

    def test_divergent_weight_reported(self):
        # nderiv with F = t gives p = t + h*t, weight 1/t: log-divergent
        fam = make_family("nderiv", 0.5, F="t")
        rep = check_l1(fam, 0.0, 1.0)
        assert rep.diverged
        assert not rep.converged
        assert math.isinf(rep.estimate)

    def test_vanishing_weight_with_overflowing_multiplier(self):
        # nderiv: ph_zero = exp(t^-alpha) overflows near 0, where the weight
        # goes to 0; a failing sample there is not divergence
        rep = check_l1(make_family("nderiv", 0.5), 0.0, 1.0)
        assert rep.converged and not rep.diverged
        assert rep.estimate == pytest.approx(0.21938393439554, rel=1e-9)

    @given(st.sampled_from(("khalil", "katugampola", "gfd", "nderiv", "cosine")),
           st.floats(0.1, 0.95), st.floats(0.5, 3.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.sampled_from((1e-6, 1e-8, 1e-10)))
    def test_same_integral_as_p_integral(self, kind, alpha, beta, qa, qb, tol):
        # for a positive multiplier 1/|ph_zero| = 1/ph_zero: one integrator,
        # so the same value bit for bit and the same verdict
        fam = make_family(kind, alpha, beta=beta if kind == "gfd" else None)
        if kind == "cosine":
            a, b = 0.5 * math.pi * min(qa, qb), 0.5 * math.pi * max(qa, qb)
        else:
            a, b = 3.0 * qa, 3.0 * qa + 0.01 + 4.0 * qb
        if not a < b:
            return
        rep = check_l1(fam, a, b, tol)
        try:
            res = p_integral(fam, "1", a, b, tol)
        except (NonIntegrableError, EvaluationError):
            assert rep.diverged and not rep.converged
        except QuadratureError:
            assert not rep.diverged and not rep.converged
        else:
            assert rep.estimate == res.value
            assert rep.levels == res.subdivisions
            assert rep.converged == (res.error_estimate <= tol)
            assert not rep.diverged

    def test_large_norm_stops_at_its_own_rounding(self):
        # 1/ph_zero = 1e10 t^(-1/2): the norm 2 sqrt(0.05) 1e10 is about
        # 4.5e9, whose rounding (1.6e-5) is far above tol; refining to tol
        # took 1,028 panels
        exact = 2.0 * math.sqrt(0.05) * 1e10
        rep = check_l1(make_family("custom", F="t + h*sqrt(t)*1e-10"), 0.0, 0.05, tol=1e-9)
        assert rep.converged and not rep.diverged
        assert rep.levels <= 4
        assert abs(rep.estimate - exact) <= error_target(1e-9, exact)

    def test_quadrature_failure_is_no_verdict(self):
        # the multiplier 2 + sin(1/t) oscillates without end at 0, so the
        # panels run out at tol 1e-12: neither converged nor divergent
        fam = make_family("custom", F="t + h*(2 + sin(1/t))")
        rep = check_l1(fam, 0.0, 1.0, tol=1e-12)
        assert math.isnan(rep.estimate)
        assert (rep.interval, rep.converged, rep.levels, rep.diverged) == (
            (0.0, 1.0), False, 0, False)

    def test_interior_interval(self):
        rep = check_l1(make_family("khalil", 0.5), 1.0, 4.0)
        assert rep.converged
        assert rep.estimate == pytest.approx(2.0 * (2.0 - 1.0), rel=1e-9)

    def test_bad_interval(self):
        fam = make_family("khalil", 0.5)
        with pytest.raises(ParameterError):
            check_l1(fam, 2.0, 1.0)
        with pytest.raises(DomainError):
            check_l1(fam, -1.0, 1.0)

    def test_out_of_domain_interval_has_the_p_integral_message(self):
        fam = make_family("cosine", 0.5)
        message = ("[0.0, 2.0] not within the closure of the cosine(alpha=0.5) domain "
                   "[0.0, 1.5707963267948966)")
        with pytest.raises(DomainError) as exc:
            check_l1(fam, 0.0, 2.0)
        assert str(exc.value) == message
        with pytest.raises(ParameterError) as exc:
            p_integral(fam, "1", 0.0, 2.0)
        assert str(exc.value) == message
