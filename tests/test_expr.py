import copy
import gc
import math
import os
import pickle
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcalc
from pcalc.derivatives import p_derivative_formula
from pcalc.errors import DifferentiationError, EvaluationError, ParseError, UsageError
from pcalc.expr import (
    CONSTANTS,
    DEFAULT_VARIABLES,
    FUNCTIONS,
    MAX_DEPTH,
    _MEMO_CHARS,
    _MEMO_NODES,
    _BINARY,
    _OPS,
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    _add,
    _differentiate,
    _div,
    _fmt_num,
    _generate,
    _mul,
    _neg,
    _parse_memo,
    _Parser,
    _pow,
    _sub,
    compile_array,
    compile_expr,
    differentiate,
    evaluate,
    parse,
    resolve,
    substitute,
    to_source,
    variables,
)
from pcalc.families import make_family


def ev(src, **env):
    return evaluate(parse(src, params=tuple(env)), env)


def _resolving(e):
    """compile_array's kernel with the points it marks resolved by the closure."""
    kernel, scalar = compile_array(e), compile_expr(e)
    return lambda t: resolve(kernel(t), t, scalar)


class TestParsing:
    @pytest.mark.parametrize("src,expected", [
        ("1+2*3", 7.0),
        ("(1+2)*3", 9.0),
        ("2*3^2", 18.0),
        ("2^3^2", 512.0),      # right-associative
        ("-2^2", 4.0),         # unary minus binds first: (-2)^2
        ("2^-1", 0.5),
        ("10/4", 2.5),
        ("1 - 2 - 3", -4.0),
        ("6/3/2", 1.0),
        ("pi", math.pi),
        ("e", math.e),
        ("1.5e2", 150.0),
        (".5", 0.5),
    ])
    def test_arithmetic(self, src, expected):
        assert ev(src) == pytest.approx(expected, rel=1e-15)

    def test_functions(self):
        assert ev("sin(pi/2)") == pytest.approx(1.0)
        assert ev("cos(0)") == 1.0
        assert ev("tan(pi/4)") == pytest.approx(1.0)
        assert ev("exp(1)") == pytest.approx(math.e)
        assert ev("ln(e)") == pytest.approx(1.0)
        assert ev("sqrt(16)") == 4.0
        assert ev("abs(-3)") == 3.0
        # gamma(0.5) = sqrt(pi) = 1.772453850905516  [tools/oracles.py]
        assert ev("gamma(0.5)") == pytest.approx(1.772453850905516, abs=1e-12)

    def test_default_variables(self):
        e = parse("t + x + h + alpha + beta")
        assert variables(e) == {"t", "x", "h", "alpha", "beta"}
        env = {"t": 1.0, "x": 2.0, "h": 3.0, "alpha": 4.0, "beta": 5.0}
        assert evaluate(e, env) == 15.0

    def test_extra_params(self):
        e = parse("t + gain", params=("gain",))
        assert evaluate(e, {"t": 1.0, "gain": 9.0}) == 10.0

    @pytest.mark.parametrize("src,offset", [
        ("t +", 3),
        ("t+*2", 2),
        ("sin()", 4),
        ("foo(t)", 0),
        ("y+1", 0),
        ("2..5", 2),
        ("(t+1", 4),
    ])
    def test_parse_errors_carry_offsets(self, src, offset):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.offset == offset

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse("")

    @pytest.mark.parametrize("src,message", [
        # the em space is three bytes, so the byte offset is not the character offset
        ("t\u2003$", "unexpected character '$' (byte offset 4)"),
        ("sin(t, 2)", "function 'sin' takes exactly one argument (byte offset 5)"),
        ("t\u2003+", "unexpected end of input (byte offset 5)"),
        ("sin(t\u2003", "expected ')', got end of input (byte offset 8)"),
        # \d takes any Unicode digit; ARABIC-INDIC DIGIT THREE is two bytes
        ("\u0663+", "unexpected end of input (byte offset 3)"),
    ])
    def test_parse_error_messages(self, src, message):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert str(exc.value) == message


class TestNestingLimit:
    @pytest.mark.parametrize("src,offset", [
        ("(" * 400 + "t" + ")" * 400, MAX_DEPTH),
        ("-" * 400 + "t", MAX_DEPTH),
        ("^".join(["t"] * 400), 2 * MAX_DEPTH + 1),
        ("+".join(["t"] * 400), 2 * MAX_DEPTH + 1),
        ("(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH + "^2", 2 * MAX_DEPTH + 1),
    ])
    def test_too_deep_is_parse_error(self, src, offset):
        with pytest.raises(ParseError, match="nested deeper") as exc:
            parse(src)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("src", [
        "(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH,
        "-" * MAX_DEPTH + "t",
        "^".join(["t"] * (MAX_DEPTH + 1)),
        "*".join(["t"] * (MAX_DEPTH + 1)),
        "sin(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH,
    ])
    def test_at_the_limit_every_walker_works(self, src):
        e = parse(src)
        d = differentiate(e)
        assert compile_expr(e)(0.5) == evaluate(e, {"t": 0.5})
        assert compile_expr(d)(0.5) == evaluate(d, {"t": 0.5})
        assert to_source(e) and to_source(d)
        # printed output stays within the limit: --t, not -(-t)
        assert parse(to_source(e)) == e


# The recursive-descent parser expr.parse replaced, kept as the reference
# that TestParserOracle holds the precedence-climbing parser to.

_REF_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r")"
)


def _ref_byte_offset(source, char_pos):
    return len(source[:char_pos].encode("utf-8"))


def _ref_tokenize(source):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _REF_TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_pos = n - len(stripped)
            raise ParseError(
                f"unexpected character {stripped[0]!r}", _ref_byte_offset(source, bad_pos)
            )
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, _ref_byte_offset(source, m.start(kind))))
        pos = m.end()
    return tokens


class _RefParser:
    def __init__(self, source, allowed_vars):
        self.source = source
        self.tokens = _ref_tokenize(source)
        self.pos = 0
        self.allowed = allowed_vars
        self.open = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.source.encode("utf-8")))
        self.pos += 1
        return tok

    def _expect_op(self, op):
        tok = self._peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            off = tok[2] if tok else len(self.source.encode("utf-8"))
            got = repr(tok[1]) if tok else "end of input"
            raise ParseError(f"expected {op!r}, got {got}", off)
        self.pos += 1

    def _at_op(self, *ops):
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] in ops:
            return tok[1], tok[2]
        return None

    def _level(self, depth, off):
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", off)
        return depth + 1

    def _enter(self, off):
        self._level(self.open, off)
        self.open += 1

    def _leave(self, depth, off):
        self.open -= 1
        return self._level(depth, off)

    def parse(self):
        if not self.tokens:
            raise ParseError("empty expression", 0)
        e, _ = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self):
        e, depth = self.term()
        while (at := self._at_op("+", "-")) is not None:
            self.pos += 1
            right, rdepth = self.term()
            e, depth = BinOp(at[0], e, right), self._level(max(depth, rdepth), at[1])
        return e, depth

    def term(self):
        e, depth = self.factor()
        while (at := self._at_op("*", "/")) is not None:
            self.pos += 1
            right, rdepth = self.factor()
            e, depth = BinOp(at[0], e, right), self._level(max(depth, rdepth), at[1])
        return e, depth

    def factor(self):
        e, depth = self.unary()
        if (at := self._at_op("^")) is not None:
            self.pos += 1
            self._enter(at[1])
            right, rdepth = self.factor()
            e, depth = BinOp("^", e, right), max(self._level(depth, at[1]),
                                                 self._leave(rdepth, at[1]))
        return e, depth

    def unary(self):
        if (at := self._at_op("-")) is not None:
            self.pos += 1
            self._enter(at[1])
            arg, depth = self.unary()
            return Neg(arg), self._leave(depth, at[1])
        return self.atom()

    def atom(self):
        kind, text, off = self._next()
        if kind == "num":
            return Num(float(text)), 0
        if kind == "ident":
            if self._at_op("(") is not None:
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", off)
                self.pos += 1
                self._enter(off)
                arg, depth = self.expr()
                if (at := self._at_op(",")) is not None:
                    raise ParseError(f"function {text!r} takes exactly one argument", at[1])
                self._expect_op(")")
                return Call(text, arg), self._leave(depth, off)
            if text in CONSTANTS or text in self.allowed:
                return Var(text), 0
            raise ParseError(f"unknown variable {text!r}", off)
        if kind == "op" and text == "(":
            self._enter(off)
            e, depth = self.expr()
            self._expect_op(")")
            return e, self._leave(depth, off)
        raise ParseError(f"unexpected token {text!r}", off)


def _tree_outcome(run):
    try:
        e = run()
    except Exception as exc:  # the type is part of the outcome
        return type(exc), str(exc), getattr(exc, "offset", None)
    return "tree", e, repr(e)


# pieces whose concatenations reach every branch of the grammar and every
# error: non-ASCII space, letter and digit for the byte offsets, numbers
# with a bare point or exponent, a comma, an unknown name, stray characters
_PIECES = ["t", "x", "h", "y", "alpha", "pi", "e", "E", "sin", "gamma", "foo", "2", "2.",
           ".5", ".", "1e3", "1e", "\u0663", "\u00e9", "\u2003", " ", "\n", "(", ")", ",",
           "+", "-", "*", "/", "^", "$"]
_DEEP = [
    lambda n: "(" * n + "t" + ")" * n,
    lambda n: "-" * n + "t",
    lambda n: "^".join(["t"] * n),
    lambda n: "+".join(["t"] * n),
    lambda n: "*".join(["t"] * n),
    lambda n: "sin(" * n + "t" + ")" * n,
    lambda n: "(" * n + "t" + ")" * n + "^2",
    lambda n: "-(" * (n // 2) + "t^t" + ")" * (n // 2),
]


def _deep(make, n, at, piece):
    # n levels of one kind of nesting, with one piece inserted anywhere
    s = make(n)
    at %= len(s) + 1
    return s[:at] + piece + s[at:]


_SOURCES = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=14).map("".join),
    st.builds(_deep, st.sampled_from(_DEEP), st.integers(MAX_DEPTH - 5, MAX_DEPTH + 5),
              st.integers(0, 10 ** 4), st.sampled_from(["", *_PIECES])),
)


class TestParserOracle:
    @given(_SOURCES, st.sampled_from([(), ("y",)]))
    @example("2. ", ())
    @example("\n", ())
    @example("t" + " " * 50, ())
    @example("^".join(["t"] * (MAX_DEPTH + 2)), ())
    def test_same_trees_errors_and_offsets(self, src, params):
        ref = _tree_outcome(lambda: _RefParser(src, DEFAULT_VARIABLES | set(params)).parse())
        assert _tree_outcome(lambda: parse(src, params)) == ref


def _best_seconds(run, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


class TestLinearTime:
    # a byte offset worked out per token makes the chain quadratic, and a
    # token regex that cannot match at the end rescans long runs of space.
    # Eight times the input may take at most 20 times as long (with a 5 ms
    # floor): linear work gives about 8, quadratic work about 64, whatever
    # the speed of the host.
    @pytest.mark.parametrize("size,make,offset", [
        (512 * 1024, lambda n: "t+" * (n // 2) + "t", lambda n: 2 * MAX_DEPTH + 1),
        (200_000, lambda n: "t" + " " * n, None),
        (200_000, lambda n: " " * n + "$", lambda n: n),
    ], ids=["chain-512K", "trailing-space-200K", "leading-space-200K"])
    def test_long_input_is_linear(self, size, make, offset):
        def run(n):
            src = make(n)
            if offset is None:
                assert parse(src) == Var("t")
            else:
                with pytest.raises(ParseError) as exc:
                    parse(src)
                assert exc.value.offset == offset(n)
        small = _best_seconds(lambda: run(size // 8), 3)
        assert _best_seconds(lambda: run(size), 2) < 20 * max(small, 5e-3)


class TestEvaluation:
    def test_missing_variable_is_evaluation_error(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("t"), {})

    @pytest.mark.parametrize("src,env,message", [
        pytest.param(*case, id=f"{case[0]}-env{i}") for i, case in enumerate([
            ("1/t", {"t": 0.0}, "division by zero"),
            ("ln(t)", {"t": -1.0}, "domain error in ln(-1.0)"),
            ("ln(t)", {"t": 0.0}, "domain error in ln(0.0)"),
            ("sqrt(t)", {"t": -4.0}, "domain error in sqrt(-4.0)"),
            ("t^0.5", {"t": -4.0}, "domain error in -4.0^0.5"),
            ("gamma(t)", {"t": 0.0}, "domain error in gamma(0.0)"),
            ("exp(t)", {"t": 1e9}, "overflow in exp(1000000000.0)"),
            ("t^2", {"t": 1e300}, "overflow in 1e+300^2.0"),
            ("t*h", {"t": 1.0}, "unbound variable 'h'"),
        ])])
    def test_domain_failures(self, src, env, message):
        e = parse(src)
        for run in (lambda: evaluate(e, env),
                    lambda: compile_expr(e, tuple(env))(*env.values()),
                    lambda: _resolving(e)(np.array(env["t"]))):
            with pytest.raises(EvaluationError) as exc:
                run()
            assert str(exc.value) == message

    def test_integer_powers_of_negatives_are_fine(self):
        assert ev("t^3", t=-2.0) == -8.0
        assert ev("t^2", t=-2.0) == 4.0


class TestMalformedNodes:
    @pytest.mark.parametrize("build,what", [
        (lambda: BinOp("%", Num(2.0), Var("t")), "unknown operator '%'"),
        (lambda: BinOp("sin", Num(2.0), Var("t")), "unknown operator 'sin'"),
        (lambda: Call("foo", Var("t")), "unknown function 'foo'"),
        (lambda: Call("^", Var("t")), "unknown function '^'"),
    ], ids=["op-percent", "op-sin", "func-foo", "func-caret"])
    @pytest.mark.parametrize("walk", [
        lambda e: evaluate(e, {"t": 3.0}),
        lambda e: compile_expr(e)(3.0),
        lambda e: _resolving(e)(np.array([3.0])),
        differentiate,
        to_source,
        lambda e: p_derivative_formula(make_family("khalil", 0.5), e, 3.0),
    ], ids=["evaluate", "compile_expr", "compile_array", "differentiate", "to_source",
            "p_derivative_formula"])
    def test_unknown_names_are_usage_errors(self, build, what, walk):
        # a node with an unknown name cannot be built, so no walker meets one
        with pytest.raises(UsageError) as exc:
            walk(BinOp("+", Var("t"), build()))
        assert str(exc.value) == what


    @pytest.mark.parametrize("walk", [lambda e: evaluate(e, {"t": 3.0}), compile_expr,
                                      compile_array], ids=["evaluate", "scalar", "array"])
    def test_a_child_that_is_no_node_is_a_type_error(self, walk):
        with pytest.raises(TypeError, match=r"^not an Expr node: 2\.0$"):
            walk(BinOp("+", Var("t"), 2.0))


def _trees(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), kids),
    ), max_leaves=12)


def _outcome(run):
    try:
        v = run()
    except EvaluationError as exc:
        return "raised", str(exc)
    return "value", struct.pack("<d", v)


class TestCompiled:
    # "y" is never bound, so the unbound-variable path is drawn too; the
    # small values make domain errors (negative^fractional, ln(-x)) common
    @given(_trees(st.one_of(
        st.one_of(st.floats(), st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0])).map(Num),
        st.sampled_from(["t", "h", "y", "pi", "e"]).map(Var))),
        st.floats(), st.floats(), st.booleans())
    def test_matches_evaluate_bit_for_bit(self, e, t, h, with_h):
        if with_h:
            env, fn = {"t": t, "h": h}, compile_expr(e, ("t", "h"))
            got = _outcome(lambda: fn(t, h))
        else:
            env, fn = {"t": t}, compile_expr(e)
            got = _outcome(lambda: fn(t))
        assert got == _outcome(lambda: evaluate(e, env))

    def test_error_messages(self):
        for src, env in [("1/t", {"t": 0.0}), ("ln(t)", {"t": -1.0}),
                         ("t^0.5", {"t": -4.0}), ("exp(t)", {"t": 1e9}),
                         ("t^t", {"t": 1e300}), ("t + y", {"t": 1.0})]:
            e = parse(src, params=("y",))
            with pytest.raises(EvaluationError) as ref:
                evaluate(e, env)
            with pytest.raises(EvaluationError) as got:
                compile_expr(e)(env["t"])
            assert str(got.value) == str(ref.value)


_LEAVES = st.one_of(
    st.one_of(st.floats(), st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0])).map(Num),
    st.sampled_from(["t", "h", "y", "pi", "e"]).map(Var))
# + - * /, negation, abs and sqrt are exact in numpy as in math; gamma
# points are always redone by the closure
_EXACT = st.recursive(_LEAVES, lambda kids: st.one_of(
    kids.map(Neg),
    st.builds(BinOp, st.sampled_from("+-*/"), kids, kids),
    st.builds(Call, st.sampled_from(["abs", "sqrt", "gamma"]), kids),
), max_leaves=12)
# one pow or transcendental node over exact subtrees: numpy may differ there by an ulp
_ONE_INEXACT = st.one_of(
    st.builds(BinOp, st.just("^"), _EXACT, _EXACT),
    st.builds(Call, st.sampled_from(["sin", "cos", "tan", "exp", "ln"]), _EXACT))
_POINTS = st.lists(st.one_of(st.floats(), st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0])),
                   min_size=1, max_size=6)


def _loop_outcome(fn, cols):
    """What a loop of the scalar closure over the points gives."""
    out = []
    for i, values in enumerate(zip(*cols)):
        try:
            out.append(fn(*values))
        except EvaluationError as exc:
            return "raised", i, str(exc)
    return "values", out


def _kernel_outcome(kernel, cols):
    """The kernel's values, or its error and the first index whose
    prefix makes it raise."""
    try:
        return "values", list(kernel(*(np.array(c) for c in cols)))
    except EvaluationError as exc:
        message = str(exc)
    for i in range(len(cols[0])):
        try:
            kernel(*(np.array(c[:i + 1]) for c in cols))
        except EvaluationError as exc:
            return "raised", i, str(exc)
    return "raised", None, message  # no prefix raises: a mismatch


def _within_ulps(a, b, n):
    if not (math.isfinite(a) and math.isfinite(b)):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return abs(a - b) <= n * math.ulp(max(abs(a), abs(b)))


def _bits(outcome):
    if outcome[0] == "raised":
        return outcome
    return "values", [struct.pack("<d", v) for v in outcome[1]]


_SPECIAL_T = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, -1.0, -2.5, math.inf, -math.inf, math.nan]))
# 0-d, 1-d (empty too) and 2-d arrays of t
_T_ARRAYS = st.one_of(
    _SPECIAL_T.map(np.array),
    st.lists(_SPECIAL_T, max_size=6).map(np.array),
    st.lists(_SPECIAL_T, min_size=6, max_size=6).map(lambda v: np.array(v).reshape(2, 3)))


class TestCompiledArray:
    @given(_EXACT, _T_ARRAYS)
    @example(parse("gamma(t)"), np.array([1.0, 0.0, -1.0]))
    @example(parse("t*h"), np.array(2.0))
    @example(parse("t + 1/0"), np.array([[1.0], [0.0]]))
    @example(BinOp("*", Var("t"), Num(math.inf)), np.array([0.0, 1.0]))
    @example(BinOp("+", Num(math.nan), Var("t")), np.array(math.inf))
    def test_bare_kernel_never_raises(self, e, t):
        # the kernel marks with NaN what the closure decides; resolve then
        # gives the closure's values, or its error at the first failing point
        values = compile_array(e)(t)
        assert values.shape == t.shape
        scalar, flat = compile_expr(e), t.ravel().tolist()
        ref = _bits(_loop_outcome(scalar, (flat,)))
        assert _bits(_kernel_outcome(_resolving(e), (flat,))) == ref
        try:
            got = _bits(("values", resolve(values, t, scalar).ravel().tolist()))
        except EvaluationError as exc:
            got = "raised", ref[1], str(exc)
        assert got == ref

    def _outcomes(self, e, t, h, with_h):
        scalar = compile_expr(e)
        if with_h:  # h is one constant, folded into the kernel's tree
            scalar = lambda x, fn=compile_expr(e, ("t", "h")): fn(x, h[0])
            e = substitute(e, "h", Num(h[0]))
        return _kernel_outcome(_resolving(e), (t,)), _loop_outcome(scalar, (t,))

    @given(_EXACT, _POINTS, _POINTS, st.booleans())
    def test_exact_nodes_bit_for_bit(self, e, t, h, with_h):
        got, ref = self._outcomes(e, t, h, with_h)
        assert got[0] == ref[0]
        if ref[0] == "raised":
            assert got == ref
        else:
            assert [struct.pack("<d", v) for v in got[1]] == \
                [struct.pack("<d", v) for v in ref[1]]

    @given(_ONE_INEXACT, _POINTS, _POINTS, st.booleans())
    def test_pow_and_transcendentals_within_4_ulp(self, e, t, h, with_h):
        got, ref = self._outcomes(e, t, h, with_h)
        assert got[0] == ref[0]
        if ref[0] == "raised":
            assert got == ref
        else:
            assert all(_within_ulps(a, b, 4) for a, b in zip(got[1], ref[1]))

    def test_first_failing_point_raises(self):
        kernel = _resolving(parse("ln(t) + 1/(t - 2)"))
        with pytest.raises(EvaluationError, match=r"^division by zero$"):
            kernel(np.array([1.0, 2.0, 0.0]))
        with pytest.raises(EvaluationError, match=r"domain error in ln\(0\.0\)"):
            kernel(np.array([1.0, 0.0, 2.0]))
        assert compile_array(parse("t^2"))(np.empty(0)).shape == (0,)

    def test_shapes_and_unused_arguments(self):
        out = compile_array(parse("t + 1"))(np.arange(6.0).reshape(2, 3))
        assert out.shape == (2, 3)
        assert out.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert compile_array(parse("pi"))(np.zeros(3)).tolist() == [math.pi] * 3


_NESTED = [
    "(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH,
    "-" * MAX_DEPTH + "t",
    "^".join(["t"] * (MAX_DEPTH + 1)),
    "*".join(["t"] * (MAX_DEPTH + 1)),
    "sin(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH,
]
_ODD_NAMES = ["a0", "a1", "k0", "k3", "r0", "x", "ok", "np", "nan", "float", "f", "t)",
              "__import__('os').getpid()", "1 +", ""]


def _balanced(depth, i=0):
    # a full binary tree, 2^depth leaves, depth + 1 levels
    if depth == 0:
        return Var("t") if i % 3 else Num(0.5 + i % 7)
    kids = _balanced(depth - 1, 2 * i), _balanced(depth - 1, 2 * i + 1)
    if i % 5 == 4:
        return Call("sin", BinOp("+", *kids))
    return BinOp("+-*"[i % 3], *kids)


class TestGenerated:
    """What the generated functions add: a cache keyed on the tree, and
    source written from the generator's own names only."""

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_cache_keeps_the_sign_of_zero(self, first, second):
        assert Num(0.0) != Num(-0.0)
        assert Num(-0.0) == Num(-0.0) and hash(Num(-0.0)) == hash(Num(-0.0))
        _generate.cache_clear()
        for zero in (first, second):
            e = BinOp("*", Var("t"), Num(zero))
            want = struct.pack("<d", evaluate(e, {"t": 1.0}))
            assert struct.pack("<d", compile_expr(e)(1.0)) == want
            assert compile_array(e)(np.array([1.0])).tobytes() == want

    def test_scalar_target_folds_constant_arithmetic(self):
        # 1-0.25 is worked out at build: the function reads 0.75, not 1 and 0.25
        e = parse("t^(1-0.25)")
        f = compile_expr(e)
        read = [f.__globals__.get(name) for name in f.__code__.co_names]
        assert [v for v in read if isinstance(v, float)] == [0.75]
        assert f(16.0) == evaluate(e, {"t": 16.0})

    @pytest.mark.parametrize("src", ["1e308*10 + t", "1e308*10 - 1e308*10 + t", "-(1e308*10)*t"])
    def test_scalar_folds_keep_non_finite_values(self, src):
        e = parse(src)
        for t in (1.0, -0.0):
            assert struct.pack("<d", compile_expr(e)(t)) == struct.pack("<d", evaluate(e, {"t": t}))

    @pytest.mark.parametrize("e, folded", [
        (BinOp("*", Neg(Num(0.0)), Var("t")), [-0.0]),
        (BinOp("+", BinOp("*", Num(-1.0), Num(0.0)), Var("t")), [-0.0]),
        (BinOp("-", Neg(BinOp("-", Num(0.0), Num(0.0))), BinOp("*", Var("t"), Num(0.0))),
         [-0.0, 0.0]),
    ])
    def test_folding_keeps_the_sign_of_zero(self, e, folded):
        f = compile_expr(e)
        read = [f.__globals__.get(name) for name in f.__code__.co_names]
        assert sorted(struct.pack("<d", v) for v in read if isinstance(v, float)) == \
            sorted(struct.pack("<d", v) for v in folded)
        for t in (0.0, -0.0, 2.0):
            want = struct.pack("<d", evaluate(e, {"t": t}))
            assert struct.pack("<d", f(t)) == want
            assert compile_array(e)(np.array([t])).tobytes() == want

    def test_equal_trees_share_one_function(self):
        assert compile_expr(parse("t^2 + 1")) is compile_expr(parse("t^2 + 1"))
        assert compile_expr(parse("t^2 + 1")) is not compile_expr(parse("t^2 + 1"), ("t", "h"))
        assert compile_array(parse("t^2 + 1")) is not compile_expr(parse("t^2 + 1"))

    def test_variable_names_never_reach_the_source(self):
        e = Var("__import__('os').getpid()")
        with pytest.raises(EvaluationError, match=r"^unbound variable \"__import__\('os'\)"):
            compile_expr(e)(1.0)
        assert np.isnan(compile_array(e)(np.arange(3.0))).all()
        assert np.isnan(compile_array(BinOp("+", Var("t"), e))(np.arange(3.0))).all()

    @pytest.mark.parametrize("odd", _ODD_NAMES)
    def test_odd_names_are_only_slots(self, odd):
        e = BinOp("-", Var(odd), BinOp("*", Num(2.0), Var("t")))
        assert compile_expr(e, (odd, "t"))(7.0, 3.0) == 1.0
        assert compile_expr(e, ("t", odd))(3.0, 7.0) == 1.0
        with pytest.raises(EvaluationError, match="unbound variable"):
            compile_expr(e)(3.0)

    @pytest.mark.parametrize("src", _NESTED)
    def test_at_the_limit_both_targets_work(self, src):
        e = parse(src)
        for tree in (e, differentiate(e)):
            want = evaluate(tree, {"t": 0.5})
            assert struct.pack("<d", compile_expr(tree)(0.5)) == struct.pack("<d", want)
            got = _resolving(tree)(np.array([0.5, 0.5]))
            assert all(_within_ulps(v, want, 4) for v in got)

    def test_thousands_of_nodes(self):
        e = _balanced(12)  # 8191 nodes, 13 levels
        ts = [0.3, 0.7, 1.9, -1.1]
        ref = [evaluate(e, {"t": t}) for t in ts]
        assert [struct.pack("<d", compile_expr(e)(t)) for t in ts] == \
            [struct.pack("<d", v) for v in ref]
        assert _resolving(e)(np.array(ts)) == pytest.approx(ref, rel=1e-9)


class TestManipulation:
    def test_substitute(self):
        e = parse("t^2 + h")
        g = substitute(e, "h", Num(0.0))
        assert evaluate(g, {"t": 3.0}) == 9.0
        assert "h" not in variables(g)

    def test_substitute_expression(self):
        e = parse("sin(t)")
        g = substitute(e, "t", parse("x^2"))
        assert evaluate(g, {"x": 2.0}) == pytest.approx(math.sin(4.0))

    @pytest.mark.parametrize("src,dsrc,t", [
        ("t^3", "3*t^2", 1.7),
        ("sin(t)*cos(t)", "cos(2*t)", 0.6),
        ("exp(-(t^2))", "-(2*t)*exp(-(t^2))", 0.9),
        ("1/(1+t^2)", "-(2*t)/(1+t^2)^2", 1.3),
        ("ln(t)", "1/t", 2.5),
        ("sqrt(t)", "1/(2*sqrt(t))", 4.0),
        ("t", "1", 0.3),
        ("2", "0", 0.3),
    ])
    def test_differentiate_matches_closed_forms(self, src, dsrc, t):
        d = differentiate(parse(src))
        assert evaluate(d, {"t": t}) == pytest.approx(ev(dsrc, t=t), rel=1e-12, abs=1e-12)

    def test_differentiate_other_variable(self):
        d = differentiate(parse("t*h + h^2"), var="h")
        assert evaluate(d, {"t": 3.0, "h": 0.0}) == 3.0

    @pytest.mark.parametrize("src", ["abs(t)", "gamma(t)", "t*abs(t)"])
    def test_differentiate_refuses_nonsmooth_nodes(self, src):
        with pytest.raises(DifferentiationError):
            differentiate(parse(src))

    def test_simplifier_short_cuts(self):
        assert differentiate(parse("0/t")) == Num(0.0)  # (0*t - 0*1)/t^2: a zero numerator
        assert differentiate(parse("t^1")) == Num(1.0)  # 1 * t^0 * 1: a zero exponent

    def test_tan_differentiates(self):
        d = differentiate(parse("tan(t)"))
        assert evaluate(d, {"t": 0.3}) == pytest.approx(1.0 / math.cos(0.3) ** 2, rel=1e-15)

    def test_constant_folding(self):
        assert differentiate(parse("2*t + 3*t")) == Num(5.0)
        # a fold that overflows keeps the node
        assert to_source(differentiate(parse("1e308*t + 1e308*t"))) == "1e+308 + 1e+308"

    def test_variable_powers_differentiate(self):
        # d/dt t^h = h * t^(h-1) for constant-in-t exponent
        d = differentiate(parse("t^h"))
        assert evaluate(d, {"t": 2.0, "h": 3.0}) == pytest.approx(12.0)


def _ref_differentiate(e, var, kinks):
    # differentiate as it was before subtrees free of var came back as None:
    # it asks variables() at every node
    if var not in variables(e):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Neg):
        return _neg(_ref_differentiate(e.arg, var, kinks))
    if isinstance(e, BinOp):
        op = e.op
        if op in "+-":
            da = _ref_differentiate(e.left, var, kinks)
            db = _ref_differentiate(e.right, var, kinks)
            return _add(da, db) if op == "+" else _sub(da, db)
        if op == "*":
            return _add(_mul(_ref_differentiate(e.left, var, kinks), e.right),
                        _mul(e.left, _ref_differentiate(e.right, var, kinks)))
        if op == "/":
            num = _sub(_mul(_ref_differentiate(e.left, var, kinks), e.right),
                       _mul(e.left, _ref_differentiate(e.right, var, kinks)))
            return _div(num, _pow(e.right, Num(2.0)))
        u, v = e.left, e.right
        du_needed = var in variables(u)
        dv_needed = var in variables(v)
        if dv_needed and not du_needed:
            return _mul(_mul(e, Call("ln", u)), _ref_differentiate(v, var, kinks))
        if du_needed and not dv_needed:
            expm1 = _sub(v, Num(1.0)) if not isinstance(v, Num) else Num(v.value - 1.0)
            return _mul(_mul(v, _pow(u, expm1)), _ref_differentiate(u, var, kinks))
        return _mul(e, _add(_mul(_ref_differentiate(v, var, kinks), Call("ln", u)),
                            _mul(v, _div(_ref_differentiate(u, var, kinks), u))))
    u = e.arg
    du = _ref_differentiate(u, var, kinks)
    name = e.func
    if name == "sin":
        outer = Call("cos", u)
    elif name == "cos":
        outer = _neg(Call("sin", u))
    elif name == "tan":
        outer = _div(Num(1.0), _pow(Call("cos", u), Num(2.0)))
    elif name == "exp":
        outer = e
    elif name == "ln":
        return _div(du, u)
    elif name == "sqrt":
        return _div(du, _mul(Num(2.0), e))
    elif name == "abs" and kinks:
        outer = _div(u, e)
    else:
        raise DifferentiationError(
            f"cannot differentiate through {name!r}; use the limit path"
        )
    return _mul(outer, du)


class TestDifferentiateOracle:
    @given(_trees(st.one_of(
        st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, 1.0, 2.0, -1.0])).map(Num),
        st.sampled_from(["t", "h", "y", "pi", "e"]).map(Var))),
        st.sampled_from(["t", "h", "pi", "e"]))
    @example(parse("gamma(t)^abs(t)"), "t")
    @example(parse("abs(t)^gamma(t)"), "t")
    @example(Var("pi"), "pi")  # a constant is never the variable
    @example(parse("pi*t"), "pi")
    def test_same_trees_and_refusals(self, e, var):
        assert _tree_outcome(lambda: differentiate(e, var)) == \
            _tree_outcome(lambda: _ref_differentiate(e, var, False))
        assert _tree_outcome(lambda: _differentiate(e, var, True)) == \
            _tree_outcome(lambda: _ref_differentiate(e, var, True))


_REFUSED = "cannot differentiate through {!r}; use the limit path"

# d/dt of every operation, with t^3 as the operand that depends on t and x
# or 2 as the one free of it: (source, kinks off, kinks on), where a
# refusal reads as its message
_GOLDEN_DERIVATIVES = [
    ("(t^3)+(x)", "3*t^2", "3*t^2"),
    ("(x)+(t^3)", "3*t^2", "3*t^2"),
    ("(t^3)+(t^3)", "3*t^2 + 3*t^2", "3*t^2 + 3*t^2"),
    ("(t^3)-(x)", "3*t^2", "3*t^2"),
    ("(x)-(t^3)", "-(3*t^2)", "-(3*t^2)"),
    ("(t^3)-(t^3)", "3*t^2 - 3*t^2", "3*t^2 - 3*t^2"),
    ("(t^3)*(x)", "3*t^2*x", "3*t^2*x"),
    ("(x)*(t^3)", "x*(3*t^2)", "x*(3*t^2)"),
    ("(t^3)*(t^3)", "3*t^2*t^3 + t^3*(3*t^2)", "3*t^2*t^3 + t^3*(3*t^2)"),
    ("(t^3)/(x)", "3*t^2*x/x^2", "3*t^2*x/x^2"),
    ("(x)/(t^3)", "-(x*(3*t^2))/(t^3)^2", "-(x*(3*t^2))/(t^3)^2"),
    ("(t^3)/(t^3)", "(3*t^2*t^3 - t^3*(3*t^2))/(t^3)^2",
     "(3*t^2*t^3 - t^3*(3*t^2))/(t^3)^2"),
    ("(t^3)^(x)", "x*(t^3)^(x - 1)*(3*t^2)", "x*(t^3)^(x - 1)*(3*t^2)"),
    ("(t^3)^(2)", "2*t^3*(3*t^2)", "2*t^3*(3*t^2)"),
    ("(x)^(t^3)", "x^t^3*ln(x)*(3*t^2)", "x^t^3*ln(x)*(3*t^2)"),
    ("(t^3)^(t^3)", "(t^3)^t^3*(3*t^2*ln(t^3) + t^3*(3*t^2/t^3))",
     "(t^3)^t^3*(3*t^2*ln(t^3) + t^3*(3*t^2/t^3))"),
    ("sin(t^3)", "cos(t^3)*(3*t^2)", "cos(t^3)*(3*t^2)"),
    ("cos(t^3)", "-sin(t^3)*(3*t^2)", "-sin(t^3)*(3*t^2)"),
    ("tan(t^3)", "1/cos(t^3)^2*(3*t^2)", "1/cos(t^3)^2*(3*t^2)"),
    ("exp(t^3)", "exp(t^3)*(3*t^2)", "exp(t^3)*(3*t^2)"),
    ("ln(t^3)", "3*t^2/t^3", "3*t^2/t^3"),
    ("sqrt(t^3)", "3*t^2/(2*sqrt(t^3))", "3*t^2/(2*sqrt(t^3))"),
    ("abs(t^3)", _REFUSED.format("abs"), "t^3/abs(t^3)*(3*t^2)"),
    ("gamma(t^3)", _REFUSED.format("gamma"), _REFUSED.format("gamma")),
    *((f"{func}(x)", "0", "0") for func in sorted(FUNCTIONS)),
]


class TestDerivativeRules:
    @pytest.mark.parametrize("src,off,on", _GOLDEN_DERIVATIVES)
    def test_golden_derivatives(self, src, off, on):
        for kinks, want in ((False, off), (True, on)):
            try:
                got = to_source(_differentiate(parse(src), "t", kinks))
            except DifferentiationError as exc:
                got = str(exc)
            assert got == want

    def test_golden_table_covers_every_operation(self):
        written = " ".join(src for src, _, _ in _GOLDEN_DERIVATIVES)
        for op in _OPS:
            assert (f"){op}(" if op in _BINARY else f" {op}(") in written, op

    def test_every_row_has_all_three_rules(self):
        for op, rule in _OPS.items():
            assert callable(rule.scalar) and callable(rule.derivative), op
            assert rule.ufunc is None or hasattr(np, rule.ufunc), op
        assert [op for op, rule in _OPS.items() if rule.ufunc is None] == ["gamma"]
        unary = {op: rule for op, rule in _OPS.items() if op not in _BINARY}
        assert set(_OPS) == set(_BINARY) | set(unary)
        assert FUNCTIONS == {op: rule.scalar.__wrapped__ for op, rule in unary.items()}
        assert FUNCTIONS["ln"] is math.log and FUNCTIONS["abs"] is abs


def _rebuilt(e):
    """An equal tree of new nodes, built bottom-up through the constructors."""
    if isinstance(e, Num):
        return Num(e.value)
    if isinstance(e, Var):
        return Var(e.name)
    if isinstance(e, Neg):
        return Neg(_rebuilt(e.arg))
    if isinstance(e, BinOp):
        return BinOp(e.op, _rebuilt(e.left), _rebuilt(e.right))
    return Call(e.func, _rebuilt(e.arg))


def _flip_zeros(e):
    """e with the sign of every zero constant flipped."""
    if isinstance(e, Num):
        return Num(-e.value) if e.value == 0.0 else e
    if isinstance(e, Var):
        return e
    if isinstance(e, Neg):
        return Neg(_flip_zeros(e.arg))
    if isinstance(e, BinOp):
        return BinOp(e.op, _flip_zeros(e.left), _flip_zeros(e.right))
    return Call(e.func, _flip_zeros(e.arg))


class TestMemos:
    """parse and _differentiate are memoized; a hit must be what a fresh
    call gives, and a node's cached hash that of an equal fresh tree."""

    @given(_SOURCES, st.sampled_from([(), ("y",)]))
    @example("0*t", ())
    @example("t*-0", ())
    def test_parse_is_a_fresh_parse(self, src, params):
        fresh = _tree_outcome(lambda: _Parser(src, DEFAULT_VARIABLES | frozenset(params)).parse())
        for _ in range(2):  # a miss, then a hit or the same error again
            got = _tree_outcome(lambda: parse(src, params))
            assert got == fresh
            if got[0] == "tree":
                assert to_source(got[1]) == to_source(fresh[1])
                assert hash(got[1]) == hash(fresh[1]) == hash(_rebuilt(got[1]))

    @given(_trees(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.5]).map(Num),
        st.sampled_from(["t", "h", "pi"]).map(Var))),
        st.sampled_from(["t", "h"]), st.booleans())
    @example(BinOp("^", Num(0.0), Var("t")), "t", False)
    @example(parse("gamma(t)*abs(t)"), "t", True)
    def test_differentiate_is_a_fresh_derivation(self, e, var, kinks):
        fresh = _tree_outcome(lambda: _differentiate.__wrapped__(e, var, kinks))
        for tree in (e, e, _rebuilt(e)):  # a miss, then hits on the same and an equal tree
            assert _tree_outcome(lambda: _differentiate(tree, var, kinks)) == fresh
        assert hash(e) == hash(_rebuilt(e))
        if fresh[0] == "tree":
            assert hash(fresh[1]) == hash(_rebuilt(fresh[1]))
        # the same tree but for the sign of its zeros is another key
        flipped = _flip_zeros(e)
        assert _tree_outcome(lambda: _differentiate(flipped, var, kinks)) == \
            _tree_outcome(lambda: _differentiate.__wrapped__(flipped, var, kinks))

    def test_signed_zeros_are_separate_keys(self):
        trees = [BinOp("^", Num(z), Var("t")) for z in (0.0, -0.0)]
        assert trees[0] != trees[1] and hash(trees[0]) != hash(trees[1])
        derivs = [differentiate(e) for e in trees]
        assert [repr(d) for d in derivs] == \
            [repr(_differentiate.__wrapped__(e, "t", False)) for e in trees]
        assert repr(derivs[0]) != repr(derivs[1])
        assert [repr(parse(s)) for s in ("0^t", "-0^t")] == \
            ["BinOp(op='^', left=Num(value=0.0), right=Var(name='t'))",
             "BinOp(op='^', left=Neg(arg=Num(value=0.0)), right=Var(name='t'))"]

    @pytest.mark.parametrize("memo,run", [
        (_parse_memo, lambda: parse("sin(t")),
        (_parse_memo, lambda: parse("t + \u00e9")),
        (_differentiate, lambda: differentiate(parse("gamma(t)"))),
        (_differentiate, lambda: _differentiate(parse("abs(t)^gamma(t)"), "t", True)),
    ], ids=["parse-open", "parse-char", "diff-gamma", "diff-kinks"])
    def test_failures_are_not_cached(self, memo, run):
        run_once = _tree_outcome(run)
        before = memo.cache_info()
        assert run_once[0] in (ParseError, DifferentiationError)
        assert [_tree_outcome(run) for _ in range(2)] == [run_once, run_once]
        after = memo.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 2)

    def test_memos_are_bounded(self):
        assert _parse_memo.cache_info().maxsize == 512
        assert _differentiate.cache_info().maxsize == 512
        for i in range(600):
            differentiate(parse(f"t*{i}"))
        assert _parse_memo.cache_info().currsize == 512
        assert _differentiate.cache_info().currsize == 512

    def test_a_long_source_is_not_kept(self):
        for size, kept in ((_MEMO_CHARS, 1), (_MEMO_CHARS + 1, 0), (512 * 1024, 0)):
            src = "1." + "0" * (size - 2)
            refs, before = sys.getrefcount(src), _parse_memo.cache_info()
            assert parse(src) == Num(1.0)
            after = _parse_memo.cache_info()
            assert (after.misses, sys.getrefcount(src)) == (before.misses + kept, refs + kept)

    def test_a_large_tree_is_not_kept(self):
        # a tree of at most _MEMO_NODES nodes is a memo key; a larger one
        # goes to the function the memo wraps
        for tree, kept in ((Neg(_sum_of_t(_MEMO_NODES // 2)), 1),
                           (_sum_of_t(_MEMO_NODES // 2 + 1), 0)):
            assert tree._size == _node_count(tree) == _MEMO_NODES + 1 - kept
            for memo, run in ((_differentiate, differentiate), (_generate, compile_expr),
                              (_generate, compile_array)):
                before = memo.cache_info().misses
                run(tree)
                assert memo.cache_info().misses == before + kept

    def test_a_large_derivative_is_not_held(self):
        # 40 parenthesized sums of 40 t*t terms: 6,479 characters, above the
        # parse cap, and 6,399 nodes.  Its derivative held 1,860 KiB.
        src = "+".join(["(" + "+".join(["t*t"] * 40) + ")"] * 40)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert differentiate(parse(src))._size == 6399
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024

    def test_pickle_and_copy_rebuild_the_hash(self):
        e = parse("sin(t)*exp(-(t^2))+t^3/(1+t^2)")
        assert b"_hash" not in pickle.dumps(e)
        for other in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e), copy.copy(e)):
            assert other == e
            assert hash(other) == hash(_rebuilt(e)) == hash(e)

    def test_a_tree_pickled_in_another_process_hashes_here(self):
        # string hashes are salted per process: the writer's hash of the
        # tree is not this process's, and the loaded tree takes this one's
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = ("import pickle, sys; from pcalc.expr import parse; e = parse('sin(t)*h');"
                "print(hash(e)); print(pickle.dumps(e).hex())")
        src_dir = str(Path(pcalc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": seed}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        loaded, e = pickle.loads(bytes.fromhex(out[1])), parse("sin(t)*h")
        assert int(out[0]) != hash(e)
        assert loaded == e and hash(loaded) == hash(e)


def _sum_of_t(n):
    """A balanced sum of n leaves t: 2n - 1 nodes, of depth log2(n)."""
    nodes = [Var("t")] * n
    while len(nodes) > 1:
        pairs = [BinOp("+", a, b) for a, b in zip(nodes[::2], nodes[1::2])]
        nodes = pairs + nodes[2 * len(pairs):]
    return nodes[0]


def _node_count(e):
    return 1 + sum(_node_count(getattr(e, name)) for name in ("arg", "left", "right")
                   if hasattr(e, name))


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_ATOM = 1, 2, 3, 4


def _ref_print(e, min_level):
    """The printer as it was written before it read the parser's operator
    table: a level per node type and a case per operator."""
    if isinstance(e, BinOp):
        level = _LEVEL_ADD if e.op in "+-" else _LEVEL_MUL if e.op in "*/" else _LEVEL_UNARY
    else:
        level = _LEVEL_UNARY if isinstance(e, Neg) else _LEVEL_ATOM
    if isinstance(e, Num):
        s = _fmt_num(e.value)
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Call):
        s = f"{e.func}({_ref_print(e.arg, _LEVEL_ADD)})"
    elif isinstance(e, Neg):
        inner = e.arg
        if isinstance(inner, (Num, Var, Call, Neg)) and not (
            isinstance(inner, Num) and inner.value < 0
        ):
            s = "-" + _ref_print(inner, _LEVEL_UNARY)
        else:
            s = f"-({_ref_print(inner, _LEVEL_ADD)})"
    elif e.op in "+-":
        s = f"{_ref_print(e.left, _LEVEL_ADD)} {e.op} {_ref_print(e.right, _LEVEL_MUL)}"
    elif e.op in "*/":
        s = f"{_ref_print(e.left, _LEVEL_MUL)}{e.op}{_ref_print(e.right, _LEVEL_UNARY)}"
    else:
        s = f"{_ref_print(e.left, _LEVEL_ATOM)}^{_ref_print(e.right, _LEVEL_UNARY)}"
    return f"({s})" if level < min_level else s


class TestPrinter:
    @given(_trees(st.one_of(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 1e20, -1e-7, -2.5])).map(Num),
        st.sampled_from(sorted(DEFAULT_VARIABLES | set(CONSTANTS))).map(Var))))
    @example(parse("2^3^t^(-2)^--t"))
    @example(Neg(Neg(Neg(Num(-0.0)))))
    @example(BinOp("^", Neg(Num(1e20)), BinOp("-", Num(-1e-7), Neg(Var("t")))))
    @settings(max_examples=500)
    def test_matches_the_level_printer(self, e):
        assert to_source(e) == _ref_print(e, _LEVEL_ADD)

    @pytest.mark.parametrize("src", [
        "t + h*t^(1 - alpha)",
        "t*exp(h*t^(-alpha))",
        "-2^2",
        "2^-1",
        "1 - (2 - 3)",
        "(t + 1)*(t - 1)",
        "sin(cos(t))",
        "t/(1 + t^2)",
        "-(t + 1)",
        "t^(1/3)",
        "abs(t) + gamma(t)",
    ])
    def test_round_trip(self, src):
        e = parse(src)
        assert parse(to_source(e)) == e

    @given(_trees(st.one_of(
        st.floats(min_value=0.0, allow_infinity=False).map(Num),
        st.sampled_from(sorted(DEFAULT_VARIABLES | set(CONSTANTS))).map(Var))))
    def test_round_trip_property(self, e):
        assert parse(to_source(e)) == e

    def test_round_trip_is_stable(self):
        e = parse("t + h*t^(1 - alpha)")
        once = to_source(e)
        assert to_source(parse(once)) == once

    def test_ast_shape(self):
        e = parse("t + 2")
        assert e == BinOp("+", Var("t"), Num(2.0))
        assert parse("sin(t)") == Call("sin", Var("t"))
