"""Expression parsing, evaluation, printing, and symbolic differentiation.

The grammar (whitespace insignificant between tokens)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := unary ("^" factor)?
    unary  := "-" unary | atom
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

"^" is right-associative and binds tighter than "*" and "/".  Note the
consequence of `factor := unary ...`: in "-t^2" the unary minus captures
"t" first, so the string parses as (-t)^2.  Write "-(t^2)" for the other
reading.

One regex pass tokenizes, and one precedence-climbing loop (Pratt, 1973)
parses expr, term and factor, in time linear in the input.  A ParseError
carries the UTF-8 byte offset of the offending token, worked out only
when the error is raised.

Nesting is limited to MAX_DEPTH levels.  Each pair of parentheses, each
function call, each unary minus, each "^" and each operator of a
"+ - * /" chain opens one level; deeper input is a ParseError at the
offset where the limit is crossed.  The recursive walkers below
(evaluate, compile_expr, compile_array, differentiate, to_source)
therefore only ever see trees of bounded depth.

Functions are unary: sin, cos, tan, exp, ln, sqrt, abs, gamma.  The
identifiers pi and e are predefined constants.  Any other identifier must
be one of the allowed variable names {t, x, h, alpha, beta} or a caller
declared parameter; unknown names are rejected at parse time.

Each operation is one row of the operator table _OPS: its domain rule,
ufunc and derivative rule, which four walkers read (evaluate, both
compile targets and differentiate).  Any other BinOp or Call is a UsageError.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any, NamedTuple, NoReturn, Union

from .errors import DifferentiationError, EvaluationError, ParseError, UsageError

# np in annotations is numpy, which only the functions that use arrays import

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call", "Env",
    "parse", "evaluate", "compile_expr", "compile_array", "resolve", "differentiate",
    "substitute", "to_source", "variables", "DEFAULT_VARIABLES", "CONSTANTS",
    "FUNCTIONS", "EXPR_TYPES", "MAX_DEPTH",
]


class _Node:
    """Var, Neg, BinOp and Call hash their fields once, when built: a child
    gives its cached hash, a Num its sign-aware key.  String hashes are
    salted per process, so pickling rebuilds a node, never keeping a hash.
    Beside it each node keeps _size, the node count of its tree (a child
    that is no node, which no walker accepts, counts 1)."""

    def __post_init__(self) -> None:
        self.__dict__["_hash"] = hash(tuple(self.__dict__.values()))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined, no-any-return]

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)


@dataclass(frozen=True)
class Num:
    value: float
    _size = 1  # a class attribute, not a field: every leaf counts 1

    # the sign of zero is part of the value: t*-0.0 is not t*0.0
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Num) and _signed(self.value) == _signed(other.value)

    def __hash__(self) -> int:
        return hash(_signed(self.value))


@dataclass(frozen=True)
class Var(_Node):
    name: str
    __hash__ = _Node.__hash__
    _size = 1


@dataclass(frozen=True)
class Neg(_Node):
    arg: "Expr"
    __hash__ = _Node.__hash__

    def __post_init__(self) -> None:
        super().__post_init__()
        self.__dict__["_size"] = 1 + getattr(self.arg, "_size", 1)


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"
    __hash__ = _Node.__hash__

    def __post_init__(self) -> None:
        if self.op not in _OPS or self.op in FUNCTIONS:
            raise UsageError(f"unknown operator {self.op!r}")
        super().__post_init__()
        left, right = getattr(self.left, "_size", 1), getattr(self.right, "_size", 1)
        self.__dict__["_size"] = 1 + left + right


@dataclass(frozen=True)
class Call(_Node):
    func: str
    arg: "Expr"
    __hash__ = _Node.__hash__

    def __post_init__(self) -> None:
        if self.func not in FUNCTIONS:
            raise UsageError(f"unknown function {self.func!r}")
        super().__post_init__()
        self.__dict__["_size"] = 1 + getattr(self.arg, "_size", 1)


Expr = Union[Num, Var, Neg, BinOp, Call]
# isinstance against this tuple is much cheaper than against the Union
EXPR_TYPES = (Num, Var, Neg, BinOp, Call)
Env = Mapping[str, float]
MAX_DEPTH = 100
_MEMO_CHARS = 4096  # parse memoizes no longer source, so none is kept alive
_MEMO_NODES = 512  # nor do _differentiate and _generate any larger tree
_signed = lambda v: (v, math.copysign(1.0, v))  # Num's key: 0.0 and -0.0 differ

DEFAULT_VARIABLES = frozenset({"t", "x", "h", "alpha", "beta"})
CONSTANTS: dict[str, float] = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

# every position matches a token, an unexpected character or the end, so
# one finditer pass tokenizes.  \Z takes trailing space in one match;
# without it finditer would rescan that space from every position
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>\S)"
    r"|(?P<end>\Z)"
    r")"
)

# binary operator -> (binding power, right-associative)
_BINARY = {"+": (1, False), "-": (1, False), "*": (2, False), "/": (2, False),
           "^": (3, True)}


class _Parser:
    """Precedence climbing; each rule returns (node, nesting levels)."""

    def __init__(self, source: str, allowed_vars: frozenset[str]) -> None:
        self.source = source
        self.allowed = allowed_vars
        self.open = 0  # descents in progress; bounds the parser's own recursion
        self.i = 0
        # (kind, text, character position), ending in the ("end", "", len) token;
        # tokenized eagerly, so an unexpected character wins over a parse error
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(source):
            kind = m.lastgroup
            if kind == "bad":
                self._fail(f"unexpected character {m[kind]!r}", m.start(kind))
            self.tokens.append((kind, m[kind], m.start(kind)))
            if kind == "end":
                break

    def _fail(self, message: str, pos: int) -> NoReturn:
        # offsets count bytes of the UTF-8 source, worked out only when raising
        raise ParseError(message, len(self.source[:pos].encode("utf-8")))

    def _level(self, depth: int, pos: int) -> int:
        if depth >= MAX_DEPTH:
            self._fail(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        return depth + 1

    def _enter(self, pos: int) -> None:
        # every descent adds a level to its result, so the limit is checked
        # on the way down as well, which keeps the parser's own stack shallow
        self._level(self.open, pos)
        self.open += 1

    def _leave(self, depth: int, pos: int) -> int:
        self.open -= 1
        return self._level(depth, pos)

    def parse(self) -> Expr:
        if self.tokens[0][0] == "end":
            self._fail("empty expression", 0)
        e, _ = self.binary(1)
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            self._fail(f"unexpected trailing input {text!r}", pos)
        return e

    def binary(self, min_power: int) -> tuple[Expr, int]:
        e, depth = self.unary()
        while True:
            _, op, pos = self.tokens[self.i]
            power, right = _BINARY.get(op, (0, False))
            if power < min_power:
                return e, depth
            self.i += 1
            if right:  # "^" opens a level like a parenthesis
                self._enter(pos)
                rhs, rdepth = self.binary(power)
                self.open -= 1
            else:
                rhs, rdepth = self.binary(power + 1)
            e, depth = BinOp(op, e, rhs), self._level(max(depth, rdepth), pos)

    def unary(self) -> tuple[Expr, int]:
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        call = kind == "ident" and self.tokens[self.i][1] == "("
        if kind == "num":
            return Num(float(text)), 0
        if kind == "ident" and not call:
            if text in CONSTANTS or text in self.allowed:
                return Var(text), 0
            self._fail(f"unknown variable {text!r}", pos)
        if call:
            if text not in FUNCTIONS:
                self._fail(f"unknown function {text!r}", pos)
            self.i += 1
        elif kind == "end":
            self._fail("unexpected end of input", pos)
        elif text not in ("-", "("):
            self._fail(f"unexpected token {text!r}", pos)
        self._enter(pos)
        if text == "-":
            arg, depth = self.unary()
            return Neg(arg), self._leave(depth, pos)
        arg, depth = self.binary(1)
        ckind, close, cpos = self.tokens[self.i]
        if call and close == ",":
            self._fail(f"function {text!r} takes exactly one argument", cpos)
        if close != ")":
            got = "end of input" if ckind == "end" else repr(close)
            self._fail(f"expected ')', got {got}", cpos)
        self.i += 1
        return (Call(text, arg) if call else arg), self._leave(depth, pos)


def parse(source: str, params: tuple[str, ...] = ()) -> Expr:
    """Parse a source string into an Expr tree.

    `params` declares extra variable names allowed beyond the default set.
    """
    memo = _parse_memo if len(source) <= _MEMO_CHARS else _parse_memo.__wrapped__
    return memo(source, tuple(params))


@functools.lru_cache(maxsize=512)
def _parse_memo(source: str, params: tuple[str, ...]) -> Expr:
    return _Parser(source, DEFAULT_VARIABLES | frozenset(params)).parse()


# ---------------------------------------------------------------------------
# The operator table
# ---------------------------------------------------------------------------

def _domain_error(exc: ArithmeticError | ValueError, what: str) -> EvaluationError:
    kind = "domain error" if isinstance(exc, ValueError) else "overflow"
    return EvaluationError(f"{kind} in {what}")


def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise EvaluationError("division by zero")
    return a / b


def _power(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError) as exc:
        raise _domain_error(exc, f"{a!r}^{b!r}") from exc


def _checked(func: str, fn: Callable[[float], float]) -> Callable[[float], float]:
    @functools.wraps(fn)  # FUNCTIONS reads fn back as __wrapped__
    def call(x: float) -> float:
        try:
            return fn(x)
        except (ValueError, OverflowError) as exc:
            raise _domain_error(exc, f"{func}({x!r})") from exc

    return call


# the derivative rules' tree builders: light constant folding, no simplifier
_ZERO = Num(0.0)
_ONE = Num(1.0)
_Deriv = Union[Expr, None]  # a derivative, or None for a subtree free of the variable


def _is_num(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _fold(op: str, a: Expr, b: Expr) -> Expr:
    # BinOp(op, a, b), or its value when both are numbers and it is finite;
    # only + - * meet two numbers (every divisor depends on the variable)
    if isinstance(a, Num) and isinstance(b, Num):
        value = _OPS[op].scalar(a.value, b.value)
        if math.isfinite(value):
            return Num(value)
    return BinOp(op, a, b)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return _fold("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return _fold("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return _fold("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return _ZERO
    return _fold("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return _ONE
    return BinOp("^", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _quotient_rule(e: Expr, u: Expr, v: Expr, du: _Deriv, dv: _Deriv, kinks: bool) -> Expr:
    return _div(_sub(_mul(du or _ZERO, v), _mul(u, dv or _ZERO)), _pow(v, Num(2.0)))


def _power_rule(e: Expr, u: Expr, v: Expr, du: _Deriv, dv: _Deriv, kinks: bool) -> Expr:
    if du is None:  # c^v -> c^v * ln(c) * v'
        return _mul(_mul(e, Call("ln", u)), dv)
    if dv is None:  # u^c -> c * u^(c-1) * u'
        expm1 = _sub(v, _ONE) if not isinstance(v, Num) else Num(v.value - 1.0)
        return _mul(_mul(v, _pow(u, expm1)), du)
    # general u^v -> u^v * (v' ln u + v u'/u)
    return _mul(e, _add(_mul(dv, Call("ln", u)), _mul(v, _div(du, u))))


def _chain(outer: Callable[[Expr, Expr], Expr]) -> Callable[..., Expr]:
    """The rule f(u)' = outer(f(u), u) * u'."""
    return lambda e, u, du, kinks: _mul(outer(e, u), du)


class _Rule(NamedTuple):
    scalar: Callable[..., float]  # checked: raises EvaluationError on a domain violation
    ufunc: str | None  # its numpy ufunc by name, for arrays only, or None (gamma)
    derivative: Callable[..., _Deriv]  # of (node, *operands, *their _Derivs, kinks); None refuses


# the one operator table: each operation's rules are written here and nowhere else
_OPS: dict[str, _Rule] = {
    "+": _Rule(operator.add, "add",
               lambda e, u, v, du, dv, kinks: _add(du or _ZERO, dv or _ZERO)),
    "-": _Rule(operator.sub, "subtract",
               lambda e, u, v, du, dv, kinks: _sub(du or _ZERO, dv or _ZERO)),
    "*": _Rule(operator.mul, "multiply",
               lambda e, u, v, du, dv, kinks: _add(_mul(du or _ZERO, v), _mul(u, dv or _ZERO))),
    "/": _Rule(_divide, "divide", _quotient_rule),
    "^": _Rule(_power, "power", _power_rule),
    **{func: _Rule(_checked(func, fn), ufunc, derivative) for func, fn, ufunc, derivative in (
        ("sin", math.sin, "sin", _chain(lambda e, u: Call("cos", u))),
        ("cos", math.cos, "cos", _chain(lambda e, u: _neg(Call("sin", u)))),
        ("tan", math.tan, "tan", _chain(lambda e, u: _div(_ONE, _pow(Call("cos", u), Num(2.0))))),
        ("exp", math.exp, "exp", _chain(lambda e, u: e)),
        ("ln", math.log, "log", lambda e, u, du, kinks: _div(du, u)),
        ("sqrt", math.sqrt, "sqrt", lambda e, u, du, kinks: _div(du, _mul(Num(2.0), e))),
        ("abs", abs, "abs", lambda e, u, du, kinks: _mul(_div(u, e), du) if kinks else None),
        ("gamma", math.gamma, None, lambda e, u, du, kinks: None))},  # gamma' needs digamma
}

FUNCTIONS: dict[str, Callable[[float], float]] = {
    func: rule.scalar.__wrapped__ for func, rule in _OPS.items() if func not in _BINARY}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, env: Env) -> float:
    """Evaluate an expression to a float by walking the tree.

    Unbound variables are an error, never a default.  Domain violations
    (ln of a nonpositive value, division by zero, fractional powers of
    negatives, gamma at a pole) raise EvaluationError.  This is the
    reference semantics; compile_expr gives the same results faster when
    one tree is evaluated at many points.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.name in env:
            return float(env[e.name])
        if e.name in CONSTANTS:
            return CONSTANTS[e.name]
        _unbound(e.name)
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, BinOp):
        return _OPS[e.op].scalar(evaluate(e.left, env), evaluate(e.right, env))
    if isinstance(e, Call):
        return _OPS[e.func].scalar(evaluate(e.arg, env))
    raise TypeError(f"not an Expr node: {e!r}")


def compile_expr(e: Expr, names: tuple[str, ...] = ("t",)) -> Callable[..., float]:
    """Compile e once into a function of the variables `names`, in order.

    compile_expr(e, names)(*values) returns the same float, bit for bit,
    as evaluate(e, dict(zip(names, values))), and raises the same
    EvaluationError at the same point of the evaluation order.
    """
    return _memo(_generate, e)(e, tuple(names), False)


def compile_array(e: Expr) -> Callable[[Any], np.ndarray]:
    """Compile e once into a numpy kernel over an array of t.

    compile_array(e)(t) never raises.  It returns values of t's shape:
    compile_expr(e) at each point, or NaN where that could raise or differ
    (any operation's non-finite result, gamma, a variable other than t, a
    non-finite constant), for resolve to redo.  + - * /, negation, abs and
    sqrt are bit-identical; ^, exp, ln and the trig functions may differ
    from math's in the last ulp.  Substitute a Num for any other variable.
    """
    return _memo(_generate, e)(e, ("t",), True)


def resolve(values: np.ndarray, t: Any, scalar: Callable[[float], float]) -> np.ndarray:
    """Replace every non-finite entry of values by scalar at its point of
    t, in ascending index order and in place; return values.

    The array forms mark with NaN or inf the points they cannot vouch for,
    so the first failing point raises exactly what a loop of scalar over
    the points raises.
    """
    import numpy as np
    t = np.asarray(t, dtype=float)
    for i in np.flatnonzero(~np.isfinite(values)):
        values.flat[i] = scalar(float(t.flat[i]))
    return values


def _unbound(name: str) -> NoReturn:
    raise EvaluationError(f"unbound variable {name!r}")


class _Unvouched(Exception):
    """An array kernel meets a node whose every point the scalar path decides."""


_INLINE = {"+": "+", "-": "-", "*": "*"}  # the operators written into the source


@functools.lru_cache(maxsize=512)
def _generate(e: Expr, names: tuple[str, ...], array: bool) -> Callable[..., Any]:
    """Write e as straight-line Python, one statement per operation in
    evaluate's order: + - * and negation inline, the _OPS rule (scalar,
    or the ufunc it names for the array target, which alone imports numpy)
    for the rest.  Constants, rules and the unbound-variable raiser are
    bound by value in the namespace, so nan, inf and -0.0 stay exact and
    no text of the tree reaches the source.  The array target folds any
    subtree free of t (same ufuncs), the scalar one only + - * and
    negation, which never raise."""
    slots = {name: i for i, name in enumerate(names)}
    ns: dict[str, Any] = {"nan": math.nan, "float": float}
    lines: list[str] = []
    flags: list[str] = []  # the array target's operations, whose non-finite points it marks
    converted: dict[int, str] = {}  # slot -> the local holding float(argument)
    if array:
        import numpy as np
        ns["np"] = np

    def bind(value: Any) -> str:
        ns[f"k{len(ns)}"] = value
        return f"k{len(ns) - 1}"

    def emit(text: str) -> str:
        lines.append(f"r{len(lines)} = {text}")
        return f"r{len(lines) - 1}"

    def node(e: Expr) -> str:  # a local, or a constant bound in ns
        if isinstance(e, Var) and e.name in slots:
            i = slots[e.name]
            if not array and i not in converted:
                converted[i] = emit(f"float(a{i})")
            return "x" if array else converted[i]
        if isinstance(e, (Num, Var)):
            value = e.value if isinstance(e, Num) else CONSTANTS.get(e.name)
            if array and (value is None or not math.isfinite(value)):
                raise _Unvouched
            return emit(f"{bind(functools.partial(_unbound, e.name))}()") if value is None \
                else bind(value)
        if isinstance(e, Neg):
            arg = node(e.arg)
            return bind(np.negative(ns[arg]) if array else -ns[arg]) if arg in ns \
                else emit(f"-{arg}")
        if not isinstance(e, (BinOp, Call)):
            raise TypeError(f"not an Expr node: {e!r}")
        op, kids = (e.op, (e.left, e.right)) if isinstance(e, BinOp) else (e.func, (e.arg,))
        args, rule = [node(kid) for kid in kids], _OPS[op]
        if array and rule.ufunc is None:  # gamma: numpy has none
            raise _Unvouched
        fn = getattr(np, rule.ufunc) if array else rule.scalar
        if (array or op in _INLINE) and all(arg in ns for arg in args):
            value = fn(*(ns[arg] for arg in args))
            if array and not np.isfinite(value):
                raise _Unvouched
            return bind(value)
        local = emit(f"{args[0]} {_INLINE[op]} {args[1]}" if op in _INLINE else
                     f"{bind(fn)}({', '.join(args)})")
        if array:
            flags.append(local)
        return local

    if not array:
        head = f"def f({', '.join(f'a{i}' for i in range(len(names)))}):"
        result = node(e)
        body = [*lines, f"return {result}"]
    else:  # a flagged result is the kernel's own array; t and constants are copied
        with np.errstate(all="ignore"):
            try:
                result = node(e)
            except _Unvouched:  # every point is the scalar path's
                lines, flags, result = [], [], "nan"
        head = "def f(t):"
        body = ["t = np.asarray(t, dtype=float)", "x = t.ravel()",
                *(["with np.errstate(all='ignore'):"] if lines else []),
                *(f"    {line}" for line in lines),
                *(f"ok {'&' if i else ''}= np.isfinite({r})" for i, r in enumerate(flags)),
                *([f"{result}[~ok] = nan", f"return {result}.reshape(t.shape)"] if flags
                  else [f"return np.full(x.size, {result}, dtype=float).reshape(t.shape)"])]
    exec("\n    ".join([head, *body]), ns)
    return ns["f"]


def variables(e: Expr) -> frozenset[str]:
    """All variable names referenced by e (constants pi/e excluded)."""
    out: set[str] = set()

    def walk(node: Expr) -> None:
        if isinstance(node, Var):
            if node.name not in CONSTANTS:
                out.add(node.name)
        elif isinstance(node, Neg):
            walk(node.arg)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Call):
            walk(node.arg)

    walk(e)
    return frozenset(out)


def substitute(e: Expr, var: str, replacement: Expr) -> Expr:
    """Replace every occurrence of variable `var` with `replacement`."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        return replacement if e.name == var else e
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, var, replacement))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, var, replacement),
                     substitute(e.right, var, replacement))
    return Call(e.func, substitute(e.arg, var, replacement))


# ---------------------------------------------------------------------------
# Differentiation (with light constant folding; no simplification engine)
# ---------------------------------------------------------------------------

def differentiate(e: Expr, var: str = "t") -> Expr:
    """Symbolic derivative of e with respect to `var`.

    abs and gamma nodes whose argument depends on `var` raise
    DifferentiationError so callers can fall back to the limit path.
    Subtrees independent of `var` differentiate to 0 regardless of shape.
    """
    return _memo(_differentiate, e)(e, var, False)


def _memo(fn: Callable[..., Any], e: Expr) -> Callable[..., Any]:
    """fn, an lru_cache, or for a tree over _MEMO_NODES nodes the function it wraps."""
    return fn if getattr(e, "_size", 0) <= _MEMO_NODES else fn.__wrapped__


@functools.lru_cache(maxsize=512)
def _differentiate(e: Expr, var: str, kinks: bool) -> Expr:
    # kinks=True differentiates abs(u) as (u/abs(u)) * u': the classical
    # derivative off the kink, 0/0 (an evaluation error) where u = 0
    d = None if var in CONSTANTS else _derivative(e, var, kinks)  # pi and e are never var
    return _ZERO if d is None else d


def _derivative(e: Expr, var: str, kinks: bool) -> _Deriv:
    # None for a subtree free of var, so no node is walked twice
    if isinstance(e, Var):
        return _ONE if e.name == var else None
    if isinstance(e, Neg):
        d = _derivative(e.arg, var, kinks)
        return None if d is None else _neg(d)
    if not isinstance(e, (BinOp, Call)):
        return None  # a Num
    op, args = (e.op, (e.left, e.right)) if isinstance(e, BinOp) else (e.func, (e.arg,))
    step = -1 if op == "^" else 1  # the exponent first: a refusal names the node it always has
    ds = [_derivative(arg, var, kinks) for arg in args[::step]][::step]
    if all(d is None for d in ds):
        return None
    d = _OPS[op].derivative(e, *args, *ds, kinks)
    if d is None:
        raise DifferentiationError(f"cannot differentiate through {op!r}; use the limit path")
    return d


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


_LEVEL_UNARY = 3  # a unary minus binds like "^"; a BinOp binds at its _BINARY power
_LEVEL_ATOM = 4


def _print(e: Expr, min_level: int) -> str:
    level = _LEVEL_ATOM
    if isinstance(e, Num):
        s = _fmt_num(e.value)
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Call):
        s = f"{e.func}({_print(e.arg, 1)})"
    elif isinstance(e, Neg):
        # the operand of unary minus must reparse as a unary, so anything
        # below unary level gets parenthesized; a nested Neg prints as --t
        level, inner = _LEVEL_UNARY, e.arg
        if isinstance(inner, (Num, Var, Call, Neg)) and not (
            isinstance(inner, Num) and inner.value < 0
        ):
            s = "-" + _print(inner, _LEVEL_UNARY)
        else:
            s = f"-({_print(inner, 1)})"
    else:  # BinOp: the operand on the associative side may bind at the operator's power
        level, right = _BINARY[e.op]
        op = f" {e.op} " if level == 1 else e.op
        s = f"{_print(e.left, level + right)}{op}{_print(e.right, level + (not right))}"
    return f"({s})" if level < min_level else s


def to_source(e: Expr) -> str:
    """Render e to a string that reparses to an equal tree."""
    return _print(e, 1)
