"""Parse, evaluate, and symbolically differentiate the expressions that define
vector fields, candidate Lyapunov/barrier functions, and set-defining functions.

The grammar is deliberately small: variables, real literals, + - * / ^,
unary minus, and the functions sin, cos, exp, log, sqrt, abs, tanh plus the
binary min/max.  Power binds tighter than unary minus; all binary operators
associate to the left.  There are no user-defined functions and no
simplification pass.

ASTs and fields are immutable and evaluate into fresh or caller-given arrays,
so they may be shared across threads (geometry's sets hold work arrays).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Where",
    "ParseError",
    "UnknownIdentifierError",
    "NonSmoothError",
    "parse",
    "to_source",
    "derivative",
    "ScalarField",
    "VectorField",
    "parse_scalar_field",
    "parse_vector_field",
]

UNARY_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs", "tanh")
BINARY_FUNCTIONS = ("min", "max")
NON_SMOOTH_OPS = frozenset({"abs", "min", "max"})


class ParseError(ValueError):
    """Syntax error; ``position`` is the 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}'", position)
        self.name = name


class NonSmoothError(ValueError):
    """Raised when a smooth gradient is required but the expression has kinks."""


# ---------------------------------------------------------------------------
# AST


class Expr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str
    index: int


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    op: str  # 'neg' or a unary function name
    arg: Expr


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str  # '+', '-', '*', '/', '^', 'min', 'max'
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Where(Expr):
    """Branch node used only by derivatives of abs/min/max: evaluates to
    ``pos`` when cond > 0, else ``neg`` (ties take the ``neg`` branch, which
    encodes the left-branch convention at kinks).  Not produced by the parser.
    """

    cond: Expr
    pos: Expr
    neg: Expr


# ---------------------------------------------------------------------------
# Tokenizer / parser

# a number starts with a digit, or '.' and a digit, and takes an exponent
# only when digits follow; whitespace (all that no group matches) is skipped
_TOKEN = re.compile(
    r"(?P<num>\.?\d[\d.]*(?:[eE][+-]?\d+)?)|(?P<ident>[^\W\d]\w*)|(?P<op>[-+*/^(),])|(?P<bad>\S)"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, 1-based position) of each token, then an 'end' token."""
    tokens = []
    for m in _TOKEN.finditer(source):
        kind, text, pos = m.lastgroup, m.group(), m.start() + 1
        if kind == "bad":
            raise ParseError(f"unexpected character '{text}'", pos)
        if kind == "num":
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"malformed number '{text}'", pos) from None
            if math.isinf(value):
                raise ParseError(f"number '{text}' overflows a float", pos)
        tokens.append((kind, text, pos))
    tokens.append(("end", "", len(source) + 1))
    return tokens


_LEVELS = ("+-", "*/")  # the binary operator levels, loosest first


class _Parser:
    # binary(0) := binary(1) (('+'|'-') binary(1))*
    # binary(1) := signed(power) (('*'|'/') signed(power))*
    # signed(p) := '-' signed(p) | p
    # power     := atom ('^' signed(atom))*          (left-associative)
    # atom      := number | ident | ident '(' args ')' | '(' binary(0) ')'
    def __init__(self, tokens: list[tuple[str, str, int]], var_index: dict[str, int]):
        self.tokens = tokens
        self.var_index = var_index
        self.i = 0

    def take(self, ops: str) -> tuple[str, str, int] | None:
        """Consume and return the next token if it is one of the operators ``ops``."""
        tok = self.tokens[self.i]
        if tok[0] == "op" and tok[1] in ops:
            self.i += 1
            return tok
        return None

    def close(self, open_pos: int, at_end: str) -> None:
        """Consume the ')' of the '(' at ``open_pos``; ``at_end`` is the
        message when the input ends first."""
        kind, text, pos = self.tokens[self.i]
        if kind == "end":
            raise ParseError(at_end, open_pos)
        if text != ")":
            raise ParseError(f"expected ')', found '{text}'", pos)
        self.i += 1

    def parse_binary(self, level: int = 0) -> Expr:
        node = None
        while node is None or (tok := self.take(_LEVELS[level])):
            rhs = (self.parse_binary(level + 1) if level + 1 < len(_LEVELS)
                   else self.parse_signed(self.parse_power))
            node = rhs if node is None else Binary(tok[1], node, rhs)
        return node

    def parse_signed(self, operand) -> Expr:  # operand: parse_power or parse_atom
        if self.take("-"):
            return Unary("neg", self.parse_signed(operand))
        return operand()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        while self.take("^"):
            node = Binary("^", node, self.parse_signed(self.parse_atom))
        return node

    def parse_atom(self) -> Expr:
        kind, text, pos = self.tokens[self.i]
        if kind == "end":
            raise ParseError("unexpected end of input", self.tokens[max(self.i - 1, 0)][2])
        self.i += 1
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if paren := self.take("("):
                if text not in UNARY_FUNCTIONS and text not in BINARY_FUNCTIONS:
                    raise UnknownIdentifierError(text, pos)
                args = [self.parse_binary()]
                while self.take(","):
                    args.append(self.parse_binary())
                self.close(paren[2], "expected ')' before end of input")
                unary = text in UNARY_FUNCTIONS
                if len(args) != 2 - unary:
                    arity = "one argument" if unary else "two arguments"
                    raise ParseError(f"{text} takes {arity}", pos)
                return Unary(text, *args) if unary else Binary(text, *args)
            if text in self.var_index:
                return Var(text, self.var_index[text])
            raise UnknownIdentifierError(text, pos)
        if text == "(":
            node = self.parse_binary()
            self.close(pos, "unclosed '('")
            return node
        raise ParseError(f"unexpected token '{text}'", pos)


def parse(source: str, var_names: list[str] | tuple[str, ...]) -> Expr:
    """Parse ``source`` over the given variable names into an AST."""
    var_index = {name: k for k, name in enumerate(var_names)}
    if len(var_index) != len(var_names):
        raise ValueError(f"duplicate variable names in {list(var_names)}")
    parser = _Parser(_tokenize(source), var_index)
    node = parser.parse_binary()
    kind, text, pos = parser.tokens[parser.i]
    if kind != "end":
        raise ParseError(f"unexpected trailing token '{text}'", pos)
    return node


# ---------------------------------------------------------------------------
# Printing (round-trips through parse with identical values)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_source(e: Expr) -> str:
    return _print(e, 0)


def _print(e: Expr, parent_prec: int, right_operand: bool = False) -> str:
    if isinstance(e, Const):
        v = e.value
        if v < 0 or (v == 0 and math.copysign(1.0, v) < 0):
            s = f"-{_format_number(-v)}"
            return f"({s})" if parent_prec > 0 else s
        return _format_number(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = _print(e.arg, _PREC["neg"])
            s = f"-{inner}"
            # unary minus binds looser than ^ and than */ on the right side
            return f"({s})" if parent_prec >= _PREC["neg"] or right_operand else s
        return f"{e.op}({_print(e.arg, 0)})"
    if isinstance(e, Binary):
        if e.op in BINARY_FUNCTIONS:
            return f"{e.op}({_print(e.a, 0)}, {_print(e.b, 0)})"
        prec = _PREC[e.op]
        left = _print(e.a, prec)
        right = _print(e.b, prec, right_operand=True)
        s = f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"
        if prec < parent_prec or (right_operand and prec == parent_prec):
            return f"({s})"
        return s
    if isinstance(e, Where):
        # not part of the surface grammar; printed for repr only
        return f"where({_print(e.cond, 0)} > 0, {_print(e.pos, 0)}, {_print(e.neg, 0)})"
    raise TypeError(f"unknown node {e!r}")


def _format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# ---------------------------------------------------------------------------
# Symbolic differentiation

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Unary("neg", b)
    return Binary("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return Binary("/", a, b)


def _neg(a: Expr) -> Expr:
    if _is_const(a, 0.0):
        return _ZERO
    return Unary("neg", a)


def _power_rule(a: Expr, b: Expr, da: Expr, db: Expr) -> Expr:
    if isinstance(b, Const):
        n = b.value
        if n == 0.0:
            return _ZERO
        if n == 1.0:
            return da
        power = a if n == 2.0 else Binary("^", a, Const(n - 1.0))
        return _mul(_mul(b, power), da)
    # general u^v via exp(v log u)
    return _mul(Binary("^", a, b), _add(_mul(db, Unary("log", a)), _div(_mul(b, da), a)))


# the derivative of op(u) from (u, du), of op(a, b) from (a, b, da, db)
_RULES = {
    "neg": lambda u, du: _neg(du),
    "sin": lambda u, du: _mul(Unary("cos", u), du),
    "cos": lambda u, du: _neg(_mul(Unary("sin", u), du)),
    "exp": lambda u, du: _mul(Unary("exp", u), du),
    "log": lambda u, du: _div(du, u),
    "sqrt": lambda u, du: _div(du, _mul(Const(2.0), Unary("sqrt", u))),
    "tanh": lambda u, du: _mul(_sub(_ONE, _mul(Unary("tanh", u), Unary("tanh", u))), du),
    # d|u| = du for u > 0, -du otherwise (left branch at u = 0)
    "abs": lambda u, du: Where(u, du, _neg(du)),
    "+": lambda a, b, da, db: _add(da, db),
    "-": lambda a, b, da, db: _sub(da, db),
    "*": lambda a, b, da, db: _add(_mul(da, b), _mul(a, db)),
    "/": lambda a, b, da, db: _div(_sub(_mul(da, b), _mul(a, db)), Binary("^", b, Const(2.0))),
    "^": _power_rule,
    # a > b: b is active; a tie picks a (the left argument)
    "min": lambda a, b, da, db: Where(_sub(a, b), db, da),
    "max": lambda a, b, da, db: Where(_sub(b, a), db, da),
}


def derivative(e: Expr, var_index: int) -> Expr:
    """Symbolic partial derivative.  Kinks of abs/min/max differentiate to the
    left branch (encoded via Where nodes, whose ties pick the 'neg' side)."""
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == var_index else _ZERO
    if isinstance(e, Unary):
        return _RULES[e.op](e.arg, derivative(e.arg, var_index))
    if isinstance(e, Binary):
        return _RULES[e.op](e.a, e.b, derivative(e.a, var_index), derivative(e.b, var_index))
    if isinstance(e, Where):
        return Where(e.cond, derivative(e.pos, var_index), derivative(e.neg, var_index))
    raise TypeError(f"unknown node {e!r}")


_KIDS = {Unary: ("arg",), Binary: ("a", "b"), Where: ("cond", "pos", "neg")}


def _nodes(e: Expr):
    """Every node of the tree under e, e included."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        for k in _KIDS.get(type(e), ()):
            stack.append(getattr(e, k))


# ---------------------------------------------------------------------------
# numpy code generation

_UFUNCS = {"neg": "negative", "abs": "absolute", "+": "add", "-": "subtract", "*": "multiply",
           "/": "true_divide", "^": "power", "min": "minimum", "max": "maximum",
           **{f: f for f in ("sin", "cos", "exp", "log", "sqrt", "tanh")}}


@functools.lru_cache(maxsize=1024)
def _compiled(source: str):
    """Fields of one shape share their source: constants are bound by name."""
    return compile(source, "<safestab-expr>", "exec")


def _fold_negation(e: Binary) -> Expr:
    """The + or - node e with a negated varying operand folded into it."""
    a, b = (k.arg if isinstance(k, Unary) and k.op == "neg"
            and any(isinstance(n, Var) for n in _nodes(k.arg)) else None for k in (e.a, e.b))
    return (Binary("+" if e.op == "-" else "-", e.a, b) if b is not None
            else Binary("-", e.b, a) if a is not None and e.op == "+" else e)


class _Emitter:
    """Straight-line numpy source writing expressions into given arrays.

    Each node that depends on a variable is one ufunc call writing into a
    scratch row ``_s<k>`` (the root writes into its output), so the values
    are bitwise those of numpy operators and only ``Where`` allocates.  Two
    rewrites keep every bit: a^2 is ``square(a)``, as numpy's ``a ** 2`` is
    (``sqrt`` and ``reciprocal`` differ from ``power`` at -0.0 and -inf, so
    no other exponent is rewritten); (-a) + b, a + (-b) and a - (-b), for a
    varying a or b, are b - a, a - b and a + b, as IEEE defines a - b as
    a + (-b) and + commutes.  A constant-only subtree is folded once into a
    float64 by numpy's scalar operators, so constants follow numpy semantics
    (0^-1 is inf, (-1)^1.5 is NaN) like the rest; the built function sees
    every float constant as a read-only 0-d float64 array, which a ufunc
    takes without the per-call conversion of a scalar."""

    def __init__(self, bindings=()):
        self.ns: dict = {"_np": np, **{u: getattr(np, u) for u in (*_UFUNCS.values(), "square")}}
        self.ns.update(bindings)
        self.lines: list[str] = []
        self.n_scratch = 0
        self._free: list[str] = []

    def assign(self, e: Expr, out: str, xs) -> None:
        """Write e into the array named ``out``; variable k is named xs[k]
        (names other than ``_c<k>`` and ``_s<k>``)."""
        src = self._operand(e, xs, out)
        if src != out:
            self.lines.append(f"_np.copyto({out}, {src})")

    def build(self, params):
        """Compile the lines into a function of ``params`` and then the
        scratch rows; return it and the number of scratch rows."""
        params = list(params) + [f"_s{k}" for k in range(self.n_scratch)]
        for name, v in self.ns.items():
            if isinstance(v, float):  # np.float64 included
                self.ns[name] = np.array(v, dtype=np.float64)
                self.ns[name].flags.writeable = False
        body = "".join(f"    {line}\n" for line in self.lines) or "    pass\n"
        exec(_compiled(f"def _fn({', '.join(params)}):\n{body}"), self.ns)
        return self.ns.pop("_fn"), self.n_scratch

    def _const(self, value) -> str:
        name = f"_c{len(self.ns)}"
        self.ns[name] = np.float64(value)
        return name

    def _operand(self, e: Expr, xs, out: str | None = None) -> str:
        """A name holding e: a variable, a folded constant, or the scratch row
        (or ``out``) it was written into."""
        if isinstance(e, Const):
            return self._const(e.value)
        if isinstance(e, Var):
            return xs[e.index]
        if getattr(e, "op", "") in ("+", "-") and (folded := _fold_negation(e)) is not e:
            return self._operand(folded, xs, out)
        args = []
        for k in _KIDS[type(e)]:  # a loop, not a comprehension: one frame per level
            args.append(self._operand(getattr(e, k), xs))
        if all(a.startswith("_c") for a in args):
            with np.errstate(all="ignore"):
                return self._const(eval(self._scalar(e, args), self.ns))
        self._free.extend(a for a in args if a.startswith("_s"))
        if out is None:
            out = self._free.pop() if self._free else f"_s{self.n_scratch}"
            self.n_scratch = max(self.n_scratch, int(out[2:]) + 1)
        if isinstance(e, Where):
            self.lines.append(f"_np.copyto({out}, {self._scalar(e, args)})")
        elif e.op == "^" and args[1].startswith("_c") and self.ns[args[1]] == 2.0:
            self.lines.append(f"square({args[0]}, out={out})")
        else:
            self.lines.append(f"{_UFUNCS[e.op]}({', '.join(args)}, out={out})")
        return out

    @staticmethod
    def _scalar(e: Expr, args) -> str:
        """Source of e on the float64 scalars named ``args``; a scalar power
        takes numpy's scalar ``**``, as the ufunc may round differently."""
        if isinstance(e, Where):
            return f"_np.where({args[0]} > 0.0, {args[1]}, {args[2]})"
        if e.op == "^":
            return f"({args[0]} ** {args[1]})"
        return f"{_UFUNCS[e.op]}({', '.join(args)})"


# ---------------------------------------------------------------------------
# Fields


def _columns(points, dim: int) -> tuple[int, list[np.ndarray]]:
    """The number of points in an (m, dim) array (a (dim,) array is one
    point) and its contiguous columns."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, field expects {dim}")
    return pts.shape[0], [np.ascontiguousarray(pts[:, k]) for k in range(dim)]


class ScalarField:
    """An expression together with an ordered variable list.

    Immutable; batched evaluation and the cached symbolic gradient are safe
    to use concurrently.
    """

    __slots__ = ("expr", "var_names", "dim", "_eval", "_scratch", "_grad")

    def __init__(self, expr: Expr, var_names: tuple[str, ...] | list[str]):
        missing = {n.name for n in _nodes(expr) if isinstance(n, Var)}.difference(var_names)
        if missing:
            raise ValueError(f"free variables {sorted(missing)} not in {list(var_names)}")
        self.expr = expr
        self.var_names = tuple(var_names)
        self.dim = len(self.var_names)
        xs, em = [f"_v{k}" for k in range(self.dim)], _Emitter()
        em.assign(expr, "_out", xs)
        # _eval(*columns, out, *scratch rows) writes the values into out
        self._eval, self._scratch = em.build(xs + ["_out"])
        self._grad: VectorField | None = None

    @property
    def is_smooth(self) -> bool:
        return not any(isinstance(n, Where) or getattr(n, "op", "") in NON_SMOOTH_OPS
                       for n in _nodes(self.expr))

    @property
    def source(self) -> str:
        return to_source(self.expr)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (m, dim) array; returns shape (m,).
        Domain failures produce NaN/Inf entries instead of raising."""
        m, cols = _columns(points, self.dim)
        out = np.empty(m)
        with np.errstate(all="ignore"):
            self._eval(*cols, out, *np.empty((self._scratch, m)))
        return out

    def grad(self, require_smooth: bool = False) -> "VectorField":
        if require_smooth and not self.is_smooth:
            raise NonSmoothError(
                f"'{self.source}' contains abs/min/max and has no smooth gradient"
            )
        if self._grad is None:
            comps = tuple(
                ScalarField(derivative(self.expr, k), self.var_names)
                for k in range(self.dim)
            )
            self._grad = VectorField(comps)
        return self._grad

    def __repr__(self) -> str:
        return f"ScalarField({self.source!r}, vars={list(self.var_names)})"


class VectorField:
    """A tuple of ScalarFields sharing one variable list."""

    __slots__ = ("components", "var_names", "dim", "_steps")

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("vector field needs at least one component")
        names = comps[0].var_names
        for c in comps:
            if c.var_names != names:
                raise ValueError("vector field components must share one variable list")
        self.components = comps
        self.var_names = names
        self.dim = len(names)
        self._steps: dict = {}

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        m, cols = _columns(points, self.dim)
        out = np.empty((m, len(self.components)), dtype=np.float64)
        scratch = np.empty((max(c._scratch for c in self.components), m))
        with np.errstate(all="ignore"):
            for j, c in enumerate(self.components):
                c._eval(*cols, out[:, j], *scratch[: c._scratch])
        return out

    def rk4_step(self, dt: float):
        """One RK4 step of x' = f(x) + D, D held over the step, as a generated
        ``step(X, D, Xt, K1, K2, K3, K4, *cols, *scratch)`` and its number of
        scratch rows.  It takes the (R, n) arrays, the columns of X, Xt and
        K1-K4, and the scratch rows of length R; it evaluates the stages into
        K1-K4 and leaves ``X + dt/6 (K1 + 2 K2 + 2 K3 + K4)`` in Xt."""
        if dt not in self._steps:
            xs, ys = [f"_x{i}" for i in range(self.dim)], [f"_y{i}" for i in range(self.dim)]
            stages = ("_K1", "_K2", "_K3", "_K4")
            cols = [[f"_k{s}_{j}" for j in range(self.dim)] for s in range(4)]
            em = _Emitter({"_half": 0.5 * dt, "_dt": float(dt), "_sixth": dt / 6.0, "_two": 2.0})
            for s, (K, h) in enumerate(zip(stages, ("_half", "_half", "_dt", None))):
                for c, out in zip(self.components, cols[s]):
                    em.assign(c.expr, out, ys if s else xs)
                em.lines.append(f"add({K}, _D, {K})")
                if h:  # the next stage's state
                    em.lines += [f"multiply({K}, {h}, _Xt)", "add(_Xt, _X, _Xt)"]
            em.lines += ["add(_K2, _K3, _K2)", "multiply(_K2, _two, _K2)", "add(_K2, _K1, _K2)",
                         "add(_K2, _K4, _K2)", "multiply(_K2, _sixth, _Xt)", "add(_Xt, _X, _Xt)"]
            params = ["_X", "_D", "_Xt", *stages, *xs, *ys, *(c for col in cols for c in col)]
            self._steps[dt] = em.build(params)
        return self._steps[dt]

    def __repr__(self) -> str:
        return f"VectorField([{', '.join(c.source for c in self.components)}])"


def parse_scalar_field(source: str, var_names) -> ScalarField:
    return ScalarField(parse(source, tuple(var_names)), tuple(var_names))


def parse_vector_field(sources, var_names) -> VectorField:
    names = tuple(var_names)
    return VectorField([parse_scalar_field(s, names) for s in sources])
