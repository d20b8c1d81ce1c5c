"""Parse, evaluate, and symbolically differentiate the expressions that define
vector fields, candidate Lyapunov/barrier functions, and set-defining functions.

The grammar is deliberately small: variables, real literals, + - * / ^,
unary minus, and the functions sin, cos, exp, log, sqrt, abs, tanh plus the
binary min/max.  Power binds tighter than unary minus; all binary operators
associate to the left.  There are no user-defined functions and no
simplification pass.

Every AST is immutable after construction, so parsed expressions and their
gradients are safe to share across parallel grid sweeps.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # 'num', 'ident', 'op', 'end'
    text: str
    pos: int  # 1-based


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"malformed number '{text}'", i + 1) from None
            if math.isinf(value):
                raise ParseError(f"number '{text}' overflows a float", i + 1)
            tokens.append(_Token("num", text, i + 1))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i + 1))
            i = j
            continue
        if c in "+-*/^(),":
            tokens.append(_Token("op", c, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character '{c}'", i + 1)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], var_index: dict[str, int]):
        self.tokens = tokens
        self.var_index = var_index
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str, context_pos: int | None = None) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        if tok.kind == "end" and context_pos is not None:
            raise ParseError(f"expected '{text}' before end of input", context_pos)
        raise ParseError(f"expected '{text}', found '{tok.text or 'end of input'}'", tok.pos)

    # expr   := term (('+'|'-') term)*
    # term   := unary (('*'|'/') unary)*
    # unary  := '-' unary | power
    # power  := atom ('^' signed_atom)*          (left-associative)
    # atom   := number | ident | ident '(' args ')' | '(' expr ')'
    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Unary("neg", self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Binary("^", node, self.parse_signed_atom())
        return node

    def parse_signed_atom(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Unary("neg", self.parse_signed_atom())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.peek().kind == "op" and self.peek().text == "(":
                open_pos = self.advance().pos
                if name not in UNARY_FUNCTIONS and name not in BINARY_FUNCTIONS:
                    raise UnknownIdentifierError(name, tok.pos)
                args = [self.parse_expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect(")", context_pos=open_pos)
                if name in UNARY_FUNCTIONS:
                    if len(args) != 1:
                        raise ParseError(f"{name} takes one argument", tok.pos)
                    return Unary(name, args[0])
                if len(args) != 2:
                    raise ParseError(f"{name} takes two arguments", tok.pos)
                return Binary(name, args[0], args[1])
            if name in self.var_index:
                return Var(name, self.var_index[name])
            raise UnknownIdentifierError(name, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            open_pos = self.advance().pos
            node = self.parse_expr()
            if self.peek().kind == "end":
                raise ParseError("unclosed '('", open_pos)
            self.expect(")", context_pos=open_pos)
            return node
        if tok.kind == "end":
            prev = self.tokens[self.i - 1] if self.i > 0 else tok
            raise ParseError("unexpected end of input", prev.pos)
        raise ParseError(f"unexpected token '{tok.text}'", tok.pos)


def parse(source: str, var_names: list[str] | tuple[str, ...]) -> Expr:
    """Parse ``source`` over the given variable names into an AST."""
    var_index = {name: k for k, name in enumerate(var_names)}
    if len(var_index) != len(var_names):
        raise ValueError(f"duplicate variable names in {list(var_names)}")
    parser = _Parser(_tokenize(source), var_index)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing token '{tok.text}'", tok.pos)
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


def derivative(e: Expr, var_index: int) -> Expr:
    """Symbolic partial derivative.  Kinks of abs/min/max differentiate to the
    left branch (encoded via Where nodes, whose ties pick the 'neg' side)."""
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == var_index else _ZERO
    if isinstance(e, Unary):
        da = derivative(e.arg, var_index)
        u = e.arg
        if e.op == "neg":
            return _neg(da)
        if e.op == "sin":
            return _mul(Unary("cos", u), da)
        if e.op == "cos":
            return _neg(_mul(Unary("sin", u), da))
        if e.op == "exp":
            return _mul(Unary("exp", u), da)
        if e.op == "log":
            return _div(da, u)
        if e.op == "sqrt":
            return _div(da, _mul(Const(2.0), Unary("sqrt", u)))
        if e.op == "tanh":
            t = Unary("tanh", u)
            return _mul(_sub(_ONE, _mul(t, t)), da)
        if e.op == "abs":
            # d|u| = du for u > 0, -du otherwise (left branch at u = 0)
            return Where(u, da, _neg(da))
        raise TypeError(f"unknown unary op {e.op}")
    if isinstance(e, Binary):
        da = derivative(e.a, var_index)
        db = derivative(e.b, var_index)
        a, b = e.a, e.b
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if e.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), Binary("^", b, Const(2.0)))
        if e.op == "^":
            if isinstance(b, Const):
                n = b.value
                if n == 0.0:
                    return _ZERO
                if n == 1.0:
                    return da
                power = a if n == 2.0 else Binary("^", a, Const(n - 1.0))
                return _mul(_mul(b, power), da)
            # general u^v via exp(v log u)
            term = _add(_mul(db, Unary("log", a)), _div(_mul(b, da), a))
            return _mul(e, term)
        if e.op == "min":
            # a > b: b is active; tie picks a (the left argument)
            return Where(_sub(a, b), db, da)
        if e.op == "max":
            return Where(_sub(b, a), db, da)
        raise TypeError(f"unknown binary op {e.op}")
    if isinstance(e, Where):
        return Where(e.cond, derivative(e.pos, var_index), derivative(e.neg, var_index))
    raise TypeError(f"unknown node {e!r}")


def _free_vars(e: Expr, acc: set[str]) -> None:
    if isinstance(e, Var):
        acc.add(e.name)
    elif isinstance(e, Unary):
        _free_vars(e.arg, acc)
    elif isinstance(e, Binary):
        _free_vars(e.a, acc)
        _free_vars(e.b, acc)
    elif isinstance(e, Where):
        _free_vars(e.cond, acc)
        _free_vars(e.pos, acc)
        _free_vars(e.neg, acc)


def _has_kinks(e: Expr) -> bool:
    if isinstance(e, Unary):
        return e.op in NON_SMOOTH_OPS or _has_kinks(e.arg)
    if isinstance(e, Binary):
        return e.op in NON_SMOOTH_OPS or _has_kinks(e.a) or _has_kinks(e.b)
    if isinstance(e, Where):
        return True
    return False


# ---------------------------------------------------------------------------
# numpy code generation

_NUMPY_UNARY = {
    "sin": "_np.sin",
    "cos": "_np.cos",
    "exp": "_np.exp",
    "log": "_np.log",
    "sqrt": "_np.sqrt",
    "abs": "_np.abs",
    "tanh": "_np.tanh",
}


def _codegen(e: Expr, consts: list) -> str:
    """Source of e; constants become names bound to float64 values in
    ``consts``, so constant-only subtrees follow numpy semantics (0^-1 is
    inf, (-1)^1.5 is NaN) like the rest."""
    if isinstance(e, Const):
        consts.append(np.float64(e.value))
        return f"_c{len(consts) - 1}"
    if isinstance(e, Var):
        return f"_v{e.index}"
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-({_codegen(e.arg, consts)}))"
        return f"{_NUMPY_UNARY[e.op]}({_codegen(e.arg, consts)})"
    if isinstance(e, Binary):
        a, b = _codegen(e.a, consts), _codegen(e.b, consts)
        if e.op == "^":
            return f"({a})**({b})"
        if e.op == "min":
            return f"_np.minimum({a}, {b})"
        if e.op == "max":
            return f"_np.maximum({a}, {b})"
        return f"(({a}){e.op}({b}))"
    if isinstance(e, Where):
        cond, pos, neg = (_codegen(c, consts) for c in (e.cond, e.pos, e.neg))
        return f"_np.where(({cond})>0.0, {pos}, {neg})"
    raise TypeError(f"unknown node {e!r}")


def _compile(e: Expr, dim: int):
    """Compile an AST to a callable taking per-variable float64 arrays."""
    args = ", ".join(f"_v{k}" for k in range(dim)) if dim else "_unused=None"
    consts: list = []
    body = _codegen(e, consts)
    src = f"def _compiled({args}):\n    return {body}\n"
    ns: dict = {"_np": np, **{f"_c{k}": c for k, c in enumerate(consts)}}
    exec(compile(src, "<safestab-expr>", "exec"), ns)
    return ns["_compiled"]


# ---------------------------------------------------------------------------
# Fields


class ScalarField:
    """An expression together with an ordered variable list.

    Immutable; batched evaluation and the cached symbolic gradient are safe
    to use concurrently.
    """

    __slots__ = ("expr", "var_names", "dim", "_compiled", "_grad")

    def __init__(self, expr: Expr, var_names: tuple[str, ...] | list[str]):
        free: set[str] = set()
        _free_vars(expr, free)
        missing = free.difference(var_names)
        if missing:
            raise ValueError(f"free variables {sorted(missing)} not in {list(var_names)}")
        self.expr = expr
        self.var_names = tuple(var_names)
        self.dim = len(self.var_names)
        self._compiled = _compile(expr, self.dim)
        self._grad: VectorField | None = None

    @property
    def is_smooth(self) -> bool:
        return not _has_kinks(self.expr)

    @property
    def source(self) -> str:
        return to_source(self.expr)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (m, dim) array; returns shape (m,).
        Domain failures produce NaN/Inf entries instead of raising."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, field expects {self.dim}")
        cols = [np.ascontiguousarray(pts[:, k]) for k in range(self.dim)]
        with np.errstate(all="ignore"):
            out = self._compiled(*cols)
        return np.broadcast_to(np.asarray(out, dtype=np.float64), (pts.shape[0],)).copy()

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

    __slots__ = ("components", "var_names", "dim")

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

    def __len__(self) -> int:
        return len(self.components)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        out = np.empty((pts.shape[0], len(self.components)), dtype=np.float64)
        cols = [np.ascontiguousarray(pts[:, k]) for k in range(self.dim)]
        with np.errstate(all="ignore"):
            for j, c in enumerate(self.components):
                out[:, j] = c._compiled(*cols)
        return out

    def __repr__(self) -> str:
        return f"VectorField([{', '.join(c.source for c in self.components)}])"


def parse_scalar_field(source: str, var_names) -> ScalarField:
    return ScalarField(parse(source, tuple(var_names)), tuple(var_names))


def parse_vector_field(sources, var_names) -> VectorField:
    names = tuple(var_names)
    return VectorField([parse_scalar_field(s, names) for s in sources])
