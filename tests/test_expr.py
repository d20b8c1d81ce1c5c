import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safestab
from safestab import (
    ExtremalFeedbackPolicy,
    PerturbedSystem,
    PiecewiseRandomPolicy,
    parse_vector_field,
    run_sweep,
)
from safestab.expr import (
    Binary,
    Const,
    NonSmoothError,
    ParseError,
    Unary,
    ScalarField,
    UnknownIdentifierError,
    Var,
    VectorField,
    Where,
    parse,
    parse_scalar_field,
    derivative,
    to_source,
)


def at(field, *x):
    """The field's value (a row for a vector field) at the one point x."""
    return field.eval_many(np.array([x], dtype=float))[0]


def central_fd(field, x, h=1e-5):
    """Independent gradient oracle: central finite differences."""
    x = np.asarray(x, dtype=float)
    steps = h * np.eye(x.size)
    vals = field.eval_many(np.concatenate([x + steps, x - steps]))
    return (vals[: x.size] - vals[x.size:]) / (2 * h)


class TestParse:
    def test_benchmark_rhs_ast(self):
        e = parse("-x + x^2", ["x"])
        assert e == Binary(
            "+", Unary("neg", Var("x", 0)), Binary("^", Var("x", 0), Const(2.0))
        )

    def test_constant_zero(self):
        assert parse("0", ["x"]) == Const(0.0)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("x*(", ["x"])
        assert err.value.position == 3

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse("x + foo", ["x"])
        assert err.value.name == "foo"
        assert err.value.position == 5

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse("sinh(x)", ["x"])

    def test_power_binds_tighter_than_unary_minus(self):
        f = parse_scalar_field("-x^2", ["x"])
        assert at(f, 3.0) == -9.0
        g = parse_scalar_field("(-x)^2", ["x"])
        assert at(g, 3.0) == 9.0

    def test_left_associativity(self):
        assert at(parse_scalar_field("8 - 4 - 2", ["x"]), 0.0) == 2.0
        assert at(parse_scalar_field("8 / 4 / 2", ["x"]), 0.0) == 1.0
        assert at(parse_scalar_field("2^3^2", ["x"]), 0.0) == 64.0  # (2^3)^2

    def test_functions(self):
        f = parse_scalar_field("min(sin(x), max(cos(x), tanh(x)))", ["x"])
        x = 0.3
        assert at(f, x) == min(math.sin(x), max(math.cos(x), math.tanh(x)))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x + 1 )", ["x"])

    def test_duplicate_vars_rejected(self):
        with pytest.raises(ValueError):
            parse("x", ["x", "x"])

    @pytest.mark.parametrize("source, error, message, position", [
        ("x $ 1", ParseError, "unexpected character '$'", 3),
        ("1.2.3", ParseError, "malformed number '1.2.3'", 1),
        ("x + 1e999", ParseError, "number '1e999' overflows a float", 5),
        ("sin(x", ParseError, "expected ')' before end of input", 4),
        ("(x + 1", ParseError, "unclosed '('", 1),
        ("x +", ParseError, "unexpected end of input", 3),
        ("", ParseError, "unexpected end of input", 1),
        ("*x", ParseError, "unexpected token '*'", 1),
        ("x y", ParseError, "unexpected trailing token 'y'", 3),
        ("sin(x, y)", ParseError, "sin takes one argument", 1),
        ("max(x)", ParseError, "max takes two arguments", 1),
        ("sinh(x)", UnknownIdentifierError, "unknown identifier 'sinh'", 1),
    ])
    def test_error_message_and_position(self, source, error, message, position):
        with pytest.raises(ParseError) as err:
            parse(source, ["x", "y"])
        assert type(err.value) is error
        assert str(err.value) == f"{message} (position {position})"
        assert err.value.position == position

    def test_nesting_depth_at_module_level(self):
        # five frames per parenthesis and one per term of a compiled sum
        code = ("from safestab.expr import parse, parse_scalar_field\n"
                "parse('(' * 197 + 'x' + ')' * 197, ['x'])\n"
                "parse_scalar_field(' + '.join(['x'] * 991), ['x'])\n")
        src = str(Path(safestab.__file__).resolve().parent.parent)
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


class TestEval:
    def test_benchmark_values(self):
        f = parse_scalar_field("-x + x^2", ["x"])
        assert at(f, 0.5) == -0.25
        assert at(f, 0.0) == 0.0

    def test_extreme_disturbance_makes_half_an_equilibrium(self):
        # f(0.5) + 0.25 = 0: with the worst-case constant push the state 0.5
        # is an equilibrium of the disturbed system
        f = parse_scalar_field("-x + x^2", ["x"])
        assert at(f, 0.5) + 0.25 == 0.0

    def test_domain_errors_give_nan_or_inf(self):
        # outside an operator's domain the value is NaN or inf, not an error
        assert np.isnan(at(parse_scalar_field("1 + log(x)", ["x"]), -1.0))
        assert np.isinf(at(parse_scalar_field("1/(x - 1)", ["x"]), 1.0))
        assert np.isnan(at(parse_scalar_field("x^0.5", ["x"]), -2.0))

    @pytest.mark.parametrize("case", [
        ("-y", lambda x, y: -y),
        ("sin(y)", lambda x, y: math.sin(y)),
        ("cos(y)", lambda x, y: math.cos(y)),
        ("exp(y)", lambda x, y: math.exp(y)),
        ("log(x)", lambda x, y: math.log(x)),
        ("sqrt(x)", lambda x, y: math.sqrt(x)),
        ("abs(y)", lambda x, y: abs(y)),
        ("tanh(y)", lambda x, y: math.tanh(y)),
        ("x + y", lambda x, y: x + y),
        ("x - y", lambda x, y: x - y),
        ("x * y", lambda x, y: x * y),
        ("x / y", lambda x, y: x / y),
        ("x ^ y", lambda x, y: math.pow(x, y)),
        ("min(x, y)", min),
        ("max(x, y)", max),
        # d|y|/dy, a Where node: 1 where y > 0, else -1
        (ScalarField(derivative(parse("abs(y)", ["x", "y"]), 1), ["x", "y"]),
         lambda x, y: 1.0 if y > 0 else -1.0),
    ], ids=lambda case: case[0] if isinstance(case[0], str) else case[0].source)
    def test_eval_many_matches_math_per_operator(self, case):
        field, oracle = case
        if isinstance(field, str):
            field = parse_scalar_field(field, ["x", "y"])
        pts = [(0.3, -1.7), (1.2, 0.8), (2.5, -0.4), (0.7, 0.7), (1.9, 2.3)]
        want = [oracle(x, y) for x, y in pts]
        np.testing.assert_allclose(field.eval_many(np.array(pts)), want, rtol=1e-14, atol=0)

    def test_eval_many_is_deterministic(self):
        f = parse_scalar_field("tanh(x)*x^4 - cos(x)", ["x"])
        pts = np.linspace(-2, 2, 101)[:, None]
        a = f.eval_many(pts)
        b = f.eval_many(pts)
        assert np.array_equal(a, b)

    def test_vectorized_domain_failure_is_nan_not_crash(self):
        f = parse_scalar_field("log(x)", ["x"])
        out = f.eval_many(np.array([[-1.0], [1.0]]))
        assert np.isnan(out[0]) and out[1] == 0.0

    def test_dimension_mismatch(self):
        f = parse_scalar_field("x + y", ["x", "y"])
        with pytest.raises(ValueError):
            f.eval_many(np.array([[1.0]]))

    @pytest.mark.parametrize("columns", [1, 3])
    def test_vector_dimension_mismatch(self, columns):
        f = parse_vector_field(["x + y", "x"], ["x", "y"])
        with pytest.raises(ValueError, match=f"dimension {columns}, field expects 2"):
            f.eval_many(np.ones((3, columns)))

    def test_constant_subtrees_follow_numpy_semantics(self):
        pts = np.array([[1.0], [2.0]])
        assert np.all(parse_scalar_field("x + 0^-1", ["x"]).eval_many(pts) == np.inf)
        assert np.all(np.isnan(parse_scalar_field("x + (-1)^1.5", ["x"]).eval_many(pts)))
        np.testing.assert_array_equal(
            parse_scalar_field("x + 2*3 - 1/4", ["x"]).eval_many(pts), [6.75, 7.75]
        )

    def test_overflowing_literal_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_scalar_field("x + 1e999", ["x"])
        assert err.value.position == 5
        assert "1e999" in str(err.value)


class TestGrad:
    def test_derivative_of_a_branch_node(self):
        # d|x^3|/dx is a Where node; its derivative is 6|x| on both sides
        d2 = parse_scalar_field("abs(x^3)", ["x"]).grad().components[0].grad()
        assert at(d2, 2.0)[0] == 12.0
        assert at(d2, -2.0)[0] == 12.0

    def test_square(self):
        f = parse_scalar_field("x^2", ["x"])
        g = at(f.grad(), 3.0)
        fd = central_fd(f, [3.0], h=1e-6)
        assert abs(g[0] - 6.0) < 1e-12
        assert abs(g[0] - fd[0]) < 1e-6

    def test_constant_has_zero_gradient(self):
        f = parse_scalar_field("7", ["x", "y"])
        assert np.array_equal(at(f.grad(), 0.3, -0.4), np.zeros(2))

    def test_two_dim(self):
        f = parse_scalar_field("x^2 + y^2", ["x", "y"])
        g = at(f.grad(), 1.0, 2.0)
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(g, central_fd(f, [1.0, 2.0]), atol=1e-6)

    def test_abs_left_branch_at_kink(self):
        f = parse_scalar_field("abs(x)", ["x"])
        g = f.grad()
        assert at(g, 1.0)[0] == 1.0
        assert at(g, -1.0)[0] == -1.0
        assert at(g, 0.0)[0] == -1.0  # left branch

    def test_min_tie_takes_first_argument(self):
        f = parse_scalar_field("min(2*x, 3*x)", ["x"])
        assert at(f.grad(), 0.0)[0] == 2.0

    def test_smoothness_flag_and_rejection(self):
        f = parse_scalar_field("abs(x) + x^2", ["x"])
        assert not f.is_smooth
        with pytest.raises(NonSmoothError):
            f.grad(require_smooth=True)
        g = parse_scalar_field("x^2", ["x"])
        assert g.is_smooth
        g.grad(require_smooth=True)


# ---------------------------------------------------------------------------
# Generated corpora


def _smooth_corpus(rng, var_names, size):
    """Random smooth expressions with tame ranges on [-2, 2]^n."""
    n = len(var_names)

    def leaf():
        if rng.random() < 0.6:
            return var_names[rng.integers(n)]
        return f"{rng.uniform(-2, 2):.4f}"

    def build(depth):
        if depth == 0:
            return leaf()
        op = rng.integers(8)
        a = build(depth - 1)
        b = build(depth - 1)
        if op == 0:
            return f"({a} + {b})"
        if op == 1:
            return f"({a} - {b})"
        if op == 2:
            return f"({a}*{b})"
        if op == 3:
            return f"({a})^{int(rng.integers(2, 4))}"
        if op == 4:
            return f"sin({a})"
        if op == 5:
            return f"cos({a})"
        if op == 6:
            return f"tanh({a})"
        return f"exp(0.25*({a}))"

    return [build(int(rng.integers(2, 4))) for _ in range(size)]


def _full_corpus(rng, var_names, size):
    """Adds guarded division, sqrt, log, min/max, abs for the round-trip test."""
    base = _smooth_corpus(rng, var_names, size)
    out = []
    for i, s in enumerate(base):
        k = i % 5
        if k == 0:
            out.append(f"({s})/(2 + ({s})^2)")
        elif k == 1:
            out.append(f"sqrt(0.5 + ({s})^2)")
        elif k == 2:
            out.append(f"log(1.5 + ({s})^2)")
        elif k == 3:
            out.append(f"min({s}, abs({s}))")
        else:
            out.append(f"-({s}) + max({s}, 0.25)")
    return out


def test_roundtrip_on_generated_corpus(rng):
    var_names = ("x", "y")
    corpus = _full_corpus(rng, var_names, 50)
    assert len(corpus) == 50
    for src in corpus:
        f = parse_scalar_field(src, var_names)
        printed = to_source(f.expr)
        g = parse_scalar_field(printed, var_names)
        pts = rng.uniform(-2, 2, size=(20, 2))
        va = f.eval_many(pts)
        vb = g.eval_many(pts)
        both = np.isfinite(va) & np.isfinite(vb)
        assert both.all(), f"corpus expression not finite: {src!r}"
        scale = 1.0 + np.abs(va)
        assert np.all(np.abs(va - vb) <= 1e-12 * scale), (src, printed)


def test_gradient_matches_finite_differences_on_corpus(rng):
    var_names = ("x", "y")
    corpus = _smooth_corpus(rng, var_names, 25)
    for src in corpus:
        f = parse_scalar_field(src, var_names)
        grad = f.grad()
        pts = rng.uniform(-2, 2, size=(100, 2))
        sym = grad.eval_many(pts)
        for p, s in zip(pts, sym):
            fd = central_fd(f, p, h=1e-5)
            tol = 1e-4 * (1.0 + np.abs(s))
            assert np.all(np.abs(s - fd) <= tol), (src, p, s, fd)


def test_gradient_matches_finite_differences_1d(rng):
    corpus = _smooth_corpus(rng, ("x",), 15)
    for src in corpus:
        f = parse_scalar_field(src, ("x",))
        grad = f.grad()
        for _ in range(30):
            p = rng.uniform(-2, 2, size=1)
            s = at(grad, *p)
            fd = central_fd(f, p, h=1e-5)
            assert np.all(np.abs(s - fd) <= 1e-4 * (1.0 + np.abs(s)))


# ---------------------------------------------------------------------------
# Property tests over generated expression trees

XY = ("x", "y")
_VARS = st.sampled_from([Var("x", 0), Var("y", 1)])


def _trees(depth, consts, unary, binary, leaves=_VARS):
    if depth == 0:
        return st.one_of(leaves, consts.map(Const))
    sub = _trees(depth - 1, consts, unary, binary, leaves)
    return st.one_of(
        leaves,
        consts.map(Const),
        st.builds(Unary, st.sampled_from(unary), sub),
        st.builds(Binary, st.sampled_from(binary), sub, sub),
    )


# every node the parser produces, with any finite constant
_ANY_TREE = _trees(
    4,
    st.floats(allow_nan=False, allow_infinity=False),
    ("neg", "sin", "cos", "exp", "log", "sqrt", "abs", "tanh"),
    ("+", "-", "*", "/", "^", "min", "max"),
)
# smooth and tame on [-1, 1]^2: |f| <= 2^8, so central differences stay accurate
_SMOOTH_TREE = _trees(
    3,
    st.floats(-2.0, 2.0),
    ("neg", "sin", "cos", "tanh"),
    ("+", "-", "*"),
)
_POINTS = np.random.default_rng(11).uniform(-2.0, 2.0, size=(64, 2))


def _rule_tree(u, v, rule, offset):
    """A tame tree that exercises one more derivative rule on smooth trees u
    and v: arguments of exp, log, sqrt, the power's base and the quotient's
    denominator stay in a bounded positive range, and the min/max arguments
    a in [-1, 1] and b + offset, |offset| = 3, stay at least 1 apart, so
    central differences never straddle a tie."""
    a, b = Unary("sin", u), Unary("cos", v)
    two_plus = Binary("+", Const(2.0), a)
    if rule == "exp":
        return Unary("exp", a)
    if rule == "log":
        return Unary("log", Binary("+", Const(1.0), Binary("^", u, Const(2.0))))
    if rule == "sqrt":
        return Unary("sqrt", two_plus)
    if rule == "/":
        return Binary("/", u, Binary("+", Const(2.0), b))
    if rule == "^":
        return Binary("^", two_plus, b)
    return Binary(rule, a, Binary("+", b, Const(offset)))


# the rules of exp, log, sqrt, /, u^v and min/max, on tame arguments
_RULE_TREE = st.builds(
    _rule_tree, _SMOOTH_TREE, _SMOOTH_TREE,
    st.sampled_from(["exp", "log", "sqrt", "/", "^", "min", "max"]),
    st.sampled_from([-3.0, 3.0]),
)


@settings(max_examples=300, deadline=None)
@given(_ANY_TREE)
def test_printed_source_parses_to_identical_values(e):
    want = ScalarField(e, XY).eval_many(_POINTS)
    got = ScalarField(parse(to_source(e), XY), XY).eval_many(_POINTS)
    np.testing.assert_array_equal(got, want)  # NaN counts as equal


@settings(max_examples=300, deadline=None)
@given(_SMOOTH_TREE | _RULE_TREE, st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
def test_symbolic_gradient_matches_central_differences(e, x):
    f = ScalarField(e, XY)
    sym = at(f.grad(), *x)
    fd = central_fd(f, x, h=1e-5)
    assert np.all(np.abs(sym - fd) <= 1e-4 * (1.0 + np.abs(sym))), (to_source(e), x, sym, fd)


# ---------------------------------------------------------------------------
# The generated evaluator against numpy operators applied to the AST

_NP_UNARY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
             "abs": np.abs, "tanh": np.tanh}
_NP_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
              "^": operator.pow, "min": np.minimum, "max": np.maximum}


def _reference(e, cols):
    """Evaluate e by numpy operators on the AST, constants as float64 scalars."""
    if isinstance(e, Const):
        return np.float64(e.value)
    if isinstance(e, Var):
        return cols[e.index]
    if isinstance(e, Unary):
        a = _reference(e.arg, cols)
        return -a if e.op == "neg" else _NP_UNARY[e.op](a)
    if isinstance(e, Where):
        return np.where(_reference(e.cond, cols) > 0.0, _reference(e.pos, cols),
                        _reference(e.neg, cols))
    return _NP_BINARY[e.op](_reference(e.a, cols), _reference(e.b, cols))


def _reference_many(e, X):
    with np.errstate(all="ignore"):
        return np.broadcast_to(_reference(e, [X[:, k] for k in range(X.shape[1])]),
                               (X.shape[0],)).astype(np.float64)


_SMALL = st.floats(-3.0, 3.0)
_UNARY = ("neg", "sin", "exp", "log", "sqrt", "abs", "tanh")
_BINARY = ("+", "-", "*", "/", "^", "min", "max")
# any tree the parser makes, constant-only trees (folded once), and the Where
# nodes of the derivatives of abs, min and max
_EVAL_TREE = st.one_of(
    _ANY_TREE,
    _trees(3, _SMALL, _UNARY, _BINARY, leaves=_SMALL.map(Const)),
    st.builds(derivative, _trees(3, _SMALL, _UNARY, _BINARY), st.sampled_from([0, 1])),
)
# NaN and inf domains: zeros of both signs, infinities, NaN, huge and tiny
# values, subnormals, the largest finite floats and a value whose square
# underflows
_EDGES = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, np.inf, -np.inf, np.nan, 1e300, -1e-300,
                   5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, 1e-160])
_EDGE_POINTS = np.concatenate([
    np.stack(np.meshgrid(_EDGES, _EDGES, indexing="ij"), axis=-1).reshape(-1, 2),
    np.random.default_rng(5).uniform(-3.0, 3.0, size=(40, 2)),
])


def _same_bits(got, want):
    """Bitwise equal, signed zeros included, with NaN in the same places; the
    sign and payload of a NaN met by another NaN depend on numpy's loop,
    which the arrays' memory layout selects."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=400, deadline=None)
@given(_EVAL_TREE)
def test_evaluator_equals_numpy_operators_bitwise(e):
    want = _reference_many(e, _EDGE_POINTS)
    assert _same_bits(ScalarField(e, XY).eval_many(_EDGE_POINTS), want), to_source(e)
    # a vector field writes each component into a column of its output
    vec = VectorField([ScalarField(Var("y", 1), XY), ScalarField(e, XY)])
    assert _same_bits(vec.eval_many(_EDGE_POINTS)[:, 1], want)


@pytest.mark.parametrize("source", ["-x + y", "x + -y", "x - -y", "-x - -y", "-x + -y",
                                    "-(x*y) + x^2", "2 - -x", "-x + 2"])
def test_folded_negations_equal_numpy_operators_bitwise(source):
    e = parse(source, XY)
    assert _same_bits(ScalarField(e, XY).eval_many(_EDGE_POINTS), _reference_many(e, _EDGE_POINTS))


def _kernel_names(sources, names):
    step, _ = parse_vector_field(sources, names).rk4_step(0.01)
    return set(step.__code__.co_names)


def test_rk4_kernel_squares_and_folds_negations():
    names = _kernel_names(["-x + x^2"], ["x"])
    assert {"square", "subtract"} <= names
    assert not {"power", "negative"} & names


@pytest.mark.parametrize("source", ["x^3", "x^2.5", "x^-2", "x^y"])
def test_rk4_kernel_keeps_power_for_other_exponents(source):
    names = _kernel_names([source, "y"], XY)
    assert "power" in names and "square" not in names


def test_square_equals_power_of_two_bitwise():
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                -2.2250738585072014e-308, 1e-160, -1e-160, 1.5e154, -1.5e154,
                1.7976931348623157e308, -1.7976931348623157e308]
    x = np.concatenate([np.random.default_rng(10).standard_normal(10**6), specials])
    with np.errstate(all="ignore"):
        assert _same_bits(np.square(x), np.power(x, 2.0))


def _textbook_sweep(sys, starts, policies, horizon, dt):
    """Fixed-step RK4 on the whole batch, the disturbance refreshed from each
    policy every step and f evaluated by ``_reference``; the final sum is
    grouped as the engine groups it, 2 (k2 + k3) + k1 + k4."""
    m = starts.shape[0]
    X = np.tile(starts, (len(policies), 1))
    D = np.empty_like(X)

    def f(Y):
        with np.errstate(all="ignore"):
            return np.stack([_reference_many(c.expr, Y) for c in sys.f.components], axis=1)

    for pol in policies:
        pol.prepare(sys, horizon, dt)
    for k in range(round(horizon / dt)):
        for p, pol in enumerate(policies):
            pol.values(k * dt, X[p * m:(p + 1) * m], D[p * m:(p + 1) * m])
        k1 = f(X) + D
        k2 = f(X + 0.5 * dt * k1) + D
        k3 = f(X + 0.5 * dt * k2) + D
        k4 = f(X + dt * k3) + D
        X = X + dt / 6.0 * (2.0 * (k2 + k3) + k1 + k4)
    return X


@pytest.mark.parametrize("f, names, g, starts", [
    (["-x + x^2"], ["x"], "x^2", [[-0.9], [0.1], [0.3]]),
    (["y", "-sin(x) - 0.5*y + 0.1*exp(-x^2)"], ["x", "y"], "x^2 + 2*y^2",
     [[0.5, -0.5], [-1.0, 0.2]]),
], ids=["1d", "2d"])
def test_sweep_with_feedback_equals_textbook_rk4(f, names, g, starts):
    sys = PerturbedSystem(parse_vector_field(f, names), 0.2)
    policies = [ExtremalFeedbackPolicy(parse_scalar_field(g, names), sign) for sign in (1, -1)]
    policies.append(PiecewiseRandomPolicy(seed=4, dwell=0.05))
    starts = np.array(starts)
    res = run_sweep(sys, starts, policies, 1.0, 0.01)
    assert np.all(res.status == 1)  # every row reached the horizon
    want = _textbook_sweep(sys, starts, policies, 1.0, 0.01)
    assert res.states.tobytes() == want.tobytes()
