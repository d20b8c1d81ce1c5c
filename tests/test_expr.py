import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safestab.expr import (
    Binary,
    Const,
    EvalDomainError,
    NonSmoothError,
    ParseError,
    Unary,
    ScalarField,
    UnknownIdentifierError,
    Var,
    parse,
    parse_scalar_field,
    to_source,
)


def central_fd(field, x, h=1e-5):
    """Independent gradient oracle: central finite differences."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (field(xp) - field(xm)) / (2 * h)
    return out


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
        assert f(3.0) == -9.0
        g = parse_scalar_field("(-x)^2", ["x"])
        assert g(3.0) == 9.0

    def test_left_associativity(self):
        assert parse_scalar_field("8 - 4 - 2", ["x"])(0.0) == 2.0
        assert parse_scalar_field("8 / 4 / 2", ["x"])(0.0) == 1.0
        assert parse_scalar_field("2^3^2", ["x"])(0.0) == 64.0  # (2^3)^2

    def test_functions(self):
        f = parse_scalar_field("min(sin(x), max(cos(x), tanh(x)))", ["x"])
        x = 0.3
        assert f(x) == min(math.sin(x), max(math.cos(x), math.tanh(x)))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x + 1 )", ["x"])

    def test_duplicate_vars_rejected(self):
        with pytest.raises(ValueError):
            parse("x", ["x", "x"])


class TestEval:
    def test_benchmark_values(self):
        f = parse_scalar_field("-x + x^2", ["x"])
        assert f(0.5) == -0.25
        assert f(0.0) == 0.0

    def test_extreme_disturbance_makes_half_an_equilibrium(self):
        # f(0.5) + 0.25 = 0: with the worst-case constant push the state 0.5
        # is an equilibrium of the disturbed system
        f = parse_scalar_field("-x + x^2", ["x"])
        assert f(0.5) + 0.25 == 0.0

    def test_domain_errors_name_subexpression(self):
        f = parse_scalar_field("1 + log(x)", ["x"])
        with pytest.raises(EvalDomainError) as err:
            f(-1.0)
        assert "log(x)" in str(err.value)
        g = parse_scalar_field("1/(x - 1)", ["x"])
        with pytest.raises(EvalDomainError):
            g(1.0)
        h = parse_scalar_field("x^0.5", ["x"])
        with pytest.raises(EvalDomainError):
            h(-2.0)

    def test_eval_many_matches_scalar(self):
        f = parse_scalar_field("sin(x)*exp(-y) + x^3/(2 + y^2)", ["x", "y"])
        pts = np.random.default_rng(5).uniform(-2, 2, size=(50, 2))
        batch = f.eval_many(pts)
        single = np.array([f(p) for p in pts])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-14)

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
            f([1.0])


class TestGrad:
    def test_square(self):
        f = parse_scalar_field("x^2", ["x"])
        g = f.grad()(np.array([3.0]))
        fd = central_fd(f, [3.0], h=1e-6)
        assert abs(g[0] - 6.0) < 1e-12
        assert abs(g[0] - fd[0]) < 1e-6

    def test_constant_has_zero_gradient(self):
        f = parse_scalar_field("7", ["x", "y"])
        assert np.array_equal(f.grad()([0.3, -0.4]), np.zeros(2))

    def test_two_dim(self):
        f = parse_scalar_field("x^2 + y^2", ["x", "y"])
        g = f.grad()([1.0, 2.0])
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(g, central_fd(f, [1.0, 2.0]), atol=1e-6)

    def test_abs_left_branch_at_kink(self):
        f = parse_scalar_field("abs(x)", ["x"])
        g = f.grad()
        assert g([1.0])[0] == 1.0
        assert g([-1.0])[0] == -1.0
        assert g([0.0])[0] == -1.0  # left branch

    def test_min_tie_takes_first_argument(self):
        f = parse_scalar_field("min(2*x, 3*x)", ["x"])
        assert f.grad()([0.0])[0] == 2.0

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
            s = grad(p)
            fd = central_fd(f, p, h=1e-5)
            assert np.all(np.abs(s - fd) <= 1e-4 * (1.0 + np.abs(s)))


# ---------------------------------------------------------------------------
# Property tests over generated expression trees

XY = ("x", "y")
_VARS = st.sampled_from([Var("x", 0), Var("y", 1)])


def _trees(depth, consts, unary, binary):
    if depth == 0:
        return st.one_of(_VARS, consts.map(Const))
    sub = _trees(depth - 1, consts, unary, binary)
    return st.one_of(
        _VARS,
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


@settings(max_examples=300, deadline=None)
@given(_ANY_TREE)
def test_printed_source_parses_to_identical_values(e):
    def outcome(expr):
        # constant-only subtrees evaluate in Python floats, which raise
        # (1/0) or turn complex ((-1)^1.5)
        try:
            with np.errstate(all="ignore"):
                return ScalarField(expr, XY).eval_many(_POINTS)
        except (ArithmeticError, TypeError) as ex:
            return type(ex)

    want, got = outcome(e), outcome(parse(to_source(e), XY))
    if isinstance(want, type):
        assert got is want
    else:
        np.testing.assert_array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(_SMOOTH_TREE, st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
def test_symbolic_gradient_matches_central_differences(e, x):
    f = ScalarField(e, XY)
    sym = f.grad()(np.asarray(x))
    fd = central_fd(f, x, h=1e-5)
    assert np.all(np.abs(sym - fd) <= 1e-4 * (1.0 + np.abs(sym))), (to_source(e), x, sym, fd)
