"""Expression AST: parsing, evaluation, differentiation, brackets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foliops.expr as expr
from foliops.errors import DimensionMismatch, EvalError, ParseError
from foliops.expr import (
    ScalarExpr,
    VectorFieldExpr,
    jacobian,
    lie_bracket,
    parse_field,
    parse_scalar,
)


def test_parse_field_round_trip():
    f = parse_field("[-x2, x1]", 2)
    assert isinstance(f, VectorFieldExpr)
    again = parse_field(str(f), 2)
    pts = np.array([[0.3, -1.2], [1.0, 0.0], [-0.7, 0.4]])
    assert np.array_equal(f(pts), again(pts))


def test_rotation_field_value():
    f = parse_field("[-x2, x1]", 2)
    assert np.allclose(f([1.0, 0.0]), [0.0, 1.0])


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_field("[x1,]", 2)
    with pytest.raises(DimensionMismatch):
        parse_field("[x1]", 2)
    with pytest.raises(ParseError):
        parse_field("[x3]", 2)
    with pytest.raises(ParseError):
        parse_scalar("sin x1", 1)
    with pytest.raises(ParseError):
        parse_scalar("x1 ^ x1", 1)  # exponent must fold to a constant


def test_evaluation_deterministic():
    e = parse_scalar("exp(-x1^2)*sin(x2) + x1/x2", 2)
    p = np.array([0.7, -1.3])
    assert e(p) == e(p)


def test_bare_variable_is_not_a_view_of_the_points():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    vals = parse_scalar("x1", 2)(X)
    vals[0] = 9.0
    assert X[0, 0] == 1.0


def test_eval_error_on_singularity():
    e = parse_scalar("1/x1", 1)
    with pytest.raises(EvalError):
        e([0.0])
    f = parse_field("[x1^2]", 1)
    with pytest.raises(EvalError):
        jacobian(parse_field("[1/x1]", 1), [0.0])
    assert np.allclose(jacobian(f, [2.0]), [[4.0]])


def test_jacobian_examples():
    rot = parse_field("[-x2, x1]", 2)
    assert np.allclose(jacobian(rot, [0.4, 2.2]), [[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(jacobian(parse_field("[x1]", 1), [3.0]), [[1.0]])


def _fd_jacobian(field, p, h=1e-5):
    """Central-difference oracle for the symbolic Jacobian."""
    p = np.asarray(p, float)
    n = len(p)
    J = np.empty((n, n))
    for j in range(n):
        dp = np.zeros(n)
        dp[j] = h
        J[:, j] = (field(p + dp) - field(p - dp)) / (2 * h)
    return J


@pytest.mark.parametrize(
    "text,dim",
    [
        ("[-x2, x1]", 2),
        ("[x1*x2, sin(x1)]", 2),
        ("[exp(-x1^2)*x2, x1 + cos(x2)]", 2),
        ("[x1^3 - 2*x1]", 1),
    ],
)
def test_jacobian_matches_finite_differences(text, dim):
    field = parse_field(text, dim)
    rng = np.random.default_rng(42)
    for p in rng.uniform(-1.5, 1.5, size=(100, dim)):
        J = field.jacobian_at(p)
        Jfd = _fd_jacobian(field, p)
        scale = 1.0 + np.max(np.abs(J))
        assert np.max(np.abs(J - Jfd)) <= 1e-6 * scale


def test_lie_bracket_examples():
    X = parse_field("[1, 0]", 2)
    Y = parse_field("[0, x1]", 2)
    br = lie_bracket(X, Y)
    pts = np.random.default_rng(0).uniform(-2, 2, size=(20, 2))
    assert np.allclose(br(pts), np.tile([0.0, 1.0], (20, 1)))

    same = lie_bracket(X, X)
    assert np.allclose(same(pts), 0.0)

    Z = parse_field("[0, 1]", 2)
    assert np.allclose(lie_bracket(X, Z)(pts), 0.0)


def test_lie_bracket_antisymmetry():
    X = parse_field("[x1*x2, -x2]", 2)
    Y = parse_field("[sin(x1), x1^2]", 2)
    pts = np.random.default_rng(1).uniform(-1, 1, size=(50, 2))
    assert np.array_equal(lie_bracket(X, Y)(pts), -lie_bracket(Y, X)(pts))


def test_bracket_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        lie_bracket(parse_field("[x1]", 1), parse_field("[x1, x2]", 2))


# -- randomized round trips ---------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=-3, max_value=3, allow_nan=False).map(
        lambda v: repr(round(v, 3))
    ),
    st.sampled_from(["x1", "x2"]),
)


def _combine(children):
    ops = ["+", "-", "*"]
    out = children[0]
    for i, c in enumerate(children[1:]):
        out = f"({out} {ops[i % 3]} {c})"
    return out


_exprs = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: _combine(list(t))),
        inner.map(lambda s: f"sin({s})"),
        inner.map(lambda s: f"exp(-({s})^2)"),
    ),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(_exprs)
def test_print_parse_round_trip_preserves_evaluation(text):
    e = parse_scalar(text, 2)
    again = parse_scalar(str(e), 2)
    pts = np.array([[0.25, -0.75], [1.5, 0.5], [-1.0, 2.0]])
    a = e(pts, check_finite=False)
    b = again(pts, check_finite=False)
    finite = np.isfinite(a)
    assert np.array_equal(finite, np.isfinite(b))
    scale = 1.0 + np.abs(a[finite])
    assert np.all(np.abs(a[finite] - b[finite]) <= 1e-15 * scale)


def test_scalar_algebra_helpers():
    e = parse_scalar("x1^2", 1)
    f = parse_scalar("x1", 1)
    combo = 2.0 * e + f - 1.0
    assert combo([3.0]) == pytest.approx(2 * 9 + 3 - 1)
    assert (-e)([2.0]) == pytest.approx(-4.0)


def test_diff_of_constant_exponent_power():
    e = parse_scalar("x1^-2.0", 1)
    d = e.diff(0)
    assert d([2.0]) == pytest.approx(-2.0 * 2.0 ** (-3.0))


def test_constants_broadcast_and_leave_the_ast_full_shape(monkeypatch):
    """A constant node evaluates to its scalar; a value leaving the AST is
    a writable array over the point shape, and densities keep their bits."""
    X = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 3, 2))
    c = parse_scalar("2.5", 2)
    for pts in (X, X.reshape(12, 2)):
        v = c(pts)
        assert v.shape == pts.shape[:-1] and v.flags.writeable
        assert np.all(v == 2.5)
    assert c([0.1, 0.2]) == 2.5
    F = parse_field("[1, 0]", 2)
    v = F(X)
    assert v.shape == (4, 3, 2) and v.flags.writeable
    assert np.all(v[..., 0] == 1.0) and np.all(v[..., 1] == 0.0)
    assert F.jacobian_at(X).shape == (4, 3, 2, 2)
    g = parse_scalar("exp(-10*(x1-0.2)^2-10*(x2+0.1)^2)", 2)
    now = g(X)
    monkeypatch.setattr(expr.Const, "ev",
                        lambda self, X: np.full(X.shape[:-1], self.value))
    assert now.tobytes() == g(X).tobytes()


# Texts pinned from the four-class printer that ``Bin`` replaced; plan keys
# are ("expr", dim, str(fn)), so these bytes must not move.
_PRINTED = [
    ("x1 - (x2 - x3)", "x1 - (x2 - x3)"),
    ("(x1 - x2) - x3", "x1 - x2 - x3"),
    ("x1/(x2*x3)", "x1/(x2*x3)"),
    ("x1/x2*x3", "x1/x2*x3"),
    ("-(x1 + x2)*x3", "-(x1 + x2)*x3"),
    ("(x1*x2)^2", "(x1*x2)^2.0"),
    ("x1^-2 + 3", "x1^(-2.0) + 3.0"),
    ("2*-x1 - -x3", "2.0*-x1 - -x3"),
    ("(x1^2)^0.5/(1 - x2)^-1.5", "(x1^2.0)^0.5/(1.0 - x2)^(-1.5)"),
    ("exp(x1 - 1e17)/7 + 2.5e-3*x2", "exp(x1 - 1e+17)/7.0 + 0.0025*x2"),
    ("sin(x1)*(x2 + x3) - cos(-x3)", "sin(x1)*(x2 + x3) - cos(-x3)"),
    ("2*3 - 2^-1 + x1*(1/4)", "5.5 + x1*0.25"),
    ("0*x1 + 1*x2 - 0 + x3/1", "x2 + x3"),
    ("(-2)^3*x1 + 1e308/4*2 - 4^0.5", "(-8.0)*x1 + 5e+307 - 2.0"),
]


def _nodes(node):
    yield node
    for child in node.children():
        yield from _nodes(child)


def test_one_binary_node_prints_walks_and_folds():
    """+, -, * and / are one node, Bin(op, a, b).  It prints through one
    per-op (precedence, symbol) table, lists its operands in children(),
    and max_var walks those.  Folded constants stay Python floats, whose
    repr is the printed text."""
    for text, printed in _PRINTED:
        e = parse_scalar(text, 3)
        assert str(e) == printed and str(parse_scalar(printed, 3)) == printed
        for d in (e, e.diff(0), e.diff(2)):
            for n in _nodes(d.node):
                if isinstance(n, expr.Const):
                    assert type(n.value) is float
                elif isinstance(n, expr.Pow):
                    assert type(n.expo) is float
    node = parse_scalar("x1 - x3/(x2 + 1)", 3).node
    Bin, Var = expr.Bin, expr.Var
    assert node == Bin("-", Var(0), Bin("/", Var(2), Bin("+", Var(1), expr.Const(1.0))))
    assert node.children() == (Var(0), node.b) and node.max_var() == 2
    assert parse_scalar("exp(2)", 2).node.max_var() == -1
    # a long sum is a deep tree; max_var takes one frame per level
    total = parse_scalar("+".join(["x2"] * 700), 2)
    assert total.node.max_var() == 1 and total([0.0, 0.5]) == 350.0


def test_constant_division_by_zero_is_non_finite():
    """1/0 evaluates by np.divide to inf, which a checked call reports as
    EvalError; Python float division raised ZeroDivisionError."""
    e = parse_scalar("x1 + 1/0", 1)
    assert str(e) == "x1 + 1.0/0.0"
    with pytest.raises(EvalError):
        e([0.5])
    assert np.all(np.isposinf(e(np.zeros((3, 1)), check_finite=False)))


@pytest.mark.parametrize("text", [
    "0^-1",  # ZeroDivisionError from Python's float power
    "2^2000",  # OverflowError
    "(-8)^0.5", "(-1)^(1/3)",  # complex constants, which did not print
    "1e308*10", "-1e308-1e308", "1e308/1e-10",  # inf
    "1e999*x1",  # a literal beyond the float range
])
def test_constant_folds_stay_finite_reals(text):
    with pytest.raises(ParseError):
        parse_scalar(text, 1)


@pytest.mark.parametrize("text, printed, want", [
    ("x1/1e200", "1e-200", lambda x: np.full_like(x, 1e-200)),  # b*b overflowed
    ("x1^2/3", "2.0*x1/3.0", lambda x: 2.0 * x / 3.0),
    ("sin(x1)/(-7)", None, lambda x: -np.cos(x) / 7.0),
    ("x1/(1+x1)", None, lambda x: 1.0 / (1.0 + x) ** 2),  # the quotient rule
], ids=["by-1e200", "square-by-3", "sin-by-minus-7", "by-1+x1"])
def test_quotient_by_a_constant_differentiates_as_a_prime_over_b(text, printed,
                                                                want):
    """(a/b)' is a'/b for a constant b; the quotient rule folded b*b, so a
    denominator above about 1e154 raised ParseError."""
    d = parse_scalar(text, 1).diff(0)
    if printed is not None:
        assert str(d) == printed
    x = np.linspace(-0.9, 2.0, 7)
    assert np.allclose(d(x[:, None]), want(x), rtol=1e-14, atol=0.0)
