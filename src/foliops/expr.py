"""Expression ASTs for scalar and vector fields on R^n.

The grammar is deliberately small: variables ``x1..xn``, the arithmetic
operators ``+ - * / ^``, the functions ``exp sin cos`` and decimal
literals.  Exponents must fold to constants so that symbolic
differentiation is total.  Evaluation is vectorized over trailing point
batches and is pure, so expressions are safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EvalError, ParseError

__all__ = [
    "ScalarExpr",
    "VectorFieldExpr",
    "parse_scalar",
    "parse_field",
    "jacobian",
    "lie_bracket",
]


# ---------------------------------------------------------------------------
# AST nodes


class Node:
    __slots__ = ()

    def ev(self, X):
        raise NotImplementedError

    def diff(self, i):
        raise NotImplementedError

    def max_var(self):
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Const(Node):
    value: float

    def ev(self, X):
        return self.value  # numpy broadcasts; ScalarExpr fills the shape

    def diff(self, i):
        return Const(0.0)

    def max_var(self):
        return -1


@dataclass(frozen=True, slots=True)
class Var(Node):
    index: int  # zero-based

    def ev(self, X):
        return X[..., self.index]

    def diff(self, i):
        return Const(1.0 if i == self.index else 0.0)

    def max_var(self):
        return self.index


@dataclass(frozen=True, slots=True)
class Add(Node):
    a: Node
    b: Node

    def ev(self, X):
        return self.a.ev(X) + self.b.ev(X)

    def diff(self, i):
        return _add(self.a.diff(i), self.b.diff(i))

    def max_var(self):
        return max(self.a.max_var(), self.b.max_var())


@dataclass(frozen=True, slots=True)
class Sub(Node):
    a: Node
    b: Node

    def ev(self, X):
        return self.a.ev(X) - self.b.ev(X)

    def diff(self, i):
        return _sub(self.a.diff(i), self.b.diff(i))

    def max_var(self):
        return max(self.a.max_var(), self.b.max_var())


@dataclass(frozen=True, slots=True)
class Mul(Node):
    a: Node
    b: Node

    def ev(self, X):
        return self.a.ev(X) * self.b.ev(X)

    def diff(self, i):
        return _add(_mul(self.a.diff(i), self.b), _mul(self.a, self.b.diff(i)))

    def max_var(self):
        return max(self.a.max_var(), self.b.max_var())


@dataclass(frozen=True, slots=True)
class Div(Node):
    a: Node
    b: Node

    def ev(self, X):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.a.ev(X) / self.b.ev(X)

    def diff(self, i):
        num = _sub(_mul(self.a.diff(i), self.b), _mul(self.a, self.b.diff(i)))
        return _div(num, _mul(self.b, self.b))

    def max_var(self):
        return max(self.a.max_var(), self.b.max_var())


@dataclass(frozen=True, slots=True)
class Neg(Node):
    a: Node

    def ev(self, X):
        return -self.a.ev(X)

    def diff(self, i):
        return _neg(self.a.diff(i))

    def max_var(self):
        return self.a.max_var()


@dataclass(frozen=True, slots=True)
class Pow(Node):
    base: Node
    expo: float  # exponents fold to constants at parse time

    def ev(self, X):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.base.ev(X) ** self.expo

    def diff(self, i):
        # d(u^c) = c * u^(c-1) * u'
        return _mul(
            _mul(Const(self.expo), _pow(self.base, self.expo - 1.0)),
            self.base.diff(i),
        )

    def max_var(self):
        return self.base.max_var()


_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}


@dataclass(frozen=True, slots=True)
class Call(Node):
    fn: str
    arg: Node

    def ev(self, X):
        return _FUNCS[self.fn](self.arg.ev(X))

    def diff(self, i):
        du = self.arg.diff(i)
        if self.fn == "exp":
            return _mul(Call("exp", self.arg), du)
        if self.fn == "sin":
            return _mul(Call("cos", self.arg), du)
        return _neg(_mul(Call("sin", self.arg), du))

    def max_var(self):
        return self.arg.max_var()


# ---------------------------------------------------------------------------
# Smart constructors: fold constants and drop algebraic identities so that
# derivative trees stay small.  No user-facing simplification beyond this.


def _is_const(n, v=None):
    return isinstance(n, Const) and (v is None or n.value == v)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def _pow(base, expo):
    if expo == 0.0:
        return Const(1.0)
    if expo == 1.0:
        return base
    if _is_const(base):
        return Const(base.value**expo)
    return Pow(base, expo)


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^(),\[\]]))"
)


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"unexpected character at position {pos}: {text[pos:]!r}")
        if m.lastgroup == "num":
            out.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, dim):
        self.toks = tokens
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val!r}")

    def parse_expr(self):
        node = self.parse_term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.parse_term()
            node = _add(node, rhs) if op == "+" else _sub(node, rhs)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.parse_unary()
            node = _mul(node, rhs) if op == "*" else _div(node, rhs)
        return node

    def parse_unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return _neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.take()
            expo = self.parse_unary()  # right-associative, unary minus allowed
            if not isinstance(expo, Const):
                raise ParseError("exponent must fold to a constant")
            return _pow(base, expo.value)
        return base

    def parse_atom(self):
        kind, val = self.take()
        if kind == "num":
            return Const(val)
        if kind == "name":
            if val in _FUNCS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Call(val, arg)
            m = re.fullmatch(r"x(\d+)", val)
            if not m:
                raise ParseError(f"unknown identifier {val!r}")
            idx = int(m.group(1))
            if idx < 1 or idx > self.dim:
                raise ParseError(f"variable {val!r} out of range for dim {self.dim}")
            return Var(idx - 1)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {val!r}")


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through the parser)

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Call: 5, Const: 5, Var: 5}


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e16:
        return repr(float(v))
    return repr(v)


def _to_str(n, parent_prec=0):
    prec = _PREC[type(n)]
    if isinstance(n, Const):
        s = _fmt_num(n.value) if n.value >= 0 else "(" + _fmt_num(n.value) + ")"
        return s
    elif isinstance(n, Var):
        s = f"x{n.index + 1}"
    elif isinstance(n, Add):
        s = f"{_to_str(n.a, 1)} + {_to_str(n.b, 2)}"
    elif isinstance(n, Sub):
        s = f"{_to_str(n.a, 1)} - {_to_str(n.b, 2)}"
    elif isinstance(n, Mul):
        s = f"{_to_str(n.a, 2)}*{_to_str(n.b, 3)}"
    elif isinstance(n, Div):
        s = f"{_to_str(n.a, 2)}/{_to_str(n.b, 3)}"
    elif isinstance(n, Neg):
        s = f"-{_to_str(n.a, 3)}"
    elif isinstance(n, Pow):
        e = _fmt_num(n.expo)
        s = f"{_to_str(n.base, 5)}^{e if n.expo >= 0 else '(' + e + ')'}"
    else:
        return f"{n.fn}({_to_str(n.arg, 0)})"
    if prec < parent_prec:
        return "(" + s + ")"
    return s


# ---------------------------------------------------------------------------
# Public wrappers


def _batch(points):
    """``points`` as a float batch ``(..., dim)``, and whether it was one point."""
    X = np.asarray(points, dtype=float)
    return (X[None, :], True) if X.ndim == 1 else (X, False)


class ScalarExpr:
    """A smooth scalar function of ``dim`` variables, given by an AST.

    Instances are immutable; calling one evaluates the AST with numpy,
    accepting a single point or any batch shaped ``(..., dim)``.
    """

    __slots__ = ("node", "dim")

    def __init__(self, node: Node, dim: int):
        if dim < 1:
            raise DimensionMismatch(f"dim must be positive, got {dim}")
        if node.max_var() >= dim:
            raise DimensionMismatch(
                f"expression uses x{node.max_var() + 1} but dim is {dim}"
            )
        self.node = node
        self.dim = dim

    def __call__(self, points, check_finite=True):
        X, single = _batch(points)
        if X.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"points have dimension {X.shape[-1]}, expression has {self.dim}"
            )
        vals = np.asarray(self.node.ev(X), dtype=float)
        if vals.ndim == 0:  # a constant
            vals = np.full(X.shape[:-1], vals)
        elif np.may_share_memory(vals, X):  # a bare variable is a view of X
            vals = vals.copy()
        if check_finite and not np.all(np.isfinite(vals)):
            raise EvalError(f"non-finite value evaluating {self}")
        return float(vals[0]) if single else vals

    def diff(self, i: int) -> "ScalarExpr":
        """Partial derivative with respect to ``x(i+1)``, symbolically."""
        if not 0 <= i < self.dim:
            raise DimensionMismatch(f"no variable index {i} in dim {self.dim}")
        return ScalarExpr(self.node.diff(i), self.dim)

    def __str__(self):
        return _to_str(self.node)

    def __repr__(self):
        return f"ScalarExpr({str(self)!r}, dim={self.dim})"

    # small algebra for building fixtures programmatically
    def _coerce(self, other):
        if isinstance(other, ScalarExpr):
            if other.dim != self.dim:
                raise DimensionMismatch("mixing expressions of different dims")
            return other.node
        return Const(float(other))

    def __add__(self, other):
        return ScalarExpr(_add(self.node, self._coerce(other)), self.dim)

    def __sub__(self, other):
        return ScalarExpr(_sub(self.node, self._coerce(other)), self.dim)

    def __mul__(self, other):
        return ScalarExpr(_mul(self.node, self._coerce(other)), self.dim)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarExpr(_neg(self.node), self.dim)


class VectorFieldExpr:
    """A vector field on R^dim with one ScalarExpr per component."""

    __slots__ = ("dim", "components", "_jac_nodes")

    def __init__(self, components, dim=None):
        components = list(components)
        if not components:
            raise DimensionMismatch("a field needs at least one component")
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise DimensionMismatch("components declared over different dims")
        (cdim,) = dims
        if dim is not None and dim != len(components):
            raise DimensionMismatch(
                f"field has {len(components)} components, expected {dim}"
            )
        if cdim != len(components):
            raise DimensionMismatch(
                f"{len(components)} components over dim {cdim}; a field must be square"
            )
        self.dim = len(components)
        self.components = tuple(components)
        self._jac_nodes = None

    def __call__(self, points, check_finite=True):
        X, single = _batch(points)
        vals = np.empty(X.shape[:-1] + (self.dim,))
        for i, c in enumerate(self.components):
            vals[..., i] = c(X, check_finite=check_finite)
        return vals[0] if single else vals

    def jacobian_exprs(self):
        """dim x dim matrix of ScalarExpr, entry (i,j) = d comp_i / d x_j."""
        if self._jac_nodes is None:
            self._jac_nodes = tuple(
                tuple(c.diff(j) for j in range(self.dim)) for c in self.components
            )
        return self._jac_nodes

    def jacobian_at(self, points, check_finite=True):
        X, single = _batch(points)
        J = np.empty(X.shape[:-1] + (self.dim, self.dim))
        for i, row in enumerate(self.jacobian_exprs()):
            for j, e in enumerate(row):
                J[..., i, j] = e(X, check_finite=check_finite)
        return J[0] if single else J

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.components) + "]"

    def __repr__(self):
        return f"VectorFieldExpr({str(self)!r})"


# ---------------------------------------------------------------------------
# Module operations


def parse_scalar(text: str, dim: int) -> ScalarExpr:
    """Parse one scalar expression over ``x1..x{dim}``."""
    p = _Parser(_tokenize(text), dim)
    node = p.parse_expr()
    if p.peek() != ("end", None):
        raise ParseError(f"trailing input after expression: {text!r}")
    return ScalarExpr(node, dim)


def parse_field(text: str, dim: int) -> VectorFieldExpr:
    """Parse a bracketed comma-separated field, e.g. ``"[-x2, x1]"``."""
    p = _Parser(_tokenize(text), int(dim))
    p.expect("[")
    comps = [p.parse_expr()]
    while p.peek() == ("op", ","):
        p.take()
        comps.append(p.parse_expr())
    p.expect("]")
    if p.peek() != ("end", None):
        raise ParseError(f"trailing input after field: {text!r}")
    if len(comps) != dim:
        raise DimensionMismatch(f"field has {len(comps)} components, expected {dim}")
    return VectorFieldExpr([ScalarExpr(c, dim) for c in comps])


def jacobian(X: VectorFieldExpr, p) -> np.ndarray:
    """Jacobian matrix of the field at ``p`` by symbolic differentiation."""
    return X.jacobian_at(np.asarray(p, dtype=float))


def lie_bracket(X: VectorFieldExpr, Y: VectorFieldExpr) -> VectorFieldExpr:
    """[X, Y] = DY.X - DX.Y as a new expression field."""
    if X.dim != Y.dim:
        raise DimensionMismatch(f"bracket of fields with dims {X.dim} and {Y.dim}")
    n = X.dim
    DX = X.jacobian_exprs()
    DY = Y.jacobian_exprs()
    comps = []
    for k in range(n):
        node = Const(0.0)
        for j in range(n):
            node = _add(node, _mul(DY[k][j].node, X.components[j].node))
            node = _sub(node, _mul(DX[k][j].node, Y.components[j].node))
        comps.append(ScalarExpr(node, n))
    return VectorFieldExpr(comps)
