"""Expression ASTs for scalar and vector fields on R^n.

The grammar is deliberately small: variables ``x1..xn``, the arithmetic
operators ``+ - * / ^``, the functions ``exp sin cos`` and decimal
literals.  Exponents must fold to constants so that symbolic
differentiation is total.  Evaluation is vectorized over trailing point
batches and is pure, so expressions are safe to share across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partialmethod

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
    """``ev(X)`` evaluates a node on points, ``diff(i)`` is its derivative
    in x(i+1) and ``children()`` lists its operands."""

    __slots__ = ()

    def children(self):
        return ()

    def max_var(self):
        top = -1  # a loop, not a generator, keeps one frame per tree level
        for c in self.children():
            top = max(top, c.max_var())
        return top


@dataclass(frozen=True, slots=True)
class Const(Node):
    value: float

    def __post_init__(self):  # a literal or fold: 1e999, 1e308*10, (-8)^0.5
        if not (isinstance(self.value, float) and math.isfinite(self.value)):
            raise ParseError(f"constant {self.value!r} is not a finite real")

    def ev(self, X):
        return self.value  # numpy broadcasts; ScalarExpr fills the shape

    def diff(self, i):
        return Const(0.0)


@dataclass(frozen=True, slots=True)
class Var(Node):
    index: int  # zero-based

    def ev(self, X):
        return X[..., self.index]

    def diff(self, i):
        return Const(1.0 if i == self.index else 0.0)

    def max_var(self):
        return self.index


_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


@dataclass(frozen=True, slots=True)
class Bin(Node):
    op: str  # one of _UFUNCS
    a: Node
    b: Node

    def ev(self, X):
        if self.op != "/":
            return _UFUNCS[self.op](self.a.ev(X), self.b.ev(X))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(self.a.ev(X), self.b.ev(X))

    def diff(self, i):
        a, b, da, db = self.a, self.b, self.a.diff(i), self.b.diff(i)
        if self.op in ("+", "-"):
            return _BUILD[self.op](da, db)
        if self.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if isinstance(b, Const):  # b*b could overflow: (a/b)' = a'/b
            return _div(da, b)
        return _div(_sub(_mul(da, b), _mul(a, db)), _mul(b, b))

    def children(self):
        return (self.a, self.b)


@dataclass(frozen=True, slots=True)
class Neg(Node):
    a: Node

    def ev(self, X):
        return -self.a.ev(X)

    def diff(self, i):
        return _neg(self.a.diff(i))

    def children(self):
        return (self.a,)


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

    def children(self):
        return (self.base,)


_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}
_DERIVS = {"exp": "exp", "sin": "cos", "cos": "sin"}  # up to sign: cos' = -sin


@dataclass(frozen=True, slots=True)
class Call(Node):
    fn: str
    arg: Node

    def ev(self, X):
        return _FUNCS[self.fn](self.arg.ev(X))

    def diff(self, i):
        d = _mul(Call(_DERIVS[self.fn], self.arg), self.arg.diff(i))
        return _neg(d) if self.fn == "cos" else d

    def children(self):
        return (self.arg,)


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
    return Bin("+", a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Bin("-", a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Bin("*", a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    return Bin("/", a, b)


_BUILD = {"+": _add, "-": _sub, "*": _mul, "/": _div}


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
        try:
            return Const(base.value**expo)
        except (ZeroDivisionError, OverflowError) as exc:  # 0^-1, 2^2000
            raise ParseError(f"({base.value!r})^({expo!r}) does not fold") from exc
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
        kind = m.lastgroup
        out.append((kind, float(m.group(kind)) if kind == "num" else m.group(kind)))
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
        return self._level(self.parse_term, ("+", "-"))

    def parse_term(self):
        return self._level(self.parse_unary, ("*", "/"))

    def _level(self, operand, ops):
        """``operand (op operand)*``, left-associative, for ``op`` in ``ops``."""
        node = operand()
        # kind first: num and end tokens carry a float or None
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            node = _BUILD[self.take()[1]](node, operand())
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

_BIN_FMT = {"+": (1, " + "), "-": (1, " - "), "*": (2, "*"), "/": (2, "/")}


def _to_str(n, parent_prec=0):
    if isinstance(n, Const):  # values and exponents are Python floats
        s = repr(n.value)
        return s if n.value >= 0 else "(" + s + ")"
    if isinstance(n, Var):
        return f"x{n.index + 1}"
    if isinstance(n, Call):
        return f"{n.fn}({_to_str(n.arg)})"
    if isinstance(n, Bin):  # left operand binds at prec, right one level tighter
        prec, sym = _BIN_FMT[n.op]
        s = f"{_to_str(n.a, prec)}{sym}{_to_str(n.b, prec + 1)}"
    elif isinstance(n, Neg):
        prec, s = 3, f"-{_to_str(n.a, 3)}"
    else:  # Pow
        e = repr(n.expo)
        prec, s = 4, f"{_to_str(n.base, 5)}^{e if n.expo >= 0 else '(' + e + ')'}"
    return "(" + s + ")" if prec < parent_prec else s


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
        top = node.max_var()
        if top >= dim:
            raise DimensionMismatch(f"expression uses x{top + 1} but dim is {dim}")
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
    def _bin(self, op, other):
        if isinstance(other, ScalarExpr):
            if other.dim != self.dim:
                raise DimensionMismatch("mixing expressions of different dims")
            other = other.node
        else:
            other = Const(float(other))
        return ScalarExpr(_BUILD[op](self.node, other), self.dim)

    __add__ = partialmethod(_bin, "+")
    __sub__ = partialmethod(_bin, "-")
    __mul__ = __rmul__ = partialmethod(_bin, "*")

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
    return VectorFieldExpr([ScalarExpr(c, dim) for c in comps], dim)


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
