"""Operator representations: Op on functions, the adjoint action on
density-sampled generalized functions, and the leafwise action.

Op(a)f pairs each range-fibred atom against the pullback of f through
the source map, pointwise over an output grid.  Grid points whose fibre
charts escape the integration domain come back as NaN (masked) unless
strict mode is requested.  The adjoint action realizes
(adjoint(b) omega, f) = (omega, Op(b^t) f) as the same fibre pairing
with a test function weighted by the flow Jacobian, so it is only
defined for smooth densities on hosts laid out as (fibre, base).  As for
Op, a point is masked only where an escaped chart meets a nonzero
density.
Both pair through an ``Integrand``: a reused plan keeps the points where
f or k is read, |det J| and the ok mask, and evaluates only f or k.
Both act on lazy convolutions factor by factor, in one recursion
(``_act``): a*b acts as a after b, one nesting level down, and (a*b)^t
as b^t * a^t.
"""

from __future__ import annotations

import io
import json
import numpy as np

from .errors import (
    ConfigError,
    DomainEscape,
    InsufficientLeafSampling,
    NotTransverse,
    QuadratureFailure,
    SideMismatch,
)
from .expr import ScalarExpr
from .flow import _checked_box, _in_box, _number, _numbers
from .kernel import (
    ConvolvedAtom,
    DensityAtom,
    FibredKernel,
    Integrand,
    PairingCtx,
    QuadratureConfig,
    TransposedAtom,
    _union_boxes,
)

__all__ = [
    "GridFunction",
    "QuadratureConfig",
    "PairingCtx",
    "apply_op",
    "op_values",
    "apply_adjoint",
    "adjoint_values",
    "apply_on_leaf",
    "support_bound",
]


class GridFunction:
    """Scalar samples on a regular grid over a box; zero outside.

    Values are stored row-major (first axis slowest).  Evaluation
    between grid nodes is multilinear; NaN inputs stay NaN.
    """

    def __init__(self, box, values):
        self.box = np.atleast_2d(np.asarray(box, float))
        self.values = np.asarray(values, float)
        if self.values.ndim != len(self.box):
            raise ValueError("value array rank must match box dimension")
        if any(r < 2 for r in self.values.shape):
            raise ValueError("resolution must be >= 2 per axis")
        self.res = self.values.shape

    @classmethod
    def from_fn(cls, fn, box, res):
        box = np.atleast_2d(np.asarray(box, float))
        pts = grid_points(box, res)
        vals = np.asarray(fn(pts), float).reshape(tuple(res))
        return cls(box, vals)

    def points(self):
        return grid_points(self.box, self.res)

    def __call__(self, pts):
        p = np.atleast_2d(np.asarray(pts, float))
        n = len(self.box)
        out = np.zeros(len(p))
        bad = ~np.all(np.isfinite(p), axis=1)
        lo, hi = self.box[:, 0], self.box[:, 1]
        live = _in_box(p, self.box) & ~bad
        if np.any(live):
            q = p[live]
            t = np.empty_like(q)
            idx = np.empty(q.shape, dtype=int)
            for j in range(n):
                steps = self.res[j] - 1
                u = (q[:, j] - lo[j]) / (hi[j] - lo[j]) * steps
                cell = np.clip(np.floor(u).astype(int), 0, steps - 1)
                idx[:, j] = cell
                t[:, j] = u - cell
            acc = np.zeros(len(q))
            for corner in range(2**n):
                w = np.ones(len(q))
                ix = []
                for j in range(n):
                    bit = (corner >> j) & 1
                    w = w * (t[:, j] if bit else 1.0 - t[:, j])
                    ix.append(idx[:, j] + bit)
                acc += w * self.values[tuple(ix)]
            out[live] = acc
        out[bad] = np.nan
        return out

    def masked_count(self):
        return int(np.sum(~np.isfinite(self.values)))

    def to_csv(self):
        buf = io.StringIO()
        box = "[" + ",".join(
            f"[{float(b[0])!r},{float(b[1])!r}]" for b in self.box
        ) + "]"
        res = "[" + ",".join(str(r) for r in self.res) + "]"
        buf.write(f"# box={box};res={res}\n")
        for v in self.values.ravel(order="C"):
            buf.write(_fmt(v) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0]
        if not header.startswith("# box="):
            raise ValueError("missing grid header")
        meta = header[2:]
        box_part, res_part = meta.split(";")
        box = np.asarray(json.loads(box_part.split("=", 1)[1]), float)
        res = tuple(json.loads(res_part.split("=", 1)[1]))
        vals = np.array([float(ln) for ln in lines[1:]]).reshape(res)
        return cls(box, vals)


def _fmt(v):
    """Shortest round-trip text of a number; "nan" for a non-finite one."""
    return "nan" if not np.isfinite(v) else repr(float(v))


def grid_points(box, res):
    """Row-major grid nodes of a box at the given per-axis resolution."""
    box = np.atleast_2d(np.asarray(box, float))
    axes = [np.linspace(b[0], b[1], int(r)) for b, r in zip(box, res)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel(order="C") for m in mesh], axis=1)


def _wrap_f(f):
    """Uniform NaN-safe point evaluator for expressions, grids, callables;
    a callable gets only finite rows, read-only (the rows themselves when
    all are finite), and never an empty batch."""
    if isinstance(f, ScalarExpr):
        return lambda pts: f(pts, check_finite=False)
    if isinstance(f, GridFunction):
        return f

    def safe(pts):
        pts = np.atleast_2d(pts)
        good = np.isfinite(pts[:, 0])
        for k in range(1, pts.shape[1]):  # whole columns: see flow._outside
            good &= np.isfinite(pts[:, k])
        out = np.full(len(pts), np.nan)
        if good.any():
            rows = pts.view() if good.all() else pts[good]
            rows.setflags(write=False)
            out[good] = np.asarray(f(rows), float)
        return out

    return safe


def _factors(atom):
    """(left, right) of a lazy convolution, (b^t, a^t) of a transposed lazy
    convolution (a*b)^t, else None."""
    if isinstance(atom, ConvolvedAtom):
        return atom.left, atom.right
    if isinstance(atom, TransposedAtom) and isinstance(atom.inner, ConvolvedAtom):
        return atom.inner.right.transposed(), atom.inner.left.transposed()
    return None


def _act(act_one, atom, fn, pts, ctx):
    """``act_one(atom, fn, pts, ctx)``, with a lazy left*right acting as left
    after right: left is paired one level down, in this context's store,
    against right's action on the points its geometry reads."""
    factors = _factors(atom)
    if factors is None:
        return act_one(atom, fn, pts, ctx)
    left, right = factors
    inner_ctx = ctx.nested_in(left, "r", pts)

    def inner(zs):
        return _act(act_one, right, fn, zs, inner_ctx)

    return _act(act_one, left, inner, pts, ctx.deeper(keep_plans=True))


def _op_atom(atom, f_fn, pts, ctx):
    """Op(atom)f at pts: a pairing over range fibres against f o s."""
    host, flow = atom.host, ctx.flow

    def geometry(params, rows):
        return host.s(params, flow, allow_escape=True)

    def gather(params, rows, geom):
        spts, ok = geom
        return np.where(ok, f_fn(spts), np.nan)

    phi = Integrand(geometry, gather, ("op", host.key()))
    return atom.pair("r", pts, phi, ctx)


def op_values(kernel: FibredKernel, f, points, ctx=None):
    """Op(a)f at arbitrary points; NaN marks escaped (masked) points."""
    if kernel.side != "r":
        raise SideMismatch("Op acts on range-fibred kernels")
    ctx = ctx or PairingCtx()
    points = np.atleast_2d(np.asarray(points, float))
    f_fn = _wrap_f(f)
    total = np.zeros(len(points))
    for atom in kernel.atoms:
        total = total + _act(_op_atom, atom, f_fn, points, ctx)
    return total


def _kernel_box(kernel, box, what):
    """``box`` past the box rule on the kernel's foliation (on the box's own
    axes for a kernel without one, the bare zero kernel)."""
    F = kernel.foliation
    dim = F.dim if F is not None else len(np.atleast_2d(_numbers(box, f"{what} bound")))
    return _checked_box(box, dim, what)


def _checked_grid(kernel, out_box, out_res):
    """``(out_box, out_res)`` past the box and number rules: a box on the
    kernel's foliation and an integral count of at least 2 per axis."""
    box = _kernel_box(kernel, out_box, "out_box")
    if isinstance(out_res, np.ndarray):
        out_res = out_res.tolist()
    if not isinstance(out_res, (list, tuple)) or len(out_res) != len(box):
        raise ConfigError(f"out_res {out_res!r} needs one count per axis, "
                          f"{len(box)} in all")
    res = tuple(_number(r.item() if isinstance(r, np.generic) else r,
                        "out_res entry", integer=True) for r in out_res)
    if min(res) < 2:
        raise ConfigError(f"out_res {list(res)} needs at least 2 points per axis")
    return box, res


def _on_grid(values_at, out_box, out_res, strict):
    """Grid of ``values_at(points)`` on a checked box and resolution
    (``_checked_grid``): infinite values raise QuadratureFailure, and then
    masked (NaN) points raise DomainEscape under ``strict``."""
    vals = values_at(grid_points(out_box, out_res))
    if np.any(np.isinf(vals)):
        raise QuadratureFailure("quadrature produced infinite values")
    if strict and np.any(np.isnan(vals)):
        raise DomainEscape(f"{int(np.sum(np.isnan(vals)))} output points escaped")
    return GridFunction(out_box, vals.reshape(tuple(out_res)))


def apply_op(kernel, f, out_box, out_res, ctx=None, strict=False):
    """Evaluate Op(a)f on a regular grid.

    Masked points (fibre chart escaped the integration domain) are NaN in
    the result; with ``strict`` they raise DomainEscape instead.
    """
    return _on_grid(lambda pts: op_values(kernel, f, pts, ctx),
                    *_checked_grid(kernel, out_box, out_res), strict)


# ---------------------------------------------------------------------------
# Adjoint action on density-sampled generalized functions


def _adjoint_atom(atom, k_fn, ys, ctx):
    """Density of adjoint(atom)(k mu) at ys as a Jacobian-weighted pairing.

    A transposed range density a^t pairs a over source fibres against
    |det J| * k(r(p)); a native source density pairs over range fibres
    against k(s(p)) / |det J|.
    """
    side, dens = ("s", atom.inner) if isinstance(atom, TransposedAtom) \
        else ("r", atom)
    if not isinstance(dens, DensityAtom):
        raise NotTransverse(
            f"adjoint action undefined for {type(dens).__name__}; only smooth "
            "densities are transverse on positive-dimensional fibres"
        )
    host = dens.host
    if not host.fibred_layout:
        raise NotTransverse(f"adjoint action undefined on host {host.describe()}")
    m = host.fibre_dim

    def geometry(params, rows):
        # One flow gives r(p) and |det J|; on this layout s(p) is the base.
        rpts, jac, ok = host.chart_jac_det(params[:, :m], params[:, m:], ctx.flow)
        return (rpts if side == "s" else params[:, m:]), jac, ok

    def gather(params, rows, geom):
        pts, jac, ok = geom
        with np.errstate(divide="ignore"):
            vals = jac * k_fn(pts) if side == "s" else k_fn(pts) / jac
        return np.where(ok, vals, np.nan)

    phi = Integrand(geometry, gather, ("adjoint", side, host.key()))
    return dens.pair(side, ys, phi, ctx)


def adjoint_values(kernel: FibredKernel, k, ys, ctx=None, mu_weight=None):
    """Density of adjoint(b)(k mu) against mu, at the points ys.

    With ``mu_weight`` w the reference density is mu = w * Lebesgue;
    the input samples are then weighted by w and the output divided by
    it, so smooth k give the same answer for any admissible w.
    """
    if kernel.side != "s":
        raise SideMismatch("the adjoint action expects a source-fibred kernel")
    ctx = ctx or PairingCtx()
    ys = np.atleast_2d(np.asarray(ys, float))
    k_fn = _wrap_f(k)
    if mu_weight is not None:
        w_fn = _wrap_f(mu_weight)
        base_fn = k_fn
        k_fn = lambda pts: base_fn(pts) * w_fn(pts)
    total = np.zeros(len(ys))
    for atom in kernel.atoms:
        total = total + _act(_adjoint_atom, atom, k_fn, ys, ctx)
    if mu_weight is not None:
        total = total / w_fn(ys)
    return total


def apply_adjoint(kernel, k, out_box, out_res, ctx=None, mu_weight=None,
                  strict=False):
    """Adjoint action on a density-sampled generalized function, gridded;
    masking, ``strict`` and infinite values are handled as in apply_op."""
    return _on_grid(
        lambda pts: adjoint_values(kernel, k, pts, ctx, mu_weight=mu_weight),
        *_checked_grid(kernel, out_box, out_res), strict,
    )


# ---------------------------------------------------------------------------
# Leafwise action


def apply_on_leaf(kernel: FibredKernel, leaf, f_values, ctx=None):
    """Op along one sampled leaf, with f known only at the leaf samples.

    Fibre evaluation points are matched to their nearest leaf sample
    (order-0 interpolation); a point farther than the leaf mesh from
    every sample raises InsufficientLeafSampling.
    """
    if kernel.side != "r":
        raise SideMismatch("the leafwise action expects a range-fibred kernel")
    f_values = np.asarray(f_values, float)
    if len(f_values) != len(leaf.points):
        raise InsufficientLeafSampling("one value per leaf sample is required")
    slack = leaf.mesh * (1.0 + 1e-6) + 1e-9

    def f_fn(pts):  # op_values passes finite points only (_wrap_f)
        idx, dist = leaf.nearest(pts)
        if np.any(dist > slack):
            worst = float(np.max(dist))
            raise InsufficientLeafSampling(
                f"fibre point {worst:.3e} away from the nearest sample "
                f"(mesh {leaf.mesh:.3e})"
            )
        return f_values[idx]

    return op_values(kernel, f_fn, leaf.points, ctx)


# ---------------------------------------------------------------------------
# Support propagation


def support_bound(kernel: FibredKernel, f_support, ctx=None):
    """Sampled box of supp(Op(a)f) for f supported in f_support: the
    union of the atoms' r images over the rows whose s image lies in
    f_support (``Atom.image``), padded but not proven to cover."""
    if kernel.side != "r":
        raise SideMismatch("support propagation acts on range-fibred kernels")
    ctx = ctx or PairingCtx()
    if f_support is None:
        return None
    f_support = _kernel_box(kernel, f_support, "f_support")
    return _union_boxes([atom.image("r", "r", ctx, f_support)
                         for atom in kernel.atoms])
