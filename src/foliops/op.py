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
"""

from __future__ import annotations

import io
import numpy as np

from .errors import (
    DomainEscape,
    InsufficientLeafSampling,
    NotTransverse,
    QuadratureFailure,
    SideMismatch,
)
from .expr import ScalarExpr
from .kernel import (
    ConvolvedAtom,
    DensityAtom,
    FibredKernel,
    Integrand,
    PairingCtx,
    QuadratureConfig,
    TransposedAtom,
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
        with np.errstate(invalid="ignore"):
            inside = np.all((p >= lo) & (p <= hi), axis=1)
        live = inside & ~bad
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
            buf.write(("nan" if not np.isfinite(v) else repr(float(v))) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0]
        if not header.startswith("# box="):
            raise ValueError("missing grid header")
        meta = header[2:]
        box_part, res_part = meta.split(";")
        import json as _json

        box = np.asarray(_json.loads(box_part.split("=", 1)[1]), float)
        res = tuple(_json.loads(res_part.split("=", 1)[1]))
        vals = np.array([float(ln) for ln in lines[1:]]).reshape(res)
        return cls(box, vals)


def grid_points(box, res):
    """Row-major grid nodes of a box at the given per-axis resolution."""
    box = np.atleast_2d(np.asarray(box, float))
    axes = [np.linspace(b[0], b[1], int(r)) for b, r in zip(box, res)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel(order="C") for m in mesh], axis=1)


def _wrap_f(f):
    """Uniform NaN-safe point evaluator for expressions, grids, callables."""
    if isinstance(f, ScalarExpr):
        return lambda pts: f(pts, check_finite=False)
    if isinstance(f, GridFunction):
        return f

    def safe(pts):
        pts = np.atleast_2d(pts)
        out = np.full(len(pts), np.nan)
        good = np.all(np.isfinite(pts), axis=1)
        if np.any(good):
            out[good] = np.asarray(f(pts[good]), float)
        return out

    return safe


def op_values(kernel: FibredKernel, f, points, ctx=None):
    """Op(a)f at arbitrary points; NaN marks escaped (masked) points."""
    if kernel.side != "r":
        raise SideMismatch("Op acts on range-fibred kernels")
    ctx = ctx or PairingCtx()
    points = np.atleast_2d(np.asarray(points, float))
    f_fn = _wrap_f(f)
    total = np.zeros(len(points))
    for atom in kernel.atoms:
        host = atom.host

        def sources(params, rows, host=host):
            return host.s(params, ctx.flow, allow_escape=True)

        def gather(params, rows, geom):
            spts, ok = geom
            vals = np.where(ok, f_fn(spts), np.nan)
            if ctx.diag is not None:
                ctx.diag.append((points[rows], spts))
            return vals

        phi = Integrand(sources, gather, ("op", host.key()))
        total = total + atom.pair("r", points, phi, ctx)
    return total


def _on_grid(values_at, out_box, out_res, strict):
    """Grid of ``values_at(points)``: non-finite points raise DomainEscape
    under ``strict``, and infinite values raise QuadratureFailure."""
    out_box = np.atleast_2d(np.asarray(out_box, float))
    vals = values_at(grid_points(out_box, out_res))
    if strict and not np.all(np.isfinite(vals)):
        raise DomainEscape(
            f"{int(np.sum(~np.isfinite(vals)))} output points escaped"
        )
    if np.any(np.isinf(vals)):
        raise QuadratureFailure("quadrature produced infinite values")
    return GridFunction(out_box, vals.reshape(tuple(out_res)))


def apply_op(kernel, f, out_box, out_res, ctx=None, strict=False):
    """Evaluate Op(a)f on a regular grid.

    Masked points (fibre chart escaped the integration domain) are NaN in
    the result; with ``strict`` they raise DomainEscape instead.
    """
    ctx = ctx or PairingCtx()
    return _on_grid(lambda pts: op_values(kernel, f, pts, ctx), out_box, out_res,
                    strict)


# ---------------------------------------------------------------------------
# Adjoint action on density-sampled generalized functions


def _adjoint_atom(atom, k_fn, ys, ctx):
    """Density of adjoint(atom)(k mu) at ys as a Jacobian-weighted pairing.

    A transposed range density a^t pairs a over source fibres against
    |det J| * k(r(p)); a native source density pairs over range fibres
    against k(s(p)) / |det J|.  Transposed lazy convolutions are rewritten
    as (a*b)^t = b^t * a^t and nest one adjoint inside the other.
    """
    if isinstance(atom, TransposedAtom) and isinstance(atom.inner, ConvolvedAtom):
        # Pairing the composite directly would recompute the right factor's
        # Jacobian on every inner row.
        atom = ConvolvedAtom(atom.inner.right.transposed(),
                             atom.inner.left.transposed())
    if isinstance(atom, ConvolvedAtom):
        def g(zs):
            return _adjoint_atom(atom.right, k_fn, zs, ctx.deeper())

        return _adjoint_atom(atom.left, g, ys, ctx)
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
        total = total + _adjoint_atom(atom, k_fn, ys, ctx)
    if mu_weight is not None:
        total = total / w_fn(ys)
    return total


def apply_adjoint(kernel, k, out_box, out_res, ctx=None, mu_weight=None,
                  strict=False):
    """Adjoint action on a density-sampled generalized function, gridded;
    masking, ``strict`` and infinite values are handled as in apply_op."""
    ctx = ctx or PairingCtx()
    return _on_grid(
        lambda pts: adjoint_values(kernel, k, pts, ctx, mu_weight=mu_weight),
        out_box, out_res, strict,
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
    ctx = ctx or PairingCtx()
    f_values = np.asarray(f_values, float)
    if len(f_values) != len(leaf.points):
        raise InsufficientLeafSampling("one value per leaf sample is required")
    slack = leaf.mesh * (1.0 + 1e-6) + 1e-9

    def f_fn(pts):
        pts = np.atleast_2d(pts)
        out = np.full(len(pts), np.nan)
        good = np.all(np.isfinite(pts), axis=1)
        if np.any(good):
            idx, dist = leaf.nearest(pts[good])
            if np.any(dist > slack):
                worst = float(np.max(dist))
                raise InsufficientLeafSampling(
                    f"fibre point {worst:.3e} away from the nearest sample "
                    f"(mesh {leaf.mesh:.3e})"
                )
            out[good] = f_values[idx]
        return out

    return op_values(kernel, f_fn, leaf.points, ctx)


# ---------------------------------------------------------------------------
# Support propagation


def support_bound(kernel: FibredKernel, f_support, ctx=None):
    """Conservative box containing supp(Op(a)f) for f supported in f_support."""
    ctx = ctx or PairingCtx()
    if f_support is None:
        return None
    f_support = np.atleast_2d(np.asarray(f_support, float))
    from .kernel import _union_boxes

    boxes = [
        atom.bound_image("r", kernel.side, f_support, ctx)
        for atom in kernel.atoms
    ]
    return _union_boxes(boxes)
