"""The fibred-kernel algebra: atoms, convolution, transpose, pushforward.

A kernel is a finite sum of atoms fibred over the range or source map of
a bisubmersion term.  Atoms pair against test functions on the host's
parameter space, fibrewise over base points:

* Dirac atoms evaluate the test function on a bisection and multiply by
  a coefficient;
* density atoms integrate it against a smooth weight and the canonical
  fibre-chart measure d(xi) (densities are functions on the parameter
  space, so transposition leaves them untouched);
* convolved atoms nest two pairings over a composed host;
* pushed atoms pair through a morphism's parameter map.

Pairings return one value per base point, with NaN marking points whose
fibre chart escaped the integration domain; zeros outside support boxes
are exact.  A stored fibre-quadrature plan keeps what of an ``Integrand``
does not depend on the test function.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import bisubmersion as bis
from . import flow as _flow
from .errors import (
    BaseMismatch,
    ConfigError,
    HostMismatch,
    NotTransverse,
    QuadratureFailure,
    SideMismatch,
    SupportViolation,
)
from .expr import ScalarExpr

__all__ = [
    "QuadratureConfig",
    "PairingCtx",
    "Integrand",
    "FibredKernel",
    "DiracAtom",
    "DensityAtom",
    "ConvolvedAtom",
    "PushedAtom",
    "TransposedAtom",
    "SupportBox",
    "PulledKernel",
    "dirac",
    "density",
    "convolve",
    "transpose",
    "pushforward",
    "pullback_base",
    "r_to_s_convert",
    "support_of",
    "gauss_nodes",
]

_OTHER = {"r": "s", "s": "r"}


@dataclass(frozen=True)
class QuadratureConfig:
    """Tensor Gauss-Legendre orders and the nesting budget for lazy atoms."""

    order: int = 32
    order_highdim: int = 12  # per-axis order for fibre dimension >= 2
    nesting_limit: int = 6

    def __post_init__(self):
        if self.order < 2 or self.order_highdim < 2:
            raise ConfigError("quadrature order must be >= 2")

    def order_for(self, fibre_dim):
        return self.order if fibre_dim <= 1 else self.order_highdim


DEFAULT_QUAD = QuadratureConfig()


# Row budget for one quadrature batch; larger pairings are block-processed.
_BLOCK_ROWS = 600_000

# Bytes of plan arrays (geometry included) one store keeps; the least
# recently used plan goes first.  It holds the 2-D fibre plan of a 41 x 41
# grid at order 20.
_PLAN_BUDGET = 64 * 2**20


def _nbytes(blocks):
    return sum(b.nbytes for b in blocks)


def _plan_key(side, bases, ctx):
    """The part of a plan's key that is not its atom."""
    digest = hashlib.blake2b(np.ascontiguousarray(bases).data,
                             digest_size=16).digest()
    return (side, bases.shape, digest, ctx.quad, ctx.flow)


class PlanStore:
    """Fibre-quadrature plans of pairings on a caller's points, keyed by the
    atom and ``(side, bases shape, bases digest, quadrature, flow config)``.

    The atom enters the key by a weak reference: the plans of a collected
    atom are dropped on the store's next use, and a later atom at the same
    address cannot match them (a dead reference equals only itself).  Past
    _PLAN_BUDGET bytes the least recently used plans are dropped.
    """

    def __init__(self):
        self._plans = OrderedDict()  # (atom ref, *key) -> (blocks, nbytes)

    def __len__(self):
        self._drop_dead()
        return len(self._plans)

    @property
    def nbytes(self):
        self._drop_dead()
        return sum(size for _, size in self._plans.values())

    def get(self, atom, key):
        self._drop_dead()
        key = (weakref.ref(atom),) + key
        entry = self._plans.get(key)
        if entry is None:
            return None
        self._plans.move_to_end(key)
        return entry[0]

    def put(self, atom, key, blocks):
        self._drop_dead()
        self._plans[(weakref.ref(atom),) + key] = (tuple(blocks), _nbytes(blocks))
        while self.nbytes > _PLAN_BUDGET:
            self._plans.popitem(last=False)

    def _drop_dead(self):
        for key in [k for k in self._plans if k[0]() is None]:
            del self._plans[key]


@dataclass
class PairingCtx:
    quad: QuadratureConfig = field(default_factory=lambda: DEFAULT_QUAD)
    flow: object = None  # FlowConfig or None for the default
    depth: int = 0
    diag: list = None  # optional sink for (out_rows, f_points) records
    # None for pairings that keep no plans
    plans: PlanStore = field(default_factory=PlanStore, repr=False)

    def deeper(self):
        """One convolution level down; nested pairings keep no plans."""
        if self.depth + 1 > self.quad.nesting_limit:
            raise QuadratureFailure(
                f"convolution nesting exceeded {self.quad.nesting_limit}"
            )
        return PairingCtx(self.quad, self.flow, self.depth + 1, self.diag, None)


def _row_slices(n_rows, nodes_per_row):
    """Row slices of at most _BLOCK_ROWS quadrature rows; zero rows still
    make one (empty) slice."""
    block = max(1, _BLOCK_ROWS // nodes_per_row)
    return [slice(i, i + block) for i in range(0, max(n_rows, 1), block)]


def _in_row_blocks(n_rows, nodes_per_row, block_fn):
    """Concatenate ``block_fn(rows)`` over the row slices."""
    parts = [block_fn(rows) for rows in _row_slices(n_rows, nodes_per_row)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


_GL_CACHE = {}


def gauss_nodes(box, order):
    """Tensor-product Gauss-Legendre nodes and weights on a box."""
    box = np.atleast_2d(np.asarray(box, float))
    key = (box.tobytes(), int(order), box.shape[0])
    hit = _GL_CACHE.get(key)
    if hit is not None:
        return hit
    xs, ws = [], []
    for lo, hi in box:
        x, w = np.polynomial.legendre.leggauss(int(order))
        xs.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        ws.append(0.5 * (hi - lo) * w)
    grids = np.meshgrid(*xs, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*ws, indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    _GL_CACHE[key] = (nodes, weights)
    return nodes, weights


def _in_box(points, box, tol=0.0):
    return ~_flow._outside(np.atleast_2d(points), box[:, 0] - tol, box[:, 1] + tol)


def _as_coeff_fn(c, box):
    """Wrap a ScalarExpr or callable into a box-masked coefficient."""
    if isinstance(c, ScalarExpr):
        c = partial(c, check_finite=False)

    def fn(x):
        vals = np.asarray(c(x), float)
        return np.where(_in_box(x, box), vals, 0.0)

    return fn


def _as_dens_fn(a):
    """A ScalarExpr over (xi, base) params or a callable ``a(params)`` as
    a density ``fn(params, rbase)``; DensityAtom masks it by its base box.

    ``rbase`` holds the range base of each row for the densities that
    read it (``DensityAtom.needs_rbase``) and is None for the others.
    """
    if isinstance(a, ScalarExpr):
        return lambda params, rbase: a(params, check_finite=False)
    return lambda params, rbase: a(params)


def _scaled_fn(fn, factor):
    return lambda *args: factor * fn(*args)


# ---------------------------------------------------------------------------
# Atoms


class Integrand:
    """``phi(params, rows)`` split into ``geometry(params, rows)``, a tuple
    of arrays that does not depend on the test function (where it is read,
    a weight such as |det J|, an ok mask), and ``gather(params, rows,
    geom)``, which reads the test function there.  A plan keeps each
    geometry under ``key``, naming the integrand and the host whose maps
    it reads.
    """

    def __init__(self, geometry, gather, key):
        self.geometry = geometry
        self.gather = gather
        self.key = key

    def __call__(self, params, rows):
        return self.gather(params, rows, self.geometry(params, rows))


class Atom:
    host = None

    def pair(self, side, bases, phi, ctx):
        """(atom, phi)(x) for each base row; NaN marks escaped points.

        ``phi(params, rows)`` receives parameter rows of the host together
        with the index of the base row each came from.  A plain function is
        run whole on every call; an Integrand lets a stored plan keep its
        geometry.
        """
        raise NotImplementedError

    def transposed(self):
        return TransposedAtom(self)

    def scaled(self, factor):
        raise NotImplementedError

    def image_box(self, out_side, kernel_side, ctx):
        """Conservative box of the out_side map over the atom's support."""
        raise NotImplementedError

    def bound_image(self, out_side, kernel_side, given_box, ctx):
        """Box of out_side values over support rows whose opposite-side
        image lies in given_box; None when empty."""
        raise NotImplementedError

    def node_count(self, ctx):
        return 1


def _bbox(points, pad_frac=0.02, pad_abs=1e-7):
    if points is None or len(points) == 0:
        return None
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    pad = pad_frac * (hi - lo) + pad_abs
    return np.stack([lo - pad, hi + pad], axis=1)


def _intersect_boxes(a, b):
    if a is None or b is None:
        return None
    lo = np.maximum(a[:, 0], b[:, 0])
    hi = np.minimum(a[:, 1], b[:, 1])
    if np.any(lo > hi):
        return None
    return np.stack([lo, hi], axis=1)


def _boxes_disjoint(a, b):
    return _intersect_boxes(a, b) is None


class DiracAtom(Atom):
    """c * Delta_S: evaluate on the bisection, weight by the coefficient."""

    def __init__(self, bisection, coeff_fn, coeff_box):
        self.bisection = bisection
        self.host = bisection.host
        self.coeff_fn = coeff_fn
        self.coeff_box = np.asarray(coeff_box, float)

    def pair(self, side, bases, phi, ctx):
        S = self.bisection
        bases = np.atleast_2d(np.asarray(bases, float))
        N = len(bases)
        out = np.zeros(N)
        if side == "s":
            valid = S.in_base(bases)
            under = bases
        else:
            under, ok = S.phi_inv(bases, ctx.flow, allow_escape=True)
            valid = np.zeros(N, dtype=bool)
            valid[ok] = S.in_base(under[ok])
            out[~ok] = np.nan
        coeff = np.zeros(N)
        coeff[valid] = self.coeff_fn(bases[valid])
        live = valid & (coeff != 0.0) & np.isfinite(coeff)
        out[valid & ~np.isfinite(coeff)] = np.nan
        if np.any(live):
            params = S.section(under[live])
            rows = np.flatnonzero(live)
            out[live] = coeff[live] * phi(params, rows)
        return out

    def scaled(self, factor):
        return DiracAtom(self.bisection, _scaled_fn(self.coeff_fn, factor),
                         self.coeff_box)

    def _base_set(self, kernel_side, ctx):
        """Box of base points where the pairing can be nonzero."""
        S = self.bisection
        if kernel_side == "s":
            return _intersect_boxes(self.coeff_box, S.base_box)
        mapped = bis._sampled_image_box(
            lambda x: S.phi(x, ctx.flow, allow_escape=True), S.base_box
        )
        return _intersect_boxes(self.coeff_box, mapped)

    def image_box(self, out_side, kernel_side, ctx):
        A = self._base_set(kernel_side, ctx)
        if A is None:
            return None
        if out_side == kernel_side:
            return A
        S = self.bisection
        fwd = S.phi if kernel_side == "s" else S.phi_inv
        return bis._sampled_image_box(lambda x: fwd(x, ctx.flow, allow_escape=True), A)

    def bound_image(self, out_side, kernel_side, given_box, ctx):
        if given_box is None:
            return None
        A = self._base_set(kernel_side, ctx)
        if A is None:
            return None
        S = self.bisection
        rng = np.random.default_rng(7)
        pts = bis._sample_box(A, rng, 512)
        # opposite-side image of each candidate base point
        fwd = S.phi_inv if kernel_side == "r" else S.phi
        opp, ok = fwd(pts, ctx.flow, allow_escape=True)
        keep = ok & _in_box(opp, given_box, tol=1e-9)
        if out_side == kernel_side:
            return _bbox(pts[keep])
        return _bbox(opp[keep])


class _PlanBlock:
    """One row block of a fibre-quadrature plan: what pairing N base rows
    against Q nodes needs besides the test function.

    ``live`` marks the N x Q nodes whose weight x density ``wd`` is
    nonzero and finite, ``params`` and ``rows`` are their parameter rows
    and base-row indices, ``nan`` holds the flat indices of the nodes
    whose chart escaped or whose density is not finite, and ``geometry``
    maps an integrand's key to its geometry on ``params``.  The arrays
    are read-only, since stored plans serve many calls.
    """

    def __init__(self, Q, live, nan, params, rows, wd):
        self.Q = Q
        self.arrays = (live, nan, params, rows, wd)
        for a in self.arrays:
            a.setflags(write=False)
        self.geometry = {}

    @property
    def nbytes(self):  # a geometry array that views ``params`` costs none
        params = self.arrays[2]
        return _nbytes(self.arrays) + sum(
            a.nbytes for geom in self.geometry.values() for a in geom
            if not np.may_share_memory(a, params))

    def execute(self, phi):
        """Row sums of weight x density x phi, NaN where a node escaped."""
        live, nan, params, rows, wd = self.arrays
        contrib = np.zeros(len(live))
        contrib[nan] = np.nan
        if len(rows):
            if not isinstance(phi, Integrand):
                vals = phi(params, rows)
            else:
                key = phi.key
                if key not in self.geometry:
                    self.geometry[key] = phi.geometry(params, rows)
                    for a in self.geometry[key]:
                        a.setflags(write=False)
                vals = phi.gather(params, rows, self.geometry[key])
            contrib[live] = wd * vals
        return contrib.reshape(-1, self.Q).sum(axis=1)


class DensityAtom(Atom):
    """Smooth fibred density against the canonical chart measure d(xi).

    ``dens_fn(params, rbase)`` is evaluated only on chart rows whose base
    lies in ``base_box``; ``rbase`` is the rows' range base when
    ``needs_rbase`` is set (by the translation and reduction rules) and
    None otherwise.  ``r_hint``/``s_hint`` are optional conservative boxes
    for the r/s images, tighter than what parameter-box sampling alone
    can see (used when a translation rule folds a coefficient into the
    density).
    """

    def __init__(self, host, dens_fn, xi_box, base_box, needs_rbase=False,
                 quad_order=None, r_hint=None, s_hint=None):
        self.host = host
        self.dens_fn = dens_fn
        self.xi_box = np.atleast_2d(np.asarray(xi_box, float))
        self.base_box = np.atleast_2d(np.asarray(base_box, float))
        self.needs_rbase = needs_rbase
        self.quad_order = quad_order
        self.r_hint = r_hint
        self.s_hint = s_hint
        if self.xi_box.shape[0] != host.fibre_dim:
            raise HostMismatch(
                f"xi box has {self.xi_box.shape[0]} axes, host fibre dim is "
                f"{host.fibre_dim}"
            )

    def _nodes(self, ctx):
        order = self.quad_order or ctx.quad.order_for(self.host.fibre_dim)
        return gauss_nodes(self.xi_box, order)

    def node_count(self, ctx):
        return len(self._nodes(ctx)[0])

    def pair(self, side, bases, phi, ctx):
        """Fetch or build the plan of (self, side, bases) and execute it.

        Plans are kept in ``ctx.plans``; nested pairings, which see new mid
        points on every call, have none.  An unstored plan is built one row
        block at a time, and each block is dropped once executed; a plan
        that outgrows _PLAN_BUDGET drops the blocks it kept so far.  A hit
        is stored again, to count the geometry it added.
        """
        bases = np.atleast_2d(np.asarray(bases, float))
        key = blocks = None
        if ctx.plans is not None:
            key = _plan_key(side, bases, ctx)
            blocks = ctx.plans.get(self, key)
        if blocks is not None:
            sums = [block.execute(phi) for block in blocks]
            kept = blocks
        else:
            kept = [] if key is not None else None
            sums = []
            for block in self._plan_blocks(side, bases, ctx):
                sums.append(block.execute(phi))
                if kept is not None:
                    kept.append(block)
                    if _nbytes(kept) > _PLAN_BUDGET:
                        kept = None  # too big to store
                del block  # an unkept block goes before the next is built
        if kept is not None:
            ctx.plans.put(self, key, kept)
        return sums[0] if len(sums) == 1 else np.concatenate(sums)

    def _plan_blocks(self, side, bases, ctx):
        nodes, weights = self._nodes(ctx)
        for rows in _row_slices(len(bases), len(nodes)):
            yield self._plan_block(side, bases[rows], nodes, weights, ctx,
                                   rows.start)

    def _plan_block(self, side, bases, nodes, weights, ctx, row_offset):
        N, Q = len(bases), len(nodes)
        base_rep = np.repeat(bases, Q, axis=0)
        params, ok = self.host.chart(side, np.tile(nodes, (N, 1)), base_rep,
                                     ctx.flow, allow_escape=True)
        dens, ok = self._densities(side, params, ok, base_rep, ctx)
        del base_rep
        finite = np.isfinite(dens)
        nan = np.flatnonzero(~(ok & finite)).astype(np.int32)
        live = ok & finite & (dens != 0.0)
        idx = np.flatnonzero(live)
        wd = weights[idx % Q] * dens[idx]
        del dens, finite
        if len(idx) < len(params):
            params = params[idx]
        rows = (idx // Q + row_offset).astype(np.int32)
        return _PlanBlock(Q, live, nan, params, rows, wd)

    def _densities(self, side, params, ok, base_rep, ctx):
        """(density, ok) on the chart rows: the density is evaluated once,
        on the rows in the base box, and is zero elsewhere and where the
        chart escaped; ``ok`` is also False where the range map escaped."""
        dens = np.zeros(len(params))
        if not np.any(ok):
            return dens, ok
        rbase = None
        if self.needs_rbase:
            if side == "r":  # a range fibre's base is its range base
                rbase = base_rep
            else:
                rbase, ok_r = self.host.r(params, ctx.flow, allow_escape=True)
                ok = ok & ok_r
        live = ok & _in_box(params[:, self.host.fibre_dim:], self.base_box)
        if np.any(live):
            dens[live] = self.dens_fn(params[live],
                                      None if rbase is None else rbase[live])
        return dens, ok

    def scaled(self, factor):
        return DensityAtom(self.host, _scaled_fn(self.dens_fn, factor),
                           self.xi_box, self.base_box, self.needs_rbase,
                           self.quad_order, self.r_hint, self.s_hint)

    def _param_samples(self, ctx, count=512):
        rng = np.random.default_rng(11)
        xi = bis._sample_box(self.xi_box, rng, count)
        under = bis._sample_box(self.base_box, rng, count)
        k = min(len(xi), len(under))
        return np.concatenate([xi[:k], under[:k]], axis=1)

    def _hint(self, out_side):
        return self.r_hint if out_side == "r" else self.s_hint

    def image_box(self, out_side, kernel_side, ctx):
        params = self._param_samples(ctx)
        pts, ok = getattr(self.host, out_side)(params, ctx.flow, allow_escape=True)
        box = _bbox(pts[ok])
        hint = self._hint(out_side)
        return box if hint is None else _intersect_boxes(box, hint)

    def bound_image(self, out_side, kernel_side, given_box, ctx):
        if given_box is None:
            return None
        hint_opp = self._hint(_OTHER[out_side])
        if hint_opp is not None:
            given_box = _intersect_boxes(given_box, hint_opp)
            if given_box is None:
                return None
        params = self._param_samples(ctx, count=1024)
        opp, ok1 = getattr(self.host, _OTHER[out_side])(params, ctx.flow,
                                                        allow_escape=True)
        outv, ok2 = getattr(self.host, out_side)(params, ctx.flow,
                                                 allow_escape=True)
        keep = ok1 & ok2 & _in_box(opp, given_box, tol=1e-9)
        box = _bbox(outv[keep])
        hint = self._hint(out_side)
        return box if hint is None else _intersect_boxes(box, hint)


class ConvolvedAtom(Atom):
    """Lazy convolution: nested pairing over the composed host."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.host = bis.compose(left.host, right.host)

    def node_count(self, ctx):
        return self.left.node_count(ctx) * self.right.node_count(ctx)

    def pair(self, side, bases, phi, ctx):
        # The outer factor is the one fibred over ``side`` of the composite;
        # each of its rows fixes, through its opposite map, the base of the
        # inner factor's fibre.  Composite rows are always (left, right).
        # The outer pairing is on the caller's points: it keeps its plan in
        # the caller's store, one level down as the nesting limit counts it.
        inner_ctx = ctx.deeper()
        if side == "r":
            outer, inner = self.left, self.right
        else:
            outer, inner = self.right, self.left
        opposite = getattr(outer.host, _OTHER[side])

        def mids(o_params, o_rows):
            return opposite(o_params, ctx.flow, allow_escape=True)

        def gather(o_params, o_rows, geom):
            def phi_in(i_params, i_rows):
                parts = [o_params[i_rows], i_params]
                if side == "s":
                    parts.reverse()
                return phi(np.concatenate(parts, axis=1), o_rows[i_rows])

            vals = inner.pair(side, geom[0], phi_in, inner_ctx)
            return np.where(geom[1], vals, np.nan)

        phi_out = Integrand(mids, gather, ("mids", _OTHER[side], outer.host.key()))
        return outer.pair(side, bases, phi_out, replace(inner_ctx, plans=ctx.plans))

    def scaled(self, factor):
        return ConvolvedAtom(self.left.scaled(factor), self.right)

    def image_box(self, out_side, kernel_side, ctx):
        part = self.left if out_side == "r" else self.right
        return part.image_box(out_side, kernel_side, ctx)

    def bound_image(self, out_side, kernel_side, given_box, ctx):
        if out_side == "r":
            mid = self.right.bound_image("r", kernel_side, given_box, ctx)
            return self.left.bound_image("r", kernel_side, mid, ctx)
        mid = self.left.bound_image("s", kernel_side, given_box, ctx)
        return self.right.bound_image("s", kernel_side, mid, ctx)


class PushedAtom(Atom):
    """Image of an atom under a morphism of bisubmersions, kept lazy."""

    def __init__(self, morphism, inner):
        self.morphism = morphism
        self.inner = inner
        self.host = morphism.target

    def node_count(self, ctx):
        return self.inner.node_count(ctx)

    def pair(self, side, bases, phi, ctx):
        # Morphisms have no structural key, so the pulled integrand has no
        # geometry to keep.
        def phi_pulled(params, rows):
            return phi(self.morphism.map(params), rows)

        return self.inner.pair(side, bases, phi_pulled, ctx)

    def scaled(self, factor):
        return PushedAtom(self.morphism, self.inner.scaled(factor))

    def image_box(self, out_side, kernel_side, ctx):
        return self.inner.image_box(out_side, kernel_side, ctx)

    def bound_image(self, out_side, kernel_side, given_box, ctx):
        return self.inner.bound_image(out_side, kernel_side, given_box, ctx)


class TransposedAtom(Atom):
    """The same pairing machine viewed over the inverse bisubmersion."""

    def __init__(self, inner):
        self.inner = inner
        self.host = bis.invert(inner.host)

    def node_count(self, ctx):
        return self.inner.node_count(ctx)

    def pair(self, side, bases, phi, ctx):
        return self.inner.pair(_OTHER[side], bases, phi, ctx)

    def transposed(self):
        return self.inner

    def scaled(self, factor):
        return TransposedAtom(self.inner.scaled(factor))

    def image_box(self, out_side, kernel_side, ctx):
        return self.inner.image_box(_OTHER[out_side], _OTHER[kernel_side], ctx)

    def bound_image(self, out_side, kernel_side, given_box, ctx):
        return self.inner.bound_image(
            _OTHER[out_side], _OTHER[kernel_side], given_box, ctx
        )


# ---------------------------------------------------------------------------
# Kernels


class FibredKernel:
    """Finite sum of atoms fibred over one side, over one foliation."""

    def __init__(self, side, atoms, foliation=None):
        if side not in ("r", "s"):
            raise SideMismatch(f"side must be 'r' or 's', got {side!r}")
        self.side = side
        self.atoms = list(atoms)
        if foliation is None and self.atoms:
            foliation = self.atoms[0].host.foliation
        self.foliation = foliation
        for a in self.atoms:
            if a.host.foliation is not self.foliation:
                raise BaseMismatch("atoms hosted over different foliations")

    def is_zero(self):
        return not self.atoms

    def pairing(self, phi, bases, ctx=None):
        """Sum of atom pairings; phi(params, rows, atom) -> values."""
        ctx = ctx or PairingCtx()
        bases = np.atleast_2d(np.asarray(bases, float))
        total = np.zeros(len(bases))
        for atom in self.atoms:
            total = total + atom.pair(
                self.side, bases, lambda p, r, a=atom: phi(p, r, a), ctx
            )
        return total

    def __add__(self, other):
        if not isinstance(other, FibredKernel):
            return NotImplemented
        if other.side != self.side:
            raise SideMismatch("adding kernels fibred over different sides")
        if other.foliation is not self.foliation and other.atoms and self.atoms:
            raise BaseMismatch("adding kernels over different foliations")
        return FibredKernel(self.side, self.atoms + other.atoms,
                            self.foliation or other.foliation)

    def __mul__(self, factor):
        return FibredKernel(self.side, [a.scaled(float(factor)) for a in self.atoms],
                            self.foliation)

    __rmul__ = __mul__

    def __repr__(self):
        kinds = ", ".join(type(a).__name__ for a in self.atoms)
        return f"FibredKernel(side={self.side}, atoms=[{kinds}])"


@dataclass
class SupportBox:
    """Conservative support bookkeeping: true support lies inside."""

    r_box: object  # (n, 2) array or None
    s_box: object
    atom_boxes: list


def _union_boxes(boxes):
    boxes = [b for b in boxes if b is not None]
    if not boxes:
        return None
    lo = np.min([b[:, 0] for b in boxes], axis=0)
    hi = np.max([b[:, 1] for b in boxes], axis=0)
    return np.stack([lo, hi], axis=1)


def support_of(kernel, ctx=None) -> SupportBox:
    """Union of per-atom r/s image boxes via interval sampling."""
    ctx = ctx or PairingCtx()
    per_atom = []
    for a in kernel.atoms:
        per_atom.append(
            {
                "r": a.image_box("r", kernel.side, ctx),
                "s": a.image_box("s", kernel.side, ctx),
            }
        )
    return SupportBox(
        r_box=_union_boxes([d["r"] for d in per_atom]),
        s_box=_union_boxes([d["s"] for d in per_atom]),
        atom_boxes=per_atom,
    )


# ---------------------------------------------------------------------------
# Factories


def dirac(S, c, side="r", coeff_box=None, ctx=None) -> FibredKernel:
    """Dirac kernel on a bisection with smooth coefficient ``c``.

    The coefficient must be supported inside the bisection's base image
    on the requested side; a sampled violation raises SupportViolation.
    """
    ctx = ctx or PairingCtx()
    n = S.host.base_dim
    if coeff_box is None:
        if side == "s":
            coeff_box = S.base_box
        else:
            coeff_box = bis._sampled_image_box(
                lambda x: S.phi(x, ctx.flow, allow_escape=True), S.base_box,
                pad=0.0,
            )
            if coeff_box is None:
                raise SupportViolation("bisection image could not be sampled")
    coeff_box = np.asarray(coeff_box, float)
    rng = np.random.default_rng(3)
    probe = bis._sample_box(coeff_box, rng, 128)
    if side == "s":
        good = S.in_base(probe)
    else:
        good, _ = S.in_range(probe, ctx.flow)
    if not np.all(good):
        raise SupportViolation(
            "coefficient support box leaves the bisection's base image"
        )
    fn = _as_coeff_fn(c, coeff_box)
    atom = DiracAtom(S, fn, coeff_box)
    return FibredKernel(side, [atom])


def density(U, a, xi_box=None, base_box=None, side="r",
            quad_order=None) -> FibredKernel:
    """Smooth fibred density on U against the chart measure d(xi).

    ``a`` is a ScalarExpr over the parameter space (fibre coordinates
    first, then base coordinates) or a callable ``a(params)`` on rows of
    that space.  It is masked once, by the base box: it is evaluated only
    on parameters whose base lies in ``base_box`` and is zero elsewhere.
    Support boxes are mandatory bookkeeping; the density should decay to
    negligible values at their edges.
    """
    if xi_box is None:
        xi_box = U.xi_box()
    if base_box is None:
        base_box = U.foliation.escape_box
    atom = DensityAtom(U, _as_dens_fn(a), xi_box, base_box, quad_order=quad_order)
    return FibredKernel(side, [atom])


# ---------------------------------------------------------------------------
# Convolution


def _convolve_atoms_r(A, B, ctx):
    SA = A.bisection if isinstance(A, DiracAtom) else None
    TB = B.bisection if isinstance(B, DiracAtom) else None

    if SA is not None and TB is not None:
        SC = bis.compose_bisections(SA, TB)
        ca, cb = A.coeff_fn, B.coeff_fn

        def coeff(x):
            va = ca(x)
            y, ok = SA.phi_inv(x, ctx.flow, allow_escape=True)
            out = np.where(va == 0.0, 0.0, np.nan)
            good = ok & (va != 0.0)
            if np.any(good):
                out[good] = va[good] * cb(y[good])
            out[va == 0.0] = 0.0
            return out

        mapped = bis._sampled_image_box(
            lambda x: SA.phi(x, ctx.flow, allow_escape=True), B.coeff_box
        )
        box = _intersect_boxes(A.coeff_box, mapped)
        if box is None:
            return None
        return DiracAtom(SC, coeff, box)

    if SA is not None and isinstance(B, DensityAtom):
        host = bis.TranslateLeft(B.host, SA)
        bfn, needs_rb = B.dens_fn, B.needs_rbase
        ca = A.coeff_fn

        def dens(params, rbase):
            va = ca(rbase)
            rb_inner = None
            if needs_rb:
                rb_inner, ok = SA.phi_inv(rbase, ctx.flow, allow_escape=True)
                va = np.where(ok, va, np.nan)
            vb = bfn(params, rb_inner)
            return va * vb

        return DensityAtom(host, dens, B.xi_box, B.base_box,
                           needs_rbase=True, quad_order=B.quad_order,
                           r_hint=A.coeff_box, s_hint=B.s_hint)

    if isinstance(A, DensityAtom) and TB is not None:
        host = bis.TranslateRight(A.host, TB)
        inner_host = A.host
        afn = A.dens_fn
        cb = B.coeff_fn

        def dens(params, rbase):
            s_inner, ok = inner_host.s(params, ctx.flow, allow_escape=True)
            va = afn(params, rbase)
            vb = cb(s_inner)
            out = va * vb
            return np.where(ok, out, np.nan)

        s_hint = bis._sampled_image_box(
            lambda x: TB.phi_inv(x, ctx.flow, allow_escape=True), B.coeff_box
        )
        return DensityAtom(host, dens, A.xi_box, A.base_box,
                           needs_rbase=A.needs_rbase, quad_order=A.quad_order,
                           r_hint=A.r_hint, s_hint=s_hint)

    return ConvolvedAtom(A, B)


def convolve(a: FibredKernel, b: FibredKernel, ctx=None) -> FibredKernel:
    """Convolution product; structural where translation rules apply.

    Dirac*Dirac composes bisections, Dirac*density and density*Dirac
    translate the density's host, everything else stays a lazy nested
    atom.  Atom pairs with disjoint supports are dropped; if everything
    drops, the result is the zero kernel on the empty composition.
    """
    if a.side != b.side:
        raise SideMismatch(f"convolving side {a.side} with side {b.side}")
    if a.foliation is not None and b.foliation is not None \
            and a.foliation is not b.foliation:
        raise BaseMismatch("convolving kernels over different foliations")
    ctx = ctx or PairingCtx()
    atoms = []
    for A in a.atoms:
        sA = A.image_box("s", a.side, ctx)
        for B in b.atoms:
            rB = B.image_box("r", b.side, ctx)
            if sA is not None and rB is not None and _boxes_disjoint(sA, rB):
                continue
            if a.side == "r":
                atom = _convolve_atoms_r(A, B, ctx)
            else:
                atom = ConvolvedAtom(A, B)
            if atom is not None:
                atoms.append(atom)
    return FibredKernel(a.side, atoms, a.foliation or b.foliation)


def transpose(a: FibredKernel) -> FibredKernel:
    """Side flips, hosts invert, atom data is untouched."""
    return FibredKernel(_OTHER[a.side], [atom.transposed() for atom in a.atoms],
                        a.foliation)


# ---------------------------------------------------------------------------
# Pushforward / pullback


def _reduce_addition(pi, atom, ctx, quad_order):
    """Integrate a density*density atom along the addition morphism.

    On the composed host the fibre coordinates are (eta, xi); the change
    of variables zeta = eta + xi turns the pushforward into an explicit
    xi-convolution evaluated by quadrature, using that the generators
    commute.
    """
    U = pi.path_holonomy
    F = U.foliation
    m = F.num_generators
    A, B = atom.left, atom.right
    if not (isinstance(A, DensityAtom) and isinstance(B, DensityAtom)):
        return None
    if not (A.host.same_term(U) and B.host.same_term(U)):
        return None
    order = quad_order or ctx.quad.order_for(m)
    nodes, weights = gauss_nodes(B.xi_box, order)
    Q = len(nodes)

    def factor(D, params, rbase):
        """The factor D's density, masked by its own base box."""
        vals = D.dens_fn(params, rbase if D.needs_rbase else None)
        return np.where(_in_box(params[:, m:], D.base_box), vals, 0.0)

    def dens_block(params, rbase):
        K = len(params)
        zeta = params[:, :m]
        y = params[:, m:]
        xi = np.tile(nodes, (K, 1))
        y_rep = np.repeat(y, Q, axis=0)
        zeta_rep = np.repeat(zeta, Q, axis=0)
        mid, esc = _flow.exp_flow_batch(F, xi, y_rep, ctx.flow, allow_escape=True)
        pa = np.concatenate([zeta_rep - xi, mid], axis=1)
        pb = np.concatenate([xi, y_rep], axis=1)
        rb = None if rbase is None else np.repeat(rbase, Q, axis=0)
        contrib = np.tile(weights, K) * factor(A, pa, rb) * factor(B, pb, mid)
        contrib = np.where(esc, np.nan, contrib)
        return contrib.reshape(K, Q).sum(axis=1)

    def dens(params, rbase):
        return _in_row_blocks(
            len(params), Q,
            lambda rows: dens_block(
                params[rows], rbase[rows] if rbase is not None else None
            ),
        )

    zeta_box = A.xi_box + B.xi_box  # Minkowski interval sum
    # Keep node density over the wider zeta box on par with the factors.
    zeta_order = None
    if quad_order is not None:
        w_zeta = np.max(zeta_box[:, 1] - zeta_box[:, 0])
        w_fac = np.max(
            np.maximum(A.xi_box[:, 1] - A.xi_box[:, 0],
                       B.xi_box[:, 1] - B.xi_box[:, 0])
        )
        zeta_order = int(np.ceil(order * max(1.0, w_zeta / w_fac)))
    return DensityAtom(U, dens, zeta_box, B.base_box, needs_rbase=A.needs_rbase,
                       quad_order=zeta_order)


def pushforward(pi, a: FibredKernel, ctx=None, quad_order=None) -> FibredKernel:
    """Integration along the fibres of a morphism: (pi_* a, phi) = (a, pi^* phi).

    Addition morphisms reduce density*density atoms to explicit smooth
    densities; everything else is kept lazy through the pairing contract.
    """
    ctx = ctx or PairingCtx()
    out = []
    for atom in a.atoms:
        if not atom.host.same_term(pi.source):
            raise HostMismatch(
                f"atom hosted on {atom.host.describe()}, morphism source is "
                f"{pi.source.describe()}"
            )
        reduced = None
        if isinstance(pi, bis.AdditionMorphism) and isinstance(atom, ConvolvedAtom):
            reduced = _reduce_addition(pi, atom, ctx, quad_order)
        out.append(reduced if reduced is not None else PushedAtom(pi, atom))
    return FibredKernel(a.side, out, a.foliation)


class PulledKernel:
    """Kernel over a pullback submersion: fibres over y are fibres over p(y)."""

    def __init__(self, p_fn, inner):
        self.p_fn = p_fn
        self.inner = inner

    def pairing(self, phi, ys, ctx=None):
        ys = np.atleast_2d(np.asarray(ys, float))
        xs = np.atleast_2d(self.p_fn(ys))
        return self.inner.pairing(phi, xs, ctx)


def pullback_base(p, a) -> PulledKernel:
    """Pull a kernel back along a base map p: N -> M."""
    return PulledKernel(p, a)


# ---------------------------------------------------------------------------
# r <-> s conversion (transverse structure with mu = Lebesgue)


def r_to_s_convert(a: FibredKernel, mu_weight=None, ctx=None) -> FibredKernel:
    """Re-fibre a density kernel over the source map.

    The converted density multiplies by the |det| of the flow Jacobian
    relating the range-chart x base factorization of Lebesgue measure to
    the source-chart one; with a weighted measure mu = w * Lebesgue the
    factor picks up w(range)/w(source).  Dirac atoms are not transverse
    on positive-dimensional fibres and are rejected.
    """
    if a.side != "r":
        raise SideMismatch("r_to_s_convert expects a range-fibred kernel")
    ctx = ctx or PairingCtx()
    out = []
    for atom in a.atoms:
        if not isinstance(atom, DensityAtom):
            raise NotTransverse(
                f"{type(atom).__name__} cannot be re-fibred; only smooth "
                "densities are transverse here"
            )
        host = atom.host
        m = host.fibre_dim
        afn = atom.dens_fn
        needs_rb = atom.needs_rbase

        def dens(params, rbase, host=host, afn=afn, needs_rb=needs_rb, m=m):
            under = params[:, m:]
            rb, det, ok = host.chart_jac_det(params[:, :m], under, ctx.flow)
            out_vals = afn(params, rb if needs_rb else None) * det
            if mu_weight is not None:
                out_vals = out_vals * mu_weight(rb) / mu_weight(under)
            return np.where(ok, out_vals, np.nan)

        out.append(DensityAtom(host, dens, atom.xi_box, atom.base_box,
                               quad_order=atom.quad_order))
    return FibredKernel("s", out, a.foliation)
