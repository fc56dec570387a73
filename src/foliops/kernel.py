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
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import bisubmersion as bis
from . import flow as _flow
from .bisubmersion import _OTHER
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
from .flow import DEFAULT_FLOW, FlowConfig, _checked_box, _in_box

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
# One float64 column of a block is 256 KiB, so a block's dozen live
# temporaries stay in L2 and the allocator reuses them instead of mapping
# and faulting in fresh pages on every block.
_BLOCK_ROWS = 32_768

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
    """Fibre-quadrature plans of pairings on a caller's points, keyed by
    ``(atom.key(), side, bases shape, bases digest, quadrature, flow)``.

    Atom keys are structural, so an equal atom built again (by a repeated
    ``convolve``, or from a second load of a config) hits the plan.  Past
    _PLAN_BUDGET bytes the least recently used plans are dropped.
    """

    def __init__(self):
        self._plans = OrderedDict()  # (atom key, *key) -> (blocks, nbytes)

    def __len__(self):
        return len(self._plans)

    @property
    def nbytes(self):
        return sum(size for _, size in self._plans.values())

    def get(self, atom, key):
        key = (atom.key(),) + key
        entry = self._plans.get(key)
        if entry is None:
            return None
        self._plans.move_to_end(key)
        return entry[0]

    def put(self, atom, key, blocks):
        self._plans[(atom.key(),) + key] = (tuple(blocks), _nbytes(blocks))
        while self.nbytes > _PLAN_BUDGET:
            self._plans.popitem(last=False)


@dataclass
class PairingCtx:
    quad: QuadratureConfig = DEFAULT_QUAD
    # Flow settings of every map a pairing runs, those of composed and
    # transposed bisections included; a bare PairingCtx() has DEFAULT_FLOW.
    flow: FlowConfig = DEFAULT_FLOW
    depth: int = 0
    # None for pairings that keep no plans
    plans: PlanStore = field(default_factory=PlanStore, repr=False)

    def deeper(self, keep_plans=False):
        """One convolution level down, sharing this context's plan store
        if ``keep_plans``; ``deeper()`` keeps no plans."""
        if self.depth + 1 > self.quad.nesting_limit:
            raise QuadratureFailure(
                f"convolution nesting exceeded {self.quad.nesting_limit}"
            )
        plans = self.plans if keep_plans else None
        return PairingCtx(self.quad, self.flow, self.depth + 1, plans)

    def nested_in(self, atom, side, bases):
        """One level down, for pairings on points that the rows of
        ``atom.pair(side, bases)`` on this context fix (a lazy convolution's
        mid points, those where a factor-wise action reads its inner factor).

        Such points repeat bit for bit once that outer plan is reused, since
        they come from its kept geometry.  The deeper context therefore
        keeps plans only when the outer plan is stored before the call: a
        nested pairing that runs once leaves no plan behind.
        """
        return self.deeper(self.plans is not None
                           and atom.planned(side, bases, self))


def _row_slices(n_rows, nodes_per_row):
    """Row slices of at most _BLOCK_ROWS quadrature rows; zero rows still
    make one (empty) slice."""
    block = max(1, _BLOCK_ROWS // nodes_per_row)
    return [slice(i, i + block) for i in range(0, max(n_rows, 1), block)]


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

    ``rbase``, each row's range base or None, is not read.
    """
    if isinstance(a, ScalarExpr):
        return lambda params, rbase: a(params, check_finite=False)
    return lambda params, rbase: a(params)


def _scaled_fn(fn, factor):
    return lambda *args: factor * fn(*args)


def _fn_key(fn):
    """A parsed expression's text (it round-trips), the tuple a callable
    carries as its ``key`` attribute, else ``fn`` itself."""
    if isinstance(fn, ScalarExpr):
        return ("expr", fn.dim, str(fn))
    key = getattr(fn, "key", None)
    return key if isinstance(key, tuple) else ("object", fn)


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

    def planned(self, side, bases, ctx):
        """Whether ``ctx.plans`` holds the plan of ``pair(side, bases)``;
        only Dirac and density pairings keep one."""
        return False

    def key(self):
        """Structural identity of a Dirac or density atom, set when built."""
        return self._key

    def transposed(self):
        return TransposedAtom(self)

    def scaled(self, factor):
        raise NotImplementedError

    def image(self, out_side, kernel_side, ctx, given=None):
        """Sampled box of the ``out_side`` map over the support rows of the
        atom in a kernel fibred over ``kernel_side``: over the rows whose
        image under the other map lies in the box ``given``, or over all
        rows when ``given`` is None.  None when no sampled row is left."""
        raise NotImplementedError

    def node_count(self, ctx):
        return 1


def _intersect_boxes(a, b):
    if a is None or b is None:
        return None
    lo = np.maximum(a[:, 0], b[:, 0])
    hi = np.minimum(a[:, 1], b[:, 1])
    if np.any(lo > hi):
        return None
    return np.stack([lo, hi], axis=1)


def _cut_to(box, bound, what):
    """``box`` cut to ``bound``; ConfigError unless that leaves a box."""
    box = np.atleast_2d(np.asarray(box, float))
    cut = _intersect_boxes(box, bound) if box.shape == bound.shape else None
    if cut is None or np.any(cut[:, 0] >= cut[:, 1]):
        raise ConfigError(f"{what} {box.tolist()} has no part inside the "
                          f"restriction box {bound.tolist()}")
    return cut


class _PlanBlock:
    """One row block of a fibre-quadrature plan: what pairing N base rows
    against Q nodes needs besides the test function.

    The N x Q nodes come in (base row, node) order, with their chart or
    bisection map's ``ok`` mask and density ``dens``.  A node is NaN where
    ``ok`` is False or the density is not finite, and live where it is
    finite and nonzero.  ``live`` marks the live nodes, ``params`` (from
    ``params_of`` on their flat indices, or ``slice(None)`` if all are live)
    and ``rows`` are their parameter rows and base-row indices, ``wd`` is
    ``weights[node]`` x density, ``nan`` holds the flat indices of the NaN
    nodes, and ``geometry`` maps an integrand's key to its geometry on
    ``params``.  The arrays are read-only, since stored plans serve many calls.
    """

    def __init__(self, Q, ok, dens, params_of, weights, row_offset=0):
        finite = np.isfinite(dens)
        live = ok & finite & (dens != 0.0)
        if live.all():  # no NaN node, and no flat-index gathers
            nan, idx = np.empty(0, np.int32), slice(None)
            wd = (weights * dens.reshape(-1, Q)).reshape(-1)
            rows = np.repeat(np.arange(len(live) // Q, dtype=np.int32) + row_offset, Q)
        else:
            nan = np.flatnonzero(~(ok & finite)).astype(np.int32)
            idx = np.flatnonzero(live)
            wd = weights[idx % Q] * dens[idx]
            rows = (idx // Q + row_offset).astype(np.int32)
        del dens, finite
        params = params_of(idx)
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
        """Row sums of weight x density x phi, NaN where a node escaped;
        with one node per row, the products themselves (a sum would turn
        -0.0 into 0.0)."""
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
        return contrib if self.Q == 1 else contrib.reshape(-1, self.Q).sum(axis=1)


def _planned(atom, side, bases, ctx):
    bases = np.atleast_2d(np.asarray(bases, float))
    return ctx.plans.get(atom, _plan_key(side, bases, ctx)) is not None


def _pair_planned(atom, side, bases, phi, ctx):
    """Fetch or build the plan of (atom, side, bases) and execute it; the
    pairing of every Dirac and density atom.

    ``atom._plan_blocks(side, bases, ctx)`` yields the plan's row blocks.
    Plans are kept in ``ctx.plans``; a nested pairing has a store only
    once its outer plan is reused (``PairingCtx.nested_in``).  An
    unstored plan is built one row block at a time, and each block is
    dropped once executed; a plan that outgrows _PLAN_BUDGET drops the
    blocks it kept so far.  A hit is stored again, to count the geometry
    it added.
    """
    bases = np.atleast_2d(np.asarray(bases, float))
    key = blocks = None
    if ctx.plans is not None:
        key = _plan_key(side, bases, ctx)
        blocks = ctx.plans.get(atom, key)
    if blocks is not None:
        sums = [block.execute(phi) for block in blocks]
        kept = blocks
    else:
        kept = [] if key is not None else None
        sums = []
        for block in atom._plan_blocks(side, bases, ctx):
            sums.append(block.execute(phi))
            if kept is not None:
                kept.append(block)
                if _nbytes(kept) > _PLAN_BUDGET:
                    kept = None  # too big to store
            del block  # an unkept block goes before the next is built
    if kept is not None:
        ctx.plans.put(atom, key, kept)
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


class DiracAtom(Atom):
    """c * Delta_S: evaluate on the bisection, weight by the coefficient
    (``coeff_key`` names it; by default it is ``coeff_fn`` itself)."""

    def __init__(self, bisection, coeff_fn, coeff_box, *, coeff_key=None):
        self.bisection = bisection
        self.host = bisection.host
        self.coeff_fn = coeff_fn
        self.coeff_box = np.asarray(coeff_box, float)
        self.coeff_key = _fn_key(coeff_fn) if coeff_key is None else coeff_key
        self._key = (bisection.key(), self.coeff_key, self.coeff_box.tobytes())

    def pair(self, side, bases, phi, ctx):
        return _pair_planned(self, side, bases, phi, ctx)

    def planned(self, side, bases, ctx):
        return _planned(self, side, bases, ctx)

    def _plan_blocks(self, side, bases, ctx):
        """One block with one node per base row: the bisection's point over
        the row, weighted by the coefficient."""
        S = self.bisection
        N = len(bases)
        under, ok = ((bases, np.ones(N, dtype=bool)) if side == "s"
                     else S.phi_inv(bases, ctx.flow, allow_escape=True))
        valid = np.zeros(N, dtype=bool)
        valid[ok] = S.in_base(under[ok], ctx.flow)
        coeff = np.zeros(N)
        coeff[valid] = self.coeff_fn(bases[valid])

        def params_of(idx):
            return (S.section(under[idx], ctx.flow) if len(under[idx])
                    else np.empty((0, self.host.param_len)))

        yield _PlanBlock(1, ok, coeff, params_of, np.ones(1))

    def scaled(self, factor):
        return DiracAtom(self.bisection, _scaled_fn(self.coeff_fn, factor),
                         self.coeff_box,
                         coeff_key=("scaled", repr(factor), self.coeff_key))

    def image(self, out_side, kernel_side, ctx, given=None):
        # A support row is a bisection point.  On the kernel's side it lies
        # in the coefficient box cut to the bisection's image there (its
        # ``home``); other boxes are sampled images under ``to_out``, of the
        # box on the other side of ``out_side`` cut to ``given``.
        S = self.bisection
        to_out = S.phi if out_side == "r" else S.phi_inv

        def across(box):
            return (None if box is None
                    else bis._sampled_image_box(to_out, box, ctx.flow))

        def cut(box):
            return box if given is None else _intersect_boxes(box, given)

        if out_side != kernel_side:
            return across(cut(self.image(kernel_side, kernel_side, ctx)))
        home = _intersect_boxes(self.coeff_box, S.base_box if out_side == "s"
                                else across(S.base_box))
        if given is None or home is None:
            return home
        other = self.image(_OTHER[out_side], kernel_side, ctx)
        return _intersect_boxes(across(cut(other)), home)


class DensityAtom(Atom):
    """Smooth fibred density against the canonical chart measure d(xi).

    The host's parameters must be laid out as (fibre, base), as on
    path-holonomy terms and their inverses, restrictions and translates.
    ``dens_fn(params, rbase)`` is evaluated only on chart rows whose base
    lies in ``base_box``; ``rbase`` is the rows' range base on range
    fibres and None elsewhere, where a density that reads it (as the Dirac
    translation rules do) maps ``params`` itself.  ``r_hint``/``s_hint``
    are optional boxes for the r/s images, tighter than what parameter-box
    sampling alone can see: the Dirac*density rule sets ``r_hint`` to the
    coefficient's box, which is exact, and the density*Dirac rule sets
    ``s_hint`` to the sampled s image of the coefficient's support.
    ``dens_key`` names what ``dens_fn`` computes (by default ``dens_fn``
    itself); atoms with equal ``key()`` pair alike.  ``fibre_only`` is True
    for a density that reads only the fibre coordinates of its rows, or a
    predicate ``fibre_only(under, inside)`` that proves it for the rows of
    one plan block whose base ``under`` is ``inside`` the base box; such a
    density is evaluated once per node (see ``_plan_block``).
    """

    def __init__(self, host, dens_fn, xi_box, base_box, quad_order=None,
                 r_hint=None, s_hint=None, *, dens_key=None, fibre_only=None):
        self.host = host
        self.dens_fn = dens_fn
        self.fibre_only = fibre_only
        self.xi_box = np.atleast_2d(np.asarray(xi_box, float))
        self.base_box = np.atleast_2d(np.asarray(base_box, float))
        self.quad_order = quad_order
        self.r_hint = r_hint
        self.s_hint = s_hint
        if host.param_len != host.fibre_dim + host.base_dim:
            raise HostMismatch(
                f"a density needs (fibre, base) parameters; {host.describe()} "
                f"has {host.param_len}, not {host.fibre_dim} + {host.base_dim}"
            )
        if self.xi_box.shape[0] != host.fibre_dim:
            raise HostMismatch(
                f"xi box has {self.xi_box.shape[0]} axes, host fibre dim is "
                f"{host.fibre_dim}"
            )
        self.dens_key = _fn_key(dens_fn) if dens_key is None else dens_key
        self._key = (host.key(), self.dens_key, self.xi_box.tobytes(),
                     self.base_box.tobytes(), quad_order)

    def _nodes(self, ctx):
        order = self.quad_order or ctx.quad.order_for(self.host.fibre_dim)
        return gauss_nodes(self.xi_box, order)

    def node_count(self, ctx):
        return len(self._nodes(ctx)[0])

    def pair(self, side, bases, phi, ctx):
        return _pair_planned(self, side, bases, phi, ctx)

    def planned(self, side, bases, ctx):
        return _planned(self, side, bases, ctx)

    def _plan_blocks(self, side, bases, ctx):
        nodes, weights = self._nodes(ctx)
        for rows in _row_slices(len(bases), len(nodes)):
            yield self._plan_block(side, bases[rows], nodes, weights, ctx,
                                   rows.start)

    def _plan_block(self, side, bases, nodes, weights, ctx, row_offset):
        """The host charts the product of the Q nodes and the N bases.  The
        density is evaluated once, on the chart rows in the base box, and
        is zero elsewhere; a range fibre's base is its range base.

        Where ``fibre_only`` holds on the block, it is evaluated on the Q
        node rows at the base of the first row inside, and tiled over the N
        base rows.  A chart keeps the nodes as its rows' fibre coordinates
        and evaluation is elementwise, so the bits are the rows' own.
        """
        N, Q = len(bases), len(nodes)
        m = self.host.fibre_dim
        params, ok = self.host.chart(side, nodes, bases[:, None], ctx.flow,
                                     allow_escape=True)
        under = params[:, m:]
        inside = ok & self._in_base_box(side, bases, under, Q)
        fibre_only = self.fibre_only
        if not np.any(inside):
            dens = np.zeros(len(params))
        elif fibre_only is True or (fibre_only and fibre_only(under, inside)):
            at = np.empty((Q, params.shape[1]))
            at[:, :m] = nodes
            at[:, m:] = under[np.argmax(inside)]
            dens = np.tile(self.dens_fn(at, None), N)
            dens[~inside] = 0.0
        else:
            dens = np.zeros(len(params))
            dens[inside] = self.dens_fn(params[inside], bases[
                np.flatnonzero(inside) // Q] if side == "r" else None)
        del under, inside
        return _PlanBlock(Q, ok, dens, params.__getitem__, weights, row_offset)

    def _in_base_box(self, side, bases, under, Q):
        """Base-box mask of the ok rows of a block's chart, with bases
        ``under``: once per base if they are the N ``bases``, none if an ok
        row ends in an escape box within the base box, else per row."""
        known = self.host.chart_base(side)
        if known == "given":
            return np.repeat(_in_box(bases, self.base_box), Q)
        esc, box = self.host.foliation.escape_box, self.base_box
        if (known == "flowed" and np.all(box[:, 0] <= esc[:, 0])
                and np.all(esc[:, 1] <= box[:, 1])):
            return True
        return _in_box(under, box)

    def scaled(self, factor):
        return DensityAtom(self.host, _scaled_fn(self.dens_fn, factor),
                           self.xi_box, self.base_box, self.quad_order,
                           self.r_hint, self.s_hint,
                           dens_key=("scaled", repr(factor), self.dens_key),
                           fibre_only=self.fibre_only)

    def _clip(self, box, side):
        """``box`` (or None) cut to the ``side`` hint, if there is one."""
        hint = self.r_hint if side == "r" else self.s_hint
        return box if hint is None else _intersect_boxes(box, hint)

    def image(self, out_side, kernel_side, ctx, given=None):
        # Support rows are sampled as (xi, base) parameter rows or, under
        # ``given``, as the other side's chart rows over points in it.
        other = _OTHER[out_side]
        if given is not None:
            given = self._clip(given, other)
            if given is None:
                return None
        rng = np.random.default_rng(11)
        xi = bis._sample_box(self.xi_box, rng, 512)
        under = bis._sample_box(self.base_box if given is None else given,
                                rng, 512)
        k = min(len(xi), len(under))
        if given is None:
            params, ok = np.concatenate([xi[:k], under[:k]], axis=1), True
        else:
            params, ok = self.host.chart(other, xi[:k], under[:k], ctx.flow,
                                         allow_escape=True)
            ok = ok & _in_box(params[:, self.host.fibre_dim:], self.base_box)
        pts, ok_out = getattr(self.host, out_side)(params, ctx.flow,
                                                   allow_escape=True)
        return self._clip(bis._padded_bounds(pts[ok & ok_out]), out_side)


class ConvolvedAtom(Atom):
    """Lazy convolution: nested pairing over the composed host of whole
    composite rows.  Op and the adjoint act factor by factor (``op._act``)."""

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
        # The inner pairings are on the mid points of its kept geometry and
        # keep theirs once it is reused.
        if side == "r":
            outer, inner = self.left, self.right
        else:
            outer, inner = self.right, self.left
        inner_ctx = ctx.nested_in(outer, side, bases)
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
        return outer.pair(side, bases, phi_out, ctx.deeper(keep_plans=True))

    def scaled(self, factor):
        return ConvolvedAtom(self.left.scaled(factor), self.right)

    def image(self, out_side, kernel_side, ctx, given=None):
        # ``given`` bounds the far factor's input; the far factor's image
        # then bounds the near one's.
        near, far = ((self.left, self.right) if out_side == "r"
                     else (self.right, self.left))
        if given is not None:
            given = far.image(out_side, kernel_side, ctx, given)
            if given is None:
                return None
        return near.image(out_side, kernel_side, ctx, given)


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

    def image(self, out_side, kernel_side, ctx, given=None):
        return self.inner.image(out_side, kernel_side, ctx, given)


class TransposedAtom(Atom):
    """The same pairing machine viewed over the inverse bisubmersion."""

    def __init__(self, inner):
        self.inner = inner
        self.host = bis.invert(inner.host)

    def node_count(self, ctx):
        return self.inner.node_count(ctx)

    def pair(self, side, bases, phi, ctx):
        return self.inner.pair(_OTHER[side], bases, phi, ctx)

    def planned(self, side, bases, ctx):
        return self.inner.planned(_OTHER[side], bases, ctx)

    def transposed(self):
        return self.inner

    def scaled(self, factor):
        return TransposedAtom(self.inner.scaled(factor))

    def image(self, out_side, kernel_side, ctx, given=None):
        return self.inner.image(_OTHER[out_side], _OTHER[kernel_side], ctx,
                                given)


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
            if a.host.foliation.key() != foliation.key():
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
        if other.atoms and self.atoms \
                and other.foliation.key() != self.foliation.key():
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
    """Sampled support bookkeeping: boxes of sampled support rows, padded
    (``bisubmersion._padded_bounds``), not proven to hold the support."""

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
    """Union of the atoms' sampled r/s image boxes."""
    ctx = ctx or PairingCtx()
    per_atom = [{out: a.image(out, kernel.side, ctx) for out in ("r", "s")}
                for a in kernel.atoms]
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
    if coeff_box is not None:
        coeff_box = _checked_box(coeff_box, S.host.base_dim, "coeff_box")
    elif side == "s":
        coeff_box = S.base_box
    else:
        coeff_box = bis._sampled_image_box(S.phi, S.base_box, ctx.flow, pad=0.0)
        if coeff_box is None:
            raise SupportViolation("bisection image could not be sampled")
    rng = np.random.default_rng(3)
    probe = bis._sample_box(coeff_box, rng, 128)
    if side == "s":
        good = S.in_base(probe, ctx.flow)
    else:
        good, _ = S.in_range(probe, ctx.flow)
    if not np.all(good):
        raise SupportViolation(
            "coefficient support box leaves the bisection's base image"
        )
    atom = DiracAtom(S, _as_coeff_fn(c, coeff_box), coeff_box,
                     coeff_key=_fn_key(c))
    return FibredKernel(side, [atom])


def density(U, a, xi_box=None, base_box=None, side="r",
            quad_order=None) -> FibredKernel:
    """Smooth fibred density on U against the chart measure d(xi).

    ``a`` is a ScalarExpr over the parameter space (fibre coordinates
    first, then base coordinates) or a callable ``a(params)`` on rows of
    that space.  It is masked once, by the base box: it is evaluated only
    on parameters whose base lies in ``base_box`` and is zero elsewhere.
    Support boxes are mandatory bookkeeping; the density should decay to
    negligible values at their edges.  On a ``Restriction`` both boxes,
    given or default, are cut to the restriction's parameter box.
    """
    if xi_box is None:
        xi_box = U.xi_box()
    if base_box is None:
        base_box = U.foliation.escape_box
    if isinstance(U, bis.Restriction):  # the density lives inside the restriction
        m = U.fibre_dim
        xi_box = _cut_to(xi_box, U.box[:m], "xi box")
        base_box = _cut_to(base_box, U.box[m:], "base box")
    xi_box = _checked_box(xi_box, U.fibre_dim, "xi_box", HostMismatch)
    base_box = _checked_box(base_box, U.base_dim, "base_box")
    fibre_only = (True if isinstance(a, ScalarExpr)
                  and a.node.max_var() < U.fibre_dim else None)
    atom = DensityAtom(U, _as_dens_fn(a), xi_box, base_box, quad_order=quad_order,
                       dens_key=_fn_key(a), fibre_only=fibre_only)
    return FibredKernel(side, [atom])


# ---------------------------------------------------------------------------
# Convolution


def _convolve_atoms_r(A, B, ctx):
    SA = A.bisection if isinstance(A, DiracAtom) else None
    TB = B.bisection if isinstance(B, DiracAtom) else None
    flow = ctx.flow  # with the factors, all that a rule's closure reads

    if SA is not None and TB is not None:
        SC = bis.compose_bisections(SA, TB)

        def coeff(x):
            va = A.coeff_fn(x)
            y, ok = SA.phi_inv(x, flow, allow_escape=True)
            out = np.where(va == 0.0, 0.0, np.nan)
            good = ok & (va != 0.0)
            if np.any(good):
                out[good] = va[good] * B.coeff_fn(y[good])
            return out

        # A's r images over the rows whose s images lie in B's r support
        box = A.image("r", "r", ctx, B.image("r", "r", ctx))
        if box is None:
            return None
        return DiracAtom(SC, coeff, box,
                         coeff_key=("compose", A.key(), B.key(), flow))

    if SA is not None and isinstance(B, DensityAtom):
        host = bis.TranslateLeft(B.host, SA)

        def dens(params, rbase):
            ok = True
            if rbase is None:  # NaN where the range map escaped
                rbase, ok = host.r(params, flow, allow_escape=True)
            va = np.where(ok, A.coeff_fn(rbase), np.nan)
            return va * B.dens_fn(params, None)

        return DensityAtom(host, dens, B.xi_box, B.base_box,
                           quad_order=B.quad_order,
                           r_hint=A.coeff_box, s_hint=B.s_hint,
                           dens_key=("translate_left", A.key(), B.key(), flow))

    if isinstance(A, DensityAtom) and TB is not None:
        host = bis.TranslateRight(A.host, TB)

        def dens(params, rbase):
            s_inner, ok = A.host.s(params, flow, allow_escape=True)
            out = A.dens_fn(params, rbase) * B.coeff_fn(s_inner)
            return np.where(ok, out, np.nan)

        return DensityAtom(host, dens, A.xi_box, A.base_box,
                           quad_order=A.quad_order,
                           r_hint=A.r_hint, s_hint=B.image("s", "r", ctx),
                           dens_key=("translate_right", A.key(), B.key(), flow))

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
            and a.foliation.key() != b.foliation.key():
        raise BaseMismatch("convolving kernels over different foliations")
    ctx = ctx or PairingCtx()
    r_boxes = [B.image("r", b.side, ctx) for B in b.atoms]
    atoms = []
    for A in a.atoms:
        sA = A.image("s", a.side, ctx)
        for B, rB in zip(b.atoms, r_boxes):
            if sA is not None and rB is not None and _intersect_boxes(sA, rB) is None:
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


# Margin, relative to a box's largest bound, by which the shift proof keeps
# boxes apart: far above the rounding of y + sum_i xi_i b_i.
_PROOF_SLACK = 1e-9


def _box_within(inner, outer):
    slack = _PROOF_SLACK * (1.0 + np.max(np.abs(outer)))
    return bool(np.all(outer[:, 0] + slack <= inner[:, 0])
                and np.all(inner[:, 1] <= outer[:, 1] - slack))


def _shift_proof(escape_box, a_box, reach, under, inside):
    """Whether no mask or escape of a reduced density on a translation
    family fires on a block's rows whose base ``under`` is ``inside`` (so in
    B's base box): the box of those bases lies in the escape box, and moved
    by ``reach``, the interval of sum_i xi_i b_i over B's xi box, in the
    escape box and A's base box.  The value then depends on zeta alone."""
    box = np.array([[under[inside, k].min(), under[inside, k].max()]
                    for k in range(under.shape[1])])
    moved = box + reach
    return (_box_within(box, escape_box) and _box_within(moved, escape_box)
            and _box_within(moved, a_box))


def _reduce_addition(pi, atom, ctx):
    """Integrate a density*density atom along the addition morphism.

    On the composed host the fibre coordinates are (eta, xi); the change
    of variables zeta = eta + xi turns the pushforward into an explicit
    xi-convolution evaluated by quadrature, using that the generators
    commute.  Both factors must be densities on U = pi.target itself,
    which get no range base; any other atom stays lazy.  The xi nodes are B's.
    When both factors read only their fibre coordinates and every generator
    is a constant field b_i, the reduced density is fibre-only on every plan
    block that ``_shift_proof`` passes.
    """
    U = pi.target
    F = U.foliation
    m = F.num_generators
    A, B = atom.left, atom.right
    if not all(isinstance(X, DensityAtom) and X.host.same_term(U)
               for X in (A, B)):
        return None
    n = F.dim
    nodes, weights = B._nodes(ctx)
    flow = ctx.flow
    Q = len(nodes)

    def dens_block(params):
        """Sum over the nodes xi of w A(zeta - xi, mid) B(xi, y), mid = exp(xi)y.

        The K bases y and the Q nodes make a product: the mid points are
        one product flow, and B is masked by its base box once per base,
        and evaluated once per node where it reads only xi.  A node whose
        mid point escapes is NaN.
        """
        K = len(params)
        y = params[:, m:]
        mid, esc = _flow.exp_flow_batch(F, nodes, y[:, None], flow,
                                        allow_escape=True)
        # Parameter rows are built column by column (column-major), as the
        # densities read them; a fibre-only B needs the rows of one base.
        yb = y[:1] if B.fibre_only is True else y
        pb = np.empty((m + n, len(yb), Q))  # rows (xi, y)
        pb[:m] = nodes.T[:, None]
        pb[m:] = yb.T[:, :, None]
        vb = B.dens_fn(pb.reshape(m + n, -1).T, None).reshape(len(yb), Q)
        fb = np.where(_in_box(y, B.base_box)[:, None], vb, 0.0).reshape(-1)
        del pb, vb
        pa = np.empty((m + n, K, Q))  # rows (zeta - xi, mid)
        for j in range(m):
            np.subtract(params[:, j, None], nodes[:, j], out=pa[j])
        pa[m:] = np.moveaxis(mid, -1, 0)
        del mid
        pa = pa.reshape(m + n, -1).T
        contrib = np.where(_in_box(pa[:, m:], A.base_box), A.dens_fn(pa, None), 0.0)
        del pa
        contrib.reshape(K, Q)[...] *= weights
        contrib *= fb
        contrib[esc.reshape(-1)] = np.nan
        return contrib.reshape(K, Q).sum(axis=1)

    def dens(params, rbase):
        parts = [dens_block(params[rows]) for rows in _row_slices(len(params), Q)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    zeta_box = A.xi_box + B.xi_box  # Minkowski interval sum
    # Keep node density over the wider zeta box on par with the factors.
    zeta_order = None
    if B.quad_order is not None:
        w_zeta = np.max(zeta_box[:, 1] - zeta_box[:, 0])
        w_fac = np.max(np.maximum(A.xi_box[:, 1] - A.xi_box[:, 0],
                                  B.xi_box[:, 1] - B.xi_box[:, 0]))
        zeta_order = int(np.ceil(B.quad_order * max(1.0, w_zeta / w_fac)))
    fibre_only = None
    parts = F.affine_parts  # (A, b): constant fields have A = 0
    if A.fibre_only is True and B.fibre_only is True and parts is not None \
            and not np.any(parts[0]):
        ends = B.xi_box[:, :, None] * parts[1][:, None, :]  # (m, 2, n)
        reach = np.stack([ends.min(axis=1).sum(axis=0),
                          ends.max(axis=1).sum(axis=0)], axis=1)
        fibre_only = partial(_shift_proof, F.escape_box, A.base_box, reach)
    return DensityAtom(U, dens, zeta_box, B.base_box, quad_order=zeta_order,
                       dens_key=("reduce", A.key(), B.key(), Q, flow),
                       fibre_only=fibre_only)


def pushforward(pi, a: FibredKernel, ctx=None) -> FibredKernel:
    """Integration along the fibres of a morphism: (pi_* a, phi) = (a, pi^* phi).

    The result lives over pi's target foliation.  Addition morphisms
    reduce density*density atoms to explicit smooth densities at the
    quadrature order the right factor carries (or the context's); everything
    else is kept lazy through the pairing contract.
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
            reduced = _reduce_addition(pi, atom, ctx)
        out.append(reduced if reduced is not None else PushedAtom(pi, atom))
    return FibredKernel(a.side, out, pi.target.foliation)


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
    flow = (ctx or PairingCtx()).flow
    out = []
    for atom in a.atoms:
        if not isinstance(atom, DensityAtom):
            raise NotTransverse(
                f"{type(atom).__name__} cannot be re-fibred; only smooth "
                "densities are transverse here"
            )

        def dens(params, rbase, atom=atom):
            m = atom.host.fibre_dim
            under = params[:, m:]
            rb, det, ok = atom.host.chart_jac_det(params[:, :m], under, flow)
            out_vals = atom.dens_fn(params, rb) * det
            if mu_weight is not None:
                out_vals = out_vals * mu_weight(rb) / mu_weight(under)
            return np.where(ok, out_vals, np.nan)

        out.append(DensityAtom(atom.host, dens, atom.xi_box, atom.base_box,
                               quad_order=atom.quad_order,
                               dens_key=("r_to_s", atom.key(),
                                         _fn_key(mu_weight), flow)))
    return FibredKernel("s", out, a.foliation)
