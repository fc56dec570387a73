"""Singular foliation data, involutivity spot-checks and leaf sampling.

A foliation here is a chart box together with a finite generating family
of vector fields and a per-generator xi bound.  Leaves are realized as
flow orbits of the generators; their dimension is the pointwise rank of
the generator matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import flow as _flow
from .errors import ConfigError, DimensionMismatch
from .expr import VectorFieldExpr, lie_bracket, parse_field
from .flow import (_checked_box, _count, _number, _numbers, _positive, _row_norm,
                   _uniform)

__all__ = [
    "SingularFoliation",
    "LeafSample",
    "InvolutivityReport",
    "involutivity_check",
    "leaf_sample",
    "leaf_sweep",
    "leaf_dimension",
]

# Rank cutoff: separates exact-zero generator values from roundoff at desk scale.
_RANK_CUTOFF = 1e-8


@dataclass(frozen=True)
class SingularFoliation:
    """Chart box M0, generating fields X_1..X_m and the xi box around 0.

    ``escape_factor`` (finite, >= 1) inflates the chart box into the
    integration domain: flows are allowed to wander there, and raise
    DomainEscape beyond it.
    The chart box itself hosts foliation data and output grids.
    """

    dim: int
    chart_box: np.ndarray  # (n, 2)
    generators: tuple
    xi_radius: np.ndarray  # (m,)
    escape_factor: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "chart_box", _checked_box(
            self.chart_box, self.dim, "chart box", DimensionMismatch))
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(
            self, "xi_radius", np.atleast_1d(np.asarray(self.xi_radius, float))
        )
        for g in self.generators:
            if g.dim != self.dim:
                raise DimensionMismatch(
                    f"generator {g} has dim {g.dim}, foliation has {self.dim}"
                )
        if len(self.xi_radius) != len(self.generators):
            raise DimensionMismatch("xi_radius must have one entry per generator")
        if not np.all(np.isfinite(self.xi_radius) & (self.xi_radius > 0)):
            raise ConfigError(
                f"xi_radius must be finite and positive, got {self.xi_radius}")
        # A factor below 1 (or NaN) would put the chart box itself outside
        # the integration domain, and every flow row would escape.
        if not (math.isfinite(self.escape_factor) and self.escape_factor >= 1):
            raise ConfigError(
                f"escape_factor must be finite and >= 1, got {self.escape_factor}")

    @property
    def num_generators(self):
        return len(self.generators)

    @property
    def xi_box(self):
        r = self.xi_radius
        return np.stack([-r, r], axis=1)

    # Every flow call reads the two below: each is computed once, read-only.
    @cached_property
    def escape_box(self):
        mid = self.chart_box.mean(axis=1, keepdims=True)
        half = (self.chart_box[:, 1:] - self.chart_box[:, :1]) / 2.0
        box = np.concatenate(
            [mid - self.escape_factor * half, mid + self.escape_factor * half], axis=1
        )
        box.setflags(write=False)
        return box

    @cached_property
    def affine_parts(self):
        """(A, b) with X_i(y) = A[i] y + b[i], or None unless every X_i is
        affine (``flow._affine_parts``)."""
        parts = _flow._affine_parts(self)
        for a in parts or ():
            a.setflags(write=False)
        return parts

    def key(self):
        """Structural identity: equal for foliations built from equal data."""
        return (self.dim, self.chart_box.tobytes(),
                tuple(str(g) for g in self.generators),
                self.xi_radius.tobytes(), float(self.escape_factor))

    def generator_matrix(self, points):
        """Columns X_1(p)..X_m(p); shape (..., n, m)."""
        pts = np.atleast_2d(np.asarray(points, float))
        return np.stack([g(pts) for g in self.generators], axis=-1)

    def sample_points(self, count, rng):
        return _uniform(self.chart_box, rng, count)

    def to_json(self):
        return {
            "dim": self.dim,
            "box": self.chart_box.tolist(),
            "generators": [str(g) for g in self.generators],
            "xi_radius": self.xi_radius.tolist(),
            "escape_factor": self.escape_factor,
        }

    @classmethod
    def from_json(cls, data):
        dim = _number(data["dim"], "dim", integer=True)
        gens = [parse_field(g, dim) for g in data["generators"]]
        return cls(
            dim=dim,
            chart_box=_checked_box(data["box"], dim, "box"),
            generators=gens,
            xi_radius=_numbers(data["xi_radius"], "xi_radius"),
            escape_factor=_number(data.get("escape_factor", 4.0), "escape_factor"),
        )

    def __str__(self):
        return (
            f"foliation(dim={self.dim}, m={self.num_generators}, "
            f"generators={[str(g) for g in self.generators]})"
        )


@dataclass
class LeafSample:
    """Points of one leaf reached by recorded flow words from a basepoint,
    flowed at the settings ``cfg``."""

    foliation: SingularFoliation
    basepoint: np.ndarray
    points: np.ndarray  # (N, n)
    words: list  # per point: list of xi vectors, composed left to right
    mesh: float
    leaf_dim: int
    cfg: object  # the FlowConfig given to the sampler
    escapes: int = 0

    def nearest(self, queries):
        """Nearest sample index and distance for each query point.

        A distance is the square root of the column-by-column sum of
        squares, so it has a k-d tree's bits, and a tie goes to the lowest
        index.  With no samples every index is ``len(points)`` and every
        distance inf.  A non-finite query raises ConfigError.
        """
        q = np.atleast_2d(np.asarray(queries, float))
        if not np.all(np.isfinite(q)):
            raise ConfigError("nearest-sample queries must be finite")
        idx = np.full(len(q), len(self.points))
        dist = np.full(len(q), np.inf)
        if not len(self.points):
            return idx, dist
        far = np.ones(len(q), bool)
        if self.mesh > 0:
            rows, idx_near, dist_near = self._nearest_in_cells(q)
            idx[rows], dist[rows], far[rows] = idx_near, dist_near, False
        # The rest is measured against every sample, a chunk of queries at a time.
        rest = np.flatnonzero(far)
        step = max(1, 2**16 // len(self.points))
        for k in range(0, len(rest), step):
            rows = rest[k:k + step]
            d = _row_norm(q[rows, None] - self.points)
            idx[rows] = np.argmin(d, axis=1)
            dist[rows] = d[np.arange(len(rows)), idx[rows]]
        return idx, dist

    def _nearest_in_cells(self, q):
        """The queries with a sample within ``mesh``, and each one's nearest
        sample index and distance.

        Samples are bucketed in cells a little wider than the mesh, so a
        sample within the mesh of a query lies in the 3^n cells around the
        query's cell: the margin covers rounding in the cell coordinates,
        which stays below 2^-20 of a cell on a grid of fewer than 2^32
        cells.  A larger grid finds nothing here.
        """
        pts, n = self.points, self.points.shape[1]
        side = self.mesh * (1.0 + 2.0**-16)
        lo = pts.min(axis=0)
        cells = np.floor((pts - lo) / side)
        shape = cells.max(axis=0) + 1
        if not np.prod(shape) < 2.0**32:
            return np.array([], int), np.array([], int), np.array([])
        strides = np.cumprod(np.r_[1.0, shape[:-1]])
        order = np.argsort(cells @ strides, kind="stable")
        keys = (cells @ strides)[order]
        # Axis 0 has stride 1, so the three cells along it around a query
        # are one run of keys: one run per neighbour cell of the other axes.
        c = np.floor((q - lo) / side)
        off = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n - 1)))
        other = c[:, None, 1:] + off
        inside = (np.all((other >= 0) & (other < shape[1:]), axis=2)
                  & (c[:, None, 0] >= -1) & (c[:, None, 0] <= shape[0]))
        qrow, run = np.nonzero(inside)
        base = other[qrow, run] @ strides[1:]
        start = np.searchsorted(keys, base + np.maximum(c[qrow, 0] - 1, 0), "left")
        stop = np.searchsorted(
            keys, base + np.minimum(c[qrow, 0] + 1, shape[0] - 1), "right")
        count = stop - start
        qrow = np.repeat(qrow, count)
        prow = order[np.arange(len(qrow))
                     + np.repeat(start - np.cumsum(count) + count, count)]
        d = _row_norm(pts[prow] - q[qrow])
        # Candidates come grouped by query, in query order.
        new = np.diff(qrow, prepend=-1) != 0
        heads = np.flatnonzero(new)
        dmin = np.minimum.reduceat(d, heads)
        first = np.where(d == dmin[np.cumsum(new) - 1], prow, len(pts))
        imin = np.minimum.reduceat(first, heads)
        hit = dmin <= self.mesh
        return qrow[heads][hit], imin[hit], dmin[hit]

    def replay(self, index, cfg=None):
        """Re-run the recorded flow word of one sample from the basepoint,
        at ``cfg`` or else at the settings the sample was made with."""
        cfg = self.cfg if cfg is None else cfg
        p = self.basepoint.copy()
        for xi in self.words[index]:
            p = _flow.exp_flow(self.foliation, xi, p, cfg)
        return p


@dataclass(frozen=True)
class InvolutivityReport:
    passed: bool
    worst_residual: float
    worst_point: np.ndarray
    worst_pair: tuple
    tol: float
    samples: int


def _structured_points(F):
    """Box center plus face midpoints; guarantees symmetric loci are hit."""
    lo, hi = F.chart_box[:, 0], F.chart_box[:, 1]
    mid = (lo + hi) / 2.0
    pts = [mid]
    for j in range(F.dim):
        for v in (lo[j], hi[j]):
            p = mid.copy()
            p[j] = v
            pts.append(p)
    return np.array(pts)


def involutivity_check(F, samples=100, tol=1e-7):
    """Spot-check [X_i, X_j](p) in span{X_k(p)} at sampled points.

    A pointwise necessary condition only, not module membership; the
    check is advisory and gates nothing.  Residuals are least-squares
    distances, compared against tol * (1 + generator norms).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(0)
    pts = np.concatenate([_structured_points(F), F.sample_points(samples, rng)])
    m = F.num_generators
    # The fields are evaluated over all points at once: a row's values do
    # not depend on the other rows, so they are its one-point values.
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            brackets[(i, j)] = lie_bracket(F.generators[i], F.generators[j])(pts)
    gens = F.generator_matrix(pts)  # (N, n, m)

    worst, worst_p, worst_pair = 0.0, pts[0], (0, 0)
    for k, p in enumerate(pts):
        G = gens[k]
        scale = 1.0 + np.linalg.norm(G)
        for (i, j), br in brackets.items():
            v = br[k]
            sol, *_ = np.linalg.lstsq(G, v, rcond=None)
            res = float(np.linalg.norm(G @ sol - v)) / scale
            if res > worst:
                worst, worst_p, worst_pair = res, p, (i, j)
    return InvolutivityReport(
        passed=worst <= tol,
        worst_residual=worst,
        worst_point=np.asarray(worst_p),
        worst_pair=worst_pair,
        tol=tol,
        samples=len(pts),
    )


def leaf_dimension(F, x) -> int:
    """Rank of [X_1(x) ... X_m(x)] with a singular-value cutoff."""
    G = F.generator_matrix(x)[0]
    sv = np.linalg.svd(G, compute_uv=False)
    if len(sv) == 0:
        return 0
    cut = _RANK_CUTOFF * max(1.0, float(sv[0]))
    return int(np.sum(sv >= cut))


def _leaf_basepoint(F, x0):
    """``x0`` as a (dim,) array of finite numbers, or ConfigError."""
    x0 = _numbers(x0, "leaf basepoint")
    if x0.shape != (F.dim,):
        raise ConfigError(f"leaf basepoint has shape {x0.shape}, expected ({F.dim},)")
    return x0


def leaf_sample(F, x0, budget=400, cfg=None, mesh=1e-3, seed=0):
    """Breadth-first leaf exploration with random xi draws.

    Each queued point gets a fan of up to 8 flows with xi drawn uniformly
    in the xi box, composing words up to ``budget`` flow attempts; points
    closer than ``mesh`` to an existing sample are dropped.  Escapes are
    recorded, not fatal.  The fans of all points queued so far go through
    one batched flow call, and the new points are then de-duplicated in
    draw order.  A flow row's result does not depend on its batch mates,
    so the points are those one-row flows would give.
    """
    x0 = _leaf_basepoint(F, x0)
    budget = _count(budget, "budget")
    mesh = _positive(mesh, "mesh")
    rng = np.random.default_rng(seed)
    # Every kept point is the basepoint or the end of one attempt, so the
    # samples fit a buffer of budget + 1 rows; ``count`` of them are filled.
    points = np.empty((budget + 1, x0.size))
    points[0] = x0
    count = 1
    words = [[]]
    escapes = 0
    queue = [0]
    attempts = 0
    qpos = 0
    while attempts < budget and qpos < len(queue):
        # Points found from this frontier queue up behind it, so no fan of
        # the frontier starts from one: all its fans go in one flow call.
        starts, xis = [], []
        for idx in queue[qpos:]:
            if attempts >= budget:
                break
            qpos += 1
            fan = min(8, budget - attempts)
            attempts += fan
            for _ in range(fan):
                starts.append(idx)
                xis.append(rng.uniform(-F.xi_radius, F.xi_radius))
        ends, escaped = _flow.exp_flow_batch(
            F, np.array(xis), points[starts], cfg, allow_escape=True)
        for idx, xi, p, esc in zip(starts, xis, ends, escaped):
            if esc:
                escapes += 1
                continue
            d = np.min(np.linalg.norm(points[:count] - p, axis=1))
            if d >= mesh:
                points[count] = p
                words.append(words[idx] + [xi])
                queue.append(count)
                count += 1
        if qpos >= len(queue) and attempts < budget:
            qpos = 0  # rescan from the basepoint when the frontier empties
    return LeafSample(
        foliation=F,
        basepoint=x0,
        points=points[:count].copy(),
        words=words,
        mesh=mesh,
        leaf_dim=leaf_dimension(F, x0),
        cfg=cfg,
        escapes=escapes,
    )


def leaf_sweep(F, x0, xi_step, count, cfg=None):
    """Deterministic leaf sample: points exp_flow(k * xi_step, x0), k=0..count-1.

    A single-generator direction flows lie on one one-parameter subgroup,
    so each point's word is the single entry k * xi_step.  The recorded
    mesh is the largest gap between consecutive samples.
    """
    x0 = _leaf_basepoint(F, x0)
    xi_step = np.atleast_1d(_numbers(xi_step, "xi_step"))
    if xi_step.shape != (F.num_generators,):
        raise ConfigError(f"xi_step has shape {xi_step.shape}, expected "
                          f"({F.num_generators},)")
    count = _count(count, "count")
    ks = np.arange(count, dtype=float)
    xis = ks[:, None] * xi_step[None, :]
    pts = _flow.exp_flow_batch(F, xis, np.tile(x0, (count, 1)), cfg)
    words = [[xis[k]] if k else [] for k in range(count)]
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    mesh = float(np.max(gaps)) if len(gaps) else 1.0
    return LeafSample(
        foliation=F,
        basepoint=x0,
        points=pts,
        words=words,
        mesh=mesh,
        leaf_dim=leaf_dimension(F, x0),
        cfg=cfg,
    )
