"""Unit-time flows of generator combinations, their inverses and Jacobians.

The map realized here sends (xi, x) to the time-1 state of the initial
value problem y' = sum_i xi_i X_i(y), y(0) = x.  A batch is xi (..., m)
against x (..., n): the leading axes broadcast, the rows are the
broadcast flattened in C order, and each row has the bits it has alone.
So K rows are xi (K, m) against x (K, n), and Q nodes xi (Q, m) against
N bases x (N, 1, n) are a product, the N x Q rows (base, node) of fibre
quadrature.  There are four paths, chosen from the batch and the
generators themselves:

* A batch whose xi rows are all zero takes the identity (J = I).
* Translation families (every generator constant, X_i(y) = b_i) take
  the shift y = x + sum_i xi_i b_i, with J = I.  No matrix exponential,
  bound or path sample is needed.  Each shift is formed once per xi row
  and each start tested once per x row.
* Other affine families (every generator Jacobian entry is a constant
  node, so X_i(y) = A_i y + b_i) take the exact flow.  With G(xi) the
  augmented matrix [[sum xi_i A_i, sum xi_i b_i], [0, 0]], the flow is
  the affine map of expm(G), its Jacobian is the linear block, and the
  back flow uses -G.  ``_expm`` is numpy: the Pade [13/13] approximant
  with scaling and squaring (Higham 2005), over the stack of xi rows at
  once, so no path imports scipy.  A matrix is built per xi row: per
  node of a product, and per node of K rows that are whole tiles of
  their first period (the parameter rows of a plan), found so in O(N).
  These two paths take no steps, so tolerances and the step budget do
  not apply.
* Every other family takes one batched Dormand-Prince 5(4) integrator
  with step control per row (Hairer-Norsett-Wanner II.4): each
  trajectory has its own time and step size, accepts or rejects its own
  steps, and leaves the batch when it reaches t = 1 or escapes.  Each
  attempt runs a handful of numpy calls over the rows still active,
  kept compacted at the front of buffers allocated once per call.  A row
  of a ~10^5-row batch from fibre quadrature takes the attempts it needs
  itself, not those of the batch's hardest row, and its result is the
  same bits alone or in any batch.  A broadcast batch is written out as
  its rows first.
  The last stage is taken at the 5th-order solution, so it is the next
  step's first stage (FSAL, Hairer-Norsett-Wanner II.5), and a rejected
  step keeps its first stage too: each attempt costs six field
  evaluations.  The step budget counts the attempts of each trajectory.
  Jacobians are integrated from the variational equation
  J' = (sum_i xi_i DX_i(y)) J alongside the trajectory and move with
  their row; finite differences are kept in the test suite only, as an
  oracle.

A row escapes when its start lies outside the escape box or is not
finite, or when its trajectory leaves the box or turns non-finite.  Every
path checks the start the same way, and a row with a non-finite xi
escapes on every path.  The shift checks the endpoint too, and that
rule is exact: the box is convex and a shift's path is the segment from
x to y.  Where x broadcasts (a product), the endpoint test is spared
when every start inside plus every shift is proven inside, column by
column from their extremes (rounding is monotone), so the mask is the
same.  DP45 checks the state after each accepted step.  The ``expm``
path checks the endpoint of every row and, on rows that the log-norm
ball |y(t)| <= e^{mu+} (|x| + |g|) does not already keep inside the box,
the path at t = k/64; mu is the largest eigenvalue of the symmetric part
of the linear block and g the constant part.  When the largest |x| lies
inside every xi row's ball, so do all rows.  That rule is sampled: an
excursion between two samples goes unseen.  A row whose matrix needs
more squarings than the default tolerance survives turns non-finite
(see ``_expm``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainEscape, StepLimit
from .expr import Const

__all__ = ["FlowConfig", "exp_flow", "back_flow", "flow_jacobian",
           "exp_flow_batch", "back_flow_batch", "flow_jacobian_batch"]


# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# Error weights: the 5th-order weights _A[6] minus the 4th-order ones.
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


@dataclass(frozen=True)
class FlowConfig:
    """Tolerances and per-trajectory step-attempt budget for the embedded
    RK 4(5) integrator."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 10_000

    def __post_init__(self):
        for tol in (self.abs_tol, self.rel_tol):
            if not (math.isfinite(tol) and tol > 0):
                raise ConfigError(
                    f"flow tolerances must be finite and positive, got {tol}")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")


DEFAULT_FLOW = FlowConfig()

# The exact backend samples escape along candidate paths at t = k/_PATH_SAMPLES.
_PATH_SAMPLES = 64


def _field_rhs(foliation, with_jacobian):
    """RHS writing d/dt of a (M, n [+ n*n]) state batch into ``out``.

    ``xi`` holds the batch's (M, m) rows.  Each generator is evaluated
    through ``VectorFieldExpr`` once per call and accumulated as
    xi_j X_j(Y); the variational term A J, with A = sum_j xi_j DX_j(Y), is
    summed over the columns of A.
    """
    n = foliation.dim
    gens = foliation.generators

    def rhs(state, xi, out):
        Y = state[:, :n]
        dY = out[:, :n]
        np.multiply(gens[0](Y, check_finite=False), xi[:, 0, None], out=dY)
        for j in range(1, len(gens)):
            dY += xi[:, j, None] * gens[j](Y, check_finite=False)
        if with_jacobian:
            A = gens[0].jacobian_at(Y, check_finite=False)
            A *= xi[:, 0, None, None]
            for j in range(1, len(gens)):
                A += xi[:, j, None, None] * gens[j].jacobian_at(Y, check_finite=False)
            J = state[:, n:].reshape(-1, n, n)
            dJ = out[:, n:].reshape(-1, n, n)  # a view: the slice splits evenly
            np.multiply(A[:, :, 0, None], J[:, None, 0, :], out=dJ)
            for col in range(1, n):
                dJ += A[:, :, col, None] * J[:, None, col, :]

    return rhs


def _integrate(foliation, xi, x, cfg, direction, with_jacobian):
    """Unit-time flow of the batch; returns (Y, J|None, escaped).

    The rows are the broadcast of the leading axes of ``xi`` (..., m) and
    ``x`` (..., n), and results have the broadcast shape.
    """
    shape = np.broadcast_shapes(xi.shape[:-1], x.shape[:-1])
    n = x.shape[-1]
    if not np.any(xi != 0) or 0 in shape:  # NaN rows go on to a backend and escape
        J = np.broadcast_to(np.eye(n), shape + (n, n)).copy() if with_jacobian else None
        return (np.broadcast_to(x, shape + (n,)).copy(), J,
                np.broadcast_to(_outside(x, *foliation.escape_box.T), shape).copy())
    parts = foliation.affine_parts
    if parts is None:  # DP45 takes rows
        xi, x = (np.broadcast_to(a, shape + a.shape[-1:]).reshape(-1, a.shape[-1])
                 for a in (xi, x))
        Y, J, escaped = _dp45(foliation, xi, x, cfg, direction, with_jacobian)
    elif not np.any(parts[0]):
        return _shift_flow(foliation, parts[1], direction * xi, x, with_jacobian)
    else:
        if xi.ndim == 2 and x.shape[:-1] == (len(xi),):  # rows: one period of xi
            x = x.reshape(-1, _period(xi), n)
            xi = xi[:x.shape[1]]
        Y, J, escaped = _affine_flow(foliation, *parts, direction * xi, x,
                                     with_jacobian)
    return (Y.reshape(shape + (n,)), None if J is None else J.reshape(shape + (n, n)),
            escaped.reshape(shape))


def _affine_parts(foliation):
    """(A, b) with X_i(y) = A[i] y + b[i], or None unless every X_i is affine."""
    A = []
    for g in foliation.generators:
        rows = g.jacobian_exprs()
        if not all(isinstance(e.node, Const) for row in rows for e in row):
            return None
        A.append([[e.node.value for e in row] for row in rows])
    origin = np.zeros((1, foliation.dim))
    b = np.stack([g(origin, check_finite=False)[0] for g in foliation.generators])
    return np.array(A, dtype=float), b


def _period(xi):
    """The first repeat of row 0 of ``xi`` (N, m) if xi is whole tiles of the
    rows before it, else N, in O(N): the parameter rows of a plan (r o
    section of a constant bisection, plan geometry) are tiled nodes."""
    N = len(xi)
    repeats = np.flatnonzero(np.all(xi[1:] == xi[0], axis=1))
    if len(repeats):
        Q = int(repeats[0]) + 1
        if N % Q == 0 and np.array_equal(xi[Q:], xi[:-Q]):
            return Q
    return N


def _affine_map(E, y):
    """Points y (..., n) through augmented affine maps E (..., n+1, n+1),
    one output column at a time (see _outside)."""
    n = y.shape[-1]
    Y = np.empty(np.broadcast_shapes(E.shape[:-2], y.shape[:-1]) + (n,))
    for i in range(n):
        Y[..., i] = E[..., i, n] + sum(y[..., j] * E[..., i, j] for j in range(n))
    return Y


# Row reductions below loop over the few columns: numpy reduces a short
# trailing axis several times slower than it combines whole columns.
def _outside(Y, lo, hi):
    """Rows outside [lo, hi] or non-finite (NaN fails both comparisons)."""
    inside = True
    for k in range(Y.shape[-1]):
        inside = inside & (lo[k] <= Y[..., k]) & (Y[..., k] <= hi[k])
    return ~inside


def _in_box(points, box, tol=0.0):
    """Rows of ``points`` inside ``box`` widened by ``tol``; NaN rows are not."""
    return ~_outside(np.atleast_2d(points), box[:, 0] - tol, box[:, 1] + tol)


def _uniform(box, rng, count):
    """``count`` uniform draws from ``box``."""
    lo, hi = box[:, 0], box[:, 1]
    return lo + (hi - lo) * rng.random((count, len(box)))


def _checked_box(value, dim, what, shape_error=ConfigError):
    """``value`` as a (dim, 2) box whose bounds pass the number rule, with
    lo < hi on every axis, or ConfigError (``shape_error`` for a wrong
    shape): the rule for every box a config, the command line or a public
    constructor takes."""
    box = np.atleast_2d(_numbers(value, f"{what} bound"))
    if box.shape != (dim, 2):
        raise shape_error(f"{what} has shape {box.shape}, expected ({dim}, 2)")
    if not np.all(box[:, 0] < box[:, 1]):
        raise ConfigError(f"{what} needs lo < hi on every axis")
    return box


def _number(value, what, integer=False):
    """``value`` as a float, or as an int when ``integer``, or ConfigError
    naming ``what``: the rule for every number a config or the command line
    supplies.  It must be a JSON number (a boolean is not one) and finite,
    and a count must be integral (``20.0`` passes)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} {value!r} is not a number")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, an int past the floats
        raise ConfigError(f"{what} must be finite, got {value!r}")
    if integer and value != int(value):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value) if integer else float(value)


def _numbers(value, what):
    """``value``, a number or nested lists (or an array) of them, as a float
    array whose every entry passed ``_number``; ConfigError naming ``what``."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        return np.array(_number(value, what))
    entries = [_numbers(v, what) for v in value]
    try:
        return np.array(entries, float)
    except ValueError as exc:  # rows of different lengths
        raise ConfigError(f"{what} {value!r} is not a regular array") from exc


def _row_norm(Y):
    return np.sqrt(sum(Y[..., k] ** 2 for k in range(Y.shape[-1])))


def _shift_flow(foliation, b, xi, x, with_jacobian):
    """Exact unit-time flow of sum_i xi_i b_i: y = x + xi b; xi carries the sign.

    The path is the segment from x to y and the escape box is convex, so a
    row escapes exactly when x or y lies outside it.  The shift is formed
    once per xi row and the start tested once per x row.  A non-finite xi
    entry makes every entry of y non-finite (inf * 0 is NaN), so such rows
    escape too; they stay at x, as on the other backends.
    """
    shape = np.broadcast_shapes(xi.shape[:-1], x.shape[:-1])
    n = x.shape[-1]
    lo, hi = foliation.escape_box.T
    Y = np.moveaxis(np.empty((n,) + shape), 0, -1)  # contiguous columns
    shifts = []
    with np.errstate(invalid="ignore", over="ignore"):  # such rows escape
        for k in range(n):  # whole columns: see _outside
            shift = xi[..., 0] * b[0, k]
            for i in range(1, len(b)):
                shift += xi[..., i] * b[i, k]
            np.add(x[..., k], shift, out=Y[..., k])
            shifts.append(shift)
    start = _outside(x, lo, hi)
    if x.shape[:-1] != shape and _ends_inside(x[~start], shifts, lo, hi):
        escaped = np.broadcast_to(start, shape).copy()
    else:
        escaped = start | _outside(Y, lo, hi)
    rows = np.unravel_index(np.flatnonzero(escaped), shape)
    bad = ~np.all(np.isfinite(np.broadcast_to(xi, shape + xi.shape[-1:])[rows]),
                  axis=1)
    stay = tuple(r[bad] for r in rows)
    Y[stay] = np.broadcast_to(x, Y.shape)[stay]
    J = np.broadcast_to(np.eye(n), shape + (n, n)).copy() if with_jacobian else None
    return Y, J, escaped


def _ends_inside(starts, shifts, lo, hi):
    """Whether every start of ``starts`` (rows inside [lo, hi]) plus every
    shift ends inside too.  Rounding is monotone, so column k of
    fl(x + s) lies between fl(min x + min s) and fl(max x + max s); a
    non-finite shift fails the test."""
    if not len(starts):
        return True
    return all(lo[k] <= starts[:, k].min() + s.min()
               and starts[:, k].max() + s.max() <= hi[k]
               for k, s in enumerate(shifts))


# Pade [13/13] coefficients b_0..b_13 of exp over b_0, and the 1-norm below
# which that approximant meets double precision unscaled (Higham 2005,
# Table 2.3).  LAPACK divides by a pivot as a product with its reciprocal,
# which rounds unless the pivot is a power of 2; with b_0 = 1 a zero matrix
# solves I X = I and gives I exactly.
_PADE13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152
# Each squaring can double the relative error of the matrix it squares, so
# s of them can grow the approximant's rounding to 2^s 2^-53; 19 is the last
# s that keeps it under the default flow tolerance 1e-10.  A matrix needing
# more (on the rotations, |xi| >= 2.82e6) is NaN; its flow row escapes.
_MAX_SQUARINGS = 19


def _expm(G):
    """expm of each matrix of the (N, k, k) stack G by scaling and squaring.

    A matrix is scaled by 2^-s, with s the least integer >= 0 that takes
    its 1-norm below _THETA13, goes through the Pade [13/13] approximant
    and is squared s times (Higham 2005).  Each operation acts on each
    matrix alone, so a matrix's result is the same bits alone or in any
    stack, and a zero matrix gives exactly I.  A matrix that needs more
    than _MAX_SQUARINGS squarings is NaN.
    """
    s = np.maximum(np.frexp(np.abs(G).sum(axis=1).max(axis=1) / _THETA13)[1], 0)
    X = np.ldexp(G, -s[:, None, None])
    b, eye = _PADE13, np.eye(G.shape[-1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for j in range(int(s.max(initial=0))):
        sq = np.flatnonzero(s > j)
        E[sq] = E[sq] @ E[sq]
    E[s > _MAX_SQUARINGS] = np.nan
    return E


def _affine_flow(foliation, A, b, xi, x, with_jacobian):
    """Exact unit-time flow of sum_i xi_i (A_i y + b_i); xi carries the sign.

    The leading axes of ``xi`` (..., m) and ``x`` (..., n) broadcast (see
    ``_integrate``).  Each matrix is built and exponentiated once per xi row.
    """
    n = x.shape[-1]
    lo, hi = foliation.escape_box.T
    lead = xi.shape[:-1]
    shape = np.broadcast_shapes(lead, x.shape[:-1])
    xi = xi.reshape(-1, xi.shape[-1])
    bad = ~np.all(np.isfinite(xi), axis=1)
    xi = np.where(bad[:, None], 0.0, xi)  # DP45 leaves such rows at x
    G = np.zeros((len(xi), n + 1, n + 1))
    G[:, :n, :n] = np.einsum("dm,mij->dij", xi, A)
    G[:, :n, n] = xi @ b
    with np.errstate(over="ignore", invalid="ignore"):  # such rows escape
        E = _expm(G)
        Y = _affine_map(E.reshape(lead + E.shape[1:]), x)
        escaped = bad.reshape(lead) | _outside(x, lo, hi) | _outside(Y, lo, hi)

        # Rows that the log-norm ball does not keep inside get their path
        # sampled.  Rounding is monotone, so when the largest |x| is inside
        # every matrix's ball, every row is.
        GA, g = G[:, :n, :n], G[:, :n, n]
        mu = np.linalg.eigvalsh((GA + GA.transpose(0, 2, 1)) / 2)[:, -1]
        scale, xn, gn = np.exp(np.maximum(mu, 0.0)), _row_norm(x), _row_norm(g)
        cap = np.min(np.minimum(hi, -lo))
        sampled = np.empty(0, dtype=np.intp)
        if not np.all(scale * (np.max(xn, initial=0.0) + gn) < cap):
            ball = scale.reshape(lead) * (xn + gn.reshape(lead))
            sampled = np.flatnonzero(~escaped & ~(ball < cap))
    rows = np.unravel_index(sampled, shape)
    d = np.broadcast_to(np.arange(len(xi)).reshape(lead), shape)[rows]
    escaped[rows] = _sampled_escape(G[d], np.broadcast_to(x, Y.shape)[rows], lo, hi)

    J = None
    if with_jacobian:
        J = np.broadcast_to(E[:, :n, :n].reshape(lead + (n, n)), shape + (n, n))
    return Y, J, escaped


def _sampled_escape(G, x, lo, hi):
    """Rows x that leave [lo, hi] at some t = k/_PATH_SAMPLES under expm(t G),
    one matrix of G per row."""
    out = np.zeros(len(x), dtype=bool)
    if len(x):
        step = _expm(G / _PATH_SAMPLES)
        for _ in range(_PATH_SAMPLES - 1):
            x = _affine_map(step, x)
            out |= _outside(x, lo, hi)
    return out


def _combine(out, coeffs, k, part):
    """out = sum_j coeffs[j] k[j] in order, skipping zero weights; ``part`` is scratch."""
    np.multiply(k[0], coeffs[0], out=out)
    for a, kj in zip(coeffs[1:], k[1:]):
        if a:
            np.multiply(kj, a, out=part)
            out += part


def _dp45(foliation, xi, x, cfg, direction, with_jacobian):
    """Adaptive DP45 with a step size per row; returns (Y, J|None, escaped).

    Each row has its own time t and step h.  The M rows still active lead
    every work buffer; a row that reaches t = 1 or escapes moves behind
    them and is not touched again.  A row that starts outside the escape
    box, or not finite, escapes before the first step and stays at x; so
    does a row with an infinite xi entry, whose field would meet inf * 0
    and sin(inf).  A NaN xi row fails its first attempt and stays too.
    Every operation acts on each row alone, so a row's result is the same
    bits alone or in any batch.
    Rows only ever leave, so the loop count is the attempt count of every
    active row, and the step budget applies to it.
    """
    N, n = x.shape
    lo, hi = foliation.escape_box.T
    escaped = _outside(x, lo, hi) | np.any(np.isinf(xi), axis=1)
    rows = np.argsort(escaped, kind="stable")  # original index of each row of state
    M = N - int(np.count_nonzero(escaped))
    width = n + n * n if with_jacobian else n
    state = np.empty((N, width))
    state[:, :n] = x[rows]
    if with_jacobian:
        state[:, n:] = np.eye(n).reshape(-1)
    rhs = _field_rhs(foliation, with_jacobian)

    # Work buffers, allocated once.
    k = list(np.empty((7, N, width)))
    stage, part = np.empty((2, N, width))
    xis = direction * xi[rows]
    t, h, err = np.zeros((3, N))
    h.fill(0.05)
    accepted, leaving = np.empty((2, N), dtype=bool)
    rhs(state[:M], xis[:M], k[0][:M])

    attempts = 0
    while M:
        attempts += 1
        if attempts > cfg.max_steps:
            i = rows[0]
            raise StepLimit(
                f"integrator exceeded {cfg.max_steps} step attempts on the row "
                f"from {x[i]} with xi={xi[i]} at t={t[0]:.6f}"
            )
        st, y5, pt = state[:M], stage[:M], part[:M]
        ks = [kj[:M] for kj in k]
        tm, hm, em, acc, lv = (a[:M] for a in (t, h, err, accepted, leaving))
        np.subtract(1.0, tm, out=em)  # em is scratch until the error fills it
        np.minimum(hm, em, out=hm)
        hcol = hm[:, None]
        for s in range(1, 7):
            _combine(y5, _A[s], ks, ks[s])  # k[s] is free until rhs fills it
            y5 *= hcol
            y5 += st
            rhs(y5, xis[:M], ks[s])
        # _A[6] holds the 5th-order weights (their weight on k[6] is zero), so
        # the last stage point is the 5th-order solution and k[6] is the
        # field there (FSAL).

        # Scaled error of the 4th-order solution, max over columns.  Only
        # k[0] and k[6] outlive the attempt, and k[1] has weight zero in
        # _A[6] and _E, so k[1] and k[2] serve as scratch from here on.
        d = ks[1]
        _combine(d, _E, ks, pt)
        d *= hcol
        np.abs(d, out=d)
        np.abs(st, out=pt)
        np.maximum(pt, np.abs(y5, out=ks[2]), out=pt)
        pt *= cfg.rel_tol
        pt += cfg.abs_tol
        with np.errstate(invalid="ignore"):
            d /= pt
            np.copyto(em, d[:, 0])
            for col in range(1, width):
                np.maximum(em, d[:, col], out=em)

        # Accepted rows advance and take k[6] as their first stage; rejected
        # rows keep their state and first stage.
        np.less_equal(em, 1.0, out=acc)
        np.copyto(st, y5, where=acc[:, None])
        np.add(tm, hm, out=tm, where=acc)
        k[0], k[6] = k[6], k[0]
        np.copyto(k[0][:M], k[6][:M], where=~acc[:, None])
        # A non-finite error or an accepted step out of the box escapes.
        np.isfinite(em, out=lv)
        np.logical_not(lv, out=lv)
        lv |= acc & _outside(st[:, :n], lo, hi)
        escaped[rows[:M]] = lv
        with np.errstate(divide="ignore"):
            np.power(em, -0.2, out=em)  # the step factor
        em *= 0.9
        np.clip(em, 0.2, 5.0, out=em)
        hm *= em

        lv |= tm >= 1.0
        if np.any(lv):
            order = np.argsort(lv, kind="stable")  # staying rows first
            for a in (state, k[0], xis, t, h, rows):
                a[:M] = a[:M][order]
            M -= int(np.count_nonzero(lv))

    out = np.empty_like(state)
    out[rows] = state
    Y = out[:, :n]
    J = out[:, n:].reshape(N, n, n) if with_jacobian else None
    return Y, J, escaped


def _flow_batch(foliation, xi, x, cfg, allow_escape, direction, with_jacobian,
                what):
    """Shared body of the batch entry points; returns (Y, J|None, escaped)."""
    cfg = cfg or DEFAULT_FLOW
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    Y, J, escaped = _integrate(foliation, xi, x, cfg, direction, with_jacobian)
    if not allow_escape and np.any(escaped):
        idx = np.unravel_index(np.argmax(escaped), escaped.shape)
        x0 = np.broadcast_to(x, escaped.shape + x.shape[-1:])[idx]
        xi0 = np.broadcast_to(xi, escaped.shape + xi.shape[-1:])[idx]
        raise DomainEscape(
            f"{what} from {x0} with xi={xi0} left the integration domain"
        )
    return Y, J, escaped


def exp_flow_batch(foliation, xi, x, cfg=None, allow_escape=False):
    """Time-1 flow for a batch: xi (..., m) against x (..., n), whose
    leading axes broadcast and give the results' leading shape.  Each row
    has the bits it has alone: Q nodes (Q, m) against N bases (N, 1, n)
    give, in shape (N, Q, ...), those of the rows np.tile(xi, N) against
    np.repeat(x, Q).

    Returns (points, escaped_mask) when ``allow_escape`` is set, else
    raises DomainEscape if any trajectory leaves the integration domain.
    """
    Y, _, escaped = _flow_batch(foliation, xi, x, cfg, allow_escape, +1.0,
                                False, "flow")
    return (Y, escaped) if allow_escape else Y


def back_flow_batch(foliation, xi, x, cfg=None, allow_escape=False):
    """Inverse of the time-1 flow: unit-time flow of the negated field;
    batches as in exp_flow_batch."""
    Y, _, escaped = _flow_batch(foliation, xi, x, cfg, allow_escape, -1.0,
                                False, "reverse flow")
    return (Y, escaped) if allow_escape else Y


def flow_jacobian_batch(foliation, xi, x, cfg=None, allow_escape=False):
    """Jacobians d exp_flow(xi, .)/dx for a batch, as in exp_flow_batch.

    Exact for affine families; otherwise from the variational equation.
    """
    Y, J, escaped = _flow_batch(foliation, xi, x, cfg, allow_escape, +1.0,
                                True, "flow")
    return (Y, J, escaped) if allow_escape else (Y, J)


def _single(xi, x):
    return (np.atleast_1d(np.asarray(xi, float))[None, :],
            np.atleast_1d(np.asarray(x, float))[None, :])


def exp_flow(foliation, xi, x, cfg=None):
    """Flow a single point for unit time along sum_i xi_i X_i."""
    xi1, x1 = _single(xi, x)
    return exp_flow_batch(foliation, xi1, x1, cfg)[0]


def back_flow(foliation, xi, x, cfg=None):
    """The unique x' with exp_flow(xi, x') = x."""
    xi1, x1 = _single(xi, x)
    return back_flow_batch(foliation, xi1, x1, cfg)[0]


def flow_jacobian(foliation, xi, x, cfg=None):
    """Derivative of exp_flow(xi, .) at x, an n x n matrix."""
    xi1, x1 = _single(xi, x)
    _, J = flow_jacobian_batch(foliation, xi1, x1, cfg)
    return J[0]
