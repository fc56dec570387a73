"""Unit-time flows of generator combinations, their inverses and Jacobians.

The map realized here sends (xi, x) to the time-1 state of the initial
value problem y' = sum_i xi_i X_i(y), y(0) = x.  There are two backends,
chosen from the generators themselves:

* Affine families (every generator Jacobian entry is a constant node, so
  X_i(y) = A_i y + b_i) take the exact flow.  With G(xi) the augmented
  matrix [[sum xi_i A_i, sum xi_i b_i], [0, 0]], the flow is the affine
  map of expm(G) (scipy's scaling and squaring, Al-Mohy & Higham 2009),
  its Jacobian is the linear block, and the back flow uses -G.  One
  ``expm`` is taken per distinct xi row; fibre quadrature tiles a few
  nodes over many base points, and that period is found in O(N).  No
  steps are taken, so tolerances and the step budget do not apply.
* Every other family takes one batched Dormand-Prince 5(4) integrator: a
  whole batch of trajectories marches in lockstep, with the step size
  controlled by the worst scaled error over still-active rows.  That
  keeps the per-step cost at a handful of numpy calls even for the
  ~10^5-row batches produced by fibre quadrature.  The last stage is
  taken at the 5th-order solution, so it is the next step's first stage
  (FSAL, Hairer-Norsett-Wanner II.5), and a rejected step keeps its
  first stage too: each attempt costs six field evaluations.  The seven
  stages live in buffers allocated once per call and are combined in
  place, term by term in tableau order.  Its Jacobians are
  integrated from the variational equation J' = (sum_i xi_i DX_i(y)) J
  alongside the trajectory; finite differences are kept in the test
  suite only, as an oracle.

A row escapes when its trajectory leaves the escape box or turns
non-finite.  DP45 checks the state after each accepted step.  The exact
backend checks the start and the endpoint of every row and, on rows that
two bounds do not already keep inside the box, the path at t = k/64.  The
rule is sampled: an excursion between two samples goes unseen.
The bounds are the log-norm ball |y(t)| <= e^{mu+} (|x| + |g|), with mu
the largest eigenvalue of the symmetric part of the linear block and g
the constant part, and the chord bound: y(t) stays within
|G_A|_F e^{|G_A|_F} |G_A x + g| / 8 of the segment from x to y(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

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
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


@dataclass(frozen=True)
class FlowConfig:
    """Tolerances and budget for the embedded RK 4(5) integrator."""

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


def _field_rhs(foliation, xi, with_jacobian):
    """RHS writing d/dt of a (N, n [+ n*n]) state batch into ``out``; xi is (N, m).

    Each generator is evaluated through ``VectorFieldExpr`` once per call and
    accumulated as xi_j X_j(Y); the variational term A J, with
    A = sum_j xi_j DX_j(Y), is summed over the columns of A.
    """
    n = foliation.dim
    gens = foliation.generators
    xi2 = [xi[:, j, None] for j in range(len(gens))]
    xi3 = [c[:, :, None] for c in xi2]

    def rhs(state, out):
        Y = state[:, :n]
        dY = out[:, :n]
        np.multiply(gens[0](Y, check_finite=False), xi2[0], out=dY)
        for g, c in zip(gens[1:], xi2[1:]):
            dY += c * g(Y, check_finite=False)
        if with_jacobian:
            A = gens[0].jacobian_at(Y, check_finite=False)
            A *= xi3[0]
            for g, c in zip(gens[1:], xi3[1:]):
                A += c * g.jacobian_at(Y, check_finite=False)
            J = state[:, n:].reshape(-1, n, n)
            dJ = out[:, n:].reshape(-1, n, n)  # a view: the slice splits evenly
            np.multiply(A[:, :, 0, None], J[:, None, 0, :], out=dJ)
            for col in range(1, n):
                dJ += A[:, :, col, None] * J[:, None, col, :]

    return rhs


def _integrate(foliation, xi, x, cfg, direction, with_jacobian):
    """Unit-time flow of the batch; returns (Y, J|None, escaped)."""
    N, n = x.shape
    if not np.any(xi != 0):  # NaN rows go on to a backend and escape
        J = np.tile(np.eye(n), (N, 1, 1)) if with_jacobian else None
        return x.copy(), J, np.zeros(N, dtype=bool)
    parts = _affine_parts(foliation)
    if parts is None:
        return _dp45(foliation, xi, x, cfg, direction, with_jacobian)
    return _affine_flow(foliation, *parts, direction * xi, x, with_jacobian)


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


def _distinct_rows(xi):
    """(reps, inv) with xi == reps[inv]; inv is None when xi is reps tiled.

    Fibre quadrature passes its nodes tiled over base points, so the
    period is the first repeat of row 0; only a batch that is not whole
    tiles of it is sorted.
    """
    N = len(xi)
    if N == 1:
        return xi, None
    repeats = np.flatnonzero(np.all(xi[1:] == xi[0], axis=1))
    if len(repeats):
        Q = int(repeats[0]) + 1
        if N % Q == 0 and np.array_equal(xi[Q:], xi[:-Q]):
            return xi[:Q], None
    reps, inv = np.unique(xi, axis=0, return_inverse=True)
    return reps, inv.reshape(-1)


def _affine_map(E, y):
    """Points y (..., n) through augmented affine maps E (..., n+1, n+1)."""
    n = y.shape[-1]
    return E[..., :n, n] + sum(y[..., j, None] * E[..., :n, j] for j in range(n))


# Row reductions below loop over the few columns: numpy reduces a short
# trailing axis several times slower than it combines whole columns.
def _outside(Y, lo, hi):
    """Rows outside [lo, hi] or non-finite (NaN fails both comparisons)."""
    inside = True
    for k in range(Y.shape[-1]):
        inside = inside & (lo[k] <= Y[..., k]) & (Y[..., k] <= hi[k])
    return ~inside


def _row_norm(Y):
    return np.sqrt(sum(Y[..., k] ** 2 for k in range(Y.shape[-1])))


def _affine_flow(foliation, A, b, xi, x, with_jacobian):
    """Exact unit-time flow of sum_i xi_i (A_i y + b_i); xi carries the sign."""
    N, n = x.shape
    lo, hi = foliation.escape_box.T
    reps, inv = _distinct_rows(xi)
    # Per-distinct arrays broadcast against the rows viewed as (tiles, Q).
    Q = len(reps) if inv is None else N
    spread = (lambda a: a) if inv is None else (lambda a: a[inv])
    x3 = x.reshape(-1, Q, n)
    bad = ~np.all(np.isfinite(reps), axis=1)
    reps = np.where(bad[:, None], 0.0, reps)  # DP45 leaves such rows at x
    G = np.zeros((len(reps), n + 1, n + 1))
    G[:, :n, :n] = np.einsum("dm,mij->dij", reps, A)
    G[:, :n, n] = reps @ b
    E = expm(G)
    Y3 = _affine_map(spread(E), x3)
    escaped = (spread(bad) | _outside(x3, lo, hi) | _outside(Y3, lo, hi)).reshape(N)
    Y = Y3.reshape(N, n)

    # Rows that neither bound keeps inside get their path sampled.
    GA, g = G[:, :n, :n], G[:, :n, n]
    mu = np.linalg.eigvalsh((GA + GA.transpose(0, 2, 1)) / 2)[:, -1]
    radius = spread(np.exp(np.maximum(mu, 0.0))) * (_row_norm(x3) + spread(_row_norm(g)))
    in_ball = (radius < np.min(np.minimum(hi, -lo))).reshape(N)
    rows = np.flatnonzero(~escaped & ~in_ball)
    d = rows % Q if inv is None else inv[rows]
    norm = np.linalg.norm(GA, axis=(1, 2))
    chord = (norm * np.exp(norm))[d] / 8 * _row_norm(_affine_map(G[d], x[rows]))
    margin = np.min(np.minimum(np.minimum(x[rows] - lo, hi - x[rows]),
                               np.minimum(Y[rows] - lo, hi - Y[rows])), axis=1)
    near = ~(chord < margin)
    escaped[rows[near]] = _sampled_escape(G, d[near], x[rows[near]], lo, hi)

    J = None
    if with_jacobian:
        J = np.broadcast_to(spread(E[:, :n, :n]), (N // Q, Q, n, n)).reshape(N, n, n)
    return Y, J, escaped


def _sampled_escape(G, d, x, lo, hi):
    """Rows x that leave [lo, hi] at some t = k/_PATH_SAMPLES under expm(t G[d])."""
    out = np.zeros(len(x), dtype=bool)
    if len(x):
        dist, sub = np.unique(d, return_inverse=True)
        step = expm(G[dist] / _PATH_SAMPLES)[sub]
        for _ in range(_PATH_SAMPLES - 1):
            x = _affine_map(step, x)
            out |= _outside(x, lo, hi)
    return out


def _combine(out, coeffs, k, part):
    """out = sum_j coeffs[j] k[j], summed from +0.0 in order; ``part`` is scratch."""
    out.fill(0.0)
    for a, kj in zip(coeffs, k):
        np.multiply(kj, a, out=part)
        out += part


def _dp45(foliation, xi, x, cfg, direction, with_jacobian):
    """Lockstep adaptive DP45 over the batch; returns (Y, J|None, escaped)."""
    N, n = x.shape
    width = n + n * n if with_jacobian else n
    state = np.empty((N, width))
    state[:, :n] = x
    if with_jacobian:
        state[:, n:] = np.eye(n).reshape(-1)
    escaped = np.zeros(N, dtype=bool)
    lo, hi = foliation.escape_box.T

    rhs = _field_rhs(foliation, direction * xi, with_jacobian)
    k = list(np.empty((7, N, width)))
    stage, y4, part, scale = np.empty((4, N, width))
    rhs(state, k[0])

    t = 0.0
    h = 0.05
    attempts = 0
    while t < 1.0:
        attempts += 1
        if attempts > cfg.max_steps:
            raise StepLimit(
                f"integrator exceeded {cfg.max_steps} step attempts at t={t:.6f}"
            )
        h = min(h, 1.0 - t)
        for s in range(1, 7):
            _combine(stage, _A[s], k, part)
            stage *= h
            stage += state
            rhs(stage, k[s])
        # _A[6] holds the 5th-order weights (their weight on k[6] is zero), so
        # the last stage point is the 5th-order solution and k[6] is the
        # field there (FSAL).
        y5 = stage
        _combine(y4, _B4, k, part)
        y4 *= h
        y4 += state

        np.abs(state, out=scale)
        np.maximum(scale, np.abs(y5, out=part), out=scale)
        scale *= cfg.rel_tol
        scale += cfg.abs_tol
        with np.errstate(invalid="ignore"):
            np.subtract(y5, y4, out=part)
            np.abs(part, out=part)
            part /= scale
            err_rows = part[:, 0].copy()
            for col in range(1, width):
                np.maximum(err_rows, part[:, col], out=err_rows)
        err_rows[escaped] = 0.0
        bad = ~np.isfinite(err_rows)
        if np.any(bad):
            escaped |= bad
            err_rows[bad] = 0.0
        err = float(np.max(err_rows)) if len(err_rows) else 0.0

        if err <= 1.0:
            np.copyto(state, y5, where=~escaped[:, None])
            t += h
            escaped |= _outside(state[:, :n], lo, hi)
            if np.all(escaped):
                break
            k[0], k[6] = k[6], k[0]
            # Escaped rows are frozen; a zero first stage keeps their
            # discarded stages from compounding step after step.
            k[0][escaped] = 0.0
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
        else:
            h *= max(0.2, 0.9 * err ** -0.2)

    Y = state[:, :n]
    J = state[:, n:].reshape(N, n, n) if with_jacobian else None
    return Y, J, escaped


def _flow_batch(foliation, xi, x, cfg, allow_escape, direction, with_jacobian,
                what):
    """Shared body of the batch entry points; returns (Y, J|None, escaped)."""
    cfg = cfg or DEFAULT_FLOW
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    Y, J, escaped = _integrate(foliation, xi, x, cfg, direction, with_jacobian)
    if not allow_escape and np.any(escaped):
        idx = int(np.argmax(escaped))
        raise DomainEscape(
            f"{what} from {x[idx]} with xi={xi[idx]} left the integration domain"
        )
    return Y, J, escaped


def exp_flow_batch(foliation, xi, x, cfg=None, allow_escape=False):
    """Time-1 flow for a batch: xi is (N, m), x is (N, n).

    Returns (points, escaped_mask) when ``allow_escape`` is set, else
    raises DomainEscape if any trajectory leaves the integration domain.
    """
    Y, _, escaped = _flow_batch(foliation, xi, x, cfg, allow_escape, +1.0,
                                False, "flow")
    return (Y, escaped) if allow_escape else Y


def back_flow_batch(foliation, xi, x, cfg=None, allow_escape=False):
    """Inverse of the time-1 flow: unit-time flow of the negated field."""
    Y, _, escaped = _flow_batch(foliation, xi, x, cfg, allow_escape, -1.0,
                                False, "reverse flow")
    return (Y, escaped) if allow_escape else Y


def flow_jacobian_batch(foliation, xi, x, cfg=None, allow_escape=False):
    """Jacobians d exp_flow(xi, .)/dx for a batch.

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
