"""Unit-time flows of generator combinations, their inverses and Jacobians.

The map realized here sends (xi, x) to the time-1 state of the initial
value problem y' = sum_i xi_i X_i(y), y(0) = x.  Everything is built on
one batched Dormand-Prince 5(4) integrator: a whole batch of
trajectories marches in lockstep, with the step size controlled by the
worst scaled error over still-active rows.  That keeps the per-step cost
at a handful of numpy calls even for the ~10^5-row batches produced by
fibre quadrature.

Flow Jacobians are integrated from the variational equation
J' = (sum_i xi_i DX_i(y)) J alongside the trajectory; finite differences
are kept in the test suite only, as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainEscape, StepLimit

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
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
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
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


DEFAULT_FLOW = FlowConfig()


def _combined_rhs(foliation, xi, with_jacobian):
    """RHS closure over a (N, n [+ n*n]) state batch; xi is (N, m)."""
    n = foliation.dim

    def rhs(state, active):
        Y = state[:, :n]
        gen_vals = np.stack([g(Y, check_finite=False) for g in foliation.generators])
        dY = np.einsum("jn,jnk->nk", xi.T, gen_vals)
        if not with_jacobian:
            return dY
        J = state[:, n:].reshape(-1, n, n)
        A = np.einsum(
            "jn,jnkl->nkl",
            xi.T,
            np.stack([g.jacobian_at(Y, check_finite=False) for g in foliation.generators]),
        )
        dJ = np.einsum("nkl,nlp->nkp", A, J)
        return np.concatenate([dY, dJ.reshape(-1, n * n)], axis=1)

    return rhs


def _integrate(foliation, xi, x, cfg, direction, with_jacobian):
    """Lockstep adaptive DP45 over the batch; returns (Y, J|None, escaped)."""
    N, n = x.shape
    state = x.copy()
    if with_jacobian:
        eye = np.tile(np.eye(n).reshape(1, -1), (N, 1))
        state = np.concatenate([state, eye], axis=1)
    escaped = np.zeros(N, dtype=bool)
    lo = foliation.escape_box[:, 0]
    hi = foliation.escape_box[:, 1]

    if not np.any(np.abs(xi) > 0):
        J = np.tile(np.eye(n), (N, 1, 1)) if with_jacobian else None
        return x.copy(), J, escaped

    rhs = _combined_rhs(foliation, direction * xi, with_jacobian)

    t = 0.0
    h = 0.05
    attempts = 0
    k = [None] * 7
    while t < 1.0:
        attempts += 1
        if attempts > cfg.max_steps:
            raise StepLimit(
                f"integrator exceeded {cfg.max_steps} step attempts at t={t:.6f}"
            )
        h = min(h, 1.0 - t)
        k[0] = rhs(state, ~escaped)
        for s in range(1, 7):
            incr = np.zeros_like(state)
            for j, a in enumerate(_A[s]):
                incr += a * k[j]
            k[s] = rhs(state + h * incr, ~escaped)
        y5 = state + h * sum(b * ki for b, ki in zip(_B5, k))
        y4 = state + h * sum(b * ki for b, ki in zip(_B4, k))

        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(state), np.abs(y5))
        with np.errstate(invalid="ignore"):
            err_rows = np.max(np.abs(y5 - y4) / scale, axis=1)
        err_rows = np.where(escaped, 0.0, err_rows)
        bad = ~np.isfinite(err_rows)
        if np.any(bad):
            escaped |= bad
            err_rows = np.where(bad, 0.0, err_rows)
        err = float(np.max(err_rows)) if len(err_rows) else 0.0

        if err <= 1.0:
            state = np.where(escaped[:, None], state, y5)
            t += h
            pos = state[:, :n]
            out = np.any((pos < lo) | (pos > hi) | ~np.isfinite(pos), axis=1)
            escaped |= out
            if np.all(escaped):
                break
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
    """Jacobians d exp_flow(xi, .)/dx for a batch, via the variational equation."""
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
