"""Independent references for the benchmark's outputs.

Nothing here imports foliops.  Flows come from closed forms (rotations,
translations) or from scipy's DOP853 at tight tolerances, and fibre
integrals from scipy ``quad``/``dblquad``.  Each function returns the max
abs error over a seeded subsample of output points; the caller runs them
outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import dblquad, quad, solve_ivp

QUAD_KW = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 200}
ODE_TOL = 1e-13
# Angle of the canonical ``rot90`` bisection: a quarter of 4096 leaf-sweep steps.
ROT90_XI = (4096 // 4) * (2.0 * math.pi / 4096)


def grid_points(box, res):
    """Row-major grid nodes, as the program lays out its output grids."""
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, res)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def subsample(rng, count, n, where=None):
    """Seeded choice of ``n`` indices out of ``count`` (optionally masked)."""
    pool = np.arange(count) if where is None else np.flatnonzero(where)
    return np.sort(rng.choice(pool, size=min(n, len(pool)), replace=False))


def gaussian(params):
    al, be, p, q = params
    return lambda y: math.exp(-al * (y[0] - p) ** 2 - be * (y[1] - q) ** 2)


def bump_coeff(half):
    """(1-(x1/h)^2)^4 (1-(x2/h)^2)^4 on the box [-h, h]^2, zero outside."""
    def c(x):
        if abs(x[0]) > half or abs(x[1]) > half:
            return 0.0
        return (1 - (x[0] / half) ** 2) ** 4 * (1 - (x[1] / half) ** 2) ** 4
    return c


# ---------------------------------------------------------------------------
# pendulum {[x2, -sin(x1)]}: the unit-time flow of xi*X is the time-xi flow
# of X, so every flow an output point needs lies on its own orbit.


def _pendulum(t, y):
    return [y[1], -math.sin(y[0])]


class Orbit:
    """Dense DOP853 solution t -> Phi_t(x0) of the pendulum field on [-T, T]."""

    def __init__(self, x0, T):
        kw = dict(method="DOP853", rtol=ODE_TOL, atol=ODE_TOL, dense_output=True)
        self.fwd = solve_ivp(_pendulum, (0.0, T), x0, **kw).sol
        self.back = solve_ivp(_pendulum, (0.0, -T), x0, **kw).sol

    def __call__(self, t):
        return self.fwd(t) if t >= 0 else self.back(t)


def energy(p):
    """The pendulum Hamiltonian, constant along every leaf."""
    p = np.atleast_2d(p)
    return 0.5 * p[:, 1] ** 2 - np.cos(p[:, 0])


def pendulum_density(params):
    c, m, k = params
    return lambda xi, y: math.exp(-c * (xi - m) ** 2 - k * (y[0] ** 2 + y[1] ** 2))


def pendulum_op(a, f, x):
    """Op(a)f(x) = int a(xi, Phi_-xi(x)) f(Phi_-xi(x)) dxi."""
    dens, (lo, hi) = pendulum_density(a["params"]), a["xi_box"][0]
    orbit = Orbit(x, max(abs(lo), abs(hi)) + 0.1)

    def integrand(xi):
        y = orbit(-xi)
        return dens(xi, y) * f(y)

    return quad(integrand, lo, hi, **QUAD_KW)[0]


def pendulum_op2(a, b, f, x):
    """Op(a)Op(b)f(x): back flows compose along the orbit of x."""
    da, (alo, ahi) = pendulum_density(a["params"]), a["xi_box"][0]
    db, (blo, bhi) = pendulum_density(b["params"]), b["xi_box"][0]
    T = max(abs(alo), abs(ahi)) + max(abs(blo), abs(bhi)) + 0.1
    orbit = Orbit(x, T)

    def inner(xi):
        y = orbit(-xi)

        def g(eta):
            z = orbit(-xi - eta)
            return db(eta, z) * f(z)

        return da(xi, y) * quad(g, blo, bhi, **QUAD_KW)[0]

    return quad(inner, alo, ahi, **QUAD_KW)[0]


def pendulum_adjoint(a, k, y):
    """adjoint(a^t)k(y) = int a(xi, y) det DPhi_xi(y) k(Phi_xi(y)) dxi.

    The pendulum field is divergence-free, so det DPhi_xi = 1 (Liouville).
    """
    dens, (lo, hi) = pendulum_density(a["params"]), a["xi_box"][0]
    orbit = Orbit(y, max(abs(lo), abs(hi)) + 0.1)
    return quad(lambda xi: dens(xi, y) * k(orbit(xi)), lo, hi, **QUAD_KW)[0]


def nonlinear_errors(spec, out, rng, n=4):
    """Per-output max abs error of the ``nonlinear`` workload."""
    f, k = gaussian(spec["f"]["params"]), gaussian(spec["k"]["params"])
    a, b = spec["a"], spec["b"]
    box = [[-2.0, 2.0], [-2.0, 2.0]]
    errs = {}

    pts = grid_points(box, (41, 41))
    idx = subsample(rng, len(pts), n)
    got = out["op_a"].ravel()
    errs["op_a"] = max(abs(got[i] - pendulum_op(a, f, pts[i])) for i in idx)

    c = bump_coeff(1.0)
    xi0 = spec["d_xi0"]
    live = np.array([c(p) != 0.0 for p in pts])
    idx = subsample(rng, len(pts), n, where=live)
    got = out["op_da"].ravel()
    worst = 0.0
    for i in idx:
        under = Orbit(pts[i], xi0 + 0.1)(-xi0)
        want = 0.0
        if np.all(np.abs(under) <= 2.0):
            want = c(pts[i]) * pendulum_op(a, f, under)
        worst = max(worst, abs(got[i] - want))
    errs["op_da"] = worst

    pts = grid_points(box, (9, 9))
    idx = subsample(rng, len(pts), max(1, n // 2))
    got = out["op_ab"].ravel()
    errs["op_ab"] = max(abs(got[i] - pendulum_op2(a, b, f, pts[i])) for i in idx)

    pts = grid_points(box, (21, 21))
    idx = subsample(rng, len(pts), n)
    got = out["adj_at"].ravel()
    errs["adj_at"] = max(abs(got[i] - pendulum_adjoint(a, k, pts[i])) for i in idx)

    leaf = out["leaf"]
    errs["leaf"] = float(np.max(np.abs(energy(leaf) - energy(spec["leaf_x0"]))))
    return errs


# ---------------------------------------------------------------------------
# multi-f: canonical gauss_R on rotations (back flow = rotation by -xi) and
# gauss_C on commuting translations (back flow = x - xi).


def _rot(x, t):
    """Rotation of x by the angle -t."""
    c, s = math.cos(t), math.sin(t)
    return (c * x[0] + s * x[1], -s * x[0] + c * x[1])


def gauss_r_op(f, x):
    return quad(lambda xi: math.exp(-18 * (xi - 0.8) ** 2) * f(_rot(x, xi)),
                -0.45, 2.05, **QUAD_KW)[0]


def gauss_c_op(f, x):
    def integrand(x2, x1):
        return (math.exp(-10 * (x1 - 0.2) ** 2 - 10 * (x2 + 0.1) ** 2)
                * f((x[0] - x1, x[1] - x2)))

    return dblquad(integrand, -1.1, 1.5, -1.4, 1.2, epsabs=1e-13, epsrel=1e-13)[0]


def multi_f_errors(spec, out, rng, n=3):
    """Per-output max abs error of the ``multi-f`` workload."""
    pts = grid_points([[-2.0, 2.0], [-2.0, 2.0]], (41, 41))
    errs = {}
    fns = [gaussian(g["params"]) for g in spec["f"]]
    for name, op in (("gauss_R", gauss_r_op), ("gauss_C", gauss_c_op)):
        for i, f in enumerate(fns):
            got = out[f"{name}/{i}"].ravel()
            idx = subsample(rng, len(pts), n)
            errs[f"{name}/{i}"] = max(abs(got[j] - op(f, pts[j])) for j in idx)

    c = bump_coeff(1.8)
    live = np.array([c(p) != 0.0 for p in pts])
    idx = subsample(rng, len(pts), n, where=live)
    got = out["dirac_rot90*gauss_R/0"].ravel()
    worst = 0.0
    for j in idx:
        under = _rot(pts[j], ROT90_XI)
        want = 0.0
        if max(abs(under[0]), abs(under[1])) <= 2.0:
            want = c(pts[j]) * gauss_r_op(fns[0], under)
        worst = max(worst, abs(got[j] - want))
    errs["dirac_rot90*gauss_R/0"] = worst
    return errs
