"""Machine-checkable verification suites over the canonical fixtures.

Each suite measures one family of structural identities at a pinned
tolerance and reports ``{check, status, measured, tolerance}`` entries.
Order-of-convergence checks pass when the measured order is at least the
stated tolerance; every other check passes when the measured value is at
most the stated tolerance.  Suites read their objects from the workspace
by name, so a user config can shadow a fixture (for instance to run a
negative control with a corrupted kernel).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import bisubmersion as bis
from . import flow as _flow
from . import kernel as ker
from . import op as oper
from .canonical import LEAF_SWEEP_COUNT, bump_fn, canonical_workspace
from .errors import BracketNotZero
from .expr import parse_field
from .foliation import SingularFoliation, involutivity_check, leaf_sweep
from .kernel import gauss_nodes

__all__ = ["CheckResult", "SUITES", "run_suites", "report_to_json"]


@dataclass
class CheckResult:
    check: str
    status: str  # "pass" | "fail"
    measured: float
    tolerance: float

    @classmethod
    def bounded(cls, check, measured, tolerance):
        ok = np.isfinite(measured) and measured <= tolerance
        return cls(check, "pass" if ok else "fail", float(measured), tolerance)

    @classmethod
    def at_least(cls, check, measured, tolerance):
        ok = np.isfinite(measured) and measured >= tolerance
        return cls(check, "pass" if ok else "fail", float(measured), tolerance)


def _grid(box, res):
    return oper.grid_points(np.atleast_2d(np.asarray(box, float)), res)


def _sup(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# --- 1. closed-form flows --------------------------------------------------


def suite_flows(ws):
    ctx = ws.ctx()
    S = ws.get("foliations", "S")
    v = _flow.exp_flow(S, [1.0], [2.0], ctx.flow)
    r1 = CheckResult.bounded("scaling flow exp((1),2) = 2e",
                             abs(v[0] - 2.0 * math.e), 1e-8)
    R = ws.get("foliations", "R")
    w = _flow.exp_flow(R, [math.pi / 2.0], [1.0, 0.0], ctx.flow)
    r2 = CheckResult.bounded(
        "rotation flow exp((pi/2),(1,0)) = (0,1)",
        float(np.linalg.norm(w - np.array([0.0, 1.0]))), 1e-8,
    )
    # The canonical families are affine and take the exact flow; this
    # non-affine field keeps the general integrator under check.
    Q = SingularFoliation(dim=1, chart_box=[[-2.0, 2.0]],
                          generators=[parse_field("[x1^2]", 1)], xi_radius=[1.0])
    u = _flow.exp_flow(Q, [0.5], [1.0], ctx.flow)
    r3 = CheckResult.bounded("quadratic flow exp((0.5),1) = 1/(1-0.5) = 2",
                             abs(u[0] - 2.0), 1e-8)
    return [r1, r2, r3]


# --- 2. translation operators ---------------------------------------------


def suite_translation(ws):
    ctx = ws.ctx()
    a = ws.get("kernels", "dirac_rot90")
    f = ws.get("functions", "f_R")
    S = a.atoms[0].bisection
    xi0 = float(S.section(np.zeros((1, 2)))[0, 0])
    pts = _grid([[-2, 2], [-2, 2]], (33, 33))
    got = oper.op_values(a, f, pts, ctx)
    rot = np.stack(
        [
            math.cos(xi0) * pts[:, 0] + math.sin(xi0) * pts[:, 1],
            -math.sin(xi0) * pts[:, 0] + math.cos(xi0) * pts[:, 1],
        ],
        axis=1,
    )
    cva = np.zeros(len(pts))
    valid = S.in_base(rot)
    cva[valid] = a.atoms[0].coeff_fn(pts[valid])
    want = cva * f(rot, check_finite=False)
    return [
        CheckResult.bounded(
            "Op(c Dirac) equals c * (f o rotation by -xi0)", _sup(got, want), 1e-8
        )
    ]


# --- 3. Op homomorphism over atom-type pairs --------------------------------


def _compose_check(ws, ctx, name_a, name_b, f, pts, label, tol=1e-6):
    a = ws.get("kernels", name_a)
    b = ws.get("kernels", name_b)
    ab = ker.convolve(a, b, ctx)
    lhs = oper.op_values(ab, f, pts, ctx)
    rhs = oper.op_values(a, lambda q: oper.op_values(b, f, q, ctx), pts, ctx)
    return CheckResult.bounded(f"Op(a*b) = Op(a)Op(b) [{label}]", _sup(lhs, rhs), tol)


def suite_composition(ws):
    # The two density*density checks read 0.0 by construction: a lazy
    # convolution pairs as Op(a) of Op(b) on both sides.  The independent
    # check is test_source_side_convolution_matches_quadrature_reference
    # in tests/test_op.py.
    ctx = ws.ctx()
    fT = ws.get("functions", "f_T")
    fR = ws.get("functions", "f_R")
    ptsT = _grid([[-1.5, 1.5]], (41,))
    ptsR = _grid([[-1.2, 1.2], [-1.2, 1.2]], (13, 13))
    return [
        _compose_check(ws, ctx, "dirac_shift", "dirac_shift2", fT, ptsT,
                       "T dirac*dirac"),
        _compose_check(ws, ctx, "dirac_shift", "gauss_T", fT, ptsT,
                       "T dirac*density"),
        _compose_check(ws, ctx, "gauss_T", "dirac_shift", fT, ptsT,
                       "T density*dirac"),
        _compose_check(ws, ctx, "gauss_T", "gauss_T2", fT, ptsT,
                       "T density*density"),
        _compose_check(ws, ctx, "dirac_rot90", "dirac_rot_small", fR, ptsR,
                       "R dirac*dirac"),
        _compose_check(ws, ctx, "gauss_R", "gauss_R2", fR, ptsR,
                       "R density*density"),
    ]


# --- 4. associativity -------------------------------------------------------


def suite_associativity(ws):
    ctx = ws.ctx()
    a = ws.get("kernels", "dirac_shift")
    b = ws.get("kernels", "gauss_T")
    c = ws.get("kernels", "gauss_T2")
    f = ws.get("functions", "f_T")
    pts = _grid([[-1.5, 1.5]], (31,))
    lhs = oper.op_values(ker.convolve(ker.convolve(a, b, ctx), c, ctx), f, pts, ctx)
    rhs = oper.op_values(ker.convolve(a, ker.convolve(b, c, ctx), ctx), f, pts, ctx)
    return [
        CheckResult.bounded("Op((a*b)*c) = Op(a*(b*c)) [T mixed triple]",
                            _sup(lhs, rhs), 1e-5)
    ]


# --- 5. pushforward invariance ----------------------------------------------


def suite_pushforward(ws):
    ctx = ws.ctx()
    out = []
    for tag, Uname, ka, kb, fname, box, res, order in (
        ("T", "U_T", "gauss_T", "gauss_T2", "f_T", [[-2, 2]], (41,), None),
        ("C", "U_C", "gauss_C", "gauss_C2", "f_C", [[-1.2, 1.2], [-1.2, 1.2]],
         (3, 3), 20),
    ):
        U = ws.get("bisubmersions", Uname)
        pi = bis.make_addition_morphism(U, cfg=ctx.flow)
        ab = ker.convolve(ws.get("kernels", ka), ws.get("kernels", kb), ctx)
        pushed = ker.pushforward(pi, ab, ctx, quad_order=order)
        f = ws.get("functions", fname)
        pts = _grid(box, res)
        lhs = oper.op_values(pushed, f, pts, ctx)
        rhs = oper.op_values(ab, f, pts, ctx)
        out.append(
            CheckResult.bounded(f"Op(pi_*(a*b)) = Op(a*b) [{tag}]",
                                _sup(lhs, rhs), 1e-6)
        )
    return out


# --- 6. smoothing ideal -----------------------------------------------------


def _fd2(dens, zeta0, y0, h, axis):
    def D(dz, dy):
        p = np.array([[zeta0 + dz, y0 + dy]])
        return float(dens(p, None)[0])

    if axis == 0:
        return (D(h, 0) - 2 * D(0, 0) + D(-h, 0)) / h**2
    return (D(0, h) - 2 * D(0, 0) + D(0, -h)) / h**2


def suite_smoothing(ws):
    ctx = ws.ctx()
    U = ws.get("bisubmersions", "U_T")
    pi = bis.make_addition_morphism(U, cfg=ctx.flow)
    ab = ker.convolve(ws.get("kernels", "gauss_T"), ws.get("kernels", "gauss_T2"),
                      ctx)
    reduced = ker.pushforward(pi, ab, ctx)
    structural = all(isinstance(a, ker.DensityAtom) for a in reduced.atoms)
    out = [
        CheckResult.bounded(
            "pi_*(density*density) is a smooth density atom",
            0.0 if structural else 1.0, 0.5,
        )
    ]
    dens = reduced.atoms[0].dens_fn
    orders = []
    bound = 0.0
    for axis, z0, y0 in ((0, 0.15, 0.2), (1, 0.15, 0.2)):
        fd = [_fd2(dens, z0, y0, h, axis) for h in (0.16, 0.08, 0.04, 0.02)]
        bound = max(bound, max(abs(v) for v in fd))
        # asymptotic rate from the finest refinement pair
        d1 = abs(fd[1] - fd[2])
        d2 = abs(fd[2] - fd[3])
        orders.append(math.log2(d1 / d2) if d2 > 0 else 4.0)
    out.append(
        CheckResult.at_least(
            "second differences of the reduced density converge at order >= 1.9",
            min(orders), 1.9,
        )
    )
    out.append(
        CheckResult.bounded("second differences stay bounded", bound, 1e3)
    )
    dD = ker.convolve(ws.get("kernels", "gauss_T"), ws.get("kernels", "dirac_shift"),
                      ctx)
    structural2 = all(isinstance(a, ker.DensityAtom) for a in dD.atoms)
    out.append(
        CheckResult.bounded(
            "density*dirac is structurally a smooth density atom",
            0.0 if structural2 else 1.0, 0.5,
        )
    )
    return out


# --- 7. transpose anti-homomorphism via the adjoint action -------------------


def suite_transpose(ws):
    # A consistency check only: both sides reduce to the same nested density
    # adjoints, so it reads 0.0.  The independent check is
    # test_adjoint_matches_quadrature_reference_on_S in tests/test_op.py.
    ctx = ws.ctx()
    a = ws.get("kernels", "gauss_T")
    b = ws.get("kernels", "gauss_T2")
    k = ws.get("functions", "f_T")
    pts = _grid([[-1.5, 1.5]], (31,))
    ab_t = ker.transpose(ker.convolve(a, b, ctx))
    bt_at = ker.convolve(ker.transpose(b), ker.transpose(a), ctx)
    lhs = oper.adjoint_values(ab_t, k, pts, ctx)
    rhs = oper.adjoint_values(bt_at, k, pts, ctx)
    return [
        CheckResult.bounded("adjoint of (a*b)^t = adjoint of b^t*a^t [T]",
                            _sup(lhs, rhs), 1e-6)
    ]


# --- 8. transversality and the adjoint identity ------------------------------


def suite_adjoint(ws):
    ctx = ws.ctx()
    a = ws.get("kernels", "gauss_S")
    f = ws.get("functions", "f_S")
    g = ws.get("functions", "g_S")
    conv = ker.r_to_s_convert(a, ctx=ctx)
    nodes, w = gauss_nodes(np.array([[-2.0, 2.0]]), 80)
    lhs = float(np.sum(w * oper.op_values(a, f, nodes, ctx)
                       * g(nodes, check_finite=False)))
    rhs = float(np.sum(w * oper.op_values(ker.transpose(conv), g, nodes, ctx)
                       * f(nodes, check_finite=False)))
    out = [
        CheckResult.bounded("<Op(a)f, g> = <f, Op(a~^t)g> [S]",
                            abs(lhs - rhs), 1e-6)
    ]
    # Conversion factor against the closed-form flow Jacobian e^xi.
    atom = a.atoms[0]
    catom = conv.atoms[0]
    params = np.array([[x, y] for x in (-0.4, 0.1, 0.6, 1.1) for y in (-1.0, 0.5)])
    base = atom.dens_fn(params, None)
    converted = catom.dens_fn(params, None)
    factor = converted / base
    out.append(
        CheckResult.bounded("conversion factor matches e^xi [S]",
                            _sup(factor, np.exp(params[:, 0])), 1e-7)
    )
    return out


# --- 9. independence of the reference density --------------------------------


def suite_mu_independence(ws):
    ctx = ws.ctx()
    a = ws.get("kernels", "gauss_T")
    T = ws.get("foliations", "T")
    k = oper.GridFunction.from_fn(lambda p: np.abs(p[:, 0]), T.chart_box, (601,))
    pts = _grid([[-2, 2]], (41,))
    conv = ker.r_to_s_convert(a, ctx=ctx)
    route_leb = oper.adjoint_values(conv, k, pts, ctx)

    def weight(p):
        p = np.atleast_2d(p)
        return 1.0 + p[:, 0] ** 2 / 10.0

    conv_w = ker.r_to_s_convert(a, mu_weight=weight, ctx=ctx)
    route_w = oper.adjoint_values(conv_w, k, pts, ctx, mu_weight=weight)
    return [
        CheckResult.bounded(
            "Op(a)k agrees for Lebesgue and (1+x^2/10)*Lebesgue [T]",
            _sup(route_leb, route_w), 1e-6,
        )
    ]


# --- 10. support propagation --------------------------------------------------


def suite_support(ws):
    ctx = ws.ctx()
    a = ws.get("kernels", "dirac_shift")
    f_box = np.array([[0.0, 1.0]])
    f = bump_fn(f_box)
    bound = oper.support_bound(a, f_box, ctx)
    covers = bound is not None and bound[0, 0] <= 1.0 and bound[0, 1] >= 2.0
    out = [
        CheckResult.bounded("support bound covers the translated support [T]",
                            0.0 if covers else 1.0, 0.5)
    ]
    xs = np.linspace(-3.0, 3.0, 601)
    outside = xs[(xs < bound[0, 0]) | (xs > bound[0, 1])][:, None]
    vals = oper.op_values(a, f, outside, ctx)
    out.append(
        CheckResult.bounded("|Op(a)f| vanishes outside the bound [T]",
                            float(np.nanmax(np.abs(vals))), 1e-10)
    )
    empty = oper.support_bound(a, None, ctx)
    out.append(
        CheckResult.bounded("empty input support gives an empty bound",
                            0.0 if empty is None else 1.0, 0.5)
    )
    return out


# --- 11. leaf locality and restriction ----------------------------------------


def suite_leaf(ws):
    ctx = ws.ctx()
    R = ws.get("foliations", "R")
    h = 2.0 * math.pi / LEAF_SWEEP_COUNT
    leaf = leaf_sweep(R, [1.0, 0.0], [h], LEAF_SWEEP_COUNT, ctx.flow)
    f = ws.get("functions", "f_R")
    fvals = f(leaf.points, check_finite=False)

    # off-leaf invariance for a density kernel
    a_dens = ws.get("kernels", "gauss_R")

    def perturb(p):
        p = np.atleast_2d(p)
        rad = np.linalg.norm(p, axis=1)
        u = (rad - 1.5) / 0.35
        return np.where(np.abs(u) < 1.0, (1.0 - u**2) ** 4, 0.0)

    base = oper.op_values(a_dens, f, leaf.points, ctx)
    pert = oper.op_values(
        a_dens,
        lambda p: f(np.atleast_2d(p), check_finite=False) + perturb(p),
        leaf.points, ctx,
    )
    out = [
        CheckResult.bounded("off-leaf perturbation leaves Op(a)f on L unchanged",
                            _sup(base, pert), 1e-7)
    ]

    # ambient/leaf compatibility for a lattice-aligned translation kernel
    a = ws.get("kernels", "dirac_rot90")
    on_leaf = oper.apply_on_leaf(a, leaf, fvals, ctx)
    ambient = oper.op_values(a, f, leaf.points, ctx)
    out.append(
        CheckResult.bounded("(Op(a)f)|_L = Op_L(a)(f|_L)", _sup(on_leaf, ambient),
                            1e-5)
    )

    # leafwise operator composition
    b = ws.get("kernels", "dirac_rot45")
    ab = ker.convolve(a, b, ctx)
    lhs = oper.apply_on_leaf(ab, leaf, fvals, ctx)
    rhs = oper.apply_on_leaf(a, leaf, oper.apply_on_leaf(b, leaf, fvals, ctx), ctx)
    out.append(
        CheckResult.bounded("(a*b)|_L = a|_L * b|_L on leaf values",
                            _sup(lhs, rhs), 1e-5)
    )
    return out


# --- 12. negative control -------------------------------------------------------


def suite_negative(ws):
    F = ws.get("foliations", "noninvolutive")
    rep = involutivity_check(F, samples=100, tol=1e-7)
    detected = (not rep.passed) and abs(rep.worst_point[0]) < 1e-6
    out = [
        CheckResult.bounded(
            "involutivity check fails on {[1,0],[0,x1]} at the x1=0 locus",
            0.0 if detected else 1.0, 0.5,
        )
    ]
    U = bis.make_path_holonomy(F)
    try:
        bis.make_addition_morphism(U)
        rejected = False
    except BracketNotZero:
        rejected = True
    out.append(
        CheckResult.bounded(
            "addition morphism rejects non-commuting generators",
            0.0 if rejected else 1.0, 0.5,
        )
    )
    return out


SUITES = {
    "flows": suite_flows,
    "translation": suite_translation,
    "composition": suite_composition,
    "associativity": suite_associativity,
    "pushforward": suite_pushforward,
    "smoothing": suite_smoothing,
    "transpose": suite_transpose,
    "adjoint": suite_adjoint,
    "mu-independence": suite_mu_independence,
    "support": suite_support,
    "leaf": suite_leaf,
    "negative": suite_negative,
}


def run_suites(names, overrides=None):
    """Run the named suites (or all) over canonical + override workspace."""
    ws = canonical_workspace().merged_with(overrides)
    if names in ("all", None):
        names = list(SUITES)
    elif isinstance(names, str):
        names = [names]
    report = []
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
        for res in SUITES[name](ws):
            report.append((name, res))
    return report


def report_to_json(report):
    return [
        {"suite": suite, **asdict(res)} for suite, res in report
    ]
