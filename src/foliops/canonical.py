"""Built-in desk-scale foliations, kernels and test functions.

Four canonical foliations drive the verification suites: translations on
an interval, rotations and a commuting pair on a square, scalings on an
interval.  Kernel fixtures are chosen so that quadrature sees analytic
integrands whose tails are negligible at their support-box edges.
"""

from __future__ import annotations

import math

import numpy as np

from . import bisubmersion as bis
from . import kernel as ker
from .expr import parse_field, parse_scalar
from .foliation import SingularFoliation

__all__ = [
    "foliation_T",
    "foliation_R",
    "foliation_S",
    "foliation_C",
    "foliation_noninvolutive",
    "plateau_fn",
    "bump_fn",
    "canonical_workspace",
    "LEAF_SWEEP_COUNT",
]

LEAF_SWEEP_COUNT = 4096  # circle samples; mesh ~ 2*pi/4096


def foliation_T():
    """Translations on [-3, 3]."""
    return SingularFoliation(
        dim=1, chart_box=[[-3.0, 3.0]], generators=[parse_field("[1]", 1)],
        xi_radius=[2.0],
    )


def foliation_R():
    """Rotations on [-2, 2]^2."""
    return SingularFoliation(
        dim=2, chart_box=[[-2.0, 2.0], [-2.0, 2.0]],
        generators=[parse_field("[-x2, x1]", 2)], xi_radius=[2.5],
    )


def foliation_S():
    """Scalings on [-2, 2]; flows reach 2e, so the escape box is wide."""
    return SingularFoliation(
        dim=1, chart_box=[[-2.0, 2.0]], generators=[parse_field("[x1]", 1)],
        xi_radius=[1.6], escape_factor=6.0,
    )


def foliation_C():
    """Commuting coordinate translations on [-2, 2]^2."""
    return SingularFoliation(
        dim=2, chart_box=[[-2.0, 2.0], [-2.0, 2.0]],
        generators=[parse_field("[1, 0]", 2), parse_field("[0, 1]", 2)],
        xi_radius=[1.8, 1.8],
    )


def foliation_noninvolutive():
    """{[1,0], [0,x1]}: bracket (0,1) leaves the span where x1 = 0."""
    return SingularFoliation(
        dim=2, chart_box=[[-2.0, 2.0], [-2.0, 2.0]],
        generators=[parse_field("[1, 0]", 2), parse_field("[0, x1]", 2)],
        xi_radius=[1.0, 1.0],
    )


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def plateau_fn(inner, outer):
    """C^2 cutoff: 1 on the inner box, 0 outside the outer box."""
    inner = np.atleast_2d(np.asarray(inner, float))
    outer = np.atleast_2d(np.asarray(outer, float))

    def fn(pts):
        p = np.atleast_2d(pts)
        out = np.ones(len(p))
        for j in range(p.shape[1]):
            lo = _smoothstep((p[:, j] - outer[j, 0]) / (inner[j, 0] - outer[j, 0]))
            hi = _smoothstep((outer[j, 1] - p[:, j]) / (outer[j, 1] - inner[j, 1]))
            out = out * lo * hi
        return out

    fn.key = ("plateau", inner.tobytes(), outer.tobytes())  # for plan keys
    return fn


def bump_fn(box):
    """Quartic bump supported exactly on the box, 1 at its center."""
    box = np.atleast_2d(np.asarray(box, float))

    def fn(pts):
        p = np.atleast_2d(pts)
        out = np.ones(len(p))
        for j in range(p.shape[1]):
            mid = 0.5 * (box[j, 0] + box[j, 1])
            half = 0.5 * (box[j, 1] - box[j, 0])
            u = (p[:, j] - mid) / half
            out = out * np.where(np.abs(u) < 1.0, (1.0 - u**2) ** 4, 0.0)
        return out

    return fn


def canonical_workspace():
    """The named registry the verification suites and CLI defaults use."""
    from .workspace import Workspace

    T = foliation_T()
    R = foliation_R()
    S = foliation_S()
    C = foliation_C()

    U_T = bis.make_path_holonomy(T)
    U_R = bis.make_path_holonomy(R)
    U_S = bis.make_path_holonomy(S)
    U_C = bis.make_path_holonomy(C)

    h = 2.0 * math.pi / LEAF_SWEEP_COUNT

    bisections = {
        "shift1": bis.constant_bisection(U_T, [1.0], label="shift1"),
        "shift_neg": bis.constant_bisection(U_T, [-0.6], label="shift_neg"),
        "id_T": bis.identity_bisection(U_T),
        "rot90": bis.constant_bisection(U_R, [(LEAF_SWEEP_COUNT // 4) * h],
                                        label="rot90"),
        "rot45": bis.constant_bisection(U_R, [(LEAF_SWEEP_COUNT // 8) * h],
                                        label="rot45"),
        "rot_small": bis.constant_bisection(U_R, [0.7], label="rot_small"),
    }

    kernels = {
        "dirac_shift": ker.dirac(
            bisections["shift1"], parse_scalar("(1-((x1-1)/2.4)^2)^4", 1),
            side="r", coeff_box=[[-1.4, 3.4]],
        ),
        "dirac_shift2": ker.dirac(
            bisections["shift_neg"], parse_scalar("(1-((x1+0.6)/2.2)^2)^4", 1),
            side="r", coeff_box=[[-2.8, 1.6]],
        ),
        "dirac_identity": ker.dirac(
            bisections["id_T"], plateau_fn([[-1.0, 1.0]], [[-2.0, 2.0]]),
            side="r", coeff_box=[[-2.0, 2.0]],
        ),
        "gauss_T": ker.density(
            U_T, parse_scalar("exp(-25*(x1-0.3)^2)", 2),
            xi_box=[[-0.8, 1.4]], base_box=[[-12.0, 12.0]],
        ),
        "gauss_T2": ker.density(
            U_T, parse_scalar("exp(-20*(x1+0.2)^2)", 2),
            xi_box=[[-1.4, 1.0]], base_box=[[-12.0, 12.0]],
        ),
        "gauss_T_based": ker.density(
            U_T, parse_scalar("exp(-25*(x1-0.3)^2)*(1+0.3*sin(x2))", 2),
            xi_box=[[-0.8, 1.4]], base_box=[[-12.0, 12.0]],
        ),
        "dirac_rot90": ker.dirac(
            bisections["rot90"],
            parse_scalar("(1-(x1/1.8)^2)^4*(1-(x2/1.8)^2)^4", 2),
            side="r", coeff_box=[[-1.8, 1.8], [-1.8, 1.8]],
        ),
        "dirac_rot45": ker.dirac(
            bisections["rot45"],
            parse_scalar("(1-(x1/1.3)^2)^4*(1-(x2/1.3)^2)^4", 2),
            side="r", coeff_box=[[-1.3, 1.3], [-1.3, 1.3]],
        ),
        "dirac_rot_small": ker.dirac(
            bisections["rot_small"],
            parse_scalar("(1-(x1/1.3)^2)^4*(1-(x2/1.3)^2)^4", 2),
            side="r", coeff_box=[[-1.3, 1.3], [-1.3, 1.3]],
        ),
        "gauss_R": ker.density(
            U_R, parse_scalar("exp(-18*(x1-0.8)^2)", 3),
            xi_box=[[-0.45, 2.05]], base_box=[[-8.0, 8.0], [-8.0, 8.0]],
        ),
        "gauss_R2": ker.density(
            U_R, parse_scalar("exp(-15*(x1+0.3)^2)", 3),
            xi_box=[[-1.65, 1.05]], base_box=[[-8.0, 8.0], [-8.0, 8.0]],
        ),
        "gauss_S": ker.density(
            U_S, parse_scalar("exp(-25*(x1-0.4)^2)*exp(-0.3*x2^2)", 2),
            xi_box=[[-0.7, 1.5]], base_box=[[-12.0, 12.0]],
        ),
        "gauss_C": ker.density(
            U_C, parse_scalar("exp(-10*(x1-0.2)^2-10*(x2+0.1)^2)", 4),
            xi_box=[[-1.1, 1.5], [-1.4, 1.2]],
            base_box=[[-8.0, 8.0], [-8.0, 8.0]], quad_order=20,
        ),
        "gauss_C2": ker.density(
            U_C, parse_scalar("exp(-10*(x1+0.3)^2-10*(x2-0.2)^2)", 4),
            xi_box=[[-1.6, 1.0], [-1.1, 1.5]],
            base_box=[[-8.0, 8.0], [-8.0, 8.0]], quad_order=20,
        ),
    }

    functions = {
        "f_T": parse_scalar("exp(-1.2*(x1-0.5)^2)", 1),
        "f_T2": parse_scalar("exp(-0.8*(x1+0.3)^2)", 1),
        "f_R": parse_scalar("exp(-(x1-0.8)^2-1.5*(x2-0.3)^2)", 2),
        "f_S": parse_scalar("exp(-8*(x1-0.2)^2)", 1),
        "g_S": parse_scalar("exp(-8*(x1+0.3)^2)", 1),
        "f_C": parse_scalar("exp(-1.1*(x1-0.4)^2-0.9*(x2+0.3)^2)", 2),
        "bump01_T": bump_fn([[0.0, 1.0]]),
        "bump_T": bump_fn([[-1.0, 1.0]]),
    }

    return Workspace(
        foliations={"T": T, "R": R, "S": S, "C": C,
                    "noninvolutive": foliation_noninvolutive()},
        bisubmersions={"U_T": U_T, "U_R": U_R, "U_S": U_S, "U_C": U_C},
        bisections=bisections,
        kernels=kernels,
        functions=functions,
    )
