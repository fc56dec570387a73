"""Every map below the public entry points flows at the caller's settings.

A spy on ``flow._integrate`` records the ``FlowConfig`` of each flow call;
under a non-default config on a non-affine field, every pairing path must
make its calls at that config only, composed and transposed bisections
included.
"""

import numpy as np
import pytest

from foliops import bisubmersion as bis
from foliops import flow
from foliops import kernel as ker
from foliops import op as oper
from foliops.expr import parse_field, parse_scalar
from foliops.flow import FlowConfig
from foliops.foliation import SingularFoliation, leaf_sample

CFG = FlowConfig(abs_tol=1e-4, rel_tol=1e-4)
BOX = [[-2.0, 2.0], [-2.0, 2.0]]


@pytest.fixture
def pendulum():
    return SingularFoliation(dim=2, chart_box=BOX,
                             generators=[parse_field("[x2, -sin(x1)]", 2)],
                             xi_radius=[1.0])


@pytest.fixture
def seen(monkeypatch):
    """The config of every flow call, in call order."""
    cfgs = []
    integrate = flow._integrate

    def spy(foliation, xi, x, cfg, *args):
        cfgs.append(cfg)
        return integrate(foliation, xi, x, cfg, *args)

    monkeypatch.setattr(flow, "_integrate", spy)
    return cfgs


def _kernels(F, ctx):
    U = bis.make_path_holonomy(F)
    S, T = (bis.constant_bisection(U, [xi]) for xi in (0.3, 0.2))
    coeff = parse_scalar("(1-x1^2)^4*(1-x2^2)^4", 2)
    box = [[-1.0, 1.0], [-1.0, 1.0]]
    dS, dT = (ker.dirac(B, coeff, coeff_box=box, ctx=ctx) for B in (S, T))
    dSt = ker.dirac(bis.transpose_bisection(S, ctx.flow), coeff, coeff_box=box,
                    ctx=ctx)
    a, b = (ker.density(U, parse_scalar(f"exp(-9*(x1-{c})^2)", 3),
                        xi_box=[[-0.6, 0.6]], quad_order=6)
            for c in (0.1, -0.1))
    return U, dS, dT, dSt, a, b


def test_every_pairing_path_flows_at_the_context_settings(pendulum, seen):
    ctx = ker.PairingCtx(ker.QuadratureConfig(order=6), CFG)
    U, dS, dT, dSt, a, b = _kernels(pendulum, ctx)
    pts = oper.grid_points([[-1.0, 1.0], [-1.0, 1.0]], (4, 4))

    def f(p):
        return np.exp(-np.sum(p**2, axis=1))

    kernels = [dS, dSt, a,
               ker.convolve(dS, dT, ctx),  # composed bisection
               ker.convolve(dSt, dT, ctx),  # composed with a transposed one
               ker.convolve(dS, a, ctx), ker.convolve(a, dT, ctx),
               ker.convolve(a, b, ctx)]
    for kernel in kernels:
        assert np.any(np.isfinite(oper.op_values(kernel, f, pts, ctx)))
        oper.support_bound(kernel, [[-0.5, 0.5], [-0.5, 0.5]], ctx)
    for kernel in (ker.transpose(a), ker.transpose(ker.convolve(a, b, ctx)),
                   ker.r_to_s_convert(a, ctx=ctx)):
        oper.adjoint_values(kernel, f, pts, ctx)
    pi = bis.make_addition_morphism(U, cfg=CFG)
    pushed = ker.pushforward(pi, ker.convolve(a, b, ctx), ctx)
    oper.op_values(pushed, f, pts, ctx)
    leaf = leaf_sample(pendulum, [1.0, 0.0], budget=40, cfg=CFG, seed=1)
    leaf.replay(len(leaf.points) - 1)
    assert seen and all(cfg is CFG for cfg in seen)
