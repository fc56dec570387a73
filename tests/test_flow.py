"""Flows: closed forms, group laws, variational Jacobians, escapes.

Affine families take the exact backend through the public entry points;
the closed-form tests run them and the DP45 integrator, called directly,
side by side.
"""

import math

import numpy as np
import pytest

from foliops.canonical import canonical_workspace
from foliops.errors import ConfigError, DomainEscape, StepLimit
from foliops.expr import VectorFieldExpr, parse_field
from foliops.flow import (
    DEFAULT_FLOW,
    FlowConfig,
    _dp45,
    back_flow,
    back_flow_batch,
    exp_flow,
    exp_flow_batch,
    flow_jacobian,
    flow_jacobian_batch,
)
from foliops.foliation import SingularFoliation

TWO_E = 5.436563656918090  # 2 * e, closed-form solution of y' = y from 2
FAMILIES = ["T", "R", "S", "C", "noninvolutive"]


def _dp45_batch(direction, with_jacobian):
    """A batch entry point run through the DP45 integrator directly."""

    def run(F, xi, x):
        Y, J, escaped = _dp45(F, np.atleast_2d(np.asarray(xi, float)),
                              np.atleast_2d(np.asarray(x, float)), DEFAULT_FLOW,
                              direction, with_jacobian)
        assert not np.any(escaped)
        return (Y, J) if with_jacobian else Y

    return run


# (flow, back flow, flow Jacobian) per backend; the public entry points take
# the exact backend for the affine families below.
BACKENDS = {
    "exact": (exp_flow_batch, back_flow_batch, flow_jacobian_batch),
    "dp45": (_dp45_batch(1.0, False), _dp45_batch(-1.0, False),
             _dp45_batch(1.0, True)),
}


@pytest.fixture(scope="module")
def scaling():
    return SingularFoliation(dim=1, chart_box=[[-2, 2]],
                             generators=[parse_field("[x1]", 1)],
                             xi_radius=[1.6], escape_factor=6.0)


@pytest.fixture(scope="module")
def rotation():
    return SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                             generators=[parse_field("[-x2, x1]", 2)],
                             xi_radius=[2.5])


@pytest.fixture(scope="module")
def quadratic():
    """Non-affine: y' = xi y^2 flows x to x / (1 - xi x)."""
    return SingularFoliation(dim=1, chart_box=[[-2, 2]],
                             generators=[parse_field("[x1^2]", 1)],
                             xi_radius=[1.0])


@pytest.fixture(scope="module")
def canonical():
    return canonical_workspace().foliations


def test_scaling_closed_form(scaling):
    for name, (fwd, _, _) in BACKENDS.items():
        assert abs(fwd(scaling, [1.0], [2.0])[0, 0] - TWO_E) <= 1e-8, name


def test_zero_xi_is_identity(rotation):
    x = np.array([0.7, -1.1])
    assert np.array_equal(exp_flow(rotation, [0.0], x), x)
    for name, (fwd, _, _) in BACKENDS.items():
        assert np.array_equal(fwd(rotation, [0.0], x)[0], x), name


def test_rotation_closed_form(rotation):
    for name, (fwd, _, _) in BACKENDS.items():
        v = fwd(rotation, [math.pi / 2], [1.0, 0.0])[0]
        assert np.linalg.norm(v - [0.0, 1.0]) <= 1e-8, name


def test_back_flow_inverts(scaling):
    assert abs(back_flow(scaling, [1.0], [TWO_E])[0] - 2.0) <= 1e-8
    for name, (_, back, _) in BACKENDS.items():
        assert abs(back(scaling, [1.0], [TWO_E])[0, 0] - 2.0) <= 1e-8, name


def test_back_flow_rotation(rotation):
    for name, (_, back, _) in BACKENDS.items():
        v = back(rotation, [math.pi / 2], [0.0, 1.0])[0]
        assert np.linalg.norm(v - [1.0, 0.0]) <= 1e-8, name


def test_back_flow_round_trip_many(rotation):
    rng = np.random.default_rng(7)
    xi = rng.uniform(-1.5, 1.5, size=(100, 1))
    x = rng.uniform(-1.2, 1.2, size=(100, 2))
    for name, (fwd, back, _) in BACKENDS.items():
        rt = back(rotation, xi, fwd(rotation, xi, x))
        assert np.max(np.linalg.norm(rt - x, axis=1)) <= 1e-7, name


def test_group_law_single_generator(scaling):
    rng = np.random.default_rng(3)
    for _ in range(20):
        s, t = rng.uniform(-0.7, 0.7, size=2)
        x = rng.uniform(-1.5, 1.5, size=1)
        for name, (fwd, _, _) in BACKENDS.items():
            one = fwd(scaling, [s + t], x)
            two = fwd(scaling, [s], fwd(scaling, [t], x))
            assert np.linalg.norm(one - two) <= 1e-7, name


def test_flow_jacobian_identity(rotation):
    assert np.array_equal(flow_jacobian(rotation, [0.0], [0.5, 0.5]), np.eye(2))
    for name, (_, _, jac) in BACKENDS.items():
        assert np.array_equal(jac(rotation, [0.0], [0.5, 0.5])[1][0], np.eye(2)), name


def test_flow_jacobian_scaling_closed_form(scaling):
    for name, (_, _, jac) in BACKENDS.items():
        J = jac(scaling, [1.0], [0.5])[1][0]
        assert abs(J[0, 0] - math.e) <= 1e-8, name


def test_flow_jacobian_rotation_closed_form(rotation):
    th = 0.8
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    for name, (_, _, jac) in BACKENDS.items():
        J = jac(rotation, [th], [1.0, 0.2])[1][0]
        assert np.max(np.abs(J - R)) <= 1e-8, name
        assert abs(np.linalg.det(J) - 1.0) <= 1e-8, name


def _fd_flow_jacobian(F, xi, x, h=1e-6):
    """Finite-difference oracle for the variational-equation Jacobian."""
    x = np.asarray(x, float)
    n = len(x)
    J = np.empty((n, n))
    for j in range(n):
        dp = np.zeros(n)
        dp[j] = h
        J[:, j] = (exp_flow(F, xi, x + dp) - exp_flow(F, xi, x - dp)) / (2 * h)
    return J


def test_flow_jacobian_vs_finite_differences():
    F = SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                          generators=[parse_field("[x2, sin(x1)]", 2)],
                          xi_radius=[1.0])
    rng = np.random.default_rng(11)
    for _ in range(10):
        xi = rng.uniform(-0.8, 0.8, size=1)
        x = rng.uniform(-1.0, 1.0, size=2)
        J = flow_jacobian(F, xi, x)
        Jfd = _fd_flow_jacobian(F, xi, x)
        assert np.max(np.abs(J - Jfd)) <= 1e-7 * (1 + np.max(np.abs(J)))


def test_flow_jacobian_batch_two_generators_vs_finite_differences():
    # Two generators with non-constant DX: A = xi_1 DX_1 + xi_2 DX_2 in A J.
    F = SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                          generators=[parse_field("[x2, sin(x1)]", 2),
                                      parse_field("[x1*x2, 0]", 2)],
                          xi_radius=[1.0, 1.0])
    rng = np.random.default_rng(13)
    xi = rng.uniform(-0.8, 0.8, size=(10, 2))
    x = rng.uniform(-1.0, 1.0, size=(10, 2))
    _, J = flow_jacobian_batch(F, xi, x)
    for i in range(len(x)):
        Jfd = _fd_flow_jacobian(F, xi[i], x[i])
        assert np.max(np.abs(J[i] - Jfd)) <= 1e-7 * (1 + np.max(np.abs(J[i])))


def test_jacobian_determinant_positive(rotation, scaling):
    rng = np.random.default_rng(5)
    xi = rng.uniform(-1.5, 1.5, size=(50, 1))
    x = rng.uniform(-1.5, 1.5, size=(50, 2))
    xs = rng.uniform(-1.5, 1.5, size=(50, 1))
    for name, (_, _, jac) in BACKENDS.items():
        _, J = jac(rotation, xi, x)
        assert np.all(np.linalg.det(J) > 0), name
        _, Js = jac(scaling, xi, xs)
        assert np.all(np.linalg.det(Js) > 0), name


def _closed_form(name, xi, x):
    """Hand-written time-1 flows of the canonical families and their Jacobians."""
    N, n = x.shape
    a, b = xi[:, 0], xi[:, -1]
    if name in ("T", "C"):
        return x + xi, np.broadcast_to(np.eye(n), (N, n, n))
    if name == "S":
        return np.exp(a)[:, None] * x, np.exp(a)[:, None, None]
    if name == "R":
        c, s = np.cos(a), np.sin(a)
        J = np.stack([np.stack([c, -s], 1), np.stack([s, c], 1)], 1)
        return np.einsum("rij,rj->ri", J, x), J
    # noninvolutive {[1, 0], [0, x1]}: the generators do not commute
    Y = np.stack([x[:, 0] + a, x[:, 1] + b * x[:, 0] + a * b / 2], 1)
    one, zero = np.ones(N), np.zeros(N)
    J = np.stack([np.stack([one, zero], 1), np.stack([b, one], 1)], 1)
    return Y, J


@pytest.mark.parametrize("name", FAMILIES)
def test_closed_form_references(canonical, name):
    F = canonical[name]
    rng = np.random.default_rng(17)
    xi = rng.uniform(-1, 1, (500, F.num_generators)) * F.xi_radius
    x = rng.uniform(F.chart_box[:, 0], F.chart_box[:, 1], (500, F.dim))
    want, want_J = _closed_form(name, xi, x)
    Y, J = flow_jacobian_batch(F, xi, x)
    assert np.max(np.abs(exp_flow_batch(F, xi, x) - want)) <= 1e-12
    assert np.max(np.abs(Y - want)) <= 1e-12
    assert np.max(np.abs(J - want_J)) <= 1e-12
    back = back_flow_batch(F, xi, x)
    assert np.max(np.abs(back - _closed_form(name, -xi, x)[0])) <= 1e-12


@pytest.mark.parametrize("name", FAMILIES)
def test_exact_backend_matches_dp45(canonical, name):
    F = canonical[name]
    rng = np.random.default_rng(23)
    lo, hi = F.escape_box[:, 0], F.escape_box[:, 1]
    xi = rng.uniform(-1, 1, (1000, F.num_generators)) * F.xi_radius
    x = rng.uniform(lo, hi, (1000, F.dim))
    if name == "R":
        # Leaves [-8, 8]^2 mid-arc and ends inside, at (7.90, 3.26).
        xi = np.vstack([xi, [[0.75]]])
        x = np.vstack([x, [[8.0, -3.0]]])
    Y, J, escaped = flow_jacobian_batch(F, xi, x, allow_escape=True)
    Yd, Jd, escaped_d = _dp45(F, xi, x, DEFAULT_FLOW, 1.0, True)
    assert np.array_equal(escaped, escaped_d)
    assert 0 < np.sum(escaped) < len(x)
    ok = ~escaped
    assert np.max(np.abs(Y - Yd)[ok]) <= 1e-9
    assert np.max(np.abs(J - Jd)[ok]) <= 1e-8
    B, escaped_b = back_flow_batch(F, xi, x, allow_escape=True)
    Bd, _, escaped_bd = _dp45(F, xi, x, DEFAULT_FLOW, -1.0, False)
    assert np.array_equal(escaped_b, escaped_bd)
    assert np.max(np.abs(B - Bd)[~escaped_b]) <= 1e-9
    if name == "R":
        assert escaped[-1]


def test_domain_escape(scaling):
    # 2 e^1.6 ~ 9.9 stays inside the [-12, 12] integration domain
    assert abs(exp_flow(scaling, [1.6], [2.0])[0] - 2 * math.exp(1.6)) <= 1e-7
    # 2 e^2 ~ 14.8 leaves it
    with pytest.raises(DomainEscape):
        exp_flow(scaling, [2.0], [2.0])


def test_runaway_row_is_masked(quadratic):
    # y' = xi y^2 from x blows up at t = 1 / (xi x): only the third row does
    # so before t = 1 (at t = 2/3).
    x = np.array([[1.0], [0.5], [1.5], [1.2]])
    xi = np.array([[0.5], [0.9], [1.0], [-0.7]])
    Y, J, escaped = flow_jacobian_batch(quadratic, xi, x, allow_escape=True)
    assert escaped.tolist() == [False, False, True, False]
    ok = ~escaped
    d = 1 - xi[ok] * x[ok]
    assert np.max(np.abs(Y[ok] - x[ok] / d)) <= 1e-9
    assert np.max(np.abs(J[ok][:, :, 0] - 1 / d**2)) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_escaped_row_stays_quiet(quadratic):
    # Row 0 leaves [-8, 8] at t = 0.40, then row 1 lets the step grow; the
    # frozen row's discarded stages must not overflow.
    Y, J, escaped = flow_jacobian_batch(quadratic, [[1.0], [0.1]], [[1.9], [0.1]],
                                        allow_escape=True)
    assert escaped.tolist() == [True, False]
    assert abs(Y[1, 0] - 0.1 / 0.99) <= 1e-9
    assert abs(J[1, 0, 0] - 1 / 0.99**2) <= 1e-9


# From x = 1.2 with xi = -0.7 one of the 25 step attempts is rejected.
@pytest.mark.parametrize("xi, x", [(0.5, 1.0), (-0.7, 1.2)])
def test_dp45_reuses_last_stage(quadratic, monkeypatch, xi, x):
    """One field evaluation to start, then six per step attempt (FSAL)."""
    calls = []
    field_call = VectorFieldExpr.__call__

    def counted(self, points, check_finite=True):
        calls.append(1)
        return field_call(self, points, check_finite)

    monkeypatch.setattr(VectorFieldExpr, "__call__", counted)
    xi, x = np.array([[xi]]), np.array([[x]])
    # Budgets of 1, 2, ... attempts; the first that suffices ends the loop.
    for attempts in range(1, 100):
        calls.clear()
        try:
            _dp45(quadratic, xi, x, FlowConfig(max_steps=attempts), 1.0, False)
            finished = True
        except StepLimit:
            finished = False
        assert len(calls) == 1 + 6 * attempts
        if finished:
            break
    assert finished and attempts > 1


def test_step_limit(quadratic):
    cfg = FlowConfig(abs_tol=1e-13, rel_tol=1e-13, max_steps=2)
    with pytest.raises(StepLimit):
        exp_flow(quadratic, [0.5], [1.0], cfg)


def test_affine_flow_ignores_step_budget(scaling):
    cfg = FlowConfig(max_steps=1)
    assert abs(exp_flow(scaling, [1.0], [2.0], cfg)[0] - TWO_E) <= 1e-14
    assert abs(flow_jacobian(scaling, [1.0], [2.0], cfg)[0, 0] - math.e) <= 1e-14


@pytest.mark.parametrize("bad", [dict(abs_tol=float("nan")),
                                 dict(rel_tol=float("inf")),
                                 dict(abs_tol=-1.0), dict(max_steps=0)])
def test_flow_config_rejects_bad_settings(bad):
    with pytest.raises(ConfigError):
        FlowConfig(**bad)


def test_nan_xi_escapes(canonical):
    for name, xi in (("R", [[np.nan]]), ("C", [[np.nan, 1.0]])):
        _, escaped = exp_flow_batch(canonical[name], xi, [[1.0, 0.0]],
                                    allow_escape=True)
        assert escaped.tolist() == [True], name


def test_batched_escape_mask(scaling):
    xi = np.array([[0.1], [2.5]])
    x = np.array([[1.0], [2.0]])
    pts, escaped = exp_flow_batch(scaling, xi, x, allow_escape=True)
    assert not escaped[0] and escaped[1]
    assert abs(pts[0, 0] - math.exp(0.1)) <= 1e-8
