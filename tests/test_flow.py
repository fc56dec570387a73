"""Flows: closed forms, group laws, variational Jacobians, escapes.

Affine families take the exact backend through the public entry points;
the closed-form tests run them and the DP45 integrator, called directly,
side by side.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from foliops import flow
from foliops import op as oper
from foliops.canonical import canonical_workspace
from foliops.errors import ConfigError, DomainEscape, StepLimit
from foliops.expr import VectorFieldExpr, parse_field
from foliops.flow import (
    DEFAULT_FLOW,
    FlowConfig,
    _affine_flow,
    _affine_parts,
    _dp45,
    _expm,
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
def pendulum():
    return SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                             generators=[parse_field("[x2, -sin(x1)]", 2)],
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
    # Starts just beyond the box's upper corner and, on T and C, heads inside.
    xi = np.vstack([xi, -0.5 * F.xi_radius])
    x = np.vstack([x, hi + 0.05])
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
    assert escaped[1000] and escaped_b[1000]
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


def _counting_rows(monkeypatch):
    """Record the number of rows of every generator field evaluation."""
    rows = []
    field_call = VectorFieldExpr.__call__

    def counted(self, points, check_finite=True):
        rows.append(len(points))
        return field_call(self, points, check_finite)

    monkeypatch.setattr(VectorFieldExpr, "__call__", counted)
    return rows


def _attempts_needed(F, xi, x, rows):
    """Step attempts one row needs: the smallest budget that lets it finish.

    Checks on the way that each budget b costs 1 + 6 b field evaluations.
    """
    for attempts in range(1, 100):
        rows.clear()
        try:
            _dp45(F, np.array([[xi]]), np.array([[x]]),
                  FlowConfig(max_steps=attempts), 1.0, False)
            finished = True
        except StepLimit:
            finished = False
        assert rows == [1] * (1 + 6 * attempts)
        if finished:
            return attempts
    raise AssertionError("row did not finish within 99 attempts")


# From x = 1.2 with xi = -0.7 one of the 25 step attempts is rejected.
@pytest.mark.parametrize("xi, x", [(0.5, 1.0), (-0.7, 1.2)])
def test_dp45_reuses_last_stage(quadratic, monkeypatch, xi, x):
    """One field evaluation to start, then six per step attempt (FSAL)."""
    rows = _counting_rows(monkeypatch)
    assert _attempts_needed(quadratic, xi, x, rows) > 1


def test_dp45_counts_attempts_per_row(quadratic, monkeypatch):
    """N field rows to start, then six per attempt of each row: a row that
    finishes leaves the batch, so it costs what it costs alone."""
    rows = _counting_rows(monkeypatch)
    starts = [(0.5, 1.0), (-0.7, 1.2)]
    needed = [_attempts_needed(quadratic, xi, x, rows) for xi, x in starts]
    assert needed[0] != needed[1]
    rows.clear()
    xi, x = np.array(starts).T
    _dp45(quadratic, xi[:, None], x[:, None], DEFAULT_FLOW, 1.0, False)
    assert sum(rows) == len(starts) + 6 * sum(needed)


def test_dp45_row_independent_of_batch(pendulum):
    """Each row of a mixed batch has the bits it has when flowed alone."""
    rng = np.random.default_rng(31)
    xi = rng.uniform(-2.5, 2.5, (40, 1))
    x = rng.uniform(-3.0, 3.0, (40, 2))
    # Rows 0-2: xi = 0; a step rejected twice; an escape past x1 = 8.
    xi[:3] = [[0.0], [-1.0], [2.5]]
    x[:3] = [[0.7, -0.4], [0.3, -1.2], [7.0, 3.0]]
    fwd = exp_flow_batch(pendulum, xi, x, allow_escape=True)
    back = back_flow_batch(pendulum, xi, x, allow_escape=True)
    jac = flow_jacobian_batch(pendulum, xi, x, allow_escape=True)
    assert fwd[1][2] and not np.any(fwd[1][:2])
    for i in range(len(x)):
        one = slice(i, i + 1)
        for entry, batch in ((exp_flow_batch, fwd), (back_flow_batch, back),
                             (flow_jacobian_batch, jac)):
            alone = entry(pendulum, xi[one], x[one], allow_escape=True)
            for a, b in zip(alone, batch):
                assert a.tobytes() == b[one].tobytes(), (entry.__name__, i)


def test_step_limit(quadratic):
    cfg = FlowConfig(abs_tol=1e-13, rel_tol=1e-13, max_steps=2)
    with pytest.raises(StepLimit):
        exp_flow(quadratic, [0.5], [1.0], cfg)
    # At 1e-13 the first row finishes in 3 attempts and the second needs
    # about a hundred; the message names the row that ran out, also when
    # each row is repeated (runs are integrated once).
    cfg = FlowConfig(abs_tol=1e-13, rel_tol=1e-13, max_steps=3)
    for copies in (1, 3):
        with pytest.raises(StepLimit, match=r"from \[1\.\] with xi=\[0\.5\] at t=0\.\d{6}$"):
            exp_flow_batch(quadratic, [[0.1]] * copies + [[0.5]] * copies,
                           [[0.1]] * copies + [[1.0]] * copies, cfg)


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
    for name, xi in (("R", [[np.nan]]), ("C", [[np.nan, 1.0]]),
                     ("C", [[0.0, np.inf]]), ("T", [[np.nan]]),
                     ("T", [[-np.inf]])):
        x = [[1.0, 0.0]] if name != "T" else [[1.0]]
        Y, escaped = exp_flow_batch(canonical[name], xi, x, allow_escape=True)
        assert escaped.tolist() == [True], name
        assert np.array_equal(Y, x), name


def test_huge_xi_escapes_quietly(canonical):
    """Overflow in the matrix exponential, and a rotation too fast for its
    squarings to keep within the default tolerance, escape without a
    RuntimeWarning; a rotation by 1e6 (18 squarings) stays accurate."""
    for name, xi, x in (("S", 800.0, [1.0]), ("S", 1e300, [1.0]),
                        ("R", 1e10, [1.0, 0.0]), ("R", 1e16, [1.0, 0.0]),
                        ("R", 1e300, [1.0, 0.0])):
        for entry in (exp_flow_batch, flow_jacobian_batch):
            escaped = entry(canonical[name], [[xi]], [x], allow_escape=True)[-1]
            assert escaped.tolist() == [True], (name, xi, entry.__name__)
    assert back_flow_batch(canonical["R"], [[1e300]], [[1.0, 0.0]],
                           allow_escape=True)[1].tolist() == [True]
    Y, escaped = exp_flow_batch(canonical["R"], [[1e6]], [[1.0, 0.0]],
                                allow_escape=True)
    assert escaped.tolist() == [False]
    assert np.max(np.abs(Y[0] - [math.cos(1e6), math.sin(1e6)])) <= 1e-10


def _scipy_rel_err(E, G):
    """Largest entry error of each E[i] against scipy's expm(G[i]), relative
    to that reference's largest entry."""
    from scipy.linalg import expm

    ref = np.array([expm(g) for g in G])
    return np.max(np.abs(E - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))


def test_expm_matches_scipy_on_canonical_nodes(monkeypatch):
    """Every matrix the canonical R and S densities and rot* Diracs
    exponentiate, recorded on a small grid."""
    stacks = []

    def spy(G):
        stacks.append(G.copy())
        return _expm(G)

    monkeypatch.setattr(flow, "_expm", spy)
    ws = canonical_workspace()
    for kernel, f, box in (("gauss_R", "f_R", [[-1, 1], [-1, 1]]),
                           ("gauss_S", "f_S", [[-1, 1]]),
                           ("dirac_rot90", "f_R", [[-1, 1], [-1, 1]]),
                           ("dirac_rot45", "f_R", [[-1, 1], [-1, 1]]),
                           ("dirac_rot_small", "f_R", [[-1, 1], [-1, 1]])):
        oper.apply_op(ws.kernels[kernel], ws.functions[f], box,
                      (5,) * len(box), ws.ctx())
    G = {k: np.concatenate([g for g in stacks if g.shape[1] == k]) for k in (2, 3)}
    assert len(G[2]) >= 10 and len(G[3]) >= 30
    for Gk in G.values():
        assert np.max(_scipy_rel_err(_expm(Gk), Gk)) <= 1e-14


def _random_stack(count, seed=0):
    """Random 3x3 matrices with 1-norms spread over [0, 90]: up to 5 squarings."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((count, 3, 3))
    G /= np.max(np.sum(np.abs(G), axis=1), axis=1)[:, None, None]
    return G * rng.uniform(0.0, 90.0, (count, 1, 1))


def test_expm_matches_scipy_on_scaled_stacks():
    """Where the two differ most here (5.2e-12), the error is scipy's:
    against a 40-digit reference it is 5.2e-12, and 5.7e-15 for _expm."""
    G = _random_stack(200)
    assert np.max(_scipy_rel_err(_expm(G), G)) <= 1e-11


def test_expm_of_zero_is_identity():
    for k in (2, 3):
        assert np.array_equal(_expm(np.zeros((4, k, k))), np.tile(np.eye(k), (4, 1, 1)))


def test_expm_bits_do_not_depend_on_the_stack():
    """Alone, in a permuted stack, and next to matrices with other scaling
    counts, a matrix gives the same bits."""
    G = _random_stack(64, seed=1)
    E = _expm(G)
    perm = np.random.default_rng(2).permutation(len(G))
    assert _expm(G[perm]).tobytes() == E[perm].tobytes()
    for i in range(len(G)):
        assert _expm(G[i:i + 1]).tobytes() == E[i:i + 1].tobytes()


def test_batched_escape_mask(scaling):
    xi = np.array([[0.1], [2.5]])
    x = np.array([[1.0], [2.0]])
    pts, escaped = exp_flow_batch(scaling, xi, x, allow_escape=True)
    assert not escaped[0] and escaped[1]
    assert abs(pts[0, 0] - math.exp(0.1)) <= 1e-8


@pytest.mark.parametrize("field", ["[x2, -sin(x1)]", "[x2, 0]", "[1, 0]"])
def test_start_outside_box_escapes_on_both_backends(field):
    """One start rule: DP45 (pendulum), the expm flow ([x2, 0]) and the
    shift ([1, 0]) all flag a row that starts outside [-8, 8]^2, also where
    it would re-enter in its first step, and a zero-xi row; they keep rows
    that start inside."""
    F = SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                          generators=[parse_field(field, 2)], xi_radius=[1.0])
    xi = [[1.0], [1.0], [0.0], [1.0]]
    x = [[8.05, -3.0], [1.0, 0.0], [9.0, 0.0], [np.nan, 0.0]]
    for entry in (exp_flow_batch, back_flow_batch, flow_jacobian_batch):
        escaped = entry(F, xi, x, allow_escape=True)[-1]
        assert escaped.tolist() == [True, False, True, True], entry.__name__
    for xi_row in ([[0.0]], [[1.0]]):
        _, escaped = exp_flow_batch(F, xi_row, [[8.05, -3.0]], allow_escape=True)
        assert escaped.tolist() == [True]


@pytest.mark.parametrize("name", ["T", "C"])
def test_shift_matches_affine_flow(canonical, name):
    """Translation families take the shift x + xi b.  Against the expm
    flow, called directly as the reference, its escape masks, points and
    Jacobians (I) are equal bit for bit on forward, back and Jacobian
    calls: on a shift matrix the Pade approximant and each squaring are
    exact."""
    F = canonical[name]
    A, b = _affine_parts(F)
    assert not np.any(A)
    m, n = F.num_generators, F.dim
    lo, hi = F.escape_box[:, 0], F.escape_box[:, 1]
    rng = np.random.default_rng(29)
    xi = rng.uniform(-1, 1, (400, m)) * F.xi_radius
    x = rng.uniform(lo, hi, (400, n))
    # Starts outside; ends outside forward, or back; NaN and +-inf xi; zero
    # xi inside and outside; an inner row.
    special_xi = np.array([[0.5] * m, [1.0] * m, [1.0] * m, [np.nan] * m,
                           [np.inf] * m, [-np.inf] * m, [0.0] * m, [0.0] * m,
                           [-1.0] * m])
    special_x = np.array([hi + 0.5, hi - 0.5, lo + 0.5, [0.1] * n, [0.1] * n,
                          [0.1] * n, [0.2] * n, lo - 0.1, [0.3] * n])
    xi = np.vstack([xi, special_xi])
    x = np.vstack([x, special_x])
    for direction, entry in ((1.0, exp_flow_batch), (-1.0, back_flow_batch),
                             (1.0, flow_jacobian_batch)):
        with_jacobian = entry is flow_jacobian_batch
        got = entry(F, xi, x, allow_escape=True)
        Y, escaped = got[0], got[-1]
        Ya, Ja, escaped_a = _affine_flow(F, A, b, direction * xi, x, with_jacobian)
        assert np.array_equal(escaped, escaped_a), entry.__name__
        fwd = direction > 0
        assert escaped[400:].tolist() == [True, fwd, not fwd, True, True, True,
                                          False, True, False]
        assert 0 < np.sum(escaped[:400]) < 400
        finite = np.all(np.isfinite(xi), axis=1)
        shift = direction * xi[finite] @ b
        assert np.array_equal(Y[finite], x[finite] + shift)
        assert np.array_equal(Y[~finite], x[~finite])
        assert np.array_equal(Ya, Y)
        if with_jacobian:
            assert np.array_equal(got[1], np.broadcast_to(np.eye(n), Ja.shape))
            assert np.array_equal(Ja, got[1])


def test_dp45_start_rule_keeps_other_rows(pendulum):
    """A row that escapes at its start leaves the others' bits alone."""
    xi = np.array([[0.7], [1.0], [-0.4]])
    x = np.array([[0.5, 0.2], [8.05, -3.0], [-1.0, 0.3]])
    Y, J, escaped = _dp45(pendulum, xi, x, DEFAULT_FLOW, 1.0, True)
    assert escaped.tolist() == [False, True, False]
    assert np.array_equal(Y[1], x[1])
    for i in (0, 2):
        Yi, Ji, _ = _dp45(pendulum, xi[i:i + 1], x[i:i + 1], DEFAULT_FLOW, 1.0, True)
        assert Yi.tobytes() == Y[i:i + 1].tobytes()
        assert Ji.tobytes() == J[i:i + 1].tobytes()


def _runs_batch():
    """Runs of repeated (xi, x) rows as fibre quadrature makes them, among
    single rows: a start outside the box, a NaN xi, a zero xi, and two
    rows that differ only in x."""
    xi = [[0.7]] * 3 + [[1.0]] * 2 + [[np.nan]] * 2 + [[0.0]] * 2 + [[-0.4]] \
        + [[0.7]] * 2 + [[0.7]]
    x = [[0.5, 0.2]] * 3 + [[8.05, -3.0]] * 2 + [[0.1, 0.1]] * 2 \
        + [[0.3, -0.6]] * 2 + [[-1.0, 0.3]] + [[0.5, 0.2]] * 2 + [[0.5, 0.25]]
    return np.array(xi), np.array(x)


def test_repeated_rows_match_one_row_flows(pendulum):
    xi, x = _runs_batch()
    for entry in (exp_flow_batch, back_flow_batch, flow_jacobian_batch):
        batch = entry(pendulum, xi, x, allow_escape=True)
        assert batch[-1].tolist() == [False] * 3 + [True] * 4 + [False] * 6
        for i in range(len(x)):
            one = slice(i, i + 1)
            alone = entry(pendulum, xi[one], x[one], allow_escape=True)
            for a, b in zip(alone, batch):
                assert a.tobytes() == b[one].tobytes(), (entry.__name__, i)


_NO_SCIPY_RUN = """
import sys

import foliops

F = foliops.SingularFoliation(
    dim=2, chart_box=[[-2, 2], [-2, 2]],
    generators=[foliops.parse_field("[x2, -sin(x1)]", 2)], xi_radius=[1.0])
a = foliops.density(foliops.make_path_holonomy(F),
                    foliops.parse_scalar("exp(-25*x1^2)", 3), xi_box=[[-0.5, 0.5]])
f = foliops.parse_scalar("exp(-x1^2-x2^2)", 2)
values = foliops.apply_op(a, f, [[-1, 1], [-1, 1]], (5, 5)).values
leaf = foliops.leaf_sample(F, [1.0, 0.0], budget=40, seed=3)
assert values.shape == (5, 5) and len(leaf.points) > 1
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_pendulum_run_never_imports_scipy():
    """Only nearest-sample lookup on a leaf (``LeafSample.nearest``, a
    cKDTree) loads scipy, so Op and leaf sampling on a non-affine family
    never do."""
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_NO_SCIPY_CLI = """
import sys

from foliops import cli

for kernel in ("gauss_R", "dirac_rot90"):
    code = cli.main(["apply", "--kernel", kernel, "--function", "f_R",
                     "--box", "[[-1,1],[-1,1]]", "--res", "5,5"])
    assert code == 0, (kernel, code)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_canonical_cli_run_never_imports_scipy():
    """A one-shot ``foliops apply`` on the canonical workspace, over the
    rotation density and a rot* Dirac, takes the matrix exponential path
    without loading scipy."""
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CLI],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
