"""Operator engine: grids, quadrature, adjoints, leaves, supports."""

import math

import numpy as np
import pytest

from foliops.errors import (
    ConfigError,
    DomainEscape,
    InsufficientLeafSampling,
    NotTransverse,
    QuadratureFailure,
    SideMismatch,
)
from foliops.expr import parse_field, parse_scalar
from foliops.flow import DEFAULT_FLOW
from foliops.foliation import SingularFoliation, leaf_sweep
from foliops import bisubmersion as bis
from foliops.bisubmersion import constant_bisection, make_path_holonomy
from foliops import kernel as ker
from foliops import op as oper
from foliops.canonical import bump_fn, canonical_workspace
from foliops.verify import off_leaf_bump


@pytest.fixture(scope="module")
def ws():
    return canonical_workspace()


@pytest.fixture(scope="module")
def ctx(ws):
    return ws.ctx()


# --- GridFunction --------------------------------------------------------------


def test_grid_function_validation():
    with pytest.raises(ValueError):
        oper.GridFunction([[-1, 1]], np.zeros(1))  # resolution below 2
    with pytest.raises(ValueError):
        ker.QuadratureConfig(order=1)


def test_grid_function_interpolation():
    g = oper.GridFunction.from_fn(lambda p: p[:, 0] + 2 * p[:, 1],
                                  [[-1, 1], [-1, 1]], (21, 21))
    pts = np.array([[0.13, -0.41], [0.99, 0.99]])
    want = pts[:, 0] + 2 * pts[:, 1]
    assert np.max(np.abs(g(pts) - want)) <= 1e-12  # multilinear is exact here


def test_grid_function_zero_outside_nan_through():
    g = oper.GridFunction.from_fn(lambda p: np.ones(len(p)), [[-1, 1]], (5,))
    vals = g(np.array([[2.0], [np.nan], [0.0]]))
    assert vals[0] == 0.0 and np.isnan(vals[1]) and vals[2] == 1.0


def test_grid_csv_round_trip():
    g = oper.GridFunction.from_fn(lambda p: np.sin(p[:, 0]) * p[:, 1],
                                  [[-2, 2], [0, 1]], (7, 5))
    text = g.to_csv()
    back = oper.GridFunction.from_csv(text)
    assert np.array_equal(back.values, g.values)
    assert np.array_equal(back.box, g.box)
    assert text == back.to_csv()  # byte-stable round trip


# --- Op ----------------------------------------------------------------------


def test_translation_operator_pointwise(ws, ctx):
    a = ws.kernels["dirac_rot90"]
    f = ws.functions["f_R"]
    pts = oper.grid_points(np.array([[-2, 2], [-2, 2]]), (33, 33))
    got = oper.op_values(a, f, pts, ctx)
    S = a.atoms[0].bisection
    xi0 = float(S.section(np.zeros((1, 2)), DEFAULT_FLOW)[0, 0])
    rot = np.stack(
        [
            math.cos(xi0) * pts[:, 0] + math.sin(xi0) * pts[:, 1],
            -math.sin(xi0) * pts[:, 0] + math.cos(xi0) * pts[:, 1],
        ],
        axis=1,
    )
    coeff = np.zeros(len(pts))
    valid = S.in_base(rot, DEFAULT_FLOW)
    coeff[valid] = a.atoms[0].coeff_fn(pts[valid])
    want = coeff * f(rot, check_finite=False)
    assert np.max(np.abs(got - want)) <= 1e-8


def test_op_accepts_grid_function_input(ws, ctx):
    f = ws.functions["f_T"]
    sampled = oper.GridFunction.from_fn(
        lambda p: f(p, check_finite=False), [[-6, 6]], (2401,)
    )
    pts = oper.grid_points(np.array([[-1, 1]]), (11,))
    exact = oper.op_values(ws.kernels["gauss_T"], f, pts, ctx)
    interp = oper.op_values(ws.kernels["gauss_T"], sampled, pts, ctx)
    # multilinear interpolation error ~ h^2 |f''|
    assert np.max(np.abs(exact - interp)) <= 1e-4


def test_op_requires_range_side(ws, ctx):
    with pytest.raises(SideMismatch):
        oper.op_values(ker.transpose(ws.kernels["gauss_T"]),
                       ws.functions["f_T"], np.zeros((1, 1)), ctx)
    # A source-fibred kernel's bound was once its input box, not shifted.
    with pytest.raises(SideMismatch):
        oper.support_bound(ker.transpose(ws.kernels["dirac_shift"]),
                           [[0.0, 1.0]], ctx)


def test_homomorphism_on_grids(ws, ctx):
    a, b = ws.kernels["dirac_shift"], ws.kernels["gauss_T"]
    f = ws.functions["f_T"]
    pts = oper.grid_points(np.array([[-1.5, 1.5]]), (41,))
    lhs = oper.op_values(ker.convolve(a, b, ctx), f, pts, ctx)
    rhs = oper.op_values(a, lambda q: oper.op_values(b, f, q, ctx), pts, ctx)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_source_side_convolution_matches_quadrature_reference(ws, ctx):
    """Op((b^t * a^t)^t) f pairs the lazy convolution over source fibres;
    against scipy dblquad with the closed-form translation flow x - xi."""
    from scipy.integrate import dblquad

    a, b = ws.kernels["gauss_T"], ws.kernels["gauss_T2"]
    k = ker.transpose(ker.convolve(ker.transpose(b), ker.transpose(a), ctx))
    (atom,) = k.atoms
    assert isinstance(atom, ker.TransposedAtom)
    assert isinstance(atom.inner, ker.ConvolvedAtom)
    xs = np.array([-0.5, 0.2, 0.9])
    got = oper.op_values(k, ws.functions["f_T"], xs[:, None], ctx)
    for x, value in zip(xs, got):
        ref = dblquad(
            lambda xi, eta: math.exp(-25 * (eta - 0.3) ** 2)
            * math.exp(-20 * (xi + 0.2) ** 2)
            * math.exp(-1.2 * (x - eta - xi - 0.5) ** 2),
            -0.8, 1.4, -1.4, 1.0, epsabs=1e-14, epsrel=1e-14,
        )[0]
        assert abs(value - ref) <= 1e-9


def test_quadrature_order_doubling(ws):
    from foliops.kernel import PairingCtx, QuadratureConfig

    f = ws.functions["f_T"]
    pts = oper.grid_points(np.array([[-2, 2]]), (21,))
    base = oper.op_values(ws.kernels["gauss_T"], f, pts,
                          PairingCtx(QuadratureConfig(order=32)))
    fine = oper.op_values(ws.kernels["gauss_T"], f, pts,
                          PairingCtx(QuadratureConfig(order=64)))
    assert np.max(np.abs(base - fine)) <= 1e-8


def test_linearity_on_grids(ws, ctx):
    a, b = ws.kernels["dirac_shift"], ws.kernels["gauss_T"]
    f = ws.functions["f_T"]
    pts = oper.grid_points(np.array([[-1.5, 1.5]]), (31,))
    lhs = oper.op_values(1.5 * a + (-2.0) * b, f, pts, ctx)
    rhs = 1.5 * oper.op_values(a, f, pts, ctx) - 2.0 * oper.op_values(b, f, pts, ctx)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_apply_op_grid_and_masking(ws, ctx):
    # push the output box to the edge so some range-fibre charts escape
    S = SingularFoliation(dim=1, chart_box=[[-2, 2]],
                          generators=[parse_field("[x1]", 1)],
                          xi_radius=[1.6], escape_factor=2.0)
    US = make_path_holonomy(S)
    dens = parse_scalar("exp(-25*(x1-0.4)^2)", 2)
    a = ker.density(US, dens, xi_box=[[-1.5, 1.5]], base_box=[[-4, 4]])
    grid = oper.apply_op(a, ws.functions["f_S"], [[-2, 2]], (21,), ctx)
    assert grid.masked_count() > 0  # back-flow leaves [-4, 4] near the edge
    with pytest.raises(DomainEscape):
        oper.apply_op(a, ws.functions["f_S"], [[-2, 2]], (21,), ctx, strict=True)
    # the adjoint masks the same edge points, for both adjoint forms
    edge = list(range(0, 6)) + list(range(15, 21))
    for b in (ker.transpose(a), ker.r_to_s_convert(a, ctx=ctx)):
        grid = oper.apply_adjoint(b, ws.functions["f_S"], [[-2, 2]], (21,), ctx)
        assert list(np.flatnonzero(np.isnan(grid.values))) == edge
        with pytest.raises(DomainEscape):
            oper.apply_adjoint(b, ws.functions["f_S"], [[-2, 2]], (21,), ctx,
                               strict=True)


def test_support_propagation(ws, ctx):
    a = ws.kernels["dirac_shift"]
    f_box = np.array([[0.0, 1.0]])
    f = bump_fn(f_box)
    bound = oper.support_bound(a, f_box, ctx)
    assert bound[0, 0] <= 1.0 and bound[0, 1] >= 2.0
    xs = np.linspace(-3, 3, 301)
    outside = xs[(xs < bound[0, 0]) | (xs > bound[0, 1])][:, None]
    vals = oper.op_values(a, f, outside, ctx)
    assert np.nanmax(np.abs(vals)) <= 1e-10


def test_support_bound_chains_through_convolution(ws, ctx):
    ab = ker.convolve(ws.kernels["dirac_shift"], ws.kernels["dirac_shift2"], ctx)
    bound = oper.support_bound(ab, np.array([[0.0, 0.5]]), ctx)
    # net translation is +0.4: true output support is [0.4, 0.9]
    assert bound[0, 0] <= 0.4 and bound[0, 1] >= 0.9
    assert bound[0, 1] - bound[0, 0] < 3.0  # and it stays informative


@pytest.mark.parametrize("name, f_box, res", [
    ("gauss_R", [[0.0, 1.0], [0.0, 1.0]], 81),  # once one sampled point
    ("dirac_shift", [[0.2, 0.21]], 1201),  # once None, an empty support
])
def test_support_bound_covers_a_small_input_support(ws, ctx, name, f_box, res):
    """Support rows are sampled where their source lies in f's support, so
    a support small next to the kernel's is not missed."""
    f_box = np.array(f_box)
    kernel = ws.kernels[name]
    pts = oper.grid_points([[-3.0, 3.0]] * len(f_box), [res] * len(f_box))
    vals = oper.op_values(kernel, bump_fn(f_box), pts, ctx)
    hit = pts[np.abs(vals) > 1e-12]
    bound = oper.support_bound(kernel, f_box, ctx)
    assert len(hit) and bound is not None
    assert np.all((hit >= bound[:, 0]) & (hit <= bound[:, 1]))


_BAD_GRID = {
    "reversed box": ([[1, 0]], (3,)),
    "infinite bound": ([[0, float("inf")]], (3,)),
    "NaN bound": ([[float("nan"), 1]], (3,)),
    "2-D box": ([[-1, 1], [-1, 1]], (3, 3)),
    "one point": ([[-1, 1]], (1,)),
    "fractional count": ([[-1, 1]], (2.5,)),
    "boolean count": ([[-1, 1]], (True,)),
    "numpy boolean count": ([[-1, 1]], np.array([True])),
    "two counts": ([[-1, 1]], (3, 3)),
    "bare count": ([[-1, 1]], 3),
}


@pytest.mark.parametrize("bad", sorted(_BAD_GRID))
def test_output_grids_pass_the_box_and_number_rules(ws, ctx, bad):
    """apply_op and apply_adjoint took their grid unchecked: a reversed box
    gave a reversed grid, an infinite bound NaN values and a warning, and a
    2-D box on a 1-D kernel a bare ValueError."""
    box, res = _BAD_GRID[bad]
    with pytest.raises(ConfigError):
        oper.apply_op(ws.kernels["gauss_T"], ws.functions["f_T"], box, res, ctx)
    with pytest.raises(ConfigError):
        oper.apply_adjoint(ker.transpose(ws.kernels["gauss_T"]), ws.functions["f_T"],
                           box, res, ctx)


def test_output_grids_take_integral_counts_of_any_number_type(ws, ctx):
    f = ws.functions["f_T"]
    want = oper.apply_op(ws.kernels["gauss_T"], f, [[-1, 1]], (5,), ctx).values
    for res in ([5], (5.0,), np.array([5]), (np.int64(5),)):
        got = oper.apply_op(ws.kernels["gauss_T"], f, [[-1, 1]], res, ctx).values
        assert np.array_equal(got, want)


@pytest.mark.parametrize("f_support", [[[0, float("nan")]], [[0, 1, 2]],
                                       [[1, 0]], [[0, float("inf")]],
                                       [[0, 1], [0, 1]]],
                         ids=["NaN", "three bounds", "reversed", "infinite", "2-D"])
def test_support_bound_input_passes_the_box_rule(ws, ctx, f_support):
    """support_bound(dirac_shift, [[0, nan]]) gave [[0.98, 1.02]] and
    [[0, 1, 2]] gave [[0.96, 2.04]]."""
    with pytest.raises(ConfigError):
        oper.support_bound(ws.kernels["dirac_shift"], f_support, ctx)


@pytest.mark.parametrize("side", ["r", "s"])
def test_dirac_image_samples_each_box_once(ws, ctx, side, monkeypatch):
    """Under ``given`` a Dirac atom's image on its kernel's side samples the
    bisection's image there (on the range side only), the other side's
    image of its home and the image back of that cut to ``given``: 3
    sampled images on the range side, where it took 4, and 2 on the
    source side.  Without ``given`` each box is sampled once, as before."""
    atom = ws.kernels["dirac_rot90"].atoms[0]
    if side == "s":
        S = atom.bisection
        atom = ker.DiracAtom(S, atom.coeff_fn, S.base_box)
    given = np.array([[-0.5, 1.0], [-1.0, 0.5]])
    other = "s" if side == "r" else "r"
    calls = []
    sampled = bis._sampled_image_box

    def spy(*args, **kw):
        calls.append(1)
        return sampled(*args, **kw)

    monkeypatch.setattr(bis, "_sampled_image_box", spy)
    counts = {}
    for out, box in ((side, given), (side, None), (other, None)):
        calls.clear()
        assert atom.image(out, side, ctx, box) is not None
        counts[out, box is None] = len(calls)
    want = {"r": [3, 1, 2], "s": [2, 0, 1]}[side]
    assert list(counts.values()) == want


def test_compactly_supported_functions_stay_compact(ws, ctx):
    bound = oper.support_bound(ws.kernels["gauss_T"], np.array([[-0.5, 0.5]]), ctx)
    assert np.all(np.isfinite(bound))


# --- callable test functions ----------------------------------------------------


def _reference_wrap(f):
    """The callable wrapper as it was before it handed f the rows
    themselves: a row-wise finite test, a gathered copy and a scatter."""
    def safe(pts):
        pts = np.atleast_2d(pts)
        out = np.full(len(pts), np.nan)
        good = np.all(np.isfinite(pts), axis=1)
        if np.any(good):
            out[good] = np.asarray(f(pts[good]), float)
        return out

    return safe


def _wrap_inputs():
    rng = np.random.default_rng(4)
    finite = rng.normal(size=(9, 2))
    mixed = finite.copy()
    mixed[1, 0] = np.nan
    mixed[4, 1] = np.inf
    mixed[6] = [-np.inf, np.nan]
    strided = rng.normal(size=(9, 4))[:, 1:3]  # a view, as a plan's s points are
    return {"finite": finite, "mixed": mixed, "strided": strided,
            "empty": np.empty((0, 2))}


@pytest.mark.parametrize("kind", ["finite", "mixed", "strided", "empty"])
def test_callable_wrapper_matches_the_gathering_wrapper(kind):
    pts = _wrap_inputs()[kind]
    seen = []

    def f(p):
        seen.append(p)
        return np.sin(p[:, 0]) * np.exp(p[:, 1])

    got = oper._wrap_f(f)(pts)
    calls = len(seen)
    want = _reference_wrap(f)(pts)
    assert got.tobytes() == want.tobytes() and got.shape == want.shape
    assert calls == (kind != "empty")
    for p in seen[:calls]:
        assert len(p) and np.isfinite(p).all() and not p.flags.writeable


def test_callable_wrapper_return_rules():
    pts = _wrap_inputs()["mixed"]
    for ret in (2.5, np.array([2.5])):
        got = oper._wrap_f(lambda p, ret=ret: ret)(pts)
        want = _reference_wrap(lambda p, ret=ret: ret)(pts)
        assert got.tobytes() == want.tobytes()
    for kind in ("finite", "mixed"):
        with pytest.raises(ValueError):
            oper._wrap_f(lambda p: np.ones(len(p) + 1))(_wrap_inputs()[kind])
        with pytest.raises(ValueError):
            _reference_wrap(lambda p: np.ones(len(p) + 1))(_wrap_inputs()[kind])


def test_callable_that_writes_its_points_raises_and_leaves_the_plan(ws):
    a = ws.kernels["gauss_R"]
    f = ws.functions["f_R"]
    ctx = ws.ctx()
    pts = oper.grid_points([[-1.5, 1.5], [-1.5, 1.5]], (7, 7))
    first = oper.op_values(a, lambda p: f(p), pts, ctx)
    assert len(ctx.plans)

    def writer(p):
        p[:, 0] = 0.0
        return f(p)

    with pytest.raises(ValueError):
        oper.op_values(a, writer, pts, ctx)
    with pytest.raises(ValueError):
        oper._wrap_f(writer)(_wrap_inputs()["mixed"])
    again = oper.op_values(a, lambda p: f(p), pts, ctx)
    assert again.tobytes() == first.tobytes()


# --- adjoint -------------------------------------------------------------------


def test_adjoint_identity_on_grids(ws, ctx):
    """<adjoint(b) k, f> = <k, Op(b^t) f> by two independent quadratures."""
    b = ker.transpose(ws.kernels["gauss_T"])  # source-fibred
    k = ws.functions["f_T"]
    f = ws.functions["f_T2"]
    nodes, w = ker.gauss_nodes(np.array([[-3.0, 3.0]]), 96)
    lhs_vals = oper.adjoint_values(b, k, nodes, ctx)
    lhs = float(np.sum(w * lhs_vals * f(nodes, check_finite=False)))
    bt = ker.transpose(b)
    rhs_vals = oper.op_values(bt, f, nodes, ctx)
    rhs = float(np.sum(w * rhs_vals * k(nodes, check_finite=False)))
    assert abs(lhs - rhs) <= 1e-6
    assert abs(lhs) > 1e-4


def test_adjoint_matches_direct_action_for_smooth_k(ws, ctx):
    a = ws.kernels["gauss_T"]
    k = ws.functions["f_T"]
    pts = oper.grid_points(np.array([[-2, 2]]), (41,))
    direct = oper.op_values(a, k, pts, ctx)
    via_adjoint = oper.adjoint_values(ker.r_to_s_convert(a, ctx=ctx), k, pts, ctx)
    assert np.max(np.abs(direct - via_adjoint)) <= 1e-6


def test_mu_independence(ws, ctx):
    a = ws.kernels["gauss_T"]
    k = oper.GridFunction.from_fn(lambda p: np.abs(p[:, 0]), [[-3, 3]], (601,))
    pts = oper.grid_points(np.array([[-2, 2]]), (41,))
    leb = oper.adjoint_values(ker.r_to_s_convert(a, ctx=ctx), k, pts, ctx)

    def w(p):
        p = np.atleast_2d(p)
        return 1.0 + p[:, 0] ** 2 / 10.0

    weighted = oper.adjoint_values(ker.r_to_s_convert(a, mu_weight=w, ctx=ctx),
                                   k, pts, ctx, mu_weight=w)
    assert np.max(np.abs(leb - weighted)) <= 1e-6


def test_adjoint_matches_quadrature_reference_on_S(ws, ctx):
    """Against scipy quad/dblquad with the closed-form flow e^xi y, whose
    Jacobian is e^xi; |y| <= 0.5 keeps the nested flows inside the domain."""
    from scipy.integrate import dblquad, quad

    a = ws.kernels["gauss_S"]

    def dens(xi, y):
        return math.exp(-25 * (xi - 0.4) ** 2) * math.exp(-0.3 * y**2)

    def k(x):
        return math.exp(-8 * (x - 0.2) ** 2)

    lo, hi = -0.7, 1.5  # xi box of gauss_S
    tol = dict(epsabs=1e-14, epsrel=1e-14)
    ys = np.linspace(-0.5, 0.5, 5)
    single = oper.adjoint_values(ker.transpose(a), ws.functions["f_S"],
                                 ys[:, None], ctx)
    nested = oper.adjoint_values(ker.transpose(ker.convolve(a, a, ctx)),
                                 ws.functions["f_S"], ys[:, None], ctx)
    for i, y in enumerate(ys):
        ref = quad(lambda xi: dens(xi, y) * math.exp(xi) * k(math.exp(xi) * y),
                   lo, hi, **tol)[0]
        assert abs(single[i] - ref) <= 1e-9
        ref = dblquad(
            lambda xi, eta: dens(eta, y) * math.exp(eta)
            * dens(xi, math.exp(eta) * y) * math.exp(xi)
            * k(math.exp(xi + eta) * y),
            lo, hi, lo, hi, **tol,
        )[0]
        assert abs(nested[i] - ref) <= 1e-9


def test_apply_adjoint_rejects_infinite_values(ws, ctx):
    """A reference weight vanishing on the grid divides by zero; like
    apply_op, the gridded adjoint raises instead of returning inf."""
    b = ker.transpose(ws.kernels["gauss_T"])

    def weight(p):
        return np.atleast_2d(p)[:, 0] ** 2

    pts = oper.grid_points(np.array([[-1.0, 1.0]]), (5,))
    with np.errstate(divide="ignore"):
        vals = oper.adjoint_values(b, ws.functions["f_T"], pts, ctx,
                                   mu_weight=weight)
        assert np.isinf(vals[2]) and np.all(np.isfinite(np.delete(vals, 2)))
        for strict in (False, True):  # an infinite value is no escape
            with pytest.raises(QuadratureFailure):
                oper.apply_adjoint(b, ws.functions["f_T"], [[-1.0, 1.0]], (5,),
                                   ctx, mu_weight=weight, strict=strict)


def test_adjoint_rejects_diracs(ws, ctx):
    b = ker.transpose(ws.kernels["dirac_shift"])
    with pytest.raises(NotTransverse):
        oper.adjoint_values(b, ws.functions["f_T"], np.zeros((1, 1)), ctx)
    # a density on a translated host: rejected before k is ever evaluated
    moved = ker.transpose(
        ker.convolve(ws.kernels["dirac_shift"], ws.kernels["gauss_T"], ctx)
    )

    def k(pts):
        raise AssertionError("k evaluated before the host was rejected")

    with pytest.raises(NotTransverse):
        oper.adjoint_values(moved, k, np.zeros((1, 1)), ctx)
    empty = np.zeros((0, 1))
    a = ws.kernels["gauss_T"]
    assert oper.op_values(a, ws.functions["f_T"], empty, ctx).shape == (0,)
    assert oper.adjoint_values(ker.transpose(a), ws.functions["f_T"], empty,
                               ctx).shape == (0,)


def test_adjoint_requires_source_side(ws, ctx):
    with pytest.raises(SideMismatch):
        oper.adjoint_values(ws.kernels["gauss_T"], ws.functions["f_T"],
                            np.zeros((1, 1)), ctx)


# --- leafwise action -------------------------------------------------------------


@pytest.fixture(scope="module")
def circle(ws, ctx):
    R = ws.foliations["R"]
    n = 4096
    h = 2 * math.pi / n
    return leaf_sweep(R, [1.0, 0.0], [h], n, ctx.flow)


def test_leaf_compatibility(ws, ctx, circle):
    a = ws.kernels["dirac_rot90"]
    f = ws.functions["f_R"]
    fvals = f(circle.points, check_finite=False)
    on_leaf = oper.apply_on_leaf(a, circle, fvals, ctx)
    ambient = oper.op_values(a, f, circle.points, ctx)
    assert np.max(np.abs(on_leaf - ambient)) <= 1e-5


def test_off_leaf_invariance(ws, ctx, circle):
    a = ws.kernels["gauss_R"]
    f = ws.functions["f_R"]

    def perturbed(p):
        p = np.atleast_2d(p)
        rad = np.linalg.norm(p, axis=1)
        u = (rad - 1.5) / 0.35
        bump = np.where(np.abs(u) < 1.0, (1.0 - u**2) ** 4, 0.0)
        return f(p, check_finite=False) + bump

    base = oper.op_values(a, f, circle.points, ctx)
    pert = oper.op_values(a, perturbed, circle.points, ctx)
    assert np.max(np.abs(base - pert)) <= 1e-7


def test_off_leaf_bump_shape():
    """The leaf suite's bump is 1 on the circle of radius 1.5, 0 on the unit
    circle and off the annulus 1.15 < r < 1.85, and it is the norm and
    power formula it replaces to rounding."""
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])

    def at(radius):
        return off_leaf_bump(radius * axes)

    assert np.all(at(1.5) == 1.0)
    for radius in (0.0, 0.5, 1.0, 1.1, 1.15, 1.85, 1.9, 3.0):
        assert np.all(at(radius) == 0.0), radius
    theta = np.linspace(0.0, 2 * math.pi, 37)
    assert np.all(off_leaf_bump(np.stack([np.cos(theta), np.sin(theta)], 1)) == 0.0)
    radii = np.linspace(0.0, 3.0, 30001)
    sweep = radii[:, None] * np.stack([np.cos(7 * radii), np.sin(7 * radii)], axis=1)
    u = (np.linalg.norm(sweep, axis=1) - 1.5) / 0.35
    old = np.where(np.abs(u) < 1.0, (1.0 - u**2) ** 4, 0.0)
    assert np.max(np.abs(off_leaf_bump(sweep) - old)) <= 4e-16


def test_off_leaf_bump_moves_op_off_the_leaf(ws, ctx):
    """The off-leaf check reads 0.0 because the bump vanishes on the leaf,
    not because Op cannot see it: off the leaf it moves Op(gauss_R)f."""
    a = ws.kernels["gauss_R"]
    f = ws.functions["f_R"]
    at = np.array([[1.5, 0.0]])
    base = oper.op_values(a, f, at, ctx)
    pert = oper.op_values(a, lambda p: f(p) + off_leaf_bump(p), at, ctx)
    assert abs(pert[0] - base[0]) > 1e-3


def test_leaf_restriction_homomorphism(ws, ctx, circle):
    a, b = ws.kernels["dirac_rot90"], ws.kernels["dirac_rot45"]
    f = ws.functions["f_R"]
    fvals = f(circle.points, check_finite=False)
    lhs = oper.apply_on_leaf(ker.convolve(a, b, ctx), circle, fvals, ctx)
    rhs = oper.apply_on_leaf(a, circle, oper.apply_on_leaf(b, circle, fvals, ctx),
                             ctx)
    assert np.max(np.abs(lhs - rhs)) <= 1e-5


def test_insufficient_leaf_sampling(ws, ctx):
    R = ws.foliations["R"]
    sparse = leaf_sweep(R, [1.0, 0.0], [0.5], 12, ctx.flow)
    # shrink the recorded mesh so that density fibre points fall in gaps
    sparse.mesh = 1e-4
    a = ws.kernels["gauss_R"]
    fvals = np.ones(len(sparse.points))
    with pytest.raises(InsufficientLeafSampling):
        oper.apply_on_leaf(a, sparse, fvals, ctx)


def test_leaf_locality_of_evaluation_points(ws, circle):
    """Every f-evaluation point lies on the leaf through the output point:
    the output points are on the unit circle, and so is every finite
    point that f receives."""
    a = ws.kernels["gauss_R"]
    ctx = ws.ctx()
    seen = []

    def f(p):
        seen.append(p.copy())
        return ws.functions["f_R"](p)

    assert np.allclose(np.linalg.norm(circle.points[:64], axis=1), 1.0)
    oper.op_values(a, f, circle.points[:64], ctx)
    f_pts = np.concatenate(seen)
    good = np.all(np.isfinite(f_pts), axis=1)
    assert np.sum(good) > 64
    radius = np.linalg.norm(f_pts[good], axis=1)
    assert np.max(np.abs(radius - 1.0)) <= 10 * ctx.flow.abs_tol
