"""Kernel algebra: pairings, convolution, transpose, pushforward, conversion."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from foliops.errors import (
    BaseMismatch,
    ConfigError,
    HostMismatch,
    NotTransverse,
    SideMismatch,
    SupportViolation,
)
from foliops.expr import parse_field, parse_scalar
from foliops.foliation import SingularFoliation
from foliops.bisubmersion import (
    compose,
    constant_bisection,
    identity_bisection,
    make_addition_morphism,
    make_path_holonomy,
    restrict,
)
from foliops import kernel as ker
from foliops import op as oper
from foliops.canonical import canonical_workspace


@pytest.fixture(scope="module")
def lineF():
    return SingularFoliation(dim=1, chart_box=[[-3, 3]],
                             generators=[parse_field("[1]", 1)],
                             xi_radius=[2.0])


@pytest.fixture(scope="module")
def UT(lineF):
    return make_path_holonomy(lineF)


@pytest.fixture(scope="module")
def scaleF():
    return SingularFoliation(dim=1, chart_box=[[-2, 2]],
                             generators=[parse_field("[x1]", 1)],
                             xi_radius=[1.6], escape_factor=6.0)


@pytest.fixture(scope="module")
def dirac_shift(UT):
    c = parse_scalar("(1-((x1-1)/2.4)^2)^4", 1)
    return ker.dirac(constant_bisection(UT, [1.0]), c, side="r",
                     coeff_box=[[-1.4, 3.4]])


@pytest.fixture(scope="module")
def gauss_kernel(UT):
    dens = parse_scalar("exp(-25*(x1-0.3)^2)", 2)
    return ker.density(UT, dens, xi_box=[[-0.8, 1.4]], base_box=[[-12, 12]])


@pytest.fixture(scope="module")
def gauss_kernel2(UT):
    dens = parse_scalar("exp(-20*(x1+0.2)^2)", 2)
    return ker.density(UT, dens, xi_box=[[-1.4, 1.0]], base_box=[[-12, 12]])


def _f(text, dim=1):
    return parse_scalar(text, dim)


# --- Dirac pairings ----------------------------------------------------------


def test_dirac_pairing_values(dirac_shift):
    S = dirac_shift.atoms[0].bisection
    xs = np.linspace(-1.0, 2.5, 15)[:, None]

    def phi(params, rows, atom):
        return np.cos(params[:, 0]) * params[:, 1]

    got = dirac_shift.pairing(phi, xs)
    # r-side Dirac: value c(x) * phi(section(Phi^{-1}(x)))
    want = dirac_shift.atoms[0].coeff_fn(xs) * (math.cos(1.0) * (xs[:, 0] - 1.0))
    assert np.max(np.abs(got - want)) <= 1e-9


def test_dirac_zero_outside_range(dirac_shift):
    xs = np.array([[-2.5], [3.8]])  # outside r(S) cap coeff support
    got = dirac_shift.pairing(lambda p, r, a: np.ones(len(p)), xs)
    assert np.array_equal(got, [0.0, 0.0])


def test_dirac_identity_is_identity_on_inner_support(UT):
    from foliops.canonical import plateau_fn

    c = plateau_fn([[-1.0, 1.0]], [[-2.0, 2.0]])
    k = ker.dirac(identity_bisection(UT), c, side="r", coeff_box=[[-2, 2]])
    f = _f("exp(-3*(x1-0.2)^2)*sin(3*x1)")
    pts = np.linspace(-0.99, 0.99, 41)[:, None]
    got = oper.op_values(k, f, pts)
    assert np.max(np.abs(got - f(pts, check_finite=False))) <= 1e-12


def test_dirac_support_violation(UT):
    c = parse_scalar("1", 1)
    with pytest.raises(SupportViolation):
        ker.dirac(constant_bisection(UT, [1.0]), c, side="r",
                  coeff_box=[[-3.0, 3.0]])  # leaves r(S) = [-2, 4]


@pytest.mark.parametrize("side", ["r", "s"])
def test_dirac_without_coeff_box(UT, side):
    """Without a coefficient box a range Dirac kernel takes the sampled
    image of the bisection's base box, x -> x + 1 of [-3, 3], and a
    source one takes the base box itself."""
    S = constant_bisection(UT, [1.0])
    c = _f("(1-((x1-1)/2.4)^2)^4")
    k = ker.dirac(S, c, side=side)
    box = k.atoms[0].coeff_box
    if side == "r":
        assert np.all(np.abs(box - [[-2.0, 4.0]]) <= 1e-2)
        xs = np.linspace(-1.5, 3.5, 11)[:, None]
        f = _f("exp(-0.7*(x1-0.2)^2)")
        want = c(xs) * f(xs - 1.0)
        assert np.max(np.abs(oper.op_values(k, f, xs) - want)) <= 1e-12
    else:
        assert np.array_equal(box, S.base_box)
        xs = np.linspace(-2.5, 2.5, 11)[:, None]
        got = k.pairing(lambda p, r, a: p[:, 0] + 10.0 * p[:, 1], xs)
        assert np.max(np.abs(got - c(xs) * (1.0 + 10.0 * xs[:, 0]))) <= 1e-12


# --- densities ----------------------------------------------------------------


def test_density_matches_quadrature_oracle(UT, gauss_kernel):
    f = _f("exp(-1.2*(x1-0.5)^2)")
    xs = np.linspace(-2, 2, 21)[:, None]
    got = oper.op_values(gauss_kernel, f, xs)

    def oracle(x):
        return quad(
            lambda xi: math.exp(-25 * (xi - 0.3) ** 2)
            * math.exp(-1.2 * (x - xi - 0.5) ** 2),
            -0.8, 1.4, epsabs=1e-13, epsrel=1e-13,
        )[0]

    want = np.array([oracle(x) for x in xs[:, 0]])
    assert np.max(np.abs(got - want)) <= 1e-6


def test_zero_density_zero_pairing(UT):
    k = ker.density(UT, parse_scalar("0", 2), xi_box=[[-1, 1]],
                    base_box=[[-12, 12]])
    xs = np.linspace(-2, 2, 11)[:, None]
    got = k.pairing(lambda p, r, a: np.ones(len(p)), xs)
    assert np.array_equal(got, np.zeros(11))


def test_pairing_is_module_linear(UT, gauss_kernel):
    """(a, (q^* g) phi) = g * (a, phi) for the range fibration."""
    g = _f("1 + 0.5*sin(2*x1)")
    phi = lambda params, rows, atom: np.exp(-params[:, 1] ** 2)
    xs = np.linspace(-1.5, 1.5, 17)[:, None]
    host = gauss_kernel.atoms[0].host

    def phi_scaled(params, rows, atom):
        rbase = xs[rows][:, 0]  # range base equals the output point
        return g(rbase[:, None], check_finite=False) * phi(params, rows, atom)

    lhs = gauss_kernel.pairing(phi_scaled, xs)
    rhs = g(xs, check_finite=False) * gauss_kernel.pairing(phi, xs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


# --- convolution ---------------------------------------------------------------


def test_convolve_structural_types(dirac_shift, gauss_kernel, gauss_kernel2):
    from foliops.bisubmersion import TranslateLeft, TranslateRight

    dd = ker.convolve(dirac_shift, dirac_shift)
    assert isinstance(dd.atoms[0], ker.DiracAtom)
    Dd = ker.convolve(dirac_shift, gauss_kernel)
    assert isinstance(Dd.atoms[0], ker.DensityAtom)
    assert isinstance(Dd.atoms[0].host, TranslateLeft)
    dD = ker.convolve(gauss_kernel, dirac_shift)
    assert isinstance(dD.atoms[0], ker.DensityAtom)
    assert isinstance(dD.atoms[0].host, TranslateRight)
    lazy = ker.convolve(gauss_kernel, gauss_kernel2)
    assert isinstance(lazy.atoms[0], ker.ConvolvedAtom)


def test_kernels_from_two_loads_add_and_convolve():
    """Foliations are compared by structure: kernels from two loads of one
    config add and convolve, and act as kernels from one load do; kernels
    over different foliations still do not mix."""
    one, two = canonical_workspace(), canonical_workspace()
    a, b = one.kernels["gauss_T"], one.kernels["gauss_T2"]
    b2 = two.kernels["gauss_T2"]
    f, pts = one.functions["f_T"], np.linspace(-2, 2, 9)[:, None]
    for mixed, single in ((a + b2, a + b),
                          (ker.convolve(a, b2), ker.convolve(a, b))):
        got = oper.op_values(mixed, f, pts, ker.PairingCtx())
        want = oper.op_values(single, f, pts, ker.PairingCtx())
        assert got.tobytes() == want.tobytes() and np.any(got != 0.0)
    plane = SingularFoliation(
        dim=2, chart_box=[[-2, 2], [-2, 2]],
        generators=[parse_field("[1, 0]", 2), parse_field("[0, 1]", 2)],
        xi_radius=[1.5, 1.5])
    with pytest.raises(BaseMismatch):
        compose(one.bisubmersions["U_T"], make_path_holonomy(plane))
    with pytest.raises(BaseMismatch):
        a + two.kernels["gauss_R"]
    with pytest.raises(BaseMismatch):
        ker.convolve(a, two.kernels["gauss_R"])


def test_convolve_side_mismatch(dirac_shift, gauss_kernel):
    with pytest.raises(SideMismatch):
        ker.convolve(dirac_shift, ker.transpose(gauss_kernel))


def test_support_composition_containment(dirac_shift, gauss_kernel):
    ctx = ker.PairingCtx()
    ab = ker.convolve(dirac_shift, gauss_kernel)
    sup_ab = ker.support_of(ab, ctx)
    sup_a = ker.support_of(dirac_shift, ctx)
    # r-image of a*b is bounded by the r-image of a (Monte-Carlo boxes)
    assert sup_ab.r_box[0, 0] >= sup_a.r_box[0, 0] - 0.2
    assert sup_ab.r_box[0, 1] <= sup_a.r_box[0, 1] + 0.2


def test_disjoint_supports_give_zero_kernel(UT):
    c1 = parse_scalar("(1-((x1-1)/0.3)^2)^4", 1)
    a = ker.dirac(constant_bisection(UT, [1.0]), c1, side="r",
                  coeff_box=[[0.7, 1.3]])
    # s-image of a is [-0.3, 0.3]; place b's r-image far away
    c2 = parse_scalar("(1-((x1-2)/0.3)^2)^4", 1)
    b = ker.dirac(constant_bisection(UT, [0.1]), c2, side="r",
                  coeff_box=[[1.7, 2.3]])
    conv = ker.convolve(a, b)
    assert conv.is_zero()
    got = oper.op_values(conv, _f("1"), np.linspace(-2, 2, 9)[:, None])
    assert np.array_equal(got, np.zeros(9))


def test_source_side_translated_density_reads_its_range_base(UT, dirac_shift):
    """Paired over source fibres, a Dirac-translated density flows each row
    to its range base.  As Op of the transpose it is the integral of
    a(xi, x) c(x + xi + 1) f(x + xi + 1) over xi."""
    a = ker.density(UT, _f("exp(-25*(x1-0.3)^2)*(1+0.3*sin(x2))", 2),
                    xi_box=[[-0.8, 1.4]], base_box=[[-12, 12]])
    k = ker.transpose(ker.FibredKernel("s", ker.convolve(dirac_shift, a).atoms))
    xs = np.linspace(-2.0, 1.0, 13)[:, None]
    got = oper.op_values(k, _f("exp(-1.2*(x1-0.5)^2)"), xs)

    def c(y):
        return (1 - ((y - 1) / 2.4) ** 2) ** 4 if -1.4 <= y <= 3.4 else 0.0

    def oracle(x):
        return quad(
            lambda xi: math.exp(-25 * (xi - 0.3) ** 2) * (1 + 0.3 * math.sin(x))
            * c(x + xi + 1) * math.exp(-1.2 * (x + xi + 0.5) ** 2),
            -0.8, 1.4, epsabs=1e-13, epsrel=1e-13,
        )[0]

    want = np.array([oracle(x) for x in xs[:, 0]])
    assert np.max(np.abs(got - want)) <= 1e-10


def test_dirac_translates_a_translated_density(UT, dirac_shift, gauss_kernel):
    """Dirac*(Dirac*density) pulls the outer range base back through the
    outer bisection before the inner coefficient reads it."""
    c2 = parse_scalar("(1-((x1+0.6)/2.2)^2)^4", 1)
    d2 = ker.dirac(constant_bisection(UT, [-0.6]), c2, side="r",
                   coeff_box=[[-2.8, 1.6]])
    k = ker.convolve(d2, ker.convolve(dirac_shift, gauss_kernel))
    assert len(k.atoms) == 1 and isinstance(k.atoms[0], ker.DensityAtom)
    f = _f("exp(-1.2*(x1-0.5)^2)")
    pts = np.linspace(-1.5, 1.5, 17)[:, None]
    lhs = oper.op_values(k, f, pts)
    rhs = oper.op_values(d2, lambda q: oper.op_values(
        dirac_shift, lambda p: oper.op_values(gauss_kernel, f, p), q), pts)
    assert np.max(np.abs(rhs)) > 0.05
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_dirac_dirac_operator_composition_oracle(UT, dirac_shift):
    c2 = parse_scalar("(1-((x1+0.6)/2.2)^2)^4", 1)
    b = ker.dirac(constant_bisection(UT, [-0.6]), c2, side="r",
                  coeff_box=[[-2.8, 1.6]])
    ab = ker.convolve(dirac_shift, b)
    f = _f("exp(-0.9*(x1-0.1)^2)")
    pts = np.linspace(-1.2, 1.2, 33)[:, None]
    lhs = oper.op_values(ab, f, pts)
    rhs = oper.op_values(dirac_shift, lambda q: oper.op_values(b, f, q), pts)
    assert np.max(np.abs(lhs - rhs)) <= 1e-7


# --- transpose -----------------------------------------------------------------


def test_transpose_involution(gauss_kernel, dirac_shift):
    for k in (gauss_kernel, dirac_shift):
        back = ker.transpose(ker.transpose(k))
        assert back.side == k.side
        assert back.atoms[0] is k.atoms[0]


def test_transpose_swaps_images(gauss_kernel):
    ctx = ker.PairingCtx()
    sup = ker.support_of(gauss_kernel, ctx)
    sup_t = ker.support_of(ker.transpose(gauss_kernel), ctx)
    assert np.allclose(sup.r_box, sup_t.s_box)
    assert np.allclose(sup.s_box, sup_t.r_box)


def test_transpose_anti_homomorphism_via_adjoint(gauss_kernel, gauss_kernel2):
    k = _f("exp(-1.0*(x1-0.4)^2)")
    pts = np.linspace(-1.5, 1.5, 21)[:, None]
    ab_t = ker.transpose(ker.convolve(gauss_kernel, gauss_kernel2))
    bt_at = ker.convolve(ker.transpose(gauss_kernel2),
                         ker.transpose(gauss_kernel))
    lhs = oper.adjoint_values(ab_t, k, pts)
    rhs = oper.adjoint_values(bt_at, k, pts)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6
    assert np.max(np.abs(lhs)) > 1e-3  # non-vacuous


def test_transposed_bisection_induces_inverse_diffeo(UT):
    """Range-fibred Dirac built on the transposed bisection acts by Phi_S."""
    from foliops.bisubmersion import transpose_bisection

    S = constant_bisection(UT, [1.0])
    St = transpose_bisection(S)
    c = parse_scalar("(1-(x1/1.9)^2)^4", 1)
    k = ker.dirac(St, c, side="r", coeff_box=[[-1.9, 1.9]])
    f = _f("exp(-0.7*(x1-0.3)^2)")
    pts = np.linspace(-1.8, 1.8, 25)[:, None]
    got = oper.op_values(k, f, pts)
    cv = k.atoms[0].coeff_fn(pts)
    want = cv * f(pts + 1.0, check_finite=False)  # Phi_{S^t}^{-1} = Phi_S
    assert np.max(np.abs(got - want)) <= 1e-8


# --- pushforward / pullback ------------------------------------------------------


def test_pushforward_pairing_identity(UT, gauss_kernel, gauss_kernel2):
    pi = make_addition_morphism(UT)
    ab = ker.convolve(gauss_kernel, gauss_kernel2)
    pushed = ker.pushforward(pi, ab)
    xs = np.linspace(-1.5, 1.5, 11)[:, None]

    def phi(params, rows, atom):
        return np.cos(params[:, 0]) + 0.3 * params[:, 1]

    lhs = pushed.pairing(phi, xs)
    rhs = ab.pairing(lambda p, r, a: phi(pi.map(p), r, a), xs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-7


def test_pushforward_vs_nested_quadrature_oracle(UT, gauss_kernel, gauss_kernel2):
    """Reduced xi-convolution against an independent nested scipy quadrature."""
    pi = make_addition_morphism(UT)
    ab = ker.convolve(gauss_kernel, gauss_kernel2)
    pushed = ker.pushforward(pi, ab)
    f = _f("exp(-1.2*(x1-0.5)^2)")
    xs = np.array([[-0.5], [0.2], [0.9]])
    got = oper.op_values(pushed, f, xs)

    def oracle(x):
        def inner(eta):
            val, _ = quad(
                lambda xi: math.exp(-25 * (eta - 0.3) ** 2)
                * math.exp(-20 * (xi + 0.2) ** 2)
                * math.exp(-1.2 * (x - eta - xi - 0.5) ** 2),
                -1.4, 1.0, epsabs=1e-12, epsrel=1e-12,
            )
            return val

        val, _ = quad(inner, -0.8, 1.4, epsabs=1e-10, epsrel=1e-10)
        return val

    want = np.array([oracle(x) for x in xs[:, 0]])
    assert np.max(np.abs(got - want)) <= 1e-6


def test_addition_reduces_range_base_densities(UT, gauss_kernel2):
    """A U-hosted density that reads its range base reduces along the
    addition morphism: the reduction gives it no range base, so it maps
    its parameters itself.  Its Op matches both Op(a*b) and the reduction
    of the same density written without the range base."""
    def by_rbase(params, rbase):
        if rbase is None:
            rbase, ok = UT.r(params, allow_escape=True)
            rbase = np.where(ok[:, None], rbase, np.nan)
        return np.exp(-25 * (params[:, 0] - 0.3) ** 2 - 0.2 * rbase[:, 0] ** 2)

    def by_params(params, rbase):
        return np.exp(-25 * (params[:, 0] - 0.3) ** 2
                      - 0.2 * (params[:, 0] + params[:, 1]) ** 2)

    box = dict(xi_box=[[-0.8, 1.4]], base_box=[[-12, 12]])
    a = ker.FibredKernel("r", [ker.DensityAtom(UT, by_rbase, **box)])
    a0 = ker.FibredKernel("r", [ker.DensityAtom(UT, by_params, **box)])
    pi = make_addition_morphism(UT)
    ab = ker.convolve(a, gauss_kernel2)
    (reduced,) = ker.pushforward(pi, ab).atoms
    (reduced0,) = ker.pushforward(pi, ker.convolve(a0, gauss_kernel2)).atoms
    assert isinstance(reduced, ker.DensityAtom)
    assert isinstance(reduced0, ker.DensityAtom)
    f = _f("exp(-1.2*(x1-0.5)^2)")
    xs = np.array([[-0.5], [0.2], [0.9]])
    got = oper.op_values(ker.FibredKernel("r", [reduced]), f, xs)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - oper.op_values(ab, f, xs))) <= 1e-7
    want = oper.op_values(ker.FibredKernel("r", [reduced0]), f, xs)
    assert np.max(np.abs(got - want)) <= 1e-12


def _masked_reduction(family):
    """Reduced density of a*b on the addition morphism of a translation
    family, with base boxes narrower than the escape box, and parameter
    rows (zeta, y): two inside every box, one outside B's base box whose
    nodes all stay in the escape box, one inside B's box with some mid
    points y + xi outside the escape box, and one where A's base box
    masks some mid points."""
    if family == "T":
        F = SingularFoliation(dim=1, chart_box=[[-3, 3]],
                              generators=[parse_field("[1]", 1)], xi_radius=[2.0])
        a = ker.density(make_path_holonomy(F),
                        _f("exp(-25*(x1-0.3)^2)*(1+0.3*sin(x2))", 2),
                        xi_box=[[-0.8, 1.4]], base_box=[[-9.0, 12.0]])
        b = ker.density(a.atoms[0].host, _f("exp(-20*(x1+0.2)^2)", 2),
                        xi_box=[[-1.4, 1.0]], base_box=[[-12.0, 10.0]])
        rows = [[0.1, 0.3], [0.5, -1.2], [0.2, 11.0], [0.1, -11.5], [0.1, -8.6]]
    else:
        F = SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                              generators=[parse_field("[1, 0]", 2),
                                          parse_field("[0, 1]", 2)],
                              xi_radius=[1.8, 1.8])
        U = make_path_holonomy(F)
        a = ker.density(U, _f("exp(-10*(x1-0.2)^2-10*(x2+0.1)^2)*(1+0.05*x3)", 4),
                        xi_box=[[-1.1, 1.5], [-1.4, 1.2]],
                        base_box=[[-5.6, 8.0], [-8.0, 8.0]])
        b = ker.density(U, _f("exp(-10*(x1+0.3)^2-10*(x2-0.2)^2)", 4),
                        xi_box=[[-1.6, 1.0], [-1.1, 1.5]],
                        base_box=[[-8.0, 6.5], [-8.0, 8.0]])
        rows = [[0.1, 0.05, 0.3, -0.2], [-0.4, 0.3, -1.0, 0.5],
                [0.1, 0.1, 7.0, 0.0], [0.1, 0.1, -7.5, 0.0],
                [0.1, 0.1, -5.5, 0.3]]
    pi = make_addition_morphism(a.atoms[0].host)
    (atom,) = ker.pushforward(pi, ker.convolve(a, b)).atoms
    assert isinstance(atom, ker.DensityAtom)
    return atom, np.array(rows)


# float.hex() of the reduced densities on _masked_reduction's rows, as the
# reduction gave them when it masked each factor node by node.
_MASKED_REDUCTION_HEX = {
    "T": ["0x1.169f1a671effap-2", "0x1.0902a78b9c6bcp-5", "0x0.0p+0", "nan",
          "0x1.b972763fcd2dbp-3"],
    "C": ["0x1.01b8ee2bc703cp-3", "0x1.3f4856d6e3b34p-4", "0x0.0p+0", "nan",
          "0x1.09c7bc9e6fabap-8"],
}


@pytest.mark.parametrize("family", ["T", "C"])
def test_addition_reduction_row_masks_keep_their_bits(family):
    """A base row outside B's base box is exactly 0, a node with an
    escaped mid point makes its row NaN, A's box masks node by node, and
    the values keep their bits."""
    atom, params = _masked_reduction(family)
    vals = atom.dens_fn(params, None)
    assert vals[2] == 0.0
    assert np.isnan(vals[3])
    assert np.all(np.isfinite(vals[[0, 1, 4]])) and np.all(vals[[0, 1, 4]] > 0)
    assert [float(v).hex() for v in vals] == _MASKED_REDUCTION_HEX[family]


def test_addition_reduction_order_rule_2d():
    """On U_C the reduced density is int a(zeta - xi) b(xi) d(xi) over the
    right factor's xi box, which separates into per-axis scipy quads; the
    reduction runs at the order its factors carry."""
    ws = canonical_workspace()
    ctx = ws.ctx()
    pi = make_addition_morphism(ws.bisubmersions["U_C"], cfg=ctx.flow)

    def factor(name, q):  # the canonical factor, carrying order q
        (X,) = ws.kernels[name].atoms
        return ker.density(X.host, lambda p: X.dens_fn(p, None), X.xi_box,
                           X.base_box, quad_order=q)

    a_centre, b_centre = (0.2, -0.1), (-0.3, 0.2)
    b_box = ws.kernels["gauss_C2"].atoms[0].xi_box
    params = np.array([[0.1, 0.05, 0.3, -0.2],
                       [-0.4, 0.3, -1.0, 0.5],
                       [0.6, -0.5, 0.8, 1.1]])

    def reference(zeta):
        out = 1.0
        for j in range(2):
            out *= quad(
                lambda xi: math.exp(-10 * (zeta[j] - xi - a_centre[j]) ** 2
                                    - 10 * (xi - b_centre[j]) ** 2),
                *b_box[j], epsabs=1e-14, epsrel=1e-13,
            )[0]
        return out

    want = np.array([reference(p[:2]) for p in params])
    errors = []
    for q in (12, 20, 32):
        ab = ker.convolve(factor("gauss_C", q), factor("gauss_C2", q), ctx)
        (atom,) = ker.pushforward(pi, ab, ctx).atoms
        assert isinstance(atom, ker.DensityAtom)
        errors.append(np.max(np.abs(atom.dens_fn(params, None) - want)))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-10


def test_addition_reduction_masks_each_factor_by_its_box():
    """A callable left factor on a base box that no fibre over [-2, 2]
    reaches: Op(a*b) is exactly 0, and so is Op(pi_*(a*b))."""
    ws = canonical_workspace()
    ctx = ws.ctx()
    U = ws.bisubmersions["U_T"]
    a = ker.density(U, lambda p: np.exp(-25 * (p[:, 0] - 0.3) ** 2),
                    xi_box=[[-0.8, 1.4]], base_box=[[8, 9]])
    ab = ker.convolve(a, ws.kernels["gauss_T2"], ctx)
    pi = make_addition_morphism(U, cfg=ctx.flow)
    f = ws.functions["f_T"]
    pts = np.linspace(-2, 2, 21)[:, None]
    zeros = np.zeros(len(pts))
    assert np.array_equal(oper.op_values(ab, f, pts, ctx), zeros)
    assert np.array_equal(
        oper.op_values(ker.pushforward(pi, ab, ctx), f, pts, ctx), zeros)


def test_pushforward_host_mismatch(UT, gauss_kernel):
    pi = make_addition_morphism(UT)
    with pytest.raises(HostMismatch):
        ker.pushforward(pi, gauss_kernel)  # hosted on U, not U o U


def test_pushforward_compatible_with_convolution(UT, gauss_kernel, gauss_kernel2):
    """Op((pi_* a)*(pi_* b)) = Op(a*b) for the addition morphism."""
    pi = make_addition_morphism(UT)
    a = ker.convolve(gauss_kernel, gauss_kernel2)
    b = ker.convolve(gauss_kernel2, gauss_kernel)
    pa = ker.pushforward(pi, a)
    pb = ker.pushforward(pi, b)
    f = _f("exp(-1.2*(x1-0.5)^2)")
    pts = np.linspace(-1.2, 1.2, 13)[:, None]
    lhs = oper.op_values(ker.convolve(pa, pb), f, pts)
    rhs = oper.op_values(ker.convolve(a, b), f, pts)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_extension_by_zero(UT, lineF):
    """Pushing through an open inclusion leaves pairings unchanged on
    functions supported inside the open set."""
    from foliops.bisubmersion import Morphism, restrict

    box = np.array([[-0.5, 1.2], [-2.0, 2.0]])
    inner_host = restrict(UT, box)
    dens = parse_scalar("exp(-25*(x1-0.3)^2)", 2)
    a = ker.density(inner_host, dens, xi_box=[[-0.5, 1.2]], base_box=[[-2, 2]])
    inclusion = Morphism(inner_host, UT, lambda p: p, label="inclusion")
    pushed = ker.pushforward(inclusion, a)
    xs = np.linspace(-1.5, 1.5, 11)[:, None]
    phi = lambda p, r, atom: np.exp(-p[:, 0] ** 2) * np.cos(p[:, 1])
    assert np.allclose(pushed.pairing(phi, xs), a.pairing(phi, xs))


def test_default_pushforward_on_C_matches_the_lazy_side():
    """Without any order given, the reduction of gauss_C * gauss_C2 runs
    at the order gauss_C2 carries (20), not the context's 12."""
    ws = canonical_workspace()
    ctx = ws.ctx()
    pi = make_addition_morphism(ws.bisubmersions["U_C"], cfg=ctx.flow)
    ab = ker.convolve(ws.kernels["gauss_C"], ws.kernels["gauss_C2"], ctx)
    pushed = ker.pushforward(pi, ab, ctx)
    f = ws.functions["f_C"]
    pts = oper.grid_points([[-1.2, 1.2], [-1.2, 1.2]], (3, 3))
    err = np.max(np.abs(oper.op_values(pushed, f, pts, ctx)
                        - oper.op_values(ab, f, pts, ctx)))
    assert err <= 1e-6


def test_pushforward_between_generating_families():
    """T' = {[1], [2]} generates the same foliation as T = {[1]}: pushed
    along (xi1, xi2, x) -> (xi1 + 2 xi2, x), a kernel on U_T' becomes a
    kernel over T with the same operator, bit for bit."""
    from foliops.bisubmersion import Morphism

    ws = canonical_workspace()
    ctx = ws.ctx()
    UT = ws.bisubmersions["U_T"]
    Tp = SingularFoliation(dim=1, chart_box=[[-3.0, 3.0]],
                           generators=[parse_field("[1]", 1),
                                       parse_field("[2]", 1)],
                           xi_radius=[1.0, 0.5])
    Up = make_path_holonomy(Tp)
    pi = Morphism(Up, UT,
                  lambda p: np.column_stack([p[:, 0] + 2 * p[:, 1], p[:, 2]]),
                  cfg=ctx.flow)
    a = ker.density(Up, _f("exp(-25*(x1-0.3)^2-20*(x2+0.1)^2)", 3),
                    xi_box=[[-0.8, 1.0], [-0.5, 0.3]], base_box=[[-12.0, 12.0]])
    pushed = ker.pushforward(pi, a, ctx)
    assert pushed.foliation.key() == UT.foliation.key()
    assert all(atom.host is UT for atom in pushed.atoms)
    f = ws.functions["f_T"]
    pts = np.linspace(-2, 2, 21)[:, None]
    want = oper.op_values(a, f, pts, ctx)
    assert np.all(want > 0)
    assert oper.op_values(pushed, f, pts, ctx).tobytes() == want.tobytes()


def test_pullback_identity_and_functoriality(UT, gauss_kernel):
    ident = ker.pullback_base(lambda y: y, gauss_kernel)
    xs = np.linspace(-1, 1, 7)[:, None]
    phi = lambda p, r, a: np.sin(p[:, 0] + p[:, 1])
    assert np.allclose(ident.pairing(phi, xs), gauss_kernel.pairing(phi, xs))

    p1 = lambda y: y + 0.3
    p2 = lambda y: 2.0 * y
    once = ker.pullback_base(lambda y: p1(p2(y)), gauss_kernel)
    twice = ker.pullback_base(p2, ker.pullback_base(p1, gauss_kernel))
    assert np.allclose(once.pairing(phi, xs), twice.pairing(phi, xs))


def test_pullback_defining_identity(UT, gauss_kernel):
    p = lambda y: y - 0.4
    pulled = ker.pullback_base(p, gauss_kernel)
    ys = np.linspace(-1, 1, 9)[:, None]
    phi = lambda pr, r, a: np.exp(-pr[:, 0] ** 2)
    lhs = pulled.pairing(phi, ys)
    rhs = gauss_kernel.pairing(phi, p(ys))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


# --- r <-> s conversion -----------------------------------------------------------


def test_conversion_unit_factor_on_translations(UT, gauss_kernel):
    conv = ker.r_to_s_convert(gauss_kernel)
    assert conv.side == "s"
    params = np.array([[0.3, 0.5], [0.9, -1.0]])
    v0 = gauss_kernel.atoms[0].dens_fn(params, None)
    v1 = conv.atoms[0].dens_fn(params, None)
    assert np.max(np.abs(v1 - v0)) <= 1e-9  # translations preserve volume


def test_conversion_scaling_closed_form(scaleF):
    US = make_path_holonomy(scaleF)
    dens = parse_scalar("exp(-25*(x1-0.4)^2)", 2)
    a = ker.density(US, dens, xi_box=[[-0.7, 1.5]], base_box=[[-10, 10]])
    conv = ker.r_to_s_convert(a)
    params = np.array([[x, y] for x in (-0.3, 0.2, 0.8) for y in (-1.0, 0.7)])
    ratio = conv.atoms[0].dens_fn(params, None) / dens(params)
    assert np.max(np.abs(ratio - np.exp(params[:, 0]))) <= 1e-7


def test_conversion_rejects_diracs(dirac_shift):
    with pytest.raises(NotTransverse):
        ker.r_to_s_convert(dirac_shift)


def test_conversion_on_restricted_host(UT):
    from foliops.bisubmersion import restrict

    box = np.array([[-0.8, 1.4], [-3.0, 3.0]])
    host = restrict(UT, box)
    dens = parse_scalar("exp(-25*(x1-0.3)^2)", 2)
    a = ker.density(host, dens, xi_box=[[-0.8, 1.4]], base_box=[[-3, 3]])
    conv = ker.r_to_s_convert(a)
    params = np.array([[0.2, 0.4]])
    # translations are volume preserving, so conversion is the identity
    assert conv.atoms[0].dens_fn(params, None) == pytest.approx(
        dens(params), abs=1e-10
    )


def test_adjoint_identity_scaling(scaleF):
    """<Op(a)f, g> = <f, Op(a~^t) g> by two independent quadratures."""
    US = make_path_holonomy(scaleF)
    dens = parse_scalar("exp(-25*(x1-0.4)^2)*exp(-0.3*x2^2)", 2)
    a = ker.density(US, dens, xi_box=[[-0.7, 1.5]], base_box=[[-10, 10]])
    conv = ker.r_to_s_convert(a)
    f = _f("exp(-8*(x1-0.2)^2)")
    g = _f("exp(-8*(x1+0.3)^2)")
    nodes, w = ker.gauss_nodes(np.array([[-2.0, 2.0]]), 80)
    lhs = float(np.sum(w * oper.op_values(a, f, nodes)
                       * g(nodes, check_finite=False)))
    rhs = float(np.sum(w * oper.op_values(ker.transpose(conv), g, nodes)
                       * f(nodes, check_finite=False)))
    assert abs(lhs - rhs) <= 1e-6
    assert abs(lhs) > 1e-3


# --- supports, sums, scaling -------------------------------------------------------


def test_support_of_dirac(dirac_shift):
    sup = ker.support_of(dirac_shift)
    # r-image: coefficient support; s-image: shifted back by 1
    assert sup.r_box[0, 0] <= -1.4 + 0.1 and sup.r_box[0, 1] >= 3.4 - 0.1
    assert sup.s_box[0, 0] <= -2.4 + 0.1 and sup.s_box[0, 1] >= 2.4 - 0.1


def test_support_union_over_sum(dirac_shift, gauss_kernel):
    total = dirac_shift + gauss_kernel
    sup = ker.support_of(total)
    s1 = ker.support_of(dirac_shift)
    s2 = ker.support_of(gauss_kernel)
    assert sup.r_box[0, 0] <= min(s1.r_box[0, 0], s2.r_box[0, 0])
    assert sup.r_box[0, 1] >= max(s1.r_box[0, 1], s2.r_box[0, 1])


def test_convolved_support_monte_carlo_oracle(UT, gauss_kernel, gauss_kernel2):
    """Sampled images of valid composition parameters stay in the boxes."""
    ctx = ker.PairingCtx()
    ab = ker.convolve(gauss_kernel, gauss_kernel2)
    sup = ker.support_of(ab, ctx)
    atom = ab.atoms[0]
    rng = np.random.default_rng(17)
    bases = rng.uniform(-1.5, 1.5, size=(40, 1))
    xi = rng.uniform(-0.7, 1.3, size=(40, 2))
    params, ok = atom.host.chart("r", xi, bases, allow_escape=True)
    rv = atom.host.r(params[ok])
    sv = atom.host.s(params[ok])
    pad = 1e-9
    assert np.all(rv >= sup.r_box[:, 0] - pad) and np.all(rv <= sup.r_box[:, 1] + pad)
    assert np.all(sv >= sup.s_box[:, 0] - pad) and np.all(sv <= sup.s_box[:, 1] + pad)


def test_kernel_linear_combinations(dirac_shift, gauss_kernel):
    f = _f("exp(-1.5*x1^2)")
    pts = np.linspace(-1, 1, 11)[:, None]
    combo = 2.0 * dirac_shift + (-0.5) * gauss_kernel
    lhs = oper.op_values(combo, f, pts)
    rhs = 2.0 * oper.op_values(dirac_shift, f, pts) \
        - 0.5 * oper.op_values(gauss_kernel, f, pts)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def _restricted_density(UT, restriction, **boxes):
    from foliops.bisubmersion import restrict

    return ker.density(restrict(UT, restriction), _f("1", 2), **boxes)


def test_density_on_a_restriction_stays_inside_it(UT):
    """With no boxes the density on restrict(U_T, [-1, 1] x [0, 1]) took
    the escape box [-12, 12] as its base box, so Op(a)1 read 2 at every
    point.  Its boxes are now cut to the restriction's: it pairs as the
    density on U_T with the restriction's boxes."""
    xs = np.array([[-1.5], [0.5], [2.5]])
    box = [[-1.0, 1.0], [0.0, 1.0]]
    want = oper.op_values(ker.density(UT, _f("1", 2), xi_box=[[-1, 1]],
                                      base_box=[[0, 1]]), _f("1"), xs)
    for boxes in ({}, {"xi_box": [[-2, 2]], "base_box": [[-12, 12]]}):
        got = oper.op_values(_restricted_density(UT, box, **boxes), _f("1"), xs)
        assert np.array_equal(got, want)
    # x = 0.5 sees the bases 0.5 - xi in [0, 1]: a unit interval of xi
    assert want[0] == want[2] == 0.0 and abs(want[1] - 1.0) <= 0.1


def test_density_outside_its_restriction_is_an_error(UT):
    with pytest.raises(ConfigError, match="restriction"):
        _restricted_density(UT, [[-1, 1], [0, 1]], base_box=[[2, 3]])
    with pytest.raises(ConfigError, match="restriction"):
        _restricted_density(UT, [[-1, 1], [0, 1]], xi_box=[[-1, 1], [0, 1]])


_BAD_BOX = {"reversed": [[1.4, -0.8]], "nan": [[float("nan"), 1.0]],
            "empty": [[1.0, 1.0]]}


@pytest.mark.parametrize("bad", sorted(_BAD_BOX))
@pytest.mark.parametrize("build", [
    lambda U, box: ker.density(U, _f("1", 2), xi_box=box),
    lambda U, box: ker.density(U, _f("1", 2), base_box=box),
    lambda U, box: ker.dirac(constant_bisection(U, [1.0]), _f("1"), coeff_box=box),
    lambda U, box: constant_bisection(U, [0.5], base_box=box),
    lambda U, box: SingularFoliation(dim=1, chart_box=box,
                                     generators=[parse_field("[1]", 1)],
                                     xi_radius=[1.0]),
    lambda U, box: restrict(U, [[-1.0, 1.0]] + box),
], ids=["density xi_box", "density base_box", "dirac coeff_box",
        "bisection base_box", "chart_box", "restriction"])
def test_api_boxes_pass_the_box_rule(UT, build, bad):
    """A config with any of these boxes exits 2, but the API took them: a
    density with xi_box [[1.4, -0.8]] negated Op(a)f, a reversed base or
    coefficient box made Op 0, and a reversed chart box made every flow
    escape."""
    with pytest.raises(ConfigError, match="lo < hi|finite"):
        build(UT, _BAD_BOX[bad])


def test_scaled_lazy_atoms_scale_their_pairing(UT, gauss_kernel, gauss_kernel2):
    """2*k pairs to twice k's pairing for convolved, pushed and transposed
    atoms; a factor of 2 is exact in floating point."""
    from foliops.bisubmersion import Morphism

    ab = ker.convolve(gauss_kernel, gauss_kernel2)
    identity = Morphism(UT, UT, lambda p: p, label="identity")
    kernels = {ker.ConvolvedAtom: ab,
               ker.PushedAtom: ker.pushforward(identity, gauss_kernel),
               ker.TransposedAtom: ker.transpose(ab)}
    xs = np.linspace(-1.5, 1.5, 7)[:, None]

    def phi(params, rows, atom):
        return np.exp(-params[:, -1] ** 2)

    for kind, k in kernels.items():
        doubled = 2 * k
        assert isinstance(doubled.atoms[0], kind)
        once = k.pairing(phi, xs)
        assert np.max(np.abs(once)) > 1e-2
        assert np.array_equal(doubled.pairing(phi, xs), 2 * once)


def test_support_bound_of_lazy_and_pushed_convolutions(UT, gauss_kernel,
                                                       gauss_kernel2):
    """On translations r = s + xi, so a*b carries f supported in F to
    F + xi_box(b) + xi_box(a) = [-0.5 - 1.4 - 0.8, 0.5 + 1.0 + 1.4]."""
    from foliops.bisubmersion import Morphism

    ab = ker.convolve(gauss_kernel, gauss_kernel2)
    pushed = ker.pushforward(Morphism(ab.atoms[0].host, ab.atoms[0].host,
                                      lambda p: p, label="identity"), ab)
    F = [[-0.5, 0.5]]
    exact = np.array([[-2.7, 2.9]])
    for k in (ab, pushed):
        box = oper.support_bound(k, F)  # sampled, then padded by about 0.22
        assert box[0, 0] <= exact[0, 0] and box[0, 1] >= exact[0, 1]
        assert np.all(np.abs(box - exact) <= 0.3)
        assert oper.support_bound(k, [[100.0, 101.0]]) is None
    assert isinstance(pushed.atoms[0], ker.PushedAtom)


def test_node_counts_of_lazy_atoms(UT, gauss_kernel, gauss_kernel2, dirac_shift):
    """A lazy convolution pairs every node of one factor with every node of
    the other, and a pushed atom pairs its inner atom's nodes."""
    ctx = ker.PairingCtx()
    per_density = len(ker.gauss_nodes([[-0.8, 1.4]], ctx.quad.order)[0])
    ab = ker.convolve(gauss_kernel, gauss_kernel2).atoms[0]
    assert isinstance(ab, ker.ConvolvedAtom)
    assert ab.node_count(ctx) == per_density ** 2 == 32 * 32
    lazy_dirac = ker.ConvolvedAtom(dirac_shift.atoms[0], gauss_kernel.atoms[0])
    assert lazy_dirac.node_count(ctx) == per_density
    pushed = ker.PushedAtom(make_addition_morphism(UT), ab)
    assert pushed.node_count(ctx) == per_density ** 2


def test_source_fibre_escape_masks_only_inside_the_base_box(UT, dirac_shift):
    """Over source fibres a Dirac-translated density maps each row to its
    range base x + xi + 1, which leaves the escape box [-12, 12] once
    xi > 11 - x.  Such a node is masked only inside the density's base box
    [-2, 11]: x = 10.5 pairs to NaN, x = 11.5 (outside it) to 0."""
    a = ker.density(UT, _f("exp(-25*(x1-0.3)^2)", 2), xi_box=[[-0.8, 1.4]],
                    base_box=[[-2, 11]])
    (atom,) = ker.convolve(dirac_shift, a).atoms
    xs = np.array([[0.0], [10.5], [11.5]])
    got = atom.pair("s", xs, lambda p, r: np.ones(len(p)), ker.PairingCtx())
    assert got[0] > 0.1 and np.isnan(got[1]) and got[2] == 0.0
