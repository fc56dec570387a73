"""Bisubmersion terms, bisections, translations, morphisms."""

import math

import numpy as np
import pytest

from foliops.errors import (
    BaseMismatch,
    BracketNotZero,
    DimensionMismatch,
    DomainEscape,
    EmptyTranslate,
    NotABisection,
)
from foliops.expr import parse_field
from foliops.flow import DEFAULT_FLOW, FlowConfig
from foliops.canonical import canonical_workspace
from foliops.foliation import SingularFoliation
from foliops import bisubmersion as bis
from foliops import kernel as ker
from foliops.bisubmersion import (
    Composition,
    bisection_diffeo,
    compose,
    compose_bisections,
    constant_bisection,
    fibre_param,
    general_bisection,
    identity_bisection,
    invert,
    make_addition_morphism,
    make_path_holonomy,
    translate,
    transpose_bisection,
    Morphism,
)


@pytest.fixture(scope="module")
def rotF():
    return SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                             generators=[parse_field("[-x2, x1]", 2)],
                             xi_radius=[2.5])


@pytest.fixture(scope="module")
def U(rotF):
    return make_path_holonomy(rotF)


@pytest.fixture(scope="module")
def planeF():
    return SingularFoliation(
        dim=2, chart_box=[[-2, 2], [-2, 2]],
        generators=[parse_field("[1, 0]", 2), parse_field("[0, 1]", 2)],
        xi_radius=[1.5, 1.5],
    )


def test_source_map_is_projection(U):
    rng = np.random.default_rng(0)
    params = U.sample_params(50, rng, DEFAULT_FLOW)
    assert np.array_equal(U.s(params), params[:, 1:])


def test_range_at_zero_xi(U):
    x = np.array([[0.4, -1.1]])
    params = np.concatenate([np.zeros((1, 1)), x], axis=1)
    assert np.array_equal(U.r(params), x)


def test_range_closed_form(U):
    params = np.array([[math.pi / 2, 1.0, 0.0]])
    assert np.linalg.norm(U.r(params) - [0.0, 1.0]) <= 1e-8


def test_compose_dimension(U):
    C = compose(U, U)
    assert C.dim == U.dim + U.dim - U.base_dim
    assert C.param_len == 2 * U.param_len


def test_compose_base_mismatch(U, planeF):
    with pytest.raises(BaseMismatch):
        compose(U, make_path_holonomy(planeF))


def test_compose_membership(U):
    C = compose(U, U)
    rng = np.random.default_rng(1)
    good = C.sample_params(20, rng, DEFAULT_FLOW)
    assert np.all(C.contains(good, DEFAULT_FLOW, tol=1e-6))
    broken = good.copy()
    broken[:, U.param_len + 1 :] += 0.5  # break the gluing constraint
    assert not np.any(C.contains(broken, DEFAULT_FLOW, tol=1e-6))


def test_compose_range_rule(U):
    C = compose(U, U)
    rng = np.random.default_rng(2)
    params = C.sample_params(30, rng, DEFAULT_FLOW)
    u = params[:, : U.param_len]
    assert np.allclose(C.r(params), U.r(u))
    assert np.array_equal(C.s(params), U.s(params[:, U.param_len :]))


def test_inverse_swaps_and_involution(U):
    rng = np.random.default_rng(3)
    params = U.sample_params(30, rng, DEFAULT_FLOW)
    Ut = invert(U)
    assert np.array_equal(Ut.r(params), U.s(params))
    assert np.allclose(Ut.s(params), U.r(params))
    back = invert(Ut)
    assert back is U
    assert np.allclose(back.r(params), U.r(params))


def test_fibre_charts(U, rotF):
    x = np.array([0.8, -0.3])
    s_chart = fibre_param(U, "s", x)
    xis = np.linspace(-1.5, 1.5, 9)[:, None]
    params = s_chart.map(xis)
    assert np.max(np.abs(U.s(params) - x)) == 0.0
    r_chart = fibre_param(U, "r", x)
    params_r = r_chart.map(xis)
    assert np.max(np.linalg.norm(U.r(params_r) - x, axis=1)) <= 1e-7
    assert s_chart.dim == rotF.num_generators


def test_fibre_chart_of_composition_is_product_box(U):
    C = compose(U, U)
    ch = fibre_param(C, "s", np.array([0.5, 0.5]))
    assert ch.dim == 2
    assert np.array_equal(ch.box, np.concatenate([U.xi_box(), U.xi_box()]))
    xis = np.array([[0.3, -0.2], [0.1, 0.4]])
    params = ch.map(xis)
    assert np.all(C.contains(params, DEFAULT_FLOW, tol=1e-6))


def test_constant_bisection_diffeo(U):
    S = constant_bisection(U, [math.pi / 2])
    d = bisection_diffeo(S)
    assert np.linalg.norm(d(np.array([1.0, 0.0])) - [0.0, 1.0]) <= 1e-8
    x = np.array([0.3, 0.9])
    assert np.linalg.norm(d.inverse(d(x)) - x) <= 1e-7


@pytest.mark.parametrize("xi", [[0.5], [1.0, 2.0, 3.0], [float("nan"), 0.0]])
def test_constant_bisection_needs_one_finite_xi_per_generator(planeF, xi):
    """A wrong-length xi used to build sections of the wrong width: on a
    two-generator plane, [0.5] gave 3-column rows for a 4-column host."""
    with pytest.raises(DimensionMismatch):
        constant_bisection(make_path_holonomy(planeF), xi)


def test_identity_bisection(U):
    S = identity_bisection(U)
    d = bisection_diffeo(S)
    pts = np.random.default_rng(4).uniform(-1.5, 1.5, size=(20, 2))
    assert np.allclose(d(pts), pts)


def test_translate_rules(U):
    S = constant_bisection(U, [0.6])
    rng = np.random.default_rng(5)
    params = U.sample_params(40, rng, DEFAULT_FLOW)

    right = translate(U, S, "right")
    assert np.array_equal(right.r(params), U.r(params))
    expected = S.phi_inv(U.s(params))
    assert np.max(np.linalg.norm(right.s(params) - expected, axis=1)) <= 1e-9

    left = translate(U, S, "left")
    assert np.array_equal(left.s(params), U.s(params))
    expected = S.phi(U.r(params))
    assert np.max(np.linalg.norm(left.r(params) - expected, axis=1)) <= 1e-7

    # Each chart parameterizes the fibre of its own side of the translate;
    # the side a translate leaves unchanged keeps the inner chart.
    xi = rng.uniform(-1.0, 1.0, size=(30, 1))
    x = rng.uniform(-1.0, 1.0, size=(30, 2))
    for tr, kept in ((right, "r"), (left, "s")):
        for side in ("r", "s"):
            params = tr.chart(side, xi, x)
            back = getattr(tr, side)(params)
            assert np.max(np.linalg.norm(back - x, axis=1)) <= 1e-8
        assert np.array_equal(tr.chart(kept, xi, x), U.chart(kept, xi, x))


def test_translate_by_identity_keeps_maps(U):
    S = identity_bisection(U)
    tr = translate(U, S, "right")
    rng = np.random.default_rng(6)
    params = U.sample_params(30, rng, DEFAULT_FLOW)
    assert np.allclose(tr.s(params), U.s(params))
    assert np.allclose(tr.r(params), U.r(params))


def test_empty_translate(U):
    # a bisection whose range misses the sampled source image
    S = constant_bisection(U, [0.0], base_box=[[5.0, 6.0], [5.0, 6.0]])
    with pytest.raises(EmptyTranslate):
        translate(U, S, "right")


def test_maps_never_silently_nan(U):
    rng = np.random.default_rng(7)
    box = U.param_box()
    wide = box.copy()
    wide[0] = [-2.5, 2.5]
    params = wide[:, 0] + (wide[:, 1] - wide[:, 0]) * rng.random((100, 3))
    for side in ("r", "s"):
        vals, ok = getattr(U, side)(params, allow_escape=True)
        assert np.all(np.isfinite(vals[ok]))
        eb = U.foliation.escape_box
        inside = np.all((vals[ok] >= eb[:, 0]) & (vals[ok] <= eb[:, 1]), axis=1)
        assert np.all(inside)


def test_morphism_compatibility_invariant(U):
    C = compose(U, U)
    # projection onto the left factor is NOT a morphism; the constructor
    # must reject it
    def bad_map(params):
        return params[:, : U.param_len]

    with pytest.raises(BaseMismatch):
        Morphism(C, U, bad_map, label="bad")


def test_addition_morphism_commuting(planeF):
    Up = make_path_holonomy(planeF)
    pi = make_addition_morphism(Up)
    assert pi.compatibility_residual(100, DEFAULT_FLOW) <= 1e-7
    # explicit example on translations: r(pi(eta,xi,x)) = x + xi + eta
    line = SingularFoliation(dim=1, chart_box=[[-3, 3]],
                             generators=[parse_field("[1]", 1)],
                             xi_radius=[1.0])
    Ul = make_path_holonomy(line)
    pil = make_addition_morphism(Ul)
    params = np.array([[0.3, 1.2, 0.5], [0.1, -0.4, 1.0]])  # (eta, y; xi, x)
    # composition parameters: u = (eta, y) with y = x + xi
    comp = np.array([[0.3, 0.7 + 0.5, 0.7, 0.5], [0.1, 0.2 + 1.0, 0.2, 1.0]])
    mapped = pil.map(comp)
    assert np.allclose(mapped[:, 0], comp[:, 0] + comp[:, 2])
    assert np.allclose(mapped[:, 1], comp[:, 3])


def test_morphism_bound_follows_the_flow_settings():
    """At tolerance 1e-4 the pendulum's addition morphism has residual
    1.7e-4 and is valid; its map shifted by 0.1 is not, at 1e-4 or at the
    defaults."""
    pendulum = SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                                 generators=[parse_field("[x2, -sin(x1)]", 2)],
                                 xi_radius=[1.0])
    Up = make_path_holonomy(pendulum)
    coarse = FlowConfig(abs_tol=1e-4, rel_tol=1e-4)
    pi = make_addition_morphism(Up, cfg=coarse)
    assert pi.compatibility_residual(32, coarse) > 1e-4
    for cfg in (coarse, DEFAULT_FLOW):
        with pytest.raises(BaseMismatch):
            Morphism(pi.source, Up, lambda p: pi.map(p) + 0.1, cfg=cfg)


def test_addition_morphism_rejects_noncommuting():
    bad = SingularFoliation(
        dim=2, chart_box=[[-2, 2], [-2, 2]],
        generators=[parse_field("[1, 0]", 2), parse_field("[0, x1]", 2)],
        xi_radius=[1.0, 1.0],
    )
    with pytest.raises(BracketNotZero):
        make_addition_morphism(make_path_holonomy(bad))


def test_compose_bisections(U):
    S = constant_bisection(U, [0.5])
    T = constant_bisection(U, [0.3])
    ST = compose_bisections(S, T)
    x = np.array([[0.4, 0.2]])
    combined = ST.phi(x)
    direct = S.phi(T.phi(x))
    assert np.linalg.norm(combined - direct) <= 1e-9
    back = ST.phi_inv(combined)
    assert np.linalg.norm(back - x) <= 1e-7


def test_nested_composed_section_flows_each_factor_once(U, monkeypatch):
    """A composed section takes Phi_T from T's own section: the section of
    S o (A o B) flows B once, where it flowed B again inside Phi_{A o B}."""
    A, B, S = (constant_bisection(U, [v]) for v in (0.3, 0.5, 0.7))
    SAB = compose_bisections(S, compose_bisections(A, B))
    x = np.array([[0.4, 0.2], [0.1, -0.3]])
    rows, flow = [], bis._flow.exp_flow_batch

    def counted(F, xi, *args, **kwargs):
        rows.append(len(xi))
        return flow(F, xi, *args, **kwargs)

    monkeypatch.setattr(bis._flow, "exp_flow_batch", counted)
    SAB.section(x, DEFAULT_FLOW)
    assert rows == [2, 2]  # B, then A; S's section flows nothing
    assert SAB.phi(x).tobytes() == S.phi(A.phi(B.phi(x))).tobytes()


def test_transpose_bisection_inverts_diffeo(U):
    S = constant_bisection(U, [0.9])
    St = transpose_bisection(S)
    x = np.array([[0.5, -0.2]])
    assert np.allclose(St.phi(x), S.phi_inv(x))
    assert np.allclose(St.phi_inv(x), S.phi(x))


def test_general_bisection_newton(U, rotF):
    # same constant section, but with the Newton-based inverse
    def section(x):
        return np.concatenate([np.full((len(x), 1), 0.7), x], axis=1)

    S = general_bisection(U, section, rotF.chart_box, label="newton")
    x = np.array([[0.6, 0.1]])
    fwd = S.phi(x)
    assert np.linalg.norm(S.phi_inv(fwd) - x) <= 1e-8


def test_not_a_bisection(U):
    # a "section" that is not a section of the source map
    def broken(x):
        return np.concatenate([np.zeros((len(x), 1)), x + 1.0], axis=1)

    S = general_bisection(U, broken, U.foliation.chart_box)
    with pytest.raises(NotABisection):
        bisection_diffeo(S)


def test_structural_keys_match_across_loads():
    """Two loads of the canonical config give equal keys and same_term
    hosts, translates included; a changed generator does not."""
    one, two = canonical_workspace(), canonical_workspace()
    for name in one.bisubmersions:
        U, V = one.bisubmersions[name], two.bisubmersions[name]
        assert U is not V and U.key() == V.key() and U.same_term(V), name
    for name in one.bisections:
        assert one.bisections[name].key() == two.bisections[name].key(), name
    for ws in (one, two):
        ws.kernels["dr"] = ker.convolve(ws.kernels["dirac_rot90"],
                                        ws.kernels["gauss_R"], ws.ctx())
    hosts = [ws.kernels["dr"].atoms[0].host for ws in (one, two)]
    assert isinstance(hosts[0], bis.TranslateLeft)
    assert hosts[0].same_term(hosts[1])
    # Atoms, translated ones included, are keyed by structure too, the
    # plateau coefficient of dirac_identity by its boxes.
    for name in one.kernels:
        a, b = one.kernels[name].atoms, two.kernels[name].atoms
        assert all(x is not y and x.key() == y.key() for x, y in zip(a, b)), name
    keys = {x.key() for k in one.kernels.values() for x in k.atoms}
    assert len(keys) == sum(len(k.atoms) for k in one.kernels.values())

    F = one.foliations["R"]
    G = SingularFoliation(dim=2, chart_box=F.chart_box,
                          generators=[parse_field("[-x2, 2*x1]", 2)],
                          xi_radius=F.xi_radius)
    U, W = one.bisubmersions["U_R"], make_path_holonomy(G)
    assert U.key() != W.key() and not U.same_term(W)
    S = constant_bisection(U, [0.5])
    assert S.key() == constant_bisection(two.bisubmersions["U_R"], [0.5]).key()
    assert S.key() != constant_bisection(W, [0.5]).key()
    assert S.key() != constant_bisection(U, [0.6]).key()


def test_other_bisections_keep_object_identity(U):
    S = general_bisection(U, lambda x: np.concatenate(
        [np.full((len(x), 1), 0.3), x], axis=1), [[-1, 1], [-1, 1]])
    T = general_bisection(U, lambda x: np.concatenate(
        [np.full((len(x), 1), 0.3), x], axis=1), [[-1, 1], [-1, 1]])
    assert S.key() == S.key() and S.key() != T.key()
    assert S.key()[1] is S  # held, so the key cannot outlive the bisection
    assert not translate(U, S, "left").same_term(translate(U, T, "left"))


def test_inverse_chart_is_inner_other_side_chart(U):
    """A fibre of the inverse over x is the inner term's opposite fibre
    over x: its rows are the inner term's other-side chart rows, and the
    inverse's own map of that side sends them back to x."""
    Ut = invert(U)
    xi = np.linspace(-1.2, 1.2, 7)[:, None]
    x = np.tile([0.8, -0.3], (7, 1))
    for side, other in (("r", "s"), ("s", "r")):
        params = Ut.chart(side, xi, x)
        assert np.array_equal(params, U.chart(other, xi, x))
        assert np.max(np.abs(getattr(Ut, side)(params) - x)) <= 1e-7


def test_strict_maps_raise_where_the_escape_mask_is_false():
    """S flows x to x e^xi, monotonically, so a row (xi, x) escapes the
    escape box [-12, 12] exactly when |x| e^xi > 12."""
    U_S = canonical_workspace().bisubmersions["U_S"]
    params = np.array([[0.5, 2.0], [1.6, 11.0], [-1.0, -11.0], [1.6, -5.0],
                       [-1.6, 11.0]])
    want = np.abs(params[:, 1]) * np.exp(params[:, 0]) <= 12.0
    pts, ok = U_S.r(params, allow_escape=True)
    assert np.array_equal(ok, want) and not np.all(want)
    assert np.allclose(pts[ok, 0], params[ok, 1] * np.exp(params[ok, 0]),
                       rtol=1e-12, atol=0.0)
    with pytest.raises(DomainEscape, match="range map: 2 parameter rows escaped"):
        U_S.r(params)
    with pytest.raises(DomainEscape):
        U_S.r([[1.6, 11.0]])
    assert np.array_equal(U_S.r(params[want]), pts[ok])
