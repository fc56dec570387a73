"""Work a pairing skips where it can prove the skipped work repeats: a
density that reads only its fibre coordinates is evaluated once per node,
a reduced density on a translation family is such a density on blocks
where no mask or escape can fire, and Op of a lazy convolution pairs its
inner factor against f o s directly.  Each path gives the bits of the
path it replaces."""

import gc
import math
import weakref

import numpy as np
import pytest

from foliops import bisubmersion as bis
from foliops import kernel as ker
from foliops import op as oper
from foliops.canonical import canonical_workspace
from foliops.expr import parse_field, parse_scalar
from foliops.foliation import SingularFoliation


@pytest.fixture(scope="module")
def ws():
    return canonical_workspace()


def _atom(ws, name):
    (atom,) = ws.kernels[name].atoms
    return atom


def _variant(atom, fibre_only, seen=None):
    """``atom`` with another ``fibre_only``; ``seen`` records the row count
    of every call of its density."""
    fn = atom.dens_fn
    if seen is not None:
        def fn(params, rbase, inner=atom.dens_fn):
            seen.append(len(params))
            return inner(params, rbase)
    return ker.DensityAtom(atom.host, fn, atom.xi_box, atom.base_box,
                           atom.quad_order, dens_key=atom.dens_key,
                           fibre_only=fibre_only)


def _plan_bytes(atom, side, bases):
    ctx = ker.PairingCtx()
    return [tuple(a.tobytes() for a in block.arrays)
            for block in atom._plan_blocks(side, np.asarray(bases, float), ctx)]


def _reduced(ws, U_name, a, b):
    ctx = ws.ctx()
    pi = bis.make_addition_morphism(ws.bisubmersions[U_name], cfg=ctx.flow)
    (atom,) = ker.pushforward(pi, ker.convolve(a, b, ctx), ctx).atoms
    assert isinstance(atom, ker.DensityAtom)
    return atom


# --- densities that read only the fibre ---------------------------------------


@pytest.mark.parametrize("name", ["gauss_T", "gauss_T2", "gauss_R", "gauss_C",
                                  "gauss_C2"])
def test_canonical_fibre_densities_declare_it(ws, name):
    assert _atom(ws, name).fibre_only is True


@pytest.mark.parametrize("name", ["gauss_T_based", "gauss_S"])
def test_densities_that_read_the_base_do_not(ws, name):
    assert _atom(ws, name).fibre_only is None


@pytest.mark.parametrize("name, bases", [
    ("gauss_R", [[0.3, -0.2], [1.9, 1.9], [7.9, 0.4], [9.0, 0.0], [-2.0, 1.1]]),
    ("gauss_C", [[0.3, -0.2], [7.5, -7.9], [-8.5, 0.0], [1.2, 1.2]]),
])
@pytest.mark.parametrize("side", ["r", "s"])
def test_fibre_only_tiling_keeps_the_bits_of_per_row_evaluation(ws, name,
                                                                 bases, side):
    """Rows whose chart escapes or whose base leaves the base box are among
    the bases; the tiled plan is the per-row plan bit for bit."""
    atom = _atom(ws, name)
    seen = []
    tiled = _plan_bytes(_variant(atom, True, seen), side, bases)
    assert seen == [atom.node_count(ker.PairingCtx())]
    assert tiled == _plan_bytes(_variant(atom, None), side, bases)


def test_a_density_that_reads_the_base_goes_per_row(ws):
    atom = _atom(ws, "gauss_T_based")
    seen = []
    bases = np.linspace(-2.0, 2.0, 5)[:, None]
    _plan_bytes(_variant(atom, atom.fibre_only, seen), "r", bases)
    assert seen == [5 * atom.node_count(ker.PairingCtx())]


def test_scaling_keeps_the_declaration(ws):
    (atom,) = (2.5 * ws.kernels["gauss_R"]).atoms
    assert atom.fibre_only is True


# --- reduced densities under the shift proof ----------------------------------


def _narrowed(ws, name, base_box):
    """The canonical density ``name`` on a narrower base box."""
    atom = _atom(ws, name)
    return ker.density(atom.host, parse_scalar(atom.dens_key[2],
                                               atom.host.param_len),
                       xi_box=atom.xi_box, base_box=base_box,
                       quad_order=atom.quad_order)


@pytest.mark.parametrize("family, side, bases", [
    pytest.param("T", "r", [[-1.5], [0.0], [1.9]], id="T"),
    pytest.param("C", "r", [[-1.2, 0.4], [1.1, -0.9]], id="C"),
    # mid points up to 11.0 + 0.9967 against the escape edge 12: the proof
    # bounds the shifts of B's nodes, not of B's xi box
    pytest.param("T", "s", [[10.9], [11.0]], id="T-near-escape-edge"),
])
def test_reduced_density_is_tiled_where_the_shift_proof_holds(ws, family, side,
                                                               bases):
    U_name, a, b = {"T": ("U_T", "gauss_T", "gauss_T2"),
                    "C": ("U_C", "gauss_C", "gauss_C2")}[family]
    atom = _reduced(ws, U_name, ws.kernels[a], ws.kernels[b])
    assert callable(atom.fibre_only)
    seen = []
    tiled = _plan_bytes(_variant(atom, atom.fibre_only, seen), side, bases)
    Q = atom.node_count(ker.PairingCtx())
    assert seen == [Q]
    assert tiled == _plan_bytes(_variant(atom, None), side, bases)


@pytest.mark.parametrize("family, bases, a_box", [
    # near the escape box: mid points of some nodes escape
    ("T", [[10.9], [11.5]], None),
    ("C", [[0.0, 7.6], [-7.7, 0.2]], None),
    # A's base box cut so that it masks some nodes' mid points
    ("T", [[-1.0], [0.5]], [[-2.0, 12.0]]),
    ("C", [[0.4, -0.3], [-1.0, 1.0]], [[-8.0, 8.0], [-2.5, 1.0]]),
])
def test_reduced_density_goes_per_row_where_the_proof_fails(ws, family, bases,
                                                            a_box):
    U_name, a, b = {"T": ("U_T", "gauss_T", "gauss_T2"),
                    "C": ("U_C", "gauss_C", "gauss_C2")}[family]
    left = ws.kernels[a] if a_box is None else _narrowed(ws, a, a_box)
    atom = _reduced(ws, U_name, left, ws.kernels[b])
    seen = []
    proved = _plan_bytes(_variant(atom, atom.fibre_only, seen), "r", bases)
    Q = atom.node_count(ker.PairingCtx())
    assert seen and seen[0] > Q  # the rows themselves, not the Q nodes
    per_row = _plan_bytes(_variant(atom, None), "r", bases)
    assert proved == per_row
    # the masks fired: some node is NaN (escape) or the values moved (box)
    reference = _plan_bytes(_reduced(ws, U_name, ws.kernels[a], ws.kernels[b]),
                            "r", bases)
    nan_nodes = [block[1] for block in proved]
    assert any(len(n) for n in nan_nodes) or proved != reference


def test_reduced_density_goes_per_row_where_a_start_leaves_the_escape_box(ws):
    """B's base box reaches past the escape box [-12, 12], and B's shifts,
    all in [0.5, 1.0], carry the start -12.2 back inside: its flows escape
    all the same, so the proof fails and the block keeps their NaN nodes."""
    gauss_T2 = _atom(ws, "gauss_T2")
    b = ker.density(gauss_T2.host, parse_scalar(gauss_T2.dens_key[2], 2),
                    xi_box=[[0.5, 1.0]], base_box=[[-13.0, 13.0]])
    atom = _reduced(ws, "U_T", ws.kernels["gauss_T"], b)
    bases = [[-12.2], [0.0]]
    seen = []
    proved = _plan_bytes(_variant(atom, atom.fibre_only, seen), "s", bases)
    assert seen and seen[0] > atom.node_count(ker.PairingCtx())
    assert proved == _plan_bytes(_variant(atom, None), "s", bases)
    assert any(len(block[1]) for block in proved)


def test_reduced_density_of_a_base_reading_factor_is_not_declared(ws):
    atom = _reduced(ws, "U_T", ws.kernels["gauss_T_based"], ws.kernels["gauss_T2"])
    assert atom.fibre_only is None


def test_reduced_density_off_translation_families_is_not_declared():
    """On scalings the mid point is e^xi y, which a box shift does not bound."""
    F = SingularFoliation(dim=1, chart_box=[[-2, 2]],
                          generators=[parse_field("[x1]", 1)], xi_radius=[1.6],
                          escape_factor=6.0)
    U = bis.make_path_holonomy(F)
    a = ker.density(U, parse_scalar("exp(-25*(x1-0.4)^2)", 2),
                    xi_box=[[-0.7, 1.5]], base_box=[[-12.0, 12.0]])
    b = ker.density(U, parse_scalar("exp(-20*(x1+0.2)^2)", 2),
                    xi_box=[[-1.2, 0.9]], base_box=[[-12.0, 12.0]])
    pi = bis.make_addition_morphism(U)
    (atom,) = ker.pushforward(pi, ker.convolve(a, b)).atoms
    assert isinstance(atom, ker.DensityAtom) and atom.fibre_only is None


def _gauss_pair(ca, ma, cb, mb, zeta, lo, hi):
    """int_lo^hi exp(-ca (zeta - xi - ma)^2 - cb (xi - mb)^2) dxi in erf."""
    a = ca + cb
    b = 2.0 * ca * (zeta - ma) + 2.0 * cb * mb
    c = ca * (zeta - ma) ** 2 + cb * mb ** 2
    x0, s = b / (2.0 * a), math.sqrt(a)
    return (math.exp(b * b / (4.0 * a) - c) * math.sqrt(math.pi / a) / 2.0
            * (math.erf(s * (hi - x0)) - math.erf(s * (lo - x0))))


def test_reduced_density_on_T_matches_its_closed_form(ws):
    """c(zeta) = int_{-1.4}^{1.0} exp(-25 (zeta - xi - 0.3)^2 - 20 (xi + 0.2)^2)
    at the reduced atom's 32 nodes on [-2.2, 2.4]."""
    atom = _reduced(ws, "U_T", ws.kernels["gauss_T"], ws.kernels["gauss_T2"])
    zeta = atom._nodes(ker.PairingCtx())[0][:, 0]
    assert len(zeta) == 32 and np.allclose(atom.xi_box, [[-2.2, 2.4]])
    params = np.stack([zeta, np.full_like(zeta, 0.4)], axis=1)
    got = atom.dens_fn(params, None)
    want = [_gauss_pair(25.0, 0.3, 20.0, -0.2, z, -1.4, 1.0) for z in zeta]
    assert np.max(np.abs(got - want)) <= 5e-7


def test_reduced_density_on_C_matches_its_closed_form(ws):
    """On C the reduction separates: a product of two 1-D closed forms over
    gauss_C2's xi box, at the reduced atom's 40 x 40 nodes."""
    atom = _reduced(ws, "U_C", ws.kernels["gauss_C"], ws.kernels["gauss_C2"])
    zeta = atom._nodes(ker.PairingCtx())[0]
    assert len(zeta) == 1600
    params = np.concatenate([zeta, np.tile([[0.3, -0.5]], (len(zeta), 1))], axis=1)
    got = atom.dens_fn(params, None)
    want = [_gauss_pair(10.0, 0.2, 10.0, -0.3, z1, -1.6, 1.0)
            * _gauss_pair(10.0, -0.1, 10.0, 0.2, z2, -1.1, 1.5)
            for z1, z2 in zeta]
    assert np.max(np.abs(got - want)) <= 5e-6


# --- Op of a lazy convolution -------------------------------------------------


def _composite_rows_phi(f, host, flow):
    """Op's integrand as a plain function: it reads whole composite rows."""
    f_fn = oper._wrap_f(f)

    def phi(params, rows):
        spts, ok = host.s(params, flow, allow_escape=True)
        return np.where(ok, f_fn(spts), np.nan)

    return phi


def _pendulum():
    F = SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                          generators=[parse_field("[x2, -sin(x1)]", 2)],
                          xi_radius=[1.0])
    U = bis.make_path_holonomy(F)
    a = ker.density(U, parse_scalar("exp(-25*(x1-0.1)^2-0.1*(x2^2+x3^2))", 3),
                    xi_box=[[-1.25, 1.25]], quad_order=8)
    b = ker.density(U, parse_scalar("exp(-22*(x1+0.2)^2-0.15*(x2^2+x3^2))", 3),
                    xi_box=[[-1.25, 1.25]], quad_order=8)
    f = parse_scalar("exp(-(x1-0.2)^2-1.3*(x2+0.1)^2)", 2)
    return a, b, f, oper.grid_points([[-1, 1], [-1, 1]], (3, 3))


def _lazy_cases(ws):
    yield (ws.kernels["gauss_T"], ws.kernels["gauss_T2"], ws.functions["f_T"],
           np.linspace(-2.0, 2.0, 9)[:, None])
    yield (ws.kernels["gauss_R"], ws.kernels["gauss_R2"], ws.functions["f_R"],
           oper.grid_points([[-2, 2], [-2, 2]], (3, 3)))
    yield _pendulum()


@pytest.mark.parametrize("case, transposed", [
    pytest.param(case, transposed, id=name + ("-transposed" if transposed else ""))
    for transposed in (False, True)
    for case, name in enumerate(["T", "R", "pendulum"])
])
def test_lazy_op_pairs_its_inner_factor_with_the_bits_of_composite_rows(
        ws, case, transposed):
    """Cold and on three calls that share one store (the inner plans are
    kept from the third), Op of a*b, and of (b^t * a^t)^t, equals the
    composite-row pairing."""
    a, b, f, pts = list(_lazy_cases(ws))[case]
    if transposed:
        k = ker.transpose(ker.convolve(ker.transpose(b), ker.transpose(a)))
    else:
        k = ker.convolve(a, b)
    (atom,) = k.atoms
    assert isinstance(atom, ker.TransposedAtom if transposed else ker.ConvolvedAtom)
    cold = ker.PairingCtx(ws.quad_cfg, ws.flow_cfg)
    want = atom.pair("r", pts, _composite_rows_phi(f, atom.host, cold.flow), cold)
    store = ker.PairingCtx(ws.quad_cfg, ws.flow_cfg)
    for _ in range(3):
        got = oper.op_values(ker.FibredKernel("r", [atom]), f, pts,
                             ker.PairingCtx(ws.quad_cfg, ws.flow_cfg, 0,
                                            store.plans))
        assert got.tobytes() == want.tobytes()
    assert np.any(want != 0.0)


def test_op_integrand_of_another_host_reads_composite_rows(ws):
    """f o s of the inverse composite is f o r of the composite, which the
    inner factor cannot give: a lazy convolution pairs it on whole
    composite rows, as an Integrand with the bits of a plain function."""
    f, pts = ws.functions["f_T"], np.linspace(-1.0, 1.0, 5)[:, None]
    (atom,) = ker.convolve(ws.kernels["gauss_T"], ws.kernels["gauss_T2"]).atoms
    other = bis.invert(atom.host)
    ctx = ker.PairingCtx()
    f_fn = oper._wrap_f(f)

    def geometry(params):
        return other.s(params, ctx.flow, allow_escape=True)

    def gather(params, geom):
        return np.where(geom[1], f_fn(geom[0]), np.nan)

    got = atom.pair("r", pts, ker.Integrand(geometry, gather, ("op", other.key())),
                    ctx)
    want = atom.pair("r", pts, _composite_rows_phi(f, other, ctx.flow),
                     ker.PairingCtx())
    assert got.tobytes() == want.tobytes()


def _composition_maps(monkeypatch):
    """Record (side, row width) of every Composition map call."""
    calls = []
    original = bis.Composition._map

    def spy(self, side, params, cfg):
        calls.append((side, np.atleast_2d(params).shape[1]))
        return original(self, side, params, cfg)

    monkeypatch.setattr(bis.Composition, "_map", spy)
    return calls


def test_lazy_op_reads_no_composite_row(ws, monkeypatch):
    ab = ker.convolve(ws.kernels["gauss_T"], ws.kernels["gauss_T2"])
    calls = _composition_maps(monkeypatch)
    oper.op_values(ab, ws.functions["f_T"], np.zeros((1, 1)))
    assert calls == []


def test_transposed_composite_reads_no_composite_row(ws, monkeypatch):
    """Op of (b^t * a^t)^t acts as Op(a) after Op(b), as Op of a*b does."""
    ctx = ker.PairingCtx()
    k = ker.transpose(ker.convolve(ker.transpose(ws.kernels["gauss_T2"]),
                                   ker.transpose(ws.kernels["gauss_T"]), ctx))
    calls = _composition_maps(monkeypatch)
    oper.op_values(k, ws.functions["f_T"], np.zeros((1, 1)), ctx)
    assert calls == []


def test_pushed_atom_still_reads_composite_rows(ws, monkeypatch):
    """A PushedAtom hands its morphism whole composite rows."""
    pi = bis.make_addition_morphism(ws.bisubmersions["U_T"])
    (conv,) = ker.convolve(ws.kernels["gauss_T"], ws.kernels["gauss_T2"]).atoms
    widths = []
    add_map = pi.map

    def spy(params):
        widths.append(params.shape[1])
        return add_map(params)

    monkeypatch.setattr(pi, "map", spy)
    pushed = ker.FibredKernel("r", [ker.PushedAtom(pi, conv)])
    vals = oper.op_values(pushed, ws.functions["f_T"], np.zeros((1, 1)))
    assert widths and set(widths) == {conv.host.param_len}
    lazy = oper.op_values(ker.FibredKernel("r", [conv]), ws.functions["f_T"],
                          np.zeros((1, 1)))
    assert abs(vals[0] - lazy[0]) <= 1e-12


def test_no_cycle_keeps_a_plan_store_alive():
    """Op of a lazy convolution on a workspace that goes out of scope frees
    the workspace's plan store without a garbage collection."""

    def run():
        ws = canonical_workspace()
        ab = ker.convolve(ws.kernels["gauss_T"], ws.kernels["gauss_T2"],
                          ws.ctx())
        oper.op_values(ab, ws.functions["f_T"], np.zeros((3, 1)), ws.ctx())
        assert len(ws.plans)
        return weakref.ref(ws.plans)

    gc.collect()
    gc.disable()
    try:
        store = run()
        assert store() is None
    finally:
        gc.enable()
