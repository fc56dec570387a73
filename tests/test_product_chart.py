"""Broadcast batches of fibre charts and flows.

Charts and flows take fibre coordinates (..., k) against points (..., n)
with the leading axes broadcast.  A plan block pairs Q quadrature nodes
with N base points as the product (Q, k) against (N, 1, n); every
comparison below checks that the rows a broadcast batch gives have the
bits of the rows written out, as np.repeat(bases, Q) against
np.tile(nodes, N) for a product.
"""

import numpy as np
import pytest

from foliops import bisubmersion as bis
from foliops import kernel as ker
from foliops import op as oper
from foliops.canonical import (
    canonical_workspace,
    foliation_C,
    foliation_R,
    foliation_S,
    foliation_T,
)
from foliops.expr import parse_field
from foliops.flow import back_flow_batch, exp_flow_batch, flow_jacobian_batch
from foliops.foliation import SingularFoliation


def foliation_P():
    """The pendulum: no affine generator, so its flows take DP45."""
    return SingularFoliation(dim=2, chart_box=[[-2.0, 2.0], [-2.0, 2.0]],
                             generators=[parse_field("[x2, -sin(x1)]", 2)],
                             xi_radius=[1.0])


FOLIATIONS = {"T": foliation_T, "R": foliation_R, "S": foliation_S,
              "C": foliation_C, "P": foliation_P}


def _bases(F, kind):
    """Bases inside the chart box; on the escape-box edge and one ulp
    outside it; or with a NaN among inside ones."""
    rng = np.random.default_rng(5)
    lo, hi = F.escape_box.T
    inner = rng.uniform(F.chart_box[:, 0], F.chart_box[:, 1], (7, F.dim))
    if kind == "inner":
        return inner
    if kind == "edge":
        return np.vstack([lo, hi, np.nextafter(lo, -np.inf),
                          np.nextafter(hi, np.inf), inner[:2]])
    return np.vstack([inner[:3], np.full(F.dim, np.nan), inner[3:]])


def _nodes(box, kind):
    """Gauss nodes of the box at a low order, with a non-finite node
    (inf, then NaN) in the middle for ``kind == "nonfinite"``."""
    nodes = ker.gauss_nodes(box, 4)[0]
    if kind == "nonfinite":
        nodes = nodes.copy()
        nodes[1, 0] = np.inf
        nodes[-2, -1] = np.nan
    return nodes


def _rows(nodes, bases):
    return np.tile(nodes, (len(bases), 1)), np.repeat(bases, len(nodes), axis=0)


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _terms():
    """Every kind of term that hosts a density, by name."""
    terms = {f"path_holonomy_{k}": bis.make_path_holonomy(f())
             for k, f in FOLIATIONS.items()}
    for k in ("R", "P"):
        U = terms[f"path_holonomy_{k}"]
        S = bis.constant_bisection(U, [0.4])
        terms[f"inverse_{k}"] = bis.invert(U)
        terms[f"translate_left_{k}"] = bis.TranslateLeft(U, S)
        terms[f"translate_right_{k}"] = bis.TranslateRight(U, S)
    U_C = terms["path_holonomy_C"]
    terms["restriction_C"] = bis.restrict(
        U_C, [[-1.0, 1.0], [-0.5, 1.5], [-2.0, 2.0], [-2.0, 2.0]])
    terms["composition_T"] = bis.compose(terms["path_holonomy_T"],
                                         terms["path_holonomy_T"])
    return terms


TERMS = _terms()


@pytest.mark.parametrize("name", sorted(TERMS))
@pytest.mark.parametrize("side", ["r", "s"])
@pytest.mark.parametrize("base_kind", ["inner", "edge", "nan"])
@pytest.mark.parametrize("node_kind", ["finite", "nonfinite"])
def test_product_chart_equals_row_chart(name, side, base_kind, node_kind):
    U = TERMS[name]
    bases = _bases(U.foliation, base_kind)
    nodes = _nodes(U.xi_box(), node_kind)
    params, ok = U.chart(side, nodes, bases[:, None], allow_escape=True)
    ref_params, ref_ok = U.chart(side, *_rows(nodes, bases), allow_escape=True)
    assert _same(params, ref_params) and _same(ok, ref_ok)
    if base_kind == "inner" and node_kind == "finite" and side == "s":
        assert ok.any()


@pytest.mark.parametrize("name", sorted(FOLIATIONS))
@pytest.mark.parametrize("base_kind", ["inner", "edge", "nan"])
@pytest.mark.parametrize("node_kind", ["finite", "nonfinite"])
def test_product_flow_equals_tiled_rows(name, base_kind, node_kind):
    """Shift (T, C), expm (R, S) and DP45 (P) families: points, Jacobians
    and escape masks of a product, reshaped to rows, are the rows' own."""
    F = FOLIATIONS[name]()
    bases = _bases(F, base_kind)
    nodes = _nodes(F.xi_box, node_kind)
    N, Q = len(bases), len(nodes)
    xi, x = _rows(nodes, bases)
    for entry in (exp_flow_batch, back_flow_batch, flow_jacobian_batch):
        got = entry(F, nodes, bases[:, None], allow_escape=True)
        ref = entry(F, xi, x, allow_escape=True)
        assert got[-1].shape == (N, Q)
        for a, b in zip(got, ref):
            assert _same(np.reshape(a, (N * Q,) + b.shape[1:]), b), entry.__name__


def _broadcast_points(F):
    """Points inside the escape box, near its corners (outside every
    rotation's log-norm ball), outside it, and a NaN."""
    rng = np.random.default_rng(13)
    lo, hi = F.escape_box.T
    inner = rng.uniform(F.chart_box[:, 0], F.chart_box[:, 1], (6, F.dim))
    corners = np.array([lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo),
                        np.where(np.arange(F.dim) % 2, lo, hi) * 0.95])
    return np.vstack([inner, corners, hi + 0.5, np.full(F.dim, np.nan)])


def _written_out(xi, x):
    shape = np.broadcast_shapes(xi.shape[:-1], x.shape[:-1])
    return (np.broadcast_to(xi, shape + xi.shape[-1:]).reshape(-1, xi.shape[-1]),
            np.broadcast_to(x, shape + x.shape[-1:]).reshape(-1, x.shape[-1]))


@pytest.mark.parametrize("name", sorted(FOLIATIONS))
@pytest.mark.parametrize("xi_value", [1.6, -0.3, np.inf, np.nan])
@pytest.mark.parametrize("form", ["one_xi", "one_point"])
def test_broadcast_flow_equals_written_out_rows(name, xi_value, form):
    """One xi (1, m) against N points, or N xi rows against one point
    (1, n): points, Jacobians and escape masks are the written-out rows'
    on shift (T, C), expm (R, S) and DP45 (P) families."""
    F = FOLIATIONS[name]()
    x = _broadcast_points(F)
    xi = np.full((1, F.num_generators), xi_value)
    if form == "one_point":
        xi = xi * np.linspace(0.1, 1.0, len(x))[:, None]
        x = x[6:7]  # the first corner point
    for entry in (exp_flow_batch, back_flow_batch, flow_jacobian_batch):
        got = entry(F, xi, x, allow_escape=True)
        ref = entry(F, *_written_out(xi, x), allow_escape=True)
        for a, b in zip(got, ref):
            assert _same(np.ascontiguousarray(a), b), entry.__name__


def test_broadcast_rotation_samples_its_paths():
    """On R, a quarter turn takes a corner point to the next corner inside
    the box, but its path leaves the box: only the path samples see it,
    and they run under broadcast as on the written-out rows."""
    F = foliation_R()
    x = _broadcast_points(F)
    xi = np.array([[np.pi / 2]])
    Y, escaped = exp_flow_batch(F, xi, x, allow_escape=True)
    ref = exp_flow_batch(F, *_written_out(xi, x), allow_escape=True)
    assert _same(Y, ref[0]) and _same(escaped, ref[1])
    inside = F.escape_box[:, 0] <= Y
    inside &= Y <= F.escape_box[:, 1]
    assert np.any(escaped & inside.all(axis=1))


CHART_TERMS = ["composition_T", "translate_left_P", "translate_left_R",
               "translate_right_P", "translate_right_R"]


@pytest.mark.parametrize("name", CHART_TERMS)
@pytest.mark.parametrize("side", ["r", "s"])
@pytest.mark.parametrize("form", ["one_xi", "one_base"])
def test_broadcast_chart_equals_written_out_rows(name, side, form):
    """Translate and Composition charts over K broadcast rows: one xi
    against K bases, or K nodes against one base.  Their products are
    checked by test_product_chart_equals_row_chart."""
    U = TERMS[name]
    bases = _bases(U.foliation, "edge")
    nodes = _nodes(U.xi_box(), "nonfinite")
    xi, at = (nodes[:1], bases) if form == "one_xi" else (nodes, bases[-1:])
    params, ok = U.chart(side, xi, at, allow_escape=True)
    ref_params, ref_ok = U.chart(side, *_written_out(xi, at), allow_escape=True)
    assert _same(params, ref_params) and _same(ok, ref_ok)
    assert ok.any()


def test_shift_product_proves_its_end_points_inside():
    """On a translation family, starts well inside and short shifts end
    inside: the product's mask is its starts' mask, as the rows'."""
    F = foliation_C()
    bases = _bases(F, "inner")
    nodes = _nodes(F.xi_box * 0.1, "finite")
    _, escaped = exp_flow_batch(F, nodes, bases[:, None], allow_escape=True)
    assert not escaped.any()
    far = np.vstack([bases, F.escape_box[:, 1] - 0.01])  # ends past the edge
    _, escaped = exp_flow_batch(F, nodes, far[:, None], allow_escape=True)
    ref = exp_flow_batch(F, *_rows(nodes, far), allow_escape=True)[1]
    assert escaped[-1].any() and not escaped[:-1].any()
    assert _same(escaped.reshape(-1), ref)


@pytest.mark.parametrize("end", [-12.0, np.nextafter(-12.0, -np.inf)])
def test_shift_product_end_one_ulp_outside_escapes(end):
    """On T the escape box is [-12, 12]: an end point on its edge stays,
    one ulp past it escapes, as a row."""
    F = foliation_T()
    bases = np.array([[-10.0], [0.0], [5.0]])
    nodes = np.array([[end + 10.0], [0.5], [1.0]])
    assert bases[0, 0] + nodes[0, 0] == end
    Y, escaped = exp_flow_batch(F, nodes, bases[:, None], allow_escape=True)
    ref = exp_flow_batch(F, *_rows(nodes, bases), allow_escape=True)
    assert escaped.sum() == (end < -12.0) and escaped[0, 0] == (end < -12.0)
    assert _same(Y.reshape(-1, 1), ref[0]) and _same(escaped.reshape(-1), ref[1])


def _row_charts(monkeypatch):
    """Chart every product as the rows it stands for, as plan blocks were
    built before product charts."""
    for cls in (bis.Bisubmersion, bis.PathHolonomy):
        chart = cls.chart

        def rows(self, side, xi, bases, cfg=None, allow_escape=False, chart=chart):
            if np.ndim(bases) == 3:
                xi, bases = _rows(np.atleast_2d(xi), bases[:, 0])
            return chart(self, side, xi, bases, cfg, allow_escape)

        monkeypatch.setattr(cls, "chart", rows)


def _atoms(ws):
    ctx = ws.ctx()
    get = ws.get
    U_C = get("bisubmersions", "U_C")
    pi = bis.make_addition_morphism(U_C, cfg=ctx.flow)
    reduced = ker.pushforward(pi, ker.convolve(get("kernels", "gauss_C"),
                                               get("kernels", "gauss_C2"), ctx), ctx)
    return {
        "gauss_R": get("kernels", "gauss_R").atoms[0],
        "gauss_C": get("kernels", "gauss_C").atoms[0],
        "gauss_T_based": get("kernels", "gauss_T_based").atoms[0],
        "gauss_S": get("kernels", "gauss_S").atoms[0],
        "dirac_rot90*gauss_R": ker.convolve(get("kernels", "dirac_rot90"),
                                            get("kernels", "gauss_R"), ctx).atoms[0],
        "gauss_R*dirac_rot90": ker.convolve(get("kernels", "gauss_R"),
                                            get("kernels", "dirac_rot90"), ctx).atoms[0],
        "reduced_C": reduced.atoms[0],
    }


@pytest.mark.parametrize("name", ["gauss_R", "gauss_C", "gauss_T_based", "gauss_S",
                                  "dirac_rot90*gauss_R", "gauss_R*dirac_rot90",
                                  "reduced_C"])
@pytest.mark.parametrize("side", ["r", "s"])
def test_plan_blocks_equal_row_built_blocks(name, side, monkeypatch):
    ws = canonical_workspace()
    atom = _atoms(ws)[name]
    n = atom.host.base_dim
    box = [[-2.5, 2.5]] * n
    bases = oper.grid_points(box, (23,) * n if n == 1 else (9, 9))
    bases[3] = np.nan
    ctx = ker.PairingCtx(ker.QuadratureConfig(order=8, order_highdim=6))
    blocks = list(atom._plan_blocks(side, bases, ctx))
    _row_charts(monkeypatch)
    ref = list(atom._plan_blocks(side, bases, ctx))
    assert len(blocks) == len(ref)
    for block, ref_block in zip(blocks, ref):
        assert all(_same(a, b) for a, b in zip(block.arrays, ref_block.arrays))


@pytest.mark.parametrize("live_all", [True, False])
def test_all_live_block_skips_only_the_gathers(live_all):
    """A block whose every node is live has the arrays of the flat-index
    gathers: weight x density, base rows, no NaN node."""
    rng = np.random.default_rng(3)
    N, Q, offset = 5, 4, 7
    dens = rng.uniform(0.5, 1.0, N * Q)
    ok = np.ones(N * Q, dtype=bool)
    if not live_all:
        dens[[2, 9]] = [0.0, np.inf]
        ok[13] = False
    weights = rng.uniform(0.1, 1.0, Q)
    params = rng.normal(size=(N * Q, 3))
    block = ker._PlanBlock(Q, ok, dens, lambda idx: params[idx], weights, offset)
    live, nan, got_params, rows, wd = block.arrays
    idx = np.flatnonzero(live)
    assert live.all() == live_all
    assert _same(nan, np.flatnonzero(~(ok & np.isfinite(dens))).astype(np.int32))
    assert _same(got_params, params[idx])
    assert _same(rows, (idx // Q + offset).astype(np.int32))
    assert _same(wd, weights[idx % Q] * dens[idx])


def test_translate_maps_each_base_once_per_block(monkeypatch):
    """Phi_S of a translate sees the N bases of a block, not N x Q rows."""
    ws = canonical_workspace()
    ctx = ws.ctx()
    atom = ker.convolve(ws.get("kernels", "dirac_rot90"), ws.get("kernels", "gauss_R"),
                        ctx).atoms[0]
    assert isinstance(atom.host, bis.TranslateLeft)
    seen = []
    phi_inv = bis.Bisection.phi_inv

    def spy(self, x, *args, **kw):
        seen.append(len(x))
        return phi_inv(self, x, *args, **kw)

    monkeypatch.setattr(bis.Bisection, "phi_inv", spy)
    bases = oper.grid_points([[-2.0, 2.0], [-2.0, 2.0]], (41, 41))
    Q = atom.node_count(ctx)
    per_block = ker._BLOCK_ROWS // Q
    list(atom._plan_blocks("r", bases, ctx))
    assert seen == [min(per_block, len(bases) - i)
                    for i in range(0, len(bases), per_block)]
    assert len(seen) > 1 and sum(seen) == len(bases)


def test_reduced_density_evaluates_a_fibre_only_factor_per_node():
    """The reduced density of a pushforward on C has the bits it has when
    its right factor is evaluated on every (base, node) row."""
    ws = canonical_workspace()
    ctx = ws.ctx()
    U = ws.get("bisubmersions", "U_C")
    pi = bis.make_addition_morphism(U, cfg=ctx.flow)
    a, b = ws.get("kernels", "gauss_C"), ws.get("kernels", "gauss_C2")
    B = b.atoms[0]
    assert B.fibre_only is True
    per_row = ker.FibredKernel("r", [ker.DensityAtom(
        B.host, B.dens_fn, B.xi_box, B.base_box, B.quad_order,
        dens_key=("per row",), fibre_only=None)])
    rng = np.random.default_rng(8)
    params = np.column_stack([rng.uniform(-3.6, 3.6, (300, 2)),
                              rng.uniform(-2.5, 2.5, (300, 2))])
    params[7, 2] = np.nan
    params[11, 2:] = [7.9, 0.0]  # mid points escape
    vals = []
    for right in (b, per_row):
        reduced = ker.pushforward(pi, ker.convolve(a, right, ctx), ctx).atoms[0]
        vals.append(reduced.dens_fn(params, None))
    assert _same(vals[0], vals[1])
    assert np.isfinite(vals[0]).sum() >= 290 and np.isnan(vals[0][11])


@pytest.mark.parametrize("name", sorted(FOLIATIONS))
def test_foliation_computes_its_escape_box_and_affine_parts_once(name):
    F = FOLIATIONS[name]()
    assert F.escape_box is F.escape_box and not F.escape_box.flags.writeable
    parts = F.affine_parts
    assert parts is F.affine_parts
    if name == "P":
        assert parts is None
    else:
        assert all(not a.flags.writeable for a in parts)
        with pytest.raises(ValueError):
            parts[1][0, 0] = 1.0


def test_fibre_chart_maps_one_base():
    U = bis.make_path_holonomy(foliation_R())
    chart = bis.fibre_param(U, "r", [0.5, -0.25])
    xi = np.array([[0.3], [-1.1], [2.0]])
    ref = U.chart("r", xi, np.tile([0.5, -0.25], (3, 1)))
    assert _same(chart.map(xi), ref)


def _density(params, rbase):
    """A density that is nonzero everywhere, so the base box alone decides
    which chart rows it is evaluated on."""
    return np.exp(-0.1 * np.sum(params * params, axis=1)) + 0.5


def _base_boxes(F):
    """Base boxes equal to, wider than and narrower than the escape box."""
    esc = F.escape_box
    return {"equal": esc.copy(), "wider": esc + [-1.0, 1.0],
            "narrower": F.chart_box.copy()}


def _boxed_bases(F, box):
    """Bases on the escape box and one ulp past it, on the base box and one
    ulp past it, inside the chart box, and a NaN."""
    lo, hi = box.T
    return np.vstack([_bases(F, "edge"), _bases(F, "nan")[3:4], lo, hi,
                      np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                      np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)])


def _per_row_test(atom, bases, under):
    return ker._in_box(under, atom.base_box)


@pytest.mark.parametrize("name", sorted(TERMS))
@pytest.mark.parametrize("side", ["r", "s"])
@pytest.mark.parametrize("box_kind", ["equal", "wider", "narrower"])
def test_base_box_proof_keeps_the_plan_blocks(name, side, box_kind, monkeypatch):
    """A plan block's arrays have the bits of the per-row base-box test
    whether or not the rule proves the test.  Where the base box holds the
    escape box the rule tests the N bases, and all N x Q rows only if a
    base lies outside; elsewhere it tests the N x Q rows."""
    U = TERMS[name]
    F = U.foliation
    box = _base_boxes(F)[box_kind]
    if isinstance(U, bis.Composition):  # parameters not laid out as (fibre, base)
        with pytest.raises(ker.HostMismatch):
            ker.DensityAtom(U, _density, U.xi_box(), box)
        return
    atom = ker.DensityAtom(U, _density, U.xi_box(), box)
    boxed = _boxed_bases(F, box)
    base_sets = {"boxed": boxed, "inside": boxed[ker._in_box(boxed, box)]}
    ctx = ker.PairingCtx(ker.QuadratureConfig(order=4, order_highdim=3))
    Q = atom.node_count(ctx)
    in_box = ker._in_box
    blocks = {}
    for kind, bases in base_sets.items():
        N, tested = len(bases), []

        def spy(points, box, tol=0.0, tested=tested):
            tested.append(len(points))
            return in_box(points, box, tol)

        monkeypatch.setattr(ker, "_in_box", spy)
        blocks[kind] = list(atom._plan_blocks(side, bases, ctx))
        if box_kind == "narrower":
            assert tested == [N * Q]
        else:
            assert tested == ([N] if kind == "inside" else [N, N * Q])
    monkeypatch.setattr(ker, "_in_box", in_box)
    monkeypatch.setattr(ker.DensityAtom, "_in_base_box", _per_row_test)
    for kind, bases in base_sets.items():
        ref = list(atom._plan_blocks(side, bases, ctx))
        assert len(blocks[kind]) == len(ref) == 1
        assert all(_same(a, b) for a, b in zip(blocks[kind][0].arrays, ref[0].arrays))
    live = blocks["boxed"][0].arrays[0]
    assert live.any() and not live.all()


def test_base_box_proof_needs_the_escape_box_inside_the_base_box():
    """On a range fibre of R, a base box narrower than the escape box drops
    flow ends between the two, which the proof would keep."""
    U = TERMS["path_holonomy_R"]
    F = U.foliation
    atom = ker.DensityAtom(U, _density, U.xi_box(), F.chart_box)
    nodes, weights = ker.gauss_nodes(U.xi_box(), 4)
    bases = _boxed_bases(F, F.chart_box)
    params, ok = U.chart("r", *_rows(nodes, bases), allow_escape=True)
    outside = ~ker._in_box(params[:, 1:], F.chart_box)
    assert np.any(ok & outside)
    block = atom._plan_block("r", bases, nodes, weights, ker.PairingCtx(), 0)
    assert not np.any(block.arrays[0] & outside)


_PUSHED = {"T": ("U_T", "gauss_T", "gauss_T2"), "C": ("U_C", "gauss_C", "gauss_C2")}


@pytest.mark.parametrize("name", sorted(_PUSHED))
@pytest.mark.parametrize("box_kind", ["equal", "wider", "narrower"])
def test_reduced_density_keeps_the_per_row_base_box_bits(name, box_kind,
                                                         monkeypatch):
    """The reduced density of pushforward [T] and [C], with factors whose
    base box is equal to, wider or narrower than the escape box, has the
    bits of the per-row test of A's base box on its mid points: on rows
    whose bases all lie in that box, and on rows with bases outside it and
    outside the escape box, where mid points escape."""
    ws = canonical_workspace()
    ctx = ws.ctx()
    U_name, *names = _PUSHED[name]
    U = ws.get("bisubmersions", U_name)
    F = U.foliation
    box = _base_boxes(F)[box_kind]
    A, B = (ker.DensityAtom(U, X.dens_fn, X.xi_box, box, X.quad_order,
                            dens_key=X.dens_key, fibre_only=X.fibre_only)
            for X in (ws.get("kernels", k).atoms[0] for k in names))
    pi = bis.make_addition_morphism(U, cfg=ctx.flow)
    ab = ker.convolve(ker.FibredKernel("r", [A]), ker.FibredKernel("r", [B]), ctx)
    reduced = ker.pushforward(pi, ab, ctx).atoms[0]
    assert isinstance(reduced, ker.DensityAtom)
    rng = np.random.default_rng(9)
    esc = F.escape_box
    lo, hi = np.maximum(box[:, 0], esc[:, 0]), np.minimum(box[:, 1], esc[:, 1])
    inside = rng.uniform(lo, hi, (200, F.dim))
    inside[:40] = rng.uniform(hi - 0.3, hi, (40, F.dim))
    spread = rng.uniform(esc[:, 0] - 0.5, esc[:, 1] + 0.5, (200, F.dim))
    spread[:40] = rng.uniform(esc[:, 1] - 0.5, esc[:, 1], (40, F.dim))
    zeta = rng.uniform(*reduced.xi_box.T, (200, F.num_generators))
    rows = [np.column_stack([zeta, y]) for y in (inside, spread)]
    got = [reduced.dens_fn(params, None) for params in rows]
    monkeypatch.setattr(ker.DensityAtom, "_in_base_box", _per_row_test)
    assert all(_same(g, reduced.dens_fn(params, None)) for g, params in zip(got, rows))
    assert np.isnan(got[1]).any() and (np.abs(got[1]) > 1e-12).any()
    assert (np.abs(got[0]) > 1e-12).any()


@pytest.mark.parametrize("name", sorted(n for n in TERMS
                                        if not n.startswith("composition")))
@pytest.mark.parametrize("box_kind", ["equal", "wider", "narrower"])
def test_support_boxes_over_given_keep_the_per_row_bits(name, box_kind,
                                                        monkeypatch):
    """support_bound of a density and of its lazy square, whose images chart
    rows over a given input box, and support_of, have the bits of the
    per-row base-box test: for an input box inside the chart box and for
    one sticking out of the density's base box."""
    U = TERMS[name]
    F = U.foliation
    box = _base_boxes(F)[box_kind]
    k = ker.FibredKernel("r", [ker.DensityAtom(U, _density, U.xi_box(), box)])
    kk = ker.convolve(k, k)
    givens = [0.5 * F.chart_box, box + [[-0.5, 0.5]]]

    def boxes():
        support = ker.support_of(kk)
        return ([oper.support_bound(kernel, g) for kernel in (k, kk) for g in givens]
                + [support.r_box, support.s_box])

    got = boxes()
    monkeypatch.setattr(ker.DensityAtom, "_in_base_box", _per_row_test)
    ref = boxes()
    assert got[0] is not None and got[1] is not None
    assert all(g is r is None or _same(g, r) for g, r in zip(got, ref))
