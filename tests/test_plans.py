"""Fibre-quadrature plans: what a plan holds, when it is reused, and that
a reused plan gives the bits of a cold pairing."""

import weakref

import numpy as np
import pytest

from foliops import bisubmersion as bis
from foliops import flow
from foliops import kernel as ker
from foliops import op as oper
from foliops.canonical import canonical_workspace
from foliops.errors import QuadratureFailure
from foliops.expr import parse_field, parse_scalar
from foliops.flow import FlowConfig
from foliops.foliation import SingularFoliation, leaf_sweep
from foliops.workspace import Workspace

GRID = [[-2.0, 2.0], [-2.0, 2.0]]


@pytest.fixture
def ws():
    return canonical_workspace()


def _grid(res):
    return oper.grid_points(GRID, (res, res))


def _f(shift):
    return lambda p: np.exp(-((p[:, 0] - shift) ** 2) - 0.7 * p[:, 1] ** 2)


def _chart_calls(monkeypatch):
    """Count PathHolonomy.chart calls (the back flows a plan saves)."""
    calls = []
    chart = bis.PathHolonomy.chart

    def counted(self, *args, **kw):
        calls.append(1)
        return chart(self, *args, **kw)

    monkeypatch.setattr(bis.PathHolonomy, "chart", counted)
    return calls


def _flow_rows(monkeypatch):
    """Record ``(rows, with Jacobian)`` of every flow integration (either
    backend)."""
    rows = []
    integrate = flow._integrate

    def counted(foliation, xi, x, cfg, direction, with_jacobian):
        rows.append((len(x), with_jacobian))
        return integrate(foliation, xi, x, cfg, direction, with_jacobian)

    monkeypatch.setattr(flow, "_integrate", counted)
    return rows


def _gauss_c_blocks():
    """Row blocks of a gauss_C pairing on the 41 x 41 grid (400 nodes)."""
    return -(-41 * 41 // (ker._BLOCK_ROWS // 400))


def _blocks(store):
    """Every stored block of every plan."""
    return [b for blocks, _ in store._plans.values() for b in blocks]


@pytest.mark.parametrize("name, res", [("gauss_R", 41), ("gauss_C", 41),
                                       ("gauss_T", 17), ("dirac_rot90", 41)])
def test_plan_hit_matches_cold_pairing(ws, name, res):
    kernel = ws.get("kernels", name)
    pts = _grid(res) if name != "gauss_T" else np.linspace(-2, 2, res)[:, None]
    f = _f(0.3) if name != "gauss_T" else (lambda p: np.exp(-p[:, 0] ** 2))
    cold = oper.op_values(kernel, f, pts, ws.ctx())
    hit = oper.op_values(kernel, f, pts, ws.ctx())
    fresh = oper.op_values(kernel, f, pts, ker.PairingCtx(ws.quad_cfg, ws.flow_cfg))
    assert len(ws.plans) == 1
    assert hit.tobytes() == cold.tobytes() == fresh.tobytes()
    if name == "gauss_C":
        # 1681 rows x 400 nodes: the plan spans several row blocks.
        assert len(_blocks(ws.plans)) == _gauss_c_blocks() > 1


def test_adjoint_plan_hit_matches_cold_pairing(ws, monkeypatch):
    kernel = ker.transpose(ws.get("kernels", "gauss_R"))
    ys = _grid(21)
    k = _f(-0.2)
    cold = oper.adjoint_values(kernel, k, ys, ws.ctx())
    rows = _flow_rows(monkeypatch)
    hit = oper.adjoint_values(kernel, k, ys, ws.ctx())
    assert rows == []  # the plan keeps the flowed points and |det J|
    fresh = oper.adjoint_values(kernel, k, ys, ker.PairingCtx(ws.quad_cfg,
                                                               ws.flow_cfg))
    assert len(ws.plans) == 1
    assert hit.tobytes() == cold.tobytes() == fresh.tobytes()


def test_new_function_reuses_the_plan(ws, monkeypatch):
    kernel = ws.get("kernels", "gauss_C")
    pts = _grid(41)
    calls = _chart_calls(monkeypatch)
    first = [oper.op_values(kernel, _f(0.3), pts, ws.ctx())]
    built = len(calls)
    assert built == _gauss_c_blocks() > 1  # one chart per row block
    for shift in (-0.5, 0.9):
        got = oper.op_values(kernel, _f(shift), pts, ws.ctx())
        cold = oper.op_values(kernel, _f(shift), pts,
                              ker.PairingCtx(ws.quad_cfg, ws.flow_cfg))
        assert got.tobytes() == cold.tobytes()
        first.append(got)
    assert len(calls) == built + 2 * built  # only the two cold pairings charted
    assert not np.array_equal(first[0], first[1])


def test_workspace_contexts_share_one_store(ws, monkeypatch):
    assert ws.ctx().plans is ws.ctx().plans
    assert ker.PairingCtx().plans is not ker.PairingCtx().plans
    # The leafwise action and op_values pair the same kernel on the same
    # points, so the second reuses the first one's plan.
    R = ws.get("foliations", "R")
    leaf = leaf_sweep(R, [1.0, 0.0], [2 * np.pi / 400], 400, ws.flow_cfg)
    kernel = ws.get("kernels", "gauss_R")
    f = _f(0.1)
    calls = _chart_calls(monkeypatch)
    oper.apply_on_leaf(kernel, leaf, f(leaf.points), ws.ctx())
    n = len(calls)
    oper.op_values(kernel, f, leaf.points, ws.ctx())
    assert len(calls) == n and len(ws.plans) == 1


def test_source_side_dirac_plan_hit_matches_cold_pairing(ws, monkeypatch):
    """Dirac pairings keep plans on either side: the source-fibred
    transpose pairs its atom over range fibres, and a Dirac kernel built
    over the source pairs over source fibres."""
    d = ws.get("kernels", "dirac_shift")
    S = d.atoms[0].bisection
    kernels = [ker.transpose(d),
               ker.dirac(S, parse_scalar("exp(-x1^2)", 1), side="s",
                         coeff_box=[[-2.0, 2.0]])]
    pts = np.linspace(-3, 3, 25)[:, None]

    def phi(params, rows, atom):
        return np.cos(params[:, 0] + 0.5 * params[:, 1])

    rows = _flow_rows(monkeypatch)
    for n, kernel in enumerate(kernels, start=1):
        cold = kernel.pairing(phi, pts, ws.ctx())
        built = len(rows)
        hit = kernel.pairing(phi, pts, ws.ctx())
        assert len(rows) == built  # the plan keeps the inverse images
        fresh = kernel.pairing(phi, pts, ker.PairingCtx(ws.quad_cfg,
                                                        ws.flow_cfg))
        assert len(ws.plans) == n
        assert hit.tobytes() == cold.tobytes() == fresh.tobytes()
        assert np.any(cold != 0.0)


def test_dirac_plan_is_shared_by_leaf_and_op_values(ws, monkeypatch):
    """The leafwise action and op_values pair dirac_rot90 on the same leaf
    points, so the second reads the first one's plan and runs no flow."""
    R = ws.get("foliations", "R")
    leaf = leaf_sweep(R, [1.0, 0.0], [2 * np.pi / 400], 400, ws.flow_cfg)
    kernel = ws.get("kernels", "dirac_rot90")
    f = _f(0.1)
    on_leaf = oper.apply_on_leaf(kernel, leaf, f(leaf.points), ws.ctx())
    rows = _flow_rows(monkeypatch)
    on_points = oper.op_values(kernel, f, leaf.points, ws.ctx())
    assert rows == [] and len(ws.plans) == 1
    assert np.max(np.abs(on_leaf - on_points)) <= 0.05
    assert np.any(on_points != 0.0)


def test_rebuilt_dirac_composition_hits_one_plan(ws):
    """A composed bisection is keyed by its factors, so each rebuilt
    Dirac*Dirac pairs through one plan and gives the bits of a cold call."""
    a, b = ws.get("kernels", "dirac_rot90"), ws.get("kernels", "dirac_rot_small")
    pts = _grid(13)
    vals = []
    for _ in range(3):
        ab = ker.convolve(a, b, ws.ctx())
        vals.append(oper.op_values(ab, _f(0.2), pts, ws.ctx()))
    assert len(ws.plans) == 1
    cold = oper.op_values(ab, _f(0.2), pts, ker.PairingCtx(ws.quad_cfg,
                                                          ws.flow_cfg))
    assert all(v.tobytes() == cold.tobytes() for v in vals)
    assert np.any(cold != 0.0)


def test_key_changes_miss(ws, monkeypatch):
    atom = ws.get("kernels", "gauss_R").atoms[0]
    pts = _grid(9)
    store = ker.PlanStore()

    def phi(params, rows):
        return np.ones(len(params))

    def pair(side="r", bases=pts, **cfg):
        atom.pair(side, bases, phi, ker.PairingCtx(plans=store, **cfg))

    calls = _chart_calls(monkeypatch)
    pair()
    pair()
    assert (len(store), len(calls)) == (1, 1)
    pair(side="s")
    pair(bases=pts + 0.01)
    pair(bases=pts[:-1])
    pair(quad=ker.QuadratureConfig(order=16))
    pair(flow=FlowConfig(abs_tol=1e-9))
    assert (len(store), len(calls)) == (6, 6)
    pair(quad=ker.QuadratureConfig(order=16))
    assert (len(store), len(calls)) == (6, 6)
    # Atoms that pair differently have different keys: a translate built
    # under another flow config, another scale factor (-0.0 is not 0.0),
    # other expression text, another quadrature order.
    d, U = ws.get("kernels", "dirac_rot90"), atom.host

    def translated(flow=None):
        ctx = ker.PairingCtx(flow=flow)
        return ker.convolve(d, ker.FibredKernel("r", [atom]), ctx).atoms[0]

    def dens(text="exp(-18*(x1-0.8)^2)", **kw):
        return ker.density(U, parse_scalar(text, 3), atom.xi_box,
                           atom.base_box, **kw).atoms[0]

    assert dens().key() == atom.key()
    variants = [translated(), translated(FlowConfig(abs_tol=1e-9)),
                atom.scaled(0.0), atom.scaled(-0.0), atom.scaled(2.0),
                dens("exp(-18*(0.8-x1)^2)"), dens(quad_order=16)]
    for n, other in enumerate(variants, start=7):
        for _ in range(2):
            other.pair("r", pts, phi, ker.PairingCtx(plans=store))
        assert (len(store), len(calls)) == (n, n)
    for same in (translated(), atom.scaled(-0.0), dens(), atom):
        same.pair("r", pts, phi, ker.PairingCtx(plans=store))
    assert (len(store), len(calls)) == (13, 13)


def _planned_keys(store):
    """The atom key of every stored plan."""
    return [key[0] for key in store._plans]


def _ones(params, rows):
    return np.ones(len(params))


def test_nested_plans_are_kept_once_the_outer_plan_is_reused(ws):
    """A lazy convolution keeps the plan of its outer pairing, whose bases
    are the caller's points.  Its inner pairings keep theirs only when that
    outer plan was already stored, since its kept geometry then gives the
    same mid points; a nested pairing on fresh points keeps none."""
    a, b = ws.get("kernels", "gauss_R"), ws.get("kernels", "gauss_R2")
    ctx = ws.ctx()
    ab = ker.convolve(a, b, ctx)
    assert all(isinstance(x, ker.ConvolvedAtom) for x in ab.atoms)
    pts = _grid(5)
    outer, inner = a.atoms[0], b.atoms[0]
    cold = oper.op_values(ab, _f(0.0), pts, ctx)
    assert _planned_keys(ws.plans) == [outer.key()]
    assert ws.plans.get(outer, ker._plan_key("r", pts, ctx)) is not None
    hit = oper.op_values(ab, _f(0.0), pts, ctx)
    assert set(_planned_keys(ws.plans)) == {outer.key(), inner.key()}
    again = oper.op_values(ab, _f(0.0), pts, ctx)
    assert len(ws.plans) == 2
    assert cold.tobytes() == hit.tobytes() == again.tobytes()
    outer.pair("r", pts + 0.5, _ones, ctx.deeper())
    inner.pair("r", pts + 0.5, _ones, ctx.nested_in(outer, "r", pts + 0.5))
    assert len(ws.plans) == 2


def test_nested_plan_needs_its_outer_plan_in_the_store(ws, monkeypatch):
    """Once the budget has evicted the outer plan, the next call stores the
    outer plan again but no inner plan, and gives the same bits."""
    a, b = ws.get("kernels", "gauss_R"), ws.get("kernels", "gauss_R2")
    ctx = ws.ctx()
    ab = ker.convolve(a, b, ctx)
    pts = _grid(5)
    outer = a.atoms[0]
    cold = oper.op_values(ab, _f(0.0), pts, ctx)
    probe = ker.PlanStore()
    outer.pair("r", pts + 0.5, _ones, ker.PairingCtx(plans=probe))
    budget = ker._PLAN_BUDGET
    monkeypatch.setattr(ker, "_PLAN_BUDGET", probe.nbytes)
    outer.pair("r", pts + 0.5, _ones, ctx)  # evicts the outer plan
    assert not outer.planned("r", pts, ctx) and len(ws.plans) == 1
    monkeypatch.setattr(ker, "_PLAN_BUDGET", budget)
    again = oper.op_values(ab, _f(0.0), pts, ctx)
    assert outer.planned("r", pts, ctx)
    assert _planned_keys(ws.plans) == [outer.key()] * 2  # and none of inner
    assert again.tobytes() == cold.tobytes()


def test_plan_arrays_are_read_only(ws):
    kernel = ws.get("kernels", "gauss_R")
    pts = _grid(9)
    oper.op_values(kernel, _f(0.0), pts, ws.ctx())
    (block,) = _blocks(ws.plans)
    assert all(not a.flags.writeable for a in block.arrays)

    def writes(params, rows):
        params[:, 0] += 1.0
        return np.ones(len(params))

    with pytest.raises(ValueError):
        kernel.atoms[0].pair("r", pts, writes, ws.ctx())
    again = oper.op_values(kernel, _f(0.0), pts, ws.ctx())
    cold = oper.op_values(kernel, _f(0.0), pts, ker.PairingCtx(ws.quad_cfg,
                                                                ws.flow_cfg))
    assert again.tobytes() == cold.tobytes()


def test_budget_drops_least_recently_used(ws, monkeypatch):
    atom = ws.get("kernels", "gauss_R").atoms[0]
    sets = [_grid(9) + 0.01 * i for i in range(3)]
    probe = ker.PlanStore()
    atom.pair("r", sets[0], lambda p, r: np.ones(len(p)),
              ker.PairingCtx(plans=probe))
    size = probe.nbytes
    monkeypatch.setattr(ker, "_PLAN_BUDGET", 2 * size)
    store = ker.PlanStore()

    def pair(i, store=store):
        atom.pair("r", sets[i], lambda p, r: np.ones(len(p)),
                  ker.PairingCtx(plans=store))

    def held():
        return [i for i in range(3)
                if store.get(atom, ker._plan_key("r", sets[i], ker.PairingCtx()))
                is not None]

    pair(0)
    pair(1)
    assert store.nbytes == 2 * size  # every grid point is live: equal plans
    pair(0)  # a hit makes plan 0 the most recently used
    pair(2)
    assert store.nbytes == 2 * size and len(store) == 2
    assert held() == [0, 2]
    # A plan larger than the whole budget is executed but never stored.
    monkeypatch.setattr(ker, "_PLAN_BUDGET", size - 1)
    small = ker.PlanStore()
    pair(0, small)
    assert len(small) == 0 and small.nbytes == 0


def test_unkept_plan_holds_one_block_at_a_time(ws, monkeypatch):
    """Once a plan outgrows the budget, each block is freed before the
    next one is built; a nested pairing on fresh points never keeps a
    block."""
    atom = ws.get("kernels", "gauss_R").atoms[0]
    pts = _grid(9)  # 81 rows x 32 nodes, in 81 // 8 + 1 = 11 blocks of 8 rows
    monkeypatch.setattr(ker, "_BLOCK_ROWS", 8 * 32)
    alive, seen = [], []
    init = ker._PlanBlock.__init__

    def counted(self, *args):
        seen.append(sum(ref() is not None for ref in alive))
        init(self, *args)
        alive.append(weakref.ref(self))

    monkeypatch.setattr(ker._PlanBlock, "__init__", counted)
    cold = atom.pair("r", pts, lambda p, r: p[:, 1], ker.PairingCtx())
    one_block = _nbytes_of_first(atom, pts)
    store = ker.PlanStore()
    for budget, ctx in ((0, ker.PairingCtx(plans=store)),
                        (3 * one_block, ker.PairingCtx(plans=store)),
                        (None, ker.PairingCtx().deeper())):
        if budget is not None:
            monkeypatch.setattr(ker, "_PLAN_BUDGET", budget)
        alive.clear()
        seen.clear()
        got = atom.pair("r", pts, lambda p, r: p[:, 1], ctx)
        assert got.tobytes() == cold.tobytes()
        assert len(seen) == 11 and len(store) == 0
        # Blocks kept before the plan went over the budget die with it.
        assert max(seen[4:]) == 0 and sum(r() is not None for r in alive) == 0


def _nbytes_of_first(atom, pts):
    store = ker.PlanStore()
    atom.pair("r", pts[:8], lambda p, r: p[:, 1], ker.PairingCtx(plans=store))
    return store.nbytes


def test_rebuilt_translated_atoms_hit_one_plan(ws, monkeypatch):
    """Each convolve(dirac_rot90, gauss_R) builds a new translated density
    with the same key, so ten of them pair through one plan: the store
    does not grow, and every call gives the bits of a cold pairing."""
    d, a = ws.get("kernels", "dirac_rot90"), ws.get("kernels", "gauss_R")
    pts = _grid(9)
    calls = _chart_calls(monkeypatch)
    vals, sizes = [], []
    for _ in range(10):
        dr = ker.convolve(d, a, ws.ctx())
        vals.append(oper.op_values(dr, _f(0.0), pts, ws.ctx()))
        sizes.append(ws.plans.nbytes)
    assert len(ws.plans) == 1 and len(calls) == 1
    assert sizes == [sizes[0]] * 10 and sizes[0] > 0
    cold = oper.op_values(dr, _f(0.0), pts, ker.PairingCtx(ws.quad_cfg,
                                                           ws.flow_cfg))
    assert all(v.tobytes() == cold.tobytes() for v in vals)


def test_separate_loads_share_one_plan(monkeypatch):
    """Two loads of the canonical config pair through the plans of one
    store: equal kernels, translated ones included, hit each other's."""
    loads = [canonical_workspace(), canonical_workspace()]
    store = ker.PlanStore()
    pts = _grid(9)
    calls = _chart_calls(monkeypatch)
    vals = []
    for ws in loads:
        ctx = ker.PairingCtx(ws.quad_cfg, ws.flow_cfg, plans=store)
        dr = ker.convolve(ws.get("kernels", "dirac_rot90"),
                          ws.get("kernels", "gauss_R"), ctx)
        vals.append([oper.op_values(k, _f(0.2), pts, ctx)
                     for k in (ws.get("kernels", "gauss_R"), dr)])
    assert len(store) == 2 and len(calls) == 2
    assert all(x.tobytes() == y.tobytes() for x, y in zip(*vals))


def _pendulum_ws():
    """A workspace whose flows all go through DP45."""
    F = SingularFoliation(dim=2, chart_box=GRID,
                          generators=[parse_field("[x2, -sin(x1)]", 2)],
                          xi_radius=[1.0])
    U = bis.make_path_holonomy(F)
    a = ker.density(U, parse_scalar("exp(-20*x1^2-0.1*(x2^2+x3^2))", 3),
                    xi_box=[[-1.0, 1.0]])
    b = ker.density(U, parse_scalar("exp(-25*(x1-0.1)^2-0.2*(x2^2+x3^2))", 3),
                    xi_box=[[-1.0, 1.0]])
    S = bis.constant_bisection(U, [0.35])
    d = ker.dirac(S, parse_scalar("(1-x1^2)^4*(1-x2^2)^4", 2),
                  coeff_box=[[-1.0, 1.0], [-1.0, 1.0]])
    return Workspace(foliations={"P": F}, bisubmersions={"U": U},
                     bisections={"S": S}, kernels={"a": a, "b": b, "d": d})


def _budget_case(case):
    """``(ws, Q, run)``: a pairing with Q nodes per row, and ``run(ctx)``
    computing it."""
    if case == "pendulum":  # DP45 flows, step-controlled per row
        ws = _pendulum_ws()
        a = ws.get("kernels", "a")
        return ws, 32, lambda ctx: oper.op_values(a, _f(0.3), _grid(7), ctx)
    ws = canonical_workspace()
    kern = ws.kernels
    if case in ("gauss_R", "gauss_C"):
        Q = kern[case].atoms[0].node_count(ws.ctx())  # 32 and 20 x 20
        return ws, Q, lambda ctx: oper.op_values(kern[case], _f(0.3),
                                                 _grid(9), ctx)
    if case == "lazy_T":
        ab = ker.convolve(kern["gauss_T"], kern["gauss_T2"], ws.ctx())
        assert isinstance(ab.atoms[0], ker.ConvolvedAtom)
        pts = np.linspace(-2, 2, 17)[:, None]
        return ws, 32, lambda ctx: oper.op_values(
            ab, lambda p: np.exp(-p[:, 0] ** 2), pts, ctx)
    if case == "pushforward_C":  # the reduced side of the verify check [C]
        pi = bis.make_addition_morphism(ws.get("bisubmersions", "U_C"),
                                        cfg=ws.flow_cfg)
        ab = ker.convolve(kern["gauss_C"], kern["gauss_C2"], ws.ctx())
        pushed = ker.pushforward(pi, ab, ws.ctx())
        assert isinstance(pushed.atoms[0], ker.DensityAtom)
        pts = oper.grid_points([[-1.2, 1.2], [-1.2, 1.2]], (3, 3))
        f = ws.get("functions", "f_C")
        # 40 x 40 zeta nodes per point; each zeta row has 20 x 20 xi nodes
        Q = pushed.atoms[0].node_count(ws.ctx())
        return ws, Q, lambda ctx: oper.op_values(pushed, f, pts, ctx)
    kt = ker.transpose(kern["gauss_R"])
    return ws, 32, lambda ctx: oper.adjoint_values(kt, _f(-0.2), _grid(9), ctx)


@pytest.mark.parametrize("case", ["gauss_R", "gauss_C", "lazy_T",
                                  "pushforward_C", "adjoint_R", "pendulum"])
def test_pairing_bits_do_not_depend_on_the_row_budget(case, monkeypatch):
    """Blocks are whole rows and every row reduces over its own nodes, so
    a pairing has the same bits at any row budget: one row per block,
    blocks that do not divide the row count, the default and 600,000."""
    ws, Q, run = _budget_case(case)
    outs = []
    for budget in (Q, 7 * Q - 1, ker._BLOCK_ROWS, 600_000):
        monkeypatch.setattr(ker, "_BLOCK_ROWS", budget)
        outs.append(run(ker.PairingCtx(ws.quad_cfg, ws.flow_cfg)))
    assert all(o.tobytes() == outs[0].tobytes() for o in outs[1:])
    assert np.any(np.isfinite(outs[0]) & (outs[0] != 0.0))


def test_adjoint_plan_hit_runs_no_dp45_flow(monkeypatch):
    """A cold pairing flows each node once through DP45, with its Jacobian,
    which gives both r(p) and |det J|.  As on the affine canonical R, a hit
    reads them from the plan, here where they came from DP45."""
    ws = _pendulum_ws()
    kernel = ker.transpose(ws.get("kernels", "a"))
    ys = _grid(7)
    k = _f(-0.2)
    nodes = len(ys) * kernel.atoms[0].node_count(ws.ctx())
    rows = _flow_rows(monkeypatch)
    cold = oper.adjoint_values(kernel, k, ys, ws.ctx())
    assert rows == [(nodes, True)]  # and no plain flow
    rows.clear()
    hit = oper.adjoint_values(kernel, k, ys, ws.ctx())
    assert rows == []
    fresh = oper.adjoint_values(kernel, k, ys, ker.PairingCtx(ws.quad_cfg,
                                                               ws.flow_cfg))
    assert rows == [(nodes, True)]
    assert hit.tobytes() == cold.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("action", ["op", "adjoint"])
def test_warm_lazy_convolution_runs_no_dp45_flow(monkeypatch, action):
    """On a stored outer plan the inner pairings of a lazy a*b keep theirs,
    so from the third call on neither Op(a*b) nor the adjoint of (a*b)^t
    integrates a flow row (plain or with the Jacobian), and both give the
    bits of a cold pairing.  A call made once keeps the outer plan alone."""
    ws = _pendulum_ws()
    ab = ker.convolve(ws.get("kernels", "a"), ws.get("kernels", "b"), ws.ctx())
    assert all(isinstance(x, ker.ConvolvedAtom) for x in ab.atoms)
    pts = _grid(5)
    if action == "op":
        def run(ctx):
            return oper.op_values(ab, _f(0.3), pts, ctx)
    else:
        abt = ker.transpose(ab)

        def run(ctx):
            return oper.adjoint_values(abt, _f(-0.2), pts, ctx)

    rows = _flow_rows(monkeypatch)
    calls = [run(ws.ctx())]
    assert len(ws.plans) == 1 and rows
    calls.append(run(ws.ctx()))
    assert len(ws.plans) == 2
    rows.clear()
    calls.append(run(ws.ctx()))
    assert rows == []
    cold = run(ker.PairingCtx(ws.quad_cfg, ws.flow_cfg))
    assert all(c.tobytes() == cold.tobytes() for c in calls)


def test_warm_translated_convolution_runs_no_dp45_flow(monkeypatch):
    """convolve(d, a) is built again before every call, and each new
    translated density has the old one's key: from the second call on, the
    pairing integrates no flow row and gives the bits of a cold pairing.
    The rows of convolve's own image-box sampling are not counted."""
    ws = _pendulum_ws()
    d, a = ws.get("kernels", "d"), ws.get("kernels", "a")
    pts = _grid(7)
    rows = _flow_rows(monkeypatch)
    calls = []
    for i in range(3):
        da = ker.convolve(d, a, ws.ctx())
        rows.clear()
        calls.append(oper.op_values(da, _f(0.3), pts, ws.ctx()))
        assert bool(rows) == (i == 0)
    assert len(ws.plans) == 1
    cold = oper.op_values(da, _f(0.3), pts, ker.PairingCtx(ws.quad_cfg,
                                                           ws.flow_cfg))
    assert all(c.tobytes() == cold.tobytes() for c in calls)
    assert np.any(cold != 0.0)


def test_integrands_never_share_a_geometry(ws):
    """Op(a^t) and the adjoint of a^t both pair a over source fibres on the
    same points, so they share a plan; each keeps its own geometry, keyed
    by the integrand and the host it reads, and each gives the bits of a
    cold pairing.  On S the two differ by |det J| = e^xi."""
    a = ws.get("kernels", "gauss_S")
    op_kernel = ker.transpose(ker.FibredKernel("s", a.atoms))
    adj_kernel = ker.transpose(a)
    pts = np.linspace(-2.0, 2.0, 9)[:, None]

    def f(p):
        return np.exp(-((p[:, 0] - 0.4) ** 2))

    cold = ker.PairingCtx(ws.quad_cfg, ws.flow_cfg)
    for _ in range(2):
        op = oper.op_values(op_kernel, f, pts, ws.ctx())
        adj = oper.adjoint_values(adj_kernel, f, pts, ws.ctx())
        assert op.tobytes() == oper.op_values(op_kernel, f, pts, cold).tobytes()
        assert adj.tobytes() == oper.adjoint_values(adj_kernel, f, pts,
                                                    cold).tobytes()
    assert not np.allclose(op, adj)
    (block,) = _blocks(ws.plans)
    host = a.atoms[0].host
    assert set(block.geometry) == {("op", bis.invert(host).key()),
                                   ("adjoint", "s", host.key())}


def test_f_points_repeat_on_plan_hits(ws):
    """A test function receives bit-identical points on the cold call and
    on the call that hits its plan."""
    kernel = ws.get("kernels", "gauss_R")
    pts = _grid(5)
    records = []
    for _ in range(2):
        seen = []

        def f(p, seen=seen):
            seen.append(p.copy())
            return _f(0.0)(p)

        oper.op_values(kernel, f, pts, ws.ctx())
        records.append(seen)
    assert len(ws.plans) == 1 and records[0]
    assert [p.tobytes() for p in records[1]] == [p.tobytes() for p in records[0]]


def test_plan_keeps_no_copy_of_the_source_points(ws):
    """On a path-holonomy host the source map is the base columns: Op's
    geometry is a view of the plan's parameter rows and costs one ok byte
    per node."""
    kernel = ws.get("kernels", "gauss_R")
    oper.op_values(kernel, _f(0.0), _grid(9), ws.ctx())
    (block,) = _blocks(ws.plans)
    ((spts, ok),) = block.geometry.values()
    live, nan, params, rows, wd = block.arrays
    assert np.shares_memory(spts, params)
    assert rows.dtype == nan.dtype == np.int32
    assert block.nbytes == sum(x.nbytes for x in block.arrays) + ok.nbytes


@pytest.mark.parametrize("action, nest", [
    pytest.param("op", "left", id="left"),
    pytest.param("op", "right", id="right"),
    pytest.param("adjoint", "left", id="adjoint-left"),
    pytest.param("adjoint", "right", id="adjoint-right"),
])
def test_nesting_limit_depth_is_unchanged(ws, action, nest):
    """Keeping the outer plan of a lazy convolution leaves the nesting
    depth where it was: a limit of 2 pairs two nested convolutions and
    raises on three, nested on either side, under Op and under the adjoint
    (on source-fibred chains)."""
    a, b = ws.get("kernels", "gauss_R"), ws.get("kernels", "gauss_R2")
    quad = ker.QuadratureConfig(order=4, nesting_limit=2)

    def ctx():
        return ker.PairingCtx(quad, ws.flow_cfg, plans=ws.plans)

    if action == "adjoint":
        a, b = ker.r_to_s_convert(a, ctx=ctx()), ker.r_to_s_convert(b, ctx=ctx())
    act = oper.op_values if action == "op" else oper.adjoint_values
    chain = a
    for count in (1, 2, 3):
        chain = (ker.convolve(chain, b, ctx()) if nest == "left"
                 else ker.convolve(b, chain, ctx()))
        if count < 3:
            vals = act(chain, _f(0.0), _grid(3), ctx())
            assert np.all(np.isfinite(vals))
    with pytest.raises(QuadratureFailure, match="nesting exceeded 2"):
        act(chain, _f(0.0), _grid(3), ctx())
