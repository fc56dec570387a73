"""Fibre-quadrature plans: what a plan holds, when it is reused, and that
a reused plan gives the bits of a cold pairing."""

import gc
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


def _blocks(store):
    """Every stored block of every plan."""
    return [b for blocks, _ in store._plans.values() for b in blocks]


@pytest.mark.parametrize("name, res", [("gauss_R", 41), ("gauss_C", 41),
                                       ("gauss_T", 17)])
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
        # 1681 rows x 400 nodes: the plan spans two row blocks.
        assert len(_blocks(ws.plans)) == 2


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
    assert built == 2  # one chart per row block
    for shift in (-0.5, 0.9):
        got = oper.op_values(kernel, _f(shift), pts, ws.ctx())
        cold = oper.op_values(kernel, _f(shift), pts,
                              ker.PairingCtx(ws.quad_cfg, ws.flow_cfg))
        assert got.tobytes() == cold.tobytes()
        first.append(got)
    assert len(calls) == built + 2 * 2  # only the two cold pairings charted
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


def test_nested_pairings_are_not_stored(ws):
    """A lazy convolution keeps the plan of its outer pairing, whose bases
    are the caller's points, and none of its inner pairings."""
    a, b = ws.get("kernels", "gauss_R"), ws.get("kernels", "gauss_R2")
    ctx = ws.ctx()
    ab = ker.convolve(a, b, ctx)
    assert all(isinstance(x, ker.ConvolvedAtom) for x in ab.atoms)
    pts = _grid(5)
    oper.op_values(ab, _f(0.0), pts, ctx)
    atom = a.atoms[0]
    assert len(ws.plans) == 1
    assert ws.plans.get(atom, ker._plan_key("r", pts, ctx)) is not None
    atom.pair("r", pts + 0.5, lambda p, r: np.ones(len(p)), ctx.deeper())
    assert len(ws.plans) == 1


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
    next one is built; nested pairings never keep a block."""
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


def test_plan_dies_with_its_atom(ws):
    ctx = ws.ctx()
    dr = ker.convolve(ws.get("kernels", "dirac_rot90"),
                      ws.get("kernels", "gauss_R"), ctx)
    oper.op_values(dr, _f(0.0), _grid(9), ctx)
    assert len(ws.plans) == 1 and ws.plans.nbytes > 0
    del dr
    gc.collect()
    assert len(ws.plans) == 0 and ws.plans.nbytes == 0


def _pendulum_ws():
    """A workspace whose flows all go through DP45."""
    F = SingularFoliation(dim=2, chart_box=GRID,
                          generators=[parse_field("[x2, -sin(x1)]", 2)],
                          xi_radius=[1.0])
    U = bis.make_path_holonomy(F)
    a = ker.density(U, parse_scalar("exp(-20*x1^2-0.1*(x2^2+x3^2))", 3),
                    xi_box=[[-1.0, 1.0]])
    return Workspace(foliations={"P": F}, bisubmersions={"U": U},
                     kernels={"a": a})


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


def test_diag_is_recorded_on_hits(ws):
    kernel = ws.get("kernels", "gauss_R")
    pts = _grid(5)
    records = []
    for _ in range(2):
        diag = []
        oper.op_values(kernel, _f(0.0), pts, ws.ctx(diag=diag))
        records.append(diag)
    assert len(ws.plans) == 1 and records[0]
    assert len(records[1]) == len(records[0])
    for (o0, f0), (o1, f1) in zip(*records):
        assert o0.tobytes() == o1.tobytes() and f0.tobytes() == f1.tobytes()


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


@pytest.mark.parametrize("nest", ["left", "right"])
def test_nesting_limit_depth_is_unchanged(ws, nest):
    """Keeping the outer plan of a lazy convolution leaves the nesting
    depth where it was: a limit of 2 pairs two nested convolutions and
    raises on three, nested on either side."""
    a, b = ws.get("kernels", "gauss_R"), ws.get("kernels", "gauss_R2")
    quad = ker.QuadratureConfig(order=4, nesting_limit=2)

    def ctx():
        return ker.PairingCtx(quad, ws.flow_cfg, plans=ws.plans)

    chain = a
    for count in (1, 2, 3):
        chain = (ker.convolve(chain, b, ctx()) if nest == "left"
                 else ker.convolve(b, chain, ctx()))
        if count < 3:
            vals = oper.op_values(chain, _f(0.0), _grid(3), ctx())
            assert np.all(np.isfinite(vals))
    with pytest.raises(QuadratureFailure, match="nesting exceeded 2"):
        oper.op_values(chain, _f(0.0), _grid(3), ctx())
