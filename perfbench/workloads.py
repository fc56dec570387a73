"""Seeded workloads of the foliops benchmark.

Each workload has three parts:

* ``make_spec(seed)`` turns the seed into plain numbers and expression
  strings, using only the standard library, so the same seed always gives
  the same inputs and the program sees only the generated inputs;
* ``setup(spec)`` builds the workspace, fixtures and kernels from the
  spec through the public ``foliops`` API (timed as set-up);
* ``body(spec, fx)`` makes the user-visible calls the CLI makes and
  returns ``(outputs, op_times)``: named numpy arrays and the summed
  time of the top-level ``apply``/``adjoint``/``leaf`` calls.

Why these three:

* ``battery`` is ``foliops verify --suite all``, the shipped product.
  Every flow row it integrates is on an affine generator family, part of
  its quadrature repeats a pairing, and it nests quadrature inside
  composition and pushforward checks.
* ``nonlinear`` uses the pendulum foliation ``{[x2, -sin(x1)]}``: no flow
  row is affine and no pairing repeats, so it bypasses exact-flow and
  plan-cache changes and exercises the DP45 integrator and expression
  evaluation (``sin`` runs in every stage).  It mixes big flow batches,
  the flow-Jacobian path (adjoint) and one-row flows (leaf sampling).
* ``multi-f`` applies two fixed canonical kernels to ``F`` test
  functions on one grid, so (F-1)/F of its quadrature rows repeat a
  pairing; ``gauss_C`` adds 2-D fibre quadrature.
"""

from __future__ import annotations

import random
import time

GRID_BOX = [[-2.0, 2.0], [-2.0, 2.0]]
PENDULUM = "[x2, -sin(x1)]"
PENDULUM_XI_RADIUS = 1.0
LEAF_BUDGET = 400
LEAF_MESH = 1e-3
MULTI_F = 4  # test functions per fixed kernel in ``multi-f``


def _num(v):
    return f"{v:.4f}"


def _shift(var, m):
    """``var-m`` written without a double sign."""
    return f"{var}-{_num(m)}" if m >= 0 else f"{var}+{_num(-m)}"


def _gaussian_fn(rng):
    """Seeded 2-D Gaussian test function as an expression string."""
    al, be = rng.uniform(0.6, 1.6), rng.uniform(0.6, 1.6)
    p, q = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    return {
        "expr": f"exp(-{_num(al)}*({_shift('x1', p)})^2-{_num(be)}*({_shift('x2', q)})^2)",
        "params": [round(al, 4), round(be, 4), round(p, 4), round(q, 4)],
    }


def _pendulum_density(rng):
    """Seeded Gaussian in the fibre coordinate, mild Gaussian in the base.

    Parameters are (xi, y1, y2).  The xi box is the same for every seed,
    so the seed changes the integrand but not the flows the quadrature
    needs; the density is below 3e-9 at the box edges.  Nested back flows
    of up to 2.5 in total stay inside the integration domain from every
    output point.
    """
    c, m, k = rng.uniform(20.0, 30.0), rng.uniform(-0.25, 0.25), rng.uniform(0.05, 0.2)
    c, m, k = round(c, 4), round(m, 4), round(k, 4)
    return {
        "expr": f"exp(-{_num(c)}*({_shift('x1', m)})^2-{_num(k)}*(x2^2+x3^2))",
        "params": [c, m, k],
        "xi_box": [[-1.25, 1.25]],
    }


# ---------------------------------------------------------------------------
# battery


def battery_spec(seed):
    # The battery runs the canonical fixtures: the seed selects nothing.
    return {"suites": "all"}


def battery_setup(spec):
    # run_suites builds its own canonical workspace on every call; set-up
    # times that same build once.
    import foliops

    return {"ws": foliops.canonical_workspace()}


def battery_body(spec, fx):
    from foliops import verify

    report = verify.run_suites(spec["suites"])
    payload = verify.report_to_json(report)
    return {"report": payload}, {}


# ---------------------------------------------------------------------------
# nonlinear


def nonlinear_spec(seed):
    rng = random.Random(f"nonlinear:{seed}")
    return {
        "a": _pendulum_density(rng),
        "b": _pendulum_density(rng),
        "d_xi0": round(rng.uniform(0.3, 0.4), 4),
        "f": _gaussian_fn(rng),
        "k": _gaussian_fn(rng),
        "leaf_x0": [round(rng.uniform(0.8, 1.2), 4), 0.0],
        "leaf_seed": rng.randrange(2**31),
    }


def nonlinear_setup(spec):
    import foliops
    from foliops import Workspace

    F = foliops.SingularFoliation(
        dim=2, chart_box=GRID_BOX, generators=[foliops.parse_field(PENDULUM, 2)],
        xi_radius=[PENDULUM_XI_RADIUS],
    )
    U = foliops.make_path_holonomy(F)
    dens = {
        name: foliops.density(U, foliops.parse_scalar(spec[name]["expr"], 3),
                              xi_box=spec[name]["xi_box"])
        for name in ("a", "b")
    }
    S = foliops.constant_bisection(U, [spec["d_xi0"]], label="d")
    d = foliops.dirac(S, foliops.parse_scalar("(1-x1^2)^4*(1-x2^2)^4", 2),
                      side="r", coeff_box=[[-1.0, 1.0], [-1.0, 1.0]])
    ws = Workspace(
        foliations={"P": F}, bisubmersions={"U_P": U}, bisections={"d": S},
        kernels={"a": dens["a"], "b": dens["b"], "d": d},
        functions={"f": foliops.parse_scalar(spec["f"]["expr"], 2),
                   "k": foliops.parse_scalar(spec["k"]["expr"], 2)},
    )
    return {"ws": ws}


def nonlinear_body(spec, fx):
    import foliops

    ws = fx["ws"]
    a, b, d = (ws.get("kernels", n) for n in ("a", "b", "d"))
    f, k = ws.get("functions", "f"), ws.get("functions", "k")
    out, times = {}, {"apply_s": 0.0, "adjoint_s": 0.0, "leaf_s": 0.0}

    def timed(metric, fn, *args, **kw):
        t0 = time.perf_counter()
        res = fn(*args, **kw)
        times[metric] += time.perf_counter() - t0
        return res

    out["op_a"] = timed("apply_s", foliops.apply_op, a, f, GRID_BOX, (41, 41),
                        ws.ctx()).values
    da = foliops.convolve(d, a, ws.ctx())
    out["op_da"] = timed("apply_s", foliops.apply_op, da, f, GRID_BOX, (41, 41),
                         ws.ctx()).values
    ab = foliops.convolve(a, b, ws.ctx())
    out["op_ab"] = timed("apply_s", foliops.apply_op, ab, f, GRID_BOX, (9, 9),
                         ws.ctx()).values
    out["adj_at"] = timed("adjoint_s", foliops.apply_adjoint,
                          foliops.transpose(a), k, GRID_BOX, (21, 21),
                          ws.ctx()).values
    leaf = timed("leaf_s", foliops.leaf_sample, ws.get("foliations", "P"),
                 spec["leaf_x0"], budget=LEAF_BUDGET, cfg=ws.flow_cfg,
                 mesh=LEAF_MESH, seed=spec["leaf_seed"])
    out["leaf"] = leaf.points
    return out, times


# ---------------------------------------------------------------------------
# multi-f


def multi_f_spec(seed):
    rng = random.Random(f"multi-f:{seed}")
    return {"f": [_gaussian_fn(rng) for _ in range(MULTI_F)]}


def multi_f_setup(spec):
    import foliops

    ws = foliops.canonical_workspace()
    fns = [foliops.parse_scalar(g["expr"], 2) for g in spec["f"]]
    return {"ws": ws, "fns": fns}


def multi_f_body(spec, fx):
    import foliops

    ws = fx["ws"]
    out, times = {}, {"apply_s": 0.0}

    def apply(kernel, f):
        t0 = time.perf_counter()
        res = foliops.apply_op(kernel, f, GRID_BOX, (41, 41), ws.ctx())
        times["apply_s"] += time.perf_counter() - t0
        return res.values

    for name in ("gauss_R", "gauss_C"):
        kernel = ws.get("kernels", name)
        for i, f in enumerate(fx["fns"]):
            out[f"{name}/{i}"] = apply(kernel, f)
    dr = foliops.convolve(ws.get("kernels", "dirac_rot90"),
                          ws.get("kernels", "gauss_R"), ws.ctx())
    out["dirac_rot90*gauss_R/0"] = apply(dr, fx["fns"][0])
    return out, times


WORKLOADS = {
    "battery": (battery_spec, battery_setup, battery_body),
    "nonlinear": (nonlinear_spec, nonlinear_setup, nonlinear_body),
    "multi-f": (multi_f_spec, multi_f_setup, multi_f_body),
}
