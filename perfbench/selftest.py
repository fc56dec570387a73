"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the default test discovery (the file name does not start
with ``test_``) so the repository's own suite is unchanged.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_are_deterministic_per_seed(name):
    make_spec = workloads.WORKLOADS[name][0]
    assert make_spec(7) == make_spec(7)
    if name != "battery":  # the battery runs the fixed canonical fixtures
        assert make_spec(7) != make_spec(8)


def test_metric_names_and_declared_lists():
    bench = _bench()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layer = tracing.Tracer().metrics(1, 1.0)
    layer["trace.overhead_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: u for k, (_, u) in layer.items()}


def _small_body(spec, fx):
    """A few of each kind of call, on grids small enough for a unit test."""
    import foliops
    from foliops import verify

    ws = fx["ws"]
    a, b, d = (ws.get("kernels", n) for n in ("a", "b", "d"))
    f, k = ws.get("functions", "f"), ws.get("functions", "k")
    box = workloads.GRID_BOX
    out = {
        "op_a": foliops.apply_op(a, f, box, (5, 5), ws.ctx()).values,
        "op_da": foliops.apply_op(foliops.convolve(d, a, ws.ctx()), f, box, (5, 5),
                                  ws.ctx()).values,
        "op_ab": foliops.apply_op(foliops.convolve(a, b, ws.ctx()), f, box, (2, 2),
                                  ws.ctx()).values,
        "adj": foliops.apply_adjoint(foliops.transpose(a), k, box, (4, 4),
                                     ws.ctx()).values,
        "leaf": foliops.leaf_sample(ws.get("foliations", "P"), spec["leaf_x0"],
                                    budget=12, cfg=ws.flow_cfg, seed=3).points,
    }
    for name in ("flows", "translation", "transpose", "negative"):
        out[name] = np.array([e["measured"] for e in
                              verify.report_to_json(verify.run_suites(name))])
    return out


def test_traced_outputs_equal_untraced():
    spec = workloads.nonlinear_spec(5)
    fx = workloads.nonlinear_setup(spec)
    plain = _small_body(spec, fx)
    import foliops
    from foliops import flow, kernel, verify

    before = (foliops.apply_op, flow.exp_flow_batch, kernel.DensityAtom.pair,
              dict(verify.SUITES))
    tr = tracing.Tracer().install()
    try:
        assert foliops.apply_op is not before[0]
        traced = _small_body(spec, fx)
    finally:
        tr.uninstall()
    assert (foliops.apply_op, flow.exp_flow_batch, kernel.DensityAtom.pair,
            dict(verify.SUITES)) == before
    assert run.same_outputs(plain, traced)

    layers = {sp.layer for sp in tr.spans}
    assert {"expr", "flow", "foliation", "bisubmersion", "kernel", "kernel.build",
            "op", "verify"} <= layers
    m = tr.metrics(1, 1.0)
    assert m["flow.affine_row_frac"][0] > 0  # the suites flow affine families
    assert m["flow.rows_jac"][0] > 0 and m["foliation.leaf_points"][0] > 0
    assert m["kernel.max_depth"][0] == 1  # a*b nests one pairing
    for sp in tr.spans:
        assert sp.end >= sp.start and sp.child_s <= sp.duration + 1e-9


def test_run_refuses_without_sources(tmp_path):
    """In a tree without src/ the benchmark fails and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
