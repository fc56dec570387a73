"""CLI commands, config loading, exit codes, deterministic outputs."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from foliops.cli import main
from foliops.errors import ConfigError
from foliops.op import GridFunction
from foliops.workspace import load_config


def run_cli(*args):
    return main(list(args))


def test_info_runs(capsys):
    assert run_cli("info") == 0
    out = capsys.readouterr().out
    assert "foliations:" in out and "kernels:" in out


def test_flow_command(tmp_path):
    out = tmp_path / "flow.json"
    code = run_cli("flow", "--foliation", "S", "--xi", "1", "--point", "2",
                   "--jacobian", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert abs(data["point"][0] - 2 * math.e) <= 1e-8
    assert abs(data["jacobian"][0][0] - math.e) <= 1e-8


@pytest.mark.parametrize("foliation, xi", [("R", "nan"), ("C", "nan,1")])
def test_flow_nan_xi_exit_3(foliation, xi, capsys):
    assert run_cli("flow", "--foliation", foliation, "--xi", xi,
                   "--point", "1,0") == 3
    assert capsys.readouterr().err.startswith("error: DomainEscape:")


def test_leaf_command_circle(tmp_path):
    out = tmp_path / "leaf.csv"
    svg = tmp_path / "leaf.svg"
    code = run_cli("leaf", "--foliation", "R", "--point", "1,0",
                   "--budget", "200", "--out", str(out), "--svg", str(svg))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# foliation=R")
    pts = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-6
    assert svg.read_text().startswith("<svg")


def test_leaf_scaling_fixed_point(tmp_path):
    out = tmp_path / "leaf.csv"
    assert run_cli("leaf", "--foliation", "S", "--point", "0",
                   "--budget", "50", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # header + the single fixed point


def test_leaf_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        run_cli("leaf", "--foliation", "R", "--point", "1,0",
                "--budget", "150", "--seed", "3", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_unknown_names_exit_2(capsys):
    assert run_cli("leaf", "--foliation", "nope", "--point", "1,0") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope" in err
    assert run_cli("verify", "--suite", "nope") == 2
    assert run_cli("apply", "--kernel", "nope", "--function", "f_T",
                   "--box", "[[-1,1]]", "--res", "5") == 2


_APPLY_R = ("apply", "--kernel", "gauss_R", "--function", "f_R")


@pytest.mark.parametrize("args", [
    ("flow", "--foliation", "R", "--xi", "1,2", "--point", "1,0"),
    ("flow", "--foliation", "R", "--xi", "1", "--point", "1,0,3"),
    *((*_APPLY_R, "--box", "[[-2,2],[-2,2]]", "--res", res)
      for res in ("x", "1", "5", "5,1")),
    (*_APPLY_R, "--box", "[[-2,2", "--res", "5,5"),
    (*_APPLY_R, "--box", "[[2,-2],[-2,2]]", "--res", "5,5"),
    (*_APPLY_R, "--box", "[[-2,2]]", "--res", "5"),
])
def test_malformed_input_exit_2(args, capsys):
    assert run_cli(*args) == 2
    assert capsys.readouterr().err.startswith("error: ConfigError:")


def test_step_limit_exit_5(tmp_path, capsys):
    # Affine families take the exact flow and no steps, so the field is not.
    cfg = tmp_path / "quadratic.json"
    cfg.write_text(json.dumps({"foliations": {"Q": {
        "dim": 1, "box": [[-2, 2]], "generators": ["[x1^2]"], "xi_radius": [1.0]}}}))
    assert run_cli("flow", "--config", str(cfg), "--foliation", "Q",
                   "--xi", "0.5", "--point", "1", "--ode-max-steps", "1") == 5
    assert capsys.readouterr().err.startswith("error: StepLimit:")


@pytest.mark.parametrize("setting", [("--ode-tol", "nan"), ("--ode-tol", "-1"),
                                     ("--ode-tol", "inf"), ("--ode-max-steps", "0"),
                                     ("--quad-order", "1")])
def test_bad_numerical_settings_exit_2(setting, capsys):
    assert run_cli("flow", "--foliation", "S", "--xi", "1", "--point", "2",
                   *setting) == 2
    assert capsys.readouterr().err.startswith("error: ConfigError:")
    assert run_cli("apply", "--kernel", "gauss_R", "--function", "f_R",
                   "--box", "[[-1,1],[-1,1]]", "--res", "3,3", *setting) == 2


@pytest.mark.parametrize("bad", [{"escape_factor": float("nan")},
                                 {"escape_factor": -1.0}, {"escape_factor": 0.0},
                                 {"xi_radius": [float("nan")]},
                                 {"xi_radius": [float("inf")]}])
def test_bad_foliation_config_exit_2(tmp_path, capsys, bad):
    # Such values once made every flow row escape, so the run exited 3.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"foliations": {"Q": {
        "dim": 1, "box": [[-2, 2]], "generators": ["[x1^2]"], "xi_radius": [1.0],
        **bad}}}))
    assert run_cli("flow", "--config", str(cfg), "--foliation", "Q",
                   "--xi", "0.1", "--point", "0.5") == 2
    assert capsys.readouterr().err.startswith("error: ConfigError:")


def test_apply_identity_kernel(tmp_path):
    out = tmp_path / "grid.csv"
    code = run_cli("apply", "--kernel", "dirac_identity", "--function", "f_T",
                   "--box", "[[-0.9,0.9]]", "--res", "31", "--out", str(out))
    assert code == 0
    g = GridFunction.from_csv(out.read_text())
    from foliops.canonical import canonical_workspace

    f = canonical_workspace().functions["f_T"]
    want = f(g.points(), check_finite=False).reshape(g.values.shape)
    assert np.max(np.abs(g.values - want)) <= 1e-9


def test_apply_translation_moves_bump(tmp_path):
    out = tmp_path / "grid.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "functions": {"bump_at_zero": {
            "expr": "(1-(x1/0.5)^2)^4", "dim": 1, "support": [[-0.5, 0.5]]
        }}
    }))
    code = run_cli("apply", "--config", str(cfg), "--kernel", "dirac_shift",
                   "--function", "bump_at_zero", "--box", "[[-3,3]]",
                   "--res", "61", "--out", str(out))
    assert code == 0
    g = GridFunction.from_csv(out.read_text())
    pts = g.points()[:, 0]
    inside = np.abs(pts - 1.0) < 0.45
    outside = np.abs(pts - 1.0) > 0.6
    assert np.all(g.values[inside] > 0)
    assert np.max(np.abs(g.values[outside])) <= 1e-12


def test_apply_density_kernel_matches_oracle(tmp_path):
    """Smoothing kernel via the CLI against an independent 1-D quadrature."""
    import math

    from scipy.integrate import quad

    out = tmp_path / "grid.csv"
    code = run_cli("apply", "--kernel", "gauss_T", "--function", "f_T",
                   "--box", "[[-2,2]]", "--res", "9", "--out", str(out))
    assert code == 0
    g = GridFunction.from_csv(out.read_text())

    def oracle(x):
        return quad(
            lambda xi: math.exp(-25 * (xi - 0.3) ** 2)
            * math.exp(-1.2 * (x - xi - 0.5) ** 2),
            -0.8, 1.4, epsabs=1e-13, epsrel=1e-13,
        )[0]

    want = np.array([oracle(x) for x in g.points()[:, 0]])
    assert np.max(np.abs(g.values - want)) <= 1e-6


def test_convolve_apply(tmp_path):
    out = tmp_path / "grid.csv"
    code = run_cli("convolve-apply", "--kernels", "dirac_shift,dirac_shift2",
                   "--function", "f_T", "--box", "[[-1,1]]", "--res", "11",
                   "--out", str(out))
    assert code == 0
    g = GridFunction.from_csv(out.read_text())
    assert np.all(np.isfinite(g.values))


def test_verify_single_suite(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("verify", "--suite", "flows", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert all(e["status"] == "pass" for e in report)
    assert {e["check"] for e in report} == {
        "scaling flow exp((1),2) = 2e",
        "rotation flow exp((pi/2),(1,0)) = (0,1)",
        "quadratic flow exp((0.5),1) = 1/(1-0.5) = 2",
    }


def test_verify_corrupted_fixture_fails(tmp_path):
    """Shadowing the scaling foliation with a wrong generator must produce a
    fail entry with measured > tolerance and exit code 1."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "foliations": {
            "S": {"dim": 1, "box": [[-2, 2]], "generators": ["[1.1*x1]"],
                  "xi_radius": [1.6], "escape_factor": 6.0}
        }
    }))
    out = tmp_path / "report.json"
    code = run_cli("verify", "--suite", "flows", "--config", str(cfg),
                   "--out", str(out))
    assert code == 1
    report = json.loads(out.read_text())
    bad = [e for e in report if e["status"] == "fail"]
    assert bad and all(e["measured"] > e["tolerance"] for e in bad)


def test_verify_report_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        run_cli("verify", "--suite", "support", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_plot_command(tmp_path):
    grid = tmp_path / "grid.csv"
    run_cli("apply", "--kernel", "dirac_identity", "--function", "f_T",
            "--box", "[[-1,1]]", "--res", "11", "--out", str(grid))
    svg = tmp_path / "grid.svg"
    assert run_cli("plot", "--input", str(grid), "--svg", str(svg)) == 0
    assert svg.read_text().startswith("<svg")


def test_config_loading_full_round_trip(tmp_path):
    cfg = {
        "flow": {"abs_tol": 1e-9, "rel_tol": 1e-9},
        "quadrature": {"order": 24},
        "foliations": {
            "line": {"dim": 1, "box": [[-3, 3]], "generators": ["[1]"],
                     "xi_radius": [2.0]}
        },
        "bisubmersions": {
            "U": {"type": "path_holonomy", "foliation": "line"},
            "UU": {"type": "compose", "left": "U", "right": "U"},
            "Ut": {"type": "inverse", "inner": "U"},
            "Ur": {"type": "restriction", "inner": "U",
                   "param_box": [[-1.0, 1.0], [-3.0, 3.0]]},
            "Utr": {"type": "translate", "inner": "U", "bisection": "sh",
                    "side": "right"},
        },
        "bisections": {
            "sh": {"host": "U", "xi": [0.5], "base_box": [[-3, 3]]}
        },
        "kernels": {
            "k": {"side": "r", "atoms": [
                {"type": "dirac", "bisection": "sh",
                 "coeff": "(1-(x1/2)^2)^4", "coeff_box": [[-2.0, 2.0]]},
                {"type": "density", "host": "U",
                 "expr": "exp(-20*x1^2)", "xi_box": [[-1.2, 1.2]],
                 "base_box": [[-12, 12]]},
            ]}
        },
        "functions": {"f": "exp(-x1^2)"},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(cfg))
    ws = load_config(str(path))
    assert ws.flow_cfg.abs_tol == 1e-9
    assert ws.quad_cfg.order == 24
    assert set(ws.kernels) == {"k"}
    assert len(ws.kernels["k"].atoms) == 2
    assert ws.bisubmersions["UU"].dim == 3
    from foliops.bisubmersion import Restriction, TranslateRight

    assert isinstance(ws.bisubmersions["Ur"], Restriction)
    assert isinstance(ws.bisubmersions["Utr"], TranslateRight)


def test_config_cycle_detection(tmp_path):
    cfg = {
        "foliations": {
            "line": {"dim": 1, "box": [[-3, 3]], "generators": ["[1]"],
                     "xi_radius": [1.0]}
        },
        "bisubmersions": {
            "A": {"type": "compose", "left": "B", "right": "B"},
            "B": {"type": "inverse", "inner": "A"},
        },
    }
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="cyclic"):
        load_config(str(path))


def test_config_missing_reference(tmp_path):
    path = tmp_path / "miss.json"
    path.write_text(json.dumps({
        "bisubmersions": {"U": {"type": "path_holonomy", "foliation": "ghost"}}
    }))
    with pytest.raises(ConfigError, match="ghost"):
        load_config(str(path))


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "foliops.cli", "flow", "--foliation", "T",
         "--xi", "0.25", "--point", "0.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert abs(data["point"][0] - 0.75) <= 1e-9
