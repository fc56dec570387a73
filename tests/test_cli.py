"""CLI commands, config loading, exit codes, deterministic outputs."""

import copy
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


_LEAF = ["leaf", "--foliation", "T", "--point", "0"]
_FLOW = ["flow", "--foliation", "T"]
_APPLY_T = ["apply", "--kernel", "gauss_T", "--function", "f_T", "--box", "[[-2,2]]"]


@pytest.mark.parametrize("command, flag, value", [
    (_FLOW + ["--point", "0"], "--xi", "inf"),
    (_FLOW + ["--point", "0"], "--xi", "1e999"),
    (_FLOW + ["--point", "0"], "--xi", "1_0"),
    (_FLOW + ["--xi", "0.5"], "--point", "nan"),
    (_APPLY_T, "--res", "3,,"),
    (_LEAF, "--mesh", "nan"),
    (_LEAF, "--mesh", "inf"),
    (_LEAF, "--mesh", "-1"),
    (_LEAF, "--mesh", "0"),
    (_LEAF, "--budget", "-3"),
    (_LEAF, "--seed", "-1"),
    (["flow", "--foliation", "R", "--point", "1,0"], "--xi", "nan"),
    (["flow", "--foliation", "C", "--point", "1,0"], "--xi", "nan,1"),
])
def test_command_line_numbers_pass_the_number_rule(command, flag, value, capsys):
    """Each of these flowed, sampled or failed with another exit code: a
    non-finite --xi or --point escaped (exit 3; --xi nan did so last), 1_0
    read as 10, --res 3,, read as 3, a NaN, infinite or non-positive mesh
    ran, a negative budget ran, and a negative seed ended in a numpy
    traceback (exit 1)."""
    assert run_cli(*command, flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:") and flag in err


@pytest.mark.parametrize("command, flag, value, same", [
    (_APPLY_T, "--res", "1e1", "10"),
    (_LEAF, "--seed", "3.0", "3"),
])
def test_integral_floats_read_as_counts(tmp_path, command, flag, value, same):
    """The number rule reads an integral float as an integer; ``--res 1e1``
    exited 2."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*command, flag, value, "--out", str(a)) == 0
    assert run_cli(*command, flag, same, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


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


@pytest.mark.parametrize("strict", [[], ["--strict"]])
def test_infinite_values_exit_4(tmp_path, capsys, strict):
    """A function that overflows makes the quadrature infinite: exit 4
    with or without --strict, which reports only masked points as escapes."""
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({"functions": {"h": {"expr": "exp(1000*x1^2)",
                                                   "dim": 1}}}))
    with np.errstate(over="ignore"):
        code = run_cli("apply", "--config", str(cfg), "--kernel", "gauss_T",
                       "--function", "h", "--box", "[[-1,1]]", "--res", "5",
                       "--out", str(tmp_path / "h.csv"), *strict)
    assert code == 4
    assert capsys.readouterr().err.startswith("error: QuadratureFailure:")


@pytest.mark.parametrize("setting", [("--ode-tol", "nan"), ("--ode-tol", "-1"),
                                     ("--ode-tol", "inf"), ("--ode-max-steps", "0"),
                                     ("--quad-order", "1")])
def test_bad_numerical_settings_exit_2(setting, capsys):
    if setting[0] != "--quad-order":  # flow takes the ODE flags alone
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


@pytest.mark.parametrize("section", [
    {"flow": {"abs_tole": 1e-3}},  # an unknown key was ignored
    {"flow": {"max_steps": "abc"}},  # a ValueError traceback, exit 1
    {"quadrature": {"order": 12.7}},  # truncated to 12
])
def test_bad_settings_config_exit_2(tmp_path, capsys, section):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps(section))
    assert run_cli("flow", "--config", str(cfg), "--foliation", "S", "--xi", "1",
                   "--point", "2") == 2
    assert capsys.readouterr().err.startswith("error: ConfigError:")


_BOX_CONFIG = {
    "foliations": {"line": {"dim": 1, "box": [[-3, 3]], "generators": ["[1]"],
                            "xi_radius": [2.0]}},
    "bisubmersions": {
        "U": {"type": "path_holonomy", "foliation": "line"},
        "V": {"type": "restriction", "inner": "U", "param_box": [[-1, 1], [-3, 3]]},
    },
    "bisections": {"shift": {"host": "U", "xi": [0.5], "base_box": [[-3, 3]]}},
    "kernels": {
        "k": {"atoms": [{"type": "density", "host": "U", "expr": "exp(-20*x1^2)",
                         "xi_box": [[-1.2, 1.2]], "base_box": [[-12, 12]]}]},
        "d": {"atoms": [{"type": "dirac", "bisection": "shift",
                         "coeff": "(1-(x1/2)^2)^4", "coeff_box": [[-2, 2]]}]},
    },
    "functions": {"f": {"expr": "exp(-x1^2)", "dim": 1},
                  "g": {"expr": "1", "dim": 1, "support": [[-1, 1]]}},
}
_DENSITY = ("kernels", "k", "atoms", 0)


_ABSENT = object()


def _with(path, value):
    """A copy of _BOX_CONFIG with ``value`` at ``path``, or without the
    field there if ``value`` is _ABSENT."""
    spec = copy.deepcopy(_BOX_CONFIG)
    node = spec
    for key in path[:-1]:
        node = node[key]
    if value is _ABSENT:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return spec


def _apply_box_config(tmp_path, spec):
    """Exit code and output grid of ``foliops apply`` of k to f under spec."""
    cfg = tmp_path / "boxes.json"
    cfg.write_text(json.dumps(spec))
    out = tmp_path / "grid.csv"
    code = run_cli("apply", "--config", str(cfg), "--kernel", "k", "--function",
                   "f", "--box", "[[-1,1]]", "--res", "5", "--out", str(out))
    return code, (GridFunction.from_csv(out.read_text()) if code == 0 else None)


@pytest.mark.parametrize("where, box", [
    ((*_DENSITY, "xi_box"), [[1.2, -1.2]]),  # Op(a)f came out negated
    ((*_DENSITY, "xi_box"), "abc"),  # a ValueError traceback, exit 1
    ((*_DENSITY, "base_box"), [[-12, 12, 3]]),  # accepted
    ((*_DENSITY, "base_box"), [[12, -12]]),  # all zeros
    ((*_DENSITY, "xi_box"), [[float("nan"), 1.2]]),  # every point masked
    (("foliations", "line", "box"), [[3, -3]]),
    (("bisubmersions", "V", "param_box"), [[1, -1], [-3, 3]]),
    (("bisections", "shift", "base_box"), [[-3, float("inf")]]),
    (("kernels", "d", "atoms", 0, "coeff_box"), [[2, -2]]),
    (("functions", "g", "support"), [[1, -1]]),
])
def test_bad_config_box_exit_2(tmp_path, capsys, where, box):
    """Every config box passes the --box rule: shape (dim, 2), finite, lo < hi."""
    assert _apply_box_config(tmp_path, _with(where, box))[0] == 2
    assert capsys.readouterr().err.startswith("error: ConfigError:")


@pytest.mark.parametrize("order", [
    1,  # wrote 2.4 where Op(a)f is 0.387
    "abc",  # a ValueError traceback, exit 1
    12.5,
])
def test_bad_density_quad_order_exit_2(tmp_path, capsys, order):
    spec = copy.deepcopy(_BOX_CONFIG)
    spec["kernels"]["k"]["atoms"][0]["quad_order"] = order
    assert _apply_box_config(tmp_path, spec)[0] == 2
    assert capsys.readouterr().err.startswith("error: ConfigError:")


def test_density_quad_order_is_used(tmp_path):
    spec = copy.deepcopy(_BOX_CONFIG)
    code, default = _apply_box_config(tmp_path, spec)
    spec["kernels"]["k"]["atoms"][0]["quad_order"] = 16
    code16, low = _apply_box_config(tmp_path, spec)
    assert code == code16 == 0
    # 16 nodes resolve exp(-20 xi^2) on [-1.2, 1.2] to about 2e-4
    assert 0.0 < np.max(np.abs(low.values - default.values)) <= 1e-3


def _info_exit(tmp_path, spec):
    cfg = tmp_path / "shape.json"
    cfg.write_text(json.dumps(spec))
    return run_cli("info", "--config", str(cfg))


@pytest.mark.parametrize("spec, named", [
    ([_BOX_CONFIG], "config"),  # a list, not an object
    (_with(("kernels", "k"), 5), "kernel 'k'"),
    (_with(("kernels", "k", "atoms"), "abc"), "kernel 'k'"),
    (_with(("kernels", "k", "atoms"), [5]), "kernel 'k' atom"),
    (_with(("functions", "g"), 5), "function 'g'"),
    (_with(("functions", "f", "dim"), "abc"), "function 'f'"),
    (_with(("bisections", "shift", "xi"), "abc"), "bisection 'shift'"),
    (_with(("bisubmersions", "W"), {"type": "translate", "inner": "U",
                                    "bisection": "shift", "side": "up"}),
     "bisubmersion 'W'"),
    (_with(("bisubmersions", "U", "foliation"), ["line"]), "unknown foliation"),
])
def test_malformed_config_shapes_exit_2(tmp_path, capsys, spec, named):
    """Each of these ended in an AttributeError, TypeError or ValueError
    traceback (exit 1)."""
    assert _info_exit(tmp_path, spec) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:") and named in err


@pytest.mark.parametrize("where, value, error, named", [
    (("foliations", "line", "dim"), 1.5, "ConfigError", "foliation 'line'"),
    (("foliations", "line", "dim"), True, "ConfigError", "foliation 'line'"),
    (("foliations", "line", "escape_factor"), True, "ConfigError",
     "foliation 'line'"),
    (("functions", "f", "dim"), 2.5, "ConfigError", "function 'f'"),
    (("functions", "f", "dim"), True, "ConfigError", "function 'f'"),
    (("flow",), {"abs_tol": True}, "ConfigError", "flow abs_tol"),
    (("flow",), {"max_steps": True}, "ConfigError", "flow max_steps"),
    (("functions", "f", "dim"), float("inf"), "ConfigError", "function 'f'"),
    (("flow",), {"abs_tol": 10**400}, "ConfigError", "flow abs_tol"),
    (("functions", "f", "expr"), "0^-1", "ParseError", "function 'f'"),
    (("functions", "f", "expr"), "2^2000", "ParseError", "function 'f'"),
    (("functions", "f", "expr"), "(-8)^0.5*x1", "ParseError", "function 'f'"),
    (("functions", "f", "expr"), "1e308*10", "ParseError", "function 'f'"),
])
def test_config_numbers_and_constant_folds_exit_2(tmp_path, capsys, where,
                                                  value, error, named):
    """Each of these but the infinite dim and the 400-digit tolerance
    loaded (info exit 0, with a dim cast by int(), a boolean read as 1.0
    or a complex or infinite constant) or ended in a ZeroDivisionError or
    OverflowError traceback (exit 1)."""
    assert _info_exit(tmp_path, _with(where, value)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}:") and named in err


def test_integral_float_counts_still_load(tmp_path):
    spec = _with(("functions", "f", "dim"), 1.0)
    spec["flow"] = {"max_steps": 20.0, "abs_tol": 1}
    spec["foliations"]["line"]["dim"] = 1.0
    ws = load_config(spec)
    assert ws.flow_cfg.max_steps == 20 and isinstance(ws.flow_cfg.max_steps, int)
    assert ws.flow_cfg.abs_tol == 1.0 and ws.foliations["line"].dim == 1
    assert _info_exit(tmp_path, spec) == 0


def test_config_density_on_a_restriction_stays_inside_it(tmp_path, capsys):
    """With no boxes, the density on the restriction V of U to
    [-1, 1] x [0, 1] took the escape box as its base box: Op(a)1 read 2.0
    at x = -1.5, 0.5 and 2.5.  It now reads as the density on U with V's
    boxes, and a box that misses V exits 2."""
    spec = _with(("bisubmersions", "V", "param_box"), [[-1, 1], [0, 1]])
    spec["functions"]["f"]["expr"] = "1"
    spec["kernels"]["k"]["atoms"][0].update(expr="1", xi_box=[[-1, 1]],
                                            base_box=[[0, 1]])
    spec["kernels"]["kv"] = {"atoms": [{"type": "density", "host": "V",
                                        "expr": "1"}]}
    cfg = tmp_path / "restricted.json"
    cfg.write_text(json.dumps(spec))
    grids = []
    for kernel in ("k", "kv"):
        out = tmp_path / f"{kernel}.csv"
        assert run_cli("apply", "--config", str(cfg), "--kernel", kernel,
                       "--function", "f", "--box", "[[-1.5,2.5]]", "--res", "3",
                       "--out", str(out)) == 0
        grids.append(out.read_text().splitlines()[1:])
    assert grids[0] == grids[1]
    values = [float(line.split(",")[-1]) for line in grids[1]]
    assert values[0] == values[2] == 0.0 and abs(values[1] - 1.0) <= 0.1
    spec["kernels"]["kv"]["atoms"][0]["xi_box"] = [[1.5, 2.0]]
    assert _info_exit(tmp_path, spec) == 2
    assert capsys.readouterr().err.startswith("error: ConfigError: xi box")


@pytest.mark.parametrize("where, value, named", [
    (("foliations", "line", "xi_radius"), [True], "foliation 'line': xi_radius"),
    (("foliations", "line", "box"), [[False, True]], "foliation 'line': box"),
    (("bisections", "shift", "xi"), [True], "bisection 'shift' xi"),
    (("bisections", "shift", "base_box"), [[-3, True]], "'shift' base_box"),
    (("bisubmersions", "V", "param_box"), [[-1, 1], [-3, True]], "'V' param_box"),
    ((*_DENSITY, "xi_box"), [[-1.2, "1.2"]], "'k' xi_box"),
    (("functions", "g", "support"), [[False, 1]], "'g' support"),
    (None, "[[false, true]]", "--box"),
])
def test_config_list_entries_pass_the_number_rule(tmp_path, capsys, where,
                                                  value, named):
    """List entries and box bounds, in a config or in --box, are read by the
    number rule; each of these ran (apply exit 0), with true read as 1.0,
    false as 0.0 and "1.2" as 1.2."""
    spec = _BOX_CONFIG if where is None else _with(where, value)
    cfg = tmp_path / "lists.json"
    cfg.write_text(json.dumps(spec))
    assert run_cli("apply", "--config", str(cfg), "--kernel", "k", "--function",
                   "f", "--box", value if where is None else "[[-1,1]]",
                   "--res", "5") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:") and named in err


@pytest.mark.parametrize("jacobian", [[], ["--jacobian"]])
@pytest.mark.parametrize("c", [1e200, 4.0])
def test_flow_of_a_quotient_by_a_constant(tmp_path, c, jacobian):
    """x1/c flows x to x e^(xi/c).  With c = 1e200 the quotient rule of the
    generator's Jacobian folded c*c to inf, so every flow exited 2."""
    cfg = tmp_path / "quotient.json"
    cfg.write_text(json.dumps({"foliations": {"Q": {
        "dim": 1, "box": [[-2, 2]], "generators": [f"[x1/{c!r}]"],
        "xi_radius": [1.0]}}}))
    out = tmp_path / "flow.json"
    assert run_cli("flow", "--config", str(cfg), "--foliation", "Q", "--xi",
                   "0.5", "--point", "1", *jacobian, "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert abs(data["point"][0] - math.exp(0.5 / c)) <= 1e-14
    if jacobian:
        assert abs(data["jacobian"][0][0] - math.exp(0.5 / c)) <= 1e-14


def _two_dimensions():
    spec = _with(("functions", "f", "dim"), _ABSENT)
    spec["foliations"]["plane"] = {"dim": 2, "box": [[-1, 1], [-1, 1]],
                                   "generators": ["[1, 0]"], "xi_radius": [1.0]}
    return spec


@pytest.mark.parametrize("spec, message", [
    (_with((*_DENSITY, "expr"), _ABSENT), "kernel 'k': missing field 'expr'"),
    (_with(("bisubmersions", "V", "type"), "blowup"),
     "unknown bisubmersion type 'blowup'"),
    (_with(("kernels", "k", "atoms"), []), "kernel 'k' has no atoms"),
    (_with((*_DENSITY, "type"), "smooth"), "unknown atom type 'smooth'"),
    (_two_dimensions(), "function 'f' needs an explicit dim"),
])
def test_incomplete_config_exit_2(tmp_path, capsys, spec, message):
    assert _info_exit(tmp_path, spec) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"


@pytest.mark.parametrize("args, message", [
    (("info", "--config", "{missing}"), "cannot read config"),
    (("info", "--config", "{malformed}"), "malformed JSON config"),
    (("leaf", "--foliation", "R", "--point", "2.5,0"),
     "point lies outside the chart box"),
    (("convolve-apply", "--kernels", "gauss_T", "--function", "f_T", "--box",
      "[[-1,1]]", "--res", "5"), "convolve-apply needs at least two kernel names"),
])
def test_unusable_inputs_exit_2(tmp_path, capsys, args, message):
    (tmp_path / "malformed.json").write_text('{"foliations": {')
    paths = {"missing": tmp_path / "missing.json",
             "malformed": tmp_path / "malformed.json"}
    assert run_cli(*(a.format(**paths) for a in args)) == 2
    assert capsys.readouterr().err.startswith(f"error: ConfigError: {message}")


@pytest.mark.parametrize("text, message", [
    (None, "cannot plot --input {csv}: [Errno 2] No such file"),
    ("", "cannot plot --input {csv}: zero-size array"),
    ("# foliation=T\n", "cannot plot --input {csv}: zero-size array"),
    ("# box=[[0,1]];res=[2]\n1\nabc\n",
     "cannot plot --input {csv}: could not convert string to float"),
    ("# box=[[0,1]];res=[3]\n1\n2\n", "cannot plot --input {csv}: cannot reshape"),
    ("# foliation=T\n0.5\nx\n",
     "cannot plot --input {csv}: could not convert string to float"),
    ("# foliation=R\n0.5,1\n0.5\n", "cannot plot --input {csv}: "),
    ("# box=[[0,1],[0,1],[0,1]];res=[2,2,2]\n" + "1\n" * 8,
     "only 1-D and 2-D grids are plotted, not 3-D"),
], ids=["missing", "empty", "no-points", "grid-text", "grid-short", "leaf-text",
        "leaf-ragged", "grid-3d"])
def test_unusable_plot_input_exit_2(tmp_path, capsys, text, message):
    """A missing, empty or unparsable CSV is a usage error (exit 2), not a
    failed check (exit 1), and writes no plot."""
    csv = tmp_path / "in.csv"
    if text is not None:
        csv.write_text(text)
    assert run_cli("plot", "--input", str(csv), "--svg",
                   str(tmp_path / "out.svg")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: " + message.format(csv=csv))
    assert not (tmp_path / "out.svg").exists()


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_unwritable_output_exit_2(tmp_path, capsys, flag):
    """An output path in a missing directory is a usage error (exit 2)."""
    args = (["info", "--out"] if flag == "--out" else
            ["leaf", "--foliation", "T", "--point", "0", "--budget", "5",
             "--out", str(tmp_path / "leaf.csv"), "--svg"])
    assert run_cli(*args, str(tmp_path / "missing" / "x")) == 2
    assert capsys.readouterr().err.startswith("error: ConfigError: cannot write")


def test_apply_reports_its_masked_points(tmp_path, capsys):
    """With escape factor 1 the range fibre over x leaves [-3, 3] for some
    xi in [-1.5, 1.5] exactly when |x| > 1.5: 4 of the 7 points."""
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps({
        "foliations": {"line": {"dim": 1, "box": [[-3, 3]], "generators": ["[1]"],
                                "xi_radius": [2.0], "escape_factor": 1.0}},
        "bisubmersions": {"U": {"type": "path_holonomy", "foliation": "line"}},
        "kernels": {"k": {"atoms": [{"type": "density", "host": "U",
                                     "expr": "exp(-x1^2)",
                                     "xi_box": [[-1.5, 1.5]]}]}},
    }))
    out = tmp_path / "grid.csv"
    assert run_cli("apply", "--config", str(cfg), "--kernel", "k", "--function",
                   "f_T", "--box", "[[-3,3]]", "--res", "7", "--out", str(out)) == 0
    values = out.read_text().splitlines()[1:]  # one per x = -3, -2, ..., 3
    masked = [x for x, v in zip(range(-3, 4), values) if v == "nan"]
    assert masked == [x for x in range(-3, 4) if abs(x) > 1.5]
    assert capsys.readouterr().err == f"masked points: {len(masked)}\n"


@pytest.mark.parametrize("xi", [[1.0, 2.0], []])
def test_bisection_xi_needs_one_entry_per_generator(tmp_path, capsys, xi):
    """On the one-generator line ``"xi": [1.0, 2.0]`` loaded (info exit 0)
    and only ``apply`` failed, on the dimension of its points."""
    assert _info_exit(tmp_path, _with(("bisections", "shift", "xi"), xi)) == 2
    assert capsys.readouterr().err.startswith("error: DimensionMismatch:")


def test_density_on_composed_host_exit_2(tmp_path, capsys):
    """A density's parameters are (fibre, base); a composed host's are not,
    and such a density ended in an IndexError traceback, exit 1."""
    spec = copy.deepcopy(_BOX_CONFIG)
    spec["bisubmersions"]["UU"] = {"type": "compose", "left": "U", "right": "U"}
    spec["kernels"]["k"]["atoms"][0].update(host="UU",
                                            xi_box=[[-1.2, 1.2]] * 2)
    assert _apply_box_config(tmp_path, spec)[0] == 2
    assert capsys.readouterr().err.startswith("error: HostMismatch:")


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


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--ode-tol", "nan"],
                                  ["--ode-max-steps", "10"],
                                  ["--quad-order", "1"], ["--strict"]])
def test_verify_rejects_numerical_flags(flag, capsys):
    """verify takes its settings from the config alone; a flag it would
    ignore is a usage error (exit 2), not a silent run at the defaults."""
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--suite", "flows", *flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_COMMAND_ARGS = {
    "info": [],
    "leaf": ["--foliation", "R", "--point", "1,0"],
    "flow": ["--foliation", "S", "--xi", "1", "--point", "2"],
    "apply": ["--kernel", "gauss_R", "--function", "f_R",
              "--box", "[[-1,1],[-1,1]]", "--res", "3,3"],
    "convolve-apply": ["--kernels", "gauss_T,dirac_shift", "--function", "f_T",
                       "--box", "[[-2,2]]", "--res", "5"],
}
_DROPPED_FLAGS = [
    ("info", ["--seed", "5"]), ("info", ["--strict"]),
    ("info", ["--quad-order", "7"]), ("info", ["--ode-tol", "1e-9"]),
    ("info", ["--ode-max-steps", "10"]),
    ("leaf", ["--strict"]), ("leaf", ["--quad-order", "7"]),
    ("flow", ["--seed", "9"]), ("flow", ["--strict"]),
    ("flow", ["--quad-order", "5"]),
    ("apply", ["--seed", "5"]), ("convolve-apply", ["--seed", "5"]),
]


@pytest.mark.parametrize("command, flag", _DROPPED_FLAGS)
def test_commands_reject_flags_they_do_not_read(command, flag, capsys):
    """--seed is read by leaf alone, --strict and --quad-order by the
    commands that pair, the ODE flags by the commands that flow; any other
    use is a usage error (exit 2), not a silent run."""
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *_COMMAND_ARGS[command], *flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


def test_verify_negative_suite_fails_on_an_involutive_family(tmp_path):
    """Shadowing the non-involutive control with the commuting {[1,0],[0,1]}
    leaves the negative suite nothing to detect: both entries fail, exit 1."""
    cfg = tmp_path / "involutive.json"
    cfg.write_text(json.dumps({"foliations": {"noninvolutive": {
        "dim": 2, "box": [[-2, 2], [-2, 2]], "generators": ["[1, 0]", "[0, 1]"],
        "xi_radius": [1.0, 1.0]}}}))
    out = tmp_path / "report.json"
    assert run_cli("verify", "--suite", "negative", "--config", str(cfg),
                   "--out", str(out)) == 1
    report = json.loads(out.read_text())
    assert [e["status"] for e in report] == ["fail", "fail"]
    assert all(e["measured"] == 1.0 > e["tolerance"] for e in report)


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


@pytest.mark.parametrize("kernel, function, box, res", [
    ("gauss_R", "f_R", "[[-2,2],[-2,2]]", "7,5"),  # a heatmap
    ("gauss_T", "f_T", "[[-2,2]]", "9"),  # a curve
])
def test_apply_svg_is_plot_of_its_csv(tmp_path, kernel, function, box, res):
    csv, svg, plotted = (tmp_path / n for n in ("g.csv", "a.svg", "p.svg"))
    assert run_cli("apply", "--kernel", kernel, "--function", function, "--box",
                   box, "--res", res, "--out", str(csv), "--svg", str(svg)) == 0
    assert run_cli("plot", "--input", str(csv), "--svg", str(plotted)) == 0
    assert svg.read_bytes() == plotted.read_bytes()
    shape = [int(n) for n in reversed(res.split(","))]
    marks = svg.read_text().count("<rect ") - 1  # less the background
    assert marks == (math.prod(shape) if len(shape) == 2 else 0)


def test_plot_of_a_leaf_csv_places_each_point(tmp_path):
    """Each circle of the plot maps back to its CSV point through the plot
    box, the points' bounding box widened by 0.1."""
    csv, svg = tmp_path / "leaf.csv", tmp_path / "leaf.svg"
    assert run_cli("leaf", "--foliation", "R", "--point", "1,0", "--budget", "60",
                   "--out", str(csv)) == 0
    assert run_cli("plot", "--input", str(csv), "--svg", str(svg)) == 0
    pts = np.loadtxt(csv, delimiter=",", comments="#", ndmin=2)
    lo, hi = pts.min(axis=0) - 0.1, pts.max(axis=0) + 0.1
    circles = [line.split('"') for line in svg.read_text().splitlines()
               if line.startswith("<circle")]
    cx = np.array([float(c[1]) for c in circles])
    cy = np.array([float(c[3]) for c in circles])
    back = np.stack([lo[0] + (cx - 10) / 460 * (hi[0] - lo[0]),
                     lo[1] + (470 - cy) / 460 * (hi[1] - lo[1])], axis=1)
    assert len(back) == len(pts) > 10
    assert np.max(np.abs(back - pts)) <= 0.01


def test_plot_of_a_1d_leaf_csv_places_each_point(tmp_path):
    """A 1-D leaf is plotted on the line y = 0 of the box [lo, hi] x [-1, 1],
    so every circle sits at mid height and maps back to its point."""
    csv, svg = tmp_path / "leaf.csv", tmp_path / "leaf.svg"
    assert run_cli("leaf", "--foliation", "T", "--point", "0.5", "--budget",
                   "40", "--out", str(csv)) == 0
    assert run_cli("plot", "--input", str(csv), "--svg", str(svg)) == 0
    pts = np.loadtxt(csv, delimiter=",", comments="#", ndmin=2)[:, 0]
    lo, hi = pts.min() - 0.1, pts.max() + 0.1
    circles = [line.split('"') for line in svg.read_text().splitlines()
               if line.startswith("<circle")]
    cx = np.array([float(c[1]) for c in circles])
    assert {c[3] for c in circles} == {"240.00"}
    assert len(cx) == len(pts) > 10
    assert np.max(np.abs(lo + (cx - 10) / 460 * (hi - lo) - pts)) <= 0.01


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
