"""Batch front end: leaves, flows, operator application, verification.

One JSON config defines a workspace of named objects; commands reference
them by name.  Canonical fixtures are always available and user configs
shadow them by name, which is how the verification suites accept
corrupted-fixture negative controls.  Outputs are deterministic for a
fixed config and seed: floats are written with shortest round-trip
formatting and grids in row-major order.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import flow as _flow
from . import kernel as ker
from . import op as oper
from .canonical import canonical_workspace
from .errors import (
    ConfigError,
    DomainEscape,
    FoliopsError,
    QuadratureFailure,
    StepLimit,
)
from .flow import _checked_box, _count, _in_box, _number, _positive
from .foliation import leaf_sample
from .verify import SUITES, report_to_json, run_suites
from .workspace import _settings, load_config

__all__ = ["main"]

EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_ESCAPE = 3
EXIT_QUADRATURE = 4
EXIT_STEP_LIMIT = 5
# Library errors not listed here exit with EXIT_CONFIG.
_EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    (DomainEscape, EXIT_ESCAPE),
    (QuadratureFailure, EXIT_QUADRATURE),
    (StepLimit, EXIT_STEP_LIMIT),
)


def _json(text, what):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{what} {text!r} is not JSON") from exc


def _parse_number(text, what, integer=False):
    """A JSON number that passes the number rule, or ConfigError."""
    return _number(_json(text, what), what, integer)


def _parse_count(text, what):
    return _count(_json(text, what), what)


def _parse_vector(text, dim, what, integer=False):
    """``dim`` comma-separated numbers, each read by ``_parse_number``, or
    ConfigError."""
    vec = np.array([_parse_number(t, what, integer) for t in text.split(",")])
    if len(vec) != dim:
        raise ConfigError(f"{what} has {len(vec)} entries, expected {dim}")
    return vec


def _parse_box(text, dim):
    return _checked_box(_json(text, "--box"), dim, "--box")


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


def _workspace(args):
    overrides = load_config(args.config) if args.config else None
    ws = canonical_workspace().merged_with(overrides)
    flow = {}
    if args.ode_tol is not None:
        flow = {"abs_tol": args.ode_tol, "rel_tol": args.ode_tol}
    if args.ode_max_steps is not None:
        flow["max_steps"] = args.ode_max_steps
    ws.flow_cfg = _settings(ws.flow_cfg, flow, "flow")
    if args.quad_order is not None:
        order = args.quad_order
        ws.quad_cfg = _settings(ws.quad_cfg, {
            "order": order, "order_highdim": min(order, ws.quad_cfg.order_highdim)
        }, "quadrature")
    return ws


# ---------------------------------------------------------------------------
# SVG emission (static plots only; hand-rolled for byte determinism)


_SVG_SIZE = 480  # px, width and height of every plot


def _svg_header():
    w = h = _SVG_SIZE
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n'
        f'<rect width="{w}" height="{h}" fill="white"/>\n'
    )


def svg_leaf(points, box):
    """Scatter/polyline plot of leaf samples (1-D or 2-D base)."""
    pts = np.atleast_2d(points)
    if pts.shape[1] == 1:
        pts = np.stack([pts[:, 0], np.zeros(len(pts))], axis=1)
        box = np.array([box[0], [-1.0, 1.0]])
    lo, hi = box[:, 0], box[:, 1]
    span = np.where(hi > lo, hi - lo, 1.0)
    out = [_svg_header()]
    for p in pts:
        cx = (p[0] - lo[0]) / span[0] * (_SVG_SIZE - 20) + 10
        cy = _SVG_SIZE - ((p[1] - lo[1]) / span[1] * (_SVG_SIZE - 20) + 10)
        out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="1.5" fill="#1f4e79"/>\n')
    out.append("</svg>\n")
    return "".join(out)


def svg_grid(grid: oper.GridFunction):
    """Heatmap (2-D) or curve (1-D) of a grid function."""
    vals = grid.values
    if vals.ndim > 2:
        raise ConfigError(f"only 1-D and 2-D grids are plotted, not {vals.ndim}-D")
    finite = vals[np.isfinite(vals)]
    vmin = float(finite.min()) if finite.size else 0.0
    vmax = float(finite.max()) if finite.size else 1.0
    spanv = vmax - vmin if vmax > vmin else 1.0
    out = [_svg_header()]
    if vals.ndim == 1:
        xs = np.linspace(10, _SVG_SIZE - 10, len(vals))
        pts = []
        for x, v in zip(xs, vals):
            if not np.isfinite(v):
                continue
            y = _SVG_SIZE - 10 - (v - vmin) / spanv * (_SVG_SIZE - 20)
            pts.append(f"{x:.2f},{y:.2f}")
        out.append(
            f'<polyline fill="none" stroke="#1f4e79" stroke-width="1.5" '
            f'points="{" ".join(pts)}"/>\n'
        )
    else:
        ny, nx = vals.shape[0], vals.shape[1]
        cw, ch = (_SVG_SIZE - 20) / nx, (_SVG_SIZE - 20) / ny
        for i in range(ny):
            for j in range(nx):
                v = vals[i, j]
                if not np.isfinite(v):
                    fill = "#dddddd"
                else:
                    t = (v - vmin) / spanv
                    r = int(255 * t)
                    b = int(255 * (1 - t))
                    fill = f"#{r:02x}40{b:02x}"
                x = 10 + j * cw
                y = 10 + (ny - 1 - i) * ch
                out.append(
                    f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.5:.2f}" '
                    f'height="{ch + 0.5:.2f}" fill="{fill}"/>\n'
                )
    out.append("</svg>\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Commands


def cmd_info(args):
    ws = _workspace(args)
    _write(args.out, ws.summary() + "\n")
    return 0


def cmd_leaf(args):
    ws = _workspace(args)
    F = ws.get("foliations", args.foliation)
    x0 = _parse_vector(args.point, F.dim, "--point")
    if not _in_box(x0, F.chart_box)[0]:
        raise ConfigError("point lies outside the chart box")
    mesh = _positive(_json(args.mesh, "--mesh"), "--mesh")
    seed = _parse_count(args.seed, "--seed")
    leaf = leaf_sample(F, x0, budget=_parse_count(args.budget, "--budget"),
                       cfg=ws.flow_cfg, mesh=mesh, seed=seed)
    lines = [
        f"# foliation={args.foliation};basepoint=["
        + ",".join(oper._fmt(v) for v in x0)
        + f"];seed={seed};mesh={oper._fmt(leaf.mesh)};leaf_dim={leaf.leaf_dim}"
        + f";escapes={leaf.escapes}"
    ]
    for p in leaf.points:
        lines.append(",".join(oper._fmt(v) for v in p))
    _write(args.out, "\n".join(lines) + "\n")
    if args.svg:
        _write(args.svg, svg_leaf(leaf.points, F.chart_box))
    return 0


def cmd_flow(args):
    ws = _workspace(args)
    F = ws.get("foliations", args.foliation)
    # A NaN --xi is not JSON (exit 2); a flow that escapes exits 3.
    xi = _parse_vector(args.xi, F.num_generators, "--xi")
    x = _parse_vector(args.point, F.dim, "--point")
    result = {"point": [float(v) for v in _flow.exp_flow(F, xi, x, ws.flow_cfg)]}
    if args.jacobian:
        J = _flow.flow_jacobian(F, xi, x, ws.flow_cfg)
        result["jacobian"] = [[float(v) for v in row] for row in J]
    _write(args.out, json.dumps(result, sort_keys=True) + "\n")
    return 0


def _apply_and_emit(ws, kernel, fname, args):
    f = ws.get("functions", fname)
    box = _parse_box(args.box, kernel.foliation.dim)
    res = tuple(_parse_vector(args.res, len(box), "--res", integer=True))
    if min(res) < 2:
        raise ConfigError("--res must be at least 2 per axis")
    grid = oper.apply_op(kernel, f, box, res, ws.ctx(), strict=args.strict)
    masked = grid.masked_count()
    _write(args.out, grid.to_csv())
    if masked:
        print(f"masked points: {masked}", file=sys.stderr)
    if args.svg:
        _write(args.svg, svg_grid(grid))
    return 0


def cmd_apply(args):
    ws = _workspace(args)
    return _apply_and_emit(ws, ws.get("kernels", args.kernel), args.function, args)


def cmd_convolve_apply(args):
    ws = _workspace(args)
    names = [t.strip() for t in args.kernels.split(",") if t.strip()]
    if len(names) < 2:
        raise ConfigError("convolve-apply needs at least two kernel names")
    total = ws.get("kernels", names[0])
    for name in names[1:]:
        total = ker.convolve(total, ws.get("kernels", name), ws.ctx())
    return _apply_and_emit(ws, total, args.function, args)


def cmd_verify(args):
    overrides = load_config(args.config) if args.config else None
    names = args.suite
    if names != "all" and names not in SUITES:
        raise ConfigError(f"unknown suite {names!r}")
    report = run_suites(names, overrides=overrides)
    payload = report_to_json(report)
    _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    failed = [e for e in payload if e["status"] != "pass"]
    for e in payload:
        line = f"[{e['status'].upper():4s}] {e['suite']}: {e['check']}"
        print(line, file=sys.stderr)
    return EXIT_VERIFY_FAIL if failed else 0


def cmd_plot(args):
    grid = None
    try:
        with open(args.input) as fh:
            text = fh.read()
        if text.startswith("# box="):
            grid = oper.GridFunction.from_csv(text)
        else:
            pts = np.array([[float(t) for t in ln.split(",")]
                            for ln in text.splitlines()[1:] if ln.strip()])
            box = np.stack([pts.min(axis=0) - 0.1, pts.max(axis=0) + 0.1], axis=1)
    except (OSError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot plot --input {args.input}: {exc}") from exc
    _write(args.svg, svg_leaf(pts, box) if grid is None else svg_grid(grid))
    return 0


def _add_io(p):
    p.add_argument("--config", default=None, help="workspace JSON")
    p.add_argument("--out", default="-", help="output path (default stdout)")


def _add_ode(p):
    """Flow settings, for the commands that flow."""
    _add_io(p)
    p.add_argument("--ode-tol", type=float, default=None)
    p.add_argument("--ode-max-steps", type=int, default=None,
                   help="step attempts allowed per flow trajectory")


def _add_pairing(p):
    """Settings and grid, for the commands that apply a kernel on a grid."""
    _add_ode(p)
    p.add_argument("--quad-order", type=int, default=None)
    p.add_argument("--strict", action="store_true",
                   help="fail hard on escaped points instead of masking")
    p.add_argument("--function", required=True)
    p.add_argument("--box", required=True, help="JSON box, e.g. [[-2,2],[-2,2]]")
    p.add_argument("--res", required=True, help="per-axis resolution, e.g. 33,33")
    p.add_argument("--svg", default=None)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="foliops",
        description="Fibred-kernel calculus along singular foliations",
    )
    # A command without a flow or quadrature flag keeps the config's setting.
    ap.set_defaults(ode_tol=None, ode_max_steps=None, quad_order=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="list workspace objects")
    _add_io(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("leaf", help="sample one leaf and emit CSV")
    _add_ode(p)
    p.add_argument("--seed", default="0")
    p.add_argument("--foliation", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--budget", default="400")
    p.add_argument("--mesh", default="1e-3")
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=cmd_leaf)

    p = sub.add_parser("flow", help="unit-time flow of one point")
    _add_ode(p)
    p.add_argument("--foliation", required=True)
    p.add_argument("--xi", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--jacobian", action="store_true")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("apply", help="apply a kernel to a function on a grid")
    _add_pairing(p)
    p.add_argument("--kernel", required=True)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("convolve-apply",
                       help="convolve named kernels left to right, then apply")
    _add_pairing(p)
    p.add_argument("--kernels", required=True, help="comma-separated names")
    p.set_defaults(fn=cmd_convolve_apply)

    # The suites take their flow and quadrature settings from the config
    # alone, so verify has no numerical flags.
    p = sub.add_parser("verify", help="run verification suites")
    _add_io(p)
    p.add_argument("--suite", default="all")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("plot", help="render a CSV output as SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--svg", required=True)
    p.set_defaults(fn=cmd_plot)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FoliopsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)),
                    EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
