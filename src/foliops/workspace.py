"""Named-object registry loaded from one JSON config.

A workspace holds foliations, bisubmersion terms, bisections, kernels
and scalar functions, all addressable by name, plus the global flow and
quadrature configuration.  Cross-references are resolved eagerly with
cycle detection so that commands fail fast with a config error.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from . import bisubmersion as bis
from . import kernel as ker
from .errors import ConfigError
from .expr import parse_scalar
from .flow import FlowConfig, _checked_box, _in_box
from .foliation import SingularFoliation
from .kernel import QuadratureConfig

__all__ = ["Workspace", "load_config"]


@dataclass
class Workspace:
    foliations: dict = field(default_factory=dict)
    bisubmersions: dict = field(default_factory=dict)
    bisections: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    flow_cfg: FlowConfig = None
    quad_cfg: QuadratureConfig = None
    # One plan store for every context this workspace hands out, so that
    # repeated pairings of one kernel on one point set share their plan.
    plans: ker.PlanStore = field(default_factory=ker.PlanStore, init=False,
                                 repr=False, compare=False)

    def __post_init__(self):
        if self.flow_cfg is None:
            self.flow_cfg = FlowConfig()
        if self.quad_cfg is None:
            self.quad_cfg = QuadratureConfig()

    def ctx(self, diag=None):
        return ker.PairingCtx(self.quad_cfg, self.flow_cfg, 0, diag, self.plans)

    def get(self, registry, name):
        table = getattr(self, registry)
        if name not in table:
            raise ConfigError(f"unknown {registry[:-1]} {name!r}")
        return table[name]

    def merged_with(self, other):
        """Objects in ``other`` shadow same-named canonical ones."""
        if other is None:
            return self
        return Workspace(
            foliations={**self.foliations, **other.foliations},
            bisubmersions={**self.bisubmersions, **other.bisubmersions},
            bisections={**self.bisections, **other.bisections},
            kernels={**self.kernels, **other.kernels},
            functions={**self.functions, **other.functions},
            flow_cfg=other.flow_cfg or self.flow_cfg,
            quad_cfg=other.quad_cfg or self.quad_cfg,
        )

    def summary(self):
        lines = []
        for reg in ("foliations", "bisubmersions", "bisections", "kernels",
                    "functions"):
            table = getattr(self, reg)
            names = ", ".join(sorted(table)) or "(none)"
            lines.append(f"{reg}: {names}")
        return "\n".join(lines)


class _Resolver:
    def __init__(self, data):
        self.data = _object(data, "config")
        self.ws = Workspace(
            flow_cfg=_settings(FlowConfig(), data.get("flow", {}), "flow"),
            quad_cfg=_settings(QuadratureConfig(), data.get("quadrature", {}),
                               "quadrature"),
        )
        self._visiting = set()

    def run(self):
        for name, spec in self.section("foliations").items():
            try:
                self.ws.foliations[name] = SingularFoliation.from_json(spec)
            except Exception as exc:
                raise ConfigError(f"foliation {name!r}: {exc}") from exc
        for name in self.section("bisubmersions"):
            self.bisubmersion(name)
        for name in self.section("bisections"):
            self.bisection(name)
        for name, spec in self.section("kernels").items():
            self.ws.kernels[name] = self.kernel(name, spec)
        for name, spec in self.section("functions").items():
            self.ws.functions[name] = self.function(name, spec)
        return self.ws

    def section(self, key):
        return _object(self.data.get(key, {}), f"config {key!r}")

    def _enter(self, kind, name):
        key = (kind, name)
        if key in self._visiting:
            raise ConfigError(f"cyclic reference through {kind} {name!r}")
        self._visiting.add(key)
        return key

    def bisubmersion(self, name):
        if name in self.ws.bisubmersions:
            return self.ws.bisubmersions[name]
        specs = self.section("bisubmersions")
        if name not in specs:
            raise ConfigError(f"unknown bisubmersion {name!r}")
        spec = _object(specs[name], f"bisubmersion {name!r}")
        key = self._enter("bisubmersion", name)
        kind = spec.get("type")
        try:
            if kind == "path_holonomy":
                out = bis.make_path_holonomy(
                    self.ws.get("foliations", spec["foliation"]))
            elif kind == "compose":
                out = bis.compose(self.bisubmersion(spec["left"]),
                                  self.bisubmersion(spec["right"]))
            elif kind == "inverse":
                out = bis.invert(self.bisubmersion(spec["inner"]))
            elif kind == "restriction":
                inner = self.bisubmersion(spec["inner"])
                out = bis.restrict(inner, _checked_box(
                    spec["param_box"], inner.param_len, f"{name!r} param_box"))
            elif kind == "translate":
                side = spec.get("side", "right")
                if side not in ("left", "right"):
                    raise ConfigError(f"bisubmersion {name!r}: side must be "
                                      f"'left' or 'right', got {side!r}")
                out = bis.translate(self.bisubmersion(spec["inner"]),
                                    self.bisection(spec["bisection"]), side,
                                    cfg=self.ws.flow_cfg)
            else:
                raise ConfigError(f"unknown bisubmersion type {kind!r}")
        except KeyError as exc:
            raise ConfigError(f"bisubmersion {name!r}: missing field {exc}") from exc
        finally:
            self._visiting.discard(key)
        self.ws.bisubmersions[name] = out
        return out

    def bisection(self, name):
        if name in self.ws.bisections:
            return self.ws.bisections[name]
        specs = self.section("bisections")
        if name not in specs:
            raise ConfigError(f"unknown bisection {name!r}")
        spec = _object(specs[name], f"bisection {name!r}")
        key = self._enter("bisection", name)
        try:
            host = self.bisubmersion(spec["host"])
            try:
                xi = np.asarray(spec["xi"], float)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bisection {name!r}: xi {spec['xi']!r} is not "
                                  "a list of numbers") from exc
            out = bis.constant_bisection(
                host, xi,
                base_box=_box(spec, "base_box", host.base_dim, name), label=name,
            )
        except KeyError as exc:
            raise ConfigError(f"bisection {name!r}: missing field {exc}") from exc
        finally:
            self._visiting.discard(key)
        self.ws.bisections[name] = out
        return out

    def kernel(self, name, spec):
        spec = _object(spec, f"kernel {name!r}")
        side = spec.get("side", "r")
        atoms = spec.get("atoms", [])
        if not isinstance(atoms, list):
            raise ConfigError(f"kernel {name!r}: atoms must be a list, got "
                              f"{type(atoms).__name__}")
        total = None
        for aspec in atoms:
            kind = _object(aspec, f"kernel {name!r} atom").get("type")
            try:
                if kind == "dirac":
                    S = self.bisection(aspec["bisection"])
                    c = parse_scalar(aspec["coeff"], S.host.base_dim)
                    piece = ker.dirac(
                        S, c, side=side,
                        coeff_box=_box(aspec, "coeff_box", S.host.base_dim, name),
                        ctx=self.ws.ctx(),
                    )
                elif kind == "density":
                    host = self.bisubmersion(aspec["host"])
                    expr = parse_scalar(aspec["expr"], host.param_len)
                    order = aspec.get("quad_order")
                    if order is not None:  # checked as QuadratureConfig.order
                        order = _settings(QuadratureConfig(), {"order": order},
                                          f"kernel {name!r} density").order
                    piece = ker.density(
                        host, expr,
                        xi_box=_box(aspec, "xi_box", host.fibre_dim, name),
                        base_box=_box(aspec, "base_box", host.base_dim, name),
                        side=side,
                        quad_order=order,
                    )
                else:
                    raise ConfigError(f"unknown atom type {kind!r}")
            except KeyError as exc:
                raise ConfigError(f"kernel {name!r}: missing field {exc}") from exc
            total = piece if total is None else total + piece
        if total is None:
            raise ConfigError(f"kernel {name!r} has no atoms")
        return total

    def function(self, name, spec):
        if isinstance(spec, str):
            spec = {"expr": spec}
        spec = _object(spec, f"function {name!r}")
        try:
            if "dim" in spec:
                try:
                    dim = int(spec["dim"])
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(f"function {name!r}: dim {spec['dim']!r} "
                                      "is not an integer") from exc
            else:
                dims = {f.dim for f in self.ws.foliations.values()}
                if len(dims) != 1:
                    raise ConfigError(
                        f"function {name!r} needs an explicit dim"
                    )
                dim = dims.pop()
            expr = parse_scalar(spec["expr"], dim)
        except KeyError as exc:
            raise ConfigError(f"function {name!r}: missing field {exc}") from exc
        box = _box(spec, "support", dim, name)
        if box is None:
            return expr

        def masked(pts):
            p = np.atleast_2d(pts)
            return np.where(_in_box(p, box), expr(p, check_finite=False), 0.0)

        return masked


def _object(value, what):
    """``value`` if it is a JSON object, else ConfigError naming ``what``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _box(spec, key, dim, owner):
    """The box ``spec[key]`` of ``owner``, checked; None when it is absent."""
    value = spec.get(key)
    return None if value is None else _checked_box(value, dim, f"{owner!r} {key}")


def _settings(base, spec, what):
    """``base`` with the fields that ``spec`` names replaced, each value cast
    to the type of its field's default; ConfigError on an unknown field, a
    value that is not a number or a count that is not an integer."""
    kinds = {f.name: type(f.default) for f in dataclasses.fields(base)}
    values = {}
    for name, raw in _object(spec, f"{what} settings").items():
        if name not in kinds:
            raise ConfigError(f"unknown {what} setting {name!r}")
        try:
            values[name] = kinds[name](raw)
            exact = kinds[name] is float or values[name] == float(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{what} {name} {raw!r} is not a number") from exc
        if not exact:
            raise ConfigError(f"{what} {name} must be an integer, got {raw!r}")
    return dataclasses.replace(base, **values)


def load_config(path_or_dict) -> Workspace:
    """Build a workspace from a JSON file path or an already-parsed dict."""
    if isinstance(path_or_dict, dict):
        data = path_or_dict
    else:
        try:
            with open(path_or_dict) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON config: {exc}") from exc
    return _Resolver(data).run()
