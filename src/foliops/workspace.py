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
from .errors import ConfigError, FoliopsError, ParseError
from .expr import parse_scalar
from .flow import DEFAULT_FLOW, FlowConfig, _checked_box, _in_box, _number, _numbers
from .foliation import SingularFoliation
from .kernel import DEFAULT_QUAD, QuadratureConfig

__all__ = ["Workspace", "load_config"]

# The named-object registries, each after those its objects may reference.
_REGISTRIES = ("foliations", "bisubmersions", "bisections", "kernels",
               "functions")


@dataclass
class Workspace:
    foliations: dict = field(default_factory=dict)
    bisubmersions: dict = field(default_factory=dict)
    bisections: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    flow_cfg: FlowConfig = DEFAULT_FLOW
    quad_cfg: QuadratureConfig = DEFAULT_QUAD
    # One plan store for every context this workspace hands out, so that
    # repeated pairings of one kernel on one point set share their plan.
    plans: ker.PlanStore = field(default_factory=ker.PlanStore, init=False,
                                 repr=False, compare=False)

    def ctx(self):
        return ker.PairingCtx(self.quad_cfg, self.flow_cfg, 0, self.plans)

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
            **{reg: {**getattr(self, reg), **getattr(other, reg)}
               for reg in _REGISTRIES},
            flow_cfg=other.flow_cfg,
            quad_cfg=other.quad_cfg,
        )

    def summary(self):
        lines = []
        for reg in _REGISTRIES:
            table = getattr(self, reg)
            names = ", ".join(sorted(table)) or "(none)"
            lines.append(f"{reg}: {names}")
        return "\n".join(lines)


class _Resolver:
    def __init__(self, data):
        self.data = _object(data, "config")
        self.ws = Workspace(
            flow_cfg=_settings(DEFAULT_FLOW, data.get("flow", {}), "flow"),
            quad_cfg=_settings(DEFAULT_QUAD, data.get("quadrature", {}),
                               "quadrature"),
        )
        self._visiting = set()

    def run(self):
        # Foliations first, so that a function's default dim sees them all.
        for reg in _REGISTRIES:
            for name in self.section(reg):
                self.named(reg[:-1], name)
        return self.ws

    def section(self, key):
        return _object(self.data.get(key, {}), f"config {key!r}")

    def named(self, kind, name):
        """The ``kind`` object ``name`` of the config, built once by the
        method named ``kind``; every cross-reference resolves through here,
        so each lookup, shape check and cycle guard is this one."""
        specs = self.section(kind + "s")
        if not isinstance(name, str) or name not in specs:
            raise ConfigError(f"unknown {kind} {name!r}")
        table = getattr(self.ws, kind + "s")
        if name in table:
            return table[name]
        spec = specs[name]
        if kind == "function" and isinstance(spec, str):
            spec = {"expr": spec}
        spec = _object(spec, f"{kind} {name!r}")
        if (kind, name) in self._visiting:
            raise ConfigError(f"cyclic reference through {kind} {name!r}")
        self._visiting.add((kind, name))
        try:
            table[name] = getattr(self, kind)(name, spec)
        except KeyError as exc:
            raise ConfigError(f"{kind} {name!r}: missing field {exc}") from exc
        except ParseError as exc:
            raise ParseError(f"{kind} {name!r}: {exc}") from exc
        finally:
            self._visiting.discard((kind, name))
        return table[name]

    def foliation(self, name, spec):
        try:
            return SingularFoliation.from_json(spec)
        except (FoliopsError, TypeError, ValueError) as exc:
            raise ConfigError(f"foliation {name!r}: {exc}") from exc

    def bisubmersion(self, name, spec):
        kind = spec.get("type")
        if kind == "path_holonomy":
            return bis.make_path_holonomy(self.named("foliation", spec["foliation"]))
        if kind == "compose":
            return bis.compose(self.named("bisubmersion", spec["left"]),
                               self.named("bisubmersion", spec["right"]))
        if kind == "inverse":
            return bis.invert(self.named("bisubmersion", spec["inner"]))
        if kind == "restriction":
            inner = self.named("bisubmersion", spec["inner"])
            return bis.restrict(inner, _checked_box(
                spec["param_box"], inner.param_len, f"{name!r} param_box"))
        if kind == "translate":
            side = spec.get("side", "right")
            if side not in ("left", "right"):
                raise ConfigError(f"bisubmersion {name!r}: side must be "
                                  f"'left' or 'right', got {side!r}")
            return bis.translate(self.named("bisubmersion", spec["inner"]),
                                 self.named("bisection", spec["bisection"]), side,
                                 cfg=self.ws.flow_cfg)
        raise ConfigError(f"unknown bisubmersion type {kind!r}")

    def bisection(self, name, spec):
        host = self.named("bisubmersion", spec["host"])
        xi = _numbers(spec["xi"], f"bisection {name!r} xi")
        return bis.constant_bisection(
            host, xi, base_box=_box(spec, "base_box", host.base_dim, name),
            label=name)

    def kernel(self, name, spec):
        side = spec.get("side", "r")
        atoms = spec.get("atoms", [])
        if not isinstance(atoms, list):
            raise ConfigError(f"kernel {name!r}: atoms must be a list, got "
                              f"{type(atoms).__name__}")
        total = None
        for aspec in atoms:
            piece = self.atom(name, _object(aspec, f"kernel {name!r} atom"), side)
            total = piece if total is None else total + piece
        if total is None:
            raise ConfigError(f"kernel {name!r} has no atoms")
        return total

    def atom(self, name, spec, side):
        kind = spec.get("type")
        if kind == "dirac":
            S = self.named("bisection", spec["bisection"])
            return ker.dirac(
                S, parse_scalar(spec["coeff"], S.host.base_dim), side=side,
                coeff_box=_box(spec, "coeff_box", S.host.base_dim, name),
                ctx=self.ws.ctx(),
            )
        if kind == "density":
            host = self.named("bisubmersion", spec["host"])
            order = spec.get("quad_order")
            if order is not None:  # checked as QuadratureConfig.order
                order = _settings(DEFAULT_QUAD, {"order": order},
                                  f"kernel {name!r} density").order
            return ker.density(
                host, parse_scalar(spec["expr"], host.param_len),
                xi_box=_box(spec, "xi_box", host.fibre_dim, name),
                base_box=_box(spec, "base_box", host.base_dim, name),
                side=side, quad_order=order,
            )
        raise ConfigError(f"unknown atom type {kind!r}")

    def function(self, name, spec):
        if "dim" in spec:
            dim = _number(spec["dim"], f"function {name!r} dim", integer=True)
        else:
            dims = {f.dim for f in self.ws.foliations.values()}
            if len(dims) != 1:
                raise ConfigError(f"function {name!r} needs an explicit dim")
            dim = dims.pop()
        expr = parse_scalar(spec["expr"], dim)
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
    """``base`` with the fields that ``spec`` names replaced, each value
    read by the number rule, integral when its field's default is an int;
    ConfigError on an unknown field or a value the rule rejects."""
    kinds = {f.name: type(f.default) for f in dataclasses.fields(base)}
    values = {}
    for name, raw in _object(spec, f"{what} settings").items():
        if name not in kinds:
            raise ConfigError(f"unknown {what} setting {name!r}")
        values[name] = _number(raw, f"{what} {name}", integer=kinds[name] is int)
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
