"""Named-object registry loaded from one JSON config.

A workspace holds foliations, bisubmersion terms, bisections, kernels
and scalar functions, all addressable by name, plus the global flow and
quadrature configuration.  Cross-references are resolved eagerly with
cycle detection so that commands fail fast with a config error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import bisubmersion as bis
from . import kernel as ker
from .errors import ConfigError
from .expr import parse_scalar
from .flow import FlowConfig
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
        self.data = data
        self.ws = Workspace(
            flow_cfg=_flow_cfg(data.get("flow", {})),
            quad_cfg=_quad_cfg(data.get("quadrature", {})),
        )
        self._visiting = set()

    def run(self):
        for name, spec in self.data.get("foliations", {}).items():
            try:
                self.ws.foliations[name] = SingularFoliation.from_json(spec)
            except Exception as exc:
                raise ConfigError(f"foliation {name!r}: {exc}") from exc
        for name in self.data.get("bisubmersions", {}):
            self.bisubmersion(name)
        for name in self.data.get("bisections", {}):
            self.bisection(name)
        for name, spec in self.data.get("kernels", {}).items():
            self.ws.kernels[name] = self.kernel(name, spec)
        for name, spec in self.data.get("functions", {}).items():
            self.ws.functions[name] = self.function(name, spec)
        return self.ws

    def _enter(self, kind, name):
        key = (kind, name)
        if key in self._visiting:
            raise ConfigError(f"cyclic reference through {kind} {name!r}")
        self._visiting.add(key)
        return key

    def foliation(self, name):
        if name not in self.ws.foliations:
            raise ConfigError(f"unknown foliation {name!r}")
        return self.ws.foliations[name]

    def bisubmersion(self, name):
        if name in self.ws.bisubmersions:
            return self.ws.bisubmersions[name]
        specs = self.data.get("bisubmersions", {})
        if name not in specs:
            raise ConfigError(f"unknown bisubmersion {name!r}")
        key = self._enter("bisubmersion", name)
        spec = specs[name]
        kind = spec.get("type")
        try:
            if kind == "path_holonomy":
                out = bis.make_path_holonomy(self.foliation(spec["foliation"]))
            elif kind == "compose":
                out = bis.compose(self.bisubmersion(spec["left"]),
                                  self.bisubmersion(spec["right"]))
            elif kind == "inverse":
                out = bis.invert(self.bisubmersion(spec["inner"]))
            elif kind == "restriction":
                out = bis.restrict(self.bisubmersion(spec["inner"]),
                                   np.asarray(spec["param_box"], float))
            elif kind == "translate":
                out = bis.translate(self.bisubmersion(spec["inner"]),
                                    self.bisection(spec["bisection"]),
                                    spec.get("side", "right"),
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
        specs = self.data.get("bisections", {})
        if name not in specs:
            raise ConfigError(f"unknown bisection {name!r}")
        key = self._enter("bisection", name)
        spec = specs[name]
        try:
            host = self.bisubmersion(spec["host"])
            out = bis.constant_bisection(
                host, np.asarray(spec["xi"], float),
                base_box=spec.get("base_box"), label=name,
            )
        except KeyError as exc:
            raise ConfigError(f"bisection {name!r}: missing field {exc}") from exc
        finally:
            self._visiting.discard(key)
        self.ws.bisections[name] = out
        return out

    def kernel(self, name, spec):
        side = spec.get("side", "r")
        total = None
        for aspec in spec.get("atoms", []):
            kind = aspec.get("type")
            try:
                if kind == "dirac":
                    S = self.bisection(aspec["bisection"])
                    c = parse_scalar(aspec["coeff"], S.host.base_dim)
                    piece = ker.dirac(
                        S, c, side=side,
                        coeff_box=aspec.get("coeff_box"),
                        ctx=self.ws.ctx(),
                    )
                elif kind == "density":
                    host = self.bisubmersion(aspec["host"])
                    expr = parse_scalar(aspec["expr"], host.param_len)
                    piece = ker.density(
                        host, expr,
                        xi_box=aspec.get("xi_box"),
                        base_box=aspec.get("base_box"),
                        side=side,
                        quad_order=aspec.get("quad_order"),
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
        try:
            if "dim" in spec:
                dim = int(spec["dim"])
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
        support = spec.get("support")
        if support is None:
            return expr
        box = np.asarray(support, float)

        def masked(pts):
            p = np.atleast_2d(pts)
            inside = np.all((p >= box[:, 0]) & (p <= box[:, 1]), axis=1)
            return np.where(inside, expr(p, check_finite=False), 0.0)

        return masked


def _flow_cfg(spec):
    return FlowConfig(
        abs_tol=float(spec.get("abs_tol", 1e-10)),
        rel_tol=float(spec.get("rel_tol", 1e-10)),
        max_steps=int(spec.get("max_steps", 10_000)),
    )


def _quad_cfg(spec):
    return QuadratureConfig(
        order=int(spec.get("order", 32)),
        order_highdim=int(spec.get("order_highdim", 12)),
        nesting_limit=int(spec.get("nesting_limit", 6)),
    )


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
