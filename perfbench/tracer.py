"""Outside-in span tracer for foliops.

The tracer wraps public entry points of each foliops module from the
outside, at the name its callers look up: a module-level function is
replaced in every loaded ``foliops`` module that holds it (so a caller
that did ``from .foliation import leaf_sweep`` sees the wrapper too),
class methods such as ``DensityAtom.pair`` or ``PathHolonomy.chart`` are
patched on the class, and the verification suites are patched in the
``SUITES`` table ``run_suites`` reads.  Nothing in ``src/`` changes.

Each wrapped call records a span (name, layer, start, end, parent) and
the counts the layer metrics need.  A layer's self time is its spans'
duration minus the time of their child spans; time spent in the
tracer's own counting is excluded from the parent span.  Calls nested
inside another expression call (a component of a vector field) are not
spans of their own.  Spans stay in memory until ``write``.

Wrappers only observe: they pass arguments and results through
unchanged, so traced outputs are bit-identical to untraced ones.
"""

from __future__ import annotations

import gzip
import hashlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child_s", "rows", "rhs")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.child_s = 0.0
        self.rows = 0
        self.rhs = 0  # generator-field rows evaluated directly inside a flow span

    @property
    def duration(self):
        return self.end - self.start

    def has_ancestor(self, layer):
        p = self.parent
        while p is not None:
            if p.layer == layer:
                return True
            p = p.parent
        return False


def _rows(x):
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.c = defaultdict(float)  # layer counters, summed over the run
        self._patches = []
        self._affine = {}  # id(foliation) -> (foliation, bool)
        self._seen_pairings = {}

    # -- span machinery ----------------------------------------------------
    def wrap(self, fn, name, layer, count=None, pre=None, nested=True):
        """Wrapper recording one span per call.

        ``count(span, args, kwargs, result, ok)`` runs after the call;
        ``pre(span, args, kwargs)`` returns the arguments to call with (used to
        count rows passing through callbacks); with ``nested=False`` a
        call made inside another span of the same layer is passed through.
        """
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if not nested and parent is not None and parent.layer == layer:
                return fn(*args, **kwargs)
            sp = Span(name, layer, parent)
            if pre is not None:
                args, kwargs = pre(sp, args, kwargs)
            stack.append(sp)
            result, ok = None, False
            sp.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                sp.end = perf_counter()
                stack.pop()
                spans.append(sp)
                if count is not None:
                    count(sp, args, kwargs, result, ok)
                if parent is not None:
                    parent.child_s += perf_counter() - sp.start

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def patch_function(self, module, attr, layer, **kw):
        """Replace ``module.attr`` wherever a foliops module holds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, f"{module.__name__.split('.')[-1]}.{attr}",
                            layer, **kw)
        for modname, mod in list(sys.modules.items()):
            if modname != "foliops" and not modname.startswith("foliops."):
                continue
            for name, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def patch_method(self, cls, attr, layer, **kw):
        original = cls.__dict__[attr]
        wrapper = self.wrap(original, f"{cls.__name__}.{attr}", layer, **kw)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def patch_table(self, table, key, name, layer, **kw):
        original = table[key]
        table[key] = self.wrap(original, name, layer, **kw)
        self._patches.append((table, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def new_iteration(self):
        """Repeated pairings are counted within one workload iteration."""
        self._seen_pairings.clear()

    # -- counters --------------------------------------------------------------
    def _is_affine(self, foliation):
        """All generator Jacobian entries fold to constants."""
        from foliops.expr import Const

        hit = self._affine.get(id(foliation))
        if hit is None:
            affine = all(
                isinstance(c.diff(j).node, Const)
                for g in foliation.generators
                for c in g.components
                for j in range(g.dim)
            )
            hit = self._affine[id(foliation)] = (foliation, affine)
        return hit[1]

    def _count_flow(self, kind):
        c = self

        def count(sp, args, kwargs, result, ok):
            foliation = args[0]
            n = _rows(_arg(args, kwargs, 2, "x"))
            sp.rows = n
            c.c[f"flow.rows_{kind}"] += n
            if c._is_affine(foliation):
                c.c["flow.affine_rows"] += n
            if not ok:
                escaped = n
            elif _arg(args, kwargs, 4, "allow_escape", False):
                escaped = int(np.sum(result[-1]))
            else:
                escaped = 0
            c.c["flow.escaped_rows"] += escaped
            c.c["flow.stages"] += sp.rhs / max(1, foliation.num_generators)
            if n <= 8:
                c.c["flow.small_calls"] += 1
                c.c["flow.small_call_s"] += sp.duration

        return count

    def _count_field(self, sp, args, kwargs, result, ok):
        n = _rows(args[1])
        sp.rows = n
        if sp.parent is not None and sp.parent.layer == "flow":
            sp.parent.rhs += n
            self.c["flow.rhs_rows"] += n

    def _count_expr(self, sp, args, kwargs, result, ok):
        sp.rows = _rows(args[1])

    def _count_leaf(self, sp, args, kwargs, result, ok):
        if ok:
            self.c["foliation.leaf_points"] += len(result.points)
            self.c["foliation.leaf_escapes"] += result.escapes

    def _count_bis(self, sp, args, kwargs, result, ok):
        # r/s/phi/phi_inv take rows first; chart and chart_jac_det take xi
        sp.rows = _rows(args[2] if sp.name.endswith(".chart") else args[1])

    def _pre_pair(self, sp, args, kwargs):
        c = self.c
        phi = _arg(args, kwargs, 3, "phi")

        def counted(params, rows):
            c["kernel.phi_rows"] += len(params)
            return phi(params, rows)

        if "phi" in kwargs:
            kwargs = {**kwargs, "phi": counted}
        else:
            args = args[:3] + (counted,) + args[4:]
        return args, kwargs

    def _count_pair(self, sp, args, kwargs, result, ok):
        atom, side, bases, ctx = args[0], args[1], args[2], _arg(args, kwargs, 4, "ctx")
        self.c["kernel.max_depth"] = max(self.c["kernel.max_depth"], ctx.depth)
        if not hasattr(atom, "xi_box"):  # Dirac atoms have no fibre quadrature
            return
        bases = np.atleast_2d(np.asarray(bases, float))
        n = len(bases) * atom.node_count(ctx)
        sp.rows = n
        self.c["kernel.quad_rows"] += n
        key = (id(atom), side, bases.shape,
               hashlib.blake2b(np.ascontiguousarray(bases)).digest())
        if key in self._seen_pairings:
            self.c["kernel.repeat_rows"] += n
        else:
            self._seen_pairings[key] = atom  # keeps the id from being reused

    def _count_adjoint(self, sp, args, kwargs, result, ok):
        """The adjoint's fibre quadrature runs inside op, not in atom pairings."""
        ctx = _arg(args, kwargs, 3, "ctx")
        if ok and ctx is not None:
            n = _rows(args[2])
            for atom in args[0].atoms:
                self.c["kernel.quad_rows"] += n * atom.node_count(ctx)
        self._count_op(sp, args, kwargs, result, ok)

    def _count_op(self, sp, args, kwargs, result, ok):
        if not ok or sp.has_ancestor("op"):
            return
        vals = np.asarray(getattr(result, "values", result), float)
        sp.rows = vals.size
        self.c["op.out_points"] += vals.size
        self.c["op.masked_points"] += int(np.sum(~np.isfinite(vals)))

    def _count_suite(self, sp, args, kwargs, result, ok):
        if ok:
            self.c["verify.checks"] += len(result)

    # -- installation ------------------------------------------------------------
    def install(self):
        from foliops import bisubmersion, expr, flow, foliation, kernel, op, verify

        for kind, names in (("fwd", ("exp_flow_batch",)),
                            ("back", ("back_flow_batch",)),
                            ("jac", ("flow_jacobian_batch",))):
            for name in names:
                self.patch_function(flow, name, "flow", count=self._count_flow(kind))
        for name in ("exp_flow", "back_flow", "flow_jacobian"):
            self.patch_function(flow, name, "flow")

        self.patch_method(expr.ScalarExpr, "__call__", "expr",
                          count=self._count_expr, nested=False)
        self.patch_method(expr.VectorFieldExpr, "__call__", "expr",
                          count=self._count_field, nested=False)
        self.patch_method(expr.VectorFieldExpr, "jacobian_at", "expr",
                          count=self._count_expr, nested=False)

        for name in ("leaf_sample", "leaf_sweep"):
            self.patch_function(foliation, name, "foliation", count=self._count_leaf)
        for name in ("involutivity_check", "leaf_dimension"):
            self.patch_function(foliation, name, "foliation")

        for cls in (bisubmersion.PathHolonomy, bisubmersion.InverseBisubmersion,
                    bisubmersion.Composition, bisubmersion.Restriction,
                    bisubmersion.TranslateRight, bisubmersion.TranslateLeft):
            for name in ("r", "s", "chart", "chart_jac_det"):
                if name in cls.__dict__:
                    self.patch_method(cls, name, "bisubmersion", count=self._count_bis)
        for name in ("phi", "phi_inv"):
            self.patch_method(bisubmersion.Bisection, name, "bisubmersion",
                              count=self._count_bis)
        self.patch_method(bisubmersion.Morphism, "map", "bisubmersion")
        self.patch_function(bisubmersion, "make_addition_morphism", "bisubmersion")

        for cls in (kernel.DensityAtom, kernel.DiracAtom):
            self.patch_method(cls, "pair", "kernel", pre=self._pre_pair,
                              count=self._count_pair)
        for cls in (kernel.ConvolvedAtom, kernel.PushedAtom, kernel.TransposedAtom):
            self.patch_method(cls, "pair", "kernel")
        for name in ("convolve", "pushforward", "r_to_s_convert"):
            self.patch_function(kernel, name, "kernel.build")
        for name in ("transpose", "support_of", "dirac", "density"):
            self.patch_function(kernel, name, "kernel")

        for name in ("apply_op", "op_values", "apply_on_leaf"):
            self.patch_function(op, name, "op", count=self._count_op)
        self.patch_function(op, "apply_adjoint", "op", count=self._count_op)
        self.patch_function(op, "adjoint_values", "op", count=self._count_adjoint)
        self.patch_function(op, "support_bound", "op")

        for name in list(verify.SUITES):
            self.patch_table(verify.SUITES, name, f"verify.{name}", "verify",
                             count=self._count_suite)
        self.patch_function(verify, "run_suites", "verify")
        return self

    # -- results -------------------------------------------------------------------
    def metrics(self, iterations, wall_s):
        """Per-iteration layer metrics over all recorded spans.

        ``wall_s`` is the traced body time summed over the iterations.
        """
        self_s = defaultdict(float)
        incl = defaultdict(float)  # outermost spans of a layer
        suite_s = defaultdict(float)
        top = 0.0
        for sp in self.spans:
            layer = "kernel" if sp.layer == "kernel.build" else sp.layer
            self_s[layer] += sp.duration - sp.child_s
            if sp.parent is None:
                top += sp.duration
            if sp.layer == "verify" and sp.name != "verify.run_suites":
                suite_s[sp.name[len("verify."):]] += sp.duration
            if not sp.has_ancestor(sp.layer):
                incl[sp.layer] += sp.duration
        c = self.c
        it = max(1, iterations)
        flow_rows = c["flow.rows_fwd"] + c["flow.rows_back"] + c["flow.rows_jac"]

        def ratio(a, b):
            return a / b if b else 0.0

        expr_points = sum(sp.rows for sp in self.spans if sp.layer == "expr")
        m = {
            "expr.points": (expr_points / it, "count"),
            "expr.self_s": (self_s["expr"] / it, "s"),
            "expr.points_per_s": (ratio(expr_points, incl["expr"]), "1/s"),
            "flow.rows_fwd": (c["flow.rows_fwd"] / it, "count"),
            "flow.rows_back": (c["flow.rows_back"] / it, "count"),
            "flow.rows_jac": (c["flow.rows_jac"] / it, "count"),
            "flow.rhs_rows": (c["flow.rhs_rows"] / it, "count"),
            "flow.stages_per_row": (ratio(c["flow.stages"], flow_rows), "count"),
            "flow.self_s": (self_s["flow"] / it, "s"),
            "flow.rhs_rows_per_s": (ratio(c["flow.rhs_rows"], incl["flow"]), "1/s"),
            "flow.escape_frac": (ratio(c["flow.escaped_rows"], flow_rows), "ratio"),
            "flow.small_call_us": (1e6 * ratio(c["flow.small_call_s"],
                                               c["flow.small_calls"]), "us"),
            "flow.affine_row_frac": (ratio(c["flow.affine_rows"], flow_rows), "ratio"),
            "foliation.leaf_points": (c["foliation.leaf_points"] / it, "count"),
            "foliation.leaf_escapes": (c["foliation.leaf_escapes"] / it, "count"),
            "foliation.self_s": (self_s["foliation"] / it, "s"),
            "bisubmersion.chart_rows": (ratio(sum(
                sp.rows for sp in self.spans if sp.layer == "bisubmersion"
                and not sp.has_ancestor("bisubmersion")), it), "count"),
            "bisubmersion.self_s": (self_s["bisubmersion"] / it, "s"),
            "kernel.quad_rows": (c["kernel.quad_rows"] / it, "count"),
            "kernel.phi_rows": (c["kernel.phi_rows"] / it, "count"),
            "kernel.max_depth": (float(c["kernel.max_depth"]), "count"),
            "kernel.self_s": (self_s["kernel"] / it, "s"),
            "kernel.quad_rows_per_s": (ratio(c["kernel.quad_rows"], incl["kernel"]),
                                       "1/s"),
            "kernel.build_s": (incl["kernel.build"] / it, "s"),
            "kernel.repeat_row_frac": (ratio(c["kernel.repeat_rows"],
                                             c["kernel.quad_rows"]), "ratio"),
            "op.out_points": (c["op.out_points"] / it, "count"),
            "op.masked_points": (c["op.masked_points"] / it, "count"),
            "op.self_s": (self_s["op"] / it, "s"),
            "verify.composition_s": (suite_s["composition"] / it, "s"),
            "verify.pushforward_s": (suite_s["pushforward"] / it, "s"),
            "verify.leaf_s": (suite_s["leaf"] / it, "s"),
            "verify.other_s": ((sum(suite_s.values()) - suite_s["composition"]
                                - suite_s["pushforward"] - suite_s["leaf"]) / it, "s"),
            "verify.checks": (c["verify.checks"] / it, "count"),
            "trace.top_span_frac": (ratio(top, wall_s), "ratio"),
        }
        return m

    def write(self, path):
        """Dump every span as tab-separated text, gzip-compressed."""
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tlayer\tname\tstart\tend\tchild_s\trows\n")
            for i, sp in enumerate(self.spans):
                parent = index.get(id(sp.parent), -1) if sp.parent else -1
                fh.write(f"{i}\t{parent}\t{sp.layer}\t{sp.name}\t{sp.start!r}\t"
                         f"{sp.end!r}\t{sp.child_s!r}\t{sp.rows}\n")
