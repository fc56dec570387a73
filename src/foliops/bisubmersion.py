"""Bisubmersion terms: evaluable range/source maps and fibre charts.

A bisubmersion is kept as a lazy term (path-holonomy, inverse,
composition, restriction, translate); only its fibres are ever
discretized.  Parameters are flat float vectors.  For a path-holonomy
term over m generators on an n-dimensional chart, a parameter is
``(xi_1..xi_m, y_1..y_n)`` with source ``y`` and range the unit-time
flow of ``y`` along ``sum xi_i X_i``.

The canonical fibre charts are the load-bearing piece: the source fibre
over ``x`` is ``xi -> (xi, x)`` and the range fibre is
``xi -> (xi, back_flow(xi, x))``, which works because the time-1 flow of
a fixed field is inverted by the reversed flow.  Composite, inverse and
translated fibres are assembled from these recursively.
"""

from __future__ import annotations

import numpy as np

from . import flow as _flow
from .errors import (
    BaseMismatch,
    BracketNotZero,
    DimensionMismatch,
    DomainEscape,
    EmptyTranslate,
    NotABisection,
    NotTransverse,
)
from .expr import lie_bracket
from .flow import _checked_box, _in_box, _uniform

__all__ = [
    "Bisubmersion",
    "PathHolonomy",
    "InverseBisubmersion",
    "Composition",
    "Restriction",
    "TranslateRight",
    "TranslateLeft",
    "Bisection",
    "Morphism",
    "AdditionMorphism",
    "FibreChart",
    "make_path_holonomy",
    "compose",
    "invert",
    "restrict",
    "translate",
    "fibre_param",
    "bisection_diffeo",
    "constant_bisection",
    "general_bisection",
    "compose_bisections",
    "transpose_bisection",
    "identity_bisection",
    "make_addition_morphism",
]

_OTHER = {"r": "s", "s": "r"}

# Sampled checks and their tolerances; sampling is seeded with 0 unless noted.
_BASE_TOL = 1e-9  # slack of Bisection.in_base on the base box
_NEWTON_TOL = 1e-11  # residual at which general_bisection's inverse stops
_DIFFEO_SAMPLES = 64  # base points bisection_diffeo validates
_TRANSLATE_PROBE = 64  # parameters translate() probes for an empty domain
_IMAGE_SAMPLES = 256  # uniform draws of _sampled_image_box (seed 12345)
_MORPHISM_SAMPLES = 32  # parameters of the Morphism compatibility check
_MORPHISM_TOL = 1e-6  # plus ten flow tolerances: both sides are flows
_BRACKET_SAMPLES = 64  # base points of make_addition_morphism's bracket check
_BRACKET_TOL = 1e-9


def _checked(values, ok, allow_escape, what):
    """``(values, ok)`` with allow_escape; otherwise ``values``, raising
    DomainEscape if any row escaped."""
    if allow_escape:
        return values, ok
    if not np.all(ok):
        raise DomainEscape(f"{what}: {int(np.sum(~ok))} parameter rows escaped")
    return values


class Bisubmersion:
    """Base class; subclasses fill in maps, charts and bookkeeping."""

    foliation = None
    param_len = 0
    dim = 0  # manifold dimension of the term
    # Parameters split as (fibre coords, base point) with s the base point,
    # so that chart_jac_det is defined.
    fibred_layout = False

    @property
    def base_dim(self):
        return self.foliation.dim

    @property
    def fibre_dim(self):
        return self.dim - self.base_dim

    # --- maps -----------------------------------------------------------
    # Each map returns ``(values, ok)`` with allow_escape and otherwise the
    # values, raising DomainEscape if any row escaped.  A term supplies the
    # hooks ``_map(side, params, cfg)`` and ``_chart(side, xi, bases, cfg)``,
    # which return ``(values, ok)``; ``_chart`` takes the batch of ``chart``.
    def r(self, params, cfg=None, allow_escape=False):
        return _checked(*self._map("r", params, cfg), allow_escape, "range map")

    def s(self, params, cfg=None, allow_escape=False):
        return _checked(*self._map("s", params, cfg), allow_escape, "source map")

    def chart(self, side, xi, bases, cfg=None, allow_escape=False):
        """Parameter rows of the ``side`` fibre over ``bases`` at fibre
        coordinates ``xi``.  The leading axes of ``xi`` (..., fibre_dim) and
        ``bases`` (..., n) broadcast, as in the flows, and the rows are the
        broadcast flattened in C order, each with the bits it has alone:
        K rows are (K, fibre_dim) against (K, n), and Q nodes (Q, fibre_dim)
        against N bases (N, 1, n) are the N x Q rows (base, node)."""
        xi = np.atleast_2d(np.asarray(xi, float))
        bases = np.atleast_2d(np.asarray(bases, float))
        return _checked(*self._chart(side, xi, bases, cfg), allow_escape,
                        f"{side}-fibre chart of {type(self).__name__}")

    def chart_base(self, side):
        """What the base columns of an ok row of the ``side`` chart are
        known to be: "given", the base point the row was charted over;
        "flowed", the end of a flow, which is ok only inside the
        foliation's escape box (every flow backend tests the end); or None
        where nothing is known."""
        return None

    def xi_box(self):
        raise NotImplementedError

    def param_box(self):
        raise NotImplementedError

    def contains(self, params, cfg, tol=1e-7):
        """Sampled membership mask (fibred-product constraints)."""
        return _in_box(params, self.param_box(), tol)

    def chart_jac_det(self, xi, under, cfg):
        """(range points, |det|, ok) of the range map at (xi, under) and of
        its base derivative, both from one flow, ``ok`` False on escaped
        rows; defined where the term supports r<->s density conversion."""
        raise NotTransverse(f"{self.describe()} has no canonical chart Jacobian")

    # --- bookkeeping ----------------------------------------------------
    def key(self):
        raise NotImplementedError

    def same_term(self, other):
        return isinstance(other, Bisubmersion) and self.key() == other.key()

    def describe(self):
        raise NotImplementedError

    def sample_params(self, count, rng, cfg):
        """Valid parameter rows drawn via source-fibre charts."""
        bases = self.foliation.sample_points(count, rng)
        xi = _uniform(self.xi_box(), rng, count)
        params, ok = self.chart("s", xi, bases, cfg, allow_escape=True)
        return params[ok]

    def __repr__(self):
        return self.describe()


class PathHolonomy(Bisubmersion):
    """U in R^m x M0 with s(xi, x) = x and r(xi, x) the unit-time flow."""

    fibred_layout = True

    def __init__(self, foliation):
        self.foliation = foliation
        self.param_len = foliation.num_generators + foliation.dim
        self.dim = self.param_len

    def _split(self, params):
        m = self.foliation.num_generators
        p = np.atleast_2d(np.asarray(params, float))
        return p[:, :m], p[:, m:]

    def r(self, params, cfg=None, allow_escape=False):
        xi, under = self._split(params)
        pts, escaped = _flow.exp_flow_batch(
            self.foliation, xi, under, cfg, allow_escape=True
        )
        return _checked(pts, ~escaped, allow_escape, "range map")

    def s(self, params, cfg=None, allow_escape=False):
        # A view of the base columns: a plan keeps no copy of them.
        _, under = self._split(params)
        if allow_escape:
            return under, np.ones(len(under), dtype=bool)
        return under

    def chart(self, side, xi, bases, cfg=None, allow_escape=False):
        # Rows or a product (Bisubmersion.chart): either is one back flow
        # call, and the rows are written into one array column by column
        # (numpy copies a short trailing axis slowly).
        xi = np.atleast_2d(np.asarray(xi, float))
        bases = np.atleast_2d(np.asarray(bases, float))
        shape = np.broadcast_shapes(xi.shape[:-1], bases.shape[:-1])
        if side == "s":
            under, ok = bases, np.ones(shape, dtype=bool)
        else:
            under, escaped = _flow.back_flow_batch(
                self.foliation, xi, bases, cfg, allow_escape=True
            )
            ok = ~escaped
        cols = [*np.moveaxis(xi, -1, 0), *np.moveaxis(under, -1, 0)]
        params = np.empty(shape + (len(cols),))
        for j, col in enumerate(cols):
            params[..., j] = col
        return _checked(params.reshape(-1, len(cols)), ok.reshape(-1), allow_escape,
                        f"{side}-fibre chart")

    def chart_jac_det(self, xi, under, cfg):
        pts, J, escaped = _flow.flow_jacobian_batch(
            self.foliation, xi, under, cfg, allow_escape=True
        )
        return pts, np.abs(np.linalg.det(J)), ~escaped

    def chart_base(self, side):
        return "given" if side == "s" else "flowed"

    def contains(self, params, cfg, tol=1e-7):
        # Under-points may wander into the integration domain: compositions
        # produce intermediate basepoints outside the chart box.
        xi, under = self._split(params)
        return (_in_box(xi, self.foliation.xi_box, tol)
                & _in_box(under, self.foliation.escape_box))

    def xi_box(self):
        return self.foliation.xi_box

    def param_box(self):
        return np.concatenate([self.foliation.xi_box, self.foliation.chart_box])

    def key(self):
        return ("path_holonomy", self.foliation.key())

    def describe(self):
        return f"path_holonomy({self.foliation})"


class _OnInner(Bisubmersion):
    """A term on the parameter space of ``inner``, with its boxes,
    membership and maps unless a subclass overrides them; ``_sides`` names
    the inner side that serves each side."""

    _sides = {"r": "r", "s": "s"}

    def __init__(self, inner):
        self.inner = inner
        self.foliation = inner.foliation
        self.param_len = inner.param_len
        self.dim = inner.dim

    def _map(self, side, params, cfg):
        return getattr(self.inner, self._sides[side])(params, cfg, allow_escape=True)

    def _chart(self, side, xi, bases, cfg):
        return self.inner.chart(self._sides[side], xi, bases, cfg, allow_escape=True)

    def chart_base(self, side):
        return self.inner.chart_base(self._sides[side])

    def xi_box(self):
        return self.inner.xi_box()

    def param_box(self):
        return self.inner.param_box()

    def contains(self, params, cfg, tol=1e-7):
        return self.inner.contains(params, cfg, tol)


class InverseBisubmersion(_OnInner):
    """Same space, range and source swapped."""

    _sides = _OTHER

    def key(self):
        return ("inverse", self.inner.key())

    def describe(self):
        return f"inverse({self.inner.describe()})"


class Composition(Bisubmersion):
    """U o V as the fibred product over s_U = r_V; parameters concatenate."""

    def __init__(self, left, right):
        if left.foliation.key() != right.foliation.key():
            raise BaseMismatch("composition of bisubmersions over different bases")
        self.left = left
        self.right = right
        self.foliation = left.foliation
        self.param_len = left.param_len + right.param_len
        self.dim = left.dim + right.dim - self.foliation.dim

    def split(self, params):
        p = np.atleast_2d(np.asarray(params, float))
        return p[:, : self.left.param_len], p[:, self.left.param_len :]

    def _map(self, side, params, cfg):
        u, v = self.split(params)
        if side == "r":
            return self.left.r(u, cfg, allow_escape=True)
        return self.right.s(v, cfg, allow_escape=True)

    def _chart(self, side, xi, bases, cfg):
        # The factors chart rows, so the batch is written out as its rows.
        shape = np.broadcast_shapes(xi.shape[:-1], bases.shape[:-1])
        xi, bases = (np.broadcast_to(a, shape + a.shape[-1:]).reshape(-1, a.shape[-1])
                     for a in (xi, bases))
        kl = self.left.fibre_dim
        xl, xr = xi[:, :kl], xi[:, kl:]
        if side == "s":
            v, ok1 = self.right.chart("s", xr, bases, cfg, allow_escape=True)
            mid, ok2 = self.right.r(v, cfg, allow_escape=True)
            u, ok3 = self.left.chart("s", xl, mid, cfg, allow_escape=True)
        else:
            u, ok1 = self.left.chart("r", xl, bases, cfg, allow_escape=True)
            mid, ok2 = self.left.s(u, cfg, allow_escape=True)
            v, ok3 = self.right.chart("r", xr, mid, cfg, allow_escape=True)
        return np.concatenate([u, v], axis=1), ok1 & ok2 & ok3

    def contains(self, params, cfg, tol=1e-7):
        u, v = self.split(params)
        okl = self.left.contains(u, cfg, tol)
        okr = self.right.contains(v, cfg, tol)
        su, ok1 = self.left.s(u, cfg, allow_escape=True)
        rv, ok2 = self.right.r(v, cfg, allow_escape=True)
        glue = np.linalg.norm(su - rv, axis=1) <= tol
        return okl & okr & ok1 & ok2 & glue

    def xi_box(self):
        return np.concatenate([self.left.xi_box(), self.right.xi_box()])

    def param_box(self):
        return np.concatenate([self.left.param_box(), self.right.param_box()])

    def key(self):
        return ("composition", self.left.key(), self.right.key())

    def describe(self):
        return f"({self.left.describe()} o {self.right.describe()})"


class Restriction(_OnInner):
    """Open sub-bisubmersion cut out by a parameter box."""

    def __init__(self, inner, box):
        super().__init__(inner)
        self.box = _checked_box(box, inner.param_len, "restriction box",
                                DimensionMismatch)
        self.fibred_layout = inner.fibred_layout

    def contains(self, params, cfg, tol=1e-7):
        return _in_box(params, self.box, tol) & self.inner.contains(params, cfg, tol)

    def chart_jac_det(self, xi, under, cfg):
        return self.inner.chart_jac_det(xi, under, cfg)

    def xi_box(self):
        m = self.inner.fibre_dim
        return self.box[:m]

    def param_box(self):
        return self.box

    def key(self):
        return ("restriction", self.inner.key(), self.box.tobytes())

    def describe(self):
        return f"restrict({self.inner.describe()})"


class Translate(_OnInner):
    """Translate of ``inner`` by a bisection S on the ``moved`` side.

    The moved map is composed with Phi_S (range) or Phi_S^{-1} (source);
    the other map and its fibre chart are the inner ones.  The moved
    side's fibre over x is the inner fibre over the opposite image of x.
    """

    moved = None  # "r" or "s", set by the subclasses
    name = None  # "left" or "right"

    def __init__(self, inner, bisection):
        super().__init__(inner)
        self.bisection = bisection

    def _diffeo(self, side):
        """Phi_S composed onto the range map, Phi_S^{-1} onto the source."""
        return self.bisection.phi if side == "r" else self.bisection.phi_inv

    def _map(self, side, params, cfg):
        pts, ok1 = super()._map(side, params, cfg)
        if side != self.moved:
            return pts, ok1
        out, ok2 = self._diffeo(side)(pts, cfg, allow_escape=True)
        return out, ok1 & ok2

    def _chart(self, side, xi, bases, cfg):
        # Phi_S maps each base once, not once per row it spans.
        if side != self.moved:
            return super()._chart(side, xi, bases, cfg)
        lead = bases.shape[:-1]
        mapped, ok0 = self._diffeo(_OTHER[side])(bases.reshape(-1, bases.shape[-1]),
                                                 cfg, allow_escape=True)
        params, ok1 = super()._chart(side, xi, mapped.reshape(bases.shape), cfg)
        ok0 = np.broadcast_to(ok0.reshape(lead), np.broadcast_shapes(xi.shape[:-1], lead))
        return params, ok0.reshape(-1) & ok1

    def chart_base(self, side):
        # The moved side charts the inner fibre over the mapped bases.
        base = super().chart_base(side)
        return None if side == self.moved and base == "given" else base

    def key(self):
        return (f"translate_{self.name}", self.inner.key(), self.bisection.key())

    def describe(self):
        return f"translate_{self.name}({self.inner.describe()})"


class TranslateRight(Translate):
    """U_S: range unchanged, source composed with Phi_S^{-1}."""

    moved, name = "s", "right"


class TranslateLeft(Translate):
    """U^S: source unchanged, range composed with Phi_S."""

    moved, name = "r", "left"


# ---------------------------------------------------------------------------
# Bisections


class Bisection:
    """A section of the source map on which both r and s are injective.

    Stored in graph form over the source: ``section(x)`` is the parameter
    point over ``x``, and the induced diffeomorphism is
    ``phi = r o section`` with an explicit or Newton inverse.
    ``section_fn(x, cfg)`` and ``phi_inv_fn(x, cfg)`` return
    ``(values, ok)`` for 2-D ``x``; ``valid_fn(x, cfg)``, if given, masks
    the base box further.
    """

    def __init__(self, host, base_box, section_fn, phi_inv_fn, label="",
                 valid_fn=None, key=None):
        self.host = host
        self.base_box = np.asarray(base_box, float)
        self._section = section_fn
        self._phi_inv = phi_inv_fn
        self._valid = valid_fn
        self._key = key
        self.label = label

    def key(self):
        """Structural for constant and composed bisections; otherwise the
        object itself, held by the key so that it cannot be reused after
        collection."""
        return self._key if self._key is not None else ("object", self)

    def section(self, x, cfg):
        """The parameter point over each row of ``x``."""
        params, ok = self._section(np.atleast_2d(np.asarray(x, float)), cfg)
        return _checked(params, ok, False, "section")

    def phi(self, x, cfg=None, allow_escape=False):
        params, ok1 = self._section(np.atleast_2d(np.asarray(x, float)), cfg)
        out, ok2 = self.host.r(params, cfg, allow_escape=True)
        return _checked(out, ok1 & ok2, allow_escape, "bisection diffeomorphism")

    def phi_inv(self, x, cfg=None, allow_escape=False):
        out, ok = self._phi_inv(np.atleast_2d(np.asarray(x, float)), cfg)
        return _checked(out, ok, allow_escape, "inverse bisection diffeomorphism")

    def in_base(self, x, cfg):
        p = np.atleast_2d(np.asarray(x, float))
        mask = _in_box(p, self.base_box, _BASE_TOL)
        if self._valid is not None:
            mask = mask & self._valid(p, cfg)
        return mask

    def in_range(self, x, cfg):
        """Mask for x in Phi_S(base_box), via the inverse map."""
        y, ok = self.phi_inv(x, cfg, allow_escape=True)
        inside = np.zeros(len(y), dtype=bool)
        inside[ok] = self.in_base(y[ok], cfg)
        return inside & ok, y

    def __repr__(self):
        return f"Bisection({self.label or self.host.describe()})"


def constant_bisection(host, xi0, base_box=None, label=""):
    """Constant-xi bisection of a path-holonomy term: x -> (xi0, x)."""
    if not isinstance(host, PathHolonomy):
        raise NotABisection("constant-xi bisections live on path-holonomy terms")
    F = host.foliation
    xi0 = np.atleast_1d(np.asarray(xi0, float))
    if xi0.shape != (F.num_generators,) or not np.all(np.isfinite(xi0)):
        raise DimensionMismatch(f"xi {xi0.tolist()} needs {F.num_generators} "
                                "finite entries, one per generator")
    base_box = (F.chart_box if base_box is None
                else _checked_box(base_box, F.dim, "base_box"))

    def section(x, cfg):
        return (np.concatenate([np.tile(xi0, (len(x), 1)), x], axis=1),
                np.ones(len(x), dtype=bool))

    def phi_inv(x, cfg):
        pts, esc = _flow.back_flow_batch(F, xi0[None], x, cfg, True)
        return pts, ~esc

    key = ("constant", host.key(), xi0.tobytes(), base_box.tobytes())
    return Bisection(host, base_box, section, phi_inv,
                     label=label or f"xi0={xi0.tolist()}", key=key)


def identity_bisection(host):
    m = host.foliation.num_generators
    return constant_bisection(host, np.zeros(m), label="identity")


def general_bisection(host, section_fn, base_box, label=""):
    """Bisection from an arbitrary section map; inverse by damped Newton."""
    base_box = np.asarray(base_box, float)

    def section(x, cfg):
        params = np.atleast_2d(section_fn(x))
        return params, np.ones(len(params), dtype=bool)

    def phi_inv(targets, cfg):
        # Damped Newton on g(y) = phi(y) - target with FD Jacobians.
        y = targets.copy()
        ok = np.ones(len(y), dtype=bool)
        n = targets.shape[1]
        h = 1e-6
        for _ in range(50):
            fy, okf = S.phi(y, cfg, allow_escape=True)
            res = fy - targets
            if np.max(np.linalg.norm(res[okf], axis=1), initial=0.0) < _NEWTON_TOL:
                ok &= okf
                break
            J = np.empty((len(y), n, n))
            for j in range(n):
                dy = y.copy()
                dy[:, j] += h
                fj, okj = S.phi(dy, cfg, allow_escape=True)
                okf &= okj
                J[:, :, j] = (fj - fy) / h
            try:
                step = np.linalg.solve(J, res[..., None])[..., 0]
            except np.linalg.LinAlgError:
                raise NotABisection("Newton inversion hit a singular Jacobian")
            norm0 = np.linalg.norm(res, axis=1)
            damping = 1.0
            for _ in range(8):
                trial = y - damping * step
                ft, okt = S.phi(trial, cfg, allow_escape=True)
                better = np.linalg.norm(ft - targets, axis=1) <= norm0
                if np.all(better | ~okt):
                    y = np.where((better & okt)[:, None], trial, y)
                    break
                damping /= 2.0
            else:
                raise NotABisection("damped Newton failed to reduce the residual")
            ok &= okf
        else:
            raise NotABisection("Newton inversion did not converge in 50 iterations")
        return y, ok

    S = Bisection(host, base_box, section, phi_inv, label=label)
    return S


def transpose_bisection(S, cfg=None):
    """The same submanifold as a bisection of the inverse bisubmersion;
    its base box is Phi_S(base box of S), sampled at ``cfg``."""
    host = invert(S.host)

    def section(x, cfg):
        y, ok1 = S.phi_inv(x, cfg, allow_escape=True)
        params, ok2 = S._section(y, cfg)
        return params, ok1 & ok2

    def phi_inv(x, cfg):
        return S.phi(x, cfg, allow_escape=True)

    base_box = _sampled_image_box(S.phi, S.base_box, cfg)

    def valid(x, cfg):
        mask, _ = S.in_range(x, cfg)
        return mask

    return Bisection(host, base_box, section, phi_inv,
                     label=f"transpose({S.label})", valid_fn=valid)


def compose_bisections(S, T):
    """Bisection of host(S) o host(T) inducing Phi_S o Phi_T."""
    host = compose(S.host, T.host)

    def section(x, cfg):
        tx, ok1 = T._section(x, cfg)
        mid, ok2 = T.host.r(tx, cfg, allow_escape=True)  # Phi_T, section reused
        sm, ok3 = S._section(mid, cfg)
        return np.concatenate([sm, tx], axis=1), ok1 & ok2 & ok3

    def phi_inv(x, cfg):
        mid, ok1 = S.phi_inv(x, cfg, allow_escape=True)
        out, ok2 = T.phi_inv(mid, cfg, allow_escape=True)
        return out, ok1 & ok2

    def valid(x, cfg):
        mid, ok = T.phi(x, cfg, allow_escape=True)
        out = np.zeros(len(x), dtype=bool)
        out[ok] = S.in_base(mid[ok], cfg)
        return out & T.in_base(x, cfg)

    return Bisection(host, T.base_box, section, phi_inv,
                     label=f"{S.label} o {T.label}", valid_fn=valid,
                     key=("compose", S.key(), T.key()))


def _sample_box(box, rng, count):
    """``count`` uniform draws from the box, followed by its corners."""
    box = np.atleast_2d(np.asarray(box, float))
    pts = _uniform(box, rng, count)
    corners = np.array(np.meshgrid(*box, indexing="ij")).reshape(len(box), -1).T
    return np.concatenate([pts, corners])


def _padded_bounds(vals, pad=0.02):
    """Bounding box of the rows of ``vals``, padded by ``pad`` of its width
    plus one; None when there are no rows."""
    if len(vals) == 0:
        return None
    lo, hi = vals.min(axis=0), vals.max(axis=0)
    margin = pad * (hi - lo + 1.0)
    return np.stack([lo - margin, hi + margin], axis=1)


def _sampled_image_box(fn, box, cfg, pad=0.02):
    """Sampled bounding box of fn(box) from uniform, corner and centre
    points, padded as ``_padded_bounds`` pads; ``fn`` is a bisection map,
    run at ``cfg`` with escapes allowed, and only ok rows count."""
    box = np.asarray(box, float)
    rng = np.random.default_rng(12345)
    pts = np.concatenate([_sample_box(box, rng, _IMAGE_SAMPLES),
                          box.mean(axis=1)[None, :]])
    vals, ok = fn(pts, cfg, allow_escape=True)
    return _padded_bounds(vals[ok], pad)


class LocalDiffeo:
    """Evaluable local diffeomorphism with inverse, from a bisection,
    flowing at the settings ``cfg`` it was validated at."""

    def __init__(self, bisection, cfg):
        self.bisection = bisection
        self.base_box = bisection.base_box
        self.cfg = cfg

    def __call__(self, x):
        single = np.asarray(x, float).ndim == 1
        out = self.bisection.phi(np.atleast_2d(np.asarray(x, float)), self.cfg)
        return out[0] if single else out

    def inverse(self, x):
        single = np.asarray(x, float).ndim == 1
        out = self.bisection.phi_inv(np.atleast_2d(np.asarray(x, float)), self.cfg)
        return out[0] if single else out


def bisection_diffeo(S, cfg=None):
    """Validate S on sampled base points and return its diffeomorphism.

    Checks s o section = id, injectivity of Phi_S and the round trip
    Phi_S^{-1} o Phi_S = id; failure raises NotABisection.
    """
    pts = _uniform(S.base_box, np.random.default_rng(0), _DIFFEO_SAMPLES)
    sec = S.section(pts, cfg)
    back, ok = S.host.s(sec, cfg, allow_escape=True)
    if not np.all(ok) or np.max(np.linalg.norm(back - pts, axis=1)) > 1e-9:
        raise NotABisection("section is not a section of the source map")
    vals, good = S.phi(pts, cfg, allow_escape=True)
    v = vals[good]
    if len(v) >= 2:
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        src = pts[good]
        s2 = np.sum((src[:, None, :] - src[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(s2, np.inf)
        collide = (d2 < 1e-20) & (s2 > 1e-12)
        if np.any(collide):
            raise NotABisection("induced map is not injective on sampled points")
    rt, ok2 = S.phi_inv(vals[good], cfg, allow_escape=True)
    if len(rt) and np.max(np.linalg.norm(rt[ok2] - pts[good][ok2], axis=1)) > 1e-7:
        raise NotABisection("inverse round trip exceeded tolerance")
    return LocalDiffeo(S, cfg)


# ---------------------------------------------------------------------------
# Term constructors


def make_path_holonomy(foliation) -> PathHolonomy:
    """Path-holonomy bisubmersion of the generating family."""
    return PathHolonomy(foliation)


def compose(U, V) -> Composition:
    """U o V with r(u,v) = r_U(u) and s(u,v) = s_V(v)."""
    return Composition(U, V)


def invert(U) -> Bisubmersion:
    if isinstance(U, InverseBisubmersion):
        return U.inner
    return InverseBisubmersion(U)


def restrict(U, box) -> Restriction:
    return Restriction(U, box)


def translate(U, S, side, cfg=None):
    """Right- or left-translate of U by the bisection S.

    Raises EmptyTranslate when none of _TRANSLATE_PROBE sampled parameters
    of U lands in the translate's domain.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    rng = np.random.default_rng(0)
    params = U.sample_params(_TRANSLATE_PROBE, rng, cfg)
    if side == "right":
        pts, ok = U.s(params, cfg, allow_escape=True)
        mask, _ = S.in_range(pts[ok], cfg)
        if not np.any(mask):
            raise EmptyTranslate("source image misses the bisection's range")
        return TranslateRight(U, S)
    pts, ok = U.r(params, cfg, allow_escape=True)
    inside = S.in_base(pts[ok], cfg)
    if not np.any(inside):
        raise EmptyTranslate("range image misses the bisection's base")
    return TranslateLeft(U, S)


class FibreChart:
    """Parameterization of one fibre: a box, a chart map, a dimension."""

    def __init__(self, host, side, base_point, cfg):
        self.host = host
        self.side = side
        self.base_point = np.asarray(base_point, float)
        self.box = host.xi_box()
        self.dim = host.fibre_dim
        self._cfg = cfg

    def map(self, xi):
        """The chart rows over ``xi``; DomainEscape if any escaped."""
        return self.host.chart(self.side, xi, self.base_point[None, None],
                               self._cfg)


def fibre_param(U, side, x, cfg=None) -> FibreChart:
    """Canonical chart of the r- or s-fibre of U over x."""
    if side not in ("r", "s"):
        raise ValueError("side must be 'r' or 's'")
    return FibreChart(U, side, x, cfg)


# ---------------------------------------------------------------------------
# Morphisms


class Morphism:
    """Parameter map intertwining both range and source maps."""

    def __init__(self, source, target, map_fn, label="", cfg=None):
        self.source = source
        self.target = target
        self._map = map_fn
        self.label = label
        res = self.compatibility_residual(_MORPHISM_SAMPLES, cfg)
        tols = cfg or _flow.DEFAULT_FLOW
        if res > _MORPHISM_TOL + 10 * max(tols.abs_tol, tols.rel_tol):
            raise BaseMismatch(
                f"morphism {label or ''} violates r/s compatibility: "
                f"residual {res:.3e}"
            )

    def map(self, params):
        return self._map(np.atleast_2d(np.asarray(params, float)))

    def compatibility_residual(self, samples, cfg):
        """Worst |r_V(map(p)) - r_U(p)| and s-analogue over sampled p."""
        rng = np.random.default_rng(0)
        params = self.source.sample_params(samples, rng, cfg)
        if len(params) == 0:
            return 0.0
        mapped = self.map(params)
        worst = 0.0
        for side in ("r", "s"):
            a, oka = getattr(self.source, side)(params, cfg, allow_escape=True)
            b, okb = getattr(self.target, side)(mapped, cfg, allow_escape=True)
            ok = oka & okb
            if np.any(ok):
                worst = max(worst, float(np.max(np.linalg.norm(a[ok] - b[ok], axis=1))))
        return worst

    def __repr__(self):
        return f"Morphism({self.label or 'unnamed'})"


class AdditionMorphism(Morphism):
    """(eta, y, xi, x) -> (eta + xi, x) on U o U for commuting generators."""

    def __init__(self, U, cfg):
        m = U.foliation.num_generators
        n = U.foliation.dim

        def add_map(params):
            eta = params[:, :m]
            xi = params[:, U.param_len : U.param_len + m]
            x = params[:, U.param_len + m :]
            return np.concatenate([eta + xi, x], axis=1)

        super().__init__(compose(U, U), U, add_map, label="addition", cfg=cfg)


def make_addition_morphism(U, cfg=None):
    """Addition morphism U o U -> U; requires brackets of the generators
    below _BRACKET_TOL (relative) at sampled points."""
    if not isinstance(U, PathHolonomy):
        raise BaseMismatch("addition morphism is defined on path-holonomy terms")
    F = U.foliation
    rng = np.random.default_rng(0)
    pts = F.sample_points(_BRACKET_SAMPLES, rng)
    for i in range(F.num_generators):
        for j in range(i + 1, F.num_generators):
            br = lie_bracket(F.generators[i], F.generators[j])
            vals = br(pts)
            scale = 1.0 + np.max(np.linalg.norm(F.generator_matrix(pts), axis=(1, 2)))
            worst = float(np.max(np.linalg.norm(vals, axis=1)))
            if worst > _BRACKET_TOL * scale:
                raise BracketNotZero(
                    f"[X_{i + 1}, X_{j + 1}] has norm {worst:.3e} at sampled points"
                )
    return AdditionMorphism(U, cfg)
