"""Foliation data, involutivity checks and leaf sampling."""

import math

import numpy as np
import pytest

from foliops import flow as _flow
from foliops.canonical import foliation_C, foliation_noninvolutive
from foliops.errors import DimensionMismatch
from foliops.expr import lie_bracket, parse_field
from foliops.foliation import (
    SingularFoliation,
    _structured_points,
    involutivity_check,
    leaf_dimension,
    leaf_sample,
    leaf_sweep,
)


@pytest.fixture(scope="module")
def rotation():
    return SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                             generators=[parse_field("[-x2, x1]", 2)],
                             xi_radius=[2.5])


@pytest.fixture(scope="module")
def plane():
    return SingularFoliation(
        dim=2, chart_box=[[-2, 2], [-2, 2]],
        generators=[parse_field("[1, 0]", 2), parse_field("[0, 1]", 2)],
        xi_radius=[1.0, 1.0],
    )


@pytest.fixture(scope="module")
def bad():
    return SingularFoliation(
        dim=2, chart_box=[[-2, 2], [-2, 2]],
        generators=[parse_field("[1, 0]", 2), parse_field("[0, x1]", 2)],
        xi_radius=[1.0, 1.0],
    )


def test_validation():
    with pytest.raises(DimensionMismatch):
        SingularFoliation(dim=2, chart_box=[[-1, 1]],
                          generators=[parse_field("[x1, x2]", 2)],
                          xi_radius=[1.0])
    with pytest.raises(ValueError):
        SingularFoliation(dim=1, chart_box=[[-1, 1]],
                          generators=[parse_field("[x1]", 1)], xi_radius=[0.0])


def test_involutivity_commuting_constants(plane):
    rep = involutivity_check(plane, samples=50)
    assert rep.passed and rep.worst_residual == 0.0


def test_involutivity_single_generator(rotation):
    rep = involutivity_check(rotation, samples=50)
    assert rep.passed


def test_involutivity_failure_at_locus(bad):
    rep = involutivity_check(bad, samples=100)
    assert not rep.passed
    # the offending bracket leaves the span exactly where x1 = 0
    assert abs(rep.worst_point[0]) < 1e-6
    assert rep.worst_residual > rep.tol


def test_least_squares_residual_oracle(bad):
    # Brute-force oracle at p = (0, 0): bracket (0,1) against span{(1,0),(0,0)}
    p = np.array([0.0, 0.0])
    G = bad.generator_matrix(p)[0]
    v = np.array([0.0, 1.0])
    coeffs = np.linalg.lstsq(G, v, rcond=None)[0]
    residual = np.linalg.norm(G @ coeffs - v) / (1 + np.linalg.norm(G))
    rep = involutivity_check(bad, samples=10)
    assert rep.worst_residual == pytest.approx(residual)


def _pointwise_involutivity(F, samples, tol):
    """involutivity_check as it was written first: the fields evaluated
    one sample point at a time."""
    rng = np.random.default_rng(0)
    pts = np.concatenate([_structured_points(F), F.sample_points(samples, rng)])
    m = F.num_generators
    brackets = {(i, j): lie_bracket(F.generators[i], F.generators[j])
                for i in range(m) for j in range(i + 1, m)}
    worst, worst_p, worst_pair = 0.0, pts[0], (0, 0)
    for p in pts:
        G = F.generator_matrix(p)[0]
        scale = 1.0 + np.linalg.norm(G)
        for (i, j), br in brackets.items():
            v = br(p)
            sol, *_ = np.linalg.lstsq(G, v, rcond=None)
            res = float(np.linalg.norm(G @ sol - v)) / scale
            if res > worst:
                worst, worst_p, worst_pair = res, p, (i, j)
    return worst, np.asarray(worst_p), worst_pair, len(pts)


@pytest.mark.parametrize("name", ["noninvolutive", "C", "sl2"])
def test_involutivity_batch_matches_pointwise(name):
    F = {"noninvolutive": foliation_noninvolutive(), "C": foliation_C(),
         "sl2": SingularFoliation(
             dim=2, chart_box=[[-2, 2], [-2, 2]],
             generators=[parse_field(t, 2) for t in ("[0, x1]", "[x2, 0]",
                                                     "[x1, -x2]")],
             xi_radius=[1.0, 1.0, 1.0])}[name]
    rep = involutivity_check(F, samples=100, tol=1e-7)
    worst, worst_p, worst_pair, count = _pointwise_involutivity(F, 100, 1e-7)
    assert rep.worst_residual == worst and rep.worst_pair == worst_pair
    assert rep.worst_point.tobytes() == worst_p.tobytes()
    assert rep.samples == count and rep.passed == (worst <= 1e-7)
    assert rep.passed == (name != "noninvolutive")


def test_leaf_sample_circle(rotation):
    leaf = leaf_sample(rotation, [1.0, 0.0], budget=200, mesh=1e-3, seed=0)
    radii = np.linalg.norm(leaf.points, axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 1e-6
    assert leaf.leaf_dim == 1


def test_leaf_sample_fixed_point():
    scaling = SingularFoliation(dim=1, chart_box=[[-2, 2]],
                                generators=[parse_field("[x1]", 1)],
                                xi_radius=[1.0])
    leaf = leaf_sample(scaling, [0.0], budget=60, seed=0)
    assert len(leaf.points) == 1
    assert np.array_equal(leaf.points[0], [0.0])
    assert leaf.leaf_dim == 0


def test_leaf_sample_horizontal_line():
    F = SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                          generators=[parse_field("[1, 0]", 2)],
                          xi_radius=[1.0])
    leaf = leaf_sample(F, [0.0, 0.5], budget=120, seed=1)
    assert np.max(np.abs(leaf.points[:, 1] - 0.5)) <= 1e-9


def test_leaf_replay_reachability(rotation):
    """Batched fans give the points of one-row flows: replay is exact."""
    pendulum = SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                                 generators=[parse_field("[x2, -sin(x1)]", 2)],
                                 xi_radius=[1.0])
    rng = np.random.default_rng(0)
    for F in (rotation, pendulum):
        leaf = leaf_sample(F, [1.0, 0.0], budget=120, seed=2)
        assert max(len(w) for w in leaf.words) >= 2
        for idx in rng.choice(len(leaf.points), size=min(10, len(leaf.points)),
                              replace=False):
            assert np.array_equal(leaf.replay(int(idx)), leaf.points[idx])


def test_leaf_replay_uses_the_settings_of_its_sample():
    """A leaf sampled at non-default tolerances replays at them: replay
    missed its own points by about 1e-5 when it flowed at the defaults."""
    pendulum = SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                                 generators=[parse_field("[x2, -sin(x1)]", 2)],
                                 xi_radius=[1.0])
    cfg = _flow.FlowConfig(abs_tol=1e-4, rel_tol=1e-4)
    for leaf in (leaf_sample(pendulum, [1.0, 0.0], budget=120, cfg=cfg, seed=2),
                 leaf_sweep(pendulum, [1.0, 0.0], [0.3], 12, cfg)):
        for idx in range(len(leaf.points)):
            assert np.array_equal(leaf.replay(idx), leaf.points[idx])
        assert leaf.cfg == cfg


def test_leaf_sample_batches_fans(rotation, monkeypatch):
    rows = []
    batch = _flow.exp_flow_batch

    def counted(F, xi, x, *args, **kw):
        rows.append(len(x))
        return batch(F, xi, x, *args, **kw)

    monkeypatch.setattr(_flow, "exp_flow_batch", counted)
    leaf_sample(rotation, [1.0, 0.0], budget=123, seed=2)
    assert sum(rows) == 123 and len(rows) <= 123 / 8


def test_leaf_dimension_examples(rotation, plane):
    assert leaf_dimension(rotation, [0.0, 0.0]) == 0
    assert leaf_dimension(rotation, [1.0, 0.0]) == 1
    assert leaf_dimension(plane, [0.3, -1.2]) == 2


def test_leaf_dimension_bounds(rotation, plane, bad):
    rng = np.random.default_rng(9)
    for F in (rotation, plane, bad):
        for p in F.sample_points(20, rng):
            d = leaf_dimension(F, p)
            assert 0 <= d <= min(F.dim, F.num_generators)


def test_leaf_dimension_constant_along_samples(rotation):
    leaf = leaf_sample(rotation, [1.0, 0.0], budget=100, seed=3)
    dims = {leaf_dimension(rotation, p) for p in leaf.points}
    assert dims == {1}


def test_leaf_sweep_circle(rotation):
    n = 256
    h = 2 * math.pi / n
    leaf = leaf_sweep(rotation, [1.0, 0.0], [h], n)
    radii = np.linalg.norm(leaf.points, axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 1e-7
    assert leaf.mesh == pytest.approx(2 * math.sin(h / 2), rel=1e-6)
    # nearest-sample lookup
    idx, dist = leaf.nearest(np.array([[math.cos(3 * h), math.sin(3 * h)]]))
    assert idx[0] == 3 and dist[0] <= 1e-9


def test_json_round_trip(plane):
    data = plane.to_json()
    again = SingularFoliation.from_json(data)
    assert again.dim == plane.dim
    assert np.array_equal(again.chart_box, plane.chart_box)
    assert np.array_equal(again.xi_radius, plane.xi_radius)
    pts = np.random.default_rng(4).uniform(-1, 1, size=(10, 2))
    for g0, g1 in zip(plane.generators, again.generators):
        assert np.array_equal(g0(pts), g1(pts))


def test_leaf_sample_fills_its_buffer_with_distinct_points():
    """Commuting plane generators make every attempt a new point: the leaf
    takes budget + 1 samples, each at least a mesh from all earlier ones."""
    F = SingularFoliation(dim=2, chart_box=[[-2, 2], [-2, 2]],
                          generators=[parse_field("[1, 0]", 2),
                                      parse_field("[0, 1]", 2)],
                          xi_radius=[1.0, 1.0])
    leaf = leaf_sample(F, [0.2, -0.1], budget=64, mesh=1e-3, seed=5)
    assert leaf.points.shape == (65, 2) and leaf.escapes == 0
    gaps = np.linalg.norm(leaf.points[:, None] - leaf.points[None], axis=2)
    assert np.min(gaps[np.triu_indices(65, 1)]) >= 1e-3
    assert np.array_equal(leaf.replay(64), leaf.points[64])
    # A mesh wider than the leaf keeps the basepoint alone.
    wide = leaf_sample(F, [0.2, -0.1], budget=64, mesh=100.0, seed=5)
    assert np.array_equal(wide.points, [[0.2, -0.1]])


@pytest.mark.parametrize("seed", range(4))
def test_leaf_sample_counts_its_escapes(seed):
    """A budget of 8 is one fan from the basepoint.  On [-1, 1] with escape
    factor 1, the row x0 + xi escapes exactly when it leaves [-1, 1]; the
    count must equal the number of such rows among the replayed draws."""
    F = SingularFoliation(dim=1, chart_box=[[-1, 1]],
                          generators=[parse_field("[1]", 1)],
                          xi_radius=[1.5], escape_factor=1.0)
    leaf = leaf_sample(F, [0.5], budget=8, seed=seed)
    rng = np.random.default_rng(seed)
    ends = [0.5 + rng.uniform(-F.xi_radius, F.xi_radius)[0] for _ in range(8)]
    want = sum(not -1.0 <= y <= 1.0 for y in ends)
    assert leaf.escapes == want
    assert 0 < want < 8
    assert len(leaf.points) == 1 + 8 - want  # no two ends within the mesh
