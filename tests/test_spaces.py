import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgap import spaces
from nsgap.errors import (
    BadExponentRange,
    DegenerateSpan,
    DimensionMismatch,
    NotAMetric,
    UnsupportedSpace,
)
from nsgap.spaces import (
    FINITE_N_CAP,
    Configuration,
    EllipsoidNorm,
    MetricSpace,
    config_distance_matrix,
    pair_norms,
    space_from_json,
    space_to_json,
)


def path_metric_four_cycle():
    return MetricSpace.finite(
        np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=float)
    )


def pair_distance(space, a, b) -> float:
    """Snowflaked distance between two points, from the configuration (a, b)."""
    return float(config_distance_matrix(Configuration(space, [a, b]))[0, 1])


def test_distance_linf():
    space = MetricSpace.lp(float("inf"), 2)
    assert pair_distance(space, (0, 0), (3, 4)) == 4.0


def test_distance_snowflaked_euclidean():
    space = MetricSpace.lp(2.0, 2, theta=0.5)
    assert pair_distance(space, (0, 0), (3, 4)) == pytest.approx(np.sqrt(5.0), abs=1e-12)


def test_distance_finite_path():
    assert pair_distance(path_metric_four_cycle(), 0, 2) == 2.0


def test_finite_metric_validation():
    bad = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
    with pytest.raises(DimensionMismatch):
        MetricSpace.finite(bad)
    with pytest.raises(BadExponentRange):
        MetricSpace.lp(2.0, 2, theta=1.5)


def _line_metric(n):
    return np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)


def test_triangle_test_at_the_cap_traced_peak_under_32mb():
    """The triangle test takes its minimum in row blocks; the one n^3
    broadcast it replaced peaked near 1 GB at the cap."""
    dist = _line_metric(FINITE_N_CAP)
    tracemalloc.start()
    try:
        MetricSpace.finite(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_triangle_violation_across_row_blocks():
    """At 200 points a row block holds 26 rows: d(100, 180) = 81 beats the
    80 of the path through any point in between, and rows 100 and 180 sit
    in later blocks than the first."""
    dist = _line_metric(200)
    MetricSpace.finite(dist.copy())
    dist[100, 180] = dist[180, 100] = 81.0
    with pytest.raises(NotAMetric, match="triangle"):
        MetricSpace.finite(dist)


@settings(deadline=None, max_examples=50)
@given(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.01, 10.0))
def test_snowflake_monotonicity(theta_small, frac, base):
    theta = min(theta_small + frac, 1.0)
    if base >= 1.0:
        assert base**theta_small <= base**theta + 1e-12
    else:
        assert base**theta_small >= base**theta - 1e-12


@settings(deadline=None, max_examples=30)
@given(st.floats(-5, 5), st.integers(0, 2**31))
def test_gauge_homogeneity(lam, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(3)
    for space in (MetricSpace.lp(3.0, 3), MetricSpace.lp(float("inf"), 3),
                  MetricSpace.ellipsoid_space(EllipsoidNorm(np.diag([1.0, 2.0, 3.0])))):
        lhs, rhs = pair_norms(space, np.stack([lam * b, b]))[0]
        assert lhs == pytest.approx(abs(lam) * rhs, abs=1e-12, rel=1e-12)


def test_polytope_gauge_matches_linf():
    """Gauge of the cube [-1,1]^2 agrees with the max-coordinate norm."""
    cube = MetricSpace.polytope([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    linf = MetricSpace.lp(float("inf"), 2)
    rng = np.random.default_rng(9)
    for _ in range(20):
        y = rng.standard_normal(2)
        assert cube.gauge(y) == pytest.approx(linf.gauge(y), abs=1e-8)


def test_polytope_gauge_matches_l1():
    cross = MetricSpace.polytope([[1, 0], [0, 1]])
    l1 = MetricSpace.lp(1.0, 2)
    rng = np.random.default_rng(10)
    for _ in range(20):
        y = rng.standard_normal(2)
        assert cross.gauge(y) == pytest.approx(l1.gauge(y), abs=1e-8)


def lp_oracle_gauge(vertices, y):
    """Gauge of conv(vertices) at y as the LP min sum(lam), V^T lam = y,
    lam >= 0; a reference independent of the facet description."""
    from scipy.optimize import linprog

    res = linprog(np.ones(len(vertices)), A_eq=vertices.T, b_eq=y,
                  bounds=(0, None), method="highs")
    assert res.success
    return res.fun


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_facet_gauge_matches_lp_oracle(d):
    rng = np.random.default_rng(d)
    for m in (d, d + 3, 3 * d):
        space = MetricSpace.polytope(rng.standard_normal((m, d)))
        ys = rng.standard_normal((10, d))
        norms, _ = pair_norms(space, ys)
        for y, norm in zip(ys, norms):
            assert norm == pytest.approx(lp_oracle_gauge(space.vertices, y), rel=1e-7)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_polytope_subgradient_is_a_norming_functional(d):
    """<g, y> = ||y|| and g lies in the dual ball: <g, v> <= 1 at every
    vertex v of the unit ball."""
    rng = np.random.default_rng(10 + d)
    space = MetricSpace.polytope(rng.standard_normal((2 * d, d)))
    ys = rng.standard_normal((50, d))
    norms, grads = pair_norms(space, ys)
    np.testing.assert_allclose(np.sum(grads * ys, axis=1), norms, rtol=1e-12)
    assert np.max(grads @ space.vertices.T) <= 1.0 + 1e-12


def test_pair_norms_match_per_vector_gauge_for_every_kind():
    rng = np.random.default_rng(3)
    spaces = (MetricSpace.lp(2.0, 3), MetricSpace.lp(float("inf"), 3),
              MetricSpace.lp(1.0, 3), MetricSpace.lp(3.0, 3),
              MetricSpace.ellipsoid_space(EllipsoidNorm(np.diag([1.0, 2.0, 3.0]))),
              MetricSpace.polytope(rng.standard_normal((5, 3))))
    diffs = rng.standard_normal((4, 5, 3))
    diffs[0, 0] = 0.0
    for space in spaces:
        norms, grads = pair_norms(space, diffs)
        assert norms.shape == (4, 5) and grads.shape == (4, 5, 3)
        for i, j in itertools.product(range(4), range(5)):
            assert norms[i, j] == pytest.approx(space.gauge(diffs[i, j]), rel=1e-15, abs=0)
            np.testing.assert_allclose(grads[i, j], pair_norms(space, diffs[i, j])[1],
                                       rtol=1e-15, atol=0)
    with pytest.raises(UnsupportedSpace):
        pair_norms(path_metric_four_cycle(), diffs)
    with pytest.raises(DimensionMismatch):
        pair_norms(spaces[0], diffs[..., :2])


def _linf_reference(diffs):
    """The take/put-along-axis l_inf kernel, kept as the reference."""
    top = np.argmax(np.abs(diffs), axis=-1)[..., None]
    vals = np.take_along_axis(diffs, top, axis=-1)
    grads = np.zeros_like(diffs)
    np.put_along_axis(grads, top, np.where(vals != 0, np.sign(vals), 1.0), axis=-1)
    return np.abs(vals[..., 0]), grads


def test_linf_pair_norms_bit_identical_to_reference():
    rng = np.random.default_rng(11)
    for shape in ((3,), (7, 2), (4, 4, 3), (2, 3, 5, 4), (0, 3)):
        space = MetricSpace.lp(float("inf"), shape[-1])
        for diffs in (rng.standard_normal(shape),
                      rng.integers(-2, 3, size=shape).astype(float),  # ties, zeros
                      np.zeros(shape), -np.zeros(shape)):
            got, want = pair_norms(space, diffs), _linf_reference(diffs)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_polytope_keeps_vertices_within_allclose_tolerance():
    """A vertex 5e-6 beyond another is a real vertex: the gauge of e_1 is
    1 / (1 + 5e-6), not the 1.0 of the ball without it."""
    space = MetricSpace.polytope([[1.0, 0.0], [0.0, 1.0], [1.0 + 5e-6, 0.0]])
    assert space.gauge(np.array([1.0, 0.0])) == pytest.approx(1.0 / (1.0 + 5e-6),
                                                               rel=1e-12)


def test_large_polytope_builds_quickly():
    MetricSpace.polytope(np.eye(3))  # loads Qhull before the clock starts
    rng = np.random.default_rng(6)
    v = rng.standard_normal((240, 3))
    v = np.vstack([v, v[rng.integers(0, 240, size=60)]])[rng.permutation(300)]
    start = time.process_time()
    space = MetricSpace.polytope(v)
    assert time.process_time() - start < 0.5
    # the vertices and their negations are stored as given, repeats included
    np.testing.assert_array_equal(space.vertices, np.vstack([v, -v]))


def test_facet_bound_holds_and_admits_the_cross_polytope():
    """Qhull's facets never exceed the upper-bound-theorem count, which the
    12-dimensional cross-polytope (4,096 facets, bound 24,752) stays under."""
    rng = np.random.default_rng(8)
    for d, m in ((2, 9), (3, 40), (4, 12), (5, 9), (6, 8)):
        space = MetricSpace.polytope(rng.standard_normal((m, d)))
        assert space.facets.shape[0] <= spaces._facet_bound(2 * m, d)
    cross = MetricSpace.polytope(np.eye(12))
    assert cross.facets.shape[0] == 4096
    assert spaces._facet_bound(24, 12) == 24752 <= spaces.POLYTOPE_FACET_CAP
    assert spaces._facet_bound(600, 3) == 1196  # 2V - 4 in three dimensions


def test_polytope_without_vertices_or_coordinates_is_rejected():
    """Zero coordinates used to reach Qhull, which raised a bare ValueError."""
    for shape in ((0, 3), (2, 0)):
        with pytest.raises(DimensionMismatch, match="nonempty"):
            MetricSpace.polytope(np.ones(shape))


def test_one_dimensional_polytope_is_an_interval():
    space = MetricSpace.polytope([[2.0]])
    assert space.gauge([-3.0]) == 1.5
    assert pair_norms(space, [-3.0])[1].tolist() == [-0.5]


def test_polytope_dimension_cap_precedes_qhull(monkeypatch):
    import scipy.spatial

    def no_qhull(points):
        raise AssertionError("Qhull ran")

    monkeypatch.setattr(scipy.spatial, "ConvexHull", no_qhull)
    with pytest.raises(AssertionError):  # the patch does reach the hull call
        MetricSpace.polytope(np.eye(3))
    with pytest.raises(UnsupportedSpace, match="d = 12"):
        MetricSpace.polytope(np.eye(13))


def test_qhull_failure_is_degenerate_span(monkeypatch):
    import scipy.spatial

    def failing_hull(points):
        raise scipy.spatial.QhullError("QH6154 initial simplex is flat")

    monkeypatch.setattr(scipy.spatial, "ConvexHull", failing_hull)
    with pytest.raises(DegenerateSpan):
        MetricSpace.polytope(np.eye(3))


def test_config_distance_matrix_consistency():
    space = MetricSpace.lp(float("inf"), 3, theta=0.5)
    pts = np.random.default_rng(2).standard_normal((4, 3))
    x = Configuration(space, pts)
    mat = config_distance_matrix(x)
    for i in range(4):
        for j in range(4):
            ref = np.max(np.abs(pts[i] - pts[j])) ** 0.5
            assert mat[i, j] == pytest.approx(ref, abs=1e-12)


def test_space_json_roundtrip():
    for space in (path_metric_four_cycle(), MetricSpace.lp(float("inf"), 4, theta=0.5),
                  MetricSpace.polytope([[1, 0], [0, 1]])):
        again = space_from_json(space_to_json(space))
        assert again.kind == space.kind
        assert again.theta == space.theta
        if space.kind == "polytope_norm":
            np.testing.assert_array_equal(again.vertices, space.vertices)
