import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgap.errors import (
    BadExponentRange,
    DegenerateSpan,
    DimensionMismatch,
    LengthMismatch,
    NotAMetric,
    UnsupportedSpace,
)
from nsgap import spaces as spaces_module
from nsgap.spaces import (
    FINITE_N_CAP,
    Configuration,
    EllipsoidNorm,
    MetricSpace,
    config_distance_matrix,
    distance,
    modulus_check,
    pair_norms,
    product_distance,
    space_from_json,
    space_to_json,
)


def path_metric_four_cycle():
    return MetricSpace.finite(
        np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=float)
    )


def test_distance_linf():
    space = MetricSpace.lp(float("inf"), 2)
    assert distance(space, (0, 0), (3, 4)) == 4.0


def test_distance_snowflaked_euclidean():
    space = MetricSpace.lp(2.0, 2, theta=0.5)
    assert distance(space, (0, 0), (3, 4)) == pytest.approx(np.sqrt(5.0), abs=1e-12)


def test_distance_finite_path():
    assert distance(path_metric_four_cycle(), 0, 2) == 2.0


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


def test_product_distance_identical():
    space = MetricSpace.lp(2.0, 2)
    x = Configuration(space, np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert product_distance([0.5, 0.5], space, 2.0, x, x) == 0.0


def test_product_distance_constant():
    space = path_metric_four_cycle()
    x = Configuration(space, [0, 0])
    y = Configuration(space, [1, 1])
    assert product_distance([0.5, 0.5], space, 2.0, x, y) == pytest.approx(1.0)


def test_product_distance_weighted():
    space = path_metric_four_cycle()
    x = Configuration(space, [0, 1])
    y = Configuration(space, [2, 1])
    assert product_distance([0.25, 0.75], space, 1.0, x, y) == pytest.approx(0.5)


def test_product_distance_length_mismatch():
    space = path_metric_four_cycle()
    x = Configuration(space, [0, 1, 2])
    with pytest.raises(LengthMismatch):
        product_distance([0.5, 0.5], space, 1.0, x, x)


def test_modulus_convex_hilbert():
    rep = modulus_check(MetricSpace.lp(2.0, 3), "convex", 2.0, 1.0, trials=2000)
    assert rep["violations"] == 0
    assert rep["worst_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_modulus_convex_l4():
    rep = modulus_check(MetricSpace.lp(4.0, 3), "convex", 4.0, 1.0, trials=10_000)
    assert rep["violations"] == 0


def test_modulus_smooth_l1():
    rep = modulus_check(MetricSpace.lp(1.0, 2), "smooth", 1.0, 1.0, trials=2000)
    assert rep["violations"] == 0


def test_modulus_rejects_bad_exponents():
    with pytest.raises(BadExponentRange):
        modulus_check(MetricSpace.lp(2.0, 2), "smooth", 3.0, 1.0)
    with pytest.raises(BadExponentRange):
        modulus_check(MetricSpace.lp(2.0, 2), "convex", 1.5, 1.0)


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
        zero = np.zeros(3)
        lhs = distance(space, zero, lam * b)
        rhs = abs(lam) ** space.theta * distance(space, zero, b)
        assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


def test_product_metric_triangle_inequality():
    rng = np.random.default_rng(5)
    space = MetricSpace.lp(2.0, 2, theta=0.7)
    pi = np.array([0.2, 0.3, 0.5])
    for _ in range(50):
        x, y, z = (Configuration(space, rng.standard_normal((3, 2))) for _ in range(3))
        for p in (1.0, 2.0, 3.5):
            dxz = product_distance(pi, space, p, x, z)
            dxy = product_distance(pi, space, p, x, y)
            dyz = product_distance(pi, space, p, y, z)
            assert dxz <= dxy + dyz + 1e-9


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


def _symmetrize_reference(v):
    """The pairwise np.allclose loop, kept as the reference."""
    uniq = []
    for row in np.vstack([v, -v]):
        if not any(np.allclose(row, u, atol=1e-12) for u in uniq):
            uniq.append(row)
    return np.array(uniq)


def test_symmetrize_vertices_matches_allclose_loop():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m, d = rng.integers(1, 16), rng.integers(1, 5)
        v = rng.standard_normal((m, d))
        picks = rng.integers(0, m, size=rng.integers(0, m + 1))
        # near-duplicates on both sides of rtol = 1e-5, exact ones and negations
        scale = 1.0 + rng.choice([0.0, 1e-13, 1e-7, 9e-6, 1.000005e-5, 2e-5, 1e-3], size=(picks.size, 1))
        # chains a ~ b ~ c with a, c apart: c is kept, as it is close to no kept row
        chain = [v[picks[:3]] * (1.0 + k * 8e-6) for k in (1, 2)]
        v = np.vstack([v, v[picks] * scale, *chain, -v[: rng.integers(0, m + 1)],
                       np.zeros((rng.integers(0, 2), d))])
        v = v[rng.permutation(len(v))]
        got, want = spaces_module._symmetrize_vertices(v), _symmetrize_reference(v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_large_polytope_builds_quickly():
    MetricSpace.polytope(np.eye(3))  # loads Qhull before the clock starts
    rng = np.random.default_rng(6)
    v = rng.standard_normal((240, 3))
    v = np.vstack([v, v[rng.integers(0, 240, size=60)]])[rng.permutation(300)]
    start = time.process_time()
    space = MetricSpace.polytope(v)
    assert time.process_time() - start < 0.5
    # exact repeats are the only near-duplicates: the first copy of each stays
    stacked = np.vstack([v, -v])
    first = np.sort(np.unique(stacked, axis=0, return_index=True)[1])
    np.testing.assert_array_equal(space.vertices, stacked[first])


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
            assert mat[i, j] == pytest.approx(distance(space, pts[i], pts[j]), abs=1e-12)


def test_space_json_roundtrip():
    for space in (path_metric_four_cycle(), MetricSpace.lp(float("inf"), 4, theta=0.5),
                  MetricSpace.polytope([[1, 0], [0, 1]])):
        again = space_from_json(space_to_json(space))
        assert again.kind == space.kind
        assert again.theta == space.theta
