import math
import time
import tracemalloc

import numpy as np
import pytest

from nsgap import john
from nsgap.errors import DegenerateSpan, DimensionMismatch, NoConvergence
from nsgap.spaces import MetricSpace


def test_mvee_square_corners():
    ell, _ = john.mvee([[1.0, 1.0], [1.0, -1.0]])
    np.testing.assert_allclose(ell.Q, np.eye(2) / 2.0, atol=1e-6)


def test_mvee_cross_polytope():
    ell, _ = john.mvee([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(ell.Q, np.eye(2), atol=1e-6)


def test_mvee_random_cloud_containment():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((20, 3))
    ell, _ = john.mvee(pts)
    levels = np.einsum("ij,jk,ik->i", pts, ell.Q, pts)
    assert np.max(levels) <= 1.0 + 1e-6


def _khachiyan_reference(points, tol=john.MVEE_TOL, max_iters=john.MVEE_CAP):
    """Q of the away-step Khachiyan ascent over the points and their
    negations, rescaled to contain them; kept as the reference."""
    pts = np.asarray(points, dtype=float)
    pts = np.vstack([pts, -pts])
    m, d = pts.shape
    u = np.full(m, 1.0 / m)
    for _ in range(max_iters):
        inv = np.linalg.inv(pts.T @ (u[:, None] * pts))
        levels = np.einsum("ij,jk,ik->i", pts, inv, pts)
        j_plus = int(np.argmax(levels))
        top = levels[j_plus]
        if top <= d * (1.0 + tol):
            break
        low = np.where(u > 0, levels, np.inf)
        j_minus = int(np.argmin(low))
        bottom = low[j_minus]
        if top - d >= d - bottom:
            j = j_plus
            beta = (top - d) / (d * (top - 1.0))
        else:
            j = j_minus
            if bottom <= 1.0 or u[j] >= 1.0:
                beta = -u[j] / max(1.0 - u[j], 1e-300)
            else:
                beta = max((bottom - d) / (d * (bottom - 1.0)), -u[j] / (1.0 - u[j]))
        u = (1.0 - beta) * u
        u[j] += beta
        u = np.maximum(u, 0.0)
    else:
        raise AssertionError("reference did not converge")
    Q = np.linalg.inv(pts.T @ (u[:, None] * pts)) / d
    Q = (Q + Q.T) / 2.0
    return Q / max(1.0, float(np.max(np.einsum("ij,jk,ik->i", pts, Q, pts))))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_mvee_matches_khachiyan_reference(d):
    rng = np.random.default_rng(d)
    for trial in range(3):
        pts = rng.standard_normal((10 * d + 5 * trial, d)) * rng.uniform(0.5, 2.0, size=d)
        Q = john.mvee(pts)[0].Q
        ref = _khachiyan_reference(pts)
        logdet, ref_logdet = np.linalg.slogdet(Q)[1], np.linalg.slogdet(ref)[1]
        assert abs(logdet - ref_logdet) <= 1e-6 * abs(ref_logdet)
        assert np.max(np.einsum("ij,jk,ik->i", pts, Q, pts)) <= 1.0 + 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_mvee_regular_polytopes_stop_at_step_zero(d, monkeypatch):
    monkeypatch.setattr(john, "MVEE_CAP", 1)
    cube, _ = john.mvee(john.hypercube_vertices(d))
    np.testing.assert_allclose(cube.Q, np.eye(d) / d, rtol=1e-15, atol=0)
    cross, _ = john.mvee(john.crosspolytope_vertices(d))
    np.testing.assert_allclose(cross.Q, np.eye(d), rtol=1e-15, atol=0)


def test_mvee_solver_record():
    """Steps taken, stop reason and the final level residual, which the
    convergence test keeps within MVEE_TOL; the same points give the same
    record."""
    pts = np.random.default_rng(7).standard_normal((40, 3))
    _, record = john.mvee(pts)
    assert record == john.mvee(pts)[1]
    assert record["iterations"] > 0 and record["stop"] == "converged"
    assert -1e-12 <= record["residual"] <= john.MVEE_TOL
    _, cube = john.mvee(john.hypercube_vertices(3))
    assert cube["iterations"] == 0 and abs(cube["residual"]) <= 1e-12


def test_mvee_iteration_cap_raises(monkeypatch):
    pts = np.random.default_rng(7).standard_normal((40, 3))
    with monkeypatch.context() as patch:
        patch.setattr(john, "MVEE_CAP", 1)
        with pytest.raises(NoConvergence):
            john.mvee(pts)
    john.mvee(pts)  # the same cloud converges without the cap


def test_hilbert_distance_sampled_l3_plane_converges():
    start = time.process_time()
    out = john.hilbert_distance(MetricSpace.lp(3.0, 2))
    assert time.process_time() - start < 1.0
    # the John ellipse of the l_3 disc is the Euclidean disc of radius 2^(1/6)
    assert out["D_X"] == pytest.approx(2.0 ** (1.0 / 6.0), rel=0.01)


def test_rank_one_update_matches_exact_levels():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((30, 4))
    u = rng.dirichlet(np.ones(30))
    inv, levels = john._exact_levels(pts, u)
    for j, c in ((3, 0.2), (17, -0.5 * u[17])):
        john._rank_one_update(inv, levels, pts, pts[j], c)
        u[j] += c
        want_inv, want_levels = john._exact_levels(pts, u)
        np.testing.assert_allclose(inv, want_inv, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(levels, want_levels, rtol=1e-10)


def test_mvee_rejects_flat_cloud():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
    with pytest.raises(DegenerateSpan):
        john.mvee(pts)


def test_hilbert_distance_square():
    out = john.hilbert_distance(MetricSpace.lp(float("inf"), 2))
    assert out["D_X"] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_hilbert_distance_cross_polytope():
    out = john.hilbert_distance(MetricSpace.lp(1.0, 2))
    assert out["D_X"] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_hilbert_distance_euclidean_identity():
    for d in (2, 5):
        out = john.hilbert_distance(MetricSpace.lp(2.0, d))
        assert out["D_X"] == 1.0
        np.testing.assert_allclose(out["H"].Q, np.eye(d))


def test_hilbert_distance_cube_family():
    for d in range(2, 7):
        out = john.hilbert_distance(MetricSpace.lp(float("inf"), d))
        assert out["D_X"] == pytest.approx(math.sqrt(d), abs=1e-3)
        assert out["D_X"] <= math.sqrt(d) + 1e-3


def test_sandwich_on_random_directions():
    rng = np.random.default_rng(1)
    for space in (MetricSpace.lp(float("inf"), 3), MetricSpace.lp(1.0, 3),
                  MetricSpace.polytope([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                        [1, 1, 1]])):
        out = john.hilbert_distance(space)
        dx, hilbert = out["D_X"], MetricSpace.ellipsoid_space(out["H"])
        for _ in range(1000):
            u = rng.standard_normal(3)
            h = hilbert.gauge(u)
            x = space.gauge(u)
            assert h <= x * (1 + 1e-6)
            assert x <= dx * h * (1 + 1e-6)


def test_containment_after_rescale():
    verts = john.hypercube_vertices(4)
    out = john.hilbert_distance(MetricSpace.lp(float("inf"), 4))
    levels = np.einsum("ij,jk,ik->i", verts, out["H"].Q, verts)
    assert np.max(levels) <= 1.0 + 1e-9


def test_lp_sampled_approximation():
    out = john.hilbert_distance(MetricSpace.lp(3.0, 3))
    assert out["approximate"]
    assert 1.0 <= out["D_X"] <= math.sqrt(3.0) * 1.2
    assert "sampling_slack" in out


def test_lp_dimension_cap_refuses_before_allocating():
    """Every l_p kind is refused above LP_DIM_CAP: the Euclidean identity
    alone took 1.3 GB at d = 4096 and 74.5 GiB at d = 10^5."""
    out = john.hilbert_distance(MetricSpace.lp(2.0, john.LP_DIM_CAP))
    assert out["D_X"] == 1.0
    tracemalloc.start()
    try:
        for p in (1.0, 2.0, 3.0, float("inf")):
            for d in (john.LP_DIM_CAP + 1, 100_000):
                with pytest.raises(DimensionMismatch, match="capped at d = 64"):
                    john.hilbert_distance(MetricSpace.lp(p, d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_general_polytope_john_bound():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((8, 3))
    space = MetricSpace.polytope(pts)
    out = john.hilbert_distance(space)
    assert out["D_X"] <= math.sqrt(3.0) + 1e-3
