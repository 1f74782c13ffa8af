import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgError, eigh
from scipy.sparse.csgraph import shortest_path

from nsgap import embed, expander, markov
from nsgap.errors import (
    DimensionMismatch,
    EmptyDecomposition,
    NotAMetric,
    ZeroWeight,
)
from nsgap.spaces import FINITE_N_CAP


def four_cycle_path_metric():
    return np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
                    dtype=float)


def lazy_four_cycle():
    A = np.array([[0, .5, 0, .5], [.5, 0, .5, 0], [0, .5, 0, .5], [.5, 0, .5, 0]])
    return markov.lazy_power(markov.build_reversible_chain(A), 1)


def test_two_point_isometric():
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    emb = embed.average_embed_hilbert(dist, [0.5, 0.5], 0.5)
    assert emb.d_achieved == pytest.approx(1.0, abs=1e-4)


def test_equilateral_simplex():
    n = 5
    dist = np.ones((n, n)) - np.eye(n)
    emb = embed.average_embed_hilbert(dist, np.full(n, 1.0 / n), 0.8)
    assert emb.d_achieved <= 1.0 + 1e-4


def test_four_cycle_matches_circulant_oracle():
    """Independent oracle: by the cycle's symmetry the optimal Gram matrix is
    circulant, leaving a 2-parameter problem over (adjacent, opposite) squared
    distances subject to the caps and a PSD condition; grid search it."""
    dist = four_cycle_path_metric()
    theta = 0.5
    caps = dist ** (2 * theta)
    best = 0.0
    for a in np.linspace(0, caps[0, 1], 81):
        for b in np.linspace(0, caps[0, 2], 81):
            # squared distances (a: adjacent, b: opposite) embed into Hilbert
            # space iff the circulant Gram matrix G = (b/4) J_eig is PSD:
            # eigenvalues of the centered Gram are b/4 (doubled) and (4a-b)/4
            if b <= 2.0 * a + 1e-12:
                obj = (8.0 * a + 4.0 * b) / 16.0
                best = max(best, obj)
    oracle_d = math.sqrt(float(np.sum(np.outer(np.full(4, .25), np.full(4, .25)) * caps)) / best)
    emb = embed.average_embed_hilbert(dist, np.full(4, 0.25), theta)
    assert emb.d_achieved == pytest.approx(oracle_d, abs=1e-4)


def test_embedding_feasible_and_certified():
    dist = four_cycle_path_metric()
    emb = embed.average_embed_hilbert(dist, np.full(4, 0.25), 0.5)
    sq = np.diag(emb.G)[:, None] + np.diag(emb.G)[None, :] - 2.0 * emb.G
    assert np.max(sq - dist) <= 1e-6  # caps are d^{2*0.5} = d
    assert np.min(np.linalg.eigvalsh(emb.G)) >= -1e-9
    # factor reproduces the Gram certificates
    rebuilt = emb.factor @ emb.factor.T
    np.testing.assert_allclose(rebuilt, emb.G, atol=1e-9)
    assert emb.factor.shape[1] <= 4
    # the certificates again from the factor alone: the worst expansion over
    # the snowflaked distances, and the weighted mean of squared distances
    diff = emb.factor[:, None, :] - emb.factor[None, :, :]
    embedded = np.sqrt(np.sum(diff**2, axis=-1))
    off = ~np.eye(4, dtype=bool)
    snow = dist**0.5
    weight = np.full((4, 4), 1.0 / 16.0)
    lip = np.max(embedded[off] / snow[off])
    spread = np.sum(weight * embedded**2) / np.sum(weight * snow**2)
    assert lip == pytest.approx(emb.lip_certificate, rel=1e-7)
    assert spread == pytest.approx(emb.spread_certificate, rel=1e-7)


def test_input_guards():
    with pytest.raises(NotAMetric):
        embed.average_embed_hilbert(np.array([[0.0, 1.0], [2.0, 0.0]]), [0.5, 0.5], 1.0)
    with pytest.raises(ZeroWeight):
        embed.average_embed_hilbert(np.array([[0.0, 1.0], [1.0, 0.0]]), [1.0, 0.0], 1.0)
    with pytest.raises(NotAMetric):
        embed.average_embed_hilbert(np.array([[0.0, np.nan], [np.nan, 0.0]]),
                                    [0.5, 0.5], 1.0)
    with pytest.raises(ZeroWeight):
        embed.average_embed_hilbert(np.array([[0.0, 1.0], [1.0, 0.0]]), [np.nan, 1.0], 1.0)


def test_oversized_metric_rejected_before_triangle_check():
    """The point cap is checked before the O(n^3) triangle broadcast, which
    would take about 1 GB at 513 points; the input matrix itself is 2 MB."""
    n = FINITE_N_CAP + 1
    dist = np.ones((n, n)) - np.eye(n)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match="capped"):
            embed.average_embed_hilbert(dist, np.full(n, 1.0 / n), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_embed_cap_checked_before_allocation():
    """The Schur complement of 65 points would be 33 MB and grow as n^4; the
    embedding cap rejects the input before anything of that size exists."""
    n = embed.EMBED_N_CAP + 1
    dist = np.ones((n, n)) - np.eye(n)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match=f"capped at {embed.EMBED_N_CAP}"):
            embed.average_embed_hilbert(dist, np.full(n, 1.0 / n), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _reference_subgradient(dist, mu, theta, max_iters=5000, stall_window=200,
                           stall_eps=1e-10):
    """The projected-subgradient solver the interior-point method replaced:
    MDS warm start, diminishing steps along the objective gradient, a PSD
    projection per step and exact halfspace repairs every tenth step.
    Returns the spread of its best rescaled iterate."""
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    mu = np.asarray(mu, dtype=float) / np.sum(mu)
    caps = dist ** (2.0 * theta)
    weight = np.outer(mu, mu)
    grad = 2.0 * (np.diag(mu) - weight)
    total = float(np.sum(weight * caps))

    def psd_project(G):
        vals, vecs = np.linalg.eigh((G + G.T) / 2.0)
        return (vecs * np.maximum(vals, 0.0)) @ vecs.T

    def objective(G):
        return float(np.sum(weight * embed._sq_dists(G)))

    J = np.eye(n) - np.outer(np.ones(n), mu)
    G = embed._feasible_rescale(psd_project(-0.5 * J @ caps @ J.T), caps)
    best_obj = objective(G)
    step0 = float(np.mean(caps))
    stale = 0
    for it in range(1, max_iters + 1):
        G = psd_project(G + (step0 / math.sqrt(it)) * grad)
        if it % 10 == 0:
            sq = embed._sq_dists(G)
            for i, j in np.argwhere(sq > caps + 1e-12):
                if i >= j:
                    continue
                gap = embed._sq_dists(G)[i, j] - caps[i, j]
                if gap <= 0:
                    continue
                c = gap / 4.0
                G[i, i] -= c
                G[j, j] -= c
                G[i, j] += c
                G[j, i] += c
            G = psd_project(G)
        obj = objective(embed._feasible_rescale(G, caps))
        if obj > best_obj + stall_eps:
            best_obj, stale = obj, 0
        else:
            stale += 1
            if stale >= stall_window:
                break
    return best_obj / total


def _linf_cloud(n, dim, seed):
    pts = np.random.default_rng(seed).uniform(0.0, 1.0, (n, dim))
    return np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1)


def _cubic_graph_metric(n, seed):
    g = expander.random_regular_graph(n, 3, seed=seed)
    return shortest_path(g.adjacency(), unweighted=True)


def _recomputed_d_lower(emb, dist, mu, theta):
    """1/sqrt of the spread bound 2 s sum_{i<j} y_ij d^{2 theta} / sum mu mu
    d^{2 theta}, with s the top eigenvalue of (L_mu, L_y + 11^T) computed
    here from the reported weights alone."""
    y = np.asarray(emb.to_json()["dual_weights"])
    assert np.array_equal(y, y.T) and np.all(np.diag(y) == 0) and np.min(y) >= 0
    n = y.shape[0]
    L_mu = np.diag(mu) - np.outer(mu, mu)
    L_y = np.diag(y.sum(axis=1)) - y
    s = eigh(L_mu, L_y + np.ones((n, n)), eigvals_only=True)[-1]
    caps = dist ** (2.0 * theta)
    bound = 2.0 * s * np.sum(np.triu(y * caps)) / np.sum(np.outer(mu, mu) * caps)
    return 1.0 / math.sqrt(bound)


@pytest.mark.parametrize("name, dist, theta, d_opt", [
    ("cubic-16", _cubic_graph_metric(16, 1), 0.5, 1.0124),
    ("cubic-32", _cubic_graph_metric(32, 1), 0.5, 1.0248),
    # the subgradient solver stopped on its stall test at D = 1.82 here
    ("linf-cloud-20", _linf_cloud(20, 3, 3), 1.0, 1.1298),
])
def test_certified_optimum(name, dist, theta, d_opt):
    """The dual weights certify the optimum: D_lower, recomputed from the
    reported weights with an independent eigenvalue call, is within 1e-5 of
    the achieved distortion, and both match the known optimum."""
    n = dist.shape[0]
    mu = np.full(n, 1.0 / n)
    emb = embed.average_embed_hilbert(dist, mu, theta)
    rep = emb.to_json()
    assert rep["stop"] == "converged" and rep["iterations"] < 30
    assert rep["gap"] >= 0 and rep["gap"] <= 1e-5 * rep["dual_bound"]
    assert emb.lip_certificate <= 1.0 + 1e-12
    d_lower = _recomputed_d_lower(emb, dist, mu, theta)
    assert d_lower == pytest.approx(rep["D_lower"], rel=1e-9)
    assert d_lower <= emb.d_achieved * (1.0 + 1e-12)
    assert emb.d_achieved <= (1.0 + 1e-5) * d_lower
    assert emb.d_achieved == pytest.approx(d_opt, abs=1e-4)


@pytest.mark.parametrize("dist, mu, theta", [
    (four_cycle_path_metric(), np.full(4, 0.25), 0.5),
    (_linf_cloud(6, 2, 11), np.full(6, 1.0 / 6.0), 1.0),
    (_linf_cloud(8, 3, 12), np.linspace(1.0, 3.0, 8), 0.5),
    (_cubic_graph_metric(10, 2), np.full(10, 0.1), 0.75),
])
def test_spread_at_least_reference_subgradient(dist, mu, theta):
    emb = embed.average_embed_hilbert(dist, mu, theta)
    assert emb.stop == "converged"
    assert emb.spread_certificate >= _reference_subgradient(dist, mu, theta) - 1e-9


def test_certificates_hold_without_convergence(monkeypatch):
    """At the iteration cap, and when a factorization fails at once, the last
    iterate still gives a feasible embedding and a valid dual bound: both
    iterates stay strictly feasible from the start."""
    dist = _linf_cloud(12, 3, 5)
    mu = np.full(12, 1.0 / 12.0)
    monkeypatch.setattr(embed, "MAX_ITERS", 2)
    capped = embed.average_embed_hilbert(dist, mu, 1.0)
    monkeypatch.undo()

    def broken(*args, **kwargs):
        raise LinAlgError("not positive definite")

    # the solver imports cho_factor from scipy.linalg when it runs
    monkeypatch.setattr(scipy.linalg, "cho_factor", broken)
    stalled = embed.average_embed_hilbert(dist, mu, 1.0)
    for emb, stop, iterations in ((capped, "iteration_cap", 2), (stalled, "stalled", 0)):
        assert (emb.stop, emb.iterations) == (stop, iterations)
        assert emb.lip_certificate <= 1.0 + 1e-12
        assert 0.0 < emb.d_lower <= emb.d_achieved
        assert emb.to_json()["gap"] > 1e-3


def test_duality_forward_on_cycle_witness():
    dist = four_cycle_path_metric()
    emb = embed.average_embed_hilbert(dist, np.full(4, 0.25), 0.5)
    rep = embed.duality_forward_check(emb.d_achieved, lazy_four_cycle(), dist, 0.5)
    assert rep["product_ok"]
    assert rep["slack"] >= -1e-9


def test_duality_forward_isometric_euclidean():
    """An exact Euclidean realization with theta = 1 gives D = 1 and the
    inequality reduces to the classical gap bound."""
    chain = lazy_four_cycle()
    angles = 2.0 * np.pi * np.arange(4) / 4.0
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    rep = embed.duality_forward_check(1.0, chain, dist, 1.0)
    assert rep["product_ok"]


def simplex_points(n):
    """Regular simplex with unit edge: Gram matrix I/2 gives squared
    distances 1/2 + 1/2 - 0 = 1 off the diagonal."""
    return np.sqrt(0.5) * np.eye(n)


def test_duality_witness_isometric_equilateral():
    n = 4
    dist = np.ones((n, n)) - np.eye(n)
    pts = simplex_points(n)
    rep = embed.duality_witness_check(np.array([1.0]), pts[None, :, :], dist,
                                      np.full(n, 1.0 / n), 2.0, 1.0, 1.0, 1e-9)
    assert rep["lipschitz_ok"] and rep["average_ok"]


def test_duality_witness_scaled_negative_control():
    n = 4
    dist = np.ones((n, n)) - np.eye(n)
    pts = simplex_points(n)
    rep = embed.duality_witness_check(np.array([1.0]), pts[None, :, :] / 2.0, dist,
                                      np.full(n, 1.0 / n), 2.0, 1.0, 1.0, 1e-9)
    assert not rep["average_ok"]


def test_duality_witness_two_block_weights():
    """Weights chosen so the assembled two-configuration map meets the average
    lower bound with equality."""
    rng = np.random.default_rng(2)
    dist = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]])
    mu = np.array([0.2, 0.5, 0.3])
    theta, q = 1.0, 2.0
    configs = rng.standard_normal((2, 3, 2))
    target = float(np.sum(np.outer(mu, mu) * dist ** (theta * q)))
    weights = []
    for k in range(2):
        diff = configs[k][:, None, :] - configs[k][None, :, :]
        sk = float(np.sum(np.outer(mu, mu) * np.sum(diff**2, axis=2) ** (q / 2.0)))
        weights.append((target / 2.0) / sk)
    weights = np.array(weights)
    # the Lipschitz constant of the assembled map is whatever it is; pass it in
    probe = embed.duality_witness_check(weights, configs, dist, mu, q, theta,
                                        1e9, 1e-9)
    rep = embed.duality_witness_check(weights, configs, dist, mu, q, theta,
                                      probe["lip"], 1e-9)
    assert rep["lipschitz_ok"] and rep["average_ok"]


def test_duality_witness_rejects_empty():
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(EmptyDecomposition):
        embed.duality_witness_check(np.array([]), np.zeros((0, 2, 1)), dist,
                                    [0.5, 0.5], 2.0, 1.0, 1.0, 1e-9)


def test_growth_band_on_cube_corners():
    from nsgap.suite import hypercube_corners, linf_metric
    ratios = {}
    for d in (2, 4, 8):
        corners = hypercube_corners(d, None if d <= 4 else 32)
        dist = linf_metric(corners)
        n = corners.shape[0]
        emb = embed.average_embed_hilbert(dist, np.full(n, 1.0 / n), 0.5)
        ratios[d] = emb.d_achieved / math.sqrt(math.log(d + 1.0))
    base = ratios[2]
    assert all(base / 10.0 <= r <= 10.0 * base for r in ratios.values())
