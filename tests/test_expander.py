import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from nsgap import expander, markov
from nsgap.errors import (
    Disconnected,
    ParityViolation,
    ResampleBudgetExceeded,
    UnsupportedSpace,
    ValidationError,
)


def complete_graph_four():
    return expander.random_regular_graph(4, 3, seed=0)


def four_cycle_graph():
    return expander.RegularGraph(
        n=4, d=2, edges=((0, 1), (0, 3), (1, 2), (2, 3)), connected=True
    )


def two_triangles():
    return expander.RegularGraph(
        n=6, d=2,
        edges=((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)),
        connected=False,
    )


def test_unique_cubic_graph_on_four_vertices():
    """K4 is the only simple 3-regular graph on 4 vertices, so every seed
    must return it."""
    for seed in range(5):
        g = expander.random_regular_graph(4, 3, seed)
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert g.connected


def test_random_cubic_graph_is_simple_and_regular():
    g = expander.random_regular_graph(8, 3, seed=1)
    assert g.n == 8 and g.d == 3
    assert len(g.edges) == 12
    assert len(set(g.edges)) == 12
    assert all(u < v for u, v in g.edges)
    deg = np.zeros(8, dtype=int)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    assert np.all(deg == 3)
    assert g.connected


def test_same_seed_same_graph():
    a = expander.random_regular_graph(16, 3, seed=7)
    b = expander.random_regular_graph(16, 3, seed=7)
    assert a.edges == b.edges


def test_parity_violation():
    with pytest.raises(ParityViolation):
        expander.random_regular_graph(5, 3, seed=0)


def test_size_guards():
    with pytest.raises(ValidationError):
        expander.random_regular_graph(4, 2, seed=0)
    with pytest.raises(ValidationError):
        expander.random_regular_graph(3, 3, seed=0)


def test_complete_graph_chain_spectrum():
    chain = expander.graph_chain(complete_graph_four())
    data = markov.spectral_data(chain)
    assert data.lambda2 == pytest.approx(-1.0 / 3.0, abs=1e-10)
    assert data.gamma_classical == pytest.approx(0.75, abs=1e-10)
    np.testing.assert_allclose(chain.pi, np.full(4, 0.25))


def test_four_cycle_chain_spectrum():
    chain = expander.graph_chain(four_cycle_graph())
    data = markov.spectral_data(chain)
    assert data.lambda2 == pytest.approx(0.0, abs=1e-10)


def test_disconnected_graph_has_unit_lambda2():
    chain = expander.graph_chain(two_triangles())
    data = markov.spectral_data(chain)
    assert data.lambda2 == pytest.approx(1.0, abs=1e-10)
    assert data.gamma_classical == float("inf")


def test_distance_spread_complete_graph():
    rep = expander.distance_spread_check(complete_graph_four())
    assert rep["threshold"] == 0
    assert rep["count"] == 4
    assert rep["holds"]


def test_distance_spread_cubic_sixteen():
    g = expander.random_regular_graph(16, 3, seed=3)
    rep = expander.distance_spread_check(g)
    assert rep["threshold"] == math.floor(math.log(8.0) / math.log(3.0))
    assert rep["holds"]


def test_distance_spread_rejects_disconnected():
    with pytest.raises(Disconnected):
        expander.distance_spread_check(two_triangles())


def test_bfs_distances_on_cycle():
    dist = expander.bfs_distances(four_cycle_graph(), 0)
    np.testing.assert_array_equal(dist, [0, 1, 2, 1])


def _reference_bfs(g, source):
    """Plain queue BFS; unreachable vertices keep the uint16 maximum."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    unreachable = np.iinfo(np.uint16).max
    dist = np.full(g.n, unreachable, dtype=np.uint16)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == unreachable:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def test_graph_searches_match_reference_bfs():
    graphs = [expander.random_regular_graph(n, d, seed)
              for n, d, seed in ((16, 3, 0), (32, 3, 1), (30, 4, 2), (64, 3, 3))]
    for g in graphs + [two_triangles()]:
        rows = [_reference_bfs(g, u) for u in range(g.n)]
        for u, row in enumerate(rows):
            dist = expander.bfs_distances(g, u)
            assert dist.dtype == np.uint16
            np.testing.assert_array_equal(dist, row)
        if not g.connected:
            continue
        rep = expander.distance_spread_check(g)
        assert rep["count"] == min(int(np.sum(r >= rep["threshold"])) for r in rows)


def test_graph_size_cap_precedes_dense_arrays():
    """Past the spectral cap both dense paths refuse before allocating."""
    g = expander.RegularGraph(n=100_000, d=3, edges=((0, 1),), connected=True)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedSpace):
            expander.graph_chain(g)
        with pytest.raises(UnsupportedSpace):
            expander.distance_spread_check(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dimension_lower_bound_values():
    # 16^{ln 4 / (1 * 1 * ln 4)} = 16
    assert expander.dimension_lower_bound(16, 4, 1.0, 1.0, math.log(4.0)) \
        == pytest.approx(16.0, abs=1e-9)
    # infinite gap or distortion makes the bound vacuous
    assert expander.dimension_lower_bound(16, 4, float("inf"), 1.0, 1.0) == 1.0
    assert expander.dimension_lower_bound(16, 4, 1.0, float("inf"), 1.0) == 1.0
    with pytest.raises(ValidationError):
        expander.dimension_lower_bound(1, 4, 1.0, 1.0, 1.0)


def test_avg_distortion_lower_bound_values():
    # log_4(16) / 2^{1/2} = 2 / sqrt(2)
    assert expander.avg_distortion_lower_bound(16, 4, 2.0, 2.0) \
        == pytest.approx(math.sqrt(2.0), abs=1e-12)
    with pytest.raises(ValidationError):
        expander.avg_distortion_lower_bound(16, 4, 0.0, 2.0)


def test_coarse_obstruction_values():
    # (2 * 2)^{1/1} * 1 = 4
    assert expander.coarse_obstruction(2.0, 1.0, 1.0) == pytest.approx(4.0)
    # p = 2 halves the exponent
    assert expander.coarse_obstruction(2.0, 3.0, 2.0) \
        == pytest.approx(6.0, abs=1e-12)


def test_cubic_graphs_concentrate_below_095():
    """Cubic expanders: lambda_2 of the walk should fall below 0.95 for at
    least 95 of 100 seeds at each size."""
    for n in (16, 32, 64):
        hits = 0
        for seed in range(100):
            g = expander.random_regular_graph(n, 3, seed)
            A = g.adjacency().toarray() / 3.0
            lam2 = float(np.sort(np.linalg.eigvalsh(A))[-2])
            if lam2 <= 0.95:
                hits += 1
        assert hits >= 95, f"n={n}: only {hits}/100 seeds had lambda_2 <= 0.95"


def test_graph_json():
    g = four_cycle_graph()
    out = expander.graph_to_json(g)
    assert out["n"] == 4 and out["d"] == 2 and out["connected"]
    assert [0, 1] in out["edges"]


# --- batched sampler against the sequential one ------------------------------

def _upper_adjacency(n, edges):
    """One triangle of the adjacency, built apart from RegularGraph's."""
    from scipy.sparse import csr_matrix

    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return csr_matrix((np.ones(u.size), (u, v)), shape=(n, n))


def _connected(n, edges):
    from scipy.sparse.csgraph import connected_components

    return connected_components(_upper_adjacency(n, edges), directed=False,
                                return_labels=False) == 1


def _reference_sampler(n, d, seed):
    """The sequential sampler: one rng.permutation per attempt.  Returns the
    edge tuple, or raises ResampleBudgetExceeded."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, d]))
    stubs = np.repeat(np.arange(n), d)
    for _ in range(expander.RESAMPLE_BUDGET):
        pairs = rng.permutation(stubs).reshape(-1, 2)
        us, vs = pairs[:, 0], pairs[:, 1]
        if np.any(us == vs):
            continue
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        keys = lo.astype(np.int64) * n + hi
        if np.unique(keys).size != keys.size:
            continue
        edges = tuple(sorted(zip(lo.tolist(), hi.tolist())))
        if _connected(n, edges):
            return edges
    raise ResampleBudgetExceeded("budget")


def _outcome(sample, n, d, seed):
    try:
        out = sample(n, d, seed)
    except ResampleBudgetExceeded:
        return "budget"
    return out if isinstance(out, tuple) else out.edges


SAMPLER_CASES = (
    [(n, 3, seed) for n in (4, 6, 8, 10, 16, 32, 64, 128) for seed in range(70)]
    + [(n, 4, seed) for n in (5, 6, 9, 16, 32, 64) for seed in range(55)]
    + [(n, 5, seed) for n in (8, 12, 16) for seed in range(20)]
    + [(n, 6, seed) for n in (7, 9, 16) for seed in range(12)]
    + [(n, 7, seed) for n in (10, 16) for seed in range(12)]
    # near-complete: K_8 never comes out within the budget, K_6 sometimes does
    + [(8, 7, seed) for seed in range(10)] + [(6, 5, seed) for seed in range(20)]
    # one stub array above DRAW_BATCH_CAP, so each batch is a single shuffle
    + [(21_846, 3, seed) for seed in range(2)]
)


def test_batched_sampler_matches_sequential_reference():
    assert len(SAMPLER_CASES) >= 1000
    assert 21_846 * 3 > expander.DRAW_BATCH_CAP
    outcomes = set()
    for n, d, seed in SAMPLER_CASES:
        want = _outcome(_reference_sampler, n, d, seed)
        assert _outcome(expander.random_regular_graph, n, d, seed) == want, (n, d, seed)
        outcomes.add((n, d, want == "budget"))
    # both outcomes occur, at d = 5 and on K_6
    assert {(8, 7, True), (6, 5, True), (6, 5, False), (16, 5, True),
            (16, 5, False), (128, 3, False), (21_846, 3, False)} <= outcomes


class _RecordingRng:
    """A Generator that records the shape of every batch it shuffles."""

    def __init__(self, rng, shapes):
        self.rng, self.shapes = rng, shapes

    def permuted(self, x, axis):
        self.shapes.append(x.shape)
        return self.rng.permuted(x, axis=axis)


def test_draw_batches_stay_within_cap_and_budget(monkeypatch):
    shapes = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _RecordingRng(default_rng(seed), shapes))
    with pytest.raises(ResampleBudgetExceeded):
        expander.random_regular_graph(8, 7, seed=0)
    assert sum(k for k, _ in shapes) == expander.RESAMPLE_BUDGET
    assert [k for k, _ in shapes[:3]] == [8, 16, 32]
    for n, d in ((2_000, 4), (21_846, 3)):
        shapes.clear()
        expander.random_regular_graph(n, d, seed=1)
        assert max(k * m for k, m in shapes) <= max(expander.DRAW_BATCH_CAP, n * d)
    assert {k for k, _ in shapes} == {1}


# --- ball-count spread check against all-pairs distances ---------------------

def _reference_spread(g, threshold):
    """Fewest vertices at distance >= threshold from one source, by all-pairs
    shortest paths."""
    from scipy.sparse.csgraph import shortest_path

    dist = shortest_path(_upper_adjacency(g.n, g.edges), directed=False, unweighted=True)
    return int(np.min(np.sum(dist >= threshold, axis=1)))


def test_spread_threshold_is_the_integer_floor():
    for n in range(1, 4097):
        for d in range(2, 40):
            t = expander._spread_threshold(n, d)
            assert t == 0 or 2 * d ** t <= n
            assert 2 * d ** (t + 1) > n
    misfloored = {(n, d) for n in range(2, 4097) for d in range(3, 40)
                  if expander._spread_threshold(n, d)
                  != math.floor(math.log(n / 2.0) / math.log(d))}
    assert misfloored == {(486, 3), (2000, 10)}


def test_ball_count_matches_all_pairs_reference():
    # thresholds 0 (n < 2d) through 4 (2 d^4 <= n)
    sizes = ((4, 3), (6, 4), (8, 3), (16, 3), (32, 3), (30, 4), (64, 3),
             (128, 3), (128, 4), (200, 3), (256, 3), (600, 4))
    seen = set()
    for n, d in sizes:
        for seed in range(4):
            g = expander.random_regular_graph(n, d, seed)
            rep = expander.distance_spread_check(g)
            seen.add(rep["threshold"])
            assert rep["count"] == _reference_spread(g, rep["threshold"]), (n, d, seed)
            assert rep["holds"] == (rep["count"] >= n / 2.0)
    assert seen == {0, 1, 2, 3, 4}


def test_spread_threshold_at_exact_powers():
    """2 * 3^5 = 486 and 2 * 10^3 = 2000 give thresholds 5 and 3; the float
    quotient of logs gave 4 and 2."""
    g = expander.random_regular_graph(486, 3, seed=0)
    rep = expander.distance_spread_check(g)
    assert rep["threshold"] == 5
    assert rep["count"] == _reference_spread(g, 5)
    # circulant: i ~ i +- 1..5 (mod 2000), so 21 vertices lie within 2 hops
    n = 2000
    edges = tuple(sorted({(min(i, (i + s) % n), max(i, (i + s) % n))
                          for i in range(n) for s in range(1, 6)}))
    circulant = expander.RegularGraph(n=n, d=10, edges=edges, connected=True)
    rep = expander.distance_spread_check(circulant)
    assert rep == {"threshold": 3, "count": n - 21, "holds": True}
    assert rep["count"] == _reference_spread(circulant, 3)


def test_spread_rechecks_connectivity():
    """A graph tagged connected on a disconnected edge list is refused."""
    g = expander.RegularGraph(n=6, d=2, edges=two_triangles().edges, connected=True)
    with pytest.raises(Disconnected):
        expander.distance_spread_check(g)


def test_spread_rejects_degree_below_two():
    g = expander.RegularGraph(n=2, d=1, edges=((0, 1),), connected=True)
    with pytest.raises(ValidationError):
        expander.distance_spread_check(g)


def test_spread_check_memory_at_the_cap():
    """At n = 4096 the column blocks keep the traced peak far below one
    n x n float64 distance matrix (134 MB)."""
    g = expander.random_regular_graph(4096, 3, seed=0)
    g.adjacency()
    tracemalloc.start()
    try:
        rep = expander.distance_spread_check(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["threshold"] == 6 and rep["holds"]
    assert peak < 16 << 20


def test_adjacency_is_cached_and_read_only():
    g = expander.random_regular_graph(16, 3, seed=2)
    adj = g.adjacency()
    assert g.adjacency() is adj
    for arr in (adj.data, adj.indices, adj.indptr):
        with pytest.raises(ValueError):
            arr[0] = 7
    np.testing.assert_array_equal(expander.graph_chain(g).A, adj.toarray() / 3.0)
