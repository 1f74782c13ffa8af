import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from nsgap import expander, markov, rayleigh
from nsgap.errors import (
    Disconnected,
    NotReversibleChain,
    ParityViolation,
    UnsupportedSpace,
    ValidationError,
)
from nsgap.spaces import MetricSpace


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


def test_lp_gap_check_hilbert_exact():
    chain = expander.graph_chain(complete_graph_four())
    rep = expander.lp_gap_check(chain, 2.0, dim=4)
    assert rep["heuristic_gamma"] == pytest.approx(0.75, abs=1e-9)
    assert rep["bound"] == pytest.approx(3.0, abs=1e-9)
    assert rep["ratio"] == pytest.approx(0.25, abs=1e-9)
    assert not rep["vacuous"]


def test_lp_gap_check_l4_below_bound():
    chain = expander.graph_chain(four_cycle_graph())
    lazy = markov.lazy_power(chain, 1)
    rep = expander.lp_gap_check(lazy, 4.0, dim=4)
    assert rep["bound"] == pytest.approx(32.0, abs=1e-9)
    assert rep["ratio"] is None or rep["ratio"] <= 1.0 + 1e-9
    assert not rep["vacuous"]


def test_lp_gap_check_takes_the_gap_of_estimate_gap():
    """The l_2 case is the closed form and l_4 the heuristic, as chosen by
    rayleigh.estimate_gap over squared l_p distances."""
    cases = [(expander.graph_chain(complete_graph_four()), 2.0, "exact_hilbert"),
             (markov.lazy_power(expander.graph_chain(four_cycle_graph()), 1), 4.0,
              "heuristic_lower_bound")]
    for chain, p, kind in cases:
        rep = expander.lp_gap_check(chain, p, dim=4)
        est = rayleigh.estimate_gap(chain, MetricSpace.lp(p, 4), 2.0,
                                    restarts=8, iters=200, seed=0)
        assert est.kind == kind
        assert rep["heuristic_gamma"] == est.value


def test_lp_gap_check_identity_vacuous():
    ident = markov.build_reversible_chain(np.eye(3), np.full(3, 1.0 / 3.0))
    rep = expander.lp_gap_check(ident, 2.0, dim=3)
    assert rep["vacuous"]


def test_lp_gap_check_rejects_small_p():
    chain = expander.graph_chain(complete_graph_four())
    with pytest.raises(ValidationError):
        expander.lp_gap_check(chain, 1.5, dim=4)


def test_cubic_graphs_concentrate_below_095():
    """Cubic expanders: lambda_2 of the walk should fall below 0.95 for at
    least 95 of 100 seeds at each size."""
    for n in (16, 32, 64):
        hits = 0
        for seed in range(100):
            g = expander.random_regular_graph(n, 3, seed)
            A = g.adjacency_matrix() / 3.0
            lam2 = float(np.sort(np.linalg.eigvalsh(A))[-2])
            if lam2 <= 0.95:
                hits += 1
        assert hits >= 95, f"n={n}: only {hits}/100 seeds had lambda_2 <= 0.95"


def test_graph_edge_text_roundtrip():
    g = complete_graph_four()
    text = "\n".join(f"{u} {v}" for u, v in g.edges)
    again = expander.graph_from_edge_text(text)
    assert again.edges == g.edges
    assert again.d == 3 and again.connected


def test_graph_edge_text_rejects_irregular():
    with pytest.raises(ValidationError):
        expander.graph_from_edge_text("0 1\n1 2")


def test_graph_edge_text_rejects_self_loops():
    # without the check this parses as a "3-regular" graph on 2 vertices
    with pytest.raises(ValidationError, match="self-loop"):
        expander.graph_from_edge_text("0 0\n1 1\n0 1")


def test_graph_edge_text_rejects_repeated_edges():
    # a doubled edge, in either orientation, would read as a 2-regular graph
    for text in ("0 1\n0 1", "0 1\n1 0"):
        with pytest.raises(ValidationError, match="repeated edge"):
            expander.graph_from_edge_text(text)


def test_graph_json():
    g = four_cycle_graph()
    out = expander.graph_to_json(g)
    assert out["n"] == 4 and out["d"] == 2 and out["connected"]
    assert [0, 1] in out["edges"]


def test_lp_gap_check_rejects_nonreversible():
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    chain = markov.StochasticChain(n=3, A=A, pi=np.full(3, 1.0 / 3.0),
                                   reversible=False)
    with pytest.raises(NotReversibleChain):
        expander.lp_gap_check(chain, 2.0, dim=3)
