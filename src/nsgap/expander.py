"""Random regular graphs, graph walks, and expander bound calculators.

Graphs are sampled from the configuration model (pair a random shuffle of
degree stubs) and resampled until simple and connected, which preserves the
uniform distribution over simple outcomes.  The bound calculators evaluate
the dimension, average-distortion and coarse-obstruction formulas with
explicit calibration constants, natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    Disconnected,
    NotReversibleChain,
    ParityViolation,
    ResampleBudgetExceeded,
    UnsupportedSpace,
    ValidationError,
)
from .markov import SPECTRAL_N_CAP, StochasticChain, build_reversible_chain, spectral_data
from .rayleigh import estimate_gap
from .spaces import MetricSpace

RESAMPLE_BUDGET = 1000
GRAPH_N_CAP = 100_000


@dataclass(frozen=True)
class RegularGraph:
    n: int
    d: int
    edges: tuple  # tuple of (u, v) pairs, u < v
    connected: bool

    def adjacency(self):
        """Sparse symmetric adjacency of the edge list (a scipy csr_matrix);
        every graph search and the dense walk matrix are built from it."""
        from scipy.sparse import csr_matrix

        u, v = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        return csr_matrix((np.ones(rows.size), (rows, cols)), shape=(self.n, self.n))

    def adjacency_matrix(self) -> np.ndarray:
        return self.adjacency().toarray()


def check_spectral_size(n: int) -> None:
    """Reject graphs on n vertices whose dense n x n arrays the spectral cap
    forbids, before any of them (or the graph itself) is allocated."""
    if n > SPECTRAL_N_CAP:
        raise UnsupportedSpace(f"dense graph ops capped at n = {SPECTRAL_N_CAP}")


def _is_connected(g: RegularGraph) -> bool:
    from scipy.sparse.csgraph import connected_components

    return connected_components(g.adjacency(), directed=False,
                                 return_labels=False) == 1


def random_regular_graph(n: int, d: int, seed: int) -> RegularGraph:
    """Uniform-ish d-regular simple connected graph via the configuration
    model: shuffle n*d degree stubs, pair them up, resample on loops,
    multi-edges or disconnection."""
    if d < 3 or n <= d:
        raise ValidationError("need d >= 3 and n > d")
    if (n * d) % 2 != 0:
        raise ParityViolation(f"n*d = {n * d} is odd, no {d}-regular graph on {n} vertices")
    if n > GRAPH_N_CAP:
        raise ValidationError(f"graph size capped at {GRAPH_N_CAP}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, d]))
    stubs = np.repeat(np.arange(n), d)
    for _ in range(RESAMPLE_BUDGET):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        us, vs = pairs[:, 0], pairs[:, 1]
        if np.any(us == vs):
            continue
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        keys = lo.astype(np.int64) * n + hi
        if np.unique(keys).size != keys.size:
            continue
        edges = tuple(sorted(zip(lo.tolist(), hi.tolist())))
        if _is_connected(RegularGraph(n=n, d=d, edges=edges, connected=False)):
            return RegularGraph(n=n, d=d, edges=edges, connected=True)
    raise ResampleBudgetExceeded(
        f"no simple connected sample in {RESAMPLE_BUDGET} attempts"
    )


def graph_chain(g: RegularGraph) -> StochasticChain:
    """Normalized adjacency walk with uniform stationary distribution."""
    check_spectral_size(g.n)
    A = g.adjacency_matrix() / g.d
    pi = np.full(g.n, 1.0 / g.n)
    return build_reversible_chain(A, pi)


def bfs_distances(g: RegularGraph, source: int) -> np.ndarray:
    """Hop counts from `source`; the uint16 maximum marks unreachable vertices."""
    from scipy.sparse.csgraph import shortest_path

    dist = shortest_path(g.adjacency(), unweighted=True, indices=source)
    unreachable = np.iinfo(np.uint16).max
    return np.where(np.isinf(dist), unreachable, dist).astype(np.uint16)


def distance_spread_check(g: RegularGraph) -> dict:
    """From every vertex, at least n/2 vertices should sit at graph distance
    at least floor(log_d(n/2)); reports the worst count over sources."""
    from scipy.sparse.csgraph import shortest_path

    check_spectral_size(g.n)
    # every hop count is finite exactly when the graph is connected
    dist = shortest_path(g.adjacency(), unweighted=True)
    if not g.connected or np.isinf(dist).any():
        raise Disconnected("distance spread is defined for connected graphs")
    threshold = math.floor(math.log(g.n / 2.0) / math.log(g.d))
    min_count = int(np.min(np.sum(dist >= threshold, axis=1)))
    return {"threshold": threshold, "count": min_count,
            "holds": bool(min_count >= g.n / 2.0)}


def dimension_lower_bound(n: int, d: int, gamma: float, D: float, c_q: float) -> float:
    """n^{c_q / (gamma D ln d)}: the least dimension a normed space needs to
    q-average embed the graph metric with distortion D; q enters only
    through the constant c_q."""
    if n < 2 or d < 2 or gamma <= 0 or D <= 0 or c_q < 0:
        raise ValidationError("arguments must be positive with n, d >= 2")
    if math.isinf(gamma) or math.isinf(D):
        return 1.0
    return float(n ** (c_q / (gamma * D * math.log(d))))


def avg_distortion_lower_bound(n: int, d: int, gamma: float, q: float) -> float:
    """log_d(n) / gamma^{1/q}, the constant-free average-distortion lower
    bound for embedding an expander."""
    if n < 2 or d < 2 or gamma <= 0 or q <= 0:
        raise ValidationError("arguments must be positive with n, d >= 2")
    return float(math.log(n) / math.log(d) / gamma ** (1.0 / q))


def coarse_obstruction(gamma: float, Omega1: float, p: float) -> float:
    """Cap on the lower modulus of any equi-coarse embedding family of an
    n-vertex d-regular expander at radius floor(log_d(n/2)): omega at that
    radius cannot exceed (2 gamma)^{1/p} Omega1, whatever n and d."""
    if gamma <= 0 or Omega1 < 0 or p <= 0:
        raise ValidationError("arguments must be positive")
    return float((2.0 * gamma) ** (1.0 / p) * Omega1)


def lp_gap_check(chain: StochasticChain, p: float, dim: int) -> dict:
    """Compare the heuristic gap over squared l_p distances (8 restarts of
    200 iterations, seed 0) with the analytic form p^2/(1 - lambda_2)
    (implicit constant 1, logged via the ratio)."""
    if not chain.reversible:
        raise NotReversibleChain("the comparison requires a reversible chain")
    if p < 2.0:
        raise ValidationError("the comparison is stated for p >= 2")
    data = spectral_data(chain)
    if data.lambda2 >= 1.0 - 1e-12:
        return {"heuristic_gamma": float("inf"), "bound": float("inf"),
                "ratio": None, "vacuous": True}
    bound = p * p / (1.0 - data.lambda2)
    est = estimate_gap(chain, MetricSpace.lp(p, dim), 2.0, restarts=8, iters=200, seed=0)
    ratio = None if math.isinf(est.value) else est.value / bound
    return {"heuristic_gamma": est.value, "bound": bound, "ratio": ratio,
            "vacuous": False}


# --- I/O -------------------------------------------------------------------

def graph_from_edge_text(text: str) -> RegularGraph:
    """One 'u v' pair per line, 0-indexed; the graph must be simple (no
    self-loops or repeated edges) and regular."""
    edges = []
    for line in text.strip().splitlines():
        if not line.strip():
            continue
        u, v = (int(tok) for tok in line.split())
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        edges.append((min(u, v), max(u, v)))
    if not edges:
        raise ValidationError("empty edge list")
    if len(set(edges)) != len(edges):
        raise ValidationError("repeated edge")
    n = max(max(e) for e in edges) + 1
    deg = np.zeros(n, dtype=int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if np.unique(deg).size != 1:
        raise ValidationError("graph is not regular")
    g = RegularGraph(n=n, d=int(deg[0]), edges=tuple(sorted(edges)), connected=False)
    return RegularGraph(n=n, d=int(deg[0]), edges=g.edges, connected=_is_connected(g))


def graph_to_json(g: RegularGraph) -> dict:
    return {"n": g.n, "d": g.d, "edges": [list(e) for e in g.edges],
            "connected": g.connected}
