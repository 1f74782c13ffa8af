"""Random regular graphs, graph walks, and expander bound calculators.

Graphs are sampled from the configuration model (pair a random shuffle of
degree stubs) and resampled until simple and connected, which preserves the
uniform distribution over simple outcomes.  The bound calculators evaluate
the dimension, average-distortion and coarse-obstruction formulas with
explicit calibration constants, natural logarithms throughout.
"""

from __future__ import annotations

import functools
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
# stub entries one batch of candidate shuffles may hold
DRAW_BATCH_CAP = 65_536
# float64 entries of one column block of walk counts in the spread check
SPREAD_BLOCK = 1 << 19
GRAPH_N_CAP = 100_000


@dataclass(frozen=True)
class RegularGraph:
    n: int
    d: int
    edges: tuple  # tuple of (u, v) pairs, u < v
    connected: bool

    def adjacency(self):
        """Sparse symmetric adjacency of the edge list (a scipy csr_matrix);
        every graph search and the dense walk matrix are built from it.  It is
        built once per graph, and its arrays are read-only."""
        return self._adjacency

    @functools.cached_property
    def _adjacency(self):
        from scipy.sparse import csr_matrix

        n = self.n
        u, v = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        # both orientations of every edge as keys row*n + col, in row-major order
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        adj = csr_matrix((np.ones(keys.size), keys % n, indptr), shape=(n, n))
        for arr in (adj.data, adj.indices, adj.indptr):
            arr.flags.writeable = False
        return adj


def check_spectral_size(n: int) -> None:
    """Reject graphs on n vertices whose dense n x n arrays the spectral cap
    forbids, before any of them (or the graph itself) is allocated."""
    if n > SPECTRAL_N_CAP:
        raise UnsupportedSpace(f"dense graph ops capped at n = {SPECTRAL_N_CAP}")


def _is_connected(g: RegularGraph) -> bool:
    from scipy.sparse.csgraph import connected_components

    # the adjacency is symmetric, so its strong components are its components,
    # and the strong search needs no transpose
    return connected_components(g.adjacency(), directed=True, connection="strong",
                                 return_labels=False) == 1


def random_regular_graph(n: int, d: int, seed: int) -> RegularGraph:
    """Uniform-ish d-regular simple connected graph via the configuration
    model: shuffle n*d degree stubs, pair them up, resample on loops,
    multi-edges or disconnection.

    Candidates are drawn k at a time with one `rng.permuted` call, whose rows
    are those of k successive `rng.permutation(stubs)` calls; they are tried
    in order, so a seed gives the graph of the first good shuffle, and the
    budget counts shuffles.  k starts at 8 and doubles, within DRAW_BATCH_CAP
    stub entries."""
    if d < 3 or n <= d:
        raise ValidationError("need d >= 3 and n > d")
    if (n * d) % 2 != 0:
        raise ParityViolation(f"n*d = {n * d} is odd, no {d}-regular graph on {n} vertices")
    if n > GRAPH_N_CAP:
        raise ValidationError(f"graph size capped at {GRAPH_N_CAP}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, d]))
    stubs = np.repeat(np.arange(n), d)
    cap = max(1, DRAW_BATCH_CAP // stubs.size)
    drawn, batch = 0, 8
    while drawn < RESAMPLE_BUDGET:
        k = min(batch, cap, RESAMPLE_BUDGET - drawn)
        drawn, batch = drawn + k, 2 * batch
        shuffles = rng.permuted(np.broadcast_to(stubs, (k, stubs.size)), axis=1)
        us, vs = shuffles[:, 0::2], shuffles[:, 1::2]
        loopless = ~np.any(us == vs, axis=1)
        us, vs = us[loopless], vs[loopless]
        # each row's edges as sorted keys lo*n + hi; a repeated key is a multi-edge
        keys = np.sort(np.minimum(us, vs).astype(np.int64) * n + np.maximum(us, vs), axis=1)
        for row in keys[np.all(np.diff(keys, axis=1) != 0, axis=1)]:
            # kept only once the check confirms the connected tag
            g = RegularGraph(n=n, d=d, edges=tuple(zip((row // n).tolist(), (row % n).tolist())),
                             connected=True)
            if _is_connected(g):
                return g
    raise ResampleBudgetExceeded(
        f"no simple connected sample in {RESAMPLE_BUDGET} attempts"
    )


def graph_chain(g: RegularGraph) -> StochasticChain:
    """Normalized adjacency walk with uniform stationary distribution."""
    check_spectral_size(g.n)
    A = g.adjacency().toarray() / g.d
    pi = np.full(g.n, 1.0 / g.n)
    return build_reversible_chain(A, pi)


def bfs_distances(g: RegularGraph, source: int) -> np.ndarray:
    """Hop counts from `source`; the uint16 maximum marks unreachable vertices."""
    from scipy.sparse.csgraph import shortest_path

    dist = shortest_path(g.adjacency(), unweighted=True, indices=source)
    unreachable = np.iinfo(np.uint16).max
    return np.where(np.isinf(dist), unreachable, dist).astype(np.uint16)


def _spread_threshold(n: int, d: int) -> int:
    """floor(log_d(n/2)) in integers: the largest t >= 0 with 2 d^t <= n.  (The
    float quotient of logs misfloors at exact powers, such as n = 2 * 3^5.)"""
    if d < 2:
        raise ValidationError("the distance spread needs d >= 2")
    t = 0
    while 2 * d ** (t + 1) <= n:
        t += 1
    return t


def distance_spread_check(g: RegularGraph) -> dict:
    """From every vertex, at least n/2 vertices should sit at graph distance
    at least floor(log_d(n/2)); reports the worst count over sources.

    A source's count is n less the vertices within threshold - 1 hops: the
    nonzero entries of its column of (I + A)^(threshold - 1), taken by sparse
    products over column blocks of SPREAD_BLOCK entries."""
    check_spectral_size(g.n)
    threshold = _spread_threshold(g.n, g.d)
    if not g.connected or not _is_connected(g):
        raise Disconnected("distance spread is defined for connected graphs")
    adj = g.adjacency()
    within = 0  # the most vertices within threshold - 1 hops of one source
    if threshold > 0:
        width = max(1, SPREAD_BLOCK // g.n)
        for lo in range(0, g.n, width):
            walks = np.eye(g.n, min(width, g.n - lo), -lo)  # sources lo, lo + 1, ...
            for _ in range(threshold - 1):
                walks += adj @ walks
            within = max(within, int(np.count_nonzero(walks, axis=0).max()))
    min_count = g.n - within
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

def graph_to_json(g: RegularGraph) -> dict:
    return {"n": g.n, "d": g.d, "edges": [list(e) for e in g.edges],
            "connected": g.connected}
