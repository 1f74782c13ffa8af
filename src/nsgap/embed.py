"""Average-distortion Hilbert embeddings of finite metrics.

Given a finite metric d, a probability weight mu and a snowflake exponent
theta, the solver maximizes the weighted average of squared embedded
distances subject to the pairwise Lipschitz caps

    G_ii + G_jj - 2 G_ij <= d(i,j)^{2 theta},   G >= 0 (PSD),

by projected subgradient ascent on the Gram matrix, warm-started from
classical multidimensional scaling.  The achieved quadratic average
distortion is the Lipschitz certificate over the square root of the
normalized average spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDecomposition,
    NotReversibleChain,
    SizeMismatch,
    SolverStalled,
    UnsupportedSpace,
    ZeroWeight,
)
from .markov import StochasticChain, spectral_data
from .spaces import MetricSpace, _validate_finite_metric, pair_norms

MAX_ITERS = 5000
STALL_WINDOW = 200
STALL_EPS = 1e-10


@dataclass(frozen=True)
class GramEmbedding:
    G: np.ndarray  # n x n PSD Gram matrix
    factor: np.ndarray  # n x r with factor factor^T = G
    lip_certificate: float  # max ||f_i - f_j|| / d(i,j)^theta
    spread_certificate: float  # avg squared embedded distance over avg d^{2 theta}
    iterations: int = 0

    def __post_init__(self):
        self.G.setflags(write=False)
        self.factor.setflags(write=False)

    @property
    def d_achieved(self) -> float:
        if self.spread_certificate <= 0:
            return float("inf")
        return self.lip_certificate / math.sqrt(self.spread_certificate)

    def to_json(self) -> dict:
        return {
            "G": self.G.tolist(),
            "factor": self.factor.tolist(),
            "lip": self.lip_certificate,
            "spread": self.spread_certificate,
            "D_achieved": "inf" if math.isinf(self.d_achieved) else self.d_achieved,
            "iterations": self.iterations,
        }


def _check_weights(mu, n: int) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise SizeMismatch("weights must match the point count")
    if np.min(mu) <= 0:
        raise ZeroWeight("weights must be strictly positive")
    return mu / mu.sum()


def _euclidean_pair_norms(diffs: np.ndarray) -> np.ndarray:
    return pair_norms(MetricSpace.lp(2.0, diffs.shape[-1]), diffs)[0]


def _psd_project(G: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((G + G.T) / 2.0)
    vals = np.maximum(vals, 0.0)
    return (vecs * vals) @ vecs.T


def _sq_dists(G: np.ndarray) -> np.ndarray:
    diag = np.diag(G)
    return diag[:, None] + diag[None, :] - 2.0 * G


def _feasible_rescale(G: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Scale G down just enough that every Lipschitz cap holds exactly."""
    sq = _sq_dists(G)
    off = ~np.eye(G.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(sq[off] > 0, caps[off] / sq[off], np.inf)
    s = min(1.0, float(np.min(ratios)) if ratios.size else 1.0)
    return G * s


def average_embed_hilbert(dist, mu, theta: float) -> GramEmbedding:
    """Maximize the mu-average of squared embedded distances subject to the
    snowflaked Lipschitz caps; returns the factorized embedding with its
    Lipschitz and spread certificates."""
    dist = _validate_finite_metric(dist, positive=True)
    n = dist.shape[0]
    mu = _check_weights(mu, n)
    if not (0.0 < theta <= 1.0):
        raise UnsupportedSpace("snowflake exponent must be in (0, 1]")
    caps = dist ** (2.0 * theta)
    weight = np.outer(mu, mu)
    grad = 2.0 * (np.diag(mu) - weight)  # gradient of the (linear) objective
    total = float(np.sum(weight * caps))

    def objective(G):
        return float(np.sum(weight * _sq_dists(G)))

    # classical MDS warm start with mu-weighted centering
    J = np.eye(n) - np.outer(np.ones(n), mu)
    G = _psd_project(-0.5 * J @ caps @ J.T)
    G = _feasible_rescale(G, caps)
    best_G, best_obj = G.copy(), objective(G)

    step0 = float(np.mean(caps))
    stale = 0
    it = 0
    for it in range(1, MAX_ITERS + 1):
        G = G + (step0 / math.sqrt(it)) * grad
        G = _psd_project(G)
        if it % 10 == 0:
            # exact projections onto violated Lipschitz halfspaces
            sq = _sq_dists(G)
            viol = np.argwhere(sq > caps + 1e-12)
            for i, j in viol:
                if i >= j:
                    continue
                gap = _sq_dists(G)[i, j] - caps[i, j]
                if gap <= 0:
                    continue
                # constraint matrix (e_i - e_j)(e_i - e_j)^T, Frobenius norm 2
                c = gap / 4.0
                G[i, i] -= c
                G[j, j] -= c
                G[i, j] += c
                G[j, i] += c
            G = _psd_project(G)
        candidate = _feasible_rescale(G, caps)
        obj = objective(candidate)
        if obj > best_obj + STALL_EPS:
            best_G, best_obj = candidate.copy(), obj
            stale = 0
        else:
            stale += 1
            if stale >= STALL_WINDOW:
                break
    if best_obj <= 0:
        raise SolverStalled("no feasible iterate with positive spread found")

    vals, vecs = np.linalg.eigh((best_G + best_G.T) / 2.0)
    vals = np.maximum(vals, 0.0)
    order = np.argsort(vals)[::-1]
    keep = order[vals[order] > 1e-12]
    factor = vecs[:, keep] * np.sqrt(vals[keep])
    if factor.shape[1] == 0:
        factor = np.zeros((n, 1))
    sq = _sq_dists(best_G)
    off = ~np.eye(n, dtype=bool)
    lip = float(np.max(np.sqrt(np.maximum(sq[off], 0.0)) / dist[off] ** theta))
    spread = best_obj / total
    return GramEmbedding(G=best_G, factor=factor, lip_certificate=lip,
                         spread_certificate=spread, iterations=it)


def evaluate_average_distortion(points, dist, mu, q: float, theta: float) -> dict:
    """lip = worst pairwise expansion against d^theta; spread = mu-average of
    q-powered embedded distances over the q-powered snowflaked distances;
    D = lip / spread^{1/q}."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dist = _validate_finite_metric(dist, positive=True)
    n = dist.shape[0]
    if points.shape[0] != n:
        raise SizeMismatch("one embedded point per metric point is required")
    mu = _check_weights(mu, n)
    if q < 1.0:
        raise UnsupportedSpace("average distortion requires q >= 1")
    emb = _euclidean_pair_norms(points[:, None, :] - points[None, :, :])
    off = ~np.eye(n, dtype=bool)
    snow = dist**theta
    lip = float(np.max(emb[off] / snow[off]))
    weight = np.outer(mu, mu)
    denom = float(np.sum(weight * snow**q))
    spread = float(np.sum(weight * emb**q)) / denom
    d_val = float("inf") if spread <= 0 else lip / spread ** (1.0 / q)
    return {"lip": lip, "spread": spread, "D": d_val}


def duality_forward_check(embedding: GramEmbedding, chain: StochasticChain,
                          dist, theta: float, q: float = 2.0) -> dict:
    """Witness-level forward duality: with D the achieved average distortion
    and gamma the classical reciprocal gap,

        sum pi_i pi_j d^{theta q} <= D^q gamma sum pi_i a_ij d^{theta q}.

    Certifies the gap of the chain over the snowflaked metric at the witness.
    Only the Hilbert exponent q = 2 is supported."""
    if q != 2.0:
        raise UnsupportedSpace("forward duality is instantiated for q = 2 only")
    if not chain.reversible:
        raise NotReversibleChain("forward duality requires a reversible chain")
    dist = _validate_finite_metric(dist, positive=True)
    if dist.shape[0] != chain.n:
        raise SizeMismatch("metric size must match the state count")
    snow_q = dist ** (theta * q)
    pi = chain.pi
    lhs = float(np.sum(np.outer(pi, pi) * snow_q))
    edge = float(np.sum(pi[:, None] * chain.A * snow_q))
    gamma = spectral_data(chain).gamma_classical
    d_val = embedding.d_achieved
    rhs = d_val**q * gamma * edge
    slack = rhs - lhs
    gamma_source_le = float("inf") if edge <= 0 else lhs / edge
    return {
        "lhs": lhs,
        "rhs": rhs,
        "slack": slack,
        "gamma_source_le": gamma_source_le,
        "product_ok": bool(slack >= -1e-9 * max(1.0, abs(rhs))),
    }


def duality_witness_check(weights, configs, dist, mu, q: float, theta: float,
                          D: float, eps: float) -> dict:
    """Assemble f(x_i) = (w_k^{1/q} y_i(k))_k into the l_q-sum of Euclidean
    spaces and test both halves of the duality witness: the Lipschitz cap
    D + eps against d^theta, and the average lower bound

        sum mu_i mu_j ||f_i - f_j||^q >= sum mu_i mu_j d^{theta q}."""
    weights = np.asarray(weights, dtype=float)
    configs = np.asarray(configs, dtype=float)
    dist = _validate_finite_metric(dist, positive=True)
    n = dist.shape[0]
    if configs.ndim == 2:
        configs = configs[None, :, :]
    m = weights.size
    if m == 0 or configs.shape[0] != m or configs.shape[1] != n:
        raise EmptyDecomposition("need one positive weight per configuration")
    if np.min(weights) <= 0:
        raise EmptyDecomposition("weights must be strictly positive")
    mu = _check_weights(mu, n)
    # ||f_i - f_j||^q = sum_k w_k ||y_i(k) - y_j(k)||_2^q
    per_cfg = _euclidean_pair_norms(configs[:, :, None, :] - configs[:, None, :, :])
    fq = np.einsum("k,kij->ij", weights, per_cfg**q)
    fnorm = fq ** (1.0 / q)
    off = ~np.eye(n, dtype=bool)
    snow = dist**theta
    lip = float(np.max(fnorm[off] / snow[off]))
    weight = np.outer(mu, mu)
    avg_lhs = float(np.sum(weight * fq))
    avg_rhs = float(np.sum(weight * snow**q))
    return {
        "lip": lip,
        "lipschitz_ok": bool(lip <= D + eps + 1e-12),
        "average_lhs": avg_lhs,
        "average_rhs": avg_rhs,
        "average_ok": bool(avg_lhs >= avg_rhs * (1.0 - 1e-9)),
    }
