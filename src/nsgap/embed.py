"""Average-distortion Hilbert embeddings of finite metrics.

Given a finite metric d, a probability weight mu and a snowflake exponent
theta, the solver maximizes the weighted average of squared embedded
distances subject to the pairwise Lipschitz caps

    G_ii + G_jj - 2 G_ij <= d(i,j)^{2 theta},   G >= 0 (PSD).

This is the semidefinite program max <L_mu, G> with L_mu = diag(mu) - mu mu^T.
Its dual is min sum_{i<j} y_ij d(i,j)^{2 theta} over y >= 0 with L_y >= L_mu,
L_y the Laplacian of the weights y: the max-variance-unfolding /
fastest-mixing pair of Sun, Boyd, Xiao and Diaconis (SIAM Review 2006).  A
primal-dual interior-point method (HKM direction, Mehrotra predictor-
corrector) solves both on the complement of the all-ones vector; when the
caps admit an embedding that meets each of them with equality, classical
MDS finds it exactly and the solve is skipped.  The Gram matrix is then
rescaled onto the caps and its Lipschitz and spread certificates are
recomputed from it.  Any y >= 0 bounds the spread from above, so the
clipped dual weights certify a lower bound on the best quadratic average
distortion; the achieved one is the Lipschitz certificate over the square
root of the spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg raises too

from .errors import (
    ConstantConfiguration,
    DimensionMismatch,
    EmptyDecomposition,
    NotReversibleChain,
    SizeMismatch,
    SolverStalled,
    UnsupportedSpace,
    ZeroWeight,
)
from .markov import StochasticChain, spectral_data
from .spaces import MetricSpace, _validate_finite_metric, pair_norms

# the Schur complement holds (n(n-1)/2)^2 doubles: 33 MB at 64 points
EMBED_N_CAP = 64
MAX_ITERS = 50
IPM_TOL = 1e-6
STEP_FRACTION = 0.95  # share of the step to the cone boundary that is taken
SCHUR_BLOCK = 64  # pair rows of the Schur complement built at once


@dataclass(frozen=True)
class GramEmbedding:
    G: np.ndarray  # n x n PSD Gram matrix
    factor: np.ndarray  # n x r with factor factor^T = G
    lip_certificate: float  # max ||f_i - f_j|| / d(i,j)^theta
    spread_certificate: float  # avg squared embedded distance over avg d^{2 theta}
    iterations: int
    stop: str  # converged / stalled / iteration_cap
    dual_bound: float  # certified upper bound on the spread
    dual_weights: np.ndarray  # n x n symmetric y, zero diagonal

    def __post_init__(self):
        for arr in (self.G, self.factor, self.dual_weights):
            arr.setflags(write=False)

    @property
    def d_achieved(self) -> float:
        if self.spread_certificate <= 0:
            return float("inf")
        return self.lip_certificate / math.sqrt(self.spread_certificate)

    @property
    def d_lower(self) -> float:
        """No map meeting every cap has a smaller quadratic average distortion."""
        return 1.0 / math.sqrt(self.dual_bound)

    def to_json(self) -> dict:
        return {
            "G": self.G.tolist(),
            "factor": self.factor.tolist(),
            "lip": self.lip_certificate,
            "spread": self.spread_certificate,
            "D_achieved": "inf" if math.isinf(self.d_achieved) else self.d_achieved,
            "iterations": self.iterations,
            "stop": self.stop,
            "dual_bound": self.dual_bound,
            "D_lower": self.d_lower,
            "gap": self.dual_bound - self.spread_certificate,
            "dual_weights": self.dual_weights.tolist(),
        }


def _check_theta(theta: float) -> None:
    if not (0.0 < theta <= 1.0):
        raise UnsupportedSpace("snowflake exponent must be in (0, 1]")


def _check_weights(mu, n: int) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise SizeMismatch("weights must match the point count")
    if not np.all(np.isfinite(mu)) or np.min(mu) <= 0:
        raise ZeroWeight("weights must be finite and strictly positive")
    return mu / mu.sum()


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


def _psd_factor(G: np.ndarray) -> np.ndarray:
    """F with F F^T the PSD part of G, columns by decreasing eigenvalue;
    eigenvalues up to 1e-12 are dropped (one zero column if none is left)."""
    vals, vecs = np.linalg.eigh(G)
    order = np.argsort(vals)[::-1]
    keep = order[vals[order] > 1e-12]
    factor = vecs[:, keep] * np.sqrt(vals[keep])
    return factor if factor.shape[1] else np.zeros((G.shape[0], 1))


def _centered_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the complement of the all-ones vector: the last
    n - 1 columns of the Householder reflection that maps e_1 onto it."""
    v = np.full(n, 1.0 / math.sqrt(n))
    v[0] -= 1.0
    return (np.eye(n) - np.outer(v, 2.0 * v / (v @ v)))[:, 1:]


def _laplacian(y: np.ndarray, I: np.ndarray, J: np.ndarray, n: int) -> np.ndarray:
    W = np.zeros((n, n))
    W[I, J] = y
    W += W.T
    return np.diag(W.sum(axis=1)) - W


def _pair_values(K: np.ndarray, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """(e_i - e_j)^T K (e_i - e_j) for every pair (i, j)."""
    return K[I, I] + K[J, J] - K[I, J] - K[J, I]


def _schur(G: np.ndarray, K: np.ndarray, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The Hadamard product of the pair Gram matrices of G and K, entry (k, l)
    the product of (e_i - e_j)^T G (e_p - e_q) and the same for K, over pairs
    k = (i, j) and l = (p, q).  Built in row blocks, so the result is the
    only m x m array."""
    HG, HK = G[:, I] - G[:, J], K[:, I] - K[:, J]
    M = np.empty((I.size, I.size))
    for lo in range(0, I.size, SCHUR_BLOCK):
        i, j = I[lo:lo + SCHUR_BLOCK], J[lo:lo + SCHUR_BLOCK]
        np.multiply(HG[i] - HG[j], HK[i] - HK[j], out=M[lo:lo + SCHUR_BLOCK])
    return M


def _cone_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest a with x + a dx in the cone: PSD for matrices, >= 0 for vectors."""
    if x.ndim == 2:
        from scipy.linalg import eigh

        low = eigh(dx, x, eigvals_only=True)[0]
        return -1.0 / low if low < 0 else math.inf
    neg = dx < 0
    return float(np.min(-x[neg] / dx[neg])) if np.any(neg) else math.inf


def _gram_ipm(C: np.ndarray, c: np.ndarray, V: np.ndarray, I: np.ndarray,
              J: np.ndarray):
    """Primal-dual interior-point solve of

        max <C, X>  s.t.  a_k^T X a_k + w_k = c_k,  X >= 0,  w >= 0,
        min c^T y   s.t.  Z = sum_k y_k a_k a_k^T - C >= 0,  y >= 0,

    with a_k = V^T (e_i - e_j).  HKM direction (Helmberg, Rendl, Vanderbei
    and Wolkowicz 1996) with Mehrotra's predictor-corrector; each direction
    solves the pair-by-pair Schur system (A X A^T) o (A Z^-1 A^T) + diag(w/y).
    Starts strictly feasible: X = xi I (a_k^T a_k = 2) and y = t 1
    (sum_k a_k a_k^T = n I).  Returns X, y, the iterations and the stop
    reason; a failed factorization keeps the last iterate."""
    from scipy.linalg import cho_factor, cho_solve

    n, r = V.shape
    eye = np.eye(r)
    X = eye * (np.min(c) / 4.0)
    w = c - 2.0 * X[0, 0]
    y = np.full(c.size, 2.0 * np.max(np.linalg.eigvalsh(C)) / n)
    Z = eye * (n * y[0]) - C
    c_norm, C_norm = 1.0 + np.linalg.norm(c), 1.0 + np.linalg.norm(C)

    def lift(M):
        return V @ M @ V.T

    for it in range(MAX_ITERS + 1):
        rp = c - _pair_values(lift(X), I, J) - w
        Rd = C + Z - V.T @ _laplacian(y, I, J, n) @ V
        pobj, dobj = float(np.sum(C * X)), float(c @ y)
        if (np.linalg.norm(rp) <= IPM_TOL * c_norm
                and np.linalg.norm(Rd) <= IPM_TOL * C_norm
                and abs(dobj - pobj) <= IPM_TOL * abs(dobj)):
            return X, y, it, "converged"
        if it == MAX_ITERS:
            break
        barrier = (float(np.sum(X * Z)) + float(w @ y)) / (r + c.size)
        try:
            Zinv = cho_solve(cho_factor(Z), eye)
            M = _schur(lift(X), lift(Zinv), I, J)
            M[np.diag_indices_from(M)] += w / y
            factor = cho_factor(M.T, overwrite_a=True, check_finite=False)
        except LinAlgError:
            return X, y, it, "stalled"
        XRd = X @ Rd

        def direction(Rc, rc):
            rhs = _pair_values(lift((Rc + XRd) @ Zinv), I, J) + rc / y - rp
            dy = cho_solve(factor, rhs, check_finite=False)
            dZ = V.T @ _laplacian(dy, I, J, n) @ V - Rd
            dX = (Rc - X @ dZ) @ Zinv
            return (dX + dX.T) / 2.0, (rc - w * dy) / y, dy, dZ

        try:
            dX, dw, dy, dZ = direction(-X @ Z, -w * y)
            ap = min(1.0, _cone_step(X, dX), _cone_step(w, dw))
            ad = min(1.0, _cone_step(Z, dZ), _cone_step(y, dy))
            affine = (float(np.sum((X + ap * dX) * (Z + ad * dZ)))
                      + float((w + ap * dw) @ (y + ad * dy))) / (r + c.size)
            target = barrier * (affine / barrier) ** 3
            dX, dw, dy, dZ = direction(target * eye - X @ Z - dX @ dZ,
                                       target - w * y - dw * dy)
            ap = min(1.0, STEP_FRACTION * min(_cone_step(X, dX), _cone_step(w, dw)))
            ad = min(1.0, STEP_FRACTION * min(_cone_step(Z, dZ), _cone_step(y, dy)))
        except LinAlgError:
            return X, y, it, "stalled"
        X, w = X + ap * dX, w + ap * dw
        y, Z = y + ad * dy, Z + ad * dZ
        X, Z = (X + X.T) / 2.0, (Z + Z.T) / 2.0
        del M, factor  # free this Schur complement before the next one is built
    return X, y, MAX_ITERS, "iteration_cap"


def average_embed_hilbert(dist, mu, theta: float) -> GramEmbedding:
    """Maximize the mu-average of squared embedded distances subject to the
    snowflaked Lipschitz caps; returns the factorized embedding with its
    Lipschitz and spread certificates, the solver's stop reason and the
    dual certificate (weights, spread bound and distortion lower bound)."""
    dist = np.asarray(dist, dtype=float)
    if dist.ndim == 2 and dist.shape[0] > EMBED_N_CAP:
        raise DimensionMismatch(f"embeddings capped at {EMBED_N_CAP} points")
    dist = _validate_finite_metric(dist, positive=True)
    n = dist.shape[0]
    if n < 2:
        raise ConstantConfiguration("every embedding of a one-point metric is constant")
    mu = _check_weights(mu, n)
    _check_theta(theta)
    caps = dist ** (2.0 * theta)
    weight = np.outer(mu, mu)
    total = float(np.sum(weight * caps))
    L_mu = np.diag(mu) - weight
    I, J = np.triu_indices(n, 1)

    def objective(G):
        return float(np.sum(weight * _sq_dists(G)))

    # An embedding that meets every cap with equality has the largest
    # possible spread, 1, which the weights y = 2 mu_i mu_j certify.
    # Classical MDS finds it exactly when it exists.
    centering = np.eye(n) - 1.0 / n
    F = _psd_factor(-0.5 * centering @ caps @ centering)
    G = _feasible_rescale(F @ F.T, caps)
    y, it, stop = 2.0 * weight[I, J], 0, "converged"
    if objective(G) < (1.0 - 1e-12) * total:
        # the program is homogeneous in the caps: solve it with mean cap 1
        scale = float(np.mean(caps[I, J]))
        V = _centered_basis(n)
        X, y, it, stop = _gram_ipm(V.T @ L_mu @ V, caps[I, J] / scale, V, I, J)
        G_ipm = scale * (V @ X @ V.T)
        G = max(G, _feasible_rescale((G_ipm + G_ipm.T) / 2.0, caps), key=objective)
    obj = objective(G)
    if obj <= 0:
        raise SolverStalled("no feasible iterate with positive spread found")
    factor = _psd_factor(G)
    sq = _sq_dists(G)
    off = ~np.eye(n, dtype=bool)
    lip = float(np.max(np.sqrt(np.maximum(sq[off], 0.0)) / dist[off] ** theta))

    # <L_mu, G> <= s sum_{i<j} y_ij caps_ij for every feasible G, with s the
    # top eigenvalue of the pencil (L_mu, L_y + a 11^T).  Every a > 0 gives
    # the same s, since L_mu and L_y both vanish on the all-ones vector; the
    # mean degree of L_y keeps the pencil as well conditioned as L_y itself.
    weights = np.zeros((n, n))
    weights[I, J] = np.maximum(y, 0.0)
    weights += weights.T
    L_y = np.diag(weights.sum(axis=1)) - weights
    from scipy.linalg import eigh

    try:
        s = eigh(L_mu, L_y + np.trace(L_y) / n**2, eigvals_only=True)[-1]
        dual_bound = float(s * np.sum(weights * caps) / total)
    except LinAlgError:
        dual_bound = math.inf
    return GramEmbedding(G=G, factor=factor, lip_certificate=lip,
                         spread_certificate=obj / total, iterations=it, stop=stop,
                         dual_bound=dual_bound, dual_weights=weights)


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
    _check_theta(theta)
    emb = pair_norms(MetricSpace.lp(2.0, points.shape[1]),
                     points[:, None, :] - points[None, :, :])[0]
    off = ~np.eye(n, dtype=bool)
    snow = dist**theta
    lip = float(np.max(emb[off] / snow[off]))
    weight = np.outer(mu, mu)
    denom = float(np.sum(weight * snow**q))
    spread = float(np.sum(weight * emb**q)) / denom
    d_val = float("inf") if spread <= 0 else lip / spread ** (1.0 / q)
    return {"lip": lip, "spread": spread, "D": d_val}


def duality_forward_check(D: float, chain: StochasticChain, dist, theta: float) -> dict:
    """Witness-level forward duality at the Hilbert exponent 2: with D the
    achieved quadratic average distortion of an embedding
    (`GramEmbedding.d_achieved`) and gamma the classical reciprocal gap,

        sum pi_i pi_j d^{2 theta} <= D^2 gamma sum pi_i a_ij d^{2 theta}.

    Certifies the gap of the chain over the snowflaked metric at the witness."""
    if not chain.reversible:
        raise NotReversibleChain("forward duality requires a reversible chain")
    _check_theta(theta)
    if not (0.0 <= D < math.inf):  # D^2 hides a negative sign
        raise UnsupportedSpace(f"distortion must be finite and nonnegative, got {D}")
    dist = _validate_finite_metric(dist, positive=True)
    if dist.shape[0] != chain.n:
        raise SizeMismatch("metric size must match the state count")
    snow_sq = dist ** (theta * 2.0)
    pi = chain.pi
    lhs = float(np.sum(np.outer(pi, pi) * snow_sq))
    edge = float(np.sum(pi[:, None] * chain.A * snow_sq))
    gamma = spectral_data(chain).gamma_classical
    rhs = D**2.0 * gamma * edge
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
    _check_theta(theta)
    # ||f_i - f_j||^q = sum_k w_k ||y_i(k) - y_j(k)||_2^q
    per_cfg = pair_norms(MetricSpace.lp(2.0, configs.shape[-1]),
                         configs[:, :, None, :] - configs[:, None, :, :])[0]
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
