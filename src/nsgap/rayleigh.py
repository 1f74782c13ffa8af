"""Nonlinear Rayleigh quotients and spectral-gap estimators.

For a configuration x of points in a metric space M and a pi-stationary
matrix A, the quotient is

    R(x; A, d^p) = sum_ij pi_i a_ij d(x_i,x_j)^p / sum_ij pi_i pi_j d(x_i,x_j)^p

and the nonlinear spectral gap gamma(A, d^p) is the supremum of 1/R over
nonconstant configurations.  The module provides an exact value for Hilbert
targets, exhaustive enumeration for small finite metrics, a multi-start
projected (sub)gradient heuristic for normed targets, plus the calculus
identities, the pointwise comparison estimate, the absolute-gap variant and
the Markov type ratio used to cross-check all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ascent
from .errors import (
    BadExponentRange,
    ConstantConfiguration,
    DegenerateGap,
    InstanceTooLarge,
    LengthMismatch,
    MismatchedStationary,
    NormSandwichViolated,
    NotReversibleChain,
    UnsupportedSpace,
    ValidationError,
)
from .markov import StochasticChain, lazy_power, spectral_data
from .spaces import (
    Configuration,
    EllipsoidNorm,
    MetricSpace,
    config_distance_matrix,
    pair_norms,
)

P_MIN, P_MAX = 1.0, 8.0
ENUM_CAP = 10_000_000
# n^2 max(d, F) bound of the heuristic, whose evaluations build n x n x d pair
# arrays and, over a polytope with F facets, n x n x F facet scores: the
# default 32 x 500 run over lp(3, 4) at the cap takes about a minute of CPU
HEURISTIC_CAP = 800_000
# pair entries n^2 max(d, F) of one stack of heuristic restarts stepped
# together: below it a step costs mostly numpy dispatch, not arithmetic
HEURISTIC_BATCH = 4096
ZERO_QUOTIENT = 1e-14


# GapEstimate.kind -> provenance tag, from the strongest to the weakest
PROVENANCE = {"exact_hilbert": "exact", "brute_force": "brute_force",
              "heuristic_lower_bound": "heuristic"}


def weakest_provenance(*kinds: str) -> str:
    """Tag of a result resting on gap estimates: the weakest of their tags."""
    return PROVENANCE[max(kinds, key=list(PROVENANCE).index)]


@dataclass(frozen=True)
class GapEstimate:
    value: float  # in (0, inf]
    # exact_hilbert: closed form 1/(1 - lambda_2), squared l_2 or ellipsoid distances;
    # brute_force: exhaustive over a finite metric; heuristic_lower_bound: ascent
    kind: str
    p: float
    witness: object  # Configuration, or a pair for the absolute gap
    # heuristic only: evaluations over all restarts, and why the restart
    # holding the witness stopped (stalled, or iteration_cap)
    iterations: Optional[int] = None
    stop: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "value": "inf" if math.isinf(self.value) else self.value,
            "kind": self.kind,
            "p": self.p,
            "provenance": PROVENANCE[self.kind],
        }
        if self.iterations is not None:
            out.update(iterations=self.iterations, stop=self.stop)
        if isinstance(self.witness, tuple):
            out["witness"] = [c.points.tolist() for c in self.witness]
        else:
            out["witness"] = self.witness.points.tolist()
        return out


def _check_p(p: float) -> None:
    if not (P_MIN <= p <= P_MAX):
        raise BadExponentRange(f"metric power must lie in [{P_MIN}, {P_MAX}], got {p}")


def _quotient(A: np.ndarray, pi: np.ndarray, powered: np.ndarray) -> float:
    """R given the matrix of p-powered (snowflaked) pairwise distances."""
    num = float(np.sum(pi[:, None] * A * powered))
    den = float(np.sum(pi[:, None] * pi[None, :] * powered))
    if den <= 0.0:
        raise ConstantConfiguration("all configuration points coincide")
    return num / den


def rayleigh_quotient(x: Configuration, chain: StochasticChain, p: float) -> float:
    """Edge-weighted over pair-averaged p-powered distances of x."""
    _check_p(p)
    if x.n != chain.n:
        raise LengthMismatch("configuration length must equal the state count")
    powered = config_distance_matrix(x) ** p
    return _quotient(chain.A, chain.pi, powered)


def gamma_hilbert_exact(chain: StochasticChain) -> GapEstimate:
    """gamma(A, squared Euclidean) = 1/(1 - lambda_2), with the rescaled
    second eigenvector of the symmetrization as witness."""
    data = spectral_data(chain)
    witness_points = (data.eigenvectors[:, 1] / np.sqrt(chain.pi)).reshape(-1, 1)
    witness = Configuration(MetricSpace.lp(2.0, 1), witness_points)
    return GapEstimate(
        value=data.gamma_classical, kind="exact_hilbert", p=2.0, witness=witness
    )


# --- exhaustive enumeration over finite metrics -----------------------------

_ENUM_CHUNK = 2**14  # configurations per block; a pair block holds >= m^(n+1)
_MIN_RUN = 100  # broadcast adds over shorter contiguous runs ran up to 2x slower


def _config_blocks(tables, m, n):
    """Blocks over the last L digits.  Term (i, j) is the table indexed by
    digits i and j, each a head value or an arange on its own leaf axis (the
    diagonal when i == j), broadcast onto the block in (i, j) order."""
    L = max(L for L in range(n + 1) if m**L <= _ENUM_CHUNK)
    leaf = [np.arange(m).reshape((1,) * k + (m,) + (1,) * (L - 1 - k)) for k in range(L)]
    block = np.empty((2,) + (m,) * L)
    for head in np.ndindex((m,) * (n - L)):
        digit = [np.full((1,) * L, h) for h in head] + leaf
        block[...] = 0.0
        for i in range(n):
            for j in range(n):
                block += tables[:, i, j, digit[i], digit[j]]
        yield block[0].ravel(), block[1].ravel()


def _pair_blocks(tables, m, n):
    """Blocks of pairs: the last r >= 1 digits of x times all of y.  After
    row i the row-major sum over (i, j) depends only on x_0..x_i and y, so
    level i holds it for each x_i (and leaf digit of x before it) and each y.
    A new head changes its last nonzero digit k, so levels k+1.. are redone.
    Term (i, j) is w_ij P on the axes of x_i and y_j, added in runs >= _MIN_RUN."""
    r = max((r for r in range(1, n + 1) if m ** (n + r) <= _ENUM_CHUNK), default=1)
    H, t = n - r, next((t for t in range(1, n + 1) if m**t >= _MIN_RUN), n)
    terms = [[tables[:, i, j].reshape((2, 1, m) + (1,) * j + (m,) + (1,) * (n - 1 - j))
              for j in range(n)] for i in range(n)]
    for row in terms:
        row[n - t:] = [np.broadcast_to(v, (2, 1, m) + (1,) * (n - t) + (m,) * t).copy()
                       for v in row[n - t:]]
    level = [np.empty((2, m ** max(i - H, 0), m) + (m,) * n) for i in range(n)]
    for head in np.ndindex((m,) * H):
        for i in range(1 + max((k for k in range(H) if head[k]), default=-1), n):
            level[i][...] = (0.0 if i == 0 else
                             level[i - 1][:, :, head[i - 1], None] if i <= H else
                             level[i - 1].reshape((2, -1, 1) + (m,) * n))
            for term in terms[i]:
                level[i] += term
        yield level[-1][0].ravel(), level[-1][1].ravel()


def _enumerate(chain: StochasticChain, space: MetricSpace, p: float, pairs: bool):
    """Largest den/num over [m]^N in row-major order, and the digits of its
    first configuration (inf at the first live one with a zero numerator).
    N = n for the gap; N = 2n for the absolute gap, whose pair (x, y) is one
    configuration where digit i of x meets digit n + j of y.  Both scans
    yield row-major (num, den) blocks of O(n _ENUM_CHUNK) memory from one
    table of the terms w_ij P[a, b] and u_ij P[a, b]."""
    _check_p(p)
    if space.kind != "finite":
        raise UnsupportedSpace("enumeration requires a finite metric")
    if not chain.reversible:
        raise NotReversibleChain("gap enumeration requires a reversible chain")
    m, n, N = space.n_points, chain.n, chain.n * (2 if pairs else 1)
    if m > 8 or n > 6 or m**N > ENUM_CAP:
        raise InstanceTooLarge(f"enumeration size {m}^{N} exceeds the cap")
    powered = (space.dist**space.theta) ** p
    w, u = chain.pi[:, None] * chain.A, np.outer(chain.pi, chain.pi)
    tables = np.stack([w, u])[:, :, :, None, None] * powered
    threshold = ZERO_QUOTIENT * max(float(np.max(powered)), 1e-300)
    best, best_k, start = -np.inf, -1, 0
    for num, den in (_pair_blocks if pairs else _config_blocks)(tables, m, n):
        live = den > 0
        zero = live & (num <= threshold)
        if zero.any():
            best, best_k = float("inf"), start + int(np.argmax(zero))
            break
        ratio = np.where(live, den / np.where(live, num, 1.0), -np.inf)
        k = int(np.argmax(ratio))
        if ratio[k] > best:
            best, best_k = float(ratio[k]), start + k
        start += num.size
    if best_k < 0:
        raise ConstantConfiguration("every configuration is constant")
    return best, np.array(np.unravel_index(best_k, (m,) * N))


def gamma_bruteforce(chain: StochasticChain, space: MetricSpace, p: float) -> GapEstimate:
    """Exact gap by enumerating every configuration of a small finite metric."""
    value, digits = _enumerate(chain, space, p, pairs=False)
    return GapEstimate(value=value, kind="brute_force", p=p, witness=Configuration(space, digits))


def gamma_plus_bruteforce(chain: StochasticChain, space: MetricSpace, q: float) -> GapEstimate:
    """Exact absolute gap: sup over pairs (x, y) of
    sum pi_i pi_j d(x_i,y_j)^q / sum pi_i a_ij d(x_i,y_j)^q."""
    value, digits = _enumerate(chain, space, q, pairs=True)
    witness = (Configuration(space, digits[:chain.n]), Configuration(space, digits[chain.n:]))
    return GapEstimate(value=value, kind="brute_force", p=q, witness=witness)


def abs_gap_sandwich_check(chain: StochasticChain, space: MetricSpace, q: float) -> dict:
    """2 gamma(A, d^q) <= gamma_plus((A+Id)/2, d^q) <= 2^{2q+1} gamma(A, d^q),
    both sides by exhaustive enumeration."""
    g = gamma_bruteforce(chain, space, q).value
    gp = gamma_plus_bruteforce(lazy_power(chain, 1), space, q).value
    if math.isinf(g) and math.isinf(gp):
        return {"gamma": g, "gamma_plus_lazy": gp, "lower_ok": True, "upper_ok": True,
                "vacuous": True}
    lower_ok = 2.0 * g <= gp * (1.0 + 1e-9) + 1e-12
    upper_ok = gp <= 2.0 ** (2.0 * q + 1.0) * g * (1.0 + 1e-9) + 1e-12
    return {"gamma": g, "gamma_plus_lazy": gp, "lower_ok": bool(lower_ok),
            "upper_ok": bool(upper_ok), "vacuous": False}


# --- calculus of quotients ---------------------------------------------------

def rayleigh_calculus_check(x: Configuration, chainA: StochasticChain,
                            chainB: StochasticChain, lam: float, t: int,
                            p: float) -> dict:
    """Evaluate the four quotient identities for a fixed configuration:
    affinity in the matrix argument, dilution by the identity, the 1/p-power
    triangle inequality for products, and the power bound R(B^t) <= t^p R(B).
    Returns the signed slacks (nonnegative means the property holds)."""
    _check_p(p)
    if not (0.0 <= lam <= 1.0):
        raise BadExponentRange("mixing weight must lie in [0, 1]")
    if not isinstance(t, (int, np.integer)) or t < 1:
        raise BadExponentRange("power t must be a positive integer")
    if x.n != chainA.n:
        raise LengthMismatch("configuration length must equal the state count")
    if np.max(np.abs(chainA.pi - chainB.pi)) > 1e-12:
        raise MismatchedStationary("chains must share a stationary vector")
    pi = chainA.pi
    powered = config_distance_matrix(x) ** p
    A, B = chainA.A, chainB.A
    eye = np.eye(chainA.n)
    rA = _quotient(A, pi, powered)
    rB = _quotient(B, pi, powered)
    r_mix = _quotient(lam * A + (1.0 - lam) * B, pi, powered)
    r_dilute = _quotient(lam * A + (1.0 - lam) * eye, pi, powered)
    r_prod = _quotient(A @ B, pi, powered)
    r_power = _quotient(np.linalg.matrix_power(B, int(t)), pi, powered)
    return {
        "R_A": rA,
        "R_B": rB,
        "affinity_slack": abs(r_mix - (lam * rA + (1.0 - lam) * rB)),
        "dilution_slack": abs(r_dilute - lam * rA),
        "product_slack": rA ** (1.0 / p) + rB ** (1.0 / p) - r_prod ** (1.0 / p),
        "power_slack": float(t) ** p * rB - r_power,
    }


def markov_type_ratio(chain: StochasticChain, x: Configuration, t: int,
                      p: float = 2.0) -> dict:
    """ratio = R(x; A^t, sq. dist.) / (t R(x; A, sq. dist.)); for Hilbert
    configurations with p = 2 the ratio never exceeds 1 (Markov type 2 with
    constant 1)."""
    if not isinstance(t, (int, np.integer)) or t < 1:
        raise BadExponentRange("power t must be a positive integer")
    _check_p(p)
    space = x.space
    if not _is_hilbertian(space):
        raise UnsupportedSpace("Markov type ratio is asserted for Hilbert configurations")
    powered = config_distance_matrix(x) ** p
    r1 = _quotient(chain.A, chain.pi, powered)
    rt = _quotient(np.linalg.matrix_power(chain.A, int(t)), chain.pi, powered)
    if r1 <= ZERO_QUOTIENT:
        ratio = 1.0 if rt <= ZERO_QUOTIENT else float("inf")
    else:
        ratio = rt / (float(t) * r1)
    return {"ratio": ratio, "bound_holds": bool(p == 2.0 and ratio <= 1.0 + 1e-9)}


def pointwise_estimate_check(x: Configuration, chainB: StochasticChain,
                             spaceX: MetricSpace, H: EllipsoidNorm,
                             D: float, eta: float,
                             sandwich_trials: int = 1000) -> dict:
    """If R(x; B^2, squared H-norm) >= 1 - eta^2 then
    R(x; B, squared X-norm) >= (1 - eta D)^2 / 4, provided the norms satisfy
    ||y||_H <= ||y||_X <= D ||y||_H.  The sandwich is spot-checked by sampling
    before the implication is evaluated."""
    if D < 1.0:
        raise BadExponentRange("comparison factor D must be >= 1")
    if not (0.0 < eta < 1.0 / D):
        raise BadExponentRange("eta must lie in (0, 1/D)")
    if not spaceX.is_normed:
        raise UnsupportedSpace("the comparison requires a normed space")
    if not chainB.reversible:
        raise NotReversibleChain("the pointwise estimate requires a reversible chain")
    hilbert = MetricSpace.ellipsoid_space(H)
    rng = np.random.default_rng(np.random.SeedSequence(0))
    dirs = rng.standard_normal((sandwich_trials, spaceX.dim))
    nh = pair_norms(hilbert, dirs)[0]
    nx = pair_norms(spaceX, dirs)[0]
    broken = (nh > nx * (1.0 + 1e-9) + 1e-12) | (nx > D * nh * (1.0 + 1e-9) + 1e-12)
    if np.any(broken):
        k = int(np.argmax(broken))
        raise NormSandwichViolated(
            f"sampled direction breaks the sandwich: H={nh[k]:.6g}, X={nx[k]:.6g}, D={D}"
        )
    pts = np.asarray(x.points, dtype=float)
    sq_h = config_distance_matrix(Configuration(hilbert, pts)) ** 2
    b2 = chainB.A @ chainB.A
    r_h = _quotient(b2, chainB.pi, sq_h)
    premise = r_h >= 1.0 - eta**2 - 1e-12
    sq_x = config_distance_matrix(Configuration(spaceX, pts)) ** 2
    r_x = _quotient(chainB.A, chainB.pi, sq_x)
    bound = (1.0 - eta * D) ** 2 / 4.0
    if not premise:
        status = "vacuous"
    elif r_x >= bound - 1e-12:
        status = "holds"
    else:
        status = "fails"
    return {"premise": bool(premise), "premise_value": r_h,
            "conclusion_value": r_x, "bound": bound, "vacuous_or_holds": status}


# --- heuristic maximizer over normed targets ---------------------------------

def gamma_heuristic(chain: StochasticChain, space: MetricSpace, p: float,
                    restarts: int = 32, iters: int = 500, seed: int = 0) -> GapEstimate:
    """Lower bound on the gap by multi-start projected subgradient descent on
    the Rayleigh quotient over configurations in a normed space.

    The first start is the rescaled second eigenvector of the symmetrization
    placed on the first coordinate axis; for a Euclidean target with p = 2
    this start is already optimal, so the exact reciprocal gap is recovered.
    Remaining starts are Gaussian.  Restarts step together in stacks of
    HEURISTIC_BATCH // (n^2 max(d, F)) or fewer (`ascent.lockstep`), with
    the value, witness and evaluation count of running them one after
    another.  Deterministic given the seed.
    """
    _check_p(p)
    if not space.is_normed:
        raise UnsupportedSpace("the heuristic requires a normed space")
    if restarts < 1 or iters < 1:
        raise BadExponentRange("restarts and iters must be positive")
    n, d = chain.n, space.dim
    width = max(d, space.facets.shape[0]) if space.kind == "polytope_norm" else d
    if n * n * width > HEURISTIC_CAP:
        raise InstanceTooLarge(f"heuristic size n^2 max(d, F) = {n * n * width} "
                               f"exceeds {HEURISTIC_CAP}")
    data = spectral_data(chain)
    evaluate = ascent.evaluator(chain, space, space.theta * p)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    batch = max(1, min(restarts, HEURISTIC_BATCH // (n * n * width)))
    rule = ascent.InOrder()
    for first in range(0, restarts, batch):
        starts = np.empty((min(batch, restarts - first), n, d))
        if first == 0:
            starts[0] = 0.0
            starts[0, :, 0] = data.eigenvectors[:, 1] / np.sqrt(chain.pi)
        # one draw per stack continues the stream of one draw per restart
        rng.standard_normal(out=starts[int(first == 0):])
        ascent.lockstep(evaluate, starts, first, iters, rule)
    if rule.holder is None:
        raise ConstantConfiguration("all starts degenerated to constant configurations")
    witness = rule.witness
    if witness is None:  # the winning step's points were not kept: recompute them
        _, start, step = rule.holder
        witness = ascent.trajectory(evaluate, start, step)
    value = float("inf") if rule.best < ZERO_QUOTIENT else 1.0 / rule.best
    return GapEstimate(value=value, kind="heuristic_lower_bound", p=p,
                       witness=Configuration(space, witness),
                       iterations=rule.evaluations, stop=rule.stop)


# --- choice of estimator -------------------------------------------------------

def _is_hilbertian(space: MetricSpace) -> bool:
    """An l_2 or ellipsoid norm with theta = 1: with Q = R^T R the ellipsoid
    norm is ||R y||_2, so both spaces are isometric to l_2^d."""
    return space.theta == 1.0 and (space.kind == "ellipsoid_norm" or (
        space.kind == "lp_norm" and space.p == 2.0))


def _closed_form_applies(space: MetricSpace, p: float) -> bool:
    """gamma(A, d^p) = 1/(1 - lambda_2) is proven for squared Hilbertian distances."""
    return _is_hilbertian(space) and p == 2.0


def estimate_gap(chain: StochasticChain, space: MetricSpace, p: float,
                 method: str = "auto", restarts: int = 32, iters: int = 500,
                 seed: int = 0) -> GapEstimate:
    """The gap by `method`: "exact" (l_2 or an ellipsoid, theta = 1, p = 2 only),
    "brute" (finite metrics) or "heuristic" (normed spaces).  "auto" takes
    brute for a finite metric, exact where it applies and heuristic otherwise."""
    if method == "auto":
        method = ("brute" if space.kind == "finite" else
                  "exact" if _closed_form_applies(space, p) else "heuristic")
    if method == "exact":
        if not _closed_form_applies(space, p):
            raise UnsupportedSpace("the closed-form gap needs l_2 or an ellipsoid norm "
                                   "with theta = 1 and p = 2")
        return gamma_hilbert_exact(chain)
    if method == "brute":
        return gamma_bruteforce(chain, space, p)
    if method == "heuristic":
        return gamma_heuristic(chain, space, p, restarts=restarts, iters=iters, seed=seed)
    raise ValidationError(f"unknown gap method {method!r}")


# --- analytic bound pipeline -------------------------------------------------

def tstar(lambda2: float, D_X: float) -> int:
    """ceil(log(2 D_X) / log(2/(1 + lambda2))); the power of the lazy walk
    needed to shrink the mean-zero norm below 1/(2 D_X)."""
    if D_X < 1.0:
        raise BadExponentRange("D_X must be >= 1")
    if lambda2 >= 1.0 - 1e-12:
        raise DegenerateGap("lambda_2 too close to 1")
    if lambda2 <= -1.0 + 1e-300:
        return 1  # denominator log diverges, the ratio vanishes
    ratio = math.log(2.0 * D_X) / math.log(2.0 / (1.0 + lambda2))
    return max(1, math.ceil(ratio - 1e-12))


def theorem4_upper_bound(chain: StochasticChain, D_X: float, C: float) -> float:
    """C log(D_X + 1) / (1 - lambda_2): the analytic upper bound on the gap
    over a normed space at Hilbertian distance D_X.  C is a calibration
    input fitted empirically, never a built-in constant."""
    if D_X < 1.0:
        raise BadExponentRange("D_X must be >= 1")
    if C <= 0:
        raise BadExponentRange("calibration constant must be positive")
    data = spectral_data(chain)
    if data.lambda2 >= 1.0 - 1e-12:
        raise DegenerateGap("lambda_2 too close to 1")
    return C * math.log(D_X + 1.0) / (1.0 - data.lambda2)
