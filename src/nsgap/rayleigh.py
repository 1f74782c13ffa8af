"""Nonlinear Rayleigh quotients and spectral-gap estimators.

For a configuration x of points in a metric space M and a pi-stationary
matrix A, the quotient is

    R(x; A, d^p) = sum_ij pi_i a_ij d(x_i,x_j)^p / sum_ij pi_i pi_j d(x_i,x_j)^p

and the nonlinear spectral gap gamma(A, d^p) is the supremum of 1/R over
nonconstant configurations.  The module provides an exact value for Hilbert
targets, exhaustive enumeration for small finite metrics, a multi-start
projected (sub)gradient heuristic for normed targets, plus the calculus
identities, the absolute-gap variant and the analytic upper bound used to
cross-check them.
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
    NotReversibleChain,
    PoweredDistanceRange,
    UnsupportedSpace,
    ValidationError,
)
from .markov import StochasticChain, lazy_power, spectral_data
from .spaces import Configuration, MetricSpace, config_distance_matrix

P_MIN, P_MAX = 1.0, 8.0
ENUM_CAP = 10_000_000
# n^2 max(d, F) bound of the heuristic, whose evaluations build n x n x d pair
# arrays and, over a polytope with F facets, n x n x F facet scores: the
# default 32 x 500 run over lp(3, 4) at the cap takes about a minute of CPU
HEURISTIC_CAP = 800_000
# n^2 max(d, F) restarts iters bound of a whole run: the default run at the cap
HEURISTIC_WORK_CAP = HEURISTIC_CAP * 32 * 500
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

_ENUM_CHUNK = 2**14  # configurations per gap block; sums per x-chunk of the pair bound
# values per contiguous run of a materialized term: m^t is 125 to 343 for
# m = 3..7 (adds over runs below 100 ran up to 2x slower) and 64 at m = 8,
# where runs of 512 held the gap scan's operands above 1 MB
_MAX_RUN = 400
# relative slack of the absolute-gap bound (see _pair_bound)
_BOUND_SLACK = 1e-9


def _run_digits(m, n):
    """The t trailing digits a term touching them is materialized over: the
    most with m^t <= _MAX_RUN, so each of its adds runs over m^t values."""
    return max(t for t in range(1, n + 1) if m**t <= _MAX_RUN)


def _config_blocks(tables, m, n):
    """Blocks over the last L digits, one per value of the H = n - L head
    digits.  Term (i, j) is the table on the axes of digits i and j (the
    diagonal when i == j), added onto the block in (i, j) order.  With more
    than one block a term's head axes are broadcast, so a block picks them by
    basic indexing, and a term touching the last t <= L digits is
    materialized over all t, so its adds run over contiguous runs of m^t."""
    L = max(L for L in range(n + 1) if m**L <= _ENUM_CHUNK)
    H = n - L
    t = min(_run_digits(m, n), L) if H else 0
    swapped = tables.swapaxes(3, 4)
    terms = []
    for i in range(n):
        for j in range(n):
            shape = [2] + [1] * n
            shape[1 + i] = shape[1 + j] = m
            term = (tables[:, i, i].diagonal(0, 1, 2) if i == j else
                    tables[:, i, j] if i < j else swapped[:, i, j]).reshape(shape)
            if max(i, j) >= n - t:
                term = np.broadcast_to(term, tuple(shape[:1 + n - t]) + (m,) * t).copy()
            if H:
                term = np.broadcast_to(term, (2,) + (m,) * H + term.shape[1 + H:])
            terms.append(term)
    block = np.empty((2,) + (m,) * L)
    for head in np.ndindex((m,) * H):
        head = (slice(None),) + head
        block[...] = 0.0
        for term in terms:
            block += term[head]
        yield block[0].ravel(), block[1].ravel()


def _pair_bound(tables, m, n):
    """The x that can start a pair the full scan's result depends on, as
    their row-major indices in ascending order.

    For a fixed x both sums are separable in y: num = sum_j beta_j(y_j) and
    den = sum_j alpha_j(y_j), with beta_j(b) = sum_i w_ij P[x_i, b] and
    alpha_j(b) likewise from u.  So F_x(lam) = sum_j max_b (alpha_j -
    lam beta_j) <= 0 proves that no pair starting at x has a ratio den/num
    above lam (Dinkelbach's parametric test).  lam starts at the best pair of
    two constant configurations and rises by Dinkelbach steps (y_x the
    per-digit arg-max, lam the largest ratio reached), so it is always
    attained.  It stops at 1/ZERO_QUOTIENT, so every x holding a zero
    quotient (a ratio above that) is kept.  x is skipped once
    F_x(lam (1 - _BOUND_SLACK)) <= 0.  The slack covers the rounding of these
    sums and of the scan's (a few n^2 ulps each, n <= 6) with a wide margin,
    so every pair whose scanned ratio reaches the scan's best, or counts as
    zero, lies at a kept x.

    Sums are laid out (b, j, x) and the x taken in chunks of m^(n - c)
    under c leading digits, at most 2 _ENUM_CHUNK values a chunk: the suffix
    sums over digits c.. are built once, plus each chunk's prefix.  A chunk
    is pruned at the lam reached so far, and the survivors of all chunks
    once more at the last lam."""
    c = min((c for c in range(n + 1) if m ** (n - c + 1) * n <= _ENUM_CHUNK), default=n)
    rows = 2 * m * n  # (half, b, j)
    moved = tables.transpose(1, 0, 4, 2, 3).reshape(n, rows, m)  # the rows for each x_i
    suffix = np.zeros((rows, 1))
    for i in range(n - 1, c - 1, -1):  # x_i before the digits after it
        suffix = (moved[i, :, :, None] + suffix[:, None]).reshape(rows, -1)
    cap = 1.0 / ZERO_QUOTIENT
    ends = tables.sum(axis=(1, 2))
    lam = min(float(np.max(ends[1] / ends[0], where=ends[1] > 0, initial=0.0)), cap)

    def prune(x, sums, lam):
        """Dinkelbach steps from lam over the x whose sums are the columns
        of sums, until lam stops rising: the x not skipped at the last lam,
        their sums, and that lam."""
        while True:
            beta, alpha = sums.reshape(2, m, n, -1)
            lam_ = lam * (1.0 - _BOUND_SLACK)
            gain = alpha - lam_ * beta
            top = gain.max(axis=0)
            F = top.sum(axis=0)
            # y_j: of the b with the largest gain, the one with the least beta
            num = np.min(beta, axis=0, where=gain == top, initial=np.inf).sum(axis=0)
            best = min(float(np.max((F + lam_ * num) / num, where=F > 0, initial=lam)), cap)
            kept = F > 0
            x, sums = x.compress(kept), sums.compress(kept, axis=-1)
            if not best > lam:
                return x, sums, lam
            lam = best

    parts = []
    for h, head in enumerate(np.ndindex((m,) * c)):
        sums = sum((moved[i, :, d, None] for i, d in enumerate(head)), suffix)
        x, sums, lam = prune(h * sums.shape[-1] + np.arange(sums.shape[-1]), sums, lam)
        parts.append((x, sums))
    x, sums = (np.concatenate(a, axis=-1) for a in zip(*parts))
    if len(parts) > 1:  # the earlier chunks were pruned at a lower lam
        x, sums, lam = prune(x, sums, lam)
    return x


def _pair_blocks(tables, m, n, xs):
    """One block per x of xs, in their order, yielded as (x, num, den) over
    all m^n values of y in row-major order.  Term (i, j) is the rows
    w_ij P[x_i, :] and u_ij P[x_i, :] on the axis of y_j, added onto a zeroed
    block in (i, j) order, so each sum is that of a plain row-major scan."""
    terms = [[tables[:, i, j].reshape((2, m) + (1,) * j + (m,) + (1,) * (n - 1 - j))
              for j in range(n)] for i in range(n)]
    block = np.empty((2,) + (m,) * n)
    for x in xs:
        block[...] = 0.0
        for row, a in zip(terms, np.unravel_index(x, (m,) * n)):
            for term in row:
                block += term[:, a]
        yield int(x), block[0].ravel(), block[1].ravel()


def _enumerate(chain: StochasticChain, space: MetricSpace, p: float, pairs: bool):
    """Largest den/num over [m]^N in row-major order, and the digits of its
    first configuration; inf at the first one whose quotient num/den is below
    ZERO_QUOTIENT, the rule `gamma_heuristic` reports by.  N = n for the gap;
    N = 2n for the absolute gap, whose pair (x, y) is one configuration where
    digit i of x meets digit n + j of y.  Both scans yield row-major (num,
    den) blocks under their block index, from one table of the terms
    w_ij P[a, b] and u_ij P[a, b]; the absolute gap's has one block per x and
    skips the x that `_pair_bound` proves cannot hold its first maximiser or
    zero.  A block takes two passes (divide, arg-max); only a best ratio that
    is NaN (a constant configuration, 0/0) or above 1/ZERO_QUOTIENT sends it
    to the slow path, which sets the NaNs to -inf and looks for a zero.
    Powered distances that overflow, or that underflow alone or times a
    weight, are refused: they would read as inf, or as zero quotients."""
    _check_p(p)
    if space.kind != "finite":
        raise UnsupportedSpace("enumeration requires a finite metric")
    if not chain.reversible:
        raise NotReversibleChain("gap enumeration requires a reversible chain")
    m, n, N = space.n_points, chain.n, chain.n * (2 if pairs else 1)
    if m > 8 or n > 6 or m**N > ENUM_CAP:
        raise InstanceTooLarge(f"enumeration size {m}^{N} exceeds the cap")
    w, u = chain.pi[:, None] * chain.A, np.outer(chain.pi, chain.pi)
    try:
        with np.errstate(over="raise", under="raise"):
            powered = (space.dist**space.theta) ** p
            tables = np.stack([w, u])[:, :, :, None, None] * powered
    except FloatingPointError as exc:
        low = np.finfo(float).tiny / min(np.min(w, where=w > 0, initial=np.inf), np.min(u))
        raise PoweredDistanceRange(
            f"distances to the power theta p = {space.theta * p:g} are out of range ({exc}): "
            f"positive ones must lie in [{low:.4g}, {np.finfo(float).max:.4g}], from the "
            "smallest normal double over the least weight pi_i a_ij or pi_i pi_j") from exc
    cap = 1.0 / ZERO_QUOTIENT
    best, best_k, ratio = -np.inf, -1, None
    with np.errstate(divide="ignore", invalid="ignore"):
        if pairs:
            blocks = _pair_blocks(tables, m, n, _pair_bound(tables, m, n))
        else:
            blocks = ((h, *block) for h, block in enumerate(_config_blocks(tables, m, n)))
        for h, num, den in blocks:
            start = h * num.size
            ratio = np.divide(den, num, out=ratio)  # the last block's buffer
            k = int(np.argmax(ratio))
            if not ratio[k] <= cap:  # a constant configuration, or a zero quotient
                ratio[np.isnan(ratio)] = -np.inf
                zero = np.flatnonzero(ratio > cap)
                if zero.size:
                    best, best_k = float("inf"), start + int(zero[0])
                    break
                k = int(np.argmax(ratio))
            if ratio[k] > best:
                best, best_k = float(ratio[k]), start + k
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
    work = n * n * width * restarts * iters
    if work > HEURISTIC_WORK_CAP:
        raise InstanceTooLarge(f"heuristic work n^2 max(d, F) restarts iters = {work} "
                               f"exceeds {HEURISTIC_WORK_CAP}")
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
