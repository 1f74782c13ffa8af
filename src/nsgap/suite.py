"""Acceptance battery: deterministic end-to-end checks wiring every module
together.  Each criterion function returns {"criterion", "passed", "details"}
and draws all randomness from the suite seed, so reports are bit-identical
across runs with the same seed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import embed, expander, john, markov, mazur, rayleigh
from .spaces import Configuration, MetricSpace, config_distance_matrix, pair_norms


def _rng(seed: int, criterion: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), criterion]))


# --- hypercube plumbing ------------------------------------------------------

def hypercube_corners(d: int, count: int | None = None) -> np.ndarray:
    """0/1 corners of the d-cube; when `count` is given, the first `count`
    corners in Gray-code order (consecutive corners differ in one bit, so the
    induced cube subgraph stays connected)."""
    if count is None:
        return np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    pts = []
    for i in range(count):
        g = i ^ (i >> 1)
        pts.append([float((g >> b) & 1) for b in range(d)])
    return np.array(pts)


def linf_metric(points: np.ndarray) -> np.ndarray:
    space = MetricSpace.lp(float("inf"), points.shape[1])
    return config_distance_matrix(Configuration(space, points))


def hypercube_walk_chain(corners: np.ndarray) -> markov.StochasticChain:
    """Uniform-stationary walk on the cube subgraph induced by the corners:
    neighbors differ in exactly one coordinate, off-diagonal rates 1/max_deg
    (Metropolis), remainder on the diagonal.  For the full corner set this is
    the standard cube walk."""
    n = corners.shape[0]
    l1 = MetricSpace.lp(1.0, corners.shape[1])
    ham = config_distance_matrix(Configuration(l1, corners))
    adj = (np.abs(ham - 1.0) < 1e-12).astype(float)
    deg = adj.sum(axis=1)
    dmax = float(np.max(deg))
    A = adj / dmax
    np.fill_diagonal(A, 1.0 - deg / dmax)
    pi = np.full(n, 1.0 / n)
    return markov.build_reversible_chain(A, pi)


# --- criteria ----------------------------------------------------------------

def criterion_1(seed: int) -> dict:
    """Heuristic gap on Euclidean targets reproduces 1/(1 - lambda_2)."""
    rng = _rng(seed, 1)
    worst_low, worst_high = 0.0, 0.0
    passed = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        chain = markov.random_reversible_chain(n, rng)
        exact = rayleigh.gamma_hilbert_exact(chain).value
        est = rayleigh.gamma_heuristic(
            chain, MetricSpace.lp(2.0, n), 2.0,
            restarts=2, iters=40, seed=int(rng.integers(2**32)),
        ).value
        if not (exact - 1e-6 <= est <= exact + 1e-9):
            passed = False
        worst_low = max(worst_low, exact - est)
        worst_high = max(worst_high, est - exact)
    return {"criterion": 1, "passed": passed,
            "details": {"worst_below": worst_low, "worst_above": worst_high}}


def criterion_2(seed: int) -> dict:
    """Flip-chain gap equals 1/2 for p in {1,2,3}; absolute-gap sandwich
    holds on a 50-instance random battery."""
    rng = _rng(seed, 2)
    flip = markov.build_reversible_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))
    two_point = MetricSpace.finite(np.array([[0.0, 1.0], [1.0, 0.0]]))
    flip_ok = all(
        rayleigh.gamma_bruteforce(flip, two_point, p).value == 0.5
        for p in (1.0, 2.0, 3.0)
    )
    sandwich_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        chain = markov.random_reversible_chain(n, rng)
        base = 1.0 + rng.uniform(0.0, 1.0, size=(m, m))
        base = (base + base.T) / 2.0
        np.fill_diagonal(base, 0.0)
        space = MetricSpace.finite(base)
        q = float(rng.integers(1, 3))
        rep = rayleigh.abs_gap_sandwich_check(chain, space, q)
        if not (rep["lower_ok"] and rep["upper_ok"]):
            sandwich_ok = False
    return {"criterion": 2, "passed": bool(flip_ok and sandwich_ok),
            "details": {"flip_ok": flip_ok, "sandwich_ok": sandwich_ok}}


def criterion_3(seed: int) -> dict:
    """Quotient calculus: affinity and dilution exact, product and power
    inequalities nonnegative, over 10^4 random instances."""
    rng = _rng(seed, 3)
    pool = [markov.random_reversible_chain(int(rng.integers(2, 5)), rng)
            for _ in range(50)]
    worst_eq, worst_ineq = 0.0, 0.0
    for _ in range(10_000):
        chainA = pool[int(rng.integers(len(pool)))]
        n = chainA.n
        if rng.integers(2) == 0:
            chainB = markov.lazy_power(chainA, 1)
        else:
            chainB = markov.build_reversible_chain(chainA.A @ chainA.A, chainA.pi)
        x = Configuration(MetricSpace.lp(2.0, 2), rng.standard_normal((n, 2)))
        rep = rayleigh.rayleigh_calculus_check(
            x, chainA, chainB, float(rng.uniform()), int(rng.integers(2, 4)),
            float(rng.integers(1, 4)),
        )
        worst_eq = max(worst_eq, rep["affinity_slack"], rep["dilution_slack"])
        worst_ineq = min(worst_ineq, rep["product_slack"], rep["power_slack"])
    passed = worst_eq <= 1e-12 and worst_ineq >= -1e-12
    return {"criterion": 3, "passed": bool(passed),
            "details": {"worst_equality_error": worst_eq,
                        "worst_inequality_slack": worst_ineq}}


def criterion_4(seed: int) -> dict:
    """Mazur map round trips and norm transfer exact; Holder exponent fits."""
    rng = _rng(seed, 4)
    space = MetricSpace.lp(3.0, 4)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        w = rng.uniform(0.1, 1.0, size=m)
        f = mazur.WeightedVectorFunction(w / w.sum(), rng.standard_normal((m, 4)))
        p = float(rng.uniform(1.0, 4.0))
        q = float(rng.uniform(1.0, 4.0))
        rep = mazur.mazur_roundtrip_check(f, space, p, q)
        worst = max(worst, rep["max_error"], rep["transfer_error"])
    fits = {}
    fit_ok = True
    scales = [0.8**k for k in range(20)]
    for p, q in ((1.0, 2.0), (1.5, 3.0), (2.0, 4.0)):
        w = np.full(3, 1.0 / 3.0)
        f = mazur.WeightedVectorFunction(w, rng.standard_normal((3, 4)))
        g = mazur.WeightedVectorFunction(w, rng.standard_normal((3, 4)))
        rep = mazur.mazur_holder_check(f, g, space, p, q, scales)
        fits[f"{p}/{q}"] = rep["fitted_exponent"]
        if rep["fitted_exponent"] < min(p / q, 1.0) - 0.1:
            fit_ok = False
    passed = worst <= 1e-12 and fit_ok
    return {"criterion": 4, "passed": bool(passed),
            "details": {"worst_identity_error": worst, "fitted_exponents": fits}}


def criterion_5(seed: int) -> dict:
    """Enclosing ellipsoids of cubes: D_X = sqrt(d) to 1e-3, containment and
    sandwich intact, ascent converges."""
    rng = _rng(seed, 5)
    worst_dx, worst_contain, worst_sandwich = 0.0, 0.0, 0.0
    for d in range(2, 7):
        space = MetricSpace.lp(float("inf"), d)
        out = john.hilbert_distance(space)
        dx, ell = out["D_X"], out["H"]
        worst_dx = max(worst_dx, abs(dx - math.sqrt(d)))
        verts = john.hypercube_vertices(d)
        levels = np.einsum("ij,jk,ik->i", verts, ell.Q, verts)
        worst_contain = max(worst_contain, float(np.max(levels)) - 1.0)
        u = rng.standard_normal((1000, d))
        h = pair_norms(MetricSpace.ellipsoid_space(ell), u)[0]
        x = pair_norms(space, u)[0]
        worst_sandwich = max(worst_sandwich, float(np.max(h - x)), float(np.max(x - dx * h)))
    passed = worst_dx <= 1e-3 and worst_contain <= 1e-9 and worst_sandwich <= 1e-6
    return {"criterion": 5, "passed": bool(passed),
            "details": {"worst_dx_error": worst_dx,
                        "worst_containment": worst_contain,
                        "worst_sandwich": worst_sandwich}}


def _growth_instances():
    """Corner sets for d in {2, 4, 8, 16}, subsampled to 32 points beyond
    d = 4, with their half-snowflaked l_inf metrics."""
    for d in (2, 4, 8, 16):
        count = None if d <= 4 else 32
        corners = hypercube_corners(d, count)
        yield d, corners, linf_metric(corners)


def criterion_6(seed: int) -> dict:
    """Banded growth of the achieved quadratic average distortion over cube
    corners with theta = 1/2, plus feasibility of every Lipschitz cap."""
    ratios = {}
    lip_ok = True
    embeddings = {}
    for d, corners, dist in _growth_instances():
        n = corners.shape[0]
        mu = np.full(n, 1.0 / n)
        emb = embed.average_embed_hilbert(dist, mu, 0.5)
        embeddings[d] = (emb, corners, dist)
        sq = emb.factor @ emb.factor.T
        diag = np.diag(sq)
        pair_sq = diag[:, None] + diag[None, :] - 2.0 * sq
        caps = dist  # theta = 1/2 so caps are d^{2 theta} = d
        if np.max(pair_sq - caps) > 1e-6:
            lip_ok = False
        ratios[d] = emb.d_achieved / math.sqrt(math.log(d + 1.0))
    base = ratios[2]
    monotone = all(ratios[a] <= 10.0 * base and ratios[a] >= base / 10.0
                   for a in ratios)
    passed = lip_ok and monotone
    return {"criterion": 6, "passed": bool(passed),
            "details": {"band_ratios": {str(k): v for k, v in ratios.items()},
                        "lipschitz_ok": lip_ok},
            "embeddings": embeddings}


def criterion_7(seed: int, embeddings: dict | None = None) -> dict:
    """Forward duality on every growth-law embedding against the lazy cube
    walk, plus the assembled-map witness check with its scaled negative
    control."""
    if embeddings is None:
        embeddings = criterion_6(seed)["embeddings"]
    forward_ok = True
    slacks = {}
    witness_ok = True
    control_ok = True
    for d, (emb, corners, dist) in embeddings.items():
        chain = markov.lazy_power(hypercube_walk_chain(corners), 1)
        rep = embed.duality_forward_check(emb.d_achieved, chain, dist, 0.5)
        slacks[str(d)] = rep["slack"]
        if not rep["product_ok"]:
            forward_ok = False
        n = corners.shape[0]
        mu = np.full(n, 1.0 / n)
        scaled = emb.factor / math.sqrt(max(emb.spread_certificate, 1e-300))
        wrep = embed.duality_witness_check(
            np.array([0.5, 0.5]), np.stack([scaled, scaled]), dist, mu,
            2.0, 0.5, emb.d_achieved, 1e-9,
        )
        if not (wrep["lipschitz_ok"] and wrep["average_ok"]):
            witness_ok = False
        crep = embed.duality_witness_check(
            np.array([1.0]), scaled[None, :, :] / 2.0, dist, mu,
            2.0, 0.5, emb.d_achieved, 1e-9,
        )
        if crep["average_ok"]:
            control_ok = False
    passed = forward_ok and witness_ok and control_ok
    return {"criterion": 7, "passed": bool(passed),
            "details": {"forward_slacks": slacks, "witness_ok": witness_ok,
                        "negative_control_rejected": control_ok}}


def criterion_8(seed: int) -> dict:
    """Mean-zero operator norm bound holds on 100 random reversible chains."""
    rng = _rng(seed, 8)
    worst = -float("inf")
    passed = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        chain = markov.random_reversible_chain(n, rng)
        rep = markov.meanzero_opnorm_bound_check(chain)
        worst = max(worst, rep["lhs"] - rep["rhs"])
        if not rep["holds"]:
            passed = False
    return {"criterion": 8, "passed": passed, "details": {"worst_excess": worst}}


def criterion_9(seed: int) -> dict:
    """Cubic-graph pipeline: structural validation, distance spread, and the
    closed-form bound calculators."""
    rng = _rng(seed, 9)
    structure_ok = True
    spread_ok = True
    for n in (16, 32, 64, 128):
        for _ in range(100):
            g = expander.random_regular_graph(n, 3, int(rng.integers(2**32)))
            deg = np.zeros(n, dtype=int)
            for u, v in g.edges:
                if u == v:
                    structure_ok = False
                deg[u] += 1
                deg[v] += 1
            if len(set(g.edges)) != len(g.edges) or not np.all(deg == 3):
                structure_ok = False
            if not g.connected:
                structure_ok = False
            if not expander.distance_spread_check(g)["holds"]:
                spread_ok = False
    vals = (
        expander.dimension_lower_bound(1024, 4, 1.0, 1.0, 1.0),
        expander.avg_distortion_lower_bound(1024, 4, 2.0, 2.0),
        expander.coarse_obstruction(2.0, 1.0, 2.0),
    )
    targets = (math.e**5, 5.0 / math.sqrt(2.0), 2.0)
    formulas_ok = all(abs(v - t) <= 1e-3 for v, t in zip(vals, targets))
    passed = structure_ok and spread_ok and formulas_ok
    return {"criterion": 9, "passed": bool(passed),
            "details": {"structure_ok": structure_ok, "spread_ok": spread_ok,
                        "formula_values": list(vals)}}


def run_acceptance(seed: int) -> dict:
    """Run criteria 1 through 9 and collect a deterministic report.

    Criterion 7 consumes the embeddings of criterion 6.  Determinism itself
    (criterion 10) is verified by running this twice with the same seed and
    comparing serialized reports byte for byte.
    """
    results = [criterion_1(seed), criterion_2(seed), criterion_3(seed),
               criterion_4(seed), criterion_5(seed), criterion_6(seed)]
    embeddings = results[-1].pop("embeddings")
    results += [criterion_7(seed, embeddings), criterion_8(seed), criterion_9(seed)]
    return {
        "suite": "acceptance",
        "seed": int(seed),
        "criteria": results,
        "passed": bool(all(r["passed"] for r in results)),
    }
