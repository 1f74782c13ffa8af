"""Minimum-volume enclosing ellipsoids and Hilbertian norm sandwiches.

For an origin-symmetric convex body given by vertices, the MVEE yields a
Hilbertian norm H with ||y||_H <= ||y||_X <= D_X ||y||_H and D_X <= sqrt(d).
The ellipsoid (centered at the origin) is computed by vertex-exchange steps
on the points with their negations folded in, keeping M^{-1} and the point
levels current by rank-one updates.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DegenerateSpan, DimensionMismatch, NoConvergence, UnsupportedSpace
from .spaces import POLYTOPE_DIM_CAP, EllipsoidNorm, MetricSpace, pair_norms

MVEE_CAP = 100_000
MVEE_TOL = 1e-7
MVEE_REFRESH = 100  # steps between exact recomputations of M^{-1} and the levels
LP_DIM_CAP = 64  # the sampled l_p ball in 64 dimensions takes about 16 s of CPU


def hypercube_vertices(d: int) -> np.ndarray:
    """All 2^d sign vectors, the vertices of the l_inf unit ball."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d)))


def crosspolytope_vertices(d: int) -> np.ndarray:
    """The 2d signed basis vectors, the vertices of the l_1 unit ball."""
    eye = np.eye(d)
    return np.vstack([eye, -eye])


def mvee(points) -> tuple:
    """Minimum-volume origin-centered ellipsoid containing the given points
    and their negations, with its solver record.

    Vertex exchange on the D-optimal design dual (Boehning 1986): with
    M(u) = sum_i u_i p_i p_i^T over the given points (p and -p share the
    level p^T M^{-1} p and the term p p^T, so the negations are folded in),
    each step moves weight from the supported point of least level to the
    point of greatest level by the closed-form log-det line search, until the
    greatest level is within (1 + MVEE_TOL) of the dimension d.  M^{-1} and the
    levels follow each step by two rank-one (Sherman-Morrison) updates and
    are recomputed exactly every MVEE_REFRESH steps and before convergence
    is declared.  The ellipsoid is {y : y^T Q y <= 1} with Q = M^{-1}/d,
    rescaled so the farthest point sits exactly on the boundary.  More than
    MVEE_CAP steps raise NoConvergence.  The record holds the steps taken,
    the stop reason and the residual max level / d - 1 of the final exact
    recomputation.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = pts.shape
    if 2 * m < d + 1:
        raise DegenerateSpan("need at least d + 1 points")
    if np.linalg.matrix_rank(pts) < d:
        raise DegenerateSpan("points do not span the ambient space")
    u = np.full(m, 1.0 / m)
    bound = d * (1.0 + MVEE_TOL)
    converged = False
    for it in range(MVEE_CAP):
        exact = it % MVEE_REFRESH == 0
        if exact:
            inv, levels = _exact_levels(pts, u)
        j_plus = int(np.argmax(levels))
        if levels[j_plus] <= bound:
            if not exact:
                inv, levels = _exact_levels(pts, u)
                j_plus = int(np.argmax(levels))
            if levels[j_plus] <= bound:
                converged = True
                break
        j_minus = int(np.argmin(np.where(u > 0, levels, np.inf)))
        g_plus, g_minus = levels[j_plus], levels[j_minus]
        g_cross = pts[j_minus] @ inv @ pts[j_plus]
        spread = g_plus * g_minus - g_cross * g_cross
        step = u[j_minus]
        if spread > 0:
            step = min(step, (g_plus - g_minus) / (2.0 * spread))
        u[j_plus] += step
        u[j_minus] -= step
        _rank_one_update(inv, levels, pts, pts[j_plus], step)
        _rank_one_update(inv, levels, pts, pts[j_minus], -step)
    if not converged:
        raise NoConvergence(f"vertex-exchange MVEE exhausted {MVEE_CAP} iterations")
    Q = inv / d  # inv was recomputed exactly from the final weights
    Q = (Q + Q.T) / 2.0
    # push the boundary out to the farthest point so containment is exact
    worst = float(np.max(np.einsum("ij,jk,ik->i", pts, Q, pts)))
    if worst > 1.0:
        Q = Q / worst
    record = {"iterations": it, "stop": "converged",
              "residual": float(levels[j_plus]) / d - 1.0}
    return EllipsoidNorm(Q), record


def _exact_levels(pts: np.ndarray, u: np.ndarray) -> tuple:
    """M(u)^{-1} and the levels p_i^T M(u)^{-1} p_i, computed from scratch."""
    inv = np.linalg.inv(pts.T @ (u[:, None] * pts))
    return inv, np.einsum("ij,jk,ik->i", pts, inv, pts)


def _rank_one_update(inv: np.ndarray, levels: np.ndarray, pts: np.ndarray,
                     p: np.ndarray, c: float) -> None:
    """Update M^{-1} and the levels in place for M += c p p^T."""
    v = inv @ p
    scale = c / (1.0 + c * (p @ v))
    w = pts @ v
    inv -= scale * np.outer(v, v)
    levels -= scale * w * w


def hilbert_distance(space: MetricSpace) -> dict:
    """Hilbertian norm H and factor D_X with ||y||_H <= ||y||_X <= D_X ||y||_H.

    The H-ball is the MVEE of the unit ball of X, which guarantees the lower
    sandwich; D_X is the exact maximum of ||y||_X over the H-sphere, taken
    over facet normals when a facet description exists and over sampled
    directions otherwise (max(1000, 50 d) at seed 0 span the ball, 1000 at
    seed 1 estimate D_X; the sampling slack is reported).  For polytopal
    balls in dimension d, D_X <= sqrt(d).  Where the MVEE ran, its solver
    record (`iterations`, `stop`, `residual`) is reported too.  An l_p space
    of more than LP_DIM_CAP dimensions is refused before anything is built.
    """
    if not space.is_normed:
        raise UnsupportedSpace("the Hilbertian sandwich requires a normed space")
    d = space.dim
    if space.kind == "lp_norm" and d > LP_DIM_CAP:
        raise DimensionMismatch(f"l_p sandwiches capped at d = {LP_DIM_CAP}")
    approximate = False
    if space.kind == "ellipsoid_norm":
        return {"D_X": 1.0, "H": space.ellipsoid, "approximate": False}
    if space.kind == "lp_norm" and space.p == 2.0:
        return {"D_X": 1.0, "H": EllipsoidNorm(np.eye(d)), "approximate": False}
    if space.kind == "lp_norm" and space.p in (1.0, float("inf")):
        if d > POLYTOPE_DIM_CAP:
            raise DimensionMismatch(f"cube vertex enumeration capped at d = {POLYTOPE_DIM_CAP}")
        cube, cross = hypercube_vertices(d), crosspolytope_vertices(d)
        verts, normals = (cube, cross) if np.isinf(space.p) else (cross, cube)
    elif space.kind == "lp_norm":
        # no finite vertex description: sample the unit sphere of the norm
        approximate = True
        rng = np.random.default_rng(np.random.SeedSequence(0))
        dirs = rng.standard_normal((max(1000, 50 * d), d))
        verts = dirs / pair_norms(space, dirs)[0][:, None]
    else:
        verts, normals = space.vertices, space.facets
    ell, record = mvee(verts)
    if approximate:
        # directional estimate of the upper factor on fresh samples
        rng = np.random.default_rng(np.random.SeedSequence(1))
        dirs = rng.standard_normal((1000, d))
        hs = pair_norms(MetricSpace.ellipsoid_space(ell), dirs)[0]
        xs = pair_norms(space, dirs)[0]
        ratios = xs / hs
        dx = float(np.max(ratios))
        lower_violation = float(max(0.0, np.max(hs / xs) - 1.0))
        if lower_violation > 0:
            # enlarge the ellipsoid so the sampled lower sandwich holds
            ell = EllipsoidNorm(ell.Q / (1.0 + lower_violation) ** 2)
            dx *= 1.0 + lower_violation
        return {"D_X": dx, "H": ell, "approximate": True,
                "sampling_slack": lower_violation, **record}
    inv = np.linalg.inv(ell.Q)
    dx = float(np.sqrt(np.max(np.einsum("ij,jk,ik->i", normals, inv, normals))))
    return {"D_X": max(dx, 1.0), "H": ell, "approximate": False, **record}
