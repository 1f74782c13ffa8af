"""Metric and normed space descriptors with snowflaking.

A MetricSpace is either a finite metric (dense distance matrix) or a normed
space on R^d given by an l_p exponent, a symmetric polytope unit ball, or a
positive-definite quadratic form.  A polytope stores the facet normals of
its unit ball (from Qhull, d <= POLYTOPE_DIM_CAP), so its norm is a maximum
of inner products.  Every norm evaluation goes through `pair_norms`.  All
distances are reported through the snowflake exponent theta in (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    BadExponentRange,
    DegenerateSpan,
    DimensionMismatch,
    InstanceTooLarge,
    LengthMismatch,
    NotAMetric,
    UnsupportedSpace,
)

FINITE_N_CAP = 512
TRIANGLE_TOL = 1e-9
POLYTOPE_DIM_CAP = 12  # facet counts grow exponentially with the dimension
# bound on the upper-bound-theorem facet count of the symmetrized vertices,
# checked before Qhull runs: the gap heuristic takes at most 200,000 facets
# (n^2 F <= HEURISTIC_CAP with n >= 2), and random inputs at the cap built in
# about 0.3 s; 40 random vertices in d = 10 (bound 1.8e7) took 12 s and 315 MB
POLYTOPE_FACET_CAP = 200_000


@dataclass(frozen=True)
class EllipsoidNorm:
    """Hilbertian norm sqrt(y^T Q y) for symmetric positive-definite Q."""

    Q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.Q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionMismatch("Q must be square")
        if np.max(np.abs(q - q.T)) > 1e-12:
            raise DimensionMismatch("Q must be symmetric")
        if np.min(np.linalg.eigvalsh(q)) <= 0:
            raise DimensionMismatch("Q must be positive definite")
        object.__setattr__(self, "Q", q)
        q.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.Q.shape[0]


@dataclass(frozen=True)
class MetricSpace:
    kind: str  # finite | lp_norm | polytope_norm | ellipsoid_norm
    theta: float = 1.0
    dist: Optional[np.ndarray] = None
    p: Optional[float] = None
    dim: Optional[int] = None
    vertices: Optional[np.ndarray] = None
    ellipsoid: Optional[EllipsoidNorm] = None
    # polytope facet normals z, one per row, with the norm max_z <z, y>
    facets: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise BadExponentRange(f"snowflake exponent must be in (0,1], got {self.theta}")
        if self.kind == "finite":
            d = _validate_finite_metric(self.dist)
            object.__setattr__(self, "dist", d)
            d.setflags(write=False)
        elif self.kind == "lp_norm":
            if self.p is None or self.p < 1.0:
                raise BadExponentRange("l_p norm requires p >= 1")
            if not self.dim or self.dim < 1:
                raise DimensionMismatch("l_p norm requires a positive dimension")
        elif self.kind == "polytope_norm":
            v = np.asarray(self.vertices, dtype=float)
            if v.ndim != 2 or v.size == 0:
                raise DimensionMismatch("polytope vertices must be a nonempty m-by-d array")
            if v.shape[1] > POLYTOPE_DIM_CAP:
                raise UnsupportedSpace(f"polytope norms capped at d = {POLYTOPE_DIM_CAP}")
            # enforce origin symmetry by augmenting with negations; Qhull and
            # the MVEE take repeated points as they are
            v = np.vstack([v, -v])
            if np.linalg.matrix_rank(v) < v.shape[1]:
                raise DimensionMismatch("polytope vertices do not span R^d")
            bound = _facet_bound(*v.shape)
            if bound > POLYTOPE_FACET_CAP:
                raise InstanceTooLarge(f"{v.shape[0]} symmetrized vertices in d = {v.shape[1]} "
                                       f"bound the facet count by {bound}, which exceeds "
                                       f"{POLYTOPE_FACET_CAP}")
            z = _facet_normals(v)
            object.__setattr__(self, "vertices", v)
            object.__setattr__(self, "facets", z)
            object.__setattr__(self, "dim", v.shape[1])
            v.setflags(write=False)
            z.setflags(write=False)
        elif self.kind == "ellipsoid_norm":
            if self.ellipsoid is None:
                raise DimensionMismatch("ellipsoid_norm requires an EllipsoidNorm")
            object.__setattr__(self, "dim", self.ellipsoid.dim)
        else:
            raise UnsupportedSpace(f"unknown space kind {self.kind!r}")

    # --- constructors -----------------------------------------------------

    @staticmethod
    def finite(dist, theta: float = 1.0) -> "MetricSpace":
        return MetricSpace(kind="finite", dist=np.asarray(dist, dtype=float), theta=theta)

    @staticmethod
    def lp(p: float, dim: int, theta: float = 1.0) -> "MetricSpace":
        return MetricSpace(kind="lp_norm", p=float(p), dim=int(dim), theta=theta)

    @staticmethod
    def polytope(vertices, theta: float = 1.0) -> "MetricSpace":
        return MetricSpace(kind="polytope_norm", vertices=np.asarray(vertices, dtype=float),
                           theta=theta)

    @staticmethod
    def ellipsoid_space(ellipsoid: EllipsoidNorm, theta: float = 1.0) -> "MetricSpace":
        return MetricSpace(kind="ellipsoid_norm", ellipsoid=ellipsoid, theta=theta)

    @property
    def is_normed(self) -> bool:
        return self.kind in ("lp_norm", "polytope_norm", "ellipsoid_norm")

    @property
    def n_points(self) -> int:
        if self.kind != "finite":
            raise UnsupportedSpace("n_points is defined for finite spaces only")
        return self.dist.shape[0]

    def gauge(self, y: np.ndarray) -> float:
        """Norm of a vector (no snowflaking)."""
        return float(pair_norms(self, y)[0])


def pair_norms(space: MetricSpace, diffs) -> tuple:
    """Norms of the vectors along the last axis of `diffs`, and one
    subgradient of the norm at each; shapes diffs.shape[:-1] and diffs.shape.

    A polytope norm is max_z <z, y> over the facet normals and its
    subgradient is the arg-max normal.  Smooth norms get the zero subgradient
    at the origin.  Sums call np.add.reduce, which np.sum wraps in Python
    code that costs about as much as the sum on the ascent's small batches.
    """
    if not space.is_normed:
        raise UnsupportedSpace("norms are defined for normed spaces only")
    diffs = np.asarray(diffs, dtype=float)
    if diffs.shape[-1] != space.dim:
        raise DimensionMismatch("vector dimension mismatch")
    if space.kind == "lp_norm" and space.p == 2.0:
        norms = np.sqrt(np.add.reduce(diffs**2, axis=-1))
        safe = np.where(norms > 0, norms, 1.0)
        grads = diffs / safe[..., None]
    elif space.kind == "lp_norm" and np.isinf(space.p):
        # row-wise fancy indexing on the flattened batch: both numpy's
        # max-reduction over a short last axis and *_along_axis cost more
        flat = diffs.reshape(-1, space.dim)
        rows = np.arange(flat.shape[0])
        top = np.argmax(np.abs(flat), axis=-1)
        vals = flat[rows, top]
        norms = np.abs(vals).reshape(diffs.shape[:-1])
        grads = np.zeros_like(flat)
        grads[rows, top] = np.where(vals != 0, np.sign(vals), 1.0)
        grads = grads.reshape(diffs.shape)
    elif space.kind == "lp_norm" and space.p == 1.0:
        norms = np.add.reduce(np.abs(diffs), axis=-1)
        grads = np.sign(diffs)
    elif space.kind == "lp_norm":
        q = space.p
        size = np.abs(diffs)
        norms = np.add.reduce(size**q, axis=-1) ** (1.0 / q)
        safe = np.where(norms > 0, norms, 1.0)
        grads = np.sign(diffs) * (size / safe[..., None]) ** (q - 1.0)
    elif space.kind == "ellipsoid_norm":
        qmat = space.ellipsoid.Q
        norms = np.sqrt(np.einsum("...k,kl,...l->...", diffs, qmat, diffs))
        safe = np.where(norms > 0, norms, 1.0)
        grads = np.einsum("...k,kl->...l", diffs, qmat) / safe[..., None]
    else:
        scores = diffs @ space.facets.T
        top = np.argmax(scores, axis=-1)
        # row-wise fancy indexing, as for l_inf: take_along_axis costs more
        flat = scores.reshape(-1, scores.shape[-1])
        norms = flat[np.arange(flat.shape[0]), top.ravel()].reshape(top.shape)
        grads = space.facets[top]
    return norms, grads


def _validate_finite_metric(dist, positive: bool = False) -> np.ndarray:
    """The distance matrix as a float array, once it is a square matrix of at
    most FINITE_N_CAP points with finite entries and a zero diagonal,
    symmetric, nonnegative (strictly positive off the diagonal when
    `positive`) and satisfying the triangle inequality.  The size cap is
    checked before the O(n^3) triangle test runs."""
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimensionMismatch("distance matrix must be square")
    n = d.shape[0]
    if n > FINITE_N_CAP:
        raise DimensionMismatch(f"finite metrics capped at {FINITE_N_CAP} points")
    if not np.all(np.isfinite(d)):
        raise NotAMetric("distances must be finite")
    if np.max(np.abs(np.diag(d))) > 1e-12:
        raise NotAMetric("distance matrix must have a zero diagonal")
    if np.max(np.abs(d - d.T)) > 1e-12:
        raise NotAMetric("distance matrix must be symmetric")
    if np.min(d) < 0:
        raise NotAMetric("distances must be nonnegative")
    d = d * (1.0 - np.eye(n))  # exactly 0, so constant configurations stay constant
    if positive and np.min(d + np.eye(n)) <= 0:
        raise NotAMetric("off-diagonal distances must be positive")
    # d_ik <= min_j d_ij + d_jk by broadcasting, in row blocks of about 2^20
    # sums so the O(n^3) test holds O(n^2) memory
    block = max(1, 2**20 // (n * n))
    for lo in range(0, n, block):
        through = np.min(d[lo:lo + block, :, None] + d[None, :, :], axis=1)
        if np.max(d[lo:lo + block] - through) > TRIANGLE_TOL:
            raise NotAMetric("triangle inequality violated")
    return d


def _facet_bound(v: int, d: int) -> int:
    """The upper bound theorem: no d-polytope with v vertices has more facets
    than the cyclic polytope, nor does a triangulation of its boundary."""
    return math.comb(v - (d + 1) // 2, d // 2) + math.comb(v - d // 2 - 1, (d - 1) // 2)


def _facet_normals(v: np.ndarray) -> np.ndarray:
    """Outer normals z of the facets of the symmetric body conv(v), scaled so
    each facet is {x : <z, x> = 1}.  Qhull triangulates, so facets split into
    simplices repeat their normal; the repeats are dropped."""
    if v.shape[1] == 1:  # Qhull needs two dimensions; the ball is [-r, r]
        return np.array([[1.0], [-1.0]]) / np.max(np.abs(v))
    from scipy.spatial import ConvexHull, QhullError

    try:
        eqs = ConvexHull(v).equations  # rows [a, b] with a.x + b <= 0 inside
    except QhullError as exc:
        raise DegenerateSpan(f"Qhull failed on the polytope vertices: {exc}") from exc
    if np.max(eqs[:, -1]) >= -1e-12:
        raise DegenerateSpan("unit ball does not contain the origin")
    return np.unique(eqs[:, :-1] / -eqs[:, -1:], axis=0)


@dataclass(frozen=True)
class Configuration:
    """An n-tuple of points, one per chain state.

    For finite spaces `points` is an index vector; for normed spaces it is
    an n-by-d coordinate matrix.
    """

    space: MetricSpace
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points)
        if self.space.kind == "finite":
            pts = pts.astype(int)
            if pts.ndim != 1:
                raise LengthMismatch("finite configuration must be an index vector")
            if pts.min() < 0 or pts.max() >= self.space.n_points:
                raise LengthMismatch("configuration index out of range")
        else:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            if self.space.dim is not None and pts.shape[1] != self.space.dim:
                raise DimensionMismatch("configuration dimension mismatch")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def config_distance_matrix(x: Configuration) -> np.ndarray:
    """Pairwise snowflaked distances of a configuration."""
    space = x.space
    if space.kind == "finite":
        base = space.dist[np.ix_(x.points, x.points)]
    else:
        base = pair_norms(space, x.points[:, None, :] - x.points[None, :, :])[0]
    return base ** space.theta


# --- I/O -------------------------------------------------------------------

def space_from_json(obj) -> MetricSpace:
    """{"kind":"finite","dist":[[...]]} | {"kind":"lp","p":2,"dim":4}
    | {"kind":"polytope","vertices":[[...]]}, each with optional "theta"."""
    theta = float(obj.get("theta", 1.0))
    kind = obj["kind"]
    if kind == "finite":
        return MetricSpace.finite(obj["dist"], theta=theta)
    if kind == "lp":
        p = obj["p"]
        p = float("inf") if p in ("inf", "Infinity") else float(p)
        return MetricSpace.lp(p, int(obj["dim"]), theta=theta)
    if kind == "polytope":
        return MetricSpace.polytope(obj["vertices"], theta=theta)
    if kind == "ellipsoid":
        return MetricSpace.ellipsoid_space(EllipsoidNorm(np.array(obj["Q"], dtype=float)),
                                           theta=theta)
    raise UnsupportedSpace(f"unknown space kind {kind!r}")


def space_to_json(space: MetricSpace) -> dict:
    out = {"theta": space.theta}
    if space.kind == "finite":
        out.update(kind="finite", dist=space.dist.tolist())
    elif space.kind == "lp_norm":
        out.update(kind="lp", p="inf" if np.isinf(space.p) else space.p, dim=space.dim)
    elif space.kind == "polytope_norm":
        # the given vertices only: a reread would add the stored negations again
        given = space.vertices[: space.vertices.shape[0] // 2]
        out.update(kind="polytope", vertices=given.tolist())
    else:
        out.update(kind="ellipsoid", Q=space.ellipsoid.Q.tolist())
    return out
