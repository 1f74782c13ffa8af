"""Independent correctness checks of request outputs.

Each check recomputes what the report claims from the generated inputs,
with numpy/scipy code that shares nothing with `nsgap`: spectra from
`np.linalg.eigvalsh`, graph distances from `scipy.sparse.csgraph`, polytope
norms from facet normals (`scipy.spatial.ConvexHull`), and certificates
from the reported embedding factor.  A check raises `CheckFailed`.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial import ConvexHull

PROVENANCE = {"exact", "brute_force", "heuristic", "fitted"}
# plain re-enumeration runs only on instances with at most this many
# configurations (or configuration pairs for gap-plus)
RECHECK_CAP = 70_000


class CheckFailed(Exception):
    pass


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(got, want, rtol: float, what: str) -> None:
    _require(isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=rtol,
                                                           abs_tol=1e-12),
             f"{what}: reported {got!r}, recomputed {want!r}")


# --- independent numerics ---------------------------------------------------

def _chain(obj):
    return np.array(obj["rows"], dtype=float), np.array(obj["pi"], dtype=float)


def _lambda2(A: np.ndarray, pi: np.ndarray) -> float:
    root = np.sqrt(pi)
    s = root[:, None] * A / root[None, :]
    return float(np.sort(np.linalg.eigvalsh((s + s.T) / 2.0))[-2])


def _norm_fn(space: dict):
    """Vectorised norm over the last axis, for every normed space kind."""
    kind = space["kind"]
    if kind == "lp":
        p = math.inf if space["p"] == "inf" else float(space["p"])
        return lambda y: np.linalg.norm(y, ord=p, axis=-1)
    if kind == "ellipsoid":
        Q = np.array(space["Q"])
        return lambda y: np.sqrt(np.einsum("...i,ij,...j->...", y, Q, y))
    if kind == "polytope":
        Z = _facet_normals(np.array(space["vertices"]))
        return lambda y: np.max(y @ Z.T, axis=-1)
    raise CheckFailed(f"no norm for space kind {kind!r}")


def _ball_vertices(space: dict, dim: int) -> np.ndarray:
    if space["kind"] == "polytope":
        v = np.array(space["vertices"])
        return np.vstack([v, -v])
    if space["p"] == "inf":
        return np.array(list(itertools.product((-1.0, 1.0), repeat=dim)))
    return np.vstack([np.eye(dim), -np.eye(dim)])


def _facet_normals(vertices: np.ndarray) -> np.ndarray:
    hull = ConvexHull(np.vstack([vertices, -vertices]))
    return hull.equations[:, :-1] / -hull.equations[:, -1:]


def _quotient(A, pi, powered) -> float:
    return float(np.sum(pi[:, None] * A * powered) / np.sum(np.outer(pi, pi) * powered))


def _enumerate_ratios(dist_p, A, pi, m, n, pairs: bool) -> float:
    """Largest pair-average over edge-average of powered distances over every
    configuration (or configuration pair)."""
    configs = np.array(list(itertools.product(range(m), repeat=n)))
    w, u = pi[:, None] * A, np.outer(pi, pi)
    shape = (len(configs), len(configs)) if pairs else (len(configs),)
    num, den = np.zeros(shape), np.zeros(shape)
    for i in range(n):
        for j in range(n):
            if pairs:
                vals = dist_p[configs[:, i][:, None], configs[None, :, j]]
            else:
                vals = dist_p[configs[:, i], configs[:, j]]
            num += w[i, j] * vals
            den += u[i, j] * vals
    live = den > 0
    return float(np.max(den[live] / num[live]))


# --- per-kind checks ----------------------------------------------------------

def _check_expander(req, rep: dict) -> None:
    n, d = req.expect["n"], req.expect["d"]
    graph = rep["graph"]
    edges = np.array(graph["edges"], dtype=int)
    _require(graph["n"] == n and graph["d"] == d, "graph size differs from the request")
    _require(edges.shape == (n * d // 2, 2), "edge count is not n*d/2")
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    _require(np.all(lo != hi), "graph has a loop")
    _require(np.unique(lo * n + hi).size == len(edges), "graph has a multi-edge")
    _require(np.all(np.bincount(edges.ravel(), minlength=n) == d), "graph is not d-regular")
    adj = np.zeros((n, n))
    adj[lo, hi] = adj[hi, lo] = 1.0
    lam2 = float(np.sort(np.linalg.eigvalsh(adj / d))[-2])
    _close(rep["lambda2"], lam2, 1e-9, "lambda2")
    _close(rep["gamma_classical"], 1.0 / (1.0 - lam2), 1e-8, "gamma_classical")
    dist = shortest_path(coo_matrix((np.ones(len(edges)), (lo, hi)), shape=(n, n)),
                         directed=False, unweighted=True)
    threshold = math.floor(math.log(n / 2.0) / math.log(d))
    count = int(np.min(np.sum(dist >= threshold, axis=1)))
    spread = rep["distance_spread"]
    _require(spread["threshold"] == threshold and spread["count"] == count,
             f"distance spread {spread} differs from BFS ({threshold}, {count})")
    _require(spread["holds"] == (count >= n / 2.0), "distance spread verdict is wrong")


def _check_gap(req, rep: dict) -> None:
    A, pi = _chain(req.expect["chain"])
    space, p = req.expect["space"], req.expect["p"]
    pts = np.array(rep["witness"], dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if rep["provenance"] == "exact":
        _close(rep["value"], 1.0 / (1.0 - _lambda2(A, pi)), 1e-9, "exact l2 gap")
        norms = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        rtol = 1e-9
    else:
        _require(rep["provenance"] == "heuristic", "normed gap is neither exact nor heuristic")
        norms = _norm_fn(space)(pts[:, None, :] - pts[None, :, :])
        rtol = 1e-6 if space["kind"] == "polytope" else 1e-9
    _close(rep["value"], 1.0 / _quotient(A, pi, norms ** p), rtol, "1/R at the witness")


def _check_brute(req, rep: dict) -> None:
    A, pi = _chain(req.expect["chain"])
    dist_p = req.expect["dist"] ** req.expect["p"]
    m, n = dist_p.shape[0], A.shape[0]
    pairs = req.kind == "gap-plus"
    _require(rep["provenance"] == "brute_force", "enumeration is not tagged brute_force")
    if pairs:
        x, y = (np.array(c, dtype=int) for c in rep["witness"])
        at_witness = dist_p[x[:, None], y[None, :]]
    else:
        x = np.array(rep["witness"], dtype=int)
        at_witness = dist_p[x[:, None], x[None, :]]
    _close(rep["value"], 1.0 / _quotient(A, pi, at_witness), 1e-9, "ratio at the witness")
    size = m ** (2 * n if pairs else n)
    if size <= RECHECK_CAP:
        _close(rep["value"], _enumerate_ratios(dist_p, A, pi, m, n, pairs), 1e-9,
               "plain re-enumeration")


def _check_john(req, rep: dict) -> None:
    space = req.expect["space"]
    Q = np.array(rep["Q"])
    dim = Q.shape[0]
    _require(np.min(np.linalg.eigvalsh((Q + Q.T) / 2.0)) > 0, "H is not positive definite")
    dx = rep["D_X"]
    if space["kind"] == "lp" and space["p"] not in ("inf", 1.0):
        # sampled unit sphere: spot-check both sandwich halves on fresh directions
        _require(rep["provenance"] == "heuristic", "sampled sandwich is not tagged heuristic")
        y = np.random.default_rng(12345).standard_normal((2000, dim))
        h = np.sqrt(np.einsum("ij,jk,ik->i", y, Q, y))
        x = _norm_fn(space)(y)
        _require(np.all(h <= x * 1.05), "||y||_H <= ||y||_X fails on a fresh direction")
        _require(np.all(x <= dx * h * 1.05), "||y||_X <= D_X ||y||_H fails on a fresh direction")
        return
    _require(rep["provenance"] == "exact", "vertex sandwich is not tagged exact")
    verts = _ball_vertices(space, dim)
    levels = np.einsum("ij,jk,ik->i", verts, Q, verts)
    _require(np.max(levels) <= 1.0 + 1e-9, "a vertex of the unit ball lies outside H")
    normals = _facet_normals(verts)
    want = max(1.0, float(np.sqrt(np.max(np.einsum("ij,jk,ik->i", normals,
                                                     np.linalg.inv(Q), normals)))))
    _close(dx, want, 1e-6, "D_X from facet normals")
    if space["kind"] == "lp" and space["p"] == "inf":
        _require(abs(dx - math.sqrt(dim)) <= 1e-3, f"cube D_X {dx} is not sqrt({dim})")


def _check_mazur(req, rep: dict) -> None:
    if req.kind == "mazur-roundtrip":
        _require(rep["provenance"] == "exact", "round trip is not tagged exact")
        _require(rep["max_error"] <= 1e-12, f"round-trip error {rep['max_error']:.3e}")
        _require(rep["transfer_error"] <= 1e-9, f"norm transfer error {rep['transfer_error']:.3e}")
        return
    _require(rep["provenance"] == "fitted", "Holder fit is not tagged fitted")
    target = min(req.expect["p"] / req.expect["q"], 1.0)
    _close(rep["target_exponent"], target, 1e-12, "target exponent")
    _require(rep["slope_ok"] and rep["fitted_exponent"] >= target - 0.1,
             f"fitted exponent {rep['fitted_exponent']} below {target} - 0.1")


def _check_embed(req, rep: dict) -> None:
    dist = req.expect["dist"]
    n = dist.shape[0]
    F = np.array(rep["factor"], dtype=float)
    sq = np.sum((F[:, None, :] - F[None, :, :]) ** 2, axis=-1)
    off = ~np.eye(n, dtype=bool)
    snow = np.sqrt(dist)  # theta = 1/2
    lip = float(np.max(np.sqrt(sq[off]) / snow[off]))
    spread = float(np.sum(sq) / np.sum(snow**2))  # uniform weights cancel
    _close(rep["lip"], lip, 1e-6, "Lipschitz certificate")
    _close(rep["spread"], spread, 1e-6, "spread certificate")
    _close(rep["D_achieved"], lip / math.sqrt(spread), 1e-6, "D_achieved")
    _require(lip <= 1.0 + 1e-6, f"embedding breaks a Lipschitz cap: {lip}")


def _check_duality(req, rep: dict) -> None:
    _require(rep["provenance"] == "exact", "duality check is not tagged exact")
    _require(rep["product_ok"] is True, f"forward duality fails: slack {rep['slack']}")


_CHECKS = {
    "expander": _check_expander,
    "gap-brute": _check_brute,
    "gap-plus": _check_brute,
    "mazur-roundtrip": _check_mazur,
    "mazur-holder": _check_mazur,
    "embed": _check_embed,
    "verify-duality": _check_duality,
}


def check(req) -> dict:
    """Validate the output file of a completed request; returns its report."""
    rep = json.loads(req.out.read_text())["report"]
    _require(rep.get("provenance") in PROVENANCE,
             f"provenance {rep.get('provenance')!r} is outside {sorted(PROVENANCE)}")
    kind = req.kind
    if kind.startswith("john-"):
        _check_john(req, rep)
    elif kind.startswith("gap-") and kind not in _CHECKS:
        _check_gap(req, rep)
    else:
        _CHECKS[kind](req, rep)
    return rep
