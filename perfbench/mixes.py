"""Request sets of the three workloads, generated from a workload seed.

Every request is one `nsgap` command line.  Its input files are written
here, from the seed alone, by code that does not import `nsgap`; the
program sees nothing else.  A run times one fixed set of requests, drawn
from `SeedSequence(seed)`, and repeats it in rounds (see run.py); the same
seed gives the same requests in the same order.

Each request carries `expect`, the generated data its correctness check
needs (see checks.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

WORKLOADS = ("expander", "normed", "finite")


@dataclass
class Request:
    name: str
    kind: str
    cls: str  # request class: kind plus the sizes the layout fixes
    argv: list
    out: Path
    expect: dict = field(default_factory=dict)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


# --- generated inputs ---------------------------------------------------------

def reversible_chain(n: int, rng: np.random.Generator) -> dict:
    """Walk of a random symmetric positive weight matrix."""
    w = rng.uniform(0.05, 1.0, size=(n, n))
    return weighted_walk((w + w.T) / 2.0)


def weighted_walk(w: np.ndarray) -> dict:
    """Walk of a symmetric weight matrix; pi is proportional to the row sums,
    so detailed balance holds by construction."""
    rowsum = w.sum(axis=1)
    A = w / rowsum[:, None]
    pi = rowsum / rowsum.sum()
    return {"n": int(w.shape[0]), "rows": A.tolist(), "pi": pi.tolist()}


def random_cubic_graph(n: int, rng: np.random.Generator) -> np.ndarray:
    """Edge array of a simple connected 3-regular graph (configuration model,
    resampled until simple and connected)."""
    stubs = np.repeat(np.arange(n), 3)
    while True:
        pairs = rng.permutation(stubs).reshape(-1, 2)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        if np.any(lo == hi) or np.unique(lo * n + hi).size != lo.size:
            continue
        adj = coo_matrix((np.ones(lo.size), (lo, hi)), shape=(n, n))
        if connected_components(adj, directed=False)[0] == 1:
            return np.stack([lo, hi], axis=1)


def graph_metric(n: int, edges: np.ndarray) -> np.ndarray:
    adj = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    return shortest_path(adj, directed=False, unweighted=True)


def linf_cloud_metric(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    return np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)


def space_json(kind: str, dim: int, rng: np.random.Generator) -> dict:
    if kind == "linf":
        return {"kind": "lp", "p": "inf", "dim": dim}
    if kind == "l1":
        return {"kind": "lp", "p": 1.0, "dim": dim}
    if kind == "l2":
        return {"kind": "lp", "p": 2.0, "dim": dim}
    if kind == "l3":
        return {"kind": "lp", "p": 3.0, "dim": dim}
    if kind == "ellipsoid":
        b = rng.standard_normal((dim, dim))
        q = b @ b.T + 0.5 * np.eye(dim)
        return {"kind": "ellipsoid", "Q": ((q + q.T) / 2.0).tolist()}
    if kind == "polytope":
        # dim + 2 Gaussian points and their negations: a random symmetric
        # polytope with a few more vertices than a cross-polytope
        return {"kind": "polytope", "vertices": rng.standard_normal((dim + 2, dim)).tolist()}
    raise ValueError(kind)


# --- request classes ----------------------------------------------------------

class _Mix:
    """Builds the request set of one run inside `workdir`."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.requests: list = []

    def _request(self, kind: str, argv: list, expect: dict, tag: str,
                 cls: str | None = None) -> Request:
        name = f"{len(self.requests):02d}-{kind}-{tag}"
        out = self.dir / f"{len(self.requests):02d}.out.json"
        req = Request(name=name, kind=kind, cls=cls or kind,
                      argv=argv + ["--output", str(out)], out=out, expect=expect)
        self.requests.append(req)
        return req

    def _file(self, stem: str, obj) -> str:
        return _write(self.dir / f"{len(self.requests):02d}.{stem}.json", obj)

    def expander(self, n: int, d: int) -> None:
        seed = int(self.rng.integers(2**31))
        self._request("expander", ["expander", "--n", str(n), "--d", str(d),
                                   "--seed", str(seed)],
                      {"n": n, "d": d}, f"n{n}-d{d}", f"expander-n{n}")

    def gap(self, space_kind: str, n: int, dim: int, p: float,
            restarts: int = 4, iters: int = 60) -> None:
        chain = reversible_chain(n, self.rng)
        space = space_json(space_kind, dim, self.rng)
        argv = ["gap", "--chain", self._file("chain", chain),
                "--space", self._file("space", space), "--p", repr(p)]
        if space_kind == "l2" and p == 2.0:
            argv += ["--method", "exact"]
        else:
            argv += ["--method", "heuristic", "--restarts", str(restarts),
                     "--iters", str(iters),
                     "--seed", str(int(self.rng.integers(2**31)))]
        self._request(f"gap-{space_kind}", argv,
                      {"chain": chain, "space": space, "p": p},
                      f"n{n}-d{dim}")

    def john(self, space_kind: str, dim: int) -> None:
        space = space_json(space_kind, dim, self.rng)
        self._request(f"john-{space_kind}", ["john", "--space", self._file("space", space)],
                      {"space": space}, f"d{dim}")

    def mazur(self, space_kind: str, atoms: int, dim: int, p: float, q: float,
              holder: bool) -> None:
        space = space_json(space_kind, dim, self.rng)
        weights = self.rng.uniform(0.1, 1.0, atoms)

        def function():
            values = self.rng.standard_normal((atoms, dim))
            return {"weights": (weights / weights.sum()).tolist(), "values": values.tolist()}

        argv = ["mazur-check", "--function", self._file("f", function()),
                "--space", self._file("space", space), "--p", repr(p), "--q", repr(q)]
        if holder:
            argv += ["--function-b", self._file("g", function())]
        kind = "mazur-holder" if holder else "mazur-roundtrip"
        self._request(kind, argv, {"space": space, "p": p, "q": q}, f"{space_kind}-m{atoms}")

    def embed(self, source: str, n: int) -> None:
        """An embed request followed by verify-duality on its output."""
        if source == "graph":
            edges = random_cubic_graph(n, self.rng)
            dist = graph_metric(n, edges)
            w = np.zeros((n, n))
            w[edges[:, 0], edges[:, 1]] = w[edges[:, 1], edges[:, 0]] = 1.0
            chain = weighted_walk(w)
        else:
            dist = linf_cloud_metric(n, 3, self.rng)
            chain = weighted_walk(np.exp(-(dist / np.median(dist)) ** 2))
        metric = self._file("metric", dist.tolist())
        emb = self._request("embed", ["embed", "--metric", metric, "--theta", "0.5"],
                            {"dist": dist}, f"{source}-n{n}", f"embed-{source}-n{n}")
        self._request("verify-duality",
                      ["verify-duality", "--embedding", str(emb.out),
                       "--chain", self._file("chain", chain),
                       "--metric", metric, "--theta", "0.5"], {}, f"{source}-n{n}")

    def brute(self, plus: bool, m: int, n: int, p: float) -> None:
        dist = linf_cloud_metric(m, 2, self.rng)
        chain = reversible_chain(n, self.rng)
        space = {"kind": "finite", "dist": dist.tolist()}
        cmd = ["gap-plus", "--q"] if plus else ["gap", "--method", "brute", "--p"]
        argv = [cmd[0], "--chain", self._file("chain", chain),
                "--space", self._file("space", space)] + cmd[1:] + [repr(p)]
        kind = "gap-plus" if plus else "gap-brute"
        self._request(kind, argv, {"chain": chain, "dist": dist, "p": p}, f"m{m}-n{n}",
                      f"{kind}-m{m}-n{n}")


# Layouts.  A request's latency is the largest of its times over the rounds
# (see run.py).  The upper order statistics of a class are the steady ones;
# a low one depends on which requests happened to miss the loaded spells.
# So each workload's median sits in the upper part of its cheap class, and
# its tail (the 11th-slowest request) in a class with at most a few heavier
# requests above it.  Sizes are fixed; the seed draws only the chains,
# graphs, metrics, spaces and functions.  Every class is spread evenly over
# the set, so a round cut short by the time limit still repeats a share of
# each class.
EXPANDER_SIZES = {32: 24, 64: 8, 128: 1}
POLYTOPE_GAPS = 14
# graph metrics of 20 points and l_inf clouds of 24 run the embed solver to its
# iteration cap on every seed; clouds of 20 or fewer points sometimes stop on
# the stall test in 0.1 s instead
FINITE_EMBEDS = (("graph", 20), ("cloud", 24))
FINITE_ENUMERATIONS = ((False, 8, 6), (True, 4, 5), (False, 7, 6), (True, 3, 6)) * 3


def _weave(*groups) -> list:
    """The items of all groups in one order that spreads each group evenly."""
    keyed = [((i + 0.5) / len(group), g, i, item)
             for g, group in enumerate(groups) for i, item in enumerate(group)]
    return [item for *_, item in sorted(keyed, key=lambda key: key[:3])]


def build_requests(workload: str, seed: int, workdir: Path) -> list:
    """The request set of a run: the layout fixes the order and sizes, the
    seed draws the inputs."""
    mix = _Mix(seed, workdir)
    if workload == "expander":
        # n = 32 holds the median and the tail; n = 64 and n = 128 sit above both
        # and move ops_per_s
        groups = [[n] * count for n, count in EXPANDER_SIZES.items()]
        for k, n in enumerate(_weave(*groups)):
            mix.expander(n, 3 + k % 2)
    elif workload == "normed":
        # polytope gaps hold the tail: one linprog per norm evaluation
        polytope = [lambda: mix.gap("polytope", 3, 2, 2.0, restarts=1, iters=4)] * POLYTOPE_GAPS
        heuristic = [lambda s=space, n=3 + (3 * k + j) % 6, d=2 + (k + j) % 3:
                     mix.gap(s, n, d, 2.0)
                     for k in range(10) for j, space in enumerate(("linf", "l3", "ellipsoid"))]
        exact = [lambda n=n: mix.gap("l2", n, 2, 2.0) for n in range(3, 9)]
        others = [
            lambda: mix.john("linf", 4),
            lambda: mix.john("l1", 3),
            lambda: mix.john("polytope", 3),
            # sampled unit sphere; lp(3, 2) exhausts the Khachiyan cap
            lambda: mix.john("l3", 3),
            lambda: mix.mazur("l3", 16, 3, 1.0, 2.0, holder=False),
            lambda: mix.mazur("l3", 8, 3, 2.0, 1.0, holder=True),
            lambda: mix.mazur("linf", 16, 3, 1.0, 2.0, holder=False),
            lambda: mix.mazur("linf", 8, 3, 2.0, 1.0, holder=True),
        ]
        for make in _weave(polytope, heuristic, exact, others):
            make()
    elif workload == "finite":
        # enumerations of 10^5 to 10^6 states hold the tail; the embeds and the
        # gap-plus at the enumeration cap sit above it
        heavy = [lambda s=source, n=n: mix.embed(s, n) for source, n in FINITE_EMBEDS]
        heavy.insert(1, lambda: mix.brute(True, 5, 5, 2.0))
        tail = [lambda e=e: mix.brute(e[0], e[1], e[2], 2.0) for e in FINITE_ENUMERATIONS]
        # one size for the cheap class, so the median sits inside it
        cheap = [lambda k=k: mix.brute(True, 4, 4, 2.0) if k % 16 == 15
                 else mix.brute(False, 5, 4, 1.0 + k % 2) for k in range(32)]
        for make in _weave(heavy, tail, cheap):
            make()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return mix.requests
