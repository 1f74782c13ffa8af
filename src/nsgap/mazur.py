"""Vector-valued Mazur maps between L_p and L_q over finite measures.

The map sends f to f scaled pointwise by ||f||^{p/q - 1}, so q-norms of the
image reproduce p-norms of the source exactly.  The module also verifies the
Holder-type modulus of the map on scale ladders and runs the two-exponent
extrapolation comparison for spectral gaps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadExponentRange,
    GapUnavailable,
    LengthMismatch,
    NotNormalized,
)
from .markov import StochasticChain
from .rayleigh import estimate_gap, weakest_provenance
from .spaces import MetricSpace, pair_norms


@dataclass(frozen=True)
class WeightedVectorFunction:
    """A function on a finite measure space: atom weights plus one vector
    value per atom."""

    weights: np.ndarray  # length m, nonnegative, sums to 1
    values: np.ndarray  # m x d

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if w.ndim != 1 or v.shape[0] != w.size:
            raise LengthMismatch("one value per weight is required")
        if np.min(w) < 0 or abs(w.sum() - 1.0) > 1e-12:
            raise NotNormalized("weights must be a probability vector")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "values", v)
        w.setflags(write=False)
        v.setflags(write=False)

    @property
    def m(self) -> int:
        return self.weights.size

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist(), "values": self.values.tolist()}

    @staticmethod
    def from_json(obj) -> "WeightedVectorFunction":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return WeightedVectorFunction(np.array(obj["weights"], dtype=float),
                                      np.array(obj["values"], dtype=float))


def lp_norm(f: WeightedVectorFunction, space: MetricSpace, p: float) -> float:
    """(sum_i mu_i ||f_i||^p)^{1/p}."""
    if p < 1.0:
        raise BadExponentRange("L_p norms require p >= 1")
    norms = pair_norms(space, f.values)[0]
    return float(np.sum(f.weights * norms**p) ** (1.0 / p))


def mazur_map(f: WeightedVectorFunction, space: MetricSpace,
              p: float, q: float) -> WeightedVectorFunction:
    """Pointwise f_i ||f_i||^{p/q - 1}, with zeros fixed.  Transfers p-norms
    to q-norms: ||Mf||_q^q = ||f||_p^p exactly."""
    if p < 1.0 or q < 1.0:
        raise BadExponentRange("exponents must be >= 1")
    norms = pair_norms(space, f.values)[0]
    scale = np.zeros_like(norms)
    positive = norms > 0
    scale[positive] = norms[positive] ** (p / q - 1.0)
    return WeightedVectorFunction(f.weights, f.values * scale[:, None])


def mazur_roundtrip_check(f: WeightedVectorFunction, space: MetricSpace,
                          p: float, q: float) -> dict:
    """Applies the map and its inverse and measures the worst componentwise
    error, together with the norm-transfer defect."""
    forward = mazur_map(f, space, p, q)
    back = mazur_map(forward, space, q, p)
    max_error = float(np.max(np.abs(back.values - f.values))) if f.m else 0.0
    transfer_error = abs(lp_norm(forward, space, q) ** q - lp_norm(f, space, p) ** p)
    return {"max_error": max_error, "transfer_error": transfer_error}


def mazur_holder_check(f: WeightedVectorFunction, g: WeightedVectorFunction,
                       space: MetricSpace, p: float, q: float,
                       scales) -> dict:
    """Scale the pair (f, g) down a geometric ladder and fit the log-log
    slope of ||Mf - Mg||_q against ||f - g||_p.  By positive homogeneity of
    the map the fitted exponent should be at least min(p/q, 1) - 0.1; the
    multiplicative constant is reported, never asserted."""
    if f.m != g.m or f.values.shape != g.values.shape:
        raise LengthMismatch("functions must share atoms and value dimension")
    if np.max(np.abs(f.weights - g.weights)) > 1e-12:
        raise LengthMismatch("functions must share weights")
    nf, ng = lp_norm(f, space, p), lp_norm(g, space, p)
    top = max(nf, ng)
    if top == 0:
        raise NotNormalized("both functions vanish")
    f = WeightedVectorFunction(f.weights, f.values / top)
    g = WeightedVectorFunction(g.weights, g.values / top)
    exponent = min(p / q, 1.0)
    xs, ys, ratios = [], [], []
    for s in scales:
        s = float(s)
        if not (0.0 < s <= 1.0):
            raise BadExponentRange("scales must lie in (0, 1]")
        fs = WeightedVectorFunction(f.weights, s * f.values)
        gs = WeightedVectorFunction(g.weights, s * g.values)
        diff_src = lp_norm(WeightedVectorFunction(f.weights, fs.values - gs.values),
                           space, p)
        if diff_src <= 0:
            continue
        mfs = mazur_map(fs, space, p, q)
        mgs = mazur_map(gs, space, p, q)
        diff_img = lp_norm(WeightedVectorFunction(f.weights, mfs.values - mgs.values),
                           space, q)
        xs.append(diff_src)
        ys.append(diff_img)
        ratios.append(diff_img / diff_src**exponent)
    if len(xs) < 2:
        return {"fitted_exponent": None, "per_scale_ratios": ratios,
                "note": "identical inputs leave no usable scales"}
    slope, _ = np.polyfit(np.log(xs), np.log(np.maximum(ys, 1e-300)), 1)
    return {"fitted_exponent": float(slope), "per_scale_ratios": ratios,
            "target_exponent": exponent,
            "slope_ok": bool(slope >= exponent - 0.1)}


def extrapolation_check(chain: StochasticChain, space: MetricSpace,
                        p: float, q: float) -> dict:
    """Compare the gap at exponents p <= q: gamma_p / gamma_q^{p/q} and
    gamma_p / gamma_q.  The comparison constants are unspecified, so only
    finiteness of both ratios is asserted; values are reported for batch
    calibration."""
    if not (1.0 <= p <= q):
        raise BadExponentRange("exponents must satisfy 1 <= p <= q")
    est_p, est_q = (estimate_gap(chain, space, e, restarts=8, iters=200) for e in (p, q))
    gamma_p, gamma_q = est_p.value, est_q.value
    if not (math.isfinite(gamma_p) and math.isfinite(gamma_q)):
        raise GapUnavailable("extrapolation ratios need finite gaps on both sides")
    return {
        "gamma_p": gamma_p,
        "gamma_q": gamma_q,
        "kind_p": est_p.kind,
        "kind_q": est_q.kind,
        "provenance": weakest_provenance(est_p.kind, est_q.kind),
        "left_ratio": gamma_p / gamma_q ** (p / q),
        "right_ratio": gamma_p / gamma_q,
        "finite": True,
    }
