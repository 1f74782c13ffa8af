"""Reversible stochastic matrices: construction, validation and spectra.

A chain bundles a row-stochastic matrix A, a strictly positive stationary
vector pi and a detailed-balance certificate.  All spectral quantities are
computed on the symmetrization D^{1/2} A D^{-1/2} (D = diag(pi)), which
shares the eigenvalues of A when the chain is reversible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidPower,
    NoPositiveStationary,
    NotReversibleChain,
    NotStochastic,
    UnsupportedSpace,
)

ROW_SUM_TOL = 1e-9
DETAILED_BALANCE_TOL = 1e-12
STATIONARY_FLOOR = 1e-12
SPECTRAL_N_CAP = 4096


@dataclass(frozen=True)
class StochasticChain:
    n: int
    A: np.ndarray
    pi: np.ndarray
    reversible: bool

    def __post_init__(self):
        self.A.setflags(write=False)
        self.pi.setflags(write=False)


@dataclass(frozen=True)
class SpectralData:
    eigenvalues: np.ndarray
    lambda2: float
    gamma_classical: float
    meanzero_norm: float
    eigenvectors: np.ndarray = field(repr=False)


def _is_stationary(pi: np.ndarray, A: np.ndarray) -> bool:
    """np.allclose(pi @ A, pi, atol=1e-9) written out for finite pi and A."""
    return bool((np.abs(pi @ A - pi) <= 1e-9 + 1e-5 * np.abs(pi)).all())


def _stationary_vector(A: np.ndarray) -> np.ndarray:
    """Solve pi A = pi, sum(pi) = 1 by a direct least-squares solve.  An edge
    leaving a strongly connected class of the support marks transient states,
    which rule out a strictly positive solution, so the solve is skipped."""
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(A > 0, connection="strong")
    src, dst = np.nonzero(A > 0)
    if np.any(labels[src] != labels[dst]):
        raise NoPositiveStationary("chain has transient states (reducible)")
    n = A.shape[0]
    system = np.vstack([A.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if np.min(pi) > 0 and abs(pi.sum() - 1.0) < 1e-9 and _is_stationary(pi, A):
        return pi
    raise NoPositiveStationary("no strictly positive stationary vector (chain reducible?)")


def build_reversible_chain(A, pi=None) -> StochasticChain:
    """Validate a row-stochastic matrix and certify detailed balance.

    Non-reversibility is not an error: the flag is recorded and operations
    that need it reject later.  A reducible chain (no strictly positive
    stationary vector) raises NoPositiveStationary.
    """
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotStochastic("transition matrix must be square")
    n = A.shape[0]
    if not np.all(np.isfinite(A)):
        raise NotStochastic("transition matrix has non-finite entries")
    if np.min(A) < -ROW_SUM_TOL:
        raise NotStochastic("transition matrix has negative entries")
    row_err = np.max(np.abs(A.sum(axis=1) - 1.0))
    if row_err > ROW_SUM_TOL:
        raise NotStochastic(f"row sums deviate from 1 by {row_err:.3e}")
    if pi is None:
        pi = _stationary_vector(A)
    else:
        pi = np.array(pi, dtype=float)
        if pi.shape != (n,):
            raise NoPositiveStationary("pi has wrong length")
        if not np.all(np.isfinite(pi)):
            raise NotStochastic("pi has non-finite entries")
        if abs(pi.sum() - 1.0) > 1e-9:
            raise NoPositiveStationary("pi must sum to 1")
        if not _is_stationary(pi, A):
            raise NoPositiveStationary("pi is not stationary for A")
    if np.min(pi) <= STATIONARY_FLOOR:
        raise NoPositiveStationary(
            "stationary vector has a (near-)zero entry (chain reducible?)"
        )
    flow = pi[:, None] * A
    reversible = bool(np.max(np.abs(flow - flow.T)) <= DETAILED_BALANCE_TOL)
    return StochasticChain(n=n, A=A, pi=pi, reversible=reversible)


def symmetrization(chain: StochasticChain) -> np.ndarray:
    """D^{1/2} A D^{-1/2}, symmetrized to kill floating-point asymmetry."""
    root = np.sqrt(chain.pi)
    s = (root[:, None] * chain.A) / root[None, :]
    return (s + s.T) / 2.0


def spectral_data(chain: StochasticChain) -> SpectralData:
    if not chain.reversible:
        raise NotReversibleChain("spectral data requires a reversible chain")
    if chain.n > SPECTRAL_N_CAP:
        raise UnsupportedSpace(f"spectral ops capped at n = {SPECTRAL_N_CAP}")
    if chain.n < 2:
        raise NotStochastic("spectral data needs at least two states")
    ascending, vectors = np.linalg.eigh(symmetrization(chain))
    eigenvalues, vectors = ascending[::-1], vectors[:, ::-1]
    lambda2 = float(eigenvalues[1])
    if lambda2 >= 1.0 - 1e-12:
        gamma = float("inf")
    else:
        gamma = 1.0 / (1.0 - lambda2)
    meanzero = float(max(abs(eigenvalues[1]), abs(eigenvalues[-1])))
    return SpectralData(
        eigenvalues=eigenvalues,
        lambda2=lambda2,
        gamma_classical=gamma,
        meanzero_norm=meanzero,
        eigenvectors=vectors,
    )


def lazy_power(chain: StochasticChain, t: int) -> StochasticChain:
    """((A + Id)/2)^t with the same stationary vector."""
    if not isinstance(t, (int, np.integer)) or t < 1:
        raise InvalidPower(f"power must be a positive integer, got {t!r}")
    lazy = (chain.A + np.eye(chain.n)) / 2.0
    powered = np.linalg.matrix_power(lazy, int(t))
    flow = chain.pi[:, None] * powered
    reversible = bool(np.max(np.abs(flow - flow.T)) <= 1e-11)
    return StochasticChain(n=chain.n, A=powered, pi=chain.pi, reversible=reversible)


def meanzero_opnorm_bound_check(chain: StochasticChain) -> dict:
    """Check the operator-norm bound on the mean-zero subspace for a
    Hilbert target: ||A||_{mean-zero} <= (1 - 1/gamma_plus)^{1/2}, the
    uniform-convexity bound (1 - 1/((2^{q-1}-1) K^q gamma_plus))^{1/q} at
    q = 2 and K = 1, with gamma_plus = 1/(1 - ||A||_{mean-zero}) the
    classical absolute gap.  General uniformly convex targets are out of scope.
    """
    lhs = spectral_data(chain).meanzero_norm
    if lhs >= 1.0 - 1e-12:
        rhs = 1.0
    else:
        gamma_plus = 1.0 / (1.0 - lhs)
        rhs = (1.0 - 1.0 / gamma_plus) ** 0.5
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs + 1e-9)}


def random_reversible_chain(n: int, rng: np.random.Generator) -> StochasticChain:
    """Sample a reversible chain from a symmetric positive weight matrix.

    With W symmetric and pi proportional to the row sums of W, the walk
    A = W / rowsum satisfies detailed balance exactly (up to rounding).
    """
    w = rng.uniform(0.05, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    rowsum = w.sum(axis=1)
    A = w / rowsum[:, None]
    pi = rowsum / rowsum.sum()
    return build_reversible_chain(A, pi)


# --- I/O -------------------------------------------------------------------

def chain_from_json(obj) -> StochasticChain:
    """Accepts {"n": int, "rows": [[...]], "pi": optional [...]}."""
    rows = np.array(obj["rows"], dtype=float)
    n = int(obj.get("n", len(rows)))
    if rows.shape != (n, n):
        raise NotStochastic("rows do not form an n-by-n matrix")
    return build_reversible_chain(rows, obj.get("pi"))


def chain_from_text(text: str) -> StochasticChain:
    """Whitespace-separated dense matrix, one row per line."""
    rows = [
        [float(tok) for tok in line.split()]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    return build_reversible_chain(np.array(rows, dtype=float))


def chain_to_json(chain: StochasticChain) -> dict:
    return {
        "n": chain.n,
        "rows": chain.A.tolist(),
        "pi": chain.pi.tolist(),
        "reversible": chain.reversible,
    }
