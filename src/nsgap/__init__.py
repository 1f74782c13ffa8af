"""Nonlinear spectral gaps of reversible Markov chains and average-distortion
Hilbert embeddings of snowflaked finite metric spaces."""

__version__ = "0.1.0"

from .errors import NsgapError, NumericalError, ValidationError
from .markov import (
    SpectralData,
    StochasticChain,
    build_reversible_chain,
    lazy_power,
    spectral_data,
)
from .rayleigh import (
    GapEstimate,
    estimate_gap,
    gamma_bruteforce,
    gamma_heuristic,
    gamma_hilbert_exact,
    gamma_plus_bruteforce,
    rayleigh_quotient,
)
from .spaces import Configuration, EllipsoidNorm, MetricSpace

__all__ = [
    "__version__",
    "NsgapError",
    "ValidationError",
    "NumericalError",
    "StochasticChain",
    "SpectralData",
    "build_reversible_chain",
    "spectral_data",
    "lazy_power",
    "MetricSpace",
    "Configuration",
    "EllipsoidNorm",
    "GapEstimate",
    "rayleigh_quotient",
    "estimate_gap",
    "gamma_hilbert_exact",
    "gamma_bruteforce",
    "gamma_plus_bruteforce",
    "gamma_heuristic",
]
