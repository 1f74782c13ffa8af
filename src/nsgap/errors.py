"""Exception hierarchy shared by all nsgap modules.

ValidationError subclasses signal bad inputs (CLI exit code 2);
NumericalError subclasses signal solver/iteration failures (exit code 3).
"""


class NsgapError(Exception):
    pass


class ValidationError(NsgapError):
    pass


class NumericalError(NsgapError):
    pass


# --- markov ---------------------------------------------------------------

class NotStochastic(ValidationError):
    pass


class NoPositiveStationary(ValidationError):
    pass


class NotReversibleChain(ValidationError):
    pass


class InvalidPower(ValidationError):
    pass


class UnsupportedSpace(ValidationError):
    pass


# --- spaces ---------------------------------------------------------------

class DimensionMismatch(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class BadExponentRange(ValidationError):
    pass


# --- rayleigh -------------------------------------------------------------

class ConstantConfiguration(ValidationError):
    pass


class InstanceTooLarge(ValidationError):
    pass


class MismatchedStationary(ValidationError):
    pass


class DegenerateGap(ValidationError):
    pass


class PoweredDistanceRange(ValidationError):
    pass


# --- mazur ----------------------------------------------------------------

class NotNormalized(ValidationError):
    pass


class GapUnavailable(ValidationError):
    pass


# --- john -----------------------------------------------------------------

class DegenerateSpan(ValidationError):
    pass


class NoConvergence(NumericalError):
    pass


# --- embed ----------------------------------------------------------------

class NotAMetric(DimensionMismatch):
    pass


class ZeroWeight(ValidationError):
    pass


class SolverStalled(NumericalError):
    pass


class SizeMismatch(ValidationError):
    pass


class EmptyDecomposition(ValidationError):
    pass


# --- expander -------------------------------------------------------------

class ParityViolation(ValidationError):
    pass


class ResampleBudgetExceeded(NumericalError):
    pass


class Disconnected(ValidationError):
    pass


# --- cli ------------------------------------------------------------------

class EmptyFamily(ValidationError):
    pass
