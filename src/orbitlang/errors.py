"""Shared exception types.

Every error that crosses a module boundary lives here so the CLI can map
them to stable exit codes in one place.
"""


class OrbitlangError(Exception):
    """Base class for all library errors."""

    code = "error"


# --- arithmetic substrate ---------------------------------------------------

class RingMismatch(OrbitlangError):
    """Polynomial operands over different variable tuples."""

    code = "ring-mismatch"


class InexactDivision(OrbitlangError):
    code = "inexact-division"


# --- dynamical systems ------------------------------------------------------

class SingularMu(OrbitlangError):
    """Conjugating fractional-linear map has determinant zero."""

    code = "singular-mu"


class UndecidedPeriodicity(OrbitlangError):
    """Search bounds exhausted without a periodicity proof either way."""

    code = "undecided-periodicity"


# --- reduction mod p --------------------------------------------------------

class BadReduction(OrbitlangError):
    code = "bad-reduction"


# --- p-adic analytic machinery ----------------------------------------------

class InsufficientPrecision(OrbitlangError):
    code = "insufficient-precision"


class ZeroSeries(OrbitlangError):
    code = "zero-series"


class PoleInDisk(OrbitlangError):
    code = "pole-in-disk"


class NotQuasiperiodic(OrbitlangError):
    code = "not-quasiperiodic"


class PrecisionExhausted(OrbitlangError):
    code = "precision-exhausted"


# --- intersection computations ----------------------------------------------

class DegreeCapExceeded(OrbitlangError):
    code = "degree-cap-exceeded"


class PeriodicCriticalPoint(OrbitlangError):
    code = "periodic-critical-point"


class PreperiodicInput(OrbitlangError):
    code = "preperiodic-input"


# --- classification ----------------------------------------------------------

class RootNotRational(OrbitlangError):
    code = "root-not-rational"


class ReducibleInput(OrbitlangError):
    code = "reducible-input"


# --- decision engine ----------------------------------------------------------

class PowerMapCase(OrbitlangError):
    """Multiplicative (power-map) dynamics: handled by other methods, rejected here."""

    code = "power-map-case"


class HypothesisViolated(OrbitlangError):
    code = "hypothesis-violated"


class InvalidOption(OrbitlangError):
    """An option value outside its range (a negative limit, a zero order or precision)."""

    code = "invalid-option"


class VerificationFailed(OrbitlangError):
    """An internal self-check of a computed result did not hold."""

    code = "verification-failed"


# --- parsing / CLI -----------------------------------------------------------

class ExpressionSyntaxError(OrbitlangError):
    """Parse failure; carries the 0-based position of the offending token."""

    code = "syntax-error"

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonPolynomialWhereRequired(OrbitlangError):
    code = "non-polynomial"
