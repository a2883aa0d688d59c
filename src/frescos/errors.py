"""Exception types raised by the engine.

Everything inherits from EngineError so callers (and the command line
front end) can catch domain failures in one place without swallowing
genuine bugs.
"""


class EngineError(Exception):
    """Base class for all domain errors."""


# --- series layer ---

class InversionOfNonUnit(EngineError):
    """Attempt to invert, or divide by, a series with vanishing constant
    term."""


class CoefficientBeyondOrder(EngineError):
    """A coefficient past the known truncation order was requested."""


class ResonantObstruction(EngineError):
    """A resonant ODE has a nonzero right hand side at the resonant index."""


# --- operator algebra ---

class OrderUnderflow(EngineError):
    """An operation would need series coefficients below known order."""


# --- presentations ---

class NotGeometric(EngineError):
    """The exponents violate the geometric condition."""


class NonUnitSeries(EngineError):
    """A presentation unit does not have constant term 1."""


class NotPrimitive(EngineError):
    """Exponents do not all lie in a single class mod 1."""


class MixedPrimitiveClasses(EngineError):
    """Jordan-Hoelder numbers mix several classes mod 1."""


class NotAGenerator(EngineError):
    """The element does not generate the module."""


class IndexOutOfRange(EngineError):
    """Sub-quotient indices outside 1..rank."""


# --- alpha invariant ---

class WrongRank(EngineError):
    """Operation defined only for a specific rank."""


class NotInF0(EngineError):
    """The module is outside the class where alpha is defined."""


class PValueZero(EngineError):
    """Some p_j vanishes where a positive value is required."""


class AlphaZero(EngineError):
    """alpha is zero, so no sub-theme exists."""


# --- asymptotic expansions ---

class TruncationTooSmall(EngineError):
    """The shift truncation cannot certify the requested invariant."""


class NotMonogenicAtTruncation(EngineError):
    """No monic annihilator of the expected degree at this truncation."""


# --- truncated matrix oracle ---

class DegenerateTruncation(EngineError):
    """The truncated system is too shallow to pin down a unique answer."""


# --- input formats ---

class DslSyntaxError(EngineError):
    """Malformed textual input; carries line and column."""

    def __init__(self, message, line=1, column=1):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class SemanticError(EngineError):
    """Input parsed but is not a valid object."""
