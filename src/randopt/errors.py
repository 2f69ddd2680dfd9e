"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`RandoptError`, so callers
(and the CLI) can distinguish expected failure modes from genuine bugs.
"""

from __future__ import annotations


class RandoptError(Exception):
    """Base class for all errors raised by this package."""


# --- probability spaces ----------------------------------------------------

class WeightSumError(RandoptError):
    """Scenario weights are negative or do not sum to one."""


class PartitionError(RandoptError):
    """The proposed atom list is not a partition of the scenario set, or
    the scenario ids or the weights cannot make one.  ``field`` names the
    argument at fault: "scenarios", "weights" or "atoms"."""

    def __init__(self, message: str, field: str = "atoms"):
        super().__init__(message)
        self.field = field


class DomainMismatch(RandoptError):
    """A mapping was paired with a probability space it is not defined on."""


# --- expression language ----------------------------------------------------

class ParseError(RandoptError):
    """Syntax error in an expression string.

    Carries the byte offset of the offending token and the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.expected = expected


class DimensionError(RandoptError):
    """A variable or parameter index exceeds the declared dimension."""

    def __init__(self, name: str, index: int, declared: int, offset: int = -1):
        super().__init__(
            f"{name}{index} out of range: declared dimension is {declared}"
        )
        self.name = name
        self.index = index
        self.declared = declared
        self.offset = offset


class EvalError(RandoptError):
    """Evaluation failed; the result would not be a finite real number."""


class DomainViolation(EvalError):
    """log/sqrt outside their domain, or a non-finite intermediate."""


class DivByZero(EvalError):
    """Division by zero (including zero raised to a negative power)."""


# --- random functions and sets ----------------------------------------------

class IncompatibleRepresentation(RandoptError):
    """Set descriptions cannot be combined or used by the requested operation."""


# --- per-scenario optimization ----------------------------------------------

class NotSymmetric(RandoptError):
    """Matrix argument is not symmetric within tolerance."""


class NoRadiusFound(RandoptError):
    """No ball with a positive-definite Hessian was found around the point,
    and sampling produced no descent witness either (degenerate case)."""


# --- selection pipelines ----------------------------------------------------

class HypothesisViolation(RandoptError):
    """A solve routine refused to run because a measurability hypothesis of
    the underlying existence result does not hold.  The witness explains
    exactly where constancy-on-atoms fails."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NonMeasurableF(HypothesisViolation):
    """The objective is not jointly measurable (not constant on atoms)."""


class NonMeasurableC(HypothesisViolation):
    """The feasible set-valued map is not measurable."""


# --- problem documents and CLI ----------------------------------------------

class SchemaError(RandoptError):
    """A problem document violates the schema or a cross-field invariant.

    ``pointer`` is a JSON pointer to the offending location.
    """

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer
