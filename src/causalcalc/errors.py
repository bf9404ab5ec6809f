"""Exception types shared across the package.

Raised errors signal misuse or resource exhaustion; structural problems found
by the validators are reported as defect values instead (see
:func:`causalcalc.core.validate_model`).
"""

from __future__ import annotations


class CausalCalcError(Exception):
    """Base class for all package errors."""


class UnknownVariable(CausalCalcError):
    """A variable id does not exist in the model's signature."""


class MissingDomainValue(CausalCalcError):
    """A partial assignment lacks a value needed to evaluate an equation."""


class OutOfRangeValue(CausalCalcError):
    """An assigned value is not a member of the variable's range."""


class StepBeyondDepth(CausalCalcError):
    """A timed reference points past the depth of the tree it targets."""


class BudgetExceeded(CausalCalcError):
    """Node budget exhausted during tree expansion.

    ``partial`` holds whatever structure was built before the cap hit, or None.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class DuplicateAtom(CausalCalcError):
    """Two intervention atoms target the same variable at the same step."""


class RowDomainMismatch(CausalCalcError):
    """A rewrite row does not cover the target variable's domain exactly."""


class StuckConfiguration(CausalCalcError):
    """A deterministic machine reached a configuration with no transition."""


class MalformedConfig(CausalCalcError):
    """A machine configuration violates its structural invariants."""


class InputNotInAlphabet(CausalCalcError):
    """An input string uses symbols outside the machine's input alphabet."""


class InputTooLong(CausalCalcError):
    """An input string does not fit on a bounded tape."""


class InvalidMachineKind(CausalCalcError):
    """A machine spec fails validation or has the wrong kind for an operation."""


class RangeTooLarge(CausalCalcError):
    """A lazily represented range is too big to materialize."""


class UndecodableConfig(CausalCalcError):
    """A model configuration does not decode to a machine configuration."""


class KindMismatch(CausalCalcError):
    """A compiled model does not belong to the machine it is checked against."""


class FormatError(CausalCalcError):
    """A JSON document does not match the expected file format."""


class InterventionSyntax(CausalCalcError):
    """An intervention string fails to parse; ``position`` is the offset."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ValidationFailed(CausalCalcError):
    """An operation required a clean validation report and did not get one.

    ``defects`` carries the list of defect values.
    """

    def __init__(self, message: str, defects=()):
        super().__init__(message)
        self.defects = list(defects)
