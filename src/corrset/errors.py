"""Exception hierarchy for the corrset package.

Every error raised by the library derives from CorrSetError, so callers can
catch the whole family with one clause.  Input problems additionally derive
from ValueError and numerical breakdowns from RuntimeError.
"""

from __future__ import annotations


class CorrSetError(Exception):
    """Base class for all corrset errors."""


class NonFiniteInputError(CorrSetError, ValueError):
    """A component of an input vector is NaN or infinite."""


class OutOfBoxError(CorrSetError, ValueError):
    """A component lies outside [-1, 1] beyond the validation tolerance."""


class PreconditionError(CorrSetError, ValueError):
    """A documented precondition other than ordering was violated."""


class NotInQuantumSetError(CorrSetError, ValueError):
    """Decomposition was requested for a vector outside the quantum set."""


class InvariantViolationError(CorrSetError, ValueError):
    """A state or observable failed one of its named invariant checks."""


class DimensionError(CorrSetError, ValueError):
    """A local dimension outside the supported range was requested."""


class DomainError(CorrSetError, ValueError):
    """A scan, grid or sampling parameter is outside its admissible range."""


class InternalCheckError(CorrSetError, RuntimeError):
    """Two redundant computation paths disagreed.  This indicates a bug in
    the library rather than bad input; please report it."""
