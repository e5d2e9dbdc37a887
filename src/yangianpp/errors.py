"""Exception types shared across the package."""


class YangianppError(Exception):
    """Base class for all package errors."""


class CapExceeded(YangianppError):
    """An enumeration request exceeded a size limit: a cap of the `enum`
    command, or a stone count beyond the room."""


class Resonance(YangianppError):
    """Parameters hit a forbidden integer relation, or weights collided
    where distinctness is required."""


class InconsistentShift(YangianppError):
    """The shift factor of the diagonal series varies across basis vectors:
    a relation failure outside any report.  `detect_shift` raises it, which
    the `shift` command calls directly, and it exits like a failed check;
    the relation checks report their failures as failing cells instead."""


class DenominatorNotCancelled(YangianppError):
    """A shuffle product did not clear its kernel denominator (wrong kernel
    or non-symmetric input)."""


class RetrySpecialization(YangianppError):
    """Division by zero in prime-field mode; rerun with a fresh parameter
    specialization instead of trusting the result."""
