"""Exception types shared across the package."""


class YangianppError(Exception):
    """Base class for all package errors."""


class PoleAtPoint(YangianppError):
    """Evaluation of a factored rational function at one of its poles."""


class CapExceeded(YangianppError):
    """An enumeration request exceeded its configured size cap."""


class Resonance(YangianppError):
    """Parameters hit a forbidden integer relation, or weights collided
    where distinctness is required."""


class RelationFailure(YangianppError):
    """A relation fails outside any report: `detect_shift` raises it, which
    the `shift` command calls directly.  Exits like a failed check; the
    relation checks report their failures as failing cells instead."""


class InconsistentShift(RelationFailure):
    """The shift factor of the diagonal series varies across basis vectors."""


class DenominatorNotCancelled(YangianppError):
    """A shuffle product did not clear its kernel denominator (wrong kernel
    or non-symmetric input)."""


class RetrySpecialization(YangianppError):
    """Division by zero in prime-field mode; rerun with a fresh parameter
    specialization instead of trusting the result."""
