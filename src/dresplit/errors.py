"""Exception and warning types shared across the package."""


class DresplitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(DresplitError, ValueError):
    """An argument violates a documented precondition (shape, range, ...)."""


class RefusedDense(DresplitError):
    """Densification was requested for a dimension above the safety guard."""


class ToleranceNotMet(DresplitError):
    """A sparse problem's Galerkin space reached its dimension cap before
    two successive answers agreed to the tolerance."""


class NonFiniteFactor(DresplitError):
    """A factor or propagated block holds non-finite values (overflow or NaN)."""


class StepTooLarge(DresplitError):
    """A subflow solve became (numerically) singular for the requested step."""


class NoEmbeddedMethod(DresplitError):
    """The scheme has no lower-order embedded companion (single stage)."""


class StepSizeCollapse(DresplitError):
    """The adaptive controller drove the step size below its floor.

    Carries the partial trajectory computed before the collapse.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class OracleDiverged(DresplitError):
    """The dense reference is non-finite or escapes, or failed its self-check."""


class InvalidReference(DresplitError, ValueError):
    """A reference solution is unusable (e.g. identically zero)."""


class IngestError(DresplitError):
    """A problem file could not be read or is dimensionally inconsistent."""


class CoefficientConditioning(UserWarning):
    """Stage counts beyond 12 lose accuracy when converted to floats."""
