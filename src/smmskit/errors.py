"""Exception types shared across the package."""


class SmmsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SmmsError):
    """A point lies outside a declared interval, or an interval is empty."""


class EvalError(SmmsError):
    """Evaluation hit a pole, a log/sqrt of a nonpositive value, or overflow."""


class PositivityError(SmmsError):
    """A quantity declared positive failed a sampled positivity check."""


class FormError(SmmsError):
    """A density or profile does not have the structural form an operation needs."""


class UnsupportedError(SmmsError):
    """The requested computation is outside the supported configuration space."""


class AdmissibilityError(SmmsError):
    """Constructor parameters violate a family's admissibility constraints."""


class StepError(SmmsError):
    """A fixed-step integrator produced a non-finite state."""


class NestingError(SmmsError):
    """Warped-product fibers are nested deeper than the supported two levels."""


class ContradictionError(SmmsError):
    """Caller-asserted global flags contradict the computed verdict, which
    the error carries as ``verdict`` (a ``classify.Classification``)."""

    def __init__(self, message: str, verdict):
        super().__init__(message)
        self.verdict = verdict
