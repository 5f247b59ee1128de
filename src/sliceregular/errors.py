"""Exception types shared across the package."""


class SliceRegularError(Exception):
    """Base class for all library errors."""


class DomainError(SliceRegularError):
    """Evaluation requested outside a function's domain of definition."""


class UsageError(SliceRegularError, ValueError):
    """Operands are structurally incompatible (side or domain mismatch, bad spec)."""


class PoleError(DomainError):
    """Evaluation on, or numerically too close to, a pole sphere."""


class SingularSeriesError(SliceRegularError):
    """Series inversion blocked: the origin lies in the zero set of the symmetrization."""


class CapabilityError(SliceRegularError):
    """An operation needs a capability (typically a derivative) that is absent."""


class AccuracyError(SliceRegularError):
    """Quadrature exhausted its subdivision budget before meeting the tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error bound {achieved:.3e})")
        self.achieved = achieved


class StemSymmetryError(SliceRegularError):
    """A complex stem violates the intrinsic reflection symmetry f(z*) = f(z)*."""


class ConsistencyError(SliceRegularError):
    """An internal algebraic identity failed beyond numerical tolerance."""
