"""Exception types shared across the package, and the reduction that checks share."""

import math
from typing import Iterable


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


def worst_case(values: Iterable[float]) -> float:
    """The largest of the values: 0.0 for none, and NaN if any of them is NaN.

    `max` drops a NaN that does not come first, so a check reduced with it
    would pass on a residual it could not compute.  Every value is consumed,
    so a generator that draws random samples leaves its generator in the
    same state either way.  Compare the result as `not worst <= tol`.
    """
    out = 0.0
    for v in values:
        if v > out or math.isnan(v):
            out = v
    return out
