"""Slice regular functions on quaternions in tensor form.

A left (or right) slice regular function is represented by one vector stem
h = (h_0, h_1, h_2, h_3) whose components pair with the basis (1, i, j, k):
at q = x + I*y the value is sum_m (u_m + I v_m) * J_m for the left side and
sum_m J_m * (u_m + I v_m) for the right side, where h_m(x + iy) = u_m + i v_m.
Intrinsic functions (h_0 alone) commute with everything, so the star product
is the Hamilton product of the two stems' components (`stem_star`).  A
function is its side and its stem: its domain is the stem's, which the stem
combinators work out, so no rule here builds a domain of its own.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import DomainError, StemSymmetryError, UsageError
from .quaternion import (
    CONJUGATE_SIGNS,
    REAL_AXIS_UNIT,
    Quaternion,
    UNITS,
    slice_decompose,
)
from .regions import Region, annulus
from .series import RegularSeries, Side
from .stems import (
    ENTIRE,
    IntrinsicStem,
    _components,
    constant_stem,
    exp_stem,
    numeric_derivative_stem,
    polynomial_stem,
    slice_inverse_stem,
    stem_scale,
    stem_stack,
    stem_star,
    symmetry_defect,
)

__all__ = [
    "SliceRegularFunction",
    "extend_intrinsic",
    "assemble",
    "from_series",
    "exp_function",
    "cauchy_kernel",
    "cauchy_kernel_right",
]

# largest reflection-symmetry defect extend_intrinsic accepts at its probes
_SYMMETRY_TOL = 1e-9


class SliceRegularFunction:
    """One vector stem tensored with the quaternion basis."""

    __slots__ = ("side", "stem")

    def __init__(self, side: Side, stem: IntrinsicStem):
        self.side = side
        self.stem = stem

    @property
    def domain(self) -> Region:
        return self.stem.domain

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q, real_axis_unit: Quaternion = REAL_AXIS_UNIT) -> Quaternion:
        return self._evaluate(q, real_axis_unit)[0]

    def evaluate_with_error(self, q) -> tuple[Quaternion, float]:
        """Value together with the summed error bounds of the four components."""
        return self._evaluate(q, REAL_AXIS_UNIT)

    __call__ = evaluate

    def _evaluate(self, q, real_axis_unit: Quaternion) -> tuple[Quaternion, float]:
        q = q if isinstance(q, Quaternion) else Quaternion.real(q)
        sc = slice_decompose(q, real_axis_unit)
        domain = self.stem.domain
        if not domain.contains(sc.x, sc.y):
            raise DomainError(f"{q} lies outside the {domain.kind} domain {domain.bounds}")
        return self._assemble(complex(sc.x, sc.y), sc.unit)

    def _assemble(self, z: complex, unit: Quaternion) -> tuple[Quaternion, float]:
        """sum_m h_m(z) J_m (or J_m h_m(z)) on the slice of `unit`, with its error."""
        values, errors = self.stem.eval_with_error(z)
        total = Quaternion()
        err = 0.0
        for w, e, base in zip(values.tolist(), _components(errors), UNITS):
            err += e
            slice_value = Quaternion(w.real, unit.x * w.imag, unit.y * w.imag, unit.z * w.imag)
            total = total + (slice_value * base if self.side is Side.LEFT else base * slice_value)
        return total, err

    # -- algebra ---------------------------------------------------------------

    def star(self, other: "SliceRegularFunction") -> "SliceRegularFunction":
        """Star product: the Hamilton product of the two stems.

        Intrinsic stems commute through everything, so the same product
        serves both sides; on the real axis it reduces to the pointwise
        product of the two functions.
        """
        if self.side is not other.side:
            raise UsageError("cannot star-multiply functions of different sides")
        return SliceRegularFunction(self.side, stem_star(self.stem, other.stem))

    def reflect(self) -> "SliceRegularFunction":
        """Reflection involution q -> conj(f(conj q)): conjugate the basis, flip the side."""
        conjugated = stem_scale(CONJUGATE_SIGNS, self.stem)
        return SliceRegularFunction(self.side.flipped(), conjugated)

    def regular_conjugate(self) -> "SliceRegularFunction":
        """Conjugate the basis pairing without changing the side."""
        return SliceRegularFunction(self.side, stem_scale(CONJUGATE_SIGNS, self.stem))

    def slice_derivative(self, numeric_step: Optional[float] = None) -> "SliceRegularFunction":
        """The stem's derivative, component by component.

        Analytic by default (CapabilityError if a component has no
        derivative); with a numeric_step, the 4-point central difference of
        the stem, which serves as an independent cross-check of the analytic
        chain.
        """
        stem = (self.stem.derivative_stem() if numeric_step is None
                else numeric_derivative_stem(self.stem, numeric_step))
        return SliceRegularFunction(self.side, stem)


def _symmetry_probes(domain: Region) -> list[complex]:
    lo, hi = domain.real_interval()
    span = hi - lo
    xs = [lo + span * f for f in (0.15, 0.5, 0.85)]
    ys = [0.2 * max(span, 0.5), 0.45 * max(span, 0.5)]
    points = []
    for x in xs:
        for y in ys:
            if domain.contains(x, y):
                points.append(complex(x, y))
    return points or [complex(0.5 * (lo + hi), 0.0)]


def extend_intrinsic(stem: IntrinsicStem, side: Side = Side.LEFT) -> SliceRegularFunction:
    """Extend an intrinsic complex stem to the intrinsic slice regular function.

    The resulting function is slice-preserving and fixed by the reflection
    involution; a stem violating the reflection symmetry by more than 1e-9
    at the probe points is rejected.
    """
    defect = symmetry_defect(stem, _symmetry_probes(stem.domain))
    if not defect <= _SYMMETRY_TOL:
        raise StemSymmetryError(
            f"stem violates f(conj z) = conj(f(z)) by {defect:.3e} (tol {_SYMMETRY_TOL:.1e})"
        )
    zero = constant_stem(0.0, stem.domain)
    return SliceRegularFunction(side, stem_stack([stem, zero, zero, zero]))


def assemble(stems: Sequence[IntrinsicStem], side: Side) -> SliceRegularFunction:
    """Pair four scalar intrinsic stems with the basis (1, i, j, k) on a common domain."""
    if len(stems) != 4:
        raise UsageError("assemble needs exactly four stems")
    return SliceRegularFunction(side, stem_stack(stems))


def from_series(f: RegularSeries, domain: Region = ENTIRE) -> SliceRegularFunction:
    """Evaluable tensor form of a polynomial series via its intrinsic components."""
    return SliceRegularFunction(f.side, polynomial_stem(f.rows, domain))


def exp_function() -> SliceRegularFunction:
    """The quaternionic exponential as an intrinsic slice regular function."""
    return extend_intrinsic(exp_stem())


def cauchy_kernel(s: Quaternion, domain: Optional[Region] = None) -> SliceRegularFunction:
    """The Cauchy kernel -(|s|^2 - 2 q Re(s) + q^2)^(-1) (q - conj(s)) in q.

    Left regular in q away from the pole sphere |q - Re(s)| = |Im(s)| on the
    axis of s; the default domain is the annulus outside that sphere.
    """
    dom = domain if domain is not None else annulus(s.norm(), math.inf)
    return SliceRegularFunction(Side.LEFT, slice_inverse_stem(s, dom, sign=-1.0))


def cauchy_kernel_right(q: Quaternion, domain: Optional[Region] = None) -> SliceRegularFunction:
    """The same kernel as a right regular function of s for fixed q.

    Componentwise this is the slice inverse of (s - q): the stems are the
    quaternion-basis components of ((z - q0) + Im q) / ((z - q0)^2 + |Im q|^2).
    """
    dom = domain if domain is not None else annulus(q.norm(), math.inf)
    return SliceRegularFunction(Side.RIGHT, slice_inverse_stem(q, dom))
