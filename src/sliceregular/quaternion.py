"""Quaternion arithmetic and the slice structure of the quaternion algebra.

A quaternion q = w + x*i + y*j + z*k is stored as four doubles.  Every
quaternion can be written q = a + I*b where a, b are real, b >= 0 and I is a
unit purely imaginary quaternion (I*I = -1); the pair (a, b) together with I
are its slice coordinates, and the plane spanned by {1, I} behaves exactly
like the complex plane.  `slice_decompose` / `slice_embed` move between the
two pictures and are the backbone of every evaluator in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, UsageError

__all__ = [
    "Quaternion",
    "SliceCoordinates",
    "ZERO",
    "ONE",
    "I",
    "J",
    "K",
    "UNITS",
    "quat_components",
    "quat_from_list",
    "unit_imaginary",
    "slice_decompose",
    "slice_embed",
    "quat_exp",
    "quat_mul_rows",
    "CONJUGATE_SIGNS",
    "random_quaternion",
    "random_unit_imaginary",
]


@dataclass(frozen=True, slots=True)
class Quaternion:
    """An element of the quaternion division algebra, basis {1, i, j, k}."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @staticmethod
    def real(a: float) -> "Quaternion":
        return Quaternion(float(a), 0.0, 0.0, 0.0)

    # -- structure ---------------------------------------------------------

    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def im_norm(self) -> float:
        return math.hypot(self.x, self.y, self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        # hypot keeps large components from overflowing the sum of squares
        return math.hypot(self.w, self.x, self.y, self.z)

    __abs__ = norm

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conj(q)/|q|^2; the zero quaternion has none."""
        n = self.norm()
        if n == 0.0:
            raise DomainError("zero quaternion has no inverse")
        c = self.conjugate()
        return Quaternion(c.w / n / n, c.x / n / n, c.y / n / n, c.z / n / n)

    def dot(self, other: "Quaternion") -> float:
        return self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    def to_list(self) -> list[float]:
        return [self.w, self.x, self.y, self.z]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(other - self.w, -self.x, -self.y, -self.z)
        return NotImplemented

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b, c, d = self.w, self.x, self.y, self.z
            e, f, g, h = other.w, other.x, other.y, other.z
            return Quaternion(
                a * e - b * f - c * g - d * h,
                a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f,
                a * h + b * g - c * f + d * e,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        # real scalars commute with everything
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return NotImplemented

    def __str__(self) -> str:
        parts = []
        for value, tag in zip(self.components(), ("", "i", "j", "k")):
            if value != 0.0 or (tag == "" and not parts):
                parts.append(f"{value:+g}{tag}")
        return "".join(parts).lstrip("+")


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
UNITS = (ONE, I, J, K)


def quat_components(values: Sequence[float]) -> tuple[float, float, float, float]:
    """The four components of a 4-list as floats; anything else is a UsageError."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise UsageError(f"a quaternion is a list of 4 numbers, got {values!r}")
    if len(values) != 4:
        raise UsageError(f"a quaternion needs exactly 4 components, got {len(values)}")
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"quaternion components must be numbers, got {values!r}") from exc


def quat_from_list(values: Sequence[float]) -> Quaternion:
    return Quaternion(*quat_components(values))


def unit_imaginary(x: float, y: float, z: float) -> Quaternion:
    """Normalize (x, y, z) to a point of the sphere of unit imaginary quaternions."""
    n = math.hypot(x, y, z)
    if n == 0.0:
        raise UsageError("cannot normalize the zero vector to an imaginary unit")
    return Quaternion(0.0, x / n, y / n, z / n)


def _check_unit(unit: Quaternion) -> None:
    if abs(unit.w) > 1e-9 or abs(unit.norm() - 1.0) > 1e-9:
        raise UsageError(f"slice unit must be purely imaginary with unit norm, got {unit!r}")


# Convention: real quaternions carry no preferred slice, so decomposition at
# a real point returns this fixed unit.  Anything computed through slice
# coordinates must not depend on the choice; the test suite recomputes with J.
REAL_AXIS_UNIT = I


@dataclass(frozen=True, slots=True)
class SliceCoordinates:
    """Slice coordinates (x, y, unit) of a quaternion: q = x + unit*y, y >= 0."""

    x: float
    y: float
    unit: Quaternion

    def to_quaternion(self) -> Quaternion:
        return slice_embed(self.x, self.y, self.unit)


def slice_decompose(q: Quaternion, real_axis_unit: Quaternion = REAL_AXIS_UNIT) -> SliceCoordinates:
    """Split q into x + unit*y with y = |Im q| >= 0.

    At real points the imaginary direction is undetermined; `real_axis_unit`
    is substituted and downstream results must be independent of it.
    """
    y = q.im_norm()
    if y == 0.0:
        return SliceCoordinates(q.w, 0.0, real_axis_unit)
    ux, uy, uz = q.x / y, q.y / y, q.z / y
    # renormalize: dividing subnormal components is not accurate enough
    m = math.hypot(ux, uy, uz)
    return SliceCoordinates(q.w, y, Quaternion(0.0, ux / m, uy / m, uz / m))


def slice_embed(x: float, y: float, unit: Quaternion) -> Quaternion:
    """Map the complex pair (x, y) into the slice of `unit`: x + unit*y.

    y may be negative; embedding (x, -y) gives the conjugate of (x, y).
    """
    _check_unit(unit)
    return Quaternion(x, unit.x * y, unit.y * y, unit.z * y)


def quat_exp(q: Quaternion) -> Quaternion:
    """Quaternionic exponential: exp(x + I*y) = e^x (cos y + I sin y).

    Agrees with the power series sum q^n / n! and restricts to the complex
    exponential on every slice.
    """
    ex = math.exp(q.w)
    y = q.im_norm()
    if y == 0.0:
        return Quaternion(ex, 0.0, 0.0, 0.0)
    s = ex * math.sin(y) / y
    return Quaternion(ex * math.cos(y), s * q.x, s * q.y, s * q.z)


def quat_mul_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rowwise Hamilton product of (..., 4) component arrays that broadcast together.

    Either may be one (4,) row; (k, 1, 4) against (1, m, 4) gives all k*m products.

    Same operations in the same order as `Quaternion.__mul__`, so each row is
    bit-identical to the product of the row quaternions.
    """
    a, b, c, d = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    e, f, g, h = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack((
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    ), axis=-1)


#: multiplying (n, 4) component rows by this conjugates every row, bit for bit
CONJUGATE_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def random_quaternion(rng, scale: float = 1.0) -> Quaternion:
    """Quaternion with components uniform in (-scale, scale); rng is a numpy Generator."""
    c = rng.uniform(-scale, scale, size=4)
    return Quaternion(float(c[0]), float(c[1]), float(c[2]), float(c[3]))


def random_unit_imaginary(rng) -> Quaternion:
    while True:
        v = rng.normal(size=3)
        n = math.hypot(float(v[0]), float(v[1]), float(v[2]))
        if n > 1e-6:
            return Quaternion(0.0, float(v[0]) / n, float(v[1]) / n, float(v[2]) / n)
