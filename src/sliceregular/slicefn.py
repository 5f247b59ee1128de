"""Slice regular functions on quaternions in tensor form.

A left (or right) slice regular function is represented by four intrinsic
stems h_0..h_3 paired with the basis (1, i, j, k): at q = x + I*y the value
is sum_m (u_m + I v_m) * J_m for the left side and sum_m J_m * (u_m + I v_m)
for the right side, where h_m(x + iy) = u_m + i v_m.  Intrinsic functions
(the m=0 part alone) commute with everything, which makes the star product a
16-term bilinear contraction of the stems against the quaternion
multiplication table.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import DomainError, StemSymmetryError, UsageError
from .quaternion import (
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
    constant_stem,
    exp_stem,
    numeric_derivative_stem,
    polynomial_stem,
    rational_stem,
    stem_product,
    stem_scale,
    stem_sum,
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


def _structure_table() -> list[list[tuple[int, float]]]:
    table = []
    for m in range(4):
        row = []
        for n in range(4):
            prod = UNITS[m] * UNITS[n]
            for p, base in enumerate(UNITS):
                d = prod.dot(base)
                if abs(d) > 0.5:
                    row.append((p, 1.0 if d > 0 else -1.0))
                    break
        table.append(row)
    return table


_STRUCTURE = _structure_table()

# largest reflection-symmetry defect extend_intrinsic accepts at its probes
_SYMMETRY_TOL = 1e-9


class SliceRegularFunction:
    """Four intrinsic stems tensored with the quaternion basis."""

    __slots__ = ("side", "stems", "domain")

    def __init__(self, side: Side, stems: Sequence[IntrinsicStem], domain: Region):
        if len(stems) != 4:
            raise UsageError("a slice regular function needs exactly four stems")
        self.side = side
        self.stems = tuple(stems)
        self.domain = domain

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q, real_axis_unit: Quaternion = REAL_AXIS_UNIT) -> Quaternion:
        return self._evaluate(q, real_axis_unit)[0]

    def evaluate_with_error(self, q) -> tuple[Quaternion, float]:
        """Value together with the summed error bounds of the four stems."""
        return self._evaluate(q, REAL_AXIS_UNIT)

    __call__ = evaluate

    def _evaluate(self, q, real_axis_unit: Quaternion) -> tuple[Quaternion, float]:
        q = q if isinstance(q, Quaternion) else Quaternion.real(q)
        sc = slice_decompose(q, real_axis_unit)
        if not self.domain.contains(sc.x, sc.y):
            raise DomainError(f"{q} lies outside the {self.domain.kind} domain {self.domain.bounds}")
        return self._assemble(complex(sc.x, sc.y), sc.unit)

    def _assemble(self, z: complex, unit: Quaternion) -> tuple[Quaternion, float]:
        """sum_m h_m(z) J_m (or J_m h_m(z)) on the slice of `unit`, with its error."""
        total = Quaternion()
        err = 0.0
        for stem, base in zip(self.stems, UNITS):
            w, e = stem.eval_with_error(z)
            err += e
            slice_value = Quaternion(w.real, unit.x * w.imag, unit.y * w.imag, unit.z * w.imag)
            total = total + (slice_value * base if self.side is Side.LEFT else base * slice_value)
        return total, err

    # -- algebra ---------------------------------------------------------------

    def star(self, other: "SliceRegularFunction") -> "SliceRegularFunction":
        """Star product via the stem contraction against the basis table.

        Intrinsic stems commute through everything, so the same contraction
        serves both sides; on the real axis it reduces to the pointwise
        product of the two functions.
        """
        if self.side is not other.side:
            raise UsageError("cannot star-multiply functions of different sides")
        domain = self.domain.intersect(other.domain)
        buckets: list[list[IntrinsicStem]] = [[], [], [], []]
        for m in range(4):
            for n in range(4):
                p, sign = _STRUCTURE[m][n]
                prod = stem_product(self.stems[m], other.stems[n])
                buckets[p].append(prod if sign > 0 else stem_scale(-1.0, prod))
        out = []
        for parts in buckets:
            acc = parts[0]
            for extra in parts[1:]:
                acc = stem_sum(acc, extra)
            out.append(acc)
        return SliceRegularFunction(self.side, out, domain)

    def reflect(self) -> "SliceRegularFunction":
        """Reflection involution q -> conj(f(conj q)): conjugate the basis, flip the side."""
        return self._conjugate_basis(self.side.flipped())

    def regular_conjugate(self) -> "SliceRegularFunction":
        """Conjugate the basis pairing without changing the side."""
        return self._conjugate_basis(self.side)

    def _conjugate_basis(self, side: Side) -> "SliceRegularFunction":
        h0, h1, h2, h3 = self.stems
        return SliceRegularFunction(
            side,
            (h0, stem_scale(-1.0, h1), stem_scale(-1.0, h2), stem_scale(-1.0, h3)),
            self.domain,
        )

    def slice_derivative(self, numeric_step: Optional[float] = None) -> "SliceRegularFunction":
        """Componentwise stem derivative.

        Analytic by default (CapabilityError if a stem has no derivative);
        with a numeric_step, the 4-point central difference of every stem,
        which serves as an independent cross-check of the analytic chain.
        """
        if numeric_step is None:
            stems = [s.derivative_stem() for s in self.stems]
        else:
            stems = [numeric_derivative_stem(s, numeric_step) for s in self.stems]
        return SliceRegularFunction(self.side, stems, self.domain)


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
    if defect > _SYMMETRY_TOL:
        raise StemSymmetryError(
            f"stem violates f(conj z) = conj(f(z)) by {defect:.3e} (tol {_SYMMETRY_TOL:.1e})"
        )
    zero = constant_stem(0.0, stem.domain)
    return SliceRegularFunction(side, (stem, zero, zero, zero), stem.domain)


def assemble(stems: Sequence[IntrinsicStem], side: Side) -> SliceRegularFunction:
    """Pair four intrinsic stems with the basis (1, i, j, k) on a common domain."""
    if len(stems) != 4:
        raise UsageError("assemble needs exactly four stems")
    domain = stems[0].domain
    for s in stems[1:]:
        domain = domain.intersect(s.domain)
    return SliceRegularFunction(side, stems, domain)


def from_series(f: RegularSeries, domain: Region = ENTIRE) -> SliceRegularFunction:
    """Evaluable tensor form of a polynomial series via its intrinsic components."""
    stems = [polynomial_stem(f.rows[:, m].tolist(), domain) for m in range(4)]
    return SliceRegularFunction(f.side, stems, domain)


def exp_function() -> SliceRegularFunction:
    """The quaternionic exponential as an intrinsic slice regular function."""
    return extend_intrinsic(exp_stem())


def cauchy_kernel(s: Quaternion, domain: Optional[Region] = None) -> SliceRegularFunction:
    """The Cauchy kernel -(|s|^2 - 2 q Re(s) + q^2)^(-1) (q - conj(s)) in q.

    Left regular in q away from the pole sphere |q - Re(s)| = |Im(s)| on the
    axis of s; the default domain is the annulus outside that sphere.
    """
    s0 = s.w
    den = [s.norm_sq(), -2.0 * s0, 1.0]
    dom = domain if domain is not None else annulus(s.norm(), math.inf)
    h0 = rational_stem([s0, -1.0], den, dom)
    rest = [rational_stem([-comp], den, dom) for comp in (s.x, s.y, s.z)]
    return SliceRegularFunction(Side.LEFT, (h0, *rest), dom)


def cauchy_kernel_right(q: Quaternion, domain: Optional[Region] = None) -> SliceRegularFunction:
    """The same kernel as a right regular function of s for fixed q.

    Componentwise this is the slice inverse of (s - q): the stems are the
    quaternion-basis components of ((z - q0) + Im q) / ((z - q0)^2 + |Im q|^2).
    """
    q0 = q.w
    imn2 = q.x * q.x + q.y * q.y + q.z * q.z
    den = [q0 * q0 + imn2, -2.0 * q0, 1.0]
    dom = domain if domain is not None else annulus(q.norm(), math.inf)
    g0 = rational_stem([-q0, 1.0], den, dom)
    rest = [rational_stem([comp], den, dom) for comp in (q.x, q.y, q.z)]
    return SliceRegularFunction(Side.RIGHT, (g0, *rest), dom)
