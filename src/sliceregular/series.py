"""Truncated power series with quaternion coefficients.

A left series is sum_n q^n a_n (powers to the left of the coefficients), a
right series is sum_n a_n q^n.  Coefficient-level operations implement the
regular calculus exactly: the star product, regular conjugation,
symmetrization, the regular reciprocal, the slice derivative, the reflection
involution that swaps the two sides, and the split of a series into four
real-coefficient (intrinsic) components.

The star product uses the Cauchy convolution c_n = sum_k a_k b_{n-k} for both
sides: that is the unique convention under which the product evaluated at a
real point equals the pointwise product of the factors, on either side.

A series stores its coefficients as one read-only (n, 4) float64 array of
component rows, and every operation is an array expression in the operation
order of `Quaternion` arithmetic, so each result is bit-identical to the same
computation on `Quaternion` objects.  Those objects are built only at the API
boundary: `coeffs` builds them on first access and keeps them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import ConsistencyError, SingularSeriesError, UsageError
from .quaternion import CONJUGATE_SIGNS, Quaternion, quat_components, quat_mul_rows

__all__ = ["Side", "SeriesEvalReport", "RegularSeries", "assemble_components"]

#: coefficients closer than this are considered equal / snapped to zero
COEFF_TOL = 1e-13


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"

    def flipped(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


@dataclass(frozen=True, slots=True)
class SeriesEvalReport:
    """Value of a truncated evaluation plus a crude tail indicator."""

    value: Quaternion
    terms_used: int
    trunc_bound: float


def _components(value) -> tuple:
    """Components of a coefficient given as a Quaternion, a real number or a 4-list."""
    if isinstance(value, Quaternion):
        return value.components()
    if isinstance(value, (int, float)):
        return (float(value), 0.0, 0.0, 0.0)
    if isinstance(value, (list, tuple)):
        return quat_components(value)
    raise UsageError(f"cannot interpret {value!r} as a quaternion coefficient")


def _as_rows(components: list) -> np.ndarray:
    """The (n, 4) array of a list of component tuples; no coefficients is a zero one."""
    return np.array(components, dtype=np.float64) if components else np.zeros((1, 4))


def _padded(rows: np.ndarray, n: int) -> np.ndarray:
    return rows if len(rows) >= n else np.concatenate([rows, np.zeros((n - len(rows), 4))])


class RegularSeries:
    """Truncated regular power series: coefficients a_0..a_N plus a side tag."""

    __slots__ = ("side", "_rows", "_coeffs")

    def __init__(self, coeffs: Iterable, side: Side = Side.LEFT):
        self._init(_as_rows([_components(c) for c in coeffs]), side)

    def _init(self, rows: np.ndarray, side: Side) -> None:
        rows.flags.writeable = False
        self.side = side
        self._rows = rows
        self._coeffs = None

    @classmethod
    def _from_rows(cls, rows: np.ndarray, side: Side) -> "RegularSeries":
        """Wrap an (n >= 1, 4) float64 array that no caller writes to afterwards."""
        series = cls.__new__(cls)
        series._init(rows, side)
        return series

    @classmethod
    def left(cls, coeffs: Iterable) -> "RegularSeries":
        return cls(coeffs, Side.LEFT)

    @classmethod
    def right(cls, coeffs: Iterable) -> "RegularSeries":
        return cls(coeffs, Side.RIGHT)

    @property
    def rows(self) -> np.ndarray:
        """The coefficients as a read-only (n, 4) array of components (w, x, y, z)."""
        return self._rows

    @property
    def coeffs(self) -> tuple[Quaternion, ...]:
        """The coefficients as Quaternions, built on first access and kept."""
        if self._coeffs is None:
            self._coeffs = tuple(Quaternion(*r) for r in self._rows.tolist())
        return self._coeffs

    @property
    def truncation_order(self) -> int:
        return len(self._rows) - 1

    def _trimmed_rows(self) -> np.ndarray:
        nonzero = np.flatnonzero(self._rows.any(axis=1))
        return self._rows[: nonzero[-1] + 1 if len(nonzero) else 1]

    def trimmed(self) -> "RegularSeries":
        """Drop exact-zero trailing coefficients (the canonical representative)."""
        return RegularSeries._from_rows(self._trimmed_rows(), self.side)

    def is_intrinsic(self, tol: float = 0.0) -> bool:
        return all(math.hypot(*im) <= tol for im in self._rows[:, 1:].tolist())

    def __repr__(self) -> str:
        return f"RegularSeries({[str(c) for c in self.coeffs]}, {self.side.value})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegularSeries):
            return NotImplemented
        if self.side is not other.side:
            return False
        a, b = self._trimmed_rows(), other._trimmed_rows()
        # compare padded: trailing near-zero coefficients may survive trimming
        n = max(len(a), len(b))
        return all(math.hypot(*d) <= COEFF_TOL for d in (_padded(a, n) - _padded(b, n)).tolist())

    __hash__ = None

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "RegularSeries") -> "RegularSeries":
        self._require_same_side(other)
        n = max(len(self._rows), len(other._rows))
        return RegularSeries._from_rows(_padded(self._rows, n) + _padded(other._rows, n),
                                        self.side)

    def __sub__(self, other: "RegularSeries") -> "RegularSeries":
        return self + (-other)

    def __neg__(self) -> "RegularSeries":
        return RegularSeries._from_rows(-self._rows, self.side)

    def scale_left(self, factor) -> "RegularSeries":
        lam = np.array(_components(factor), dtype=np.float64)
        return RegularSeries._from_rows(quat_mul_rows(lam, self._rows), self.side)

    def scale_right(self, factor) -> "RegularSeries":
        lam = np.array(_components(factor), dtype=np.float64)
        return RegularSeries._from_rows(quat_mul_rows(self._rows, lam), self.side)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q) -> SeriesEvalReport:
        """Horner evaluation respecting the side; truncation is the caller's business.

        Runs on floats; each step repeats the operations of the Quaternion
        expression in its comment in the same order, so the value is
        bit-identical to Horner's rule on Quaternions.
        """
        q = _components(q)
        a, b, c, d = q
        cs = self._trimmed_rows().tolist()
        w, x, y, z = cs[-1]
        if self.side is Side.LEFT:
            for cw, cx, cy, cz in reversed(cs[:-1]):  # acc = coeff + q * acc
                w, x, y, z = (cw + (a * w - b * x - c * y - d * z),
                              cx + (a * x + b * w + c * z - d * y),
                              cy + (a * y - b * z + c * w + d * x),
                              cz + (a * z + b * y - c * x + d * w))
        else:
            for cw, cx, cy, cz in reversed(cs[:-1]):  # acc = acc * q + coeff
                w, x, y, z = (w * a - x * b - y * c - z * d + cw,
                              w * b + x * a + y * d - z * c + cx,
                              w * c - x * d + y * a + z * b + cy,
                              w * d + x * c - y * b + z * a + cz)
        bound = math.hypot(*cs[-1]) * math.hypot(*q) ** (len(cs) - 1)
        return SeriesEvalReport(Quaternion(w, x, y, z), len(cs), bound)

    def __call__(self, q) -> Quaternion:
        return self.evaluate(q).value

    # -- regular calculus ------------------------------------------------------

    def _require_same_side(self, other: "RegularSeries") -> None:
        if self.side is not other.side:
            raise UsageError("series sides do not match")

    def star(self, other: "RegularSeries") -> "RegularSeries":
        """Star (regular) product: Cauchy convolution of the coefficients.

        The truncation order of the result is the exact sum of the orders.
        Each c_n is summed from 0.0 over ascending k, the order of the plain
        double loop, so the result is bit-identical to it.
        """
        self._require_same_side(other)
        a, b = self._rows, other._rows
        products = quat_mul_rows(a[:, None, :], b[None, :, :])  # [k, m] = a_k b_m
        out = np.zeros((len(a) + len(b) - 1, 4))
        for k in range(len(a)):
            out[k:k + len(b)] += products[k]
        return RegularSeries._from_rows(out, self.side)

    def regular_conjugate(self) -> "RegularSeries":
        """Coefficientwise quaternion conjugation; same side, same order."""
        return RegularSeries._from_rows(self._rows * CONJUGATE_SIGNS, self.side)

    def symmetrization(self, snap_tol: float = COEFF_TOL) -> "RegularSeries":
        """f star f^c; intrinsic by construction, so the result is snapped real.

        Imaginary residue above `snap_tol` means the star product itself went
        wrong and raises rather than silently rounding.
        """
        raw = self.star(self.regular_conjugate())._rows
        for im in raw[:, 1:].tolist():
            residue = math.hypot(*im)
            if residue > snap_tol:
                raise ConsistencyError(
                    f"symmetrization produced imaginary residue {residue:.3e} > {snap_tol:.1e}"
                )
        rows = np.zeros_like(raw)
        rows[:, 0] = raw[:, 0]
        return RegularSeries._from_rows(rows, self.side)

    def reciprocal(self, order: int) -> "RegularSeries":
        """Regular reciprocal through the given order: invert f^s, multiply by f^c.

        Requires a_0 != 0; otherwise the origin lies in the zero set of the
        symmetrization and no reciprocal exists near 0.
        """
        if order < 0:
            raise UsageError("reciprocal order must be non-negative")
        if not self._rows[0].any():
            raise SingularSeriesError(
                "constant coefficient is zero: 0 belongs to the zero set of the "
                "symmetrization f^s, so the regular reciprocal is undefined at the origin"
            )
        s = self.symmetrization()._rows[:, 0].tolist()
        if s[0] == 0.0:
            raise SingularSeriesError("|a_0|^2 underflows to 0 although a_0 != 0")
        inv = [1.0 / s[0]]
        for n in range(1, order + 1):
            acc = 0.0
            for k in range(1, min(n, len(s) - 1) + 1):
                acc += s[k] * inv[n - k]
            inv.append(-acc / s[0])
        inv_rows = np.zeros((order + 1, 4))
        inv_rows[:, 0] = inv
        # coefficients of f^c past `order` reach no kept coefficient of the product
        conj = RegularSeries._from_rows(self._rows[: order + 1] * CONJUGATE_SIGNS, self.side)
        with np.errstate(over="ignore", invalid="ignore"):
            product = RegularSeries._from_rows(inv_rows, self.side).star(conj)
        rows = product._rows[: order + 1]
        if not np.isfinite(rows).all():
            raise SingularSeriesError(f"the reciprocal overflows: |a_0|^2 = {s[0]:.3e}")
        return RegularSeries._from_rows(rows, self.side)

    def slice_derivative(self) -> "RegularSeries":
        """Termwise derivative a_n -> (n+1) a_{n+1}; preserves the side."""
        if len(self._rows) == 1:
            return RegularSeries._from_rows(np.zeros((1, 4)), self.side)
        n = np.arange(1.0, len(self._rows))
        return RegularSeries._from_rows(self._rows[1:] * n[:, None], self.side)

    def reflect(self) -> "RegularSeries":
        """Reflection involution q -> conj(f(conj q)): conjugate coefficients, flip side.

        Swaps left and right regularity and reverses star products.
        """
        return RegularSeries._from_rows(self._rows * CONJUGATE_SIGNS, self.side.flipped())

    def intrinsic_components(self) -> tuple["RegularSeries", "RegularSeries", "RegularSeries", "RegularSeries"]:
        """Split into four real-coefficient series h_m with f = h0 + h1*i + h2*j + h3*k."""
        comps = []
        for m in range(4):
            rows = np.zeros_like(self._rows)
            rows[:, 0] = self._rows[:, m]
            comps.append(RegularSeries._from_rows(rows, self.side))
        return tuple(comps)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"side": self.side.value, "coeffs": self._rows.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RegularSeries":
        try:
            side = Side(data["side"])
            components = [quat_components(c) for c in data["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed series spec: {exc}") from exc
        return cls._from_rows(_as_rows(components), side)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "RegularSeries":
        return cls.from_json_dict(json.loads(text))


def assemble_components(components: Sequence[RegularSeries]) -> RegularSeries:
    """Inverse of intrinsic_components: rebuild f from four real-coefficient series."""
    if len(components) != 4:
        raise UsageError("expected exactly four component series")
    side = components[0].side
    if any(c.side is not side for c in components):
        raise UsageError("component series sides do not match")
    rows = np.zeros((max(len(c.rows) for c in components), 4))
    for m, c in enumerate(components):
        rows[: len(c.rows), m] = c.rows[:, 0]
    return RegularSeries._from_rows(rows, side)
