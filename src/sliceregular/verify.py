"""Finite-difference verifiers for slice regularity and slice preservation.

On each slice plane a left regular function is annihilated by the operator
(d/dx + I d/dy)/2 and a right regular one by (d/dx + (d/dy) I)/2; the
verifier estimates both derivatives by central differences at probe points
and reports the worst residual norm.  A residual near zero certifies
regularity at the probe resolution, while genuinely non-regular inputs (the
canonical witness being q -> conj(q)) produce O(1) residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .quaternion import Quaternion, SliceCoordinates, slice_embed
from .series import Side
from .slicefn import SliceRegularFunction

__all__ = [
    "ResidualReport",
    "verify_regular",
    "is_slice_preserving",
    "slice_splitting",
    "complex_cr_residual",
]

DEFAULT_STEP = 1e-5


@dataclass(slots=True)
class ResidualReport:
    side: Side
    step: float
    max_residual: float
    residuals: list[float] = field(default_factory=list)
    probes: list[SliceCoordinates] = field(default_factory=list)


def _as_evaluator(fn) -> Callable[[Quaternion], Quaternion]:
    if isinstance(fn, SliceRegularFunction):
        return fn.evaluate
    return fn


def verify_regular(fn, side: Side, probes: Sequence[SliceCoordinates],
                   step: float = DEFAULT_STEP) -> ResidualReport:
    """Central-difference residual of the slice CR operator at each probe.

    Probes should be interior to the domain with margin at least `step`.
    """
    evaluate = _as_evaluator(fn)
    residuals = []
    for p in probes:
        unit = p.unit
        f_xp = evaluate(slice_embed(p.x + step, p.y, unit))
        f_xm = evaluate(slice_embed(p.x - step, p.y, unit))
        f_yp = evaluate(slice_embed(p.x, p.y + step, unit))
        f_ym = evaluate(slice_embed(p.x, p.y - step, unit))
        dfdx = (f_xp - f_xm) / (2.0 * step)
        dfdy = (f_yp - f_ym) / (2.0 * step)
        if side is Side.LEFT:
            residual = (dfdx + unit * dfdy) * 0.5
        else:
            residual = (dfdx + dfdy * unit) * 0.5
        residuals.append(residual.norm())
    return ResidualReport(side, step, max(residuals, default=0.0),
                          residuals, list(probes))


def is_slice_preserving(fn, probes: Sequence[SliceCoordinates],
                        tol: float = 1e-10) -> bool:
    """True iff real probes land on the real axis and slice probes stay in their slice.

    The two criteria cross-check each other: a regular function mapping reals
    to reals is automatically slice-preserving and conversely.
    """
    evaluate = _as_evaluator(fn)
    for p in probes:
        value = evaluate(slice_embed(p.x, p.y, p.unit))
        if p.y == 0.0:
            if value.im_norm() > tol:
                return False
        else:
            imag = value.im()
            along = imag.dot(p.unit)
            off_slice = imag - p.unit * along
            if off_slice.norm() > tol:
                return False
    return True


def slice_splitting(fn, unit_i: Quaternion, unit_j: Quaternion):
    """Split the restriction to the slice of unit_i as F(z) + G(z) * unit_j.

    unit_j must be orthogonal to unit_i; both components are complex-valued
    maps that are holomorphic exactly when fn is left regular.
    """
    evaluate = _as_evaluator(fn)
    unit_k = unit_i * unit_j

    def f_part(z: complex) -> complex:
        v = evaluate(slice_embed(z.real, z.imag, unit_i))
        return complex(v.w, v.dot(unit_i))

    def g_part(z: complex) -> complex:
        v = evaluate(slice_embed(z.real, z.imag, unit_i))
        return complex(v.dot(unit_j), v.dot(unit_k))

    return f_part, g_part


def complex_cr_residual(cf: Callable[[complex], complex], z: complex,
                        step: float = DEFAULT_STEP) -> float:
    """|d/dx f + i d/dy f| / 2 by central differences, for complex maps."""
    dfdx = (cf(z + step) - cf(z - step)) / (2.0 * step)
    dfdy = (cf(z + 1j * step) - cf(z - 1j * step)) / (2.0 * step)
    return abs(0.5 * (dfdx + 1j * dfdy))
