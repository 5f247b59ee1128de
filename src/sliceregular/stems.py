"""Intrinsic complex stems: the building blocks of slice functions.

A stem is a holomorphic evaluator on an axially symmetric complex region
satisfying the reflection symmetry f(conj z) = conj(f(z)) (equivalently, a
power series with real coefficients).  A scalar stem returns a complex value
and a float error bound; a vector stem returns the (4,) complex array of the
components of a slice function against the basis (1, i, j, k), with a float
or (4,) error bound.  The combinators broadcast, so each is one definition
for both; `stem_stack` builds a vector stem from four scalar ones, and
`stem_star` multiplies two vector stems as quaternions.  A stem carries its
domain and each combinator works out its result's, so a slice function's
domain is its stem's.  Stems are callables plus an optional analytic
derivative; there is no symbolic layer, because transform stems are defined
by quadrature and are only evaluable.  Differentiation is analytic only: a
missing derivative is a CapabilityError, and the numeric difference quotient
is a separate, explicit stem.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Sequence, Union

import numpy as np

from .errors import AccuracyError, CapabilityError, PoleError, UsageError, worst_case
from .regions import HALF_PLANE, Region, disk, half_plane

__all__ = [
    "IntrinsicStem",
    "constant_stem",
    "identity_stem",
    "polynomial_stem",
    "rational_stem",
    "slice_inverse_stem",
    "exp_stem",
    "exp_decay_stem",
    "stem_sum",
    "stem_product",
    "stem_scale",
    "stem_shift",
    "stem_mul_z",
    "stem_div_z",
    "stem_stack",
    "stem_star",
    "numeric_derivative_stem",
    "symmetry_defect",
]

ENTIRE = disk(math.inf)

DerivativeSpec = Union["IntrinsicStem", Callable[[], "IntrinsicStem"], None]

#: default step of the 4-point numeric complex derivative
NUMERIC_STEP = 1e-4

# |denominator| (or |z| for division by z) at or below which evaluation is a pole
_POLE_TOL = 1e-12


class IntrinsicStem:
    """Evaluable intrinsic holomorphic function of one complex variable.

    A stem holds one evaluator returning (value, absolute error bound).  The
    public constructor takes a value-only scalar evaluator, which is exact
    (error 0).
    """

    __slots__ = ("_eval", "domain", "_derivative", "name")

    def __init__(
        self,
        evaluator: Callable[[complex], complex],
        domain: Region = ENTIRE,
        derivative: DerivativeSpec = None,
        name: str = "stem",
    ):
        self._eval = lambda z: (complex(evaluator(z)), 0.0)
        self.domain = domain
        self._derivative = derivative
        self.name = name

    @classmethod
    def _with_error(cls, evaluator: Callable[[complex], tuple[complex, float]],
                    domain: Region, derivative: DerivativeSpec, name: str) -> "IntrinsicStem":
        """A stem whose evaluator already returns (value, error)."""
        stem = cls.__new__(cls)
        stem._eval = evaluator
        stem.domain = domain
        stem._derivative = derivative
        stem.name = name
        return stem

    def __call__(self, z: complex) -> complex:
        return self._eval(complex(z))[0]

    def eval_with_error(self, z: complex) -> tuple[complex, float]:
        """Value together with an absolute error bound (0 for analytic stems)."""
        return self._eval(complex(z))

    def derivative_stem(self) -> "IntrinsicStem":
        """The analytic derivative; CapabilityError if the stem has none."""
        d = self._derivative
        if callable(d) and not isinstance(d, IntrinsicStem):
            d = d()
            self._derivative = d
        if d is None:
            raise CapabilityError(f"stem {self.name!r} has no derivative evaluator")
        return d

    def __repr__(self) -> str:
        return f"<IntrinsicStem {self.name} on {self.domain.kind}{self.domain.bounds}>"


def numeric_derivative_stem(stem: IntrinsicStem, h: float = NUMERIC_STEP) -> IntrinsicStem:
    """4-point central-difference derivative along the real direction."""

    def ev(z: complex):
        d = -stem(z + 2 * h) + 8 * stem(z + h) - 8 * stem(z - h) + stem(z - 2 * h)
        return d / (12 * h), 0.0

    return IntrinsicStem._with_error(
        ev,
        stem.domain,
        derivative=lambda: numeric_derivative_stem(numeric_derivative_stem(stem, h), h),
        name=f"d/dz[{stem.name}] (numeric)",
    )


def symmetry_defect(stem: IntrinsicStem, points: Sequence[complex]) -> float:
    """Largest violation of f(conj z) = conj(f(z)) over the probe points (NaN if any is)."""
    return worst_case(abs(stem(z.conjugate()) - stem(z).conjugate()) for z in points)


# -- factories ---------------------------------------------------------------


def constant_stem(value: float, domain: Region = ENTIRE) -> IntrinsicStem:
    v = float(value)  # intrinsic constants are necessarily real
    return IntrinsicStem(
        lambda z: complex(v, 0.0),
        domain,
        derivative=lambda: constant_stem(0.0, domain),
        name=f"const {v:g}",
    )


def identity_stem(domain: Region = ENTIRE) -> IntrinsicStem:
    return IntrinsicStem(
        lambda z: z,
        domain,
        derivative=lambda: constant_stem(1.0, domain),
        name="z",
    )


def _poly_eval(coeffs: Sequence[float], z: complex) -> complex:
    acc = complex(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _poly_derivative(coeffs: Sequence[float]) -> list[float]:
    if len(coeffs) <= 1:
        return [0.0]
    return [n * c for n, c in enumerate(coeffs) if n > 0]


def polynomial_stem(coeffs, domain: Region = ENTIRE) -> IntrinsicStem:
    """Real-coefficient polynomial sum_n coeffs[n] z^n.

    Coefficients of shape (n,) give a scalar stem; rows of shape (n, 4) give
    the vector stem whose component m has the coefficients rows[:, m].
    """
    cs = np.asarray(coeffs, dtype=float)
    cs = cs if len(cs) else np.zeros((1, *cs.shape[1:]))
    if cs.ndim == 1:
        c = cs.tolist()
        ev = lambda z: (_poly_eval(c, z), 0.0)
    else:
        cols = cs.T.tolist()
        ev = lambda z: (np.array([_poly_eval(c, z) for c in cols]), 0.0)
    # the constant row drops out; a constant's derivative is the zero row
    n = np.arange(float(len(cs))).reshape(-1, *(1,) * (cs.ndim - 1))
    deriv = lambda: polynomial_stem((cs * n)[1:], domain)
    return IntrinsicStem._with_error(ev, domain, deriv, f"poly deg {len(cs) - 1}")


def rational_stem(num: Sequence[float], den: Sequence[float], domain: Region) -> IntrinsicStem:
    """Ratio of real-coefficient polynomials; raises PoleError near zeros of den."""
    nc = [float(c) for c in num] or [0.0]
    dc = [float(c) for c in den] or [0.0]

    def ev(z: complex) -> complex:
        d = _poly_eval(dc, z)
        if abs(d) <= _POLE_TOL:
            raise PoleError(f"evaluation within {_POLE_TOL:.0e} of a pole sphere at z={z}")
        return _poly_eval(nc, z) / d

    def make_derivative() -> IntrinsicStem:
        # (n/d)' = (n'd - nd') / d^2
        np_, dp = _poly_derivative(nc), _poly_derivative(dc)
        num2 = _poly_sub(_poly_mul(np_, dc), _poly_mul(nc, dp))
        return rational_stem(num2, _poly_mul(dc, dc), domain)

    return IntrinsicStem(ev, domain, derivative=make_derivative, name="rational")


def _poly_mul(a: Sequence[float], b: Sequence[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_sub(a: Sequence[float], b: Sequence[float]) -> list[float]:
    n = max(len(a), len(b))
    a = list(a) + [0.0] * (n - len(a))
    b = list(b) + [0.0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def slice_inverse_stem(b, domain: Region, sign: float = 1.0) -> IntrinsicStem:
    """The vector stem sign (z^2 - 2 b_0 z + |b|^2)^(-1) (z - conj b) of quaternion b.

    With sign 1 it is the transform of t -> e^{bt} and the right Cauchy
    kernel; with sign -1 the left Cauchy kernel.  The sign negates the
    numerator coefficients, which is exact.
    """
    den = [b.norm_sq(), -2.0 * b.w, 1.0]
    nums = ([-sign * b.w, sign], [sign * b.x], [sign * b.y], [sign * b.z])
    return stem_stack([rational_stem(num, den, domain) for num in nums])


def _exp(z: complex) -> complex:
    """cmath.exp; a value past the float range raises AccuracyError, not OverflowError."""
    try:
        return cmath.exp(z)
    except OverflowError:
        raise AccuracyError(f"exp overflows at z = {z}", achieved=math.inf) from None


def exp_stem(domain: Region = ENTIRE) -> IntrinsicStem:
    # its own derivative, built afresh so that no stem refers to itself
    return IntrinsicStem(_exp, domain, derivative=lambda: exp_stem(domain), name="exp")


def exp_decay_stem(rate: float, domain: Region = ENTIRE) -> IntrinsicStem:
    """z -> exp(-rate*z) for real rate; intrinsic since the rate is real."""
    r = float(rate)

    def make_derivative() -> IntrinsicStem:
        return stem_scale(-r, exp_decay_stem(r, domain))

    return IntrinsicStem(
        lambda z: _exp(-r * z), domain, derivative=make_derivative,
        name=f"exp(-{r:g} z)",
    )


# -- combinators ---------------------------------------------------------------
# Each passes a derivative thunk built from its operands' derivatives, so a
# missing operand derivative raises CapabilityError when the thunk runs.

def _common_domain(a: IntrinsicStem, b: IntrinsicStem) -> Region:
    if a.domain == b.domain:
        return a.domain
    return a.domain.intersect(b.domain)


def stem_sum(a: IntrinsicStem, b: IntrinsicStem) -> IntrinsicStem:
    def ev(z):
        va, ea = a.eval_with_error(z)
        vb, eb = b.eval_with_error(z)
        return va + vb, ea + eb

    deriv = lambda: stem_sum(a.derivative_stem(), b.derivative_stem())
    return IntrinsicStem._with_error(ev, _common_domain(a, b), deriv, f"({a.name})+({b.name})")


def stem_product(a: IntrinsicStem, b: IntrinsicStem) -> IntrinsicStem:
    def ev(z):
        va, ea = a.eval_with_error(z)
        vb, eb = b.eval_with_error(z)
        return va * vb, abs(va) * eb + abs(vb) * ea + ea * eb

    deriv = lambda: stem_sum(
        stem_product(a.derivative_stem(), b),
        stem_product(a, b.derivative_stem()),
    )
    return IntrinsicStem._with_error(ev, _common_domain(a, b), deriv, f"({a.name})*({b.name})")


def stem_scale(factor, a: IntrinsicStem) -> IntrinsicStem:
    """A real factor, or a (4,) array of real factors, one per component."""
    f = float(factor) if np.ndim(factor) == 0 else np.asarray(factor, dtype=float)

    def ev(z):
        v, e = a.eval_with_error(z)
        return f * v, abs(f) * e

    deriv = lambda: stem_scale(f, a.derivative_stem())
    return IntrinsicStem._with_error(ev, a.domain, deriv, f"{f}*({a.name})")


def stem_shift(a: IntrinsicStem, offset: float) -> IntrinsicStem:
    """Precompose with z -> z + offset (real offset keeps the stem intrinsic).

    The operand's domain must be a half-plane Re z > c, which becomes
    Re z > c - offset; any other domain is a UsageError.
    """
    off = float(offset)
    if a.domain.kind != HALF_PLANE:
        raise UsageError(f"a shift needs a half-plane domain, got a {a.domain.kind}")
    deriv = lambda: stem_shift(a.derivative_stem(), off)
    return IntrinsicStem._with_error(lambda z: a.eval_with_error(z + off),
                                     half_plane(a.domain.bounds[0] - off), deriv,
                                     f"{a.name}(z+{off:g})")


def stem_mul_z(a: IntrinsicStem) -> IntrinsicStem:
    def ev(z):
        v, e = a.eval_with_error(z)
        return z * v, abs(z) * e

    deriv = lambda: stem_sum(a, stem_mul_z(a.derivative_stem()))
    return IntrinsicStem._with_error(ev, a.domain, deriv, f"z*({a.name})")


def stem_div_z(a: IntrinsicStem) -> IntrinsicStem:
    """Divide by z; a half-plane domain reaching left of 0 becomes Re z > 0."""

    def ev(z):
        if abs(z) <= _POLE_TOL:
            raise PoleError("division by z at the origin")
        v, e = a.eval_with_error(z)
        return v / z, e / abs(z)

    # (f/z)' = f'/z - f/z^2
    deriv = lambda: stem_sum(
        stem_div_z(a.derivative_stem()),
        stem_scale(-1.0, stem_div_z(stem_div_z(a))),
    )
    dom = a.domain
    if dom.kind == HALF_PLANE and dom.bounds[0] < 0.0:
        # the largest half-plane clear of the pole at 0
        dom = half_plane(0.0)
    return IntrinsicStem._with_error(ev, dom, deriv, f"({a.name})/z")


def stem_stack(parts: Sequence[IntrinsicStem]) -> IntrinsicStem:
    """The vector stem whose four components are the scalar stems `parts`."""
    parts = tuple(parts)
    domain = parts[0].domain
    for p in parts[1:]:
        domain = domain.intersect(p.domain)

    def ev(z):
        values, errors = zip(*(p.eval_with_error(z) for p in parts))
        return np.array(values), np.array(errors)

    deriv = lambda: stem_stack([p.derivative_stem() for p in parts])
    name = "[" + ", ".join(p.name for p in parts) + "]"
    return IntrinsicStem._with_error(ev, domain, deriv, name)


# the sign of e_m e_n = +-e_{m ^ n} for the units e_0..e_3 = 1, i, j, k
_HAMILTON_SIGNS = ((1, 1, 1, 1), (1, -1, 1, -1), (1, -1, -1, 1), (1, 1, -1, -1))


def _components(error) -> list[float]:
    """A vector stem's error bound as four floats (a float bounds each component)."""
    return [error] * 4 if isinstance(error, float) else error.tolist()


def stem_star(a: IntrinsicStem, b: IntrinsicStem) -> IntrinsicStem:
    """Star product of two vector stems: the Hamilton product of their components.

    Intrinsic components commute with the basis, so one product serves left
    and right functions.  Component p sums sign * a_m b_{m ^ p} over ascending
    m in plain complex arithmetic, each term with the bound
    |a_m| e(b_n) + |b_n| e(a_m) + e(a_m) e(b_n).
    """

    def ev(z):
        (va, ea), (vb, eb) = a.eval_with_error(z), b.eval_with_error(z)
        va, ea, vb, eb = va.tolist(), _components(ea), vb.tolist(), _components(eb)
        values, errors = [], []
        for p in range(4):
            for m in range(4):
                n = m ^ p
                # -1.0 * x, not -x: the complex product fixes the signs of zeros
                term = va[m] * vb[n] if _HAMILTON_SIGNS[m][n] > 0 else -1.0 * (va[m] * vb[n])
                bound = abs(va[m]) * eb[n] + abs(vb[n]) * ea[m] + ea[m] * eb[n]
                value, error = (term, bound) if m == 0 else (value + term, error + bound)
            values.append(value)
            errors.append(error)
        return np.array(values), np.array(errors)

    deriv = lambda: stem_sum(stem_star(a.derivative_stem(), b), stem_star(a, b.derivative_stem()))
    return IntrinsicStem._with_error(ev, _common_domain(a, b), deriv, f"({a.name})*({b.name})")
