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
domain is its stem's.  Polynomial stems are coefficient rows, (n,) for a
scalar stem and (n, 4) for a vector one, with one Horner and one derivative
rule.  Products (`stem_product`, `stem_star`) and quotients by a real row
(rational stems, `stem_div_z`) are Leibniz chains, whose n-th derivative
reads each order of each operand once.  Stems are callables plus an
optional analytic derivative; there is no symbolic layer, because transform
stems are defined by quadrature and are only evaluable.
Differentiation is analytic only: a missing derivative is a CapabilityError,
and the numeric difference quotient is a separate, explicit stem.
"""

from __future__ import annotations

import cmath
import math
from operator import itemgetter
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

# |denominator| at or below which evaluation is a pole
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
    return polynomial_stem([value], domain)  # intrinsic constants are necessarily real


def identity_stem(domain: Region = ENTIRE) -> IntrinsicStem:
    return polynomial_stem([0.0, 1.0], domain)


def _rows(coeffs) -> np.ndarray:
    """Coefficient rows as floats, ascending powers first; no rows is the zero row."""
    cs = np.asarray(coeffs, dtype=float)
    return cs if len(cs) else np.zeros((1, *cs.shape[1:]))


def _columns(cs: np.ndarray) -> tuple[list[list[float]], Callable]:
    """Each component's coefficients, and how their values pack into a complex or (4,) array."""
    return cs.reshape(len(cs), -1).T.tolist(), (np.array if cs.ndim > 1 else itemgetter(0))


def _poly_eval(coeffs: Sequence[float], z: complex) -> complex:
    acc = complex(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _derivative_rows(cs: np.ndarray) -> np.ndarray:
    """(cs * n)[1:]: the constant row drops out, so a constant's derivative has no rows."""
    return (cs * np.arange(float(len(cs))).reshape(-1, *(1,) * (cs.ndim - 1)))[1:]


def polynomial_stem(coeffs, domain: Region = ENTIRE) -> IntrinsicStem:
    """Real-coefficient polynomial sum_n coeffs[n] z^n.

    Coefficients of shape (n,) give a scalar stem; rows of shape (n, 4) give
    the vector stem whose component m has the coefficients rows[:, m].
    """
    cs = _rows(coeffs)
    cols, pack = _columns(cs)
    ev = lambda z: (pack([_poly_eval(c, z) for c in cols]), 0.0)
    deriv = lambda: polynomial_stem(_derivative_rows(cs), domain)
    return IntrinsicStem._with_error(ev, domain, deriv, f"poly deg {len(cs) - 1}")


def rational_stem(num, den: Sequence[float], domain: Region) -> IntrinsicStem:
    """Coefficient rows num, shaped as for polynomial_stem, over the real row den."""
    return _quotient((polynomial_stem(num, domain),), _rows(den), domain, "rational")


def _quotient(chain: tuple, p: np.ndarray, domain: Region, name: str) -> IntrinsicStem:
    """The k-th derivative q_k of a / p, for chain = (a, ..., a^(k)) and the real row p.

    Leibniz's rule on p q = a gives q_k = (a^(k) - sum_{i=1..min(k, deg p)}
    C(k, i) p^(i) q_(k-i)) / p, bounded by (e(a^(k)) + sum C(k, i) |p^(i)|
    e(q_(k-i))) / |p|.  Each component divides in plain complex arithmetic.
    """
    k = len(chain) - 1
    rows = [p]
    for _ in range(min(k, len(p) - 1)):
        rows.append(_derivative_rows(rows[-1]))
    rows = [r.tolist() for r in rows]

    def ev(z: complex):
        pz = [_poly_eval(r, z) for r in rows]
        p0, size = pz[0], abs(pz[0])
        if size <= _POLE_TOL:
            raise PoleError(f"evaluation within {_POLE_TOL:.0e} of a pole sphere at z={z}")
        qs, es = [], []
        for j, a in enumerate(chain):
            v, e = a.eval_with_error(z)
            vector = isinstance(v, np.ndarray)
            vs = v.tolist() if vector else [v]
            for i in range(1, min(j, len(rows) - 1) + 1):
                w = math.comb(j, i) * pz[i]
                vs = [x - w * y for x, y in zip(vs, qs[j - i])]
                e = e + math.comb(j, i) * abs(pz[i]) * es[j - i]
            qs.append([x / p0 for x in vs])
            es.append(e / size)
        return (np.array(qs[-1]) if vector else qs[-1][0]), es[-1]

    deriv = lambda: _quotient((*chain, chain[-1].derivative_stem()), p, domain, name)
    return IntrinsicStem._with_error(ev, domain, deriv, name)


def slice_inverse_stem(b, domain: Region, sign: float = 1.0) -> IntrinsicStem:
    """The vector stem sign (z^2 - 2 b_0 z + |b|^2)^(-1) (z - conj b) of quaternion b.

    With sign 1 it is the transform of t -> e^{bt} and the right Cauchy
    kernel; with sign -1 the left Cauchy kernel.  The sign negates the
    numerator coefficients, which is exact.
    """
    num = [[-sign * b.w, sign * b.x, sign * b.y, sign * b.z], [sign, 0.0, 0.0, 0.0]]
    return rational_stem(num, [b.norm_sq(), -2.0 * b.w, 1.0], domain)


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
    def times(va, ea, vb, eb):
        return va * vb, abs(va) * eb + abs(vb) * ea + ea * eb

    return _product((a,), (b,), times, f"({a.name})*({b.name})")


def _product(ca: tuple, cb: tuple, times: Callable, name: str) -> IntrinsicStem:
    """The k-th derivative of a b for ca = (a, ..., a^(k)), cb = (b, ..., b^(k)): Leibniz's
    sum over ascending i, without a term whose a^(i), i > 0, is 0 with error 0."""
    k = len(ca) - 1

    def ev(z):
        value, error = times(*ca[0].eval_with_error(z), *cb[k].eval_with_error(z))
        for i in range(1, k + 1):
            va, ea = ca[i].eval_with_error(z)
            if not (np.any(va) or np.any(ea)):
                continue
            v, e = times(va, ea, *cb[k - i].eval_with_error(z))
            if i < k:  # no weight of 1, which can flip the sign of a zero
                w = math.comb(k, i)
                v, e = w * v, w * e
            value, error = value + v, error + e
        return value, error

    deriv = lambda: _product((*ca, ca[-1].derivative_stem()), (*cb, cb[-1].derivative_stem()),
                             times, name)
    return IntrinsicStem._with_error(ev, _common_domain(ca[0], cb[0]), deriv, name)


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


def stem_div_z(a: IntrinsicStem) -> IntrinsicStem:
    """Divide by z; a half-plane domain reaching left of 0 becomes Re z > 0."""
    dom = a.domain
    if dom.kind == HALF_PLANE and dom.bounds[0] < 0.0:
        # the largest half-plane clear of the pole at 0
        dom = half_plane(0.0)
    return _quotient((a,), np.array([0.0, 1.0]), dom, f"({a.name})/z")


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

    def times(va, ea, vb, eb):
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

    return _product((a,), (b,), times, f"({a.name})*({b.name})")
