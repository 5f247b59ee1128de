"""Left and right quaternionic Laplace transforms with operational calculus.

The left transform integral(e^{-ts} f(t) dt, t=0..inf) of a quaternion-valued
f splits over the real components f = sum_m f_m J_m into four classical
complex transforms evaluated on the slice of s, assembled back through the
tensor form: that is exactly how the engine evaluates.  The four share the
kernel e^{-tz}, so the transform is one vector stem, and at each point one
adaptive panel quadrature of a complex 4-vector computes its four
components together, evaluating the kernel and f once per bisection, on
both halves' 42 nodes.  It truncates the half-line at a point T* where the
analytic tail bound K e^{(a - Re s) T*} terms falls below half the
tolerance abs_tol (with a safety factor of 10), and spends the other half
on panels of [0, T*] that start as [0, 1], [1, 2], [2, 4], ..., [2^k, T*];
when no T* within reach meets the target it raises AccuracyError carrying
the tail bound.  Every transform of one time function at one abs_tol
reads one memo, which dies with the function.  Each component's error bound
is its own quadrature error plus the tail bound, so the four add up to at
most 0.7 abs_tol.  abs_tol is the only accuracy setting; the panel budget is
fixed.

Results are slice regular functions of s on the half-plane Re(s) > a, so each
rule of the operational calculus (shifts, derivative and integral rules, the
convolution theorem) is one stem combinator.  Multiplication order matters:
powers of s and scalar factors e^{-as} are intrinsic and multiply on the
left; nothing here exposes the unlawful right-sided variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .errors import AccuracyError, DomainError, UsageError, worst_case
from .quaternion import Quaternion, quat_mul_rows
from .regions import Region, half_plane
from .series import Side
from .slicefn import SliceRegularFunction
from .stems import (
    IntrinsicStem,
    exp_decay_stem,
    polynomial_stem,
    slice_inverse_stem,
    stem_div_z,
    stem_mul_z,
    stem_product,
    stem_scale,
    stem_shift,
    stem_sum,
)
from .timefunctions import GrowthBound, TimeDomainFunction

__all__ = [
    "DEFAULT_ABS_TOL",
    "TransformResult",
    "laplace_left",
    "laplace_right",
    "exp_transform_closed_form",
    "shift_real",
    "heaviside_shift",
    "transform_of_derivative",
    "transform_of_nth_derivative",
    "derivative_of_transform",
    "transform_of_integral",
    "convolve",
    "convolution",
    "ConvolutionTransform",
    "laplace_of_convolution",
    "DualityReport",
    "reflection_duality_check",
]


#: absolute error budget of a transform evaluation or a convolution
DEFAULT_ABS_TOL = 1e-10

# the tail gets half of abs_tol, divided by this factor
_TAIL_SAFETY = 10.0

_MEMO_LIMIT = 50_000


def _check_tol(abs_tol: float) -> None:
    if abs_tol <= 0:
        raise UsageError("abs_tol must be positive")


def _tail_bound(T: float, lam: float, K: float, power: int) -> float:
    """Upper bound for K * integral(t^power e^{-lam t}, t=T..inf)."""
    total = 0.0
    fact_ratio = math.factorial(power)
    for j in range(power + 1):
        total += (fact_ratio / math.factorial(j)) * T**j / lam ** (power - j + 1)
    return K * math.exp(-lam * T) * total


def _truncation_point(growth: GrowthBound, lam: float, power: int, abs_tol: float) -> float:
    """Where the tail bound first falls below its share of abs_tol, in steps
    of 1.5x from max(growth.T, 1); AccuracyError with the last tail bound if
    200 steps miss it.  Breakpoints play no part: the tail bound needs only
    the certificate, and those past T* lie outside [0, T*]."""
    target = abs_tol / (2.0 * _TAIL_SAFETY)
    T = max(growth.T, 1.0)
    for _ in range(200):
        tail = _tail_bound(T, lam, growth.K, power)
        if tail <= target:
            return T
        T *= 1.5
    raise AccuracyError(f"the tail bound misses its target {target:.3e} at every "
                        "truncation point tried", achieved=tail)


class _TransformStem(IntrinsicStem):
    """Quadrature-backed vector stem of a transform.

    Built by `_transform_stem`; the class only marks transform stems by type.
    """

    __slots__ = ()


def _geometric_edges(T: float) -> list[float]:
    """The panel edges 1, 2, 4, ... below T."""
    edges = []
    edge = 1.0
    while edge < T:
        edges.append(edge)
        edge *= 2.0
    return edges


def _transform_stem(fn: TimeDomainFunction, abs_tol: float, power: int) -> _TransformStem:
    """The vector stem of integral(e^{-tz} (-t)^power f(t) dt).

    That is the power-th derivative of the transform, so the derivative chain
    just bumps the power.  One quadrature per (power, z) integrates all four
    components into fn's memo for abs_tol, which every transform of fn
    shares (value-identical, so the memo is observably absent); the stem
    returns its (values, errors) arrays.  The quadrature starts on the
    panels [0, 1], [1, 2], [2, 4], ... of [0, T*], split further at fn's
    breakpoints, so that the first call sees the integrand at every scale
    up to T*.  The closures hold fn and the memo but never a stem, and the
    memo holds no reference to fn, so reference counting frees both.
    """
    growth = fn.growth
    breakpoints = fn.breakpoints
    memo = fn.memos.setdefault(abs_tol, {})

    def evaluate(z: complex) -> tuple[np.ndarray, np.ndarray]:
        hit = memo.get((power, z))
        if hit is not None:
            return hit
        lam = z.real - growth.a
        if lam <= 0.0:
            raise DomainError(
                f"transform evaluation needs Re(s) > {growth.a:g}, got {z.real:g}"
            )
        T = _truncation_point(growth, lam, power, abs_tol)

        def integrand(t: np.ndarray) -> np.ndarray:
            return (np.exp(-t * z) * (-t) ** power)[:, None] * fn.evaluator(t)

        values, errs = quadrature.integrate_adaptive(
            integrand, 0.0, T, abs_tol=abs_tol / 2.0,
            breakpoints=(*_geometric_edges(T), *breakpoints),
        )
        hit = (values, errs + _tail_bound(T, lam, growth.K, power))
        if len(memo) > _MEMO_LIMIT:
            memo.clear()
        memo[(power, z)] = hit
        return hit

    deriv = lambda: _transform_stem(fn, abs_tol, power + 1)
    return _TransformStem._with_error(evaluate, half_plane(growth.a), deriv, f"L[f] power {power}")


@dataclass(slots=True)
class TransformResult:
    """An evaluable transform: a slice regular function on its half-plane."""

    fn: SliceRegularFunction

    @property
    def domain(self) -> Region:
        return self.fn.domain

    @property
    def side(self) -> Side:
        return self.fn.side

    def evaluate(self, s) -> Quaternion:
        return self.fn.evaluate(s)

    def evaluate_with_error(self, s) -> tuple[Quaternion, float]:
        return self.fn.evaluate_with_error(s)

    def __call__(self, s) -> Quaternion:
        return self.evaluate(s)

    def _wrap(self, stem: IntrinsicStem) -> "TransformResult":
        return TransformResult(SliceRegularFunction(self.side, stem))


def _transform(fn: TimeDomainFunction, side: Side, abs_tol: float) -> TransformResult:
    _check_tol(abs_tol)
    return TransformResult(SliceRegularFunction(side, _transform_stem(fn, abs_tol, 0)))


def laplace_left(fn: TimeDomainFunction, abs_tol: float = DEFAULT_ABS_TOL) -> TransformResult:
    """Left transform integral(e^{-ts} f(t) dt); left regular on Re(s) > a.

    Right H-linear in f; restricted to a slice it is the classical complex
    transform of each real component.
    """
    return _transform(fn, Side.LEFT, abs_tol)


def laplace_right(fn: TimeDomainFunction, abs_tol: float = DEFAULT_ABS_TOL) -> TransformResult:
    """Right transform integral(f(t) e^{-ts} dt); coincides with the left one
    for real-valued f."""
    return _transform(fn, Side.RIGHT, abs_tol)


def exp_transform_closed_form(b: Quaternion, side: Side) -> TransformResult:
    """The transform of t -> e^{bt} in closed form, valid on Re(s) > Re(b).

    Left: (s^2 - 2 Re(b) s + |b|^2)^(-1) (s - conj b); right: the mirror with
    the rational intrinsic factor on the right.  Componentwise both sides
    share the same stem; only the assembly side differs.
    """
    b = b if isinstance(b, Quaternion) else Quaternion.real(b)
    return TransformResult(SliceRegularFunction(side, slice_inverse_stem(b, half_plane(b.w))))


def shift_real(F: TransformResult, a_shift: float) -> TransformResult:
    """Transform of e^{-a t} f(t) for real, finite a: precompose with s -> s + a."""
    a_shift = float(a_shift)
    if not math.isfinite(a_shift):
        raise UsageError(f"real shift must be finite, got {a_shift!r}")
    if a_shift == 0.0:
        return F
    return F._wrap(stem_shift(F.fn.stem, a_shift))


def heaviside_shift(F: TransformResult, a_shift: float) -> TransformResult:
    """Transform of f(t-a) H(t-a) for finite a > 0: multiply by e^{-as} on the left.

    The factor is intrinsic, so it commutes into every tensor component.
    """
    if not 0 < a_shift < math.inf:
        raise UsageError(f"heaviside shift must be positive and finite, got {a_shift!r}")
    return F._wrap(stem_product(exp_decay_stem(a_shift, F.domain), F.fn.stem))


def transform_of_derivative(F: TransformResult, f0plus: Quaternion) -> TransformResult:
    """Transform of f'(t): s F(s) - f(0+), the power of s acting on the left."""
    return transform_of_nth_derivative(F, [f0plus])


def transform_of_nth_derivative(F: TransformResult,
                                initial_values: Sequence[Quaternion]) -> TransformResult:
    """Transform of the n-th derivative, n = len(initial_values).

    s^n F(s) - s^{n-1} f(0+) - ... - f^{(n-1)}(0+); an empty list degenerates
    to the identity (n = 0).
    """
    if F.side is not Side.LEFT:
        raise UsageError("the derivative rule is stated for left transforms")
    n = len(initial_values)
    if n == 0:
        return F
    powered = F.fn.stem
    for _ in range(n):
        powered = stem_mul_z(powered)
    # polynomial sum_r values[r] z^{n-1-r}
    correction = polynomial_stem([iv.components() for iv in reversed(initial_values)], F.domain)
    return F._wrap(stem_sum(powered, stem_scale(-1.0, correction)))


def derivative_of_transform(F: TransformResult, n: int) -> TransformResult:
    """Transform of t^n f(t): (-1)^n times the n-th slice derivative of F.

    Uses the analytic derivative chain of the stem; raises CapabilityError
    if the stem has no analytic derivative.
    """
    if n < 0:
        raise UsageError("derivative order must be non-negative")
    if n == 0:
        return F
    d = F.fn.stem
    for _ in range(n):
        d = d.derivative_stem()
    return F._wrap(d if n % 2 == 0 else stem_scale(-1.0, d))


def transform_of_integral(F: TransformResult) -> TransformResult:
    """Transform of the running integral of f: s^{-1} F(s) on Re(s) > max(a, 0)."""
    return F._wrap(stem_div_z(F.fn.stem))


# -- convolution ------------------------------------------------------------------


def convolve(f: TimeDomainFunction, g: TimeDomainFunction, t: float,
             abs_tol: float = DEFAULT_ABS_TOL) -> Quaternion:
    """(f o g)(t) = integral(f(t - tau) g(tau) d tau, tau=0..t); order matters."""
    _check_tol(abs_tol)
    if not 0.0 <= t < math.inf:
        raise UsageError(f"convolution is defined for finite t >= 0, got {t!r}")
    if t == 0.0:
        return Quaternion()
    breaks = {b for b in g.breakpoints if 0.0 < b < t}
    breaks.update(t - b for b in f.breakpoints if 0.0 < t - b < t)

    def integrand(tau: np.ndarray) -> np.ndarray:
        return quat_mul_rows(f.evaluator(t - tau), g.evaluator(tau))

    value, _ = quadrature.integrate_adaptive(
        integrand, 0.0, t, abs_tol=abs_tol, breakpoints=sorted(breaks),
    )
    return Quaternion(*(float(c) for c in value))


#: extra exponential rate granted to a convolution (it gains a factor of t)
CONV_RATE_MARGIN = 0.1


def convolution(f: TimeDomainFunction, g: TimeDomainFunction,
                abs_tol: float = DEFAULT_ABS_TOL) -> TimeDomainFunction:
    """The convolution as a TimeDomainFunction with a derived growth certificate.

    The certificate K e^{at} of a product only holds where both factors' do,
    and the convolution integral reaches back to tau = 0, so both factors
    must certify their bound for all t > 0 (T = 0); UsageError otherwise.
    """
    _check_tol(abs_tol)
    gf, gg = f.growth, g.growth
    if gf.T > 0.0 or gg.T > 0.0:
        raise UsageError(
            "convolution needs growth certificates that hold for all t > 0, "
            f"got T = {gf.T:g} and T = {gg.T:g}"
        )
    c = max(gf.a, gg.a)
    K = gf.K * gg.K / (CONV_RATE_MARGIN * math.e)
    cache: dict[float, tuple[float, float, float, float]] = {}

    def evaluate(ts: np.ndarray) -> np.ndarray:
        rows = []
        for t in ts.tolist():
            hit = cache.get(t)
            if hit is None:
                hit = convolve(f, g, t, abs_tol).components()
                if len(cache) > _MEMO_LIMIT:
                    cache.clear()
                cache[t] = hit
            rows.append(hit)
        return np.array(rows).reshape(-1, 4)

    kinks = sorted({*f.breakpoints, *g.breakpoints,
                    *(bf + bg for bf in f.breakpoints for bg in g.breakpoints)})
    return TimeDomainFunction.from_array(
        evaluate,
        GrowthBound.derived(c + CONV_RATE_MARGIN, max(K, 1e-300), 0.0, "a convolution"), kinks)


class ConvolutionTransform(TransformResult):
    """Transform of a convolution: the star product F * G of the factor transforms.

    It is a TransformResult, so every rule applies to it.  `direct` is the
    quadrature transform of the convolution itself, built on first use and
    kept (its convolution caches values by t).  The two agree on the common
    half-plane (the direct route needs a slightly larger real part because
    the convolution's certificate pays a rate margin).  Building `direct`
    raises UsageError for factors whose growth certificates do not hold for
    all t > 0; the star product needs no such certificate.
    """

    # an entry of this class's own, so that a tracer can patch it apart
    evaluate = TransformResult.evaluate

    def __init__(self, fn: SliceRegularFunction, build_direct: Callable[[], TransformResult]):
        super().__init__(fn)
        self._build_direct = build_direct

    @cached_property
    def direct(self) -> TransformResult:
        return self._build_direct()

    def crosscheck(self, probes: Sequence[Quaternion]) -> float:
        """Max deviation between the two evaluators over the probes (NaN if any is)."""
        return worst_case((self.direct.evaluate(s) - self.evaluate(s)).norm() for s in probes)


def laplace_of_convolution(f: TimeDomainFunction, g: TimeDomainFunction,
                           abs_tol: float = DEFAULT_ABS_TOL) -> ConvolutionTransform:
    """Convolution theorem: the transform of f o g is the star product F * G.

    At real s > max(a, b) this reduces to the pointwise product F(s) G(s).
    """
    F = laplace_left(f, abs_tol)
    G = laplace_left(g, abs_tol)
    return ConvolutionTransform(
        F.fn.star(G.fn), lambda: laplace_left(convolution(f, g, abs_tol), abs_tol))


# -- duality -----------------------------------------------------------------------


@dataclass(slots=True)
class DualityReport:
    """Residuals of the reflection duality between left and right transforms."""

    left_residual: float
    right_residual: float

    @property
    def max_residual(self) -> float:
        return worst_case((self.left_residual, self.right_residual))


def reflection_duality_check(f: TimeDomainFunction, probes: Sequence[Quaternion],
                             abs_tol: float = DEFAULT_ABS_TOL) -> DualityReport:
    """Check reflect(L_left f) = L_right(conj f) and its mirror at the probes.

    For real-valued f both sides collapse to the same transform and the
    residual is bounded by twice the quadrature tolerance.
    """
    fbar = f.conjugated()
    left = laplace_left(f, abs_tol).fn.reflect()
    right_of_conj = laplace_right(fbar, abs_tol)
    right = laplace_right(f, abs_tol).fn.reflect()
    left_of_conj = laplace_left(fbar, abs_tol)
    r1 = worst_case((left.evaluate(s) - right_of_conj.evaluate(s)).norm() for s in probes)
    r2 = worst_case((right.evaluate(s) - left_of_conj.evaluate(s)).norm() for s in probes)
    return DualityReport(r1, r2)
