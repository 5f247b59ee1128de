"""Named verification suites: algebra, regularity and laplace.

Each suite replays the package's defining identities against independent
routes (hand values, closed forms, a non-adaptive Gauss-Legendre reference
quadrature) and returns one PropertyCheck per identity.  The CLI `verify`
command is a thin wrapper around `run_suite`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UsageError
from .laplace import (
    DEFAULT_ABS_TOL,
    derivative_of_transform,
    exp_transform_closed_form,
    heaviside_shift,
    laplace_left,
    laplace_of_convolution,
    laplace_right,
    reflection_duality_check,
    shift_real,
    transform_of_derivative,
    transform_of_integral,
)
from .quaternion import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    quat_exp,
    random_quaternion,
    random_unit_imaginary,
    slice_decompose,
    slice_embed,
)
from .regions import annulus, disk, half_plane
from .series import RegularSeries, Side
from .slicefn import (
    cauchy_kernel,
    cauchy_kernel_right,
    exp_function,
    from_series,
)
from .timefunctions import (
    TimeDomainFunction,
    constant_function,
    exponential_function,
    heaviside_shifted,
    polynomial_function,
)
from .verify import is_slice_preserving, slice_splitting, complex_cr_residual, verify_regular

__all__ = ["PropertyCheck", "algebra_suite", "regularity_suite", "laplace_suite",
           "run_suite", "SUITE_NAMES"]

SUITE_NAMES = ("algebra", "regularity", "laplace", "all")


@dataclass(slots=True)
class PropertyCheck:
    suite: str
    name: str
    residual: float
    threshold: float
    mode: str = "le"  # "le": pass iff residual <= threshold; "ge": the witness dual

    @property
    def passed(self) -> bool:
        if self.mode == "ge":
            return self.residual >= self.threshold
        return self.residual <= self.threshold

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "property": self.name,
            "residual": self.residual,
            "threshold": self.threshold,
            "mode": self.mode,
            "passed": self.passed,
        }


def _random_series(rng, degree: int, side: Side, decay: float = 1.0,
                   min_lead: float = 0.0) -> RegularSeries:
    while True:
        coeffs = [random_quaternion(rng) * decay**n for n in range(degree + 1)]
        if coeffs[0].norm() >= min_lead:
            return RegularSeries(coeffs, side)


def _random_intrinsic(rng, degree: int, side: Side) -> RegularSeries:
    return RegularSeries(
        [Quaternion.real(rng.uniform(-1, 1)) for _ in range(degree + 1)], side
    )


def _series_distance(a: RegularSeries, b: RegularSeries) -> float:
    n = max(len(a.coeffs), len(b.coeffs))
    ac = a.coeffs + (Quaternion(),) * (n - len(a.coeffs))
    bc = b.coeffs + (Quaternion(),) * (n - len(b.coeffs))
    return max((p - q).norm() for p, q in zip(ac, bc))


# -- algebra -------------------------------------------------------------------


def algebra_suite(seed: int = 0) -> list[PropertyCheck]:
    rng = np.random.default_rng(seed)
    checks: list[PropertyCheck] = []

    # |pq| = |p||q| relative, over many random pairs
    worst = 0.0
    for _ in range(10_000):
        p, q = random_quaternion(rng, 5.0), random_quaternion(rng, 5.0)
        pq = (p * q).norm()
        ref = p.norm() * q.norm()
        if ref > 0:
            worst = max(worst, abs(pq - ref) / ref)
    checks.append(PropertyCheck("algebra", "norm multiplicativity |pq|=|p||q|", worst, 1e-12))

    # conj(pq) = conj(q) conj(p)
    worst = 0.0
    for _ in range(2000):
        p, q = random_quaternion(rng), random_quaternion(rng)
        worst = max(worst, ((p * q).conjugate() - q.conjugate() * p.conjugate()).norm())
    checks.append(PropertyCheck("algebra", "conjugation anti-automorphism", worst, 1e-14))

    # slice embed o decompose = identity
    worst = 0.0
    for _ in range(2000):
        q = random_quaternion(rng, 3.0)
        sc = slice_decompose(q)
        worst = max(worst, (slice_embed(sc.x, sc.y, sc.unit) - q).norm())
    checks.append(PropertyCheck("algebra", "slice decompose/embed roundtrip", worst, 1e-14))

    # closed-form exponential against 40 partial sums
    worst = 0.0
    for _ in range(200):
        q = random_quaternion(rng, 2.5)  # |q| <= 5
        total, term = Quaternion.real(1.0), Quaternion.real(1.0)
        for n in range(1, 40):
            term = term * q / n
            total = total + term
        worst = max(worst, (quat_exp(q) - total).norm())
    checks.append(PropertyCheck("algebra", "exp agrees with its power series", worst, 1e-12))

    # exp restricted to a slice is the transported complex exponential
    worst = 0.0
    for _ in range(300):
        unit = random_unit_imaginary(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
        lhs = quat_exp(slice_embed(z.real, z.imag, unit))
        w = cmath.exp(z)
        worst = max(worst, (lhs - slice_embed(w.real, w.imag, unit)).norm())
    checks.append(PropertyCheck("algebra", "exp transported through each slice", worst, 1e-13))

    # star product at real points is the pointwise product (both sides)
    worst = 0.0
    for side in (Side.LEFT, Side.RIGHT):
        for _ in range(100):
            f = _random_series(rng, 8, side)
            g = _random_series(rng, 8, side)
            fg = f.star(g)
            for _ in range(20):
                x = rng.uniform(-0.8, 0.8)
                lhs = fg(x)
                rhs = f(x) * g(x)
                scale = max(1.0, rhs.norm())
                worst = max(worst, (lhs - rhs).norm() / scale)
    checks.append(PropertyCheck("algebra", "real-axis star product law", worst, 1e-10))

    # reflection reverses star products, coefficient-exact
    worst = 0.0
    for _ in range(1000):
        f = _random_series(rng, 8, Side.LEFT)
        g = _random_series(rng, 8, Side.LEFT)
        worst = max(worst, _series_distance(f.star(g).reflect(), g.reflect().star(f.reflect())))
    checks.append(PropertyCheck("algebra", "reflection anti-homomorphism on series", worst, 1e-13))

    # intrinsic series commute with everything
    worst = 0.0
    for _ in range(1000):
        h = _random_intrinsic(rng, 8, Side.LEFT)
        f = _random_series(rng, 8, Side.LEFT)
        worst = max(worst, _series_distance(h.star(f), f.star(h)))
    checks.append(PropertyCheck("algebra", "intrinsic series are central", worst, 1e-13))

    # symmetrization is real before snapping
    worst = 0.0
    for _ in range(200):
        f = _random_series(rng, 8, Side.LEFT)
        raw = f.star(f.regular_conjugate())
        worst = max(worst, max(c.im_norm() for c in raw.coeffs))
    checks.append(PropertyCheck("algebra", "symmetrization has real coefficients", worst, 1e-14))

    # reciprocal: f * f^{-*} = 1 through the requested order.  Coefficients
    # decay geometrically so the series converge on the unit ball; inverting
    # a series whose symmetrization vanishes near the origin is inherently
    # ill-conditioned and outside the contract.
    worst = 0.0
    order = 16
    for _ in range(100):
        f = _random_series(rng, 8, Side.LEFT, decay=0.6, min_lead=0.1)
        h = f.reciprocal(order)
        p = f.star(h)
        for n in range(order + 1):
            target = ONE if n == 0 else Quaternion()
            worst = max(worst, (p.coeffs[n] - target).norm())
    checks.append(PropertyCheck("algebra", "star reciprocal identity", worst, 1e-10))

    # the bilinearity that actually holds: distributivity and right scalars
    worst = 0.0
    for _ in range(200):
        f = _random_series(rng, 6, Side.LEFT)
        g = _random_series(rng, 6, Side.LEFT)
        h = _random_series(rng, 6, Side.LEFT)
        lam = random_quaternion(rng)
        worst = max(worst, _series_distance((f + g).star(h), f.star(h) + g.star(h)))
        worst = max(worst, _series_distance(f.star(g.scale_right(lam)), f.star(g).scale_right(lam)))
    checks.append(PropertyCheck("algebra", "distributivity and right scalar law", worst, 1e-13))

    # reflection agrees with its pointwise definition
    worst = 0.0
    for _ in range(100):
        f = _random_series(rng, 8, Side.LEFT)
        rf = f.reflect()
        for _ in range(5):
            q = random_quaternion(rng, 0.45)
            lhs = rf(q)
            rhs = f(q.conjugate()).conjugate()
            worst = max(worst, (lhs - rhs).norm())
    checks.append(PropertyCheck("algebra", "reflection pointwise law on series", worst, 1e-12))

    return checks


# -- regularity ------------------------------------------------------------------


def regularity_suite(seed: int = 0, tol: Optional[float] = None) -> list[PropertyCheck]:
    rng = np.random.default_rng(seed)
    rtol = tol if tol is not None else 1e-6
    checks: list[PropertyCheck] = []
    step = 1e-5

    exp_fn = exp_function()
    ball = disk(2.5)
    probes = ball.random_slice_points(rng, 20, margin=0.1, y_max=2.0)
    rep = verify_regular(exp_fn, Side.LEFT, probes, step)
    checks.append(PropertyCheck("regularity", "exp is slice regular", rep.max_residual, rtol))

    conj_rep = verify_regular(lambda q: q.conjugate(), Side.LEFT, probes, step)
    checks.append(PropertyCheck("regularity", "conjugation witness is detected",
                                conj_rep.max_residual, 0.5, mode="ge"))

    s_fixed = Quaternion(1.0, 0.0, 2.0, 0.0)
    kernel = cauchy_kernel(s_fixed)
    ker_probes = annulus(s_fixed.norm() * 1.2, s_fixed.norm() * 3.0).random_slice_points(
        rng, 20, margin=0.05)
    rep = verify_regular(kernel, Side.LEFT, ker_probes, step)
    checks.append(PropertyCheck("regularity", "Cauchy kernel left regular in q",
                                rep.max_residual, rtol))

    q_fixed = Quaternion(1.0, 0.0, 2.0, 0.0)
    kernel_r = cauchy_kernel_right(q_fixed)
    rep = verify_regular(kernel_r, Side.RIGHT, ker_probes, step)
    checks.append(PropertyCheck("regularity", "Cauchy kernel right regular in s",
                                rep.max_residual, rtol))

    # tensor evaluation and product agree with the series forms
    worst = 0.0
    for _ in range(50):
        f = _random_series(rng, rng.integers(0, 9), Side.LEFT)
        g = _random_series(rng, rng.integers(0, 9), Side.LEFT)
        tf, tg = from_series(f), from_series(g)
        tensor_prod = tf.star(tg)
        series_prod = from_series(f.star(g))
        for _ in range(50):
            q = random_quaternion(rng, 0.5)
            worst = max(worst, (tf.evaluate(q) - f(q)).norm())
            worst = max(worst, (tensor_prod.evaluate(q) - series_prod.evaluate(q)).norm())
    checks.append(PropertyCheck("regularity", "tensor and series forms agree", worst, 1e-10))

    # evaluable reflection anti-isomorphism
    worst = 0.0
    for _ in range(30):
        f = from_series(_random_series(rng, 6, Side.LEFT))
        g = from_series(_random_series(rng, 6, Side.LEFT))
        lhs = f.star(g).reflect()
        rhs = g.reflect().star(f.reflect())
        for _ in range(10):
            q = random_quaternion(rng, 0.6)
            worst = max(worst, (lhs.evaluate(q) - rhs.evaluate(q)).norm())
    checks.append(PropertyCheck("regularity", "reflection anti-isomorphism pointwise",
                                worst, 1e-10))

    # splitting of a slice restriction into two holomorphic parts
    worst = 0.0
    for _ in range(10):
        fn = from_series(_random_series(rng, 5, Side.LEFT))
        unit_i = random_unit_imaginary(rng)
        v = random_unit_imaginary(rng)
        orth = v - unit_i * v.dot(unit_i)
        if orth.norm() < 1e-3:
            continue
        unit_j = orth * (1.0 / orth.norm())
        f_part, g_part = slice_splitting(fn, unit_i, unit_j)
        for _ in range(6):
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(0.1, 0.7))
            worst = max(worst, complex_cr_residual(f_part, z, step))
            worst = max(worst, complex_cr_residual(g_part, z, step))
    checks.append(PropertyCheck("regularity", "splitting into two holomorphic parts",
                                worst, rtol))

    # identity principle: real-axis agreement propagates to all of H
    worst_real, worst_quat = 0.0, 0.0
    for _ in range(20):
        f = _random_series(rng, 6, Side.LEFT)
        g = _random_series(rng, 6, Side.LEFT)
        tensor_prod = from_series(f).star(from_series(g))
        series_prod = from_series(f.star(g))
        for x in disk(1.0).chebyshev_real_points(30):
            worst_real = max(worst_real, (tensor_prod.evaluate(x) - series_prod.evaluate(x)).norm())
        for _ in range(10):
            q = random_quaternion(rng, 0.5)
            worst_quat = max(worst_quat, (tensor_prod.evaluate(q) - series_prod.evaluate(q)).norm())
    if worst_real > 1e-12:
        worst_quat = math.inf  # agreement hypothesis itself failed
    checks.append(PropertyCheck("regularity", "identity principle regression", worst_quat, 1e-8))

    # reflection preserves regularity on the opposite side
    fn = from_series(_random_series(rng, 6, Side.LEFT))
    inner = disk(1.5).random_slice_points(rng, 15, margin=0.1, y_max=1.0)
    rep_orig = verify_regular(fn, Side.LEFT, inner, step)
    rep_refl = verify_regular(fn.reflect(), Side.RIGHT, inner, step)
    checks.append(PropertyCheck("regularity", "reflection swaps the regular side",
                                max(rep_orig.max_residual, rep_refl.max_residual), rtol))

    # slice preservation: exp and q^2 preserve, q + i does not
    sp_probes = ball.random_slice_points(rng, 10, margin=0.1, y_max=1.5)
    sp_probes += [slice_decompose(Quaternion.real(x)) for x in (0.3, -0.7, 1.1)]
    ok = is_slice_preserving(exp_fn, sp_probes)
    ok = ok and is_slice_preserving(from_series(RegularSeries.left([0, 0, 1])), sp_probes)
    ok = ok and not is_slice_preserving(
        lambda q: q + I, sp_probes)
    checks.append(PropertyCheck("regularity", "slice preservation classification",
                                0.0 if ok else 1.0, 0.5))
    return checks


# -- laplace ---------------------------------------------------------------------


def _reference_complex_transform(component, sigma: complex, T: float,
                                 panels: int = 48, order: int = 24) -> complex:
    """Non-adaptive composite Gauss-Legendre reference, independent of the engine."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0 + 0.0j
    edges = np.linspace(0.0, T, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for xk, wk in zip(nodes, weights):
            t = mid + half * xk
            total += wk * half * cmath.exp(-t * sigma) * component(t)
    return total


def _transform_probes(rng, count: int, re_lo: float = 0.5, re_hi: float = 3.0,
                      im_max: float = 3.0) -> list[Quaternion]:
    out = []
    for _ in range(count):
        x = rng.uniform(re_lo, re_hi)
        y = rng.uniform(0.0, im_max)
        out.append(slice_embed(x, y, random_unit_imaginary(rng)))
    return out


def laplace_suite(seed: int = 0, tol: Optional[float] = None) -> list[PropertyCheck]:
    rng = np.random.default_rng(seed)
    rtol = tol if tol is not None else 1e-5
    checks: list[PropertyCheck] = []
    step = 1e-5

    f_exp_j = exponential_function(J)
    f_t_exp = polynomial_function([Quaternion(), ONE])  # t
    t_times_decay = TimeDomainFunction(
        lambda t: Quaternion.real(t * math.exp(-t)),
        f_t_exp.growth, (), Quaternion(),
    )

    # every transform here is slice regular on its side
    worst = 0.0
    for result, side in (
        (laplace_left(f_exp_j), Side.LEFT),
        (laplace_right(f_exp_j), Side.RIGHT),
        (laplace_left(t_times_decay), Side.LEFT),
    ):
        probes = half_plane(result.domain.bounds[0]).random_slice_points(
            rng, 20, margin=0.4, y_max=2.5)
        rep = verify_regular(result.fn, side, probes, step)
        worst = max(worst, rep.max_residual)
    checks.append(PropertyCheck("laplace", "transforms are slice regular", worst, rtol))

    # uniform convergence proxy: tighter tolerance moves values by < old tolerance
    loose, tight = DEFAULT_ABS_TOL * 100, DEFAULT_ABS_TOL * 50
    Fl, Ft = laplace_left(f_exp_j, loose), laplace_left(f_exp_j, tight)
    worst = 0.0
    for s in _transform_probes(rng, 8, re_lo=1.0):
        worst = max(worst, (Fl.evaluate(s) - Ft.evaluate(s)).norm())
    checks.append(PropertyCheck("laplace", "uniform convergence proxy", worst, loose))

    # right H-linearity
    lam, mu = random_quaternion(rng), random_quaternion(rng)
    combined = f_exp_j.scaled_right(lam) + exponential_function(I).scaled_right(mu)
    F_comb = laplace_left(combined)
    F_j = laplace_left(f_exp_j)
    F_i = laplace_left(exponential_function(I))
    worst = 0.0
    for s in _transform_probes(rng, 10, re_lo=0.6):
        lhs = F_comb.evaluate(s)
        rhs = F_j.evaluate(s) * lam + F_i.evaluate(s) * mu
        worst = max(worst, (lhs - rhs).norm())
    checks.append(PropertyCheck("laplace", "right H-linearity",
                                worst, max(10 * DEFAULT_ABS_TOL, 1e-8)))

    # slice restriction of a real-valued input against the reference quadrature
    F = laplace_left(t_times_decay)
    worst = 0.0
    for x in np.linspace(0.6, 2.6, 5):
        for y in (0.5, 1.5, 2.5):
            for unit in (I, J, K):
                s = slice_embed(float(x), float(y), unit)
                mine = F.evaluate(s)
                ref = _reference_complex_transform(
                    lambda t: t * math.exp(-t), complex(x, y), T=60.0)
                worst = max(worst, (mine - slice_embed(ref.real, ref.imag, unit)).norm())
    checks.append(PropertyCheck("laplace", "slice restriction law (real input)", worst, 1e-6))

    # intrinsic case: slice preserving, and F' = L{-t f} via an independent route
    sp = half_plane(0.3).random_slice_points(rng, 8, margin=0.3, y_max=2.0)
    sp += [slice_decompose(Quaternion.real(x)) for x in (1.0, 2.0)]
    ok = is_slice_preserving(F.fn, sp, tol=1e-8)
    checks.append(PropertyCheck("laplace", "real input gives intrinsic transform",
                                0.0 if ok else 1.0, 0.5))
    minus_t_f = TimeDomainFunction(
        lambda t: Quaternion.real(-t * t * math.exp(-t)), polynomial_function(
            [Quaternion(), Quaternion(), ONE]).growth, (), Quaternion())
    F_deriv_numeric = F.fn.slice_derivative(numeric_step=1e-4)
    G = laplace_left(minus_t_f)
    worst = 0.0
    for s in _transform_probes(rng, 8, re_lo=0.8):
        worst = max(worst, (F_deriv_numeric.evaluate(s) - G.evaluate(s)).norm())
    checks.append(PropertyCheck("laplace", "transform derivative identity", worst, rtol))

    # derivative rule: L{f'} = s F - f(0+) for exponentials
    worst = 0.0
    for b in (I, Quaternion(1, 0, 1, 0)):
        f_b = exponential_function(b)
        F_b = laplace_left(f_b)
        lhs = transform_of_derivative(F_b, f_b.value_at_zero_plus)
        rhs = laplace_left(f_b.scaled_left(b))
        for s in _transform_probes(rng, 5, re_lo=b.w + 0.6):
            worst = max(worst, (lhs.evaluate(s) - rhs.evaluate(s)).norm())
    checks.append(PropertyCheck("laplace", "derivative rule sF - f(0+)", worst, rtol))

    # heaviside shift against direct quadrature with a breakpoint
    shifted = heaviside_shifted(f_exp_j, 1.0)
    lhs = heaviside_shift(laplace_left(f_exp_j), 1.0)
    rhs = laplace_left(shifted)
    worst = 0.0
    for s in _transform_probes(rng, 6, re_lo=0.6):
        worst = max(worst, (lhs.evaluate(s) - rhs.evaluate(s)).norm())
    checks.append(PropertyCheck("laplace", "heaviside shift rule", worst, rtol))

    # real shift against the closed form
    f_i = exponential_function(I)
    damped = TimeDomainFunction(
        lambda t: quat_exp(Quaternion(-3.0, 1.0, 0, 0) * t),
        exponential_function(Quaternion(-3, 1, 0, 0)).growth, (), ONE)
    lhs = laplace_left(damped)
    rhs = shift_real(exp_transform_closed_form(I, Side.LEFT), 3.0)
    worst = 0.0
    for s in _transform_probes(rng, 5, re_lo=0.2):
        worst = max(worst, (lhs.evaluate(s) - rhs.evaluate(s)).norm())
    checks.append(PropertyCheck("laplace", "real shift rule", worst, rtol))

    # convolution theorem: direct transform vs star product, plus real-axis product
    conv = laplace_of_convolution(f_i, f_exp_j)
    probes = _transform_probes(rng, 7, re_lo=1.0, im_max=2.5)
    worst = conv.crosscheck(probes)
    checks.append(PropertyCheck("laplace", "convolution theorem (star product)", worst, rtol))
    F_ci = laplace_left(f_i)
    F_cj = laplace_left(f_exp_j)
    worst = 0.0
    for x in (1.5, 2.0, 3.0):
        s = Quaternion.real(x)
        worst = max(worst, (conv.evaluate(s) - F_ci.evaluate(s) * F_cj.evaluate(s)).norm())
    checks.append(PropertyCheck("laplace", "convolution at real points multiplies", worst, 1e-6))

    # reflection duality for a non-real input
    probes = _transform_probes(rng, 10, re_lo=0.6)
    report = reflection_duality_check(f_exp_j, probes)
    worst = report.max_residual
    report2 = reflection_duality_check(
        f_i.scaled_left(ONE + K), probes)
    worst = max(worst, report2.max_residual)
    checks.append(PropertyCheck("laplace", "reflection duality of the two transforms",
                                worst, rtol))

    # integral rule against a hand antiderivative of e^{it}
    running = TimeDomainFunction(
        lambda t: (quat_exp(I * t) - ONE) * (-1) * I + Quaternion(),
        constant_function(2 * ONE).growth, (), Quaternion())
    lhs = transform_of_integral(laplace_left(f_i))
    rhs = laplace_left(running)
    worst = 0.0
    for s in _transform_probes(rng, 6, re_lo=0.6):
        worst = max(worst, (lhs.evaluate(s) - rhs.evaluate(s)).norm())
    checks.append(PropertyCheck("laplace", "integral rule s^{-1} F", worst, rtol))

    # derivatives of the transform against analytic closed forms
    F_one = laplace_left(constant_function(ONE))
    lhs = derivative_of_transform(F_one, 1)
    worst = 0.0
    for s in _transform_probes(rng, 5, re_lo=0.5):
        sc = slice_decompose(s)
        z = complex(sc.x, sc.y)
        w = 1.0 / (z * z)
        worst = max(worst, (lhs.evaluate(s) - slice_embed(w.real, w.imag, sc.unit)).norm())
    lhs_j = derivative_of_transform(F_cj, 1)
    closed = exp_transform_closed_form(J, Side.LEFT)
    rhs_j = derivative_of_transform(closed, 1)
    for s in _transform_probes(rng, 5, re_lo=0.6):
        worst = max(worst, (lhs_j.evaluate(s) - rhs_j.evaluate(s)).norm())
    checks.append(PropertyCheck("laplace", "transform derivative rule t^n f", worst, rtol))

    return checks


def run_suite(name: str, seed: int = 0, tol: Optional[float] = None) -> list[PropertyCheck]:
    if name == "algebra":
        return algebra_suite(seed)
    if name == "regularity":
        return regularity_suite(seed, tol)
    if name == "laplace":
        return laplace_suite(seed, tol)
    if name == "all":
        return (algebra_suite(seed) + regularity_suite(seed, tol)
                + laplace_suite(seed, tol))
    raise UsageError(f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}")
