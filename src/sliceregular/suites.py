"""Named verification suites: algebra, regularity and laplace.

Each suite replays the package's defining identities against independent
routes (hand values and closed forms) and returns one PropertyCheck per
identity.  The CLI `verify` command is a thin wrapper around `run_suite`.

Every check reduces its residuals with `worst_case`, so a NaN residual fails
it.  Where a row kernel exists, samples are drawn as one block in the order
of the per-sample draws (interleaved pairs p, q as an (n, 2, 4) block),
products go through `quat_mul_rows` and norms through `math.hypot` on the
rows, so each residual is bit for bit that of the one-Quaternion-per-sample
loop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UsageError, worst_case
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
    CONJUGATE_SIGNS,
    I,
    J,
    K,
    ONE,
    Quaternion,
    quat_exp,
    quat_mul_rows,
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


def _norms(rows: np.ndarray) -> list[float]:
    """math.hypot of each row of components, as Quaternion.norm and im_norm compute it."""
    return [math.hypot(*r) for r in rows.tolist()]


def _random_series(rng, degree: int, side: Side, decay: float = 1.0,
                   min_lead: float = 0.0) -> RegularSeries:
    """One (degree + 1, 4) draw, row n scaled by decay**n; redrawn while |a_0| < min_lead."""
    scale = np.array([decay**n for n in range(degree + 1)])[:, None]
    while True:
        rows = rng.uniform(-1.0, 1.0, size=(degree + 1, 4)) * scale
        if math.hypot(*rows[0].tolist()) >= min_lead:
            return RegularSeries._from_rows(rows, side)


def _series_distance(a: RegularSeries, b: RegularSeries) -> float:
    return worst_case(_norms((a - b).rows))


# -- algebra -------------------------------------------------------------------


def algebra_suite(seed: int = 0) -> list[PropertyCheck]:
    rng = np.random.default_rng(seed)
    checks: list[PropertyCheck] = []

    def check(name: str, residuals, threshold: float) -> None:
        checks.append(PropertyCheck("algebra", name, worst_case(residuals), threshold))

    # |pq| = |p||q| relative, over many random pairs
    p, q = rng.uniform(-5.0, 5.0, size=(10_000, 2, 4)).swapaxes(0, 1)
    refs = [a * b for a, b in zip(_norms(p), _norms(q))]
    check("norm multiplicativity |pq|=|p||q|",
          (abs(pq - ref) / ref for pq, ref in zip(_norms(quat_mul_rows(p, q)), refs) if ref > 0),
          1e-12)

    # conj(pq) = conj(q) conj(p)
    p, q = rng.uniform(-1.0, 1.0, size=(2000, 2, 4)).swapaxes(0, 1)
    check("conjugation anti-automorphism",
          _norms(quat_mul_rows(p, q) * CONJUGATE_SIGNS
                 - quat_mul_rows(q * CONJUGATE_SIGNS, p * CONJUGATE_SIGNS)), 1e-14)

    # slice embed o decompose = identity
    qs = [random_quaternion(rng, 3.0) for _ in range(2000)]
    check("slice decompose/embed roundtrip",
          ((slice_decompose(q).to_quaternion() - q).norm() for q in qs), 1e-14)

    # closed-form exponential against 40 partial sums, at |q| <= 5
    qs = rng.uniform(-2.5, 2.5, size=(200, 4))
    total = term = np.array(ONE.components())
    for n in range(1, 40):
        term = quat_mul_rows(term, qs) / n
        total = total + term
    closed = np.array([quat_exp(Quaternion(*q)).components() for q in qs.tolist()])
    check("exp agrees with its power series", _norms(closed - total), 1e-12)

    # exp restricted to a slice is the transported complex exponential
    residuals = []
    for _ in range(300):
        unit = random_unit_imaginary(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
        w = cmath.exp(z)
        residuals.append((quat_exp(slice_embed(z.real, z.imag, unit))
                          - slice_embed(w.real, w.imag, unit)).norm())
    check("exp transported through each slice", residuals, 1e-13)

    # star product at real points is the pointwise product (both sides)
    residuals = []
    for side in (Side.LEFT, Side.RIGHT):
        for _ in range(100):
            f, g = _random_series(rng, 8, side), _random_series(rng, 8, side)
            fg = f.star(g)
            for x in rng.uniform(-0.8, 0.8, size=20).tolist():
                rhs = f(x) * g(x)
                residuals.append((fg(x) - rhs).norm() / max(1.0, rhs.norm()))
    check("real-axis star product law", residuals, 1e-10)

    # reflection reverses star products, coefficient-exact
    pairs = [(_random_series(rng, 8, Side.LEFT), _random_series(rng, 8, Side.LEFT))
             for _ in range(1000)]
    check("reflection anti-homomorphism on series",
          (_series_distance(f.star(g).reflect(), g.reflect().star(f.reflect()))
           for f, g in pairs), 1e-13)

    # intrinsic series commute with everything
    residuals = []
    for _ in range(1000):
        rows = np.zeros((9, 4))
        rows[:, 0] = rng.uniform(-1.0, 1.0, size=9)
        h = RegularSeries._from_rows(rows, Side.LEFT)
        f = _random_series(rng, 8, Side.LEFT)
        residuals.append(_series_distance(h.star(f), f.star(h)))
    check("intrinsic series are central", residuals, 1e-13)

    # symmetrization is real before snapping
    series = [_random_series(rng, 8, Side.LEFT) for _ in range(200)]
    check("symmetrization has real coefficients",
          (r for f in series for r in _norms(f.star(f.regular_conjugate()).rows[:, 1:])), 1e-14)

    # reciprocal: f * f^{-*} = 1 through the requested order.  Coefficients
    # decay geometrically so the series converge on the unit ball; inverting
    # a series whose symmetrization vanishes near the origin is inherently
    # ill-conditioned and outside the contract.
    order = 16
    series = [_random_series(rng, 8, Side.LEFT, decay=0.6, min_lead=0.1) for _ in range(100)]
    unit_rows = np.zeros((order + 1, 4))
    unit_rows[0] = ONE.components()
    check("star reciprocal identity",
          (r for f in series
           for r in _norms(f.star(f.reciprocal(order)).rows[: order + 1] - unit_rows)), 1e-10)

    # the bilinearity that actually holds: distributivity and right scalars
    residuals = []
    for _ in range(200):
        f, g, h = (_random_series(rng, 6, Side.LEFT) for _ in range(3))
        lam = random_quaternion(rng)
        residuals.append(_series_distance((f + g).star(h), f.star(h) + g.star(h)))
        residuals.append(_series_distance(f.star(g.scale_right(lam)),
                                          f.star(g).scale_right(lam)))
    check("distributivity and right scalar law", residuals, 1e-13)

    # reflection agrees with its pointwise definition
    residuals = []
    for _ in range(100):
        f = _random_series(rng, 8, Side.LEFT)
        rf = f.reflect()
        for _ in range(5):
            q = random_quaternion(rng, 0.45)
            residuals.append((rf(q) - f(q.conjugate()).conjugate()).norm())
    check("reflection pointwise law on series", residuals, 1e-12)

    return checks


# -- regularity ------------------------------------------------------------------


def regularity_suite(seed: int = 0, tol: Optional[float] = None) -> list[PropertyCheck]:
    rng = np.random.default_rng(seed)
    rtol = tol if tol is not None else 1e-6
    checks: list[PropertyCheck] = []
    step = 1e-5

    def check(name: str, residuals, threshold: float) -> None:
        checks.append(PropertyCheck("regularity", name, worst_case(residuals), threshold))

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
    residuals = []
    for _ in range(50):
        f = _random_series(rng, rng.integers(0, 9), Side.LEFT)
        g = _random_series(rng, rng.integers(0, 9), Side.LEFT)
        tf, tg = from_series(f), from_series(g)
        tensor_prod = tf.star(tg)
        series_prod = from_series(f.star(g))
        for _ in range(50):
            q = random_quaternion(rng, 0.5)
            residuals.append((tf.evaluate(q) - f(q)).norm())
            residuals.append((tensor_prod.evaluate(q) - series_prod.evaluate(q)).norm())
    check("tensor and series forms agree", residuals, 1e-10)

    # evaluable reflection anti-isomorphism
    residuals = []
    for _ in range(30):
        f = from_series(_random_series(rng, 6, Side.LEFT))
        g = from_series(_random_series(rng, 6, Side.LEFT))
        lhs = f.star(g).reflect()
        rhs = g.reflect().star(f.reflect())
        for _ in range(10):
            q = random_quaternion(rng, 0.6)
            residuals.append((lhs.evaluate(q) - rhs.evaluate(q)).norm())
    check("reflection anti-isomorphism pointwise", residuals, 1e-10)

    # splitting of a slice restriction into two holomorphic parts
    residuals = []
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
            residuals.append(complex_cr_residual(f_part, z, step))
            residuals.append(complex_cr_residual(g_part, z, step))
    check("splitting into two holomorphic parts", residuals, rtol)

    # identity principle: real-axis agreement propagates to all of H
    real_residuals, residuals = [], []
    for _ in range(20):
        f = _random_series(rng, 6, Side.LEFT)
        g = _random_series(rng, 6, Side.LEFT)
        tensor_prod = from_series(f).star(from_series(g))
        series_prod = from_series(f.star(g))
        for x in disk(1.0).chebyshev_real_points(30):
            real_residuals.append((tensor_prod.evaluate(x) - series_prod.evaluate(x)).norm())
        for _ in range(10):
            q = random_quaternion(rng, 0.5)
            residuals.append((tensor_prod.evaluate(q) - series_prod.evaluate(q)).norm())
    if not worst_case(real_residuals) <= 1e-12:
        residuals = [math.inf]  # agreement hypothesis itself failed
    check("identity principle regression", residuals, 1e-8)

    # reflection preserves regularity on the opposite side
    fn = from_series(_random_series(rng, 6, Side.LEFT))
    inner = disk(1.5).random_slice_points(rng, 15, margin=0.1, y_max=1.0)
    rep_orig = verify_regular(fn, Side.LEFT, inner, step)
    rep_refl = verify_regular(fn.reflect(), Side.RIGHT, inner, step)
    check("reflection swaps the regular side", (rep_orig.max_residual, rep_refl.max_residual),
          rtol)

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


def _transform_probes(rng, count: int, re_lo: float = 0.5, re_hi: float = 3.0,
                      im_max: float = 3.0) -> list[Quaternion]:
    out = []
    for _ in range(count):
        x = rng.uniform(re_lo, re_hi)
        y = rng.uniform(0.0, im_max)
        out.append(slice_embed(x, y, random_unit_imaginary(rng)))
    return out


def _gaps(lhs, rhs, probes: list[Quaternion]):
    """|lhs(s) - rhs(s)| at each probe s, lhs evaluated first."""
    return ((lhs.evaluate(s) - rhs.evaluate(s)).norm() for s in probes)


def laplace_suite(seed: int = 0, tol: Optional[float] = None) -> list[PropertyCheck]:
    rng = np.random.default_rng(seed)
    rtol = tol if tol is not None else 1e-5
    checks: list[PropertyCheck] = []
    step = 1e-5

    def check(name: str, residuals, threshold: float) -> None:
        checks.append(PropertyCheck("laplace", name, worst_case(residuals), threshold))

    f_exp_j = exponential_function(J)
    f_t_exp = polynomial_function([Quaternion(), ONE])  # t
    t_times_decay = TimeDomainFunction(
        lambda t: Quaternion.real(t * math.exp(-t)),
        f_t_exp.growth)

    # every transform here is slice regular on its side
    residuals = []
    for result, side in (
        (laplace_left(f_exp_j), Side.LEFT),
        (laplace_right(f_exp_j), Side.RIGHT),
        (laplace_left(t_times_decay), Side.LEFT),
    ):
        probes = half_plane(result.domain.bounds[0]).random_slice_points(
            rng, 20, margin=0.4, y_max=2.5)
        residuals.append(verify_regular(result.fn, side, probes, step).max_residual)
    check("transforms are slice regular", residuals, rtol)

    # uniform convergence proxy: tighter tolerance moves values by < old tolerance
    loose, tight = DEFAULT_ABS_TOL * 100, DEFAULT_ABS_TOL * 50
    Fl, Ft = laplace_left(f_exp_j, loose), laplace_left(f_exp_j, tight)
    check("uniform convergence proxy", _gaps(Fl, Ft, _transform_probes(rng, 8, re_lo=1.0)),
          loose)

    # right H-linearity
    lam, mu = random_quaternion(rng), random_quaternion(rng)
    combined = f_exp_j.scaled_right(lam) + exponential_function(I).scaled_right(mu)
    F_comb = laplace_left(combined)
    F_j = laplace_left(f_exp_j)
    F_i = laplace_left(exponential_function(I))
    check("right H-linearity",
          ((F_comb.evaluate(s) - (F_j.evaluate(s) * lam + F_i.evaluate(s) * mu)).norm()
           for s in _transform_probes(rng, 10, re_lo=0.6)),
          max(10 * DEFAULT_ABS_TOL, 1e-8))

    # slice restriction of a real-valued input against the closed form
    # L[t e^{-t}](z) = 1/(z + 1)^2
    F = laplace_left(t_times_decay)
    residuals = []
    for x in np.linspace(0.6, 2.6, 5):
        for y in (0.5, 1.5, 2.5):
            ref = 1.0 / (complex(x, y) + 1.0) ** 2
            for unit in (I, J, K):
                s = slice_embed(float(x), float(y), unit)
                residuals.append((F.evaluate(s) - slice_embed(ref.real, ref.imag, unit)).norm())
    check("slice restriction law (real input)", residuals, 1e-6)

    # intrinsic case: slice preserving, and F' = L{-t f} via an independent route
    sp = half_plane(0.3).random_slice_points(rng, 8, margin=0.3, y_max=2.0)
    sp += [slice_decompose(Quaternion.real(x)) for x in (1.0, 2.0)]
    ok = is_slice_preserving(F.fn, sp, tol=1e-8)
    checks.append(PropertyCheck("laplace", "real input gives intrinsic transform",
                                0.0 if ok else 1.0, 0.5))
    minus_t_f = TimeDomainFunction(
        lambda t: Quaternion.real(-t * t * math.exp(-t)), polynomial_function(
            [Quaternion(), Quaternion(), ONE]).growth)
    F_deriv_numeric = F.fn.slice_derivative(numeric_step=1e-4)
    G = laplace_left(minus_t_f)
    check("transform derivative identity",
          _gaps(F_deriv_numeric, G, _transform_probes(rng, 8, re_lo=0.8)), rtol)

    # derivative rule: L{f'} = s F - f(0+) for exponentials
    residuals = []
    for b in (I, Quaternion(1, 0, 1, 0)):
        f_b = exponential_function(b)
        F_b = laplace_left(f_b)
        lhs = transform_of_derivative(F_b, f_b(0.0))
        rhs = laplace_left(f_b.scaled_left(b))
        residuals.extend(_gaps(lhs, rhs, _transform_probes(rng, 5, re_lo=b.w + 0.6)))
    check("derivative rule sF - f(0+)", residuals, rtol)

    # heaviside shift against direct quadrature with a breakpoint
    lhs = heaviside_shift(laplace_left(f_exp_j), 1.0)
    rhs = laplace_left(heaviside_shifted(f_exp_j, 1.0))
    check("heaviside shift rule", _gaps(lhs, rhs, _transform_probes(rng, 6, re_lo=0.6)), rtol)

    # real shift against the closed form
    f_i = exponential_function(I)
    damped = TimeDomainFunction(
        lambda t: quat_exp(Quaternion(-3.0, 1.0, 0, 0) * t),
        exponential_function(Quaternion(-3, 1, 0, 0)).growth)
    lhs = laplace_left(damped)
    rhs = shift_real(exp_transform_closed_form(I, Side.LEFT), 3.0)
    check("real shift rule", _gaps(lhs, rhs, _transform_probes(rng, 5, re_lo=0.2)), rtol)

    # convolution theorem: direct transform vs star product, plus real-axis product
    conv = laplace_of_convolution(f_i, f_exp_j)
    probes = _transform_probes(rng, 7, re_lo=1.0, im_max=2.5)
    checks.append(PropertyCheck("laplace", "convolution theorem (star product)",
                                conv.crosscheck(probes), rtol))
    F_ci = laplace_left(f_i)
    F_cj = laplace_left(f_exp_j)
    check("convolution at real points multiplies",
          ((conv.evaluate(s) - F_ci.evaluate(s) * F_cj.evaluate(s)).norm()
           for s in map(Quaternion.real, (1.5, 2.0, 3.0))), 1e-6)

    # reflection duality for a non-real input
    probes = _transform_probes(rng, 10, re_lo=0.6)
    check("reflection duality of the two transforms",
          (reflection_duality_check(f, probes).max_residual
           for f in (f_exp_j, f_i.scaled_left(ONE + K))), rtol)

    # integral rule against a hand antiderivative of e^{it}
    running = TimeDomainFunction(
        lambda t: (quat_exp(I * t) - ONE) * (-1) * I + Quaternion(),
        constant_function(2 * ONE).growth)
    lhs = transform_of_integral(laplace_left(f_i))
    rhs = laplace_left(running)
    check("integral rule s^{-1} F", _gaps(lhs, rhs, _transform_probes(rng, 6, re_lo=0.6)), rtol)

    # derivatives of the transform against analytic closed forms
    lhs = derivative_of_transform(laplace_left(constant_function(ONE)), 1)
    residuals = []
    for s in _transform_probes(rng, 5, re_lo=0.5):
        sc = slice_decompose(s)
        z = complex(sc.x, sc.y)
        w = 1.0 / (z * z)
        residuals.append((lhs.evaluate(s) - slice_embed(w.real, w.imag, sc.unit)).norm())
    lhs_j = derivative_of_transform(F_cj, 1)
    rhs_j = derivative_of_transform(exp_transform_closed_form(J, Side.LEFT), 1)
    residuals.extend(_gaps(lhs_j, rhs_j, _transform_probes(rng, 5, re_lo=0.6)))
    check("transform derivative rule t^n f", residuals, rtol)

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
