"""Acceptance gate: each test runs one criterion at its stated tolerance and
prints a single pass/fail line (run with -s to see them on success)."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from sliceregular.laplace import (
    derivative_of_transform,
    exp_transform_closed_form,
    heaviside_shift,
    laplace_left,
    laplace_of_convolution,
    laplace_right,
    reflection_duality_check,
    transform_of_derivative,
    transform_of_integral,
)
from sliceregular.quaternion import (
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
from sliceregular.regions import annulus, disk, half_plane
from sliceregular.series import RegularSeries, Side
from sliceregular.slicefn import cauchy_kernel, cauchy_kernel_right, from_series
from sliceregular.timefunctions import (
    TimeDomainFunction,
    constant_function,
    exponential_function,
    polynomial_function,
)
from sliceregular.verify import verify_regular

from conftest import embed_complex, scipy_complex_laplace


def report(number: int, description: str, observed: float, bound: float,
           passed: bool, unit: str = "residual") -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {verdict}: {description} "
          f"({unit} {observed:.3e}, bound {bound:.1e})")
    assert passed, f"criterion {number}: {description}"


def spread_probes(rng, count, re_lo, re_hi, im_max, real_count=0):
    probes = [slice_embed(rng.uniform(re_lo, re_hi), rng.uniform(0.2, im_max),
                          random_unit_imaginary(rng))
              for _ in range(count - real_count)]
    probes += [Quaternion.real(rng.uniform(re_lo, re_hi)) for _ in range(real_count)]
    return probes


def test_criterion_1_closed_form_transform():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    F = laplace_left(exponential_function(J))
    C = exp_transform_closed_form(J, Side.LEFT)
    worst = 0.0
    for _ in range(20):
        s = slice_embed(rng.uniform(0.5, 3.0), rng.uniform(0.0, 3.0),
                        random_unit_imaginary(rng))
        worst = max(worst, (F(s) - C(s)).norm())
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed <= 10.0
    report(1, f"transform of e^(jt) matches its closed form in {elapsed:.2f}s",
           worst, 1e-6, ok)


def test_criterion_2_reflection_duality():
    rng = np.random.default_rng(2)
    probes = spread_probes(rng, 10, 0.6, 3.0, 2.5)
    worst = reflection_duality_check(exponential_function(J), probes).max_residual
    worst = max(worst, reflection_duality_check(
        exponential_function(I).scaled_left(ONE + K), probes).max_residual)
    report(2, "reflection duality of left and right transforms", worst, 1e-5,
           worst <= 1e-5)


def test_criterion_3_convolution_theorem():
    rng = np.random.default_rng(3)
    T = laplace_of_convolution(exponential_function(I), exponential_function(J))
    probes = spread_probes(rng, 10, 1.0, 3.0, 2.5, real_count=4)
    non_real = sum(1 for s in probes if s.im_norm() > 0)
    assert non_real >= 5
    worst = T.crosscheck(probes)
    F = laplace_left(exponential_function(I))
    G = laplace_left(exponential_function(J))
    worst_real = 0.0
    for x in (1.5, 2.0, 3.0):
        s = Quaternion.real(x)
        worst_real = max(worst_real, (T(s) - F(s) * G(s)).norm())
    ok = worst <= 1e-5 and worst_real <= 1e-6
    report(3, "convolution transform equals the star product", max(worst, worst_real),
           1e-5, ok)


def test_criterion_4_derivative_rules():
    rng = np.random.default_rng(4)

    # first-order derivative rule for e^{bt}, b in {i, 1+j}
    worst_45 = 0.0
    for b in (I, ONE + J):
        f = exponential_function(b)
        lhs = transform_of_derivative(laplace_left(f), ONE)
        rhs = laplace_left(f.scaled_left(b))
        for s in spread_probes(rng, 5, b.w + 0.6, b.w + 3.0, 2.5):
            worst_45 = max(worst_45, (lhs(s) - rhs(s)).norm())

    # transform-derivative rule, n = 1, for f = 1 and f = e^{jt}
    worst_47 = 0.0
    D_one = derivative_of_transform(laplace_left(constant_function(ONE)), 1)
    for s in spread_probes(rng, 5, 0.6, 3.0, 2.0):
        sc = slice_decompose(s)
        w = 1.0 / complex(sc.x, sc.y) ** 2
        worst_47 = max(worst_47, (D_one(s) - embed_complex(w, sc.unit)).norm())
    D_j = derivative_of_transform(laplace_left(exponential_function(J)), 1)
    D_closed = derivative_of_transform(exp_transform_closed_form(J, Side.LEFT), 1)
    for s in spread_probes(rng, 5, 0.6, 3.0, 2.0):
        worst_47 = max(worst_47, (D_j(s) - D_closed(s)).norm())

    # integral rule for f = e^{it} against the hand antiderivative
    running = TimeDomainFunction(
        lambda t: (quat_exp(I * t) - ONE) * (-1) * I,
        constant_function(2 * ONE).growth)
    lhs = transform_of_integral(laplace_left(exponential_function(I)))
    rhs = laplace_left(running)
    worst_48 = 0.0
    for s in spread_probes(rng, 5, 0.6, 3.0, 2.0):
        worst_48 = max(worst_48, (lhs(s) - rhs(s)).norm())

    ok = worst_45 <= 1e-6 and worst_47 <= 1e-5 and worst_48 <= 1e-6
    report(4, "derivative, transform-derivative and integral rules",
           max(worst_45, worst_47, worst_48), 1e-5, ok)


def test_criterion_5_algebra_suite():
    rng = np.random.default_rng(5)

    worst_anti = 0.0
    for _ in range(1000):
        f = RegularSeries([random_quaternion(rng) for _ in range(9)], Side.LEFT)
        g = RegularSeries([random_quaternion(rng) for _ in range(9)], Side.LEFT)
        lhs = f.star(g).reflect()
        rhs = g.reflect().star(f.reflect())
        worst_anti = max(worst_anti,
                         max((a - b).norm() for a, b in zip(lhs.coeffs, rhs.coeffs)))

    worst_center = 0.0
    for _ in range(1000):
        h = RegularSeries([Quaternion.real(rng.uniform(-1, 1)) for _ in range(9)], Side.LEFT)
        f = RegularSeries([random_quaternion(rng) for _ in range(9)], Side.LEFT)
        lhs, rhs = h.star(f), f.star(h)
        worst_center = max(worst_center,
                           max((a - b).norm() for a, b in zip(lhs.coeffs, rhs.coeffs)))

    # convergent-series ensemble (geometric coefficient decay): inverting a
    # symmetrization with zeros near the origin is ill-conditioned by nature
    worst_recip = 0.0
    for _ in range(100):
        while True:
            f = RegularSeries([random_quaternion(rng) * 0.6**n for n in range(9)], Side.LEFT)
            if f.coeffs[0].norm() >= 0.1:
                break
        p = f.star(f.reciprocal(16))
        for n in range(17):
            target = ONE if n == 0 else Quaternion()
            worst_recip = max(worst_recip, (p.coeffs[n] - target).norm())

    ok = worst_anti <= 1e-13 and worst_center <= 1e-13 and worst_recip <= 1e-10
    report(5, "series algebra: reflection, center, reciprocal",
           max(worst_anti, worst_center, worst_recip), 1e-10, ok)


def test_criterion_6_regularity_verification():
    rng = np.random.default_rng(6)
    step = 1e-5
    worst = 0.0

    probes = disk(2.0).random_slice_points(rng, 20, margin=0.1, y_max=1.5)
    worst = max(worst, verify_regular(quat_exp, Side.LEFT, probes, step).max_residual)

    s_fixed = Quaternion(1, 0, 2, 0)
    ker_probes = annulus(s_fixed.norm() * 1.2, s_fixed.norm() * 3).random_slice_points(
        rng, 20, margin=0.05)
    worst = max(worst, verify_regular(cauchy_kernel(s_fixed), Side.LEFT,
                                      ker_probes, step).max_residual)
    worst = max(worst, verify_regular(cauchy_kernel_right(s_fixed), Side.RIGHT,
                                      ker_probes, step).max_residual)

    conv = laplace_of_convolution(exponential_function(I), exponential_function(J))
    transforms = [
        (laplace_left(exponential_function(J)), Side.LEFT),
        (laplace_right(exponential_function(J)), Side.RIGHT),
        (laplace_left(TimeDomainFunction(
            lambda t: ONE * (t * math.exp(-t)),
            polynomial_function([Quaternion(), ONE]).growth)), Side.LEFT),
        (laplace_left(exponential_function(I).scaled_left(ONE + K)), Side.LEFT),
        (heaviside_shift(laplace_left(exponential_function(J)), 1.0), Side.LEFT),
        (conv, Side.LEFT),
        (conv.direct, Side.LEFT),
    ]
    for result, side in transforms:
        t_probes = half_plane(result.domain.bounds[0]).random_slice_points(
            rng, 20, margin=0.4, y_max=2.5)
        worst = max(worst, verify_regular(result.fn, side, t_probes, step).max_residual)

    witness = verify_regular(lambda q: q.conjugate(), Side.LEFT, probes, step).max_residual
    ok = worst <= 1e-6 and witness >= 0.5
    report(6, f"regularity residuals (witness {witness:.2f} >= 0.5)", worst, 1e-6, ok)


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        f = RegularSeries([random_quaternion(rng)
                           for _ in range(int(rng.integers(1, 10)))], Side.LEFT)
        g = RegularSeries([random_quaternion(rng)
                           for _ in range(int(rng.integers(1, 10)))], Side.LEFT)
        tf, tg = from_series(f), from_series(g)
        t_prod = tf.star(tg)
        s_prod = f.star(g)
        for _ in range(50):
            q = random_quaternion(rng, 0.5)
            worst = max(worst, (tf(q) - f(q)).norm())
            worst = max(worst, (t_prod(q) - s_prod(q)).norm())
    report(7, "tensor and series forms agree in value and product", worst, 1e-10,
           worst <= 1e-10)


def test_criterion_8_slice_restriction():
    f = TimeDomainFunction(lambda t: ONE * (t * math.exp(-t)),
                           polynomial_function([Quaternion(), ONE]).growth)
    F = laplace_left(f)
    worst = 0.0
    for x in np.linspace(0.6, 2.6, 5):
        for y in (0.5, 1.5, 2.5):
            ref = scipy_complex_laplace(lambda t: t * math.exp(-t), complex(x, y))
            for unit in (I, J, K):
                s = slice_embed(float(x), float(y), unit)
                worst = max(worst, (F(s) - embed_complex(ref, unit)).norm())
    report(8, "slice restriction equals the complex transform", worst, 1e-6,
           worst <= 1e-6)


def test_criterion_9_verify_all_cli():
    # the child does not see pytest's `pythonpath`, so hand it the source tree
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sliceregular.cli", "verify", "all", "--seed", "0"],
        capture_output=True, text=True, timeout=180, env=env)
    elapsed = time.perf_counter() - started
    ok = proc.returncode == 0 and elapsed <= 120.0
    if not ok:
        print(proc.stdout[-2000:])
        print(proc.stderr[-2000:])
    report(9, "full `verify all` exits 0", elapsed, 120.0, ok, unit="seconds")
