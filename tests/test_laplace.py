import cmath
import gc
import math

import numpy as np
import pytest

from sliceregular import quadrature
from sliceregular.errors import AccuracyError, DomainError, UsageError
from sliceregular.laplace import (
    DEFAULT_ABS_TOL,
    TransformResult,
    convolution,
    convolve,
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
    transform_of_nth_derivative,
)
from sliceregular.quaternion import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    quat_exp,
    random_unit_imaginary,
    slice_embed,
)
from sliceregular.regions import annulus, disk, half_plane
from sliceregular.series import Side
from sliceregular.slicefn import exp_function
from sliceregular.stems import exp_stem, stem_shift
from sliceregular.timefunctions import (
    GrowthBound,
    TimeDomainFunction,
    constant_function,
    exponential_function,
    heaviside_shifted,
    polynomial_function,
)
from sliceregular.verify import verify_regular

from conftest import assert_qclose, embed_complex, scipy_complex_laplace


def transform_probes(rng, count, re_lo=0.6, re_hi=3.0, im_max=3.0):
    out = []
    for _ in range(count):
        out.append(slice_embed(rng.uniform(re_lo, re_hi), rng.uniform(0, im_max),
                               random_unit_imaginary(rng)))
    return out


class TestBasicTransforms:
    def test_constant_one(self):
        F = laplace_left(constant_function(ONE))
        assert_qclose(F(Quaternion.real(2.0)), Quaternion.real(0.5), 1e-9)

    def test_exp_bt_real_s(self, rng):
        # (s - b)^{-1} at real s > Re(b), for quaternion b
        for b in (Quaternion.real(0.5), I, Quaternion(0.5, 0, 2, 0)):
            F = laplace_left(exponential_function(b))
            for s in (2.0, 3.5):
                expected = (Quaternion.real(s) - b).inverse()
                assert_qclose(F(Quaternion.real(s)), expected, 1e-8)

    def test_exp_jt_matches_closed_form(self):
        F = laplace_left(exponential_function(J))
        C = exp_transform_closed_form(J, Side.LEFT)
        s = Quaternion(1, 2, 0, 0)
        assert (F(s) - C(s)).norm() <= 1e-6

    def test_t_gives_inverse_square(self):
        f = polynomial_function([Quaternion(), ONE])
        s = Quaternion.real(2.0)
        assert_qclose(laplace_left(f)(s), Quaternion.real(0.25), 1e-8)
        assert_qclose(laplace_right(f)(s), Quaternion.real(0.25), 1e-8)

    def test_constant_j_both_sides(self):
        f = constant_function(J)
        s = Quaternion.real(1.0)
        assert_qclose(laplace_left(f)(s), J, 1e-9)
        assert_qclose(laplace_right(f)(s), J, 1e-9)

    def test_real_valued_input_sides_coincide(self, rng):
        f = TimeDomainFunction(lambda t: ONE * (t * math.exp(-t)),
                               polynomial_function([Quaternion(), ONE]).growth)
        L, R = laplace_left(f), laplace_right(f)
        for s in transform_probes(rng, 5):
            assert_qclose(L(s), R(s), 1e-9)

    def test_domain_error_at_or_below_order(self):
        F = laplace_left(exponential_function(Quaternion.real(1.0)))
        with pytest.raises(DomainError):
            F(Quaternion.real(1.0))
        with pytest.raises(DomainError):
            F(Quaternion(0.5, 3, 0, 0))

    def test_against_scipy_componentwise(self, rng):
        # independent oracle: QUADPACK transform of each real component
        f = exponential_function(J)
        F = laplace_left(f)
        for _ in range(5):
            x, y = rng.uniform(0.5, 2.5), rng.uniform(0, 2.5)
            unit = random_unit_imaginary(rng)
            sigma = complex(x, y)
            w0 = scipy_complex_laplace(lambda t: math.cos(t), sigma)
            w2 = scipy_complex_laplace(lambda t: math.sin(t), sigma)
            expected = embed_complex(w0, unit) + embed_complex(w2, unit) * J
            assert_qclose(F(slice_embed(x, y, unit)), expected, 1e-8)

    def test_memoization_is_invisible(self):
        F = laplace_left(exponential_function(J))
        s = Quaternion(1.5, 0.5, 0.5, 0)
        first = F(s)
        second = F(s)
        assert first == second  # cache returns the identical value

    def test_right_h_linearity(self, rng):
        lam, mu = Quaternion(0.3, -1, 0.5, 2), Quaternion(0, 1, 1, -1)
        f = exponential_function(J)
        g = exponential_function(I)
        combined = f.scaled_right(lam) + g.scaled_right(mu)
        F, G, C = laplace_left(f), laplace_left(g), laplace_left(combined)
        for s in transform_probes(rng, 6):
            assert (C(s) - (F(s) * lam + G(s) * mu)).norm() <= 1e-8

    def test_transform_regularity(self, rng):
        F = laplace_left(exponential_function(J))
        probes = half_plane(0.0).random_slice_points(rng, 20, margin=0.4, y_max=2.5)
        assert verify_regular(F.fn, Side.LEFT, probes, 1e-5).max_residual <= 1e-6

    def test_est_error_reported(self):
        F = laplace_left(exponential_function(J))
        value, err = F.evaluate_with_error(Quaternion(1, 2, 0, 0))
        assert 0 < err < 1e-8

    def test_components_report_their_own_error(self):
        # e^{jt} = cos t + j sin t: the i and k components vanish identically
        F = laplace_left(exponential_function(J))
        for m in (1, 3):
            assert F.fn.stem.eval_with_error(complex(1, 2))[1][m] < 1e-15

    @pytest.mark.parametrize("build", [
        lambda f, tol: laplace_left(f, tol),
        lambda f, tol: laplace_right(f, tol),
        lambda f, tol: convolution(f, f, tol),
        lambda f, tol: convolve(f, f, 1.0, tol),
    ], ids=["left", "right", "convolution", "convolve"])
    def test_nonpositive_abs_tol_rejected(self, build):
        for tol in (0.0, -1e-10):
            with pytest.raises(UsageError, match="abs_tol must be positive"):
                build(constant_function(ONE), tol)


class TestClosedForm:
    def test_real_b_reduces_to_scalar(self, rng):
        for side in (Side.LEFT, Side.RIGHT):
            C = exp_transform_closed_form(Quaternion.real(0.5), side)
            for s in transform_probes(rng, 5, re_lo=1.0):
                assert_qclose(C(s), (s - Quaternion.real(0.5)).inverse(), 1e-12)

    def test_worked_example_point(self):
        C = exp_transform_closed_form(I, Side.LEFT)
        assert_qclose(C(Quaternion.real(2.0)), Quaternion(0.4, 0.2, 0, 0), 1e-15)

    def test_b_k_at_1_plus_i_against_quadrature(self):
        C = exp_transform_closed_form(K, Side.LEFT)
        F = laplace_left(exponential_function(K))
        s = Quaternion(1, 1, 0, 0)
        assert (C(s) - F(s)).norm() <= 1e-8

    def test_left_right_differ_off_reals(self):
        b = J
        s = Quaternion(1, 2, 0, 0)
        L = exp_transform_closed_form(b, Side.LEFT)(s)
        R = exp_transform_closed_form(b, Side.RIGHT)(s)
        assert_qclose(L, Quaternion(0.3, -0.4, -0.1, -0.2), 1e-15)
        assert_qclose(R, Quaternion(0.3, -0.4, -0.1, 0.2), 1e-15)

    def test_right_form_matches_right_quadrature(self, rng):
        C = exp_transform_closed_form(J, Side.RIGHT)
        F = laplace_right(exponential_function(J))
        for s in transform_probes(rng, 5):
            assert (C(s) - F(s)).norm() <= 1e-7

    def test_pole_sphere_raises(self):
        from sliceregular.errors import PoleError

        C = exp_transform_closed_form(I, Side.LEFT)
        with pytest.raises(PoleError):
            C.fn.stem(complex(0.0, 1.0))  # s^2 + 1 vanishes at z = i
        with pytest.raises(DomainError):
            C(I)  # the pole sphere also sits outside the open half-plane


class TestShifts:
    def test_zero_shift_is_identity(self):
        F = laplace_left(constant_function(ONE))
        assert shift_real(F, 0.0) is F

    def test_shift_of_one_over_s(self):
        F = shift_real(laplace_left(constant_function(ONE)), 3.0)
        assert_qclose(F(Quaternion.real(1.0)), Quaternion.real(0.25), 1e-9)

    def test_shift_against_quadrature(self, rng):
        damped = TimeDomainFunction(
            lambda t: quat_exp(Quaternion(-3, 1, 0, 0) * t),
            exponential_function(Quaternion(-3, 1, 0, 0)).growth)
        lhs = laplace_left(damped)
        rhs = shift_real(exp_transform_closed_form(I, Side.LEFT), 3.0)
        for s in transform_probes(rng, 5, re_lo=0.3):
            assert (lhs(s) - rhs(s)).norm() <= 1e-6

    def test_shift_extends_domain(self):
        F = laplace_left(exponential_function(Quaternion.real(1.0)))
        G = shift_real(F, 3.0)
        assert G.domain.bounds[0] == pytest.approx(-2.0)
        assert_qclose(G(Quaternion.real(0.0)),
                      (Quaternion.real(3.0) - ONE).inverse(), 1e-8)

    @pytest.mark.parametrize("domain", [disk(2.0), annulus(1.0, 3.0)])
    def test_shift_needs_a_half_plane(self, domain):
        with pytest.raises(UsageError, match="half-plane"):
            stem_shift(exp_stem(domain), 0.5)

    def test_heaviside_exp_times_one_over_s(self):
        F = heaviside_shift(laplace_left(constant_function(ONE)), 1.0)
        assert_qclose(F(Quaternion.real(1.0)), Quaternion.real(math.exp(-1.0)), 1e-9)

    def test_heaviside_small_shift_limit(self):
        base = laplace_left(constant_function(ONE))
        s = Quaternion.real(2.0)
        drift = (heaviside_shift(base, 1e-9)(s) - base(s)).norm()
        assert drift <= 1e-8

    def test_heaviside_against_quadrature_with_breakpoint(self, rng):
        shifted = heaviside_shifted(exponential_function(J), 1.0)
        lhs = heaviside_shift(laplace_left(exponential_function(J)), 1.0)
        rhs = laplace_left(shifted)
        for s in transform_probes(rng, 5):
            assert (lhs(s) - rhs(s)).norm() <= 1e-5

    def test_heaviside_needs_positive_shift(self):
        with pytest.raises(UsageError):
            heaviside_shift(laplace_left(constant_function(ONE)), -1.0)

    @pytest.mark.parametrize("rule, shift", [
        (heaviside_shift, math.nan),
        (heaviside_shift, math.inf),
        (shift_real, math.nan),
        (shift_real, math.inf),
        (shift_real, -math.inf),
    ])
    def test_non_finite_shift_raises(self, rule, shift):
        # a NaN shift used to give a NaN value and error, an infinite one 0 with error 0
        with pytest.raises(UsageError, match="shift must be"):
            rule(laplace_left(exponential_function(J)), shift)


class TestDerivativeRules:
    def test_derivative_of_constant_is_zero(self, rng):
        F = transform_of_derivative(laplace_left(constant_function(ONE)), ONE)
        for s in transform_probes(rng, 5):
            assert F(s).norm() <= 1e-8

    def test_exp_b_derivative_rule(self, rng):
        for b in (J, I):
            f = exponential_function(b)
            lhs = transform_of_derivative(laplace_left(f), ONE)
            rhs = laplace_left(f.scaled_left(b))  # f'(t) = b e^{bt}
            for s in transform_probes(rng, 5):
                assert (lhs(s) - rhs(s)).norm() <= 1e-6

    def test_requires_left_transform(self):
        R = laplace_right(constant_function(ONE))
        with pytest.raises(UsageError):
            transform_of_derivative(R, ONE)

    def test_nth_empty_is_identity(self):
        F = laplace_left(constant_function(ONE))
        assert transform_of_nth_derivative(F, []) is F

    def test_nth_one_matches_first(self, rng):
        F = laplace_left(exponential_function(J))
        A = transform_of_nth_derivative(F, [ONE])
        B = transform_of_derivative(F, ONE)
        for s in transform_probes(rng, 4):
            assert (A(s) - B(s)).norm() <= 1e-12

    def test_t_squared_second_derivative(self):
        # f = t^2: L{f''} = s^2 (2/s^3) - s*0 - 0 = 2/s
        f = polynomial_function([Quaternion(), Quaternion(), ONE])
        F = laplace_left(f)
        D2 = transform_of_nth_derivative(F, [Quaternion(), Quaternion()])
        for s in (1.5, 2.0, 3.0):
            assert_qclose(D2(Quaternion.real(s)), Quaternion.real(2.0 / s), 1e-7)

    def test_nth_two_on_exp_it(self, rng):
        # f = e^{it}: f'' = -e^{it}, initial values f(0+) = 1, f'(0+) = i
        f = exponential_function(I)
        F = laplace_left(f)
        lhs = transform_of_nth_derivative(F, [ONE, I])
        rhs = laplace_left(f.scaled_left(-ONE))
        for s in transform_probes(rng, 5):
            assert (lhs(s) - rhs(s)).norm() <= 1e-6


class TestDerivativeOfTransform:
    def test_n_zero_identity(self):
        F = laplace_left(constant_function(ONE))
        assert derivative_of_transform(F, 0) is F

    def test_matches_transform_of_t(self, rng):
        # -d/ds (1/s) = 1/s^2 = L{t}
        F = derivative_of_transform(laplace_left(constant_function(ONE)), 1)
        G = laplace_left(polynomial_function([Quaternion(), ONE]))
        for s in transform_probes(rng, 5):
            assert (F(s) - G(s)).norm() <= 1e-7

    def test_exp_jt_against_analytic_derivative(self, rng):
        F = derivative_of_transform(laplace_left(exponential_function(J)), 1)
        C = derivative_of_transform(exp_transform_closed_form(J, Side.LEFT), 1)
        s = Quaternion.real(2.0)
        assert (F(s) - C(s)).norm() <= 1e-5
        for s in transform_probes(rng, 4):
            assert (F(s) - C(s)).norm() <= 1e-5

    def test_negative_order_rejected(self):
        with pytest.raises(UsageError):
            derivative_of_transform(laplace_left(constant_function(ONE)), -1)


class TestIntegralRule:
    def test_constant_gives_inverse_square(self):
        F = transform_of_integral(laplace_left(constant_function(ONE)))
        for s in (1.0, 2.0):
            assert_qclose(F(Quaternion.real(s)), Quaternion.real(1.0 / s**2), 1e-8)

    def test_exp_it_against_hand_antiderivative(self, rng):
        # integral of e^{i tau} over [0, t] is -i (e^{it} - 1)
        f = exponential_function(I)
        running = TimeDomainFunction(
            lambda t: (quat_exp(I * t) - ONE) * (-1) * I,
            constant_function(2 * ONE).growth)
        lhs = transform_of_integral(laplace_left(f))
        rhs = laplace_left(running)
        for s in transform_probes(rng, 5):
            assert (lhs(s) - rhs(s)).norm() <= 1e-6

    def test_real_sanity(self):
        F = laplace_left(exponential_function(I))
        G = transform_of_integral(F)
        s = Quaternion.real(2.0)
        assert_qclose(G(s), F(s) / 2.0, 1e-9)

    def test_domain_clipped_to_positive(self):
        F = laplace_left(exponential_function(Quaternion(-2, 1, 0, 0)))
        assert F.domain.bounds[0] == 0.0
        G = transform_of_integral(F)
        assert G.domain.bounds[0] == 0.0
        # a shifted transform reaches left of 0, and its integral rule stops there
        shifted = shift_real(F, 1.0)
        assert shifted.domain == half_plane(-1.0)
        H = transform_of_integral(shifted)
        assert H.domain == half_plane(0.0)
        with pytest.raises(DomainError):
            H(Quaternion(-0.5, 0.3, 0, 0))
        # on the slice of i everything commutes: H(s) = 1/(s (s + 1 - b))
        b = complex(-2.0, 1.0)
        H_of = lambda s: 1.0 / (s * (s + 1.0 - b))
        rules = [
            (derivative_of_transform(H, 1), half_plane(0.0),
             lambda s: (2.0 * s + 1.0 - b) * H_of(s) ** 2),
            (heaviside_shift(H, 0.5), half_plane(0.0), lambda s: cmath.exp(-0.5 * s) * H_of(s)),
            (shift_real(H, 1.0), half_plane(-1.0), lambda s: H_of(s + 1.0)),
        ]
        for rule, domain, closed in rules:
            assert rule.domain == domain
            for s in (complex(0.7, 0.4), complex(1.5, 2.0), complex(-0.5, 0.3)):
                if domain.contains(s.real, s.imag):
                    assert_qclose(rule(Quaternion(s.real, s.imag, 0, 0)),
                                  embed_complex(closed(s), I), 1e-8)
                else:
                    with pytest.raises(DomainError):
                        rule(Quaternion(s.real, s.imag, 0, 0))


def conv_exp_i_exp_j_closed(t: float) -> Quaternion:
    """Hand antiderivative of (e^{it} o e^{jt}), derived symbolically."""
    bracket = (Quaternion.real(t / 2) - K * (t / 2)
               + (ONE + K) * (math.sin(2 * t) / 4)
               + (J - I) * ((1 - math.cos(2 * t)) / 4))
    return quat_exp(I * t) * bracket


class TestConvolution:
    def test_ones(self):
        one = constant_function(ONE)
        assert_qclose(convolve(one, one, 2.0), 2 * ONE, 1e-10)

    def test_constant_noncommutativity_witness(self):
        fi, fj = constant_function(I), constant_function(J)
        assert_qclose(convolve(fi, fj, 1.0), K, 1e-12)
        assert_qclose(convolve(fj, fi, 1.0), -K, 1e-12)

    def test_exp_pair_against_hand_formula(self):
        fi, fj = exponential_function(I), exponential_function(J)
        for t in (0.3, 1.0, 2.7):
            assert_qclose(convolve(fi, fj, t), conv_exp_i_exp_j_closed(t), 1e-10)

    def test_convolution_time_function_growth(self, rng):
        fi, fj = exponential_function(I), exponential_function(J)
        c = convolution(fi, fj)
        g = c.growth
        for _ in range(20):
            t = float(rng.uniform(0, 15))
            assert c(t).norm() <= g.K * math.exp(g.a * t) * (1 + 1e-9)

    def test_breakpoint_images(self):
        f = heaviside_shifted(constant_function(ONE), 1.0)
        g = constant_function(ONE)
        # (f o g)(t) = max(t - 1, 0)
        assert_qclose(convolve(f, g, 0.5), Quaternion(), 1e-12)
        assert_qclose(convolve(f, g, 3.0), 2 * ONE, 1e-10)

    def test_laplace_of_ones_is_one_over_s2(self):
        one = constant_function(ONE)
        T = laplace_of_convolution(one, one)
        assert_qclose(T(Quaternion.real(2.0)), Quaternion.real(0.25), 1e-8)

    def test_real_s_pointwise_product(self):
        fi, fj = exponential_function(I), exponential_function(J)
        T = laplace_of_convolution(fi, fj)
        F, G = laplace_left(fi), laplace_left(fj)
        for x in (1.5, 2.0, 3.0):
            s = Quaternion.real(x)
            assert (T(s) - F(s) * G(s)).norm() <= 1e-6

    def test_crosscheck_at_non_real_s(self, rng):
        fi, fj = exponential_function(I), exponential_function(J)
        T = laplace_of_convolution(fi, fj)
        probes = transform_probes(rng, 4, re_lo=1.0, im_max=2.0)
        probes.append(Quaternion(1, 0, 0, 2))  # s = 1 + 2k
        assert T.crosscheck(probes) <= 1e-5

    def test_negative_time_rejected(self):
        one = constant_function(ONE)
        with pytest.raises(UsageError):
            convolve(one, one, -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        one = constant_function(ONE)
        with pytest.raises(UsageError):
            convolve(one, one, t)

    def test_direct_route_built_on_first_use(self):
        # a certificate that holds only past T = 5 is no use to a convolution,
        # but the star product route needs no certificate
        f = TimeDomainFunction(lambda t: ONE * math.exp(-t), GrowthBound(0.0, 1.0, 5.0))
        T = laplace_of_convolution(f, constant_function(ONE))
        assert_qclose(T(Quaternion.real(2.0)), Quaternion.real(1.0 / 6.0), 1e-8)
        with pytest.raises(UsageError):
            T.direct

    def test_certificate_needs_factor_bounds_for_all_t(self):
        # f = 1000 on [0, 1) and 1 after, certified only past T = 1: the
        # product of the factors' K would give 4.49 at t = 2, not 1001
        f = TimeDomainFunction(lambda t: ONE * (1000.0 if t < 1.0 else 1.0),
                               GrowthBound(0.0, 1.0, 1.0), [1.0])
        one = constant_function(ONE)
        with pytest.raises(UsageError):
            convolution(f, one)
        # a shifted factor is 0 before its shift, so its bound holds for all t > 0
        shifted = heaviside_shifted(one, 1.0)
        c = convolution(shifted, one)
        assert shifted.growth.T == 0.0 and c.growth.T == 0.0
        for t in (0.5, 2.0, 8.0):
            assert c(t).norm() <= c.growth.K * math.exp(c.growth.a * t)


class TestDuality:
    def test_real_input_tiny_residual(self, rng):
        f = TimeDomainFunction(lambda t: ONE * math.exp(-t),
                               exponential_function(-ONE).growth)
        probes = transform_probes(rng, 6)
        report = reflection_duality_check(f, probes)
        assert report.max_residual <= 2 * DEFAULT_ABS_TOL + 1e-12

    def test_exp_jt(self, rng):
        probes = transform_probes(rng, 10)
        report = reflection_duality_check(exponential_function(J), probes)
        assert report.max_residual <= 1e-5

    def test_constant_k(self, rng):
        probes = transform_probes(rng, 5)
        report = reflection_duality_check(constant_function(K), probes)
        assert report.max_residual <= 1e-8


class TestUniformConvergenceProxy:
    def test_halving_tolerance_moves_little(self, rng):
        f = exponential_function(J)
        loose = 1e-6
        tight = 5e-7
        Fl, Ft = laplace_left(f, loose), laplace_left(f, tight)
        for s in transform_probes(rng, 6, re_lo=1.0):
            assert (Fl(s) - Ft(s)).norm() <= loose


class TestSliceRestriction:
    def test_real_input_matches_scipy_on_slices(self):
        f = TimeDomainFunction(lambda t: ONE * (t * math.exp(-t)),
                               polynomial_function([Quaternion(), ONE]).growth)
        F = laplace_left(f)
        for x in (0.6, 1.1, 1.6, 2.1, 2.6):
            for y in (0.5, 1.5, 2.5):
                for unit in (I, J, K):
                    ref = scipy_complex_laplace(lambda t: t * math.exp(-t), complex(x, y))
                    mine = F(slice_embed(x, y, unit))
                    assert (mine - embed_complex(ref, unit)).norm() <= 1e-6

    def test_closed_form_crosscheck(self):
        # L{t e^{-t}} = 1/(s+1)^2 on each slice
        f = TimeDomainFunction(lambda t: ONE * (t * math.exp(-t)),
                               polynomial_function([Quaternion(), ONE]).growth)
        F = laplace_left(f)
        z = complex(1.2, 0.8)
        w = 1.0 / ((z + 1) * (z + 1))
        assert (F(slice_embed(z.real, z.imag, J)) - embed_complex(w, J)).norm() <= 1e-8


def _rules(F, G, f0):
    """The operational rules applied to F, with G as the convolution partner
    and f0 as f(0+)."""
    return {
        "star_partner": F.fn.star(G.fn),
        "derivative_2": derivative_of_transform(F, 2),
        "heaviside_shift": heaviside_shift(F, 0.5),
        "shift_real": shift_real(F, 0.5),
        "derivative_rule": transform_of_derivative(F, f0),
        "integral": transform_of_integral(F),
        "derivative_of_shift": derivative_of_transform(heaviside_shift(F, 0.5), 1),
        "derivative_of_integral": derivative_of_transform(transform_of_integral(F), 1),
        "reflect": F.fn.reflect(),
    }


#: probes relative to the edge Re s = Re b of the half-plane of e^{bt}
ERROR_PROBES = (Quaternion(1, 2, 0, 0), slice_embed(0.7, 1.3, J),
                Quaternion(2.5, 0.3, -0.4, 0.5), Quaternion.real(1.5),
                Quaternion.real(0.1))


class TestErrorPropagation:
    @pytest.mark.parametrize("b", [J, Quaternion(0.3, 0.5, -0.7, 0.2)], ids=["J", "mixed"])
    def test_bound_covers_distance_to_closed_form(self, b):
        f = exponential_function(b)
        F = laplace_left(f)
        C = exp_transform_closed_form(b, Side.LEFT)
        # the convolution f o f is a transform like any other, with (f o f)(0+) = 0
        conv, closed_conv = laplace_of_convolution(f, f), TransformResult(C.fn.star(C.fn))
        pairs = {"left": (F, C),
                 "right": (laplace_right(f), exp_transform_closed_form(b, Side.RIGHT)),
                 "convolution": (conv, closed_conv)}
        for prefix, approx, closed, f0 in (("", F, C, ONE),
                                           ("convolution ", conv, closed_conv, Quaternion())):
            approx_rules, closed_rules = _rules(approx, C, f0), _rules(closed, C, f0)
            pairs.update({prefix + name: (approx_rules[name], closed_rules[name])
                          for name in approx_rules})
        for name, (approx, closed) in pairs.items():
            for s in (p + Quaternion.real(b.w) for p in ERROR_PROBES):
                value, bound = approx.evaluate_with_error(s)
                assert value == approx.evaluate(s), name
                exact = closed.evaluate(s)
                assert (value - exact).norm() <= bound, name
                assert closed.evaluate_with_error(s) == (exact, 0.0), name


#: one function per JSON kind, scale on both sides
BUDGET_FUNCTIONS = {
    "exp": exponential_function(Quaternion(0.3, 0.5, -0.7, 0.2)),
    "poly": polynomial_function([ONE, J, 0.5 * K]),
    "heaviside": heaviside_shifted(exponential_function(J), 1.0),
    "sum": exponential_function(I) + polynomial_function([K, ONE]),
    "scale_left": exponential_function(J).scaled_left(ONE + K),
    "scale_right": exponential_function(J).scaled_right(ONE + K),
}


class TestErrorBudget:
    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    @pytest.mark.parametrize("name", BUDGET_FUNCTIONS)
    def test_est_error_within_abs_tol(self, name, tol):
        f = BUDGET_FUNCTIONS[name]
        a = f.growth.a
        probes = [Quaternion.real(a + d) for d in (0.2, 1.0)]
        probes += [slice_embed(a + d, y, unit) for d in (0.2, 1.0) for y in (0.5, 2.0)
                   for unit in (I, J)]
        for build in (laplace_left, laplace_right):
            F = build(f, tol)
            for s in probes:
                assert F.evaluate_with_error(s)[1] <= tol, (build.__name__, s)

    def test_missed_truncation_point_raises_with_the_tail_bound(self, monkeypatch):
        calls = []
        integrate = quadrature.integrate_adaptive

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_adaptive", counted)
        F = laplace_left(constant_function(ONE))
        with pytest.raises(AccuracyError) as info:
            F.evaluate(Quaternion.real(1e-40))
        # the tail of integral(e^{-ts} dt) past any reachable T is about 1/s
        assert info.value.achieved >= 1e39
        assert calls == []


class TestOneQuadraturePerPoint:
    def test_derivatives_and_star_products_share_the_memo(self, monkeypatch):
        calls = []
        integrate = quadrature.integrate_adaptive

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_adaptive", counted)
        f = exponential_function(J)
        F = laplace_left(f)
        s = Quaternion(1, 2, 0, 0)
        per_result = []
        # every transform of f reads one memo per abs_tol, whatever its side
        for result in (F, F, derivative_of_transform(F, 1), derivative_of_transform(F, 2),
                       F.fn.star(F.fn), laplace_right(f), laplace_left(f),
                       laplace_of_convolution(f, f), laplace_left(f, abs_tol=1e-8)):
            before = len(calls)
            result.evaluate(s)
            per_result.append(len(calls) - before)
        assert per_result == [1, 0, 1, 1, 0, 0, 0, 0, 1]


class TestGeometricPanels:
    def test_first_call_covers_every_octave_below_the_truncation_point(self, monkeypatch):
        first = []
        integrate = quadrature.integrate_adaptive

        def recorded(fn, a, b, **kwargs):
            def integrand(t):
                if not first:
                    first.append((b, t.copy()))
                return fn(t)
            return integrate(integrand, a, b, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_adaptive", recorded)
        # Re s - a = 0.1
        laplace_left(exponential_function(J)).evaluate(Quaternion(0.1, 2, 0, 0))
        T, nodes = first[0]
        edges = [0.0, 1.0]
        while 2.0 * edges[-1] < T:
            edges.append(2.0 * edges[-1])
        edges.append(T)
        assert len(edges) > 8
        lo, hi = np.array(edges[:-1]), np.array(edges[1:])
        expected = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * quadrature._XGK
        np.testing.assert_allclose(nodes.reshape(-1, 21), expected, rtol=1e-15, atol=0)


class TestLifetime:
    def test_dropped_transforms_need_no_cycle_collection(self):
        f = exponential_function(J)
        s = Quaternion(1, 2, 0, 0)
        gc.collect()
        gc.disable()  # only reference counting may free what the test drops
        try:
            F = laplace_left(f)
            results = [F, laplace_right(f), laplace_of_convolution(f, f),
                       derivative_of_transform(F, 2), heaviside_shift(F, 0.5),
                       shift_real(F, 0.5), transform_of_integral(F), F.fn.reflect(),
                       exp_function()]
            for result in results:
                result.evaluate(s)
            del F, results, result
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dropped_function_frees_its_memo_without_cycle_collection(self):
        gc.collect()
        gc.disable()
        try:
            f = exponential_function(J)
            F = laplace_left(f)
            for result in (F, laplace_right(f), derivative_of_transform(F, 1)):
                result.evaluate(Quaternion(1, 2, 0, 0))
            assert f.memos
            del f, F, result
            assert gc.collect() == 0
        finally:
            gc.enable()
