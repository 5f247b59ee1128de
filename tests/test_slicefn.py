import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceregular.errors import CapabilityError, DomainError, PoleError, StemSymmetryError, UsageError
from sliceregular.quaternion import (
    I,
    J,
    K,
    ONE,
    UNITS,
    Quaternion,
    SliceCoordinates,
    quat_exp,
    random_quaternion,
    random_unit_imaginary,
    slice_decompose,
    slice_embed,
)
from sliceregular.laplace import ConvolutionTransform, DualityReport, exp_transform_closed_form
from sliceregular.regions import annulus, disk, half_plane
from sliceregular.series import RegularSeries, Side
from sliceregular.slicefn import (
    SliceRegularFunction,
    assemble,
    cauchy_kernel,
    cauchy_kernel_right,
    exp_function,
    extend_intrinsic,
    from_series,
)
from sliceregular.stems import (
    ENTIRE,
    IntrinsicStem,
    constant_stem,
    exp_stem,
    identity_stem,
    polynomial_stem,
    rational_stem,
    stem_product,
    stem_scale,
    stem_stack,
    stem_star,
    stem_sum,
)
from sliceregular.verify import (
    complex_cr_residual,
    is_slice_preserving,
    slice_splitting,
    verify_regular,
)

from conftest import assert_qclose


def _accepts(stem) -> bool:
    try:
        extend_intrinsic(stem)
    except StemSymmetryError:
        return False
    return True


def _nan_right_of_one(q):
    """q left of Re q = 1 and NaN right of it, so probes in that order put a NaN second."""
    return q if q.w < 1.0 else Quaternion(*[math.nan] * 4)


def left_series(coeffs):
    return RegularSeries(coeffs, Side.LEFT)


def fixed_stem(value, error):
    """A stem that returns (value, error) wherever it is evaluated."""
    return IntrinsicStem._with_error(lambda z: (value, error), ENTIRE, None, "fixed")


def reference_star(a, b):
    """The star product of four scalar stems by four, one stem per component:
    16 stem products, negated where e_m e_n = -e_p, summed over ascending m."""
    buckets = [[], [], [], []]
    for m in range(4):
        for n in range(4):
            prod = UNITS[m] * UNITS[n]
            p = next(p for p, base in enumerate(UNITS) if abs(prod.dot(base)) > 0.5)
            term = stem_product(a[m], b[n])
            buckets[p].append(term if prod.dot(UNITS[p]) > 0 else stem_scale(-1.0, term))
    out = []
    for parts in buckets:
        acc = parts[0]
        for extra in parts[1:]:
            acc = stem_sum(acc, extra)
        out.append(acc)
    return out


signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_nan=False))
component_values = st.lists(st.builds(complex, signed, signed), min_size=4, max_size=4)
component_errors = st.lists(st.floats(0.0, 1e-3), min_size=4, max_size=4)
quaternions = st.builds(Quaternion, signed, signed, signed, signed)


def four_rational_stems(nums, den, domain):
    return stem_stack([rational_stem(num, den, domain) for num in nums])


def outcome(fn, q):
    """fn(q), or the type of the DomainError it raises there."""
    try:
        return fn(q)
    except DomainError as exc:
        return type(exc)


class TestExtend:
    def test_exp_at_one_plus_j_pi(self):
        F = extend_intrinsic(exp_stem())
        # e^{1 + j pi} = e (cos pi + j sin pi) = -e
        assert_qclose(F(Quaternion(1, 0, math.pi, 0)), -math.e * ONE, 1e-13)

    def test_identity_stem(self):
        F = extend_intrinsic(identity_stem())
        q = Quaternion(0.5, -1, 2, 0.25)
        assert_qclose(F(q), q, 1e-15)

    def test_constant(self):
        F = extend_intrinsic(constant_stem(5.0))
        assert F(Quaternion(1, 2, 3, 4)) == 5 * ONE

    def test_rejects_asymmetric_stem(self):
        crooked = IntrinsicStem(lambda z: z + 1j, disk(2.0))
        with pytest.raises(StemSymmetryError):
            extend_intrinsic(crooked)

    def test_extension_is_reflection_fixed(self, rng):
        F = extend_intrinsic(exp_stem())
        RF = F.reflect()
        for _ in range(20):
            q = random_quaternion(rng)
            assert_qclose(RF(q), F(q), 1e-13)
            assert_qclose(F(q.conjugate()), F(q).conjugate(), 1e-13)

    def test_agrees_with_quat_exp(self, rng):
        F = extend_intrinsic(exp_stem())
        for _ in range(50):
            q = random_quaternion(rng, 2.0)
            assert_qclose(F(q), quat_exp(q), 1e-12)


class TestAssembleAndEvaluate:
    def test_identity_assembly(self):
        F = assemble([identity_stem(), constant_stem(0), constant_stem(0), constant_stem(0)],
                     Side.LEFT)
        q = Quaternion(1, 2, 3, 4)
        assert_qclose(F(q), q, 1e-15)

    def test_constant_i_assembly(self):
        F = assemble([constant_stem(0), constant_stem(1), constant_stem(0), constant_stem(0)],
                     Side.LEFT)
        assert F(Quaternion(3, 0, 1, 0)) == I

    def test_z_plus_i_at_j(self):
        F = assemble([identity_stem(), constant_stem(1), constant_stem(0), constant_stem(0)],
                     Side.LEFT)
        assert_qclose(F(J), J + I, 1e-15)

    def test_real_point_both_sides_coincide(self):
        stems = [polynomial_stem([0.5, 1.0]), constant_stem(2.0),
                 constant_stem(-1.0), constant_stem(0.25)]
        L = assemble(stems, Side.LEFT)
        R = assemble(stems, Side.RIGHT)
        assert_qclose(L(2.0), R(2.0), 1e-15)
        assert_qclose(L(2.0), Quaternion(2.5, 2.0, -1.0, 0.25), 1e-15)

    def test_real_point_unit_independent(self):
        F = from_series(left_series([ONE + J, 2 * K, I]))
        with_i = F.evaluate(Quaternion.real(0.7), real_axis_unit=I)
        with_j = F.evaluate(Quaternion.real(0.7), real_axis_unit=J)
        assert_qclose(with_i, with_j, 1e-14)

    def test_domain_error(self):
        F = assemble([identity_stem(disk(1.0)), constant_stem(0, disk(1.0)),
                      constant_stem(0, disk(1.0)), constant_stem(0, disk(1.0))], Side.LEFT)
        with pytest.raises(DomainError):
            F(Quaternion(2, 0, 0, 0))

    def test_domain_mismatch_raises(self):
        with pytest.raises(UsageError):
            assemble([identity_stem(half_plane(1.0)), constant_stem(0, disk(0.5)),
                      constant_stem(0, disk(0.5)), constant_stem(0, disk(0.5))], Side.LEFT)


class TestStarProduct:
    def test_constants_multiply(self):
        Fi = from_series(left_series([I]))
        Fj = from_series(left_series([J]))
        assert_qclose(Fi.star(Fj)(Quaternion(1, 1, 1, 1)), K, 1e-15)

    def test_intrinsic_factor_is_pointwise(self, rng):
        h = from_series(left_series([0.5, 0.0, 1.5]))  # intrinsic
        f = from_series(left_series([random_quaternion(rng) for _ in range(5)]))
        prod = h.star(f)
        for _ in range(25):
            q = random_quaternion(rng, 0.8)
            assert_qclose(prod(q), h(q) * f(q), 1e-12)

    def test_sphere_product_vanishes_at_j(self):
        F = from_series(left_series([-I, ONE]))
        G = from_series(left_series([I, ONE]))
        assert_qclose(F.star(G)(J), Quaternion(), 1e-15)

    def test_matches_series_star(self, rng):
        for _ in range(50):
            f = left_series([random_quaternion(rng) for _ in range(rng.integers(1, 10))])
            g = left_series([random_quaternion(rng) for _ in range(rng.integers(1, 10))])
            tensor = from_series(f).star(from_series(g))
            series = f.star(g)
            for _ in range(50):
                q = random_quaternion(rng, 0.5)
                assert (tensor(q) - series(q)).norm() <= 1e-10

    def test_matches_series_star_right_side(self, rng):
        for _ in range(20):
            f = RegularSeries([random_quaternion(rng) for _ in range(6)], Side.RIGHT)
            g = RegularSeries([random_quaternion(rng) for _ in range(6)], Side.RIGHT)
            tensor = from_series(f).star(from_series(g))
            series = f.star(g)
            for _ in range(20):
                q = random_quaternion(rng, 0.6)
                assert (tensor(q) - series(q)).norm() <= 1e-10

    def test_side_mismatch(self):
        with pytest.raises(UsageError):
            from_series(left_series([ONE])).star(
                from_series(RegularSeries([ONE], Side.RIGHT)))

    @given(component_values, component_errors, component_values, component_errors)
    @settings(max_examples=200, deadline=None)
    def test_stem_star_matches_scalar_contraction_bit_for_bit(self, va, ea, vb, eb):
        star = stem_star(fixed_stem(np.array(va), np.array(ea)),
                         fixed_stem(np.array(vb), np.array(eb)))
        reference = reference_star([fixed_stem(v, e) for v, e in zip(va, ea)],
                                   [fixed_stem(v, e) for v, e in zip(vb, eb)])
        z = complex(0.5, 0.25)
        values, errors = star.eval_with_error(z)
        want = [stem.eval_with_error(z) for stem in reference]
        assert values.tobytes() == np.array([v for v, _ in want]).tobytes()
        assert errors.tobytes() == np.array([e for _, e in want]).tobytes()

    def test_star_evaluates_each_component_stem_once(self):
        calls = Counter()

        def counting(key, value):
            def ev(z):
                calls[key] += 1
                return value
            return IntrinsicStem(ev)

        F = assemble([counting(("F", m), complex(m + 1, 0.5)) for m in range(4)], Side.LEFT)
        G = assemble([counting(("G", m), complex(0.25, m - 1)) for m in range(4)], Side.LEFT)
        F.star(G).evaluate(Quaternion(0.3, 0.2, -0.4, 0.1))
        assert calls == {(name, m): 1 for name in "FG" for m in range(4)}


class TestReflectionAndConjugate:
    def test_reflect_constant(self):
        F = from_series(left_series([I]))
        R = F.reflect()
        assert R.side is Side.RIGHT
        assert_qclose(R(Quaternion(1, 2, 3, 4)), -I, 1e-15)

    def test_reflect_involution(self, rng):
        F = from_series(left_series([random_quaternion(rng) for _ in range(5)]))
        RR = F.reflect().reflect()
        assert RR.side is Side.LEFT
        for _ in range(20):
            q = random_quaternion(rng)
            assert_qclose(RR(q), F(q), 1e-13)

    def test_reflect_pointwise_law(self, rng):
        F = from_series(left_series([random_quaternion(rng) for _ in range(6)]))
        R = F.reflect()
        for _ in range(30):
            q = random_quaternion(rng)
            assert_qclose(R(q), F(q.conjugate()).conjugate(), 1e-12)

    def test_reflect_antihomomorphism_pointwise(self, rng):
        for _ in range(20):
            F = from_series(left_series([random_quaternion(rng) for _ in range(6)]))
            G = from_series(left_series([random_quaternion(rng) for _ in range(6)]))
            lhs = F.star(G).reflect()
            rhs = G.reflect().star(F.reflect())
            for _ in range(10):
                q = random_quaternion(rng, 0.7)
                assert (lhs(q) - rhs(q)).norm() <= 1e-10

    def test_regular_conjugate_examples(self, rng):
        intrinsic = from_series(left_series([0.5, 1.5]))
        for _ in range(10):
            q = random_quaternion(rng)
            assert_qclose(intrinsic.regular_conjugate()(q), intrinsic(q), 1e-14)

        F = assemble([identity_stem(), constant_stem(1), constant_stem(0),
                      constant_stem(0)], Side.LEFT)
        Fc = F.regular_conjugate()
        q = Quaternion(0.3, 0.1, -0.4, 0.2)
        G = assemble([identity_stem(), constant_stem(-1), constant_stem(0),
                      constant_stem(0)], Side.LEFT)
        assert_qclose(Fc(q), G(q), 1e-15)

    def test_regular_conjugate_matches_series(self, rng):
        for _ in range(20):
            f = left_series([random_quaternion(rng) for _ in range(6)])
            tensor = from_series(f).regular_conjugate()
            series = from_series(f.regular_conjugate())
            q = random_quaternion(rng, 0.8)
            assert_qclose(tensor(q), series(q), 1e-12)

    def test_real_axis_conjugation_law(self, rng):
        f = from_series(left_series([random_quaternion(rng) for _ in range(6)]))
        fc = f.regular_conjugate()
        for x in (-0.5, 0.1, 0.8):
            assert_qclose(fc(x), f(x).conjugate(), 1e-13)


class TestSliceDerivative:
    def test_exp_fixed_point(self, rng):
        F = exp_function()
        D = F.slice_derivative()
        for _ in range(20):
            q = random_quaternion(rng, 1.5)
            assert_qclose(D(q), F(q), 1e-12)

    def test_power_rule(self, rng):
        F = from_series(left_series([0, 0, 1]))  # q^2
        D = F.slice_derivative()
        for _ in range(20):
            q = random_quaternion(rng)
            assert_qclose(D(q), 2 * q, 1e-12)

    def test_finite_difference_crosscheck(self, rng):
        f = left_series([random_quaternion(rng) for _ in range(6)])
        F = from_series(f)
        D_analytic = F.slice_derivative()
        D_numeric = F.slice_derivative(numeric_step=1e-5)
        for _ in range(20):
            q = random_quaternion(rng, 0.8)
            assert (D_analytic(q) - D_numeric(q)).norm() <= 1e-6

    def test_matches_series_derivative(self, rng):
        f = left_series([random_quaternion(rng) for _ in range(6)])
        D_tensor = from_series(f).slice_derivative()
        D_series = from_series(f.slice_derivative())
        for _ in range(20):
            q = random_quaternion(rng)
            assert_qclose(D_tensor(q), D_series(q), 1e-11 * max(1.0, q.norm()) ** 5)

    def test_capability_error(self):
        bare = IntrinsicStem(lambda z: z * z, disk(2.0))
        F = assemble([bare] * 4, Side.LEFT)
        with pytest.raises(CapabilityError):
            F.slice_derivative()


class TestCauchyKernel:
    def test_real_s_real_q(self):
        # phi(q, s) = 1/(s - q) when everything is real
        F = cauchy_kernel(Quaternion.real(1.0))
        assert_qclose(F(Quaternion.real(3.0)), Quaternion.real(1.0 / (1.0 - 3.0)), 1e-14)

    def test_worked_example_point(self):
        F = cauchy_kernel(I)
        assert_qclose(F(Quaternion.real(2.0)), Quaternion(-0.4, -0.2, 0, 0), 1e-15)

    def test_left_regular_in_q(self, rng):
        s = Quaternion(1, 0, 2, 0)
        F = cauchy_kernel(s)
        probes = annulus(s.norm() * 1.2, s.norm() * 3).random_slice_points(rng, 25, 0.05)
        report = verify_regular(F, Side.LEFT, probes, step=1e-5)
        assert report.max_residual <= 1e-6

    def test_right_companion_regular_in_s(self, rng):
        q = Quaternion(1, 0, 2, 0)
        G = cauchy_kernel_right(q)
        probes = annulus(q.norm() * 1.2, q.norm() * 3).random_slice_points(rng, 25, 0.05)
        report = verify_regular(G, Side.RIGHT, probes, step=1e-5)
        assert report.max_residual <= 1e-6

    def test_two_kernels_agree(self, rng):
        # both compute phi(q, s), one as a function of q, one of s
        for _ in range(20):
            s = random_quaternion(rng, 2.0)
            q = random_quaternion(rng, 0.3)
            if q.norm() >= 0.9 * s.norm():
                continue
            lhs = cauchy_kernel(s, domain=disk(s.norm()))(q)
            rhs = cauchy_kernel_right(q)(s)
            assert_qclose(lhs, rhs, 1e-10)

    def test_pole_error(self):
        F = cauchy_kernel(I, domain=annulus(0.0, math.inf))
        with pytest.raises(PoleError):
            F(J)  # on the pole sphere of s = i

    @given(quaternions, quaternions)
    @settings(max_examples=200, deadline=None)
    def test_slice_inverse_builders_match_four_rational_stems(self, b, q):
        # each builder against its four rational stems, written out here
        def bits(value):
            return value if isinstance(value, type) else np.array(value.components()).tobytes()

        den = [b.norm_sq(), -2.0 * b.w, 1.0]
        exp_nums = ([-b.w, 1.0], [b.x], [b.y], [b.z])
        exp_stem_ = four_rational_stems(exp_nums, den, half_plane(b.w))
        kernel_stem = four_rational_stems(([b.w, -1.0], [-b.x], [-b.y], [-b.z]), den,
                                          annulus(b.norm(), math.inf))
        # off the pole sphere, |far - b| |far - conj b| >= 4 |b|^2
        far = Quaternion(q.w + math.copysign(3.0 * b.norm(), q.w), q.x, q.y, q.z)
        for side in Side:
            got = exp_transform_closed_form(b, side).fn
            want = SliceRegularFunction(side, exp_stem_)
            assert got.side is side and got.domain == want.domain
            for p in (q, far):
                assert bits(outcome(got, p)) == bits(outcome(want, p))
        got, want = cauchy_kernel(b), SliceRegularFunction(Side.LEFT, kernel_stem)
        assert got.side is Side.LEFT and got.domain == want.domain
        for p in (q, far):
            assert bits(outcome(got, p)) == bits(outcome(want, p))
        # written with |b|^2 as b0^2 + |Im b|^2, an order norm_sq may round differently
        imn2 = b.x * b.x + b.y * b.y + b.z * b.z
        right_stem = four_rational_stems(exp_nums, [b.w * b.w + imn2, -2.0 * b.w, 1.0],
                                         annulus(b.norm(), math.inf))
        got = cauchy_kernel_right(b)
        assert got.side is Side.RIGHT and got.domain == right_stem.domain
        value, want = outcome(got, far), outcome(SliceRegularFunction(Side.RIGHT, right_stem), far)
        if isinstance(want, type):
            assert value is want
        else:
            assert (value - want).norm() <= 1e-15 * want.norm()


class TestVerifiers:
    def test_identity_is_regular(self, rng):
        probes = disk(2.0).random_slice_points(rng, 10, 0.1)
        report = verify_regular(lambda q: q, Side.LEFT, probes, step=1e-5)
        assert report.max_residual <= 1e-9

    def test_conjugation_witness(self, rng):
        probes = disk(2.0).random_slice_points(rng, 10, 0.1)
        report = verify_regular(lambda q: q.conjugate(), Side.LEFT, probes, step=1e-5)
        assert abs(report.max_residual - 1.0) < 1e-6

    def test_exp_is_regular(self, rng):
        probes = disk(2.0).random_slice_points(rng, 20, 0.1)
        report = verify_regular(quat_exp, Side.LEFT, probes, step=1e-5)
        assert report.max_residual <= 1e-6

    def test_right_series_needs_right_operator(self, rng):
        f = RegularSeries([random_quaternion(rng) for _ in range(5)], Side.RIGHT)
        F = from_series(f)
        probes = disk(1.5).random_slice_points(rng, 15, 0.1, y_max=1.0)
        assert verify_regular(F, Side.RIGHT, probes).max_residual <= 1e-6

    def test_reflection_flips_side(self, rng):
        f = left_series([random_quaternion(rng) for _ in range(6)])
        F = from_series(f)
        probes = disk(1.5).random_slice_points(rng, 15, 0.1, y_max=1.0)
        assert verify_regular(F, Side.LEFT, probes).max_residual <= 1e-6
        assert verify_regular(F.reflect(), Side.RIGHT, probes).max_residual <= 1e-6

    def test_slice_preserving_classification(self, rng):
        probes = disk(2.0).random_slice_points(rng, 10, 0.1)
        probes += [slice_decompose(Quaternion.real(x)) for x in (0.5, -1.2)]
        assert is_slice_preserving(quat_exp, probes)
        assert is_slice_preserving(lambda q: q * q, probes)
        assert not is_slice_preserving(lambda q: q + I, probes)

    def test_splitting_lemma(self, rng):
        F = from_series(left_series([random_quaternion(rng) for _ in range(6)]))
        unit_i = random_unit_imaginary(rng)
        v = random_unit_imaginary(rng)
        orth = v - unit_i * v.dot(unit_i)
        unit_j = orth * (1.0 / orth.norm())
        f_part, g_part = slice_splitting(F, unit_i, unit_j)
        for _ in range(10):
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(0.1, 0.6))
            assert complex_cr_residual(f_part, z) <= 1e-6
            assert complex_cr_residual(g_part, z) <= 1e-6
        # the split reassembles the restriction
        z = complex(0.2, 0.4)
        v = F(slice_embed(z.real, z.imag, unit_i))
        rebuilt = (slice_embed(f_part(z).real, f_part(z).imag, unit_i)
                   + slice_embed(g_part(z).real, g_part(z).imag, unit_i) * unit_j)
        assert_qclose(rebuilt, v, 1e-12)

    @pytest.mark.parametrize("passes", [
        lambda: _accepts(IntrinsicStem(lambda z: complex("nan"))),
        lambda: verify_regular(_nan_right_of_one, Side.LEFT,
                               [SliceCoordinates(0.5, 0.5, I), SliceCoordinates(2.0, 0.5, I)]
                               ).max_residual <= 1e-6,
        lambda: is_slice_preserving(lambda q: Quaternion(*[math.nan] * 4),
                                    [slice_decompose(Quaternion(0.5, 0.5, 0, 0))]),
        lambda: ConvolutionTransform(
            SimpleNamespace(evaluate=lambda s: s),
            lambda: SimpleNamespace(evaluate=_nan_right_of_one),
        ).crosscheck([Quaternion.real(0.5), Quaternion.real(2.0)]) <= 1e-6,
        lambda: DualityReport(0.0, math.nan).max_residual <= 1e-6,
    ], ids=["extend_intrinsic", "verify_regular", "is_slice_preserving", "crosscheck",
            "DualityReport"])
    def test_nan_fails_the_check(self, passes):
        # max() keeps 0.0 or the first value over a later NaN, and nan > tol is False
        assert not passes()

    def test_identity_principle(self, rng):
        # two constructions agreeing on 30 real probes agree on random quaternions
        f = left_series([random_quaternion(rng) for _ in range(5)])
        g = left_series([random_quaternion(rng) for _ in range(5)])
        A = from_series(f).star(from_series(g))
        B = from_series(f.star(g))
        for x in disk(1.0).chebyshev_real_points(30):
            assert (A(x) - B(x)).norm() <= 1e-12
        for _ in range(30):
            q = random_quaternion(rng, 0.5)
            assert (A(q) - B(q)).norm() <= 1e-8
