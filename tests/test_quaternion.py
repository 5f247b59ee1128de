import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceregular.errors import DomainError, UsageError
from sliceregular.quaternion import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    quat_components,
    quat_exp,
    random_quaternion,
    slice_decompose,
    slice_embed,
    unit_imaginary,
)

from conftest import assert_qclose

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


class TestMultiplication:
    def test_basis_relations(self):
        assert I * J == K
        assert J * K == I
        assert K * I == J
        assert I * I == -ONE
        assert J * J == -ONE
        assert K * K == -ONE
        assert (I * J) * K == -ONE

    def test_unit_law(self):
        q = Quaternion(1.5, -2.0, 0.25, 3.0)
        assert q * ONE == q
        assert ONE * q == q

    def test_hand_expansion(self):
        # (1+i)(1+j) = 1 + j + i + ij = 1 + i + j + k
        assert (ONE + I) * (ONE + J) == Quaternion(1, 1, 1, 1)

    def test_noncommutativity(self):
        assert I * J == -(J * I)

    @given(quaternions, quaternions, quaternions)
    @settings(max_examples=100, deadline=None)
    def test_associativity(self, p, q, r):
        scale = max(1.0, p.norm() * q.norm() * r.norm())
        assert (((p * q) * r) - (p * (q * r))).norm() <= 1e-12 * scale

    @given(quaternions, quaternions, quaternions, finite)
    @settings(max_examples=100, deadline=None)
    def test_real_bilinearity(self, p, q, r, c):
        scale = max(1.0, (p.norm() + q.norm()) * r.norm() * max(1.0, abs(c)))
        assert (((p + q) * r) - (p * r + q * r)).norm() <= 1e-12 * scale
        assert ((r * (p + q)) - (r * p + r * q)).norm() <= 1e-12 * scale
        assert (((c * p) * q) - c * (p * q)).norm() <= 1e-12 * scale


class TestComponents:
    def test_every_real_type_is_a_component(self):
        assert quat_components([1, 2.5, np.float32(0.5), np.int64(-3)]) == (1.0, 2.5, 0.5, -3.0)
        assert quat_components(np.array([1.0, 0.0, 0.0, 2.0])) == (1.0, 0.0, 0.0, 2.0)

    @pytest.mark.parametrize("entry", [True, np.True_, "1", None])
    def test_booleans_and_strings_are_not(self, entry):
        with pytest.raises(UsageError):
            quat_components([entry, 0, 0, 0])


class TestInverse:
    def test_one(self):
        assert ONE.inverse() == ONE

    def test_unit_imaginary(self):
        assert I.inverse() == -I

    def test_2k(self):
        assert_qclose((2 * K).inverse(), Quaternion(0, 0, 0, -0.5), 0)

    def test_zero_raises(self):
        with pytest.raises(DomainError):
            Quaternion().inverse()

    @given(quaternions)
    @settings(max_examples=100, deadline=None)
    def test_two_sided(self, q):
        if q.norm() < 1e-3:
            return
        assert_qclose(q * q.inverse(), ONE, 1e-12)
        assert_qclose(q.inverse() * q, ONE, 1e-12)


class TestSliceStructure:
    def test_decompose_3_plus_4i(self):
        sc = slice_decompose(Quaternion(3, 4, 0, 0))
        assert sc.x == 3 and sc.y == 4
        assert sc.unit == I

    def test_decompose_real_point(self):
        sc = slice_decompose(Quaternion.real(5))
        assert sc.x == 5 and sc.y == 0
        assert sc.unit == I  # the fixed convention

    def test_decompose_j_minus_k(self):
        sc = slice_decompose(J - K)
        assert sc.x == 0
        assert abs(sc.y - math.sqrt(2)) < 1e-15
        assert_qclose(sc.unit, (J - K) / math.sqrt(2), 1e-15)

    def test_embed_trivials(self):
        assert slice_embed(1, 0, J) == ONE
        assert slice_embed(0, 1, J) == J
        assert slice_embed(2, 3, I) == Quaternion(2, 3, 0, 0)

    def test_embed_conjugation_equivariance(self):
        q = slice_embed(2, 3, J)
        assert slice_embed(2, -3, J) == q.conjugate()

    def test_embed_rejects_bad_unit(self):
        with pytest.raises(UsageError):
            slice_embed(1, 1, Quaternion(1, 1, 0, 0))

    @given(quaternions)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, q):
        sc = slice_decompose(q)
        assert_qclose(sc.to_quaternion(), q, 1e-14 * max(1.0, q.norm()))

    def test_unit_imaginary_normalizes(self):
        u = unit_imaginary(3, 0, 4)
        assert abs(u.norm() - 1) < 1e-15
        assert u.w == 0

    def test_norm_is_multiplicative(self, rng):
        for _ in range(10_000):
            p = random_quaternion(rng, 5.0)
            q = random_quaternion(rng, 5.0)
            ref = p.norm() * q.norm()
            if ref > 0:
                assert abs((p * q).norm() - ref) <= 1e-12 * ref

    def test_conjugation_reverses_products(self, rng):
        for _ in range(2000):
            p, q = random_quaternion(rng), random_quaternion(rng)
            assert ((p * q).conjugate() - q.conjugate() * p.conjugate()).norm() <= 1e-14

    def test_norm_avoids_overflow(self):
        big = Quaternion(1e200, 1e200, 0, 0)
        assert math.isfinite(big.norm())


class TestExponential:
    def test_zero(self):
        assert quat_exp(Quaternion()) == ONE

    def test_euler_identity_any_unit(self, rng):
        from sliceregular.quaternion import random_unit_imaginary

        for _ in range(20):
            u = random_unit_imaginary(rng)
            assert_qclose(quat_exp(u * math.pi), -ONE, 1e-14)

    def test_one_plus_j_half_pi(self):
        # e^1 (cos pi/2 + j sin pi/2) = e * j
        assert_qclose(quat_exp(Quaternion(1, 0, math.pi / 2, 0)),
                      J * math.e, 1e-14)

    def test_against_partial_sums(self, rng):
        for _ in range(300):
            q = random_quaternion(rng, 2.5)  # |q| <= 5
            total = ONE
            term = ONE
            for n in range(1, 40):
                term = term * q / n
                total = total + term
            assert_qclose(quat_exp(q), total, 1e-12)

    def test_transported_complex_exponential(self, rng):
        import cmath

        from sliceregular.quaternion import random_unit_imaginary

        for _ in range(200):
            u = random_unit_imaginary(rng)
            z = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
            w = cmath.exp(z)
            assert_qclose(quat_exp(slice_embed(z.real, z.imag, u)),
                          slice_embed(w.real, w.imag, u), 1e-13)
