import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceregular.errors import AccuracyError, UsageError
from sliceregular.laplace import convolution
from sliceregular.quaternion import I, J, K, ONE, Quaternion, quat_exp
from sliceregular.timefunctions import (
    TimeDomainFunction,
    constant_function,
    exponential_function,
    heaviside_shifted,
    polynomial_function,
    time_function_from_json,
)

from conftest import assert_qclose


class TestFactories:
    def test_constant(self):
        f = constant_function(ONE)
        assert f(3.7) == ONE
        assert f.growth.a == 0.0

    def test_exponential_growth_certificate(self):
        f = exponential_function(Quaternion(2, 1, 0, 0))
        assert f.growth.a == 2.0 and f.growth.K == 1.0
        # |e^{bt}| = e^{Re(b) t} exactly
        t = 1.7
        assert abs(f(t).norm() - math.exp(2 * t)) < 1e-9 * math.exp(2 * t)

    def test_exponential_decaying_is_order_zero(self):
        f = exponential_function(Quaternion(-3, 1, 0, 0))
        assert f.growth.a == 0.0
        assert f(2.0).norm() <= 1.0

    def test_polynomial(self):
        f = polynomial_function([ONE, 2 * J])  # 1 + 2j t
        assert_qclose(f(1.5), ONE + 3 * J, 1e-15)
        # certificate really bounds the function on a sampled range
        g = f.growth
        for t in (0.0, 1.0, 10.0, 40.0):
            assert f(t).norm() <= g.K * math.exp(g.a * t) * (1 + 1e-12)

    def test_heaviside(self):
        f = heaviside_shifted(exponential_function(J), 1.0)
        assert f(0.5) == Quaternion()
        assert f(1.0) == ONE  # H(0) = 1 convention
        assert_qclose(f(2.0), quat_exp(J), 1e-15)
        assert f.breakpoints == (1.0,)

    def test_heaviside_needs_positive_shift(self):
        with pytest.raises(UsageError):
            heaviside_shifted(constant_function(ONE), 0.0)

    def test_zero_padded_polynomial_is_a_constant(self):
        # zero coefficients add nothing to K, however large their monomial's peak
        f = polynomial_function([1.0] + [0.0] * 129)
        assert f.growth.K == 1.0
        assert f(2.0) == ONE

    def test_scaling_by_a_tiny_factor_keeps_a_positive_growth_constant(self):
        # K * |factor| underflows to 0; the certificate clamps it to 1e-300
        for f in (polynomial_function([Quaternion()]).scaled_left(Quaternion()),
                  constant_function(Quaternion()).scaled_right(Quaternion(1e-200, 0, 0, 0))):
            assert f.growth.K == 1e-300
            assert f(1.0) == Quaternion()

    def test_growth_spot_check(self, rng):
        # sampled |f(t)| stays under the certificate for every factory
        fns = [
            exponential_function(Quaternion(0.5, 2, 0, 0)),
            polynomial_function([ONE, I, J]),
            heaviside_shifted(polynomial_function([ONE, K]), 2.0),
            exponential_function(I).scaled_left(ONE + K) + constant_function(J),
        ]
        for f in fns:
            g = f.growth
            for _ in range(50):
                t = float(rng.uniform(g.T, g.T + 20))
                assert f(t).norm() <= g.K * math.exp(g.a * t) * (1 + 1e-9)


class TestDerivedCertificates:
    """A combinator whose certificate overflows names itself, not a malformed input."""

    @pytest.mark.parametrize("build, operation", [
        (lambda: convolution(constant_function(1e200), constant_function(1e200)),
         "a convolution"),
        (lambda: constant_function(1e200).scaled_left(Quaternion.real(1e200)), "a left scaling"),
        (lambda: constant_function(1e200).scaled_right(Quaternion.real(1e200)), "a right scaling"),
        (lambda: constant_function(1e308) + constant_function(1e308), "a sum"),
        (lambda: polynomial_function([0.0] * 100 + [1e300]), "a polynomial"),
        (lambda: polynomial_function([1.0] * 130), "a polynomial"),
    ])
    def test_overflow_raises_accuracy_error_naming_the_operation(self, build, operation):
        with pytest.raises(AccuracyError, match=f"growth certificate of {operation} overflows"):
            build()

    def test_large_finite_certificates_pass(self):
        f = constant_function(1e150).scaled_left(Quaternion.real(1e150))
        assert f.growth.K == pytest.approx(1e300)


class TestJsonIngestion:
    def test_exp(self):
        f = time_function_from_json({"kind": "exp", "b": [0, 0, 1, 0]})
        assert_qclose(f(2.0), quat_exp(2 * J), 1e-15)

    def test_poly(self):
        f = time_function_from_json({"kind": "poly", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]})
        assert f(3.0) == 3 * ONE

    def test_heaviside_and_sum_and_scale(self):
        spec = {
            "kind": "sum",
            "terms": [
                {"kind": "heaviside_shift", "shift": 1.0,
                 "inner": {"kind": "exp", "b": [0, 0, 1, 0]}},
                {"kind": "scale", "factor": [0, 0, 0, 2], "where": "left",
                 "inner": {"kind": "poly", "coeffs": [[1, 0, 0, 0]]}},
            ],
        }
        f = time_function_from_json(spec)
        assert_qclose(f(0.5), 2 * K, 1e-15)
        assert_qclose(f(1.5), quat_exp(0.5 * J) + 2 * K, 1e-15)
        assert 1.0 in f.breakpoints

    def test_explicit_exp_order_override(self):
        f = time_function_from_json(
            {"kind": "exp", "b": [1, 0, 0, 0], "exp_order": {"a": 2.0, "K": 3.0, "T": 1.0}})
        assert f.growth.a == 2.0 and f.growth.K == 3.0 and f.growth.T == 1.0

    def test_malformed(self):
        with pytest.raises(UsageError):
            time_function_from_json({"kind": "spline"})
        with pytest.raises(UsageError):
            time_function_from_json({"kind": "exp"})
        with pytest.raises(UsageError):
            time_function_from_json([1, 2, 3])


# -- the array evaluator against scalar quaternion arithmetic ------------------

coords = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, coords, coords, coords, coords)
reals = st.builds(Quaternion.real, coords)


def _horner(cs, t):
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * t + c
    return acc


# a case is (function, scalar reference t -> Quaternion, size t -> float that
# bounds the terms the value is computed from, times worth probing)
def _exp_case(b):
    return (exponential_function(b), lambda t: quat_exp(b * t),
            lambda t: math.exp(b.w * t), [])


def _poly_case(cs):
    return (polynomial_function(cs), lambda t: _horner(cs, t),
            lambda t: sum(c.norm() * t**n for n, c in enumerate(cs)), [])


def _constant_case(v):
    return constant_function(v), lambda t: v, lambda t: v.norm(), []


def _callable_case(b):
    f = TimeDomainFunction(lambda t: quat_exp(b * t), exponential_function(b).growth)
    return f, lambda t: quat_exp(b * t), lambda t: math.exp(b.w * t), []


leaves = st.one_of(
    st.builds(_exp_case, st.one_of(quaternions, reals)),
    st.builds(_poly_case, st.lists(quaternions, min_size=1, max_size=4)),
    st.builds(_constant_case, quaternions),
    st.builds(_callable_case, quaternions),
)


def _heaviside(case, shift):
    f, ref, size, times = case
    return (heaviside_shifted(f, shift),
            lambda t: ref(t - shift) if t >= shift else Quaternion(),
            lambda t: size(t - shift) if t >= shift else 0.0,
            [shift, shift - 1e-9, math.nextafter(shift, 0.0)] + [t + shift for t in times])


def _sum(left, right):
    (f, rf, sf, tf), (g, rg, sg, tg) = left, right
    return f + g, lambda t: rf(t) + rg(t), lambda t: sf(t) + sg(t), tf + tg


def _scaled(case, factor, where):
    f, ref, size, times = case
    if where == "left":
        return (f.scaled_left(factor), lambda t: factor * ref(t),
                lambda t: 2 * factor.norm() * size(t), times)
    return (f.scaled_right(factor), lambda t: ref(t) * factor,
            lambda t: 2 * factor.norm() * size(t), times)


def _conjugated(case):
    f, ref, size, times = case
    return f.conjugated(), lambda t: ref(t).conjugate(), size, times


def _combinators(children):
    return st.one_of(
        st.builds(_heaviside, children, st.floats(0.1, 3.0)),
        st.builds(_sum, children, children),
        st.builds(_scaled, children, quaternions, st.sampled_from(["left", "right"])),
        st.builds(_conjugated, children),
    )


cases = st.recursive(leaves, _combinators, max_leaves=4)


class TestArrayEvaluator:
    @given(cases, st.lists(st.floats(0.0, 4.0), min_size=1, max_size=15))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_scalar_quaternion_arithmetic(self, case, drawn):
        f, ref, size, times = case
        ts = [t for t in drawn + times if t >= 0.0]
        rows = f.evaluator(np.array(ts))
        assert rows.shape == (len(ts), 4)
        for t, row in zip(ts, rows):
            tol = 32 * sys.float_info.epsilon * max(size(t), 1e-300)
            assert_qclose(Quaternion(*row.tolist()), ref(t), tol)
            assert_qclose(f(t), ref(t), tol)

    def test_heaviside_is_exactly_zero_before_and_one_at_the_shift(self):
        f = heaviside_shifted(exponential_function(J), 1.0)
        rows = f.evaluator(np.array([0.0, math.nextafter(1.0, 0.0), 1.0]))
        assert rows.tolist() == [[0.0] * 4, [0.0] * 4, [1.0, 0.0, 0.0, 0.0]]

    def test_heaviside_evaluates_its_inner_function_only_after_the_shift(self):
        seen = []

        def inner(t):
            seen.append(t)
            return ONE

        f = heaviside_shifted(TimeDomainFunction(inner, constant_function(ONE).growth), 2.0)
        f.evaluator(np.array([0.5, 1.5, 2.0, 3.0]))
        assert seen == [0.0, 1.0]
