
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceregular.errors import ConsistencyError, SingularSeriesError, UsageError
from sliceregular.quaternion import I, J, K, ONE, Quaternion, random_quaternion
from sliceregular.series import RegularSeries, Side, assemble_components

from conftest import assert_qclose

finite = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)
coeff_lists = st.lists(quaternions, min_size=1, max_size=7)


def left(coeffs):
    return RegularSeries(coeffs, Side.LEFT)


def right(coeffs):
    return RegularSeries(coeffs, Side.RIGHT)


class TestEvaluation:
    def test_one_plus_q_squared_at_j(self):
        f = left([1, 0, 1])
        assert f(J) == Quaternion()  # 1 + j^2 = 0

    def test_identity_series(self):
        f = left([0, 1])
        q = Quaternion(2, 0, 0, 3)
        assert f(q) == q

    def test_q_minus_b_at_j(self):
        f = left([-I, ONE])
        assert f(J) == J - I

    def test_side_matters_off_axis(self):
        f_left = left([0, I])    # q * i
        f_right = right([0, I])  # i * q
        assert f_left(J) == J * I
        assert f_right(J) == I * J
        assert f_left(J) != f_right(J)

    def test_real_coeffs_stay_in_slice(self, rng):
        f = left([0.3, -1.2, 0.0, 2.5])
        from sliceregular.quaternion import random_unit_imaginary, slice_embed

        for _ in range(20):
            u = random_unit_imaginary(rng)
            q = slice_embed(0.4, 0.7, u)
            v = f(q)
            off = v.im() - u * v.im().dot(u)
            assert off.norm() < 1e-14

    def test_report_fields(self):
        f = left([1, 0, 1, 0])  # trailing zero trimmed
        rep = f.evaluate(Quaternion.real(2.0))
        assert rep.terms_used == 3
        assert rep.trunc_bound == pytest.approx(4.0)  # |a_2| * |q|^2


class TestStarProduct:
    def test_sphere_factorization(self, rng):
        # (q - b) * (q - conj b) = q^2 - 2 Re(b) q + |b|^2, derived by hand
        for _ in range(20):
            b = random_quaternion(rng)
            f = left([-b, ONE])
            g = left([-b.conjugate(), ONE])
            prod = f.star(g)
            expected = left([b.norm_sq(), -2 * b.w, 1])
            assert prod == expected

    def test_unit_series(self):
        f = left([I + 2 * J, K, ONE])
        assert f.star(left([1])) == f

    def test_constants_order_sensitive(self):
        assert left([I]).star(left([J])) == left([K])
        assert left([J]).star(left([I])) == left([-K])

    def test_side_mismatch(self):
        with pytest.raises(UsageError):
            left([1]).star(right([1]))

    def test_truncation_order_adds(self):
        f, g = left([1, 2, 3]), left([1, 1])
        assert f.star(g).truncation_order == 3

    def test_real_axis_law_both_sides(self, rng):
        for side in (Side.LEFT, Side.RIGHT):
            for _ in range(100):
                f = RegularSeries([random_quaternion(rng) for _ in range(9)], side)
                g = RegularSeries([random_quaternion(rng) for _ in range(9)], side)
                fg = f.star(g)
                for _ in range(20):
                    x = rng.uniform(-0.8, 0.8)
                    lhs, rhs = fg(x), f(x) * g(x)
                    assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=50, deadline=None)
    def test_distributes(self, a, b, c):
        f, g, h = left(a), left(b), left(c)
        lhs = (f + g).star(h)
        rhs = f.star(h) + g.star(h)
        assert lhs == rhs

    def test_right_scalar_law(self, rng):
        for _ in range(100):
            f = left([random_quaternion(rng) for _ in range(7)])
            g = left([random_quaternion(rng) for _ in range(7)])
            lam = random_quaternion(rng)
            assert f.star(g.scale_right(lam)) == f.star(g).scale_right(lam)


class TestConjugateAndSymmetrization:
    def test_conjugate_examples(self):
        assert left([I, ONE]).regular_conjugate() == left([-I, ONE])
        intrinsic = left([1.0, -2.0, 0.5])
        assert intrinsic.regular_conjugate() == intrinsic
        assert left([ONE + J, K]).regular_conjugate() == left([ONE - J, -K])

    def test_symmetrization_of_q_minus_i(self):
        f = left([-I, ONE])
        assert f.symmetrization() == left([1, 0, 1])

    def test_symmetrization_constants(self):
        assert left([1]).symmetrization() == left([1])
        assert left([J]).symmetrization() == left([1])

    def test_symmetrization_is_exactly_real(self, rng):
        for _ in range(50):
            f = left([random_quaternion(rng) for _ in range(9)])
            sym = f.symmetrization()
            assert all(c.im_norm() == 0.0 for c in sym.coeffs)

    def test_pointwise_law_on_reals(self, rng):
        f = left([random_quaternion(rng) for _ in range(6)])
        fc = f.regular_conjugate()
        fs = f.symmetrization()
        for x in (-0.5, 0.2, 0.9):
            assert_qclose(fc(x), f(x).conjugate(), 1e-12)
            assert_qclose(fs(x), f(x) * f(x).conjugate(), 1e-12)

    def test_large_residue_raises(self):
        # force the guard: any residue (including zero) exceeds a negative gate
        f = left([I, ONE])
        with pytest.raises(ConsistencyError):
            f.symmetrization(snap_tol=-1.0)


class TestReciprocal:
    def test_constant_one(self):
        assert left([1]).reciprocal(0) == left([1])

    def test_constant_real(self):
        assert left([2]).reciprocal(0) == left([0.5])

    def test_q_minus_i_order_3(self):
        # geometric inversion of 1 + q^2 times (q + i): i + q - i q^2 - q^3
        f = left([-I, ONE])
        assert f.reciprocal(3) == left([I, ONE, -I, -ONE])

    def test_zero_constant_raises_naming_zero_set(self):
        with pytest.raises(SingularSeriesError, match="zero set of the symmetrization"):
            left([0, 1]).reciprocal(3)

    @pytest.mark.parametrize("coeffs, what", [
        ([1e-170, 1], "underflows"),
        ([1e-150, 1], "overflows"),
        ([[1e-160, 1e-160, 0, 0], [0, 1, 0, 0]], "overflows"),
    ], ids=["a0-squared-underflows", "recursion-overflows", "inverse-overflows"])
    def test_tiny_constant_raises_naming_the_range(self, coeffs, what):
        # a_0 != 0, but |a_0|^2 or the inverse leaves the double range
        with pytest.raises(SingularSeriesError, match=what):
            left(coeffs).reciprocal(2)

    def test_pointwise_identity_at_real_points(self):
        # independent route: the truncated reciprocal multiplies back to 1 at
        # small real points, checked against plain quaternion arithmetic
        for b in (I, ONE + K, Quaternion(0.5, 0.3, -0.2, 0.1)):
            f = left([-b, ONE])
            h = f.reciprocal(24)
            for x in (-0.2, 0.1, 0.2):
                assert_qclose(f(x) * h(x), ONE, 1e-6)

    def test_star_identity(self, rng):
        for _ in range(100):
            while True:
                f = left([random_quaternion(rng) * 0.6**n for n in range(9)])
                if f.coeffs[0].norm() >= 0.1:
                    break
            h = f.reciprocal(16)
            p = f.star(h)
            for n in range(17):
                target = ONE if n == 0 else Quaternion()
                assert (p.coeffs[n] - target).norm() <= 1e-10


class TestDerivativeAndReflection:
    def test_derivative_examples(self):
        assert left([K]).slice_derivative() == left([0])
        assert left([0, 0, 1]).slice_derivative() == left([0, 2])
        assert left([ONE, I, J]).slice_derivative() == left([I, 2 * J])

    def test_reflection_example(self):
        f = left([Quaternion(), I])  # q * i
        rf = f.reflect()
        assert rf.side is Side.RIGHT
        assert rf == right([Quaternion(), -I])  # -i * q

    def test_reflection_fixes_intrinsic_pointwise(self, rng):
        f = left([0.5, -1.0, 2.0])
        rf = f.reflect()
        assert rf.side is Side.RIGHT
        for _ in range(20):
            q = random_quaternion(rng)
            assert_qclose(rf(q), f(q), 1e-13)

    @given(coeff_lists)
    @settings(max_examples=50, deadline=None)
    def test_reflection_involution(self, coeffs):
        f = left(coeffs)
        assert f.reflect().reflect() == f

    def test_reflection_pointwise_law(self, rng):
        for _ in range(50):
            f = left([random_quaternion(rng) for _ in range(9)])
            rf = f.reflect()
            q = random_quaternion(rng, 0.5)
            assert_qclose(rf(q), f(q.conjugate()).conjugate(), 1e-12)

    def test_reflection_antihomomorphism(self, rng):
        for _ in range(1000):
            f = left([random_quaternion(rng) for _ in range(9)])
            g = left([random_quaternion(rng) for _ in range(9)])
            lhs = f.star(g).reflect()
            rhs = g.reflect().star(f.reflect())
            pairs = zip(lhs.coeffs, rhs.coeffs)
            assert all((a - b).norm() <= 1e-13 for a, b in pairs)

    def test_intrinsic_center(self, rng):
        for _ in range(1000):
            h = left([Quaternion.real(rng.uniform(-1, 1)) for _ in range(9)])
            f = left([random_quaternion(rng) for _ in range(9)])
            lhs, rhs = h.star(f), f.star(h)
            assert all((a - b).norm() <= 1e-13 for a, b in zip(lhs.coeffs, rhs.coeffs))


class TestComponentsAndSerialization:
    def test_component_examples(self):
        h = left([ONE + I]).intrinsic_components()
        assert h[0] == left([1]) and h[1] == left([1])
        assert h[2] == left([0]) and h[3] == left([0])

        f = left([1.0, 2.0])
        h = f.intrinsic_components()
        assert h[0] == f and all(hm == left([0]) for hm in h[1:])

        h = left([J, K]).intrinsic_components()
        assert h[2] == left([1, 0]) and h[3] == left([0, 1])
        assert h[0] == left([0]) and h[1] == left([0])

    @given(coeff_lists)
    @settings(max_examples=100, deadline=None)
    def test_reassembly_exact(self, coeffs):
        f = left(coeffs)
        parts = f.intrinsic_components()
        rebuilt = assemble_components(parts)
        assert all(a == b for a, b in zip(rebuilt.coeffs, f.coeffs))

    def test_components_are_intrinsic(self):
        for part in left([ONE + I, J - K]).intrinsic_components():
            assert part.is_intrinsic()

    def test_json_roundtrip(self):
        f = right([ONE + I, 2 * J, -K])
        g = RegularSeries.from_json_dict(f.to_json_dict())
        assert g.side is Side.RIGHT
        assert g == f

    def test_json_format(self):
        f = left([ONE])
        assert f.to_json_dict() == {"side": "left", "coeffs": [[1.0, 0.0, 0.0, 0.0]]}

    def test_malformed_json(self):
        with pytest.raises(UsageError):
            RegularSeries.from_json_dict({"coeffs": [[1, 0, 0, 0]]})
        with pytest.raises(UsageError):
            RegularSeries.from_json_dict({"side": "up", "coeffs": [[1, 0, 0, 0]]})

    def test_equality_ignores_trailing_zeros(self):
        assert left([1, 2]) == left([1, 2, 0, 0])


# -- bit identity with Quaternion arithmetic --------------------------------
#
# The reference below is the plain scalar algorithm on Quaternion objects (the
# double-loop Cauchy product, Horner's rule); every array operation must agree
# with it bit for bit, so signed zeros are compared too.

# magnitudes of at least 1e-3 keep the reciprocal's recursion finite
component = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2, -1e-3), st.floats(1e-3, 2))
exact_quaternions = st.builds(Quaternion, component, component, component, component)
exact_coeffs = st.lists(exact_quaternions, min_size=1, max_size=13)  # degree 0-12
factors = st.one_of(exact_quaternions, component)
sides = st.sampled_from(list(Side))


def ref_star(a, b):
    out = []
    for n in range(len(a) + len(b) - 1):
        acc = Quaternion()
        for k in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1):
            acc = acc + a[k] * b[n - k]
        out.append(acc)
    return out


def ref_trimmed(cs):
    return cs[: max((n for n, c in enumerate(cs) if c.norm() != 0.0), default=0) + 1]


def ref_evaluate(cs, side, q):
    cs = ref_trimmed(cs)
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = c + q * acc if side is Side.LEFT else acc * q + c
    return acc, len(cs), cs[-1].norm() * q.norm() ** (len(cs) - 1)


def ref_symmetrization(cs):
    raw = ref_star(cs, [c.conjugate() for c in cs])
    for c in raw:
        if c.im_norm() > 1e-13:
            raise ConsistencyError(
                f"symmetrization produced imaginary residue {c.im_norm():.3e} > {1e-13:.1e}")
    return [Quaternion.real(c.w) for c in raw]


def ref_reciprocal(cs, order):
    if cs[0].norm() == 0.0:
        raise SingularSeriesError("zero set of the symmetrization")
    s = [c.w for c in ref_symmetrization(cs)]
    inv = [1.0 / s[0]]
    for n in range(1, order + 1):
        acc = 0.0
        for k in range(1, min(n, len(s) - 1) + 1):
            acc += s[k] * inv[n - k]
        inv.append(-acc / s[0])
    return ref_star([Quaternion.real(v) for v in inv], [c.conjugate() for c in cs])[: order + 1]


def bits(values):
    return np.array(values, dtype=np.float64).tobytes()


def assert_same_bits(series, quaternions, side):
    assert series.side is side
    assert series.rows.shape == (len(quaternions), 4)
    assert series.rows.tobytes() == bits([q.components() for q in quaternions])


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ConsistencyError, SingularSeriesError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestBitIdentity:
    @given(exact_coeffs, exact_coeffs, sides)
    @settings(max_examples=100, deadline=None)
    def test_star_sum_and_negation(self, a, b, side):
        f, g = RegularSeries(a, side), RegularSeries(b, side)
        assert_same_bits(f.star(g), ref_star(a, b), side)
        n = max(len(a), len(b))
        padded_a, padded_b = (cs + [Quaternion()] * (n - len(cs)) for cs in (a, b))
        assert_same_bits(f + g, [p + q for p, q in zip(padded_a, padded_b)], side)
        assert_same_bits(-f, [-c for c in a], side)

    @given(exact_coeffs, sides, exact_quaternions, component)
    @settings(max_examples=100, deadline=None)
    def test_evaluate(self, cs, side, q, x):
        f = RegularSeries(cs, side)
        for point, ref_point in ((q, q), (x, Quaternion.real(x))):
            value, terms, bound = ref_evaluate(cs, side, ref_point)
            report = f.evaluate(point)
            assert bits(report.value.components()) == bits(value.components())
            assert report.terms_used == terms
            assert bits(report.trunc_bound) == bits(bound)

    @given(exact_coeffs, sides, factors)
    @settings(max_examples=100, deadline=None)
    def test_coefficientwise_operations(self, cs, side, factor):
        f = RegularSeries(cs, side)
        lam = factor if isinstance(factor, Quaternion) else Quaternion.real(factor)
        assert_same_bits(f.regular_conjugate(), [c.conjugate() for c in cs], side)
        assert_same_bits(f.reflect(), [c.conjugate() for c in cs], side.flipped())
        assert_same_bits(f.scale_left(factor), [lam * c for c in cs], side)
        assert_same_bits(f.scale_right(factor), [c * lam for c in cs], side)
        derivative = [(n + 1) * c for n, c in enumerate(cs[1:])] or [Quaternion()]
        assert_same_bits(f.slice_derivative(), derivative, side)
        assert_same_bits(f.trimmed(), ref_trimmed(cs), side)

    @given(exact_coeffs, sides)
    @settings(max_examples=100, deadline=None)
    def test_components_and_reassembly(self, cs, side):
        f = RegularSeries(cs, side)
        parts = f.intrinsic_components()
        for m, part in enumerate(parts):
            assert_same_bits(part, [Quaternion.real(c.components()[m]) for c in cs], side)
        assert_same_bits(assemble_components(parts), cs, side)
        assert f.coeffs == tuple(cs)

    @given(exact_coeffs, sides, st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_symmetrization_and_reciprocal(self, cs, side, order):
        f = RegularSeries(cs, side)
        expected = outcome(ref_symmetrization, cs)
        got = outcome(f.symmetrization)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert_same_bits(got, expected, side)
        expected = outcome(ref_reciprocal, cs, order)
        got = outcome(f.reciprocal, order)
        if isinstance(expected, tuple):
            assert got[0] is expected[0]
        else:
            assert_same_bits(got, expected, side)

    def test_three_component_coefficient_raises(self):
        with pytest.raises(UsageError):
            RegularSeries([[1.0, 0.0, 0.0]])
        with pytest.raises(UsageError):
            RegularSeries.from_json_dict({"side": "left", "coeffs": [[1.0, 0.0, 0.0]]})

    def test_rows_are_read_only(self):
        f = left([ONE, I])
        with pytest.raises(ValueError):
            f.rows[0, 0] = 2.0
        assert f.coeffs == (ONE, I)
