"""Product and quotient stems at every order.

Products (`stem_product`, `stem_star`, the s^n of the derivative rule) and
quotients (rational stems, the integral rule) are Leibniz chains: their
derivatives match `mpmath` and read each order of each operand once.
"""

import cmath
import math
from collections import Counter

import mpmath
import numpy as np
import pytest

from sliceregular import quadrature
from sliceregular.errors import PoleError
from sliceregular.laplace import (
    derivative_of_transform,
    exp_transform_closed_form,
    heaviside_shift,
    laplace_left,
    laplace_of_convolution,
    transform_of_integral,
    transform_of_nth_derivative,
)
from sliceregular.quaternion import I, J, ONE, Quaternion
from sliceregular.regions import half_plane
from sliceregular.series import Side
from sliceregular.slicefn import cauchy_kernel, cauchy_kernel_right
from sliceregular.stems import (
    ENTIRE,
    IntrinsicStem,
    slice_inverse_stem,
    stem_div_z,
    stem_product,
    stem_star,
)
from sliceregular.timefunctions import exponential_function

B_VALUES = [Quaternion(0.3, 0.7, -0.2, 0.4), Quaternion(0.2, 0.0, 1.0, 0.0),
            Quaternion.real(-0.5)]

# (name, builder of b, sign of the slice inverse, divided by z)
BUILDERS = [
    ("exp_transform_left", lambda b: exp_transform_closed_form(b, Side.LEFT).fn, 1.0, False),
    ("exp_transform_right", lambda b: exp_transform_closed_form(b, Side.RIGHT).fn, 1.0, False),
    ("cauchy_kernel", cauchy_kernel, -1.0, False),
    ("cauchy_kernel_right", cauchy_kernel_right, 1.0, False),
    ("integral_rule", lambda b: transform_of_integral(exp_transform_closed_form(b, Side.LEFT)).fn,
     1.0, True),
]


def slice_inverse(b, sign=1.0, divided=False):
    """The components of sign (z^2 - 2 b0 z + |b|^2)^(-1) (z - conj b), over z if divided."""
    conj = (b.w, -b.x, -b.y, -b.z)

    def component(m):
        def f(s):
            num = sign * (s - conj[0] if m == 0 else -conj[m])
            value = num / (s * s - 2 * b.w * s + b.norm_sq())
            return value / s if divided else value
        return f

    return [component(m) for m in range(4)]


def reference_derivatives(components, z, n):
    """Orders 0..n at 50 digits (mpmath.diffs) of each of the four components."""
    with mpmath.workdps(50):
        out = [[complex(d) for d in mpmath.diffs(c, mpmath.mpc(z), n)] for c in components]
    return [list(row) for row in zip(*out)]


@pytest.mark.parametrize("b", B_VALUES, ids=str)
@pytest.mark.parametrize("name, build, sign, divided", BUILDERS, ids=[b[0] for b in BUILDERS])
def test_slice_derivatives_match_mpmath(b, name, build, sign, divided):
    stem = build(b).stem
    for z in (complex(1.9, 0.6), complex(2.4, -1.3)):
        d = stem
        for n, want in enumerate(reference_derivatives(slice_inverse(b, sign, divided), z, 8)):
            got = d(z).tolist()
            for m in range(4):
                assert abs(got[m] - want[m]) <= 1e-12 * abs(want[m]), (n, m, got[m], want[m])
            d = d.derivative_stem()


def hamilton(a, b):
    """The Hamilton product of two 4-tuples of commuting components."""
    return [a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
            a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
            a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
            a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0]]


def closed(b):
    return exp_transform_closed_form(b, Side.LEFT)


INITIAL = [ONE, Quaternion(0.5, -1.0, 0.25, 2.0), Quaternion(-0.3, 0.0, 0.7, 0.1)]

# (name, the vector stem, its four components as functions of an mpmath s)
PRODUCTS = [
    ("heaviside_shift", heaviside_shift(closed(B_VALUES[0]), 0.7).fn.stem,
     [lambda s, c=c: mpmath.exp(-0.7 * s) * c(s) for c in slice_inverse(B_VALUES[0])]),
    ("star", closed(B_VALUES[0]).fn.star(closed(B_VALUES[1]).fn).stem,
     [lambda s, p=p: hamilton([c(s) for c in slice_inverse(B_VALUES[0])],
                              [c(s) for c in slice_inverse(B_VALUES[1])])[p] for p in range(4)]),
    ("nth_derivative_rule", transform_of_nth_derivative(closed(B_VALUES[2]), INITIAL).fn.stem,
     [lambda s, c=c, m=m: s ** 3 * c(s) - sum(v.components()[m] * s ** (2 - r)
                                              for r, v in enumerate(INITIAL))
      for m, c in enumerate(slice_inverse(B_VALUES[2]))]),
]


@pytest.mark.parametrize("name, stem, components", PRODUCTS, ids=[p[0] for p in PRODUCTS])
def test_product_derivatives_match_mpmath(name, stem, components):
    for z in (complex(1.9, 0.6), complex(2.4, -1.3)):
        d = stem
        for n, want in enumerate(reference_derivatives(components, z, 8)):
            gap = np.max(np.abs(d(z) - np.array(want)))
            assert gap <= 1e-12 * np.max(np.abs(want)), (n, gap)
            d = d.derivative_stem()


def counted_exp(calls: Counter, order: int = 0, coeff=1.0) -> IntrinsicStem:
    """coeff e^z, whose evaluators count their calls by derivative order.

    A (4,) coeff makes it a vector stem."""

    def ev(z):
        calls[order] += 1
        return coeff * cmath.exp(z), 0.0

    return IntrinsicStem._with_error(ev, half_plane(0.0),
                                     lambda: counted_exp(calls, order + 1, coeff),
                                     f"exp^({order})")


def test_quotient_derivative_evaluates_each_order_once():
    calls = Counter()
    d = stem_div_z(counted_exp(calls))
    for _ in range(8):
        d = d.derivative_stem()
    z = complex(1.3, 0.4)
    got = d(z)
    assert calls == Counter(range(9))
    # (e^z / z)^(8) = e^z sum_k C(8, k) (-1)^k k! / z^(k + 1)
    want = cmath.exp(z) * sum(math.comb(8, k) * (-1) ** k * math.factorial(k) / z ** (k + 1)
                              for k in range(9))
    assert abs(got - want) <= 1e-13 * abs(want)


A, B = np.array([0.5, -1.0, 0.25, 2.0]), np.array([-0.3, 0.8, 0.7, 0.1])


@pytest.mark.parametrize("combine, ca, cb, c", [
    (stem_product, 1.0, 1.0, 1.0),
    (stem_product, 1.5, B, 1.5 * B),
    (stem_star, A, B, np.array(hamilton(A, B))),
], ids=["scalar", "scalar_vector", "star"])
def test_product_derivative_evaluates_each_order_of_each_factor_once(combine, ca, cb, c):
    calls_a, calls_b = Counter(), Counter()
    d = combine(counted_exp(calls_a, coeff=ca), counted_exp(calls_b, coeff=cb))
    for _ in range(8):
        d = d.derivative_stem()
    z = complex(1.3, 0.4)
    got = d(z)
    assert calls_a == calls_b == Counter(range(9))
    # (ca e^z)(cb e^z) = c e^(2z), whose 8th derivative is 2^8 c e^(2z)
    want = 2 ** 8 * cmath.exp(2 * z) * c
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.fixture
def quadratures(monkeypatch):
    """Counts the transform quadratures that start."""
    calls = Counter()
    run = quadrature.integrate_adaptive

    def counted(*args, **kwargs):
        calls["quadratures"] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_adaptive", counted)
    return calls


def exp_transform(b):
    return laplace_left(exponential_function(b))


# (name, the rule on fresh transforms, the distinct transform orders its k-th derivative reads)
RULES = [
    ("heaviside_shift", lambda: heaviside_shift(exp_transform(J), 0.5), lambda k: k + 1),
    ("convolution", lambda: laplace_of_convolution(exponential_function(J),
                                                   exponential_function(I)),
     lambda k: 2 * (k + 1)),
    ("derivative_rule_n1", lambda: transform_of_nth_derivative(exp_transform(J), [ONE]),
     lambda k: 2),
    ("derivative_rule_n2", lambda: transform_of_nth_derivative(exp_transform(J), [ONE, J]),
     lambda k: min(k, 2) + 1),
]


@pytest.mark.parametrize("k", [1, 2, 4, 8])
@pytest.mark.parametrize("name, rule, orders", RULES, ids=[r[0] for r in RULES])
def test_rule_derivative_runs_one_quadrature_per_order(quadratures, name, rule, orders, k):
    derivative_of_transform(rule(), k).evaluate(Quaternion(2.0, 0.7, 0.0, 0.0))
    assert quadratures["quadratures"] == orders(k)


def pole_stems():
    b = B_VALUES[0]
    pole = complex(b.w, math.sqrt(b.x ** 2 + b.y ** 2 + b.z ** 2))
    return [(slice_inverse_stem(b, ENTIRE), pole), (stem_div_z(counted_exp(Counter())), 0j)]


def derivatives(stem, orders):
    out = [stem]
    for _ in range(orders - 1):
        out.append(out[-1].derivative_stem())
    return out


@pytest.mark.parametrize("stem, pole", pole_stems(), ids=["slice_inverse", "div_z"])
def test_pole_radius_does_not_grow_with_the_order(stem, pole):
    for angle in (0.0, 2.0, 4.0):
        step = cmath.exp(1j * angle)
        for d in derivatives(stem, 5):
            assert np.all(np.isfinite(d(pole + 1e-9 * step)))
        for d in derivatives(stem, 9):
            with pytest.raises(PoleError):
                d(pole + 1e-13 * step)
