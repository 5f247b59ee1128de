"""The quotient stems (rational stems and the integral rule) at every order."""

import cmath
import math
from collections import Counter

import mpmath
import numpy as np
import pytest

from sliceregular.errors import PoleError
from sliceregular.laplace import exp_transform_closed_form, transform_of_integral
from sliceregular.quaternion import Quaternion
from sliceregular.regions import half_plane
from sliceregular.series import Side
from sliceregular.slicefn import cauchy_kernel, cauchy_kernel_right
from sliceregular.stems import ENTIRE, IntrinsicStem, slice_inverse_stem, stem_div_z

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


def reference_derivatives(b, sign, divided, z, n):
    """Orders 0..n at 50 digits (mpmath.diffs) of each component of
    sign (z^2 - 2 b0 z + |b|^2)^(-1) (z - conj b), over z if divided."""
    conj = (b.w, -b.x, -b.y, -b.z)
    out = []
    with mpmath.workdps(50):
        for m in range(4):
            def component(s, m=m):
                num = sign * (s - conj[0] if m == 0 else -conj[m])
                value = num / (s * s - 2 * b.w * s + b.norm_sq())
                return value / s if divided else value
            out.append([complex(d) for d in mpmath.diffs(component, mpmath.mpc(z), n)])
    return [list(row) for row in zip(*out)]


@pytest.mark.parametrize("b", B_VALUES, ids=str)
@pytest.mark.parametrize("name, build, sign, divided", BUILDERS, ids=[b[0] for b in BUILDERS])
def test_slice_derivatives_match_mpmath(b, name, build, sign, divided):
    stem = build(b).stem
    for z in (complex(1.9, 0.6), complex(2.4, -1.3)):
        d = stem
        for n, want in enumerate(reference_derivatives(b, sign, divided, z, 8)):
            got = d(z).tolist()
            for m in range(4):
                assert abs(got[m] - want[m]) <= 1e-12 * abs(want[m]), (n, m, got[m], want[m])
            d = d.derivative_stem()


def counted_exp(calls: Counter, order: int = 0) -> IntrinsicStem:
    """exp, whose evaluators count their calls by derivative order."""

    def ev(z):
        calls[order] += 1
        return cmath.exp(z), 0.0

    return IntrinsicStem._with_error(ev, half_plane(0.0), lambda: counted_exp(calls, order + 1),
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
