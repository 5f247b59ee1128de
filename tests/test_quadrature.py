import math

import numpy as np
import pytest

from sliceregular import quadrature
from sliceregular.errors import AccuracyError
from sliceregular.laplace import convolve, exp_transform_closed_form, laplace_left
from sliceregular.quadrature import integrate_adaptive
from sliceregular.quaternion import ONE, I, J, Quaternion, slice_embed
from sliceregular.series import Side
from sliceregular.timefunctions import constant_function, exponential_function


def test_polynomial_exact():
    value, err = integrate_adaptive(lambda t: (t * t)[:, None], 0.0, 1.0, abs_tol=1e-12)
    assert abs(value[0] - 1.0 / 3.0) < 1e-14
    assert err < 1e-12


def test_oscillatory_against_closed_form():
    # integral of e^{-t} cos(10 t) over [0, 20]
    value, _ = integrate_adaptive(
        lambda t: (np.exp(-t) * np.cos(10 * t))[:, None], 0.0, 20.0, abs_tol=1e-12)
    closed = (1.0 - math.exp(-20) * (math.cos(200) - 10 * math.sin(200))) / 101.0
    assert abs(value[0] - closed) < 1e-12


def test_breakpoint_handles_jump():
    def step_fn(t):
        return np.where(t >= 1.0, 1.0, 0.0)[:, None]

    value, err = integrate_adaptive(step_fn, 0.0, 2.0, abs_tol=1e-12, breakpoints=[1.0])
    assert abs(value[0] - 1.0) < 1e-13
    assert err < 1e-12


def test_budget_exhaustion_carries_achieved_bound():
    # |t|^0.1-style cusp cannot reach 1e-15 with 8 panels
    with pytest.raises(AccuracyError) as info:
        integrate_adaptive(lambda t: np.sqrt(np.abs(t - 0.37))[:, None],
                           0.0, 1.0, abs_tol=1e-15, max_panels=8)
    assert info.value.achieved > 0


def test_large_constant_has_no_weight_error_floor():
    # truncated Kronrod weights leave an error floor proportional to |f|
    value, err = integrate_adaptive(lambda t: np.full((t.size, 1), 1e6), 0.0, 1.0, abs_tol=1e-10)
    assert value[0] == 1e6 and err <= 1e-10


def test_convolve_large_constant():
    big, one = constant_function(Quaternion.real(1e6)), constant_function(ONE)
    assert convolve(big, one, 1.0) == Quaternion.real(1e6)


def test_empty_interval():
    value, err = integrate_adaptive(lambda t: np.ones((t.size, 1)), 1.0, 1.0, abs_tol=1e-12)
    assert value[0] == 0.0 and err == 0.0


def test_deterministic():
    def wiggle(t):
        return (np.sin(7 * t) / (1 + t))[:, None]

    a = integrate_adaptive(wiggle, 0.0, 10.0, abs_tol=1e-11)
    b = integrate_adaptive(wiggle, 0.0, 10.0, abs_tol=1e-11)
    assert a[0][0] == b[0][0] and a[1] == b[1]


def test_integrand_called_once_per_panel_with_its_nodes():
    panels = []

    def wiggle(t):
        assert t.shape == (quadrature._XGK.size,)
        mid, half = t[t.size // 2], (t[-1] - t[0]) / (2 * quadrature._XGK[-1])
        assert np.allclose(t, mid + half * quadrature._XGK, rtol=0, atol=1e-14)
        panels.append((round(mid - half, 12), round(mid + half, 12)))
        return (np.sin(7 * t) / (1 + t))[:, None]

    integrate_adaptive(wiggle, 0.0, 10.0, abs_tol=1e-11, breakpoints=[3.0])
    assert len(set(panels)) == len(panels)  # no panel is evaluated twice
    # two initial panels, then two children for each bisected panel
    bisected = [(lo, hi) for lo, hi in panels if (lo, round(0.5 * (lo + hi), 12)) in panels]
    assert len(panels) == 2 + 2 * len(bisected) and len(bisected) > 0


def test_non_finite_integrand_raises_with_an_infinite_bound():
    # e^{1000 t} overflows to inf on the panel
    with pytest.raises(AccuracyError) as info:
        integrate_adaptive(lambda t: np.exp(1000 * t)[:, None], 0.0, 1.0, abs_tol=1e-10)
    assert info.value.achieved == math.inf


class TestRule:
    """The panel rule is QUADPACK's qk21: Kronrod 21 points around Gauss 10."""

    def test_gauss_nodes_and_weights_are_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert np.abs(quadrature._XGK[1::2] - nodes).max() <= 1e-15
        assert np.abs(quadrature._WG - weights).max() <= 1e-15

    def test_kronrod_row_is_exact_to_degree_31(self):
        kronrod = quadrature._WEIGHTS[0]
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(kronrod @ quadrature._XGK**k - exact) <= 1e-15, k

    def test_difference_row_annihilates_degree_19_but_not_20(self):
        difference = quadrature._WEIGHTS[1]
        for k in range(20):
            assert abs(difference @ quadrature._XGK**k) <= 1e-15, k
        assert abs(difference @ quadrature._XGK**20) > 1e-6

    def test_weight_sums(self):
        kronrod, difference = quadrature._WEIGHTS
        assert abs(kronrod.sum() - 2.0) <= 1e-15
        assert abs(difference.sum()) <= 1e-15


# laplace_left(e^{jt}) near the edge Re s = 0 of its half-plane, where
# [0, T*] holds many oscillations for the panel budget
EDGE_PROBES = [slice_embed(x, float(y), I) for x in (0.03, 0.05, 0.1, 0.2)
               for y in (0, 2, 5, 10, 15, 20, 30)]


def test_near_edge_values_lie_within_their_error_bound():
    F = laplace_left(exponential_function(J))
    closed = exp_transform_closed_form(J, Side.LEFT)
    evaluated = 0
    for s in EDGE_PROBES:
        try:
            value, err = F.evaluate_with_error(s)
        except AccuracyError as exc:
            assert "budget" in str(exc) and exc.achieved > 0
            continue
        evaluated += 1
        assert (value - closed.evaluate(s)).norm() <= err, s
    assert evaluated > len(EDGE_PROBES) // 2


@pytest.mark.parametrize("s", [slice_embed(0.2, 30.0, I), slice_embed(0.1, 10.0, I)])
def test_near_edge_probes_within_the_panel_budget(s):
    value, err = laplace_left(exponential_function(J)).evaluate_with_error(s)
    closed = exp_transform_closed_form(J, Side.LEFT).evaluate(s)
    assert err <= 1e-10 and (value - closed).norm() <= err
