import math

import numpy as np
import pytest

from sliceregular import quadrature
from sliceregular.errors import AccuracyError
from sliceregular.laplace import convolve
from sliceregular.quadrature import integrate_adaptive
from sliceregular.quaternion import ONE, Quaternion
from sliceregular.timefunctions import constant_function


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
        assert t.shape == (15,)
        mid, half = t[7], (t[-1] - t[0]) / (2 * quadrature._XGK[-1])
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
