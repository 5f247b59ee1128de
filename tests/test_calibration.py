"""Calibration of the transform engine's error bounds near the edge of the half-plane.

Each component of a transform stem is compared with its closed form, computed
in mpmath at 30 digits, at points Re z - a in {0.05, 0.3, 2} and Im z in
{0, 3, 12}.  A returned component must lie within its own error bound; an
AccuracyError is accepted, because raising is honest.  The known failures
are strict xfails, so a fix shows as an xfail that starts passing.
"""

import mpmath
import pytest

from sliceregular.errors import AccuracyError
from sliceregular.laplace import laplace_left
from sliceregular.timefunctions import time_function_from_json

SPECS = {
    "exp_i": {"kind": "exp", "b": [0, 1, 0, 0]},
    "exp_decaying": {"kind": "exp", "b": [-0.5, 0, 2, 1]},
    "exp_growing": {"kind": "exp", "b": [0.5, 0, 0, 1.5]},
    "heaviside_exp": {"kind": "heaviside_shift", "shift": 1.3,
                      "inner": {"kind": "exp", "b": [0.2, 1, 1, 0]}},
    "poly_2": {"kind": "poly", "coeffs": [[1, 0, 0, 0], [0, 0.5, -1, 0], [0.25, 0, 0, 2]]},
}

DISTANCES = (0.05, 0.3, 2.0)
IMAGINARY_PARTS = (0.0, 3.0, 12.0)


def reference(spec: dict, z: complex) -> list:
    """The four components of the transform's stem at z, in closed form."""
    z = mpmath.mpc(z)
    kind = spec["kind"]
    if kind == "exp":
        # L[e^{wt} cos rt] = (z-w)/D and L[e^{wt} sin rt] = r/D, D = (z-w)^2 + r^2
        w, v = spec["b"][0], spec["b"][1:]
        den = (z - w) ** 2 + sum(mpmath.mpf(c) ** 2 for c in v)
        return [(z - w) / den] + [c / den for c in v]
    if kind == "heaviside_shift":
        factor = mpmath.exp(-spec["shift"] * z)
        return [factor * c for c in reference(spec["inner"], z)]
    if kind == "poly":
        # L[t^n] = n! / z^{n+1}
        return [sum(c[m] * mpmath.factorial(n) / z ** (n + 1)
                    for n, c in enumerate(spec["coeffs"])) for m in range(4)]
    raise ValueError(kind)


def assert_within_bounds(spec: dict, z: complex) -> None:
    values, errors = laplace_left(time_function_from_json(spec)).fn.stem.eval_with_error(z)
    with mpmath.workdps(30):
        ref = reference(spec, z)
        for m in range(4):
            miss = float(abs(mpmath.mpc(complex(values[m])) - ref[m]))
            assert miss <= errors[m], (
                f"component {m} at z = {z}: |value - reference| = {miss:.3e} "
                f"exceeds its bound {errors[m]:.3e}")


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("distance", DISTANCES)
@pytest.mark.parametrize("im", IMAGINARY_PARTS)
def test_components_lie_within_their_error_bounds(name, distance, im):
    spec = SPECS[name]
    a = time_function_from_json(spec).growth.a
    try:
        assert_within_bounds(spec, complex(a + distance, im))
    except AccuracyError:
        pass


@pytest.mark.xfail(strict=True, raises=AccuracyError,
                   reason="e^{t} overflows at the truncation point before the kernel damps it")
def test_shared_exponent_at_the_edge():
    # the true value is 1 / (z - 1) = 1e4
    assert_within_bounds({"kind": "exp", "b": [1, 0, 0, 0]}, complex(1.0001, 0.0))


def test_declared_window_far_past_the_decay():
    # the first panels [0, 1], [1, 2], [2, 4], ... see e^{-t} although T* >= 1e6;
    # the true value is 1 / (z - i) = 0.8 + 0.4i
    spec = {"kind": "exp", "b": [0, 1, 0, 0], "exp_order": {"a": 0, "K": 1, "T": 1e6}}
    assert_within_bounds(spec, complex(1.0, 0.5))
