"""Transforms of every JSON kind, on both sides, within their error bound of a closed form.

The closed forms come from the benchmark's `bench/reference.py`, loaded by
path: it imports nothing from `sliceregular` and sums the classical
transform of each term of a spec, so the sum, scale and right transforms are
checked here against an independent computation.  The allowance beyond
`est_error` is the reference's own rounding, a few eps of the value.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sliceregular.laplace import laplace_left, laplace_right
from sliceregular.quaternion import Quaternion
from sliceregular.timefunctions import time_function_from_json

_PATH = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
_SPEC = importlib.util.spec_from_file_location("bench_reference", _PATH)
ref = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ref)

EXP = {"kind": "exp", "b": [0.3, 0.6, -0.8, 0.4]}
POLY = {"kind": "poly", "coeffs": [[1.0, -0.5, 0.25, 0.0], [0.0, 0.5, 0.0, -1.0],
                                   [0.125, 0.0, 0.25, 0.0]]}
SPECS = {
    "exp": EXP,
    "poly": POLY,
    "heaviside_shift": {"kind": "heaviside_shift", "shift": 0.7,
                        "inner": {"kind": "exp", "b": [0.1, 0.0, 1.2, 0.0]}},
    "sum": {"kind": "sum", "terms": [EXP, POLY, {"kind": "heaviside_shift", "shift": 1.5,
                                                  "inner": POLY}]},
    "scale_left": {"kind": "scale", "factor": [0.5, -1.0, 0.25, 0.75], "where": "left",
                   "inner": EXP},
    "scale_right": {"kind": "scale", "factor": [0.5, -1.0, 0.25, 0.75], "where": "right",
                    "inner": EXP},
}
TRANSFORMS = {"left": laplace_left, "right": laplace_right}
UNIT = (0.0, 2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0)


@pytest.mark.parametrize("im", [0.0, 5.5])
@pytest.mark.parametrize("distance", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("side", TRANSFORMS)
@pytest.mark.parametrize("kind", SPECS)
def test_transform_lies_within_its_error_bound_of_the_closed_form(kind, side, distance, im):
    spec = SPECS[kind]
    s = (ref.abscissa(spec) + distance, *(im * u for u in UNIT[1:]))
    value, est_error = TRANSFORMS[side](time_function_from_json(spec)).evaluate_with_error(
        Quaternion(*s))
    z, unit = ref.decompose(s)
    want = ref.assemble([ref.eval_terms(terms, z) for terms in ref.transform_terms(spec)],
                        unit, side)
    distance_to_closed_form = sum(abs(a - b) for a, b in zip(value.components(), want))
    assert distance_to_closed_form <= est_error + 4 * np.finfo(float).eps * ref.qnorm(want)
