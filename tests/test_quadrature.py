import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceregular import quadrature
from sliceregular.errors import AccuracyError, UsageError
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


def test_budget_exhaustion_carries_achieved_bound(monkeypatch):
    # |t|^0.1-style cusp cannot reach 1e-15 with 8 panels
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    with pytest.raises(AccuracyError) as info:
        integrate_adaptive(lambda t: np.sqrt(np.abs(t - 0.37))[:, None],
                           0.0, 1.0, abs_tol=1e-15)
    assert info.value.achieved > 0


def test_large_constant_has_no_weight_error_floor():
    # truncated Kronrod weights leave an error floor proportional to |f|
    value, err = integrate_adaptive(lambda t: np.full((t.size, 1), 1e6), 0.0, 1.0, abs_tol=1e-10)
    assert value[0] == 1e6 and err <= 1e-10


def test_convolve_large_constant():
    big, one = constant_function(Quaternion.real(1e6)), constant_function(ONE)
    assert convolve(big, one, 1.0) == Quaternion.real(1e6)


def test_empty_interval():
    shapes = []

    def fn(t):
        shapes.append(t.shape)
        return np.ones((t.size, 3), dtype=complex)

    value, err = integrate_adaptive(fn, 1.0, 1.0, abs_tol=1e-12)
    assert value.tolist() == [0j] * 3 and err.tolist() == [0.0] * 3
    # the integrand sees whole panels only, here the one degenerate panel [1, 1]
    assert shapes == [(quadrature._XGK.size,)]


def test_deterministic():
    def wiggle(t):
        return (np.sin(7 * t) / (1 + t))[:, None]

    a = integrate_adaptive(wiggle, 0.0, 10.0, abs_tol=1e-11)
    b = integrate_adaptive(wiggle, 0.0, 10.0, abs_tol=1e-11)
    assert a[0][0] == b[0][0] and a[1] == b[1]


@pytest.mark.parametrize("A, k, c, B, abs_tol", [
    (76758352.98756166, 1395.7683875217492, 0.5322461972191177, 0.2093374164176942,
     2.3234411155579723e-12),
    (44689879.14071018, 1014.1705239044593, 0.23569061322143303, -0.06123603115276599,
     1.893700273010525e-12),
    (18150557.7951894, 458.3856396148802, 0.4945839206501871, -0.17152975333759923,
     1.7565792896491341e-12),
], ids=["below rounding", "a", "b"])
def test_returned_component_errors_sum_to_at_most_abs_tol(A, k, c, B, abs_tol):
    # large first panels whose error rounding a running total would keep
    def fn(t):
        f = A * np.exp(-k * np.abs(t - c))
        return np.stack([f, B * f], axis=1)

    try:
        _, err = integrate_adaptive(fn, 0.0, 1.0, abs_tol=abs_tol, breakpoints=[c])
    except AccuracyError as exc:
        assert exc.achieved > 0
    else:
        assert math.fsum(err) <= abs_tol


@pytest.mark.parametrize("fn, b, abs_tol, breakpoints", [
    # panel errors near 1e307 whose sum leaves the float range
    (lambda t: (1e303 * np.sin(t))[:, None], 1e6, 1e-10, np.arange(1, 100) * 1e4),
    # a converged value beyond the float range
    (lambda t: np.full((t.size, 1), 5e307), 4.0, 1e300, [2.0]),
], ids=["error", "value"])
def test_sums_beyond_the_float_range_raise_with_an_infinite_bound(fn, b, abs_tol, breakpoints):
    with pytest.raises(AccuracyError) as info:
        integrate_adaptive(fn, 0.0, b, abs_tol=abs_tol, breakpoints=breakpoints)
    assert info.value.achieved == math.inf


def _split_into_panels(t):
    """The (lo, hi) of each whole panel whose Kronrod nodes make up t."""
    xgk = quadrature._XGK
    assert t.ndim == 1 and t.size % xgk.size == 0
    out = []
    for nodes in t.reshape(-1, xgk.size):
        mid, half = nodes[xgk.size // 2], (nodes[-1] - nodes[0]) / (2 * xgk[-1])
        assert np.allclose(nodes, mid + half * xgk, rtol=0, atol=1e-14)
        out.append((round(mid - half, 12), round(mid + half, 12)))
    return out


def test_integrand_called_once_per_batch_of_panels():
    calls, panels = [], []

    def wiggle(t):
        calls.append(_split_into_panels(t))
        panels.extend(calls[-1])
        return (np.sin(7 * t) / (1 + t))[:, None]

    integrate_adaptive(wiggle, 0.0, 10.0, abs_tol=1e-11, breakpoints=[3.0])
    assert calls[0] == [(0.0, 3.0), (3.0, 10.0)]  # the initial panels, in one call
    assert len(set(panels)) == len(panels)  # no panel is evaluated twice
    # two initial panels, then two children for each bisected panel
    bisected = [(lo, hi) for lo, hi in panels if (lo, round(0.5 * (lo + hi), 12)) in panels]
    assert len(panels) == 2 + 2 * len(bisected) and len(bisected) > 0
    # a call holds the halves of every panel certain to be bisected
    assert len(calls) - 1 < len(bisected)
    assert all(len(call) % 2 == 0 for call in calls[1:])


def test_panels_too_narrow_to_bisect_raise_with_the_bound():
    # the one panel is narrower than the bisection floor but far from converged
    with pytest.raises(AccuracyError) as info:
        integrate_adaptive(lambda t: (1e30 * np.sin(1e14 * t))[:, None],
                           0.0, 5e-13, abs_tol=1e-10)
    assert info.value.achieved > 1e-10


@np.errstate(over="ignore", invalid="ignore")
def _one_panel_per_call(fn, a, b, *, abs_tol, breakpoints=()):
    """The round loop in plain Python, evaluating one panel per integrand call: the reference.

    Each round bisects every wide panel the loop is certain to bisect: the
    top-ranked one, and each next one while the panels ranked at or below it,
    with the narrow ones, hold more than abs_tol.
    """
    xgk, weights = quadrature._XGK, quadrature._WEIGHTS

    def panel(lo, hi):
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        kronrod, deviation = half * (weights @ fn(mid + half * xgk))
        return lo, hi, kronrod, np.abs(deviation), float(np.abs(deviation).sum())

    edges = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    panels = [panel(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    min_width = 1e-12 * (b - a + 1.0)
    while True:
        for lo, hi, val, _, err in sorted(panels, key=lambda p: p[0]):
            if not (np.isfinite(val).all() and math.isfinite(err)):
                raise AccuracyError(f"integrand is not finite on [{lo:g}, {hi:g}]",
                                    achieved=math.inf)
        rows = [math.fsum(p[3][k] for p in panels) for k in range(panels[0][3].size)]
        total = math.fsum(rows)
        if total <= abs_tol:
            break
        if len(panels) >= quadrature.MAX_PANELS:
            raise AccuracyError("quadrature subdivision budget exhausted", achieved=total)
        ranked = sorted((p for p in panels if p[1] - p[0] >= min_width),
                        key=lambda p: (-p[4], p[0]))
        if not ranked:
            raise AccuracyError("quadrature panels too narrow to bisect further",
                                achieved=total)
        taken, ahead = ranked[:1], ranked[0][4]
        for p in ranked[1:quadrature.MAX_PANELS - len(panels)]:
            if not ahead < total - abs_tol:
                break
            taken.append(p)
            ahead += p[4]
        halves = [panel(lo, 0.5 * (lo + hi)) for lo, hi, *_ in taken]
        halves += [panel(0.5 * (lo + hi), hi) for lo, hi, *_ in taken]
        cut = {p[0] for p in taken}
        panels = [p for p in panels if p[0] not in cut] + halves
    vals = [p[2] for p in panels]
    re = [math.fsum(v[k].real for v in vals) for k in range(vals[0].size)]
    if not np.iscomplexobj(vals[0]):
        return np.array(re), np.array(rows)
    im = [math.fsum(v[k].imag for v in vals) for k in range(vals[0].size)]
    return np.array([complex(x, y) for x, y in zip(re, im)]), np.array(rows)


def _run_recording(engine, fn, *args, **kwargs):
    """(outcome, sorted bytes of every evaluated panel's nodes) of one run.

    The outcome is the bits of the value and error, or the message and
    the bits of the achieved bound of the AccuracyError raised.
    """
    panels = []

    def recorded(t):
        panels.extend(nodes.tobytes() for nodes in t.reshape(-1, quadrature._XGK.size))
        return np.asarray(fn(t))

    try:
        value, err = engine(recorded, *args, **kwargs)
        outcome = (value.view(np.uint64).tolist(), np.asarray(err).view(np.uint64).tolist())
    except AccuracyError as exc:
        outcome = (str(exc), np.float64(exc.achieved).view(np.uint64))
    return outcome, sorted(panels)


def _agree(got, want):
    """The engine's outcome is the reference's, bit for bit, and it evaluates
    exactly the panels the reference does, none twice."""
    assert got[0] == want[0]  # value and error, or the raised message and bound
    assert len(set(got[1])) == len(got[1])
    assert got[1] == want[1]


def _edge_integrand(monkeypatch):
    """The integrand, interval and options of laplace_left(e^{jt}) at s = 0.2 + 30i."""
    seen = []

    def capture(fn, a, b, **kwargs):
        seen.append((fn, a, b, kwargs))
        return integrate_adaptive(fn, a, b, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "integrate_adaptive", capture)
        laplace_left(exponential_function(J)).evaluate_with_error(slice_embed(0.2, 30.0, I))
    (fn, a, b, kwargs), = seen
    return (fn, a, b), kwargs


PINNED = {
    "wiggle": ((lambda t: (np.sin(7 * t) / (1 + t))[:, None], 0.0, 10.0),
               dict(abs_tol=1e-11, breakpoints=[3.0])),
    "damped cosine": ((lambda t: (np.exp(-t) * np.cos(10 * t))[:, None], 0.0, 20.0),
                      dict(abs_tol=1e-12)),
    "step": ((lambda t: np.where(t >= 1.0, 1.0, 0.0)[:, None], 0.0, 2.0),
             dict(abs_tol=1e-12, breakpoints=[1.0])),
    "cusp on a budget": ((lambda t: np.sqrt(np.abs(t - 0.37))[:, None], 0.0, 1.0),
                         dict(abs_tol=1e-15, max_panels=8)),
}


@pytest.mark.parametrize("case", [*PINNED, "near-edge transform"])
def test_engine_matches_one_panel_per_call_bit_for_bit(case, monkeypatch):
    args, kwargs = PINNED[case] if case in PINNED else _edge_integrand(monkeypatch)
    # a pinned max_panels is the panel budget of both engines
    kwargs = dict(kwargs)
    monkeypatch.setattr(quadrature, "MAX_PANELS", kwargs.pop("max_panels", quadrature.MAX_PANELS))
    got = _run_recording(integrate_adaptive, *args, **kwargs)
    want = _run_recording(_one_panel_per_call, *args, **kwargs)
    _agree(got, want)


def _term(kind, x, length):
    """A cusp |t - c|^(1/2), an oscillation sin(w t)/(1 + t) or a step at a
    breakpoint c, placed by x in [0, 1]: (map, breakpoints)."""
    c = x * length
    if kind == "cusp":
        return (lambda t: np.sqrt(np.abs(t - c))), []
    if kind == "oscillation":
        return (lambda t: np.sin((1.0 + 30.0 * x) * t) / (1.0 + t)), []
    return (lambda t: np.where(t >= c, 1.0, 0.0)), [c]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_engine_matches_one_panel_per_call_on_drawn_integrands(data):
    length = data.draw(st.floats(0.5, 10.0))
    k = data.draw(st.integers(1, 4))
    coef = (st.complex_numbers(max_magnitude=2.0) if data.draw(st.booleans())
            else st.floats(-2.0, 2.0))
    term = st.tuples(st.sampled_from(["cusp", "oscillation", "step"]), st.floats(0.0, 1.0),
                     st.lists(coef, min_size=k, max_size=k))
    terms = data.draw(st.lists(term, min_size=1, max_size=3))
    abs_tol = data.draw(st.floats(-14.0, -6.0).map(lambda e: 10.0 ** e))
    parts = [(*_term(kind, x, length), np.array(c)) for kind, x, c in terms]

    def fn(t):
        return sum(np.multiply.outer(f(t), c) for f, _, c in parts)

    breakpoints = [p for _, points, _ in parts for p in points]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "MAX_PANELS", data.draw(st.integers(4, 60)))
        _agree(_run_recording(integrate_adaptive, fn, 0.0, length, abs_tol=abs_tol,
                              breakpoints=breakpoints),
               _run_recording(_one_panel_per_call, fn, 0.0, length, abs_tol=abs_tol,
                              breakpoints=breakpoints))


@pytest.mark.parametrize("a, b, abs_tol", [(1.0, 0.0, 1e-10), (0.0, math.nan, 1e-10),
                                           (0.0, math.inf, 1e-10), (-math.inf, 0.0, 1e-10),
                                           (0.0, 1.0, math.nan), (0.0, 1.0, 0.0),
                                           (0.0, 1.0, -1e-10), (0.0, 1.0, math.inf)])
def test_malformed_interval_or_tolerance_raises_usage_error(a, b, abs_tol):
    calls = []

    def fn(t):
        calls.append(t)
        return np.ones((t.size, 1))

    with pytest.raises(UsageError):
        integrate_adaptive(fn, a, b, abs_tol=abs_tol)
    assert calls == []


def test_near_edge_transform_takes_a_third_of_the_calls_of_its_bisections(monkeypatch):
    (fn, a, b), kwargs = _edge_integrand(monkeypatch)
    calls = []

    def counted(t):
        calls.append(t.size // quadrature._XGK.size)
        return fn(t)

    integrate_adaptive(counted, a, b, **kwargs)
    bisections = (sum(calls) - calls[0]) // 2
    assert bisections > 300 and 3 * len(calls) <= bisections


def _poisoned(fn, nodes):
    """fn with NaN at the given time nodes."""
    return lambda t: np.where(np.isin(t, nodes)[:, None], np.nan, fn(t))


def test_nan_in_a_half_raises_naming_the_first_such_half_in_lo_order():
    (fn, a, b), kwargs = PINNED["wiggle"]
    calls = []
    integrate_adaptive(lambda t: calls.append(t.copy()) or fn(t), a, b, **kwargs)
    # every half of the second round: the call after the initial panels' and the first round's
    halves = calls[2]
    (lo, hi), *_ = sorted(_split_into_panels(halves))
    assert _split_into_panels(halves)[0] != (lo, hi)  # lo order is not the call's order
    poisoned = _poisoned(fn, halves)
    got = _run_recording(integrate_adaptive, poisoned, a, b, **kwargs)
    want = _run_recording(_one_panel_per_call, poisoned, a, b, **kwargs)
    assert got[0] == (f"integrand is not finite on [{lo:g}, {hi:g}] (achieved error bound inf)",
                      np.float64(math.inf).view(np.uint64))
    _agree(got, want)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(1e-9, 40.0)), min_size=1, max_size=9),
       st.lists(st.complex_numbers(max_magnitude=3.0), min_size=1, max_size=6),
       st.booleans())
def test_batched_panels_equal_single_panel_calls(panels, rates, real):
    rates = np.array(rates)

    def fn(t):
        values = np.exp(np.multiply.outer(np.cos(t), rates)) + np.multiply.outer(t, rates)
        return values.real if real else values

    lo = [start for start, _ in panels]
    hi = [start + width for start, width in panels]
    vals, errs = quadrature._panels(fn, lo, hi)
    for i, (a, b) in enumerate(zip(lo, hi)):
        val, err = quadrature._panels(fn, [a], [b])
        assert vals[i].view(np.uint64).tolist() == val[0].view(np.uint64).tolist()
        assert errs[i].view(np.uint64).tolist() == err[0].view(np.uint64).tolist()


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
