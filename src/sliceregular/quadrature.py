"""Adaptive panel quadrature with an embedded Gauss-Kronrod error estimate.

The integrand is a real or complex vector (the four components of a
quaternion integrand, or the four complex component transforms of a Laplace
transform, are integrated together) and is evaluated on several panels per
call: it maps the (21 p,) array of the Kronrod nodes of p panels, panel
after panel, to the (21 p, k) array of its values there, and a node's value
may not depend on the other nodes of the call.  The panel rule is
QUADPACK's qk21 (Piessens et al., QUADPACK, 1983): each panel's error
estimate is the componentwise modulus of the deviation between the 21-point
Kronrod value and the embedded 10-point Gauss value, weighed in one product
with the difference of the two weight rows.  Breakpoints force panel
boundaries so that jump discontinuities never sit inside a panel, and the
panel with the largest summed component error is bisected until the total
over all panels and components meets the tolerance or the panel budget is
exhausted; the result carries each component's own summed error, so the
component errors add up to at most the tolerance.  The initial panels
share one call, and one call evaluates the halves of every panel the loop
is certain to bisect: the popped panel, and each panel while the panels
ranked below it in the heap, with the frozen ones, hold more than the
tolerance, for the loop cannot stop before it pops that panel.  A
panel's sums do not depend on the panels evaluated with it, so every
value, error and raised bound is that of evaluating one panel per call.
Running out of budget, or of panels wide enough to bisect, raises
AccuracyError carrying the achieved bound; a panel with a non-finite
value raises it with an infinite one when it is taken into the sum, so a
half evaluated ahead and never popped changes nothing.  Splitting
decisions depend only on the integrand and the interval, so repeated
calls are deterministic.
"""

from __future__ import annotations

import cmath
import heapq
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import AccuracyError, UsageError

__all__ = ["integrate_adaptive"]

# QUADPACK qk21 on [-1, 1]: the 21 Kronrod nodes in ascending order and their
# weights, and the weights of the 10-point Gauss rule on the odd-indexed
# nodes.  Full-precision values: the Kronrod weights must sum to 2 to the
# last digit, or every panel carries an error floor proportional to the size
# of the integrand.
_XGK = np.array([
    -0.995657163025808080735527280689003, -0.973906528517171720077964012084452,
    -0.930157491355708226001207180059508, -0.865063366688984510732096688423493,
    -0.780817726586416897063717578345042, -0.679409568299024406234327365114874,
    -0.562757134668604683339000099272694, -0.433395394129247190799265943165784,
    -0.294392862701460198131126603103866, -0.148874338981631210884826001129720,
    0.0,
    0.148874338981631210884826001129720, 0.294392862701460198131126603103866,
    0.433395394129247190799265943165784, 0.562757134668604683339000099272694,
    0.679409568299024406234327365114874, 0.780817726586416897063717578345042,
    0.865063366688984510732096688423493, 0.930157491355708226001207180059508,
    0.973906528517171720077964012084452, 0.995657163025808080735527280689003,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332,
])
# rows: the Kronrod weights, and Kronrod minus Gauss.  Weighing the values
# with the difference row directly, rather than subtracting two separately
# rounded sums, keeps the error of a smooth panel free of a rounding floor
# proportional to the size of the integrand.
_WEIGHTS = np.stack([_WGK, _WGK])
_WEIGHTS[1, 1::2] -= _WG

#: panels one integration may hold before it raises AccuracyError
MAX_PANELS = 400

#: an integrand: the (21 p,) Kronrod nodes of p panels, panel after panel,
#: -> the (21 p, k) values there; a node's value may not depend on the others
Integrand = Callable[[np.ndarray], np.ndarray]


def _panels(fn: Integrand, lo: Sequence[float],
            hi: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and componentwise |Kronrod - Gauss| of the panels [lo, hi].

    One integrand call evaluates every panel, and one stacked product
    reduces each panel exactly as a product on that panel alone would, so a
    panel's sums do not depend on the panels evaluated with it.  A
    non-finite value is returned as it is.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    values = np.asarray(fn((mid[:, None] + half[:, None] * _XGK).ravel()))
    sums = half[:, None, None] * (_WEIGHTS @ values.reshape(lo.size, _XGK.size, -1))
    return sums[:, 0], np.abs(sums[:, 1])


def _certain(heap: list, slack: float, room: int, min_width: float) -> list[tuple[float, float]]:
    """The (lo, hi) of the heap's panels the loop is certain to bisect, in key order.

    A panel is certain while the slack, the total error less the tolerance
    and the errors of the panels ahead of it and its own, stays positive:
    until it is popped, the panels behind it keep the total above the
    tolerance.  Panels narrower than min_width are frozen, not bisected,
    and the walk stops after room bisections.  The heap is walked lazily
    through a frontier of indices; the children of i are 2i+1 and 2i+2.
    """
    certain: list[tuple[float, float]] = []
    frontier = [(heap[0][:2], 0)] if heap else []
    while frontier and len(certain) < room:
        (neg_err, lo), i = heapq.heappop(frontier)
        slack += neg_err
        if not slack > 0.0:
            break
        hi = heap[i][2]
        if hi - lo >= min_width:
            certain.append((lo, hi))
        for child in (2 * i + 1, 2 * i + 2):
            if child < len(heap):
                heapq.heappush(frontier, (heap[child][:2], child))
    return certain


# overflow shows as a non-finite panel, which raises
@np.errstate(over="ignore", invalid="ignore")
def integrate_adaptive(fn: Integrand, a: float, b: float, *, abs_tol: float,
                       breakpoints: Iterable[float] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a vector-valued integrand over [a, b].

    Returns (value, componentwise summed error estimate), whose components
    sum to at most abs_tol; raises AccuracyError carrying the achieved
    bound when the panel budget runs out first or every panel left is too
    narrow to bisect, and an infinite one when a panel taken into the sum
    (an initial panel, or the left and then the right half of a popped
    one) is not finite.  One integrand call evaluates the halves of every
    panel the loop is certain to bisect, and the values, errors and raised
    bounds are those of evaluating one panel per call.  UsageError when
    a > b, an end is not finite or abs_tol is not positive and finite.
    """
    if not -math.inf < a <= b < math.inf:
        raise UsageError(f"integration interval needs finite a <= b, got [{a!r}, {b!r}]")
    # NaN fails every comparison, so it would never stop the loop
    if not 0.0 < abs_tol < math.inf:
        raise UsageError(f"abs_tol must be positive and finite, got {abs_tol!r}")
    if b == a:
        probe = np.asarray(fn(np.array([a])))[0]
        return np.zeros_like(probe), np.zeros(probe.shape)
    edges = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    # live panels have distinct lo, so (-err, lo) orders the heap
    heap: list[tuple[float, float, float, np.ndarray, np.ndarray]] = []
    total_err = 0.0
    total_val: np.ndarray | None = None

    def take(lo: float, hi: float, val: np.ndarray, errs: np.ndarray) -> None:
        """Add a panel to the sum and the heap; a non-finite one raises."""
        nonlocal total_val, total_err
        # cmath on the list: a third of the cost of np.isfinite on a few components
        if not all(map(cmath.isfinite, val.tolist())):
            raise AccuracyError(f"integrand is not finite on [{lo:g}, {hi:g}]",
                                achieved=math.inf)
        err = float(errs.sum())
        total_val = val if total_val is None else total_val + val
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, val, errs))

    for lo, hi, val, errs in zip(edges[:-1], edges[1:], *_panels(fn, edges[:-1], edges[1:])):
        take(lo, hi, val, errs)
    n_panels = len(edges) - 1
    min_width = 1e-12 * (b - a + 1.0)
    frozen_err = 0.0
    frozen = []
    # lo of a live panel -> the values and errors of its two halves
    halves: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    while total_err + frozen_err > abs_tol and heap:
        if n_panels >= MAX_PANELS:
            raise AccuracyError("quadrature subdivision budget exhausted",
                                achieved=total_err + frozen_err)
        neg_err, lo, hi, val, errs = heapq.heappop(heap)
        err = -neg_err
        if hi - lo < min_width:
            # cannot refine further; count its error as irreducible
            frozen_err += err
            total_err -= err
            frozen.append(errs)
            continue
        mid = 0.5 * (lo + hi)
        if lo not in halves:
            batch = [(lo, hi)] + [
                panel for panel in _certain(heap, total_err + frozen_err - abs_tol - err,
                                            MAX_PANELS - n_panels - 1, min_width)
                if panel[0] not in halves]
            vals, errss = _panels(fn, [x for p, q in batch for x in (p, 0.5 * (p + q))],
                                  [x for p, q in batch for x in (0.5 * (p + q), q)])
            halves.update(zip((p for p, _ in batch),
                              zip(vals.reshape(len(batch), 2, -1),
                                  errss.reshape(len(batch), 2, -1))))
        (lval, rval), (lerrs, rerrs) = halves.pop(lo)
        total_val, total_err = total_val - val, total_err - err
        take(lo, mid, lval, lerrs)
        take(mid, hi, rval, rerrs)
        n_panels += 1
    if total_err + frozen_err > abs_tol:
        raise AccuracyError("quadrature panels too narrow to bisect further",
                            achieved=total_err + frozen_err)
    return total_val, sum(frozen + [entry[-1] for entry in heap])
