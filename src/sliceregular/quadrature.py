"""Adaptive panel quadrature with an embedded Gauss-Kronrod error estimate.

The integrand is a real or complex vector (the four components of a
quaternion integrand, or the four complex component transforms of a Laplace
transform, are integrated together) and is evaluated once per panel: it
maps the (15,) array of the panel's Kronrod nodes to the (15, k) array of
its values there.  Each panel's error estimate is the componentwise modulus
of the deviation between the 15-point Kronrod value and the embedded
7-point Gauss value.  Breakpoints force panel boundaries so that jump
discontinuities never sit inside a panel, and the panel with the largest
summed component error is bisected until the total over all panels and
components meets the tolerance or the panel budget is exhausted; the result
carries each component's own summed error, so the component errors add up
to at most the tolerance.  A panel with a non-finite value raises
AccuracyError with an infinite bound.  Splitting decisions depend only on
the integrand and the interval, so repeated calls are deterministic.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable

import numpy as np

from .errors import AccuracyError

__all__ = ["integrate_adaptive"]

# 15-point Kronrod nodes on [-1, 1] and weights; the 7 Gauss nodes are the
# odd-indexed entries.  Full-precision QUADPACK qk15 values: the weights must
# sum to 2 to the last digit, or every panel carries an error floor
# proportional to the size of the integrand.
_XGK = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144838258730, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
# rows: the Kronrod weights and the Gauss weights on the odd-indexed nodes
_WEIGHTS = np.zeros((2, 15))
_WEIGHTS[0] = _WGK
_WEIGHTS[1, 1::2] = _WG


#: an integrand: the (15,) nodes of one panel -> the (15, k) values there
Integrand = Callable[[np.ndarray], np.ndarray]


def _gk15(fn: Integrand, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod value and componentwise |Kronrod - Gauss| of one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    values = np.asarray(fn(mid + half * _XGK))
    kronrod, gauss = half * (_WEIGHTS @ values)
    if not np.isfinite(kronrod).all():
        raise AccuracyError(f"integrand is not finite on [{a:g}, {b:g}]", achieved=math.inf)
    return kronrod, np.abs(kronrod - gauss)


# overflow shows as a non-finite panel, which raises
@np.errstate(over="ignore", invalid="ignore")
def integrate_adaptive(fn: Integrand, a: float, b: float, *,
                       abs_tol: float, max_panels: int = 400,
                       breakpoints: Iterable[float] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a vector-valued integrand over [a, b].

    Returns (value, componentwise summed error estimate), whose components
    sum to at most abs_tol; raises AccuracyError carrying the achieved
    bound when the panel budget runs out first, and an infinite one when a
    panel's value is not finite.
    """
    if b <= a:
        probe = np.asarray(fn(np.array([a])))[0]
        return np.zeros_like(probe), np.zeros(probe.shape)
    edges = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    counter = 0
    heap: list[tuple[float, float, int, float, np.ndarray, np.ndarray]] = []
    total_err = 0.0
    total_val: np.ndarray | None = None
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, errs = _gk15(fn, lo, hi)
        err = float(errs.sum())
        total_val = val if total_val is None else total_val + val
        total_err += err
        heapq.heappush(heap, (-err, lo, counter, hi, val, errs))
        counter += 1
    n_panels = len(edges) - 1
    min_width = 1e-12 * (b - a + 1.0)
    frozen_err = 0.0
    frozen = []
    while total_err + frozen_err > abs_tol and heap:
        if n_panels >= max_panels:
            raise AccuracyError("quadrature subdivision budget exhausted",
                                achieved=total_err + frozen_err)
        neg_err, lo, _, hi, val, errs = heapq.heappop(heap)
        err = -neg_err
        if hi - lo < min_width:
            # cannot refine further; count its error as irreducible
            frozen_err += err
            total_err -= err
            frozen.append(errs)
            continue
        mid = 0.5 * (lo + hi)
        lval, lerrs = _gk15(fn, lo, mid)
        rval, rerrs = _gk15(fn, mid, hi)
        lerr, rerr = float(lerrs.sum()), float(rerrs.sum())
        total_val = total_val - val + lval + rval
        total_err = total_err - err + lerr + rerr
        heapq.heappush(heap, (-lerr, lo, counter, mid, lval, lerrs))
        counter += 1
        heapq.heappush(heap, (-rerr, mid, counter, hi, rval, rerrs))
        counter += 1
        n_panels += 1
    return total_val, sum(frozen + [entry[-1] for entry in heap])
