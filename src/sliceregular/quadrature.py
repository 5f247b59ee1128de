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
boundaries so that jump discontinuities never sit inside a panel.

The loop runs in rounds over arrays of panels, one integrand call each: the
initial panels, then the halves of every panel the round bisects.  A round
stops when the exactly rounded sum of the component errors is at most the
tolerance; otherwise it ranks the panels wide enough to bisect by their
summed component error and bisects the top one and each next one while the
panels ranked at or below it, with the narrow ones, hold more than the
tolerance, for a loop bisecting one panel at a time could not stop before
it reaches that one (Shampine, J. Comput. Appl. Math. 211, 2008, bisects
in rounds).  The value and each component's error are summed exactly from
the final panels, as QUADPACK's dqagse sums its panel list again at the end,
so a result depends on its panel set alone and its component errors add up
to at most the tolerance.  A panel's sums do not depend on the panels
evaluated with it.  A non-finite panel raises AccuracyError with an
infinite bound, naming the first such panel along the interval, and so
does a sum beyond the float range; running out of the panel budget, or of
panels wide enough to bisect, raises it carrying the achieved bound.
Splitting decisions depend only on the integrand and the interval, so
repeated calls are deterministic.
"""

from __future__ import annotations

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


def _fsum(xs: Iterable[float]) -> float:
    """math.fsum; a sum beyond the float range raises AccuracyError with an infinite bound."""
    try:
        return math.fsum(xs)
    except OverflowError:
        raise AccuracyError("quadrature sum overflows", achieved=math.inf) from None


# overflow shows as a non-finite panel, which raises
@np.errstate(over="ignore", invalid="ignore")
def integrate_adaptive(fn: Integrand, a: float, b: float, *, abs_tol: float,
                       breakpoints: Iterable[float] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Integrate fn over [a, b]: (value, componentwise errors that sum to at most abs_tol)."""
    if not -math.inf < a <= b < math.inf:
        raise UsageError(f"integration interval needs finite a <= b, got [{a!r}, {b!r}]")
    # NaN fails every comparison, so it would never stop the loop
    if not 0.0 < abs_tol < math.inf:
        raise UsageError(f"abs_tol must be positive and finite, got {abs_tol!r}")
    if b == a:
        vals, errs = _panels(fn, [a], [a])
        return np.zeros_like(vals[0]), np.zeros_like(errs[0])
    edges = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    vals, errs = _panels(fn, lo, hi)
    min_width = 1e-12 * (b - a + 1.0)
    while True:
        err = errs.sum(axis=1)
        bad = np.flatnonzero(~(np.isfinite(vals).all(axis=1) & np.isfinite(err)))
        if bad.size:
            first = bad[np.argmin(lo[bad])]
            raise AccuracyError(f"integrand is not finite on [{lo[first]:g}, {hi[first]:g}]",
                                achieved=math.inf)
        rows = np.array([_fsum(col) for col in errs.T.tolist()])
        total = _fsum(rows)
        if total <= abs_tol:
            break
        room = MAX_PANELS - lo.size
        if room <= 0:
            raise AccuracyError("quadrature subdivision budget exhausted", achieved=total)
        wide = np.flatnonzero(hi - lo >= min_width)
        if not wide.size:
            raise AccuracyError("quadrature panels too narrow to bisect further", achieved=total)
        # certain: the top panel, and each next one while the panels ranked at
        # or below it hold more than abs_tol
        ranked = wide[np.lexsort((lo[wide], -err[wide]))]
        ahead = np.cumsum(err[ranked[:-1]])
        take = ranked[:min(1 + np.searchsorted(ahead, total - abs_tol), room)]
        mid = 0.5 * (lo[take] + hi[take])
        left, right = np.concatenate([lo[take], mid]), np.concatenate([mid, hi[take]])
        new_vals, new_errs = _panels(fn, left, right)
        keep = np.ones(lo.size, dtype=bool)
        keep[take] = False
        lo, hi = np.concatenate([lo[keep], left]), np.concatenate([hi[keep], right])
        vals, errs = np.concatenate([vals[keep], new_vals]), np.concatenate([errs[keep], new_errs])
    # exactly rounded per real and imaginary column
    columns = np.ascontiguousarray(vals).view(float).T
    return np.array([_fsum(col) for col in columns.tolist()]).view(vals.dtype), rows
