"""Quaternion-valued functions of a real variable t >= 0.

A function is evaluated through one array map, its `evaluator`: an (n,)
array of times goes in and the (n, 4) array of the values' real components
comes out, so a quadrature evaluates the nodes of every panel of a round
in one call.  The JSON vocabulary (exp / poly /
heaviside_shift / sum / scale) and the combinators build that map directly
in numpy; a bare scalar callable t -> Quaternion is wrapped into it once,
and `f(t)` reads one row of it.

Transform inputs carry a growth certificate |f(t)| <= K e^{a t} for t > T
(finite a >= 0, K > 0 and T >= 0) and an optional list of jump locations.
The factories derive growth certificates; a bare callable's is declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, UsageError
from .quaternion import CONJUGATE_SIGNS, Quaternion, quat_from_list, quat_mul_rows, real_number

__all__ = [
    "GrowthBound",
    "TimeDomainFunction",
    "constant_function",
    "exponential_function",
    "polynomial_function",
    "heaviside_shifted",
    "time_function_from_json",
]

#: (n,) times -> (n, 4) real components of the values
ArrayEvaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, slots=True)
class GrowthBound:
    """Certificate |f(t)| <= K e^{a t} for all t > T, with finite a >= 0, K > 0, T >= 0."""

    a: float
    K: float
    T: float = 0.0

    def __post_init__(self):
        # written so that NaN fails each test
        if not 0.0 <= self.a < math.inf:
            raise UsageError(f"exponential order must be non-negative and finite, got {self.a!r}")
        if not 0.0 < self.K < math.inf:
            raise UsageError(f"growth constant K must be positive and finite, got {self.K!r}")
        if not 0.0 <= self.T < math.inf:
            raise UsageError(f"growth window T must be non-negative and finite, got {self.T!r}")

    @classmethod
    def derived(cls, a: float, K: float, T: float, operation: str) -> "GrowthBound":
        """The certificate `operation` derives from its operands' certificates.

        Products and sums of large finite constants can overflow; that is no
        malformed input, so it raises AccuracyError naming the operation.
        """
        if not all(map(math.isfinite, (a, K, T))):
            raise AccuracyError(f"the growth certificate of {operation} overflows "
                                f"(a = {a!r}, K = {K!r}, T = {T!r})", achieved=math.inf)
        return cls(a, K, T)


def _rows_of(scalar: Callable[[float], Quaternion]) -> ArrayEvaluator:
    """The array form of a scalar callable t -> Quaternion."""
    def evaluate(ts: np.ndarray) -> np.ndarray:
        return np.array([scalar(t).components() for t in ts.tolist()]).reshape(-1, 4)

    return evaluate


class TimeDomainFunction:
    """Piecewise continuous map t >= 0 -> H with exponential-order metadata.

    The constructor takes a scalar callable t -> Quaternion; `from_array`
    takes the array evaluator itself.  `memos` maps an abs_tol to the memo
    that every Laplace transform of the function at that tolerance fills
    and reads, so it lives exactly as long as the function.
    """

    __slots__ = ("evaluator", "growth", "breakpoints", "memos")

    def __init__(self, evaluator: Callable[[float], Quaternion], growth: GrowthBound,
                 breakpoints: Sequence[float] = ()):
        self._init(_rows_of(evaluator), growth, breakpoints)

    @classmethod
    def from_array(cls, evaluator: ArrayEvaluator, growth: GrowthBound,
                   breakpoints: Sequence[float] = ()) -> "TimeDomainFunction":
        """Wrap an array evaluator: (n,) times -> (n, 4) components."""
        fn = cls.__new__(cls)
        fn._init(evaluator, growth, breakpoints)
        return fn

    def _init(self, evaluator: ArrayEvaluator, growth: GrowthBound,
              breakpoints: Sequence[float]) -> None:
        self.evaluator = evaluator
        self.growth = growth
        self.breakpoints = tuple(sorted(float(b) for b in breakpoints))
        self.memos: dict[float, dict] = {}

    def __call__(self, t: float) -> Quaternion:
        return Quaternion(*self.evaluator(np.array([float(t)]))[0].tolist())

    def conjugated(self) -> "TimeDomainFunction":
        f = self.evaluator
        return TimeDomainFunction.from_array(
            lambda ts: f(ts) * CONJUGATE_SIGNS, self.growth, self.breakpoints)

    def scaled_left(self, factor: Quaternion) -> "TimeDomainFunction":
        f, g = self.evaluator, self.growth
        row = np.array(factor.components())
        return TimeDomainFunction.from_array(
            lambda ts: quat_mul_rows(row, f(ts)),
            GrowthBound.derived(g.a, max(g.K * factor.norm(), 1e-300), g.T, "a left scaling"),
            self.breakpoints)

    def scaled_right(self, factor: Quaternion) -> "TimeDomainFunction":
        f, g = self.evaluator, self.growth
        row = np.array(factor.components())
        return TimeDomainFunction.from_array(
            lambda ts: quat_mul_rows(f(ts), row),
            GrowthBound.derived(g.a, max(g.K * factor.norm(), 1e-300), g.T, "a right scaling"),
            self.breakpoints)

    def __add__(self, other: "TimeDomainFunction") -> "TimeDomainFunction":
        f, g = self.evaluator, other.evaluator
        ga, gb = self.growth, other.growth
        return TimeDomainFunction.from_array(
            lambda ts: f(ts) + g(ts),
            GrowthBound.derived(max(ga.a, gb.a), ga.K + gb.K, max(ga.T, gb.T), "a sum"),
            sorted({*self.breakpoints, *other.breakpoints}))


# -- factories -----------------------------------------------------------------


def constant_function(value: Quaternion) -> TimeDomainFunction:
    v = value if isinstance(value, Quaternion) else Quaternion.real(value)
    row = np.array(v.components())
    return TimeDomainFunction.from_array(
        lambda ts: np.zeros((ts.size, 4)) + row, GrowthBound(0.0, max(v.norm(), 1e-300)))


def exponential_function(b: Quaternion) -> TimeDomainFunction:
    """t -> e^{b t}; |e^{bt}| = e^{Re(b) t} gives the exact growth certificate.

    With b = w + r u (u a unit imaginary), e^{bt} = e^{wt} (cos rt + u sin rt).
    """
    b = b if isinstance(b, Quaternion) else Quaternion.real(b)
    w, r = b.w, b.im_norm()
    v = np.array([b.x, b.y, b.z])

    def evaluate(ts: np.ndarray) -> np.ndarray:
        ex = np.exp(w * ts)
        out = np.zeros((ts.size, 4))
        if r == 0.0:
            out[:, 0] = ex
        else:
            out[:, 0] = ex * np.cos(r * ts)
            out[:, 1:] = np.multiply.outer(ex * np.sin(r * ts) / r, v)
        return out

    return TimeDomainFunction.from_array(evaluate, GrowthBound(max(b.w, 0.0), 1.0))


#: exponential order assigned to polynomials (any positive rate works)
POLY_RATE = 0.1


def polynomial_function(coeffs: Sequence[Quaternion]) -> TimeDomainFunction:
    """t -> sum_n c_n t^n with quaternion coefficients (t is real, order is moot)."""
    cs = [c if isinstance(c, Quaternion) else Quaternion.real(c) for c in coeffs]
    if not cs:
        cs = [Quaternion()]
    # sup of t^n e^{-rate t} is (n / (rate e))^n, so K bounds every monomial;
    # a zero coefficient adds nothing, and a peak past the float range makes K
    # infinite, which GrowthBound.derived reports
    K = 0.0
    for n, c in enumerate(cs):
        if c.norm() == 0.0:
            continue
        try:
            peak = 1.0 if n == 0 else (n / (POLY_RATE * math.e)) ** n
        except OverflowError:
            peak = math.inf
        K += c.norm() * peak
    rows = np.array([c.components() for c in cs])

    def evaluate(ts: np.ndarray) -> np.ndarray:
        # Horner, highest coefficient first
        acc = np.zeros((ts.size, 4)) + rows[-1]
        t = ts[:, None]
        for c in rows[-2::-1]:
            acc = acc * t + c
        return acc

    return TimeDomainFunction.from_array(
        evaluate, GrowthBound.derived(POLY_RATE, max(K, 1e-300), 0.0, "a polynomial"))


def heaviside_shifted(inner: TimeDomainFunction, shift: float) -> TimeDomainFunction:
    """t -> f(t - shift) H(t - shift) with H(0) = 1.

    f is evaluated only at t >= shift, so it need not be defined before 0.
    """
    if not 0 < shift < math.inf:
        raise UsageError(f"heaviside shift must be positive and finite, got {shift!r}")
    g = inner.growth
    f = inner.evaluator

    def evaluate(ts: np.ndarray) -> np.ndarray:
        out = np.zeros((ts.size, 4))
        on = ts >= shift
        if on.any():
            out[on] = f(ts[on] - shift)
        return out

    # 0 before the shift and K e^{a(t - shift)} <= K e^{at} after it, so a
    # bound holding for all t > 0 still does; otherwise its window moves
    T = g.T + shift if g.T > 0.0 else 0.0
    breaks = [shift] + [b + shift for b in inner.breakpoints]
    return TimeDomainFunction.from_array(
        evaluate, GrowthBound.derived(g.a, g.K, T, "a Heaviside shift"), breaks)


def time_function_from_json(spec: dict) -> TimeDomainFunction:
    """Build a TimeDomainFunction from its JSON description.

    Kinds: {"kind": "exp", "b": [...]}, {"kind": "poly", "coeffs": [[...], ...]},
    {"kind": "heaviside_shift", "shift": a, "inner": {...}},
    {"kind": "sum", "terms": [...]}, {"kind": "scale", "factor": [...],
    "where": "left"|"right", "inner": {...}}.  Optional keys exp_order
    ({"a":, "K":, "T":}) and breakpoints override the derived metadata.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UsageError("function spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "exp":
            fn = exponential_function(quat_from_list(spec["b"]))
        elif kind == "poly":
            fn = polynomial_function([quat_from_list(c) for c in spec["coeffs"]])
        elif kind == "heaviside_shift":
            fn = heaviside_shifted(time_function_from_json(spec["inner"]),
                                   real_number(spec["shift"], "a heaviside shift"))
        elif kind == "sum":
            terms = [time_function_from_json(t) for t in spec["terms"]]
            if not terms:
                raise UsageError("sum needs at least one term")
            fn = terms[0]
            for t in terms[1:]:
                fn = fn + t
        elif kind == "scale":
            inner = time_function_from_json(spec["inner"])
            factor = quat_from_list(spec["factor"])
            where = spec.get("where", "left")
            if where == "left":
                fn = inner.scaled_left(factor)
            elif where == "right":
                fn = inner.scaled_right(factor)
            else:
                raise UsageError(f"scale 'where' must be left or right, got {where!r}")
        else:
            raise UsageError(f"unknown function kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed function spec (kind {kind!r}): {exc}") from exc

    growth = fn.growth
    if "exp_order" in spec:
        eo = spec["exp_order"]
        try:
            growth = GrowthBound(real_number(eo["a"], "exp_order a"),
                                 real_number(eo["K"], "exp_order K"),
                                 real_number(eo.get("T", 0.0), "exp_order T"))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed exp_order: {exc}") from exc
    breaks = spec.get("breakpoints", fn.breakpoints)
    if not isinstance(breaks, (list, tuple)):
        raise UsageError(f"breakpoints must be a list of finite numbers >= 0, got {breaks!r}")
    breaks = [real_number(b, "a breakpoint") for b in breaks]
    if not all(0 <= b < math.inf for b in breaks):
        raise UsageError(f"breakpoints must be a list of finite numbers >= 0, got {breaks!r}")
    return TimeDomainFunction.from_array(fn.evaluator, growth, breaks)
