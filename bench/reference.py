"""Independent references for the benchmark's correctness checks.

Nothing here imports `sliceregular`: quaternions are plain 4-tuples or
(n, 4) numpy arrays with a hand-written Hamilton product, transforms come
from closed forms, and time-domain integrals use a fixed Gauss-Legendre rule.

A classical (complex) Laplace transform of a real component is kept as a
list of terms (beta, shift, c, m), each standing for

    beta * exp(-shift * z) * m! / (z - c)^(m + 1),

the transform of beta * (t - shift)^m exp(c (t - shift)) H(t - shift).  Every
JSON function kind the CLI accepts (exp, poly, heaviside_shift, sum, scale)
maps to four such lists, one per real component, and derivatives in z of any
order have a closed form.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

#: exponential order the library certifies for polynomials; probes are placed
#: relative to it so that they lie in the transform's half-plane
POLY_RATE = 0.1

BASIS = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
         (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))


# -- quaternions as 4-tuples ---------------------------------------------------


def qmul(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


def qadd(p, q):
    return tuple(x + y for x, y in zip(p, q))


def qdist(p, q) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(p, q)))


def qnorm(p) -> float:
    return math.sqrt(sum(x * x for x in p))


def decompose(s):
    """Slice coordinates of s as (z, unit) with Im z >= 0; real s gets unit i."""
    y = math.sqrt(s[1] ** 2 + s[2] ** 2 + s[3] ** 2)
    unit = (0.0, 1.0, 0.0, 0.0) if y == 0.0 else (0.0, s[1] / y, s[2] / y, s[3] / y)
    return complex(s[0], y), unit


def embed(w: complex, unit):
    return (w.real, unit[1] * w.imag, unit[2] * w.imag, unit[3] * w.imag)


def assemble(components, unit, side: str):
    """Tensor form: sum_m embed(h_m) e_m (left) or e_m embed(h_m) (right)."""
    total = (0.0, 0.0, 0.0, 0.0)
    for h, base in zip(components, BASIS):
        v = embed(h, unit)
        total = qadd(total, qmul(v, base) if side == "left" else qmul(base, v))
    return total


def _basis_table():
    table = []
    for m, em in enumerate(BASIS):
        for n, en in enumerate(BASIS):
            prod = qmul(em, en)
            p = max(range(4), key=lambda k: abs(prod[k]))
            table.append((m, n, p, prod[p]))
    return table


_TABLE = _basis_table()


def star_components(fs, gs):
    """Components of the star product of two tensor forms at one z."""
    out = [0j, 0j, 0j, 0j]
    for m, n, p, sign in _TABLE:
        out[p] += sign * fs[m] * gs[n]
    return out


# -- closed-form component transforms ------------------------------------------


def _q(values):
    return tuple(float(v) for v in values)


def transform_terms(spec: dict) -> list[list[tuple]]:
    """Four term lists, one per real component, for a JSON function spec."""
    kind = spec["kind"]
    if kind == "exp":
        w, *v = _q(spec["b"])
        rho = math.sqrt(sum(c * c for c in v))
        if rho == 0.0:
            return [[(1.0, 0.0, complex(w), 0)], [], [], []]
        cp, cm = complex(w, rho), complex(w, -rho)
        terms = [[(0.5, 0.0, cp, 0), (0.5, 0.0, cm, 0)]]
        for u in v:
            k = u / rho / 2j
            terms.append([(k, 0.0, cp, 0), (-k, 0.0, cm, 0)])
        return terms
    if kind == "poly":
        terms = [[], [], [], []]
        for n, c in enumerate(spec["coeffs"]):
            for m, cm in enumerate(_q(c)):
                if cm != 0.0:
                    terms[m].append((cm, 0.0, 0j, n))
        return terms
    if kind == "heaviside_shift":
        a = float(spec["shift"])
        return [[(b, s + a, c, n) for b, s, c, n in comp]
                for comp in transform_terms(spec["inner"])]
    if kind == "sum":
        terms = [[], [], [], []]
        for part in spec["terms"]:
            for m, comp in enumerate(transform_terms(part)):
                terms[m].extend(comp)
        return terms
    if kind == "scale":
        inner = transform_terms(spec["inner"])
        lam = _q(spec["factor"])
        left = spec.get("where", "left") == "left"
        terms = [[], [], [], []]
        for p, comp in enumerate(inner):
            mixed = qmul(lam, BASIS[p]) if left else qmul(BASIS[p], lam)
            for m in range(4):
                if mixed[m] != 0.0:
                    terms[m].extend((mixed[m] * b, s, c, n) for b, s, c, n in comp)
        return terms
    raise ValueError(f"unknown kind {kind!r}")


def eval_terms(terms, z: complex, order: int = 0) -> complex:
    """The order-th z-derivative of a component transform, by Leibniz' rule."""
    total = 0j
    for beta, shift, c, m in terms:
        u = 1.0 / (z - c)
        acc = 0j
        for k in range(order + 1):
            rising = math.factorial(m + k) / math.factorial(m)
            acc += (math.comb(order, k) * (-shift) ** (order - k) * (-1) ** k
                    * rising * u ** (m + 1 + k))
        total += beta * math.factorial(m) * cmath.exp(-shift * z) * acc
    return total


def abscissa(spec: dict) -> float:
    """Left edge of the half-plane on which the library evaluates the transform."""
    kind = spec["kind"]
    if kind == "exp":
        return max(float(spec["b"][0]), 0.0)
    if kind == "poly":
        return POLY_RATE
    if kind == "sum":
        return max(abscissa(t) for t in spec["terms"])
    return abscissa(spec["inner"])


# -- time domain -----------------------------------------------------------------


def qmul_arrays(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton product of (n, 4) arrays (either may broadcast)."""
    a, b, c, d = np.moveaxis(np.asarray(p), -1, 0)
    e, f, g, h = np.moveaxis(np.asarray(q), -1, 0)
    return np.stack([a * e - b * f - c * g - d * h,
                     a * f + b * e + c * h - d * g,
                     a * g - b * h + c * e + d * f,
                     a * h + b * g - c * f + d * e], axis=-1)


def time_values(spec: dict, t: np.ndarray) -> np.ndarray:
    """f(t) as an (n, 4) array for a JSON function spec, H(0) = 1."""
    kind = spec["kind"]
    if kind == "exp":
        w, *v = _q(spec["b"])
        rho = math.sqrt(sum(c * c for c in v))
        out = np.zeros((t.size, 4))
        ew = np.exp(w * t)
        out[:, 0] = ew * np.cos(rho * t)
        if rho > 0.0:
            for m, u in enumerate(v, start=1):
                out[:, m] = ew * np.sin(rho * t) * (u / rho)
        return out
    if kind == "poly":
        out = np.zeros((t.size, 4))
        for c in reversed(spec["coeffs"]):
            out = out * t[:, None] + np.asarray(_q(c))
        return out
    if kind == "heaviside_shift":
        a = float(spec["shift"])
        on = t >= a
        out = np.zeros((t.size, 4))
        if on.any():
            out[on] = time_values(spec["inner"], t[on] - a)
        return out
    if kind == "sum":
        return sum(time_values(part, t) for part in spec["terms"])
    if kind == "scale":
        inner = time_values(spec["inner"], t)
        lam = np.asarray(_q(spec["factor"]))
        if spec.get("where", "left") == "left":
            return qmul_arrays(lam, inner)
        return qmul_arrays(inner, lam)
    raise ValueError(f"unknown kind {kind!r}")


def kinks(spec: dict) -> list[float]:
    kind = spec["kind"]
    if kind == "heaviside_shift":
        a = float(spec["shift"])
        return [a] + [a + k for k in kinks(spec["inner"])]
    if kind == "sum":
        return sorted({k for part in spec["terms"] for k in kinks(part)})
    if kind == "scale":
        return kinks(spec["inner"])
    return []


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def convolve_reference(f: dict, g: dict, t: float, panels: int = 8):
    """integral(f(t - tau) g(tau), tau = 0..t) on smooth pieces split at the kinks."""
    cuts = {0.0, t}
    cuts.update(b for b in kinks(g) if 0.0 < b < t)
    cuts.update(t - b for b in kinks(f) if 0.0 < t - b < t)
    edges = sorted(cuts)
    total = np.zeros(4)
    for lo, hi in zip(edges[:-1], edges[1:]):
        grid = np.linspace(lo, hi, panels + 1)
        mids = 0.5 * (grid[:-1] + grid[1:])
        halves = 0.5 * (grid[1:] - grid[:-1])
        tau = (mids[:, None] + halves[:, None] * _GL_NODES).ravel()
        w = (halves[:, None] * _GL_WEIGHTS).ravel()
        vals = qmul_arrays(time_values(f, t - tau), time_values(g, tau))
        total += w @ vals
    return tuple(float(c) for c in total)


# -- series ------------------------------------------------------------------------


def series_star(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product c_n = sum_k a_k b_{n-k} of (n, 4) coefficient arrays."""
    out = np.zeros((len(a) + len(b) - 1, 4))
    for k in range(len(a)):
        out[k:k + len(b)] += qmul_arrays(a[k], b)
    return out


def series_eval(coeffs: np.ndarray, points, side: str) -> np.ndarray:
    """sum_n q^n a_n (left) or sum_n a_n q^n (right) at each row q of `points`.

    The powers come from the slice of q: q^n = embed(z^n) for q = x + I y.
    """
    out = []
    for q in np.asarray(points, float).reshape(-1, 4):
        z, unit = decompose(q)
        zn = z ** np.arange(len(coeffs))
        powers = np.stack([zn.real, unit[1] * zn.imag, unit[2] * zn.imag, unit[3] * zn.imag],
                          axis=-1)
        terms = qmul_arrays(powers, coeffs) if side == "left" else qmul_arrays(coeffs, powers)
        out.append(terms.sum(axis=0))
    return np.array(out)
