"""The benchmark's three closed-loop workloads: seeded inputs, requests, checks.

Each workload deals its requests in decks.  A deck is a fixed stratified
design (every kind of input, every difficulty stratum, the same count each
time); the seed draws the concrete values inside each cell.  Whole decks keep
the cost mix of every run the same, so runs with different seeds measure the
same work.  Every request builds its library objects from scratch, so no memo
survives from one request to the next.

Library functions are always reached through their module (`laplace.convolve`,
`verify.verify_regular`, ...), never bound at import, so that the traced run
can wrap them.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import click
import numpy as np

from sliceregular import cli, laplace, series, slicefn, timefunctions, verify
from sliceregular.quaternion import Quaternion, SliceCoordinates

import reference as ref


@dataclass
class Request:
    """One closed-loop request: its seeded inputs and, after the run, its outputs."""

    params: dict[str, Any]
    outputs: Any = None
    points: int = 0
    error: str | None = None
    latency_s: float = 0.0
    scaled_s: float = 0.0
    checks: list[str] = field(default_factory=list)


def _rng(seed: int, deck: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, deck, salt])


def _unit(rng) -> list[float]:
    while True:
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
        if n > 1e-3:
            return [0.0, *(float(c) / n for c in v)]


def _quat(rng) -> list[float]:
    return [float(c) for c in rng.uniform(-1.0, 1.0, size=4)]


# Structural choices (polynomial degree, inner kinds, number of terms) follow
# `variant`, which the workloads derive from the deck index and the cell, so
# every seed gets the same structural mix; the seed draws the values.


def _exp_spec(rng, variant: int = 0) -> dict:
    # Re b >= 0 is the certified order, so Re s - a is the integrand's decay rate
    rho = rng.uniform(0.5, 1.5)
    unit = _unit(rng)
    return {"kind": "exp", "b": [float(rng.uniform(0.0, 0.5)), *(rho * u for u in unit[1:])]}


def _poly_spec(rng, variant: int = 0) -> dict:
    return {"kind": "poly", "coeffs": [[c / math.factorial(n) for c in _quat(rng)]
                                       for n in range(variant % 3 + 1)]}


def _heaviside_spec(rng, variant: int = 0) -> dict:
    inner = (_exp_spec, _poly_spec)[variant % 2](rng, variant // 2)
    return {"kind": "heaviside_shift", "shift": float(rng.uniform(0.2, 2.0)), "inner": inner}


def _scale_spec(rng, variant: int = 0) -> dict:
    inner = (_exp_spec, _poly_spec, _heaviside_spec)[variant % 3](rng, variant // 3)
    return {"kind": "scale", "factor": _quat(rng),
            "where": ("left", "right")[variant % 2], "inner": inner}


def _sum_spec(rng, variant: int = 0) -> dict:
    """8 to 16 terms of every single-term kind."""
    makers = (_exp_spec, _poly_spec, _heaviside_spec)
    return {"kind": "sum", "terms": [makers[i % 3](rng, variant + i // 3)
                                     for i in range(8 + variant % 9)]}


class Cli:
    """Runs `sliceregular <args>` in-process; returns exit code, stdout, stderr.

    Every call writes to the same two buffers, as a CLI process writes to one
    stdout: click keeps a wrapper for each output stream it has seen for the
    life of the process, so a fresh buffer per call (or click.testing's
    CliRunner) would pile up every output in memory.
    """

    def __init__(self):
        self._out, self._err = io.StringIO(), io.StringIO()

    def __call__(self, args: list[str]) -> tuple[int, str, str]:
        for buf in (self._out, self._err):
            buf.seek(0)
            buf.truncate()
        code = 0
        with contextlib.redirect_stdout(self._out), contextlib.redirect_stderr(self._err):
            try:
                cli.cli.main(args, prog_name="sliceregular", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except click.ClickException as exc:
                exc.show()
                code = exc.exit_code
        return code, self._out.getvalue(), self._err.getvalue()


def _close(got, want, tol: float, scale: float = 1.0) -> bool:
    return ref.qdist(got, want) <= tol * max(1.0, scale)


def _far(got: np.ndarray, want: np.ndarray, tol: float, what: str, where) -> list[str]:
    """Rows off their reference by more than tol, relative to max(1, |reference|)."""
    off = np.linalg.norm(got - want, axis=1)
    bad = off > tol * np.maximum(1.0, np.linalg.norm(want, axis=1))
    return [f"{what} {tuple(where[i])}: off by {off[i]:.3e}" for i in np.flatnonzero(bad)]


class Workload:
    name: str
    #: what the points of `points_per_s` are for this workload
    points_are: str
    #: decks a traced run replays, each twice; about 20 s on a 2-core x86 host
    TRACE_DECKS: int

    def deck(self, seed: int, index: int) -> list[Request]:
        """The requests of deck `index`, generated from the seed."""
        return [Request(params) for params in self.build(seed, index)]

    def build(self, seed: int, index: int) -> list[dict]:
        raise NotImplementedError

    def run(self, request: Request) -> None:
        """The timed part: call the library and keep what it returned."""
        raise NotImplementedError

    def check(self, request: Request) -> list[str]:
        """Compare the outputs with the references; returns the failures."""
        raise NotImplementedError


# -- transform_grid ------------------------------------------------------------------


class TransformGrid(Workload):
    """CLI `transform` of seeded specs of every JSON kind on a small probe grid.

    Each request is one in-process `sliceregular transform` invocation, so a
    cold TransformResult is built per request.  A deck holds every kind
    (exp, poly, heaviside_shift, scale, and sum of 8-16 terms) at each of
    STRATA values of Re s - a, log-spaced over [0.1, 3] so that probes near
    the half-plane edge, where quadrature is costly, carry their weight.
    These values are fixed, not drawn: the cost of a probe grows like
    1 / (Re s - a), and a drawn value would make the seed, not the program,
    set most of a run's cost.
    The grid is one real part, one unit and GRID_IM imaginary parts spread
    over [0, 6]; left and right sides alternate.
    """

    name = "transform_grid"
    points_are = "transform values at probe points"
    TRACE_DECKS = 2
    KINDS = (_exp_spec, _poly_spec, _heaviside_spec, _scale_spec, _sum_spec)
    STRATA = 7
    GRID_IM = 2
    LAMBDA = (0.1, 3.0)
    TOL = 1e-6

    def __init__(self):
        self._cli = Cli()

    def build(self, seed: int, index: int) -> list[dict]:
        out = []
        lo, hi = self.LAMBDA
        for k in range(self.STRATA):
            for j, make in enumerate(self.KINDS):
                rng = _rng(seed, index, k * len(self.KINDS) + j)
                spec = make(rng, index + k)
                side = "left" if (k + j) % 2 == 0 else "right"
                lam = lo * (hi / lo) ** (k / (self.STRATA - 1))
                probes = {"grid": {
                    "re": [ref.abscissa(spec) + lam] * 2 + [1],
                    "units": [_unit(rng)],
                    "im": [float(rng.uniform(0.0, 1.0)), float(rng.uniform(5.0, 6.0)),
                           self.GRID_IM],
                }}
                out.append({"spec": spec, "side": side, "probes": probes,
                            "args": ["transform", "--input", json.dumps({**spec, "side": side}),
                                     "--probes", json.dumps(probes)]})
        return out

    def run(self, request: Request) -> None:
        code, out, err = self._cli(request.params["args"])
        if code != 0:
            request.error = f"exit {code}: {err.strip()[:200]}"
            return
        request.outputs = out
        request.points = len(json.loads(out)["records"])

    @staticmethod
    def probe_points(probes: dict) -> list[tuple]:
        g = probes["grid"]
        x = g["re"][0]
        y0, y1, n = g["im"]
        u = g["units"][0]
        norm = math.sqrt(u[1] ** 2 + u[2] ** 2 + u[3] ** 2)
        ys = [y0 + (y1 - y0) * k / (n - 1) for k in range(n)]
        return [(x, u[1] / norm * y, u[2] / norm * y, u[3] / norm * y) for y in ys]

    def check(self, request: Request) -> list[str]:
        p = request.params
        records = json.loads(request.outputs)["records"]
        expected = self.probe_points(p["probes"])
        if len(records) != len(expected):
            return [f"{len(records)} records for {len(expected)} probes"]
        terms = ref.transform_terms(p["spec"])
        failures = []
        for rec, s in zip(records, expected):
            if "error" in rec:
                failures.append(f"s={s}: {rec['error']}")
                continue
            if not _close(rec["s"], s, 1e-12):
                failures.append(f"probe {rec['s']} is not {s}")
                continue
            z, unit = ref.decompose(s)
            want = ref.assemble([ref.eval_terms(t, z) for t in terms], unit, p["side"])
            if not _close(rec["value"], want, self.TOL):
                failures.append(f"s={s}: |value - closed form| = "
                                f"{ref.qdist(rec['value'], want):.3e}")
        return failures


# -- operational_calculus ---------------------------------------------------------------


class OperationalCalculus(Workload):
    """The operational rules of the transform on seeded pairs (f, g).

    Each request builds, for f and g drawn from exp / poly / heaviside_shift
    (every ordered pair of kinds once per deck), the convolution transform via
    the star product, t^n f (n = 1 and 2 by turns), the Heaviside and real
    shifts, the derivative and integral rules and the reflection.  It evaluates
    each at
    PROBES seeded probes with Re s - c in [0.5, 3] and |Im s| in [0, 3], then
    at the same probes again, and calls `convolve` at CONVOLVE_TIMES points
    t in (0.2, 3].  Most transform-stem evaluations are memo hits: the star
    product reuses each factor stem four times per point, and the second pass
    is all hits; the misses still start one quadrature each.
    """

    name = "operational_calculus"
    points_are = "transform and convolution values"
    TRACE_DECKS = 4
    KINDS = (_exp_spec, _poly_spec, _heaviside_spec)
    PROBES = 6
    CONVOLVE_TIMES = 2
    TOL_CONVOLUTION = 1e-5
    TOL_RULES = 1e-6

    def build(self, seed: int, index: int) -> list[dict]:
        out = []
        for i, make_f in enumerate(self.KINDS):
            for j, make_g in enumerate(self.KINDS):
                rng = _rng(seed, index, 3 * i + j)
                f, g = make_f(rng, index + j), make_g(rng, index + i)
                c = max(ref.abscissa(f), ref.abscissa(g))
                probes = []
                for k in range(self.PROBES):
                    lam = 0.5 + 2.5 * (k + rng.random()) / self.PROBES
                    y = float(rng.uniform(0.0, 3.0))
                    u = _unit(rng)
                    probes.append((c + lam, u[1] * y, u[2] * y, u[3] * y))
                times = [0.2 + 2.8 * (k + rng.random()) / self.CONVOLVE_TIMES
                         for k in range(self.CONVOLVE_TIMES)]
                f0 = tuple(float(v) for v in ref.time_values(f, np.zeros(1))[0])
                out.append({"f": f, "g": g, "probes": probes, "times": times, "f0": f0,
                            "order": 1 + (index + i + j) % 2,
                            "hv_shift": float(rng.uniform(0.3, 1.5)),
                            "real_shift": float(rng.uniform(0.2, 1.0))})
        return out

    def run(self, request: Request) -> None:
        p = request.params
        f = timefunctions.time_function_from_json(p["f"])
        g = timefunctions.time_function_from_json(p["g"])
        F = laplace.laplace_left(f)
        conv = laplace.laplace_of_convolution(f, g)
        targets = [
            conv.evaluate,
            laplace.derivative_of_transform(F, p["order"]).evaluate,
            laplace.heaviside_shift(F, p["hv_shift"]).evaluate,
            laplace.shift_real(F, p["real_shift"]).evaluate,
            laplace.transform_of_derivative(F, Quaternion(*p["f0"])).evaluate,
            laplace.transform_of_integral(F).evaluate,
            F.fn.reflect().evaluate,
        ]
        probes = [Quaternion(*s) for s in p["probes"]]
        values = [[ev(s).components() for s in probes] for ev in targets]
        again = [[ev(s).components() for s in probes] for ev in targets]
        convolved = [laplace.convolve(f, g, t).components() for t in p["times"]]
        request.outputs = (values, again, convolved)
        request.points = 2 * len(targets) * len(probes) + len(convolved)

    def references(self, p: dict):
        """Closed-form values of the seven targets at each probe."""
        tf, tg = ref.transform_terms(p["f"]), ref.transform_terms(p["g"])
        a, b = p["hv_shift"], p["real_shift"]

        def F(z, order=0):
            return [ref.eval_terms(t, z, order) for t in tf]

        rows = []
        for s in p["probes"]:
            z, unit = ref.decompose(s)
            G = [ref.eval_terms(t, z) for t in tg]
            Fz = F(z)
            n = p["order"]
            comps = [
                (ref.star_components(Fz, G), "left"),
                ([(-1) ** n * v for v in F(z, n)], "left"),
                ([cmath.exp(-a * z) * v for v in Fz], "left"),
                (F(z + b), "left"),
                ([z * v - c for v, c in zip(Fz, p["f0"])], "left"),
                ([v / z for v in Fz], "left"),
                ([Fz[0], -Fz[1], -Fz[2], -Fz[3]], "right"),
            ]
            rows.append([ref.assemble(h, unit, side) for h, side in comps])
        return [list(col) for col in zip(*rows)]

    def check(self, request: Request) -> list[str]:
        p = request.params
        values, again, convolved = request.outputs
        failures = []
        if again != values:
            failures.append("second pass over the same probes changed a value")
        names = ("convolution", "t^n f", "heaviside shift", "real shift",
                 "derivative rule", "integral rule", "reflection")
        for name, got_row, want_row in zip(names, values, self.references(p)):
            tol = self.TOL_CONVOLUTION if name == "convolution" else self.TOL_RULES
            for s, got, want in zip(p["probes"], got_row, want_row):
                if not _close(got, want, tol):
                    failures.append(f"{name} at {s}: off by {ref.qdist(got, want):.3e}")
        for t, got in zip(p["times"], convolved):
            want = ref.convolve_reference(p["f"], p["g"], t)
            if not _close(got, want, self.TOL_RULES, ref.qnorm(want)):
                failures.append(f"convolve at t={t}: off by {ref.qdist(got, want):.3e}")
        return failures


# -- series_algebra -------------------------------------------------------------------


class SeriesAlgebra(Workload):
    """Series-level regular calculus; no quadrature runs here.

    Each request runs the CLI `regprod` on two seeded series of degree 8-63
    with a 3 x 3 probe grid (three real points, six in one slice, |q| < 0.9),
    then calls reciprocal(16), symmetrization, reflect (and the reversed star
    product of the reflections) and intrinsic_components on f, evaluates
    from_series(f) at EVAL_POINTS points and runs verify_regular at
    VERIFY_POINTS slice points.  The degrees of f and g form a Latin square
    over STRATA strata, and both sides occur equally often in a deck.
    """

    name = "series_algebra"
    points_are = "quaternions returned (coefficients and values)"
    TRACE_DECKS = 12
    STRATA = 8
    DEGREES = (8, 63)
    EVAL_POINTS = 50
    VERIFY_POINTS = 4
    RECIPROCAL_ORDER = 16
    RESIDUAL_TOL = 1e-6

    def __init__(self):
        self._cli = Cli()

    @staticmethod
    def _series(rng, degree: int) -> list[list[float]]:
        # a dominant constant term keeps the reciprocal well conditioned
        lead = [float(rng.uniform(1.5, 2.0)), *(float(c) for c in rng.uniform(-0.5, 0.5, 3))]
        return [lead] + [[c * 0.7 ** n for c in _quat(rng)] for n in range(1, degree + 1)]

    def build(self, seed: int, index: int) -> list[dict]:
        lo, hi = self.DEGREES
        width = (hi - lo + 1) / self.STRATA
        perm = _rng(seed, index, 99).permutation(self.STRATA)
        out = []
        for side in ("left", "right"):
            for k in range(self.STRATA):
                rng = _rng(seed, index, k + (0 if side == "left" else self.STRATA))
                df = lo + int((k + rng.random()) * width)
                dg = lo + int((perm[k] + rng.random()) * width)
                f, g = self._series(rng, df), self._series(rng, dg)
                u = _unit(rng)
                probes = {"grid": {"re": [float(rng.uniform(-0.6, -0.3)),
                                          float(rng.uniform(0.3, 0.6)), 3],
                                   "units": [u], "im": [0.0, float(rng.uniform(0.3, 0.6)), 3]}}
                evals = []
                for _ in range(self.EVAL_POINTS):
                    q = rng.normal(size=4)
                    evals.append(tuple(float(c) for c in q / np.linalg.norm(q)
                                       * rng.uniform(0.0, 0.85)))
                slices = [(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.05, 0.5)),
                           tuple(_unit(rng))) for _ in range(self.VERIFY_POINTS)]
                regprod = {"f": {"side": side, "coeffs": f}, "g": {"side": side, "coeffs": g}}
                out.append({"side": side, "f": f, "g": g, "probes": probes, "evals": evals,
                            "slices": slices,
                            "args": ["regprod", "--input", json.dumps(regprod),
                                     "--probes", json.dumps(probes)]})
        return out

    def run(self, request: Request) -> None:
        p = request.params
        code, out, err = self._cli(p["args"])
        if code != 0:
            request.error = f"exit {code}: {err.strip()[:200]}"
            return
        side = series.Side(p["side"])
        f = series.RegularSeries(p["f"], side)
        g = series.RegularSeries(p["g"], side)
        recip = f.reciprocal(self.RECIPROCAL_ORDER)
        sym = f.symmetrization()
        reversed_product = g.reflect().star(f.reflect())
        comps = f.intrinsic_components()
        fn = slicefn.from_series(f)
        values = [fn.evaluate(Quaternion(*q)).components() for q in p["evals"]]
        slices = [SliceCoordinates(x, y, Quaternion(*u)) for x, y, u in p["slices"]]
        report = verify.verify_regular(fn, side, slices)
        request.outputs = {
            "regprod": out,
            "reciprocal": [c.components() for c in recip.coeffs],
            "symmetrization": [c.components() for c in sym.coeffs],
            "reversed_product": [c.components() for c in reversed_product.coeffs],
            "reversed_side": reversed_product.side.value,
            "components": [[c.components() for c in h.coeffs] for h in comps],
            "values": values,
            "residuals": list(report.residuals),
        }
        regprod = json.loads(out)
        request.points = (len(regprod["coeffs"]) + len(regprod["records"]) + len(recip.coeffs)
                          + len(sym.coeffs) + len(reversed_product.coeffs)
                          + sum(len(h.coeffs) for h in comps) + len(values))

    def check(self, request: Request) -> list[str]:
        p, out = request.params, request.outputs
        side = p["side"]
        f, g = np.asarray(p["f"], float), np.asarray(p["g"], float)
        failures = []

        regprod = json.loads(out["regprod"])
        product = ref.series_star(f, g)
        got = np.asarray(regprod["coeffs"], float)
        if got.shape != product.shape or np.abs(got - product).max() > 1e-12:
            failures.append("regprod coefficients differ from the Cauchy product")
        qs = np.asarray([rec["q"] for rec in regprod["records"]], float)
        values = np.asarray([rec["value"] for rec in regprod["records"]], float)
        real = np.all(qs[:, 1:] == 0.0, axis=1)
        # on the real axis the star product is the pointwise product
        want = np.where(real[:, None],
                        ref.qmul_arrays(ref.series_eval(f, qs, side), ref.series_eval(g, qs, side)),
                        ref.series_eval(product, qs, side))
        failures += _far(values, want, 1e-10, "regprod value at", qs)

        recip = np.asarray(out["reciprocal"])
        identity = ref.series_star(f, recip)[: self.RECIPROCAL_ORDER + 1]
        identity[0, 0] -= 1.0
        if len(recip) != self.RECIPROCAL_ORDER + 1 or np.abs(identity).max() > 1e-10:
            failures.append(f"reciprocal identity off by {np.abs(identity).max():.3e}")

        sym = np.asarray(out["symmetrization"])
        want_sym = ref.series_star(f, f * [1, -1, -1, -1])
        if (np.abs(sym[:, 1:]).max() != 0.0
                or np.abs(sym[:, 0] - want_sym[:, 0]).max() > 1e-12 * max(1.0, np.abs(sym).max())):
            failures.append("symmetrization differs from f * f^c")

        flipped = "right" if side == "left" else "left"
        reversed_product = np.asarray(out["reversed_product"])
        conj_product = got * [1, -1, -1, -1]
        if (out["reversed_side"] != flipped or reversed_product.shape != conj_product.shape
                or np.abs(reversed_product - conj_product).max() > 1e-13):
            failures.append("reflection is not an anti-homomorphism to 1e-13")

        if not np.array_equal(np.asarray(out["components"]),
                              np.stack([np.pad(f[:, [m]], ((0, 0), (0, 3)))
                                        for m in range(4)])):
            failures.append("intrinsic components differ from the coefficient split")

        failures += _far(np.asarray(out["values"]), ref.series_eval(f, p["evals"], side),
                         1e-10, "from_series at", p["evals"])

        worst = max(out["residuals"])
        if worst > self.RESIDUAL_TOL:
            failures.append(f"regularity residual {worst:.3e}")
        return failures


WORKLOADS: dict[str, Callable[[], Workload]] = {
    w.name: w for w in (TransformGrid, OperationalCalculus, SeriesAlgebra)
}
