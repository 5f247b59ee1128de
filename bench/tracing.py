"""Traced run: spans and exact counts at the public entry points of each layer.

`Tracer.install()` wraps, from outside the package, the entry points that
separate the layers of `sliceregular`:

* cli: the callback of every CLI command;
* laplace: TransformResult.evaluate[_with_error], ConvolutionTransform.evaluate,
  `convolve`, and IntrinsicStem calls on the quadrature-backed stems that
  `laplace` defines (the transform-stem evaluations);
* quadrature: the module attribute `integrate_adaptive`, which
  integrate_complex / integrate_quaternion look up at call time;
* stems: IntrinsicStem.__call__ / eval_with_error;
* slicefn: SliceRegularFunction.evaluate[_with_error] / star;
* series: RegularSeries.star / reciprocal / symmetrization / evaluate;
* verify: verify_regular;
* quaternion: Quaternion.__mul__ / __add__, counted only;
* timefunctions: the evaluator of every function built by
  time_function_from_json (calls and time, no span).

A span records its layer, operation, request id, parent, thread, wall start
and end, and the thread's CPU clock at both ends.  Spans stay in memory until
their request ends.  Self time is computed from them in CPU time of the
span's own thread: the span's duration minus its children on the same thread
(for a quadrature span, minus the time spent in integrand callbacks).  CPU
time, not wall time, because the CLI evaluates probes on a thread pool and a
wall-clock span on one thread would also count the time other threads held
the interpreter lock.

Derived metrics: laplace.evals counts evaluations asked of the layer from
outside it; laplace.memo_hit_ratio is 1 - laplace.quadratures /
laplace.stem_evals; timefunctions.cache_hit_ratio is 1 - evaluator calls /
integrand calls, both inside quadratures started by transform stems (each
integrand call looks its t up in the shared cache first); a layer's busy_ms
is the CPU time of its outermost spans.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from time import perf_counter, thread_time

from sliceregular import cli, laplace, quadrature, series, slicefn, stems, timefunctions, verify
from sliceregular.errors import AccuracyError
from sliceregular.quaternion import Quaternion

#: per-layer metrics of a traced run, with their units
METRICS = {
    "cli.requests": "count",
    "cli.self_ms": "ms",
    "laplace.evals": "count",
    "laplace.stem_evals": "count",
    "laplace.quadratures": "count",
    "laplace.self_ms": "ms",
    "laplace.memo_hit_ratio": "ratio",
    "quadrature.calls": "count",
    "quadrature.integrand_calls": "count",
    "quadrature.self_ms": "ms",
    "quadrature.accuracy_errors": "count",
    "timefunctions.evaluator_calls": "count",
    "timefunctions.busy_ms": "ms",
    "timefunctions.cache_hit_ratio": "ratio",
    "stems.evals": "count",
    "stems.self_ms": "ms",
    "slicefn.evals": "count",
    "slicefn.self_ms": "ms",
    "slicefn.star_builds": "count",
    "series.star_calls": "count",
    "series.busy_ms": "ms",
    "quaternion.mul_calls": "count",
    "quaternion.add_calls": "count",
    "verify.calls": "count",
    "verify.busy_ms": "ms",
}

#: counts that do not depend on timing, so one seed must reproduce them
EXACT_COUNTS = ("quadrature.integrand_calls", "timefunctions.evaluator_calls",
                "quaternion.mul_calls", "series.star_calls")

TRANSFORM_STEM = "transform_stem"

#: requests whose spans are kept for writing out
RETAINED_REQUESTS = 5


class Span:
    __slots__ = ("sid", "layer", "op", "rid", "parent", "tid", "wall0", "wall1", "cpu0",
                 "cpu1", "callback_cpu", "integrand_calls", "evaluator_calls",
                 "evaluator_cpu", "muls", "adds", "accuracy_error")

    def __init__(self, sid, layer, op, rid, parent):
        self.sid, self.layer, self.op, self.rid, self.parent = sid, layer, op, rid, parent
        self.tid = threading.get_ident()
        self.callback_cpu = self.evaluator_cpu = 0.0
        self.integrand_calls = self.evaluator_calls = self.muls = self.adds = 0
        self.accuracy_error = False
        self.wall1 = self.cpu1 = 0.0
        self.wall0 = perf_counter()
        self.cpu0 = thread_time()

    def to_json_dict(self, t0: float) -> dict:
        return {"id": self.sid, "layer": self.layer, "op": self.op, "request": self.rid,
                "parent": self.parent, "thread": self.tid,
                "start_ms": (self.wall0 - t0) * 1e3, "end_ms": (self.wall1 - t0) * 1e3,
                "cpu_ms": (self.cpu1 - self.cpu0) * 1e3}


class Tracer:
    """Wraps the layer entry points while installed; aggregates per request."""

    def __init__(self):
        self.retained: list[Span] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.t0 = perf_counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._spans: list[Span] = []
        self._request = 0
        # the running CLI command: parent of spans opened on its pool threads
        self._root: Span | None = None

    # -- spans -------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, op: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(next(self._ids), layer, op, self._request,
                    parent.sid if parent is not None else None)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.cpu1 = thread_time()
        span.wall1 = perf_counter()
        self._stack().pop()
        self._spans.append(span)

    def _loose(self, key: str, amount: float = 1) -> None:
        """Count work done outside every span."""
        with self._lock:
            self.totals[key] += amount

    def begin_request(self) -> None:
        self._request += 1
        self._spans = []

    def end_request(self) -> None:
        """Fold the request's spans into the totals."""
        spans, self._spans = self._spans, []
        by_id = {s.sid: s for s in spans}
        children_cpu: dict[int, float] = defaultdict(float)
        for s in spans:
            parent = by_id.get(s.parent)
            if parent is not None and parent.tid == s.tid:
                children_cpu[parent.sid] += s.cpu1 - s.cpu0
        t = self.totals
        for s in spans:
            parent = by_id.get(s.parent)
            duration = s.cpu1 - s.cpu0
            inner = s.callback_cpu if s.layer == "quadrature" else children_cpu[s.sid]
            t[f"{s.layer}.self_ms"] += (duration - inner) * 1e3
            outermost = parent is None or parent.layer != s.layer
            if s.layer == "cli":
                t["cli.requests"] += 1
            elif s.layer == "laplace":
                if s.op == TRANSFORM_STEM:
                    t["laplace.stem_evals"] += 1
                elif outermost:
                    t["laplace.evals"] += 1
            elif s.layer == "quadrature":
                t["quadrature.calls"] += 1
                t["quadrature.integrand_calls"] += s.integrand_calls
                t["quadrature.accuracy_errors"] += s.accuracy_error
                if parent is not None and parent.op == TRANSFORM_STEM:
                    t["laplace.quadratures"] += 1
                    t["transform.integrand_calls"] += s.integrand_calls
                    t["transform.evaluator_calls"] += s.evaluator_calls
            elif s.layer == "stems":
                t["stems.evals"] += 1
            elif s.layer == "slicefn":
                t["slicefn.star_builds" if s.op == "star" else "slicefn.evals"] += 1
            elif s.layer == "series":
                t["series.star_calls"] += s.op == "star"
                if outermost:
                    t["series.busy_ms"] += duration * 1e3
            elif s.layer == "verify":
                t["verify.calls"] += 1
                if outermost:
                    t["verify.busy_ms"] += duration * 1e3
            t["timefunctions.evaluator_calls"] += s.evaluator_calls
            t["timefunctions.busy_ms"] += s.evaluator_cpu * 1e3
            t["quaternion.mul_calls"] += s.muls
            t["quaternion.add_calls"] += s.adds
        if self._request <= RETAINED_REQUESTS:
            self.retained.extend(spans)

    def metrics(self) -> dict[str, float]:
        t = self.totals
        out = {name: float(t.get(name, 0.0)) for name in METRICS}
        if t["laplace.stem_evals"]:
            out["laplace.memo_hit_ratio"] = 1.0 - t["laplace.quadratures"] / t["laplace.stem_evals"]
        if t["transform.integrand_calls"]:
            out["timefunctions.cache_hit_ratio"] = (
                1.0 - t["transform.evaluator_calls"] / t["transform.integrand_calls"])
        return out

    # -- wrappers --------------------------------------------------------------------

    def _span(self, layer: str, op: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, op)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _stem(self, op: str, fn):
        transform_module = laplace.__name__

        @functools.wraps(fn)
        def traced(stem, z):
            if type(stem).__module__ == transform_module:
                span = self._open("laplace", TRANSFORM_STEM)
            else:
                span = self._open("stems", op)
            try:
                return fn(stem, z)
            finally:
                self._close(span)

        return traced

    def _command(self, name: str, callback):
        @functools.wraps(callback)
        def traced(*args, **kwargs):
            span = self._open("cli", name)
            outer, self._root = self._root, span
            try:
                return callback(*args, **kwargs)
            finally:
                self._root = outer
                self._close(span)

        return traced

    def _integrate(self, integrate):
        @functools.wraps(integrate)
        def traced(fn, a, b, **kwargs):
            span = self._open("quadrature", "integrate_adaptive")

            def integrand(t):
                c0 = thread_time()
                try:
                    return fn(t)
                finally:
                    span.callback_cpu += thread_time() - c0
                    span.integrand_calls += 1

            try:
                return integrate(integrand, a, b, **kwargs)
            except AccuracyError:
                span.accuracy_error = True
                raise
            finally:
                self._close(span)

        return traced

    def _evaluator(self, evaluator):
        def traced(t):
            c0 = thread_time()
            try:
                return evaluator(t)
            finally:
                elapsed = thread_time() - c0
                stack = self._stack()
                if stack:
                    stack[-1].evaluator_calls += 1
                    stack[-1].evaluator_cpu += elapsed
                else:
                    self._loose("timefunctions.evaluator_calls")
                    self._loose("timefunctions.busy_ms", elapsed * 1e3)

        return traced

    def _from_json(self, build):
        """Wrap the evaluator of the outermost function a JSON spec builds."""

        @functools.wraps(build)
        def traced(spec):
            if getattr(self._local, "building", False):
                return build(spec)  # a nested term: the outer evaluator is wrapped
            self._local.building = True
            try:
                fn = build(spec)
            finally:
                self._local.building = False
            fn.evaluator = self._evaluator(fn.evaluator)
            return fn

        return traced

    def _counter(self, slot: str, key: str, fn):
        local = self._local

        @functools.wraps(fn)
        def counted(a, b):
            stack = getattr(local, "stack", None)
            if stack:
                span = stack[-1]
                setattr(span, slot, getattr(span, slot) + 1)
            else:
                self._loose(key)
            return fn(a, b)

        return counted

    # -- install -----------------------------------------------------------------------

    def _patch(self, owner, name: str, make) -> None:
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        p = self._patch
        for name, command in cli.cli.commands.items():
            p(command, "callback", functools.partial(self._command, name))
        for method in ("evaluate", "evaluate_with_error"):
            p(laplace.TransformResult, method, functools.partial(self._span, "laplace", method))
        p(laplace.ConvolutionTransform, "evaluate",
          functools.partial(self._span, "laplace", "convolution_evaluate"))
        p(laplace, "convolve", functools.partial(self._span, "laplace", "convolve"))
        p(quadrature, "integrate_adaptive", self._integrate)
        p(stems.IntrinsicStem, "__call__", functools.partial(self._stem, "call"))
        p(stems.IntrinsicStem, "eval_with_error", functools.partial(self._stem, "eval_with_error"))
        for method in ("evaluate", "evaluate_with_error", "star"):
            p(slicefn.SliceRegularFunction, method,
              functools.partial(self._span, "slicefn", method))
        for method in ("star", "reciprocal", "symmetrization", "evaluate"):
            p(series.RegularSeries, method, functools.partial(self._span, "series", method))
        p(verify, "verify_regular", functools.partial(self._span, "verify", "verify_regular"))
        p(Quaternion, "__mul__", functools.partial(self._counter, "muls", "quaternion.mul_calls"))
        p(Quaternion, "__add__", functools.partial(self._counter, "adds", "quaternion.add_calls"))
        p(timefunctions, "time_function_from_json", self._from_json)
        p(cli, "time_function_from_json", self._from_json)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
