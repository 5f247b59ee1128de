"""Benchmark of `sliceregular`: three seeded closed-loop workloads.

    python3 bench/run.py --workload transform_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source tree; the package is imported from ./src.
One process and one load-generating thread send each request only after the
previous one returned (closed loop, one client).  The CLI's own `transform`,
`regprod`, `eval` and `table` commands start a pool of up to 8 threads per
request; that is program behaviour, not load.

Untraced (`--trace 0`) the last line of stdout holds the end-to-end metrics:

* setup_s: a fresh interpreter importing the package and building the first
  deck of seeded inputs; the median of SETUP_REPEATS child processes;
* points_per_s: quaternion values returned per second of timed request time;
* request_p50_ms, request_p90_ms: request latency percentiles;
* peak_rss_mb: peak resident memory of the process.

Every timing is scaled to a reference host speed by the probe in `host.py`,
because other work on the host slows these shared cores by up to 1.8x in
spells of seconds to minutes.  The line above the result gives the same
metrics unscaled, the median slowdown, failed_frac (requests that raised,
exited non-zero or returned a value off its reference, over requests
attempted) and the environment stamp.  Any failure makes the exit code 1.

Traced (`--trace 1`) the workload's first TRACE_DECKS decks run twice:
untraced, then again with the tracer of `tracing.py` installed.  Both passes
must return identical outputs.  The deck count is fixed, not timed, so that
the counts compare across commits and hosts; --seconds does not apply.  The
result holds the per-layer metrics plus trace.overhead_points_per_s (traced
minus untraced points_per_s); the metrics and the spans of the first requests
are also written to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from host import HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 11
#: floor on requests per run, so that >= 10 samples lie beyond the p90
MIN_REQUESTS = 100
WORKLOAD_NAMES = ("transform_grid", "operational_calculus", "series_algebra")

SETUP_CODE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import host
before = host.kernel_time()
t0 = time.perf_counter()
import workloads
workloads.WORKLOADS[{name!r}]().deck({seed!r}, 0)
raw = time.perf_counter() - t0
after = host.kernel_time()
print(raw, raw * host.REFERENCE_S / (0.5 * (before + after)))
"""


def _import_package():
    """Import the package under ./src, and nothing else of that name."""
    if not (SRC / "sliceregular" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'sliceregular'}; run from a source tree")
    sys.path.insert(0, str(SRC))
    import sliceregular

    if not Path(sliceregular.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported sliceregular from {sliceregular.__file__}, not {SRC}")


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "click": importlib.metadata.version("click"),
            "load": "closed loop, 1 client thread"}


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median set-up time of SETUP_REPEATS fresh interpreters: (raw, host-scaled)."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"error: set-up failed: {done.stderr.strip()}")
        r, s = done.stdout.split()
        raw.append(float(r))
        scaled.append(float(s))
    return statistics.median(raw), statistics.median(scaled)


def execute(workload, request, tracer=None) -> None:
    """Run one request (timed) and then check it against its references."""
    if tracer is not None:
        tracer.begin_request()
    t0 = perf_counter()
    try:
        workload.run(request)
    except Exception as exc:  # a failed request is counted, and the run goes on
        request.error = f"{type(exc).__name__}: {exc}"
    request.latency_s = perf_counter() - t0
    if tracer is not None:
        tracer.end_request()
    if request.error is None:
        try:
            request.checks = workload.check(request)
        except Exception as exc:
            request.checks = [f"check raised {type(exc).__name__}: {exc}"]


def drive(workload, seed: int, seconds: float) -> tuple[list, HostClock]:
    """Whole decks until `seconds` of request time and MIN_REQUESTS requests.

    Sets each request's host-scaled latency next to its raw one.
    """
    requests, busy, index = [], 0.0, 0
    clock = HostClock()
    while busy < seconds or len(requests) < MIN_REQUESTS:
        for request in workload.deck(seed, index):
            execute(workload, request)
            request.scaled_s = clock.scale(request.latency_s)
            # checked: holding inputs and outputs would grow the heap with run length
            request.params = request.outputs = None
            busy += request.latency_s
            requests.append(request)
        index += 1
    return requests, clock


def failures(requests) -> list[str]:
    out = []
    for i, r in enumerate(requests):
        if r.error is not None:
            out.append(f"request {i}: {r.error}")
        out.extend(f"request {i}: {c}" for c in r.checks)
    return out


def points_per_s(requests, scaled: bool = False) -> float:
    seconds = sum(r.scaled_s if scaled else r.latency_s for r in requests)
    return sum(r.points for r in requests) / seconds


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with the weights a Beta(q (n+1),
    (1-q) (n+1)) distribution puts on each 1/n of [0, 1].  Between runs it
    varies less than one order statistic does where the latencies are sparse.
    """
    ordered = np.sort(np.asarray(values, float))
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    x = np.linspace(0.0, 1.0, 20 * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max())), [0.0]])
    cdf[-1] = cdf[-2]
    cdf /= cdf[-1]
    weights = np.diff(cdf[::20])
    return float(weights @ ordered)


def untraced(workload, seed: int, seconds: float):
    setup_raw, setup = measure_setup(workload.name, seed)
    requests, clock = drive(workload, seed, seconds)
    latencies = [r.scaled_s * 1e3 for r in requests]
    raw = [r.latency_s * 1e3 for r in requests]
    metrics = {
        "setup_s": (setup, "s"),
        "points_per_s": (points_per_s(requests, scaled=True), "points/s"),
        "request_p50_ms": (percentile(latencies, 0.5), "ms"),
        "request_p90_ms": (percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    unscaled = {"setup_s": setup_raw, "points_per_s": points_per_s(requests),
                "request_p50_ms": percentile(raw, 0.5), "request_p90_ms": percentile(raw, 0.9),
                "host_slowdown_median": statistics.median(clock.slowdowns)}
    return requests, metrics, failures(requests), {"unscaled": unscaled}


def replay(workload, seed: int, tracer=None) -> list:
    requests = []
    for index in range(workload.TRACE_DECKS):
        for request in workload.deck(seed, index):
            execute(workload, request, tracer)
            requests.append(request)
    return requests


def traced(workload, seed: int):
    from tracing import METRICS, Tracer

    plain = replay(workload, seed)
    with Tracer() as tracer:
        requests = replay(workload, seed, tracer)
    problems = failures(plain) + failures(requests)
    for i, (a, b) in enumerate(zip(plain, requests)):
        if a.outputs != b.outputs:
            b.checks.append("traced output differs from the untraced one")
            problems.append(f"request {i}: traced output differs from the untraced one")
    units = {**METRICS, "trace.overhead_points_per_s": "points/s"}
    values = tracer.metrics()
    values["trace.overhead_points_per_s"] = points_per_s(requests) - points_per_s(plain)
    metrics = {name: (values[name], units[name]) for name in units}
    OUT.mkdir(exist_ok=True)
    dump = {"workload": workload.name, "seed": seed, "env": environment(),
            "metrics": values,
            "spans": [s.to_json_dict(tracer.t0) for s in tracer.retained]}
    (OUT / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(dump) + "\n")
    return requests, metrics, problems, {}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    workload = workloads.WORKLOADS[name]()
    requests, metrics, problems, notes = (traced(workload, seed) if trace
                                          else untraced(workload, seed, seconds))
    failed = sum(1 for r in requests if r.error is not None or r.checks)
    for line in problems[:20]:
        print(f"FAIL [{name}] {line}", file=sys.stderr)
    summary = {"workload": name, "seed": seed, "trace": int(trace), "requests": len(requests),
               **notes, "failed_frac": failed / len(requests),
               "points_are": workload.points_are,
               "env": environment()}
    print(json.dumps(summary))
    result = {"correct": not problems, "attempted": len(requests), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines))
        status = max(status, done.returncode)
        if done.returncode not in (0, 1) or not lines:
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_package()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
