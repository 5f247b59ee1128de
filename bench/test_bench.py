"""Tests of the benchmark itself: python3 -m pytest bench"""

import copy
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import run
import workloads
from tracing import EXACT_COUNTS, Tracer

SEED = 7


def small(name: str) -> tuple[workloads.Workload, list[workloads.Request]]:
    """A few cheap requests of the workload's first deck."""
    workload = workloads.WORKLOADS[name]()
    deck = workload.deck(SEED, 0)
    # transform_grid orders its deck by stratum, the cheapest (far from the edge) last
    picked = deck[-len(workload.KINDS):] if name == "transform_grid" else deck[:2]
    return workload, picked


def run_requests(workload, requests, tracer=None):
    for request in requests:
        run.execute(workload, request, tracer)
    return requests


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_at_minimal_size(name):
    workload, requests = small(name)
    for request in run_requests(workload, requests):
        assert request.error is None
        assert request.checks == []
        assert request.points > 0 and request.latency_s > 0


def test_inputs_are_seeded():
    for name, make in workloads.WORKLOADS.items():
        a, b, c = make().deck(SEED, 0), make().deck(SEED, 0), make().deck(SEED + 1, 0)
        assert [r.params for r in a] == [r.params for r in b], name
        assert [r.params for r in a] != [r.params for r in c], name


def _perturb_transform_grid(outputs):
    doc = json.loads(outputs)
    doc["records"][0]["value"][2] += 1e-5
    return json.dumps(doc)


def _perturb_operational_calculus(outputs):
    values, again, convolved = copy.deepcopy(outputs)
    for rows in (values, again):  # the same change in both passes
        w, x, y, z = rows[3][0]
        rows[3][0] = (w, x + 1e-5, y, z)
    return values, again, convolved


def _perturb_series_algebra(outputs):
    out = copy.deepcopy(outputs)
    w, x, y, z = out["values"][0]
    out["values"][0] = (w, x, y * (1 + 1e-6) + 1e-6, z)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reference_check_rejects_a_perturbed_value(name):
    workload, requests = small(name)
    request = run_requests(workload, requests[:1])[0]
    assert request.checks == []
    request.outputs = globals()[f"_perturb_{name}"](request.outputs)
    assert workload.check(request) != []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(name):
    workload, requests = small(name)
    plain = run_requests(workload, requests)
    _, again = small(name)
    with Tracer() as tracer:
        traced = run_requests(workload, again, tracer)
    assert [r.outputs for r in traced] == [r.outputs for r in plain]
    assert all(r.checks == [] for r in traced)


def test_tracer_restores_every_entry_point():
    from sliceregular import quadrature
    from sliceregular.quaternion import Quaternion

    before = (Quaternion.__mul__, quadrature.integrate_adaptive)
    with Tracer():
        assert Quaternion.__mul__ is not before[0]
    assert (Quaternion.__mul__, quadrature.integrate_adaptive) == before


def _traced_counts(name):
    workload, requests = small(name)
    with Tracer() as tracer:
        run_requests(workload, requests, tracer)
    return tracer.metrics()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_exact_counts_repeat_for_one_seed(name):
    first, second = _traced_counts(name), _traced_counts(name)
    moved = {k: (first[k], second[k]) for k in EXACT_COUNTS if first[k] != second[k]}
    if moved:
        warnings.warn(f"{name}: counts that did not repeat: {moved}")
    # evaluator calls go through a cache the CLI's probe threads share, so two
    # threads can both miss on one t; every other exact count must repeat
    moved.pop("timefunctions.evaluator_calls", None)
    assert moved == {}


def test_traced_run_reports_each_layer_it_calls():
    tg = _traced_counts("transform_grid")
    sa = _traced_counts("series_algebra")
    for key in ("cli.requests", "laplace.evals", "quadrature.integrand_calls",
                "timefunctions.evaluator_calls", "slicefn.evals", "quaternion.mul_calls"):
        assert tg[key] > 0, key
    for key in ("cli.requests", "series.star_calls", "stems.evals", "verify.calls",
                "quaternion.mul_calls"):
        assert sa[key] > 0, key
    # no quadrature runs in series algebra
    assert sa["quadrature.calls"] == 0 and sa["laplace.evals"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series_algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_host_clock_divides_by_the_slowdown_around_each_interval(monkeypatch):
    import host

    kernel = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(host, "kernel_time", lambda: next(kernel) * host.REFERENCE_S)
    clock = host.HostClock()
    assert clock.scale(4.0) == pytest.approx(2.0)  # slowdown (1 + 3) / 2
    assert clock.scale(4.0) == pytest.approx(1.0)  # slowdown (3 + 5) / 2
    assert clock.slowdowns == pytest.approx([2.0, 4.0])
