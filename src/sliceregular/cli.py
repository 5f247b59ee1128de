"""Command line front end.

Subcommands:

    transform  evaluate the left/right Laplace transform of a JSON-described
               time function on a probe grid
    regprod    star-multiply two series and emit the product coefficients
    eval       evaluate a series on a probe grid
    verify     run a named property suite (algebra | regularity | laplace | all)
    table      tabulate a built-in slice regular function on a probe grid

Probe files are JSON: {"points": [[w,x,y,z], ...]} or
{"grid": {"re": [start, stop, n], "units": ["i", "j", [0,x,y,z]],
"im": [start, stop, n]}}; grids expand in canonical order (real part
ascending, units as declared, imaginary part ascending).  Each command takes
only the options it reads; --tol must be positive and finite.  Exit codes:
0 ok, 1 accuracy or property failure, 2 usage error.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from pathlib import Path
from typing import Optional

import click

from .errors import AccuracyError, DomainError, SliceRegularError, UsageError
from .laplace import DEFAULT_ABS_TOL, exp_transform_closed_form, laplace_left, laplace_right
from .quaternion import (
    I,
    J,
    K,
    Quaternion,
    quat_from_list,
    real_number,
    slice_embed,
    unit_imaginary,
)
from .series import RegularSeries, Side
from .slicefn import cauchy_kernel, cauchy_kernel_right, exp_function
from .suites import run_suite
from .timefunctions import time_function_from_json

_UNIT_NAMES = {"i": I, "j": J, "k": K}


def _load_spec(value: Optional[str], what: str):
    if value is None:
        raise UsageError(f"missing --input for {what}")
    text = value
    if not value.lstrip().startswith(("{", "[")):
        path = Path(value)
        if not path.exists():
            raise UsageError(f"{what} file {value!r} does not exist")
        text = path.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON for {what} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _parse_unit(u) -> Quaternion:
    if isinstance(u, str):
        if u in _UNIT_NAMES:
            return _UNIT_NAMES[u]
        raise UsageError(f"unknown unit name {u!r}; use i, j, k or a component list")
    q = quat_from_list(u)
    if abs(q.w) > 1e-12:
        raise UsageError("probe units must be purely imaginary")
    return unit_imaginary(q.x, q.y, q.z)


def _expand_axis(spec, field: str) -> list[float]:
    try:
        start, stop, count = spec[0], spec[1], spec[2]
    except (TypeError, IndexError) as exc:
        raise UsageError(f"grid field {field!r} must be [start, stop, count]: {exc}") from exc
    start = real_number(start, f"the start of grid field {field!r}")
    stop = real_number(stop, f"the stop of grid field {field!r}")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise UsageError(f"grid field {field!r} needs an integer count >= 1, got {count!r}")
    if count == 1:
        return [start]
    return [start + (stop - start) * k / (count - 1) for k in range(count)]


def _listed(value, what: str) -> list:
    if not isinstance(value, list):
        raise UsageError(f"{what} must be a list, got {value!r}")
    return value


def _parse_probes(value: Optional[str]) -> list[Quaternion]:
    if value is None:
        raise UsageError("missing --probes")
    data = _load_spec(value, "probes")
    if isinstance(data, list):
        return [quat_from_list(p) for p in data]
    if not isinstance(data, dict):
        raise UsageError(f"probes must be a list or an object, got {data!r}")
    if "points" in data:
        return [quat_from_list(p) for p in _listed(data["points"], "points")]
    if "grid" in data:
        g = data["grid"]
        if not isinstance(g, dict):
            raise UsageError(f"grid must be an object with 're', 'units' and 'im', got {g!r}")
        try:
            res = sorted(_expand_axis(g["re"], "re"))
            ims = sorted(_expand_axis(g["im"], "im"))
            units = [_parse_unit(u) for u in _listed(g["units"], "grid units")]
        except KeyError as exc:
            raise UsageError(f"grid descriptor is missing field {exc}") from exc
        return [slice_embed(x, y, u) for x in res for u in units for y in ims]
    raise UsageError("probes must contain 'points' or 'grid'")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _flatten(record: dict) -> dict[str, str]:
    flat: dict[str, str] = {}
    for key, value in record.items():
        if isinstance(value, (list, tuple)) and len(value) == 4:
            for suffix, comp in zip("wxyz", value):
                flat[f"{key}_{suffix}"] = _fmt(comp)
        elif isinstance(value, bool):
            flat[key] = "true" if value else "false"
        elif isinstance(value, float):
            flat[key] = _fmt(value)
        elif isinstance(value, int):
            flat[key] = str(value)
        elif value is None:
            flat[key] = ""
        else:
            flat[key] = str(value)
    return flat


def _emit(records: list[dict], fmt: str, out: Optional[str],
          preamble: Optional[dict] = None) -> None:
    if fmt == "json":
        payload = dict(preamble or {})
        payload["records"] = records
        text = json.dumps(payload, indent=2) + "\n"
    else:
        flats = [_flatten(r) for r in records]
        fieldnames: list[str] = []
        for flat in flats:
            for key in flat:
                if key not in fieldnames:
                    fieldnames.append(key)
        buffer = io.StringIO()
        writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([flat.get(k, "") for k in fieldnames] for flat in flats)
        text = buffer.getvalue()
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _emit_probe_records(points: list[Quaternion], key: str, evaluate, fmt: str,
                        out: Optional[str]) -> None:
    """One record per probe, {key: probe, **evaluate(probe)}; a DomainError or
    AccuracyError becomes an error record, and any error record exits 1."""
    records = []
    for p in points:
        try:
            fields = evaluate(p)
        except (DomainError, AccuracyError) as exc:
            fields = {"error": str(exc)}
        records.append({key: p.to_list(), **fields})
    _emit(records, fmt, out)
    if any("error" in r for r in records):
        sys.exit(1)


def _reports_errors(command):
    """Turn UsageError into click's usage error (exit 2) and any other library
    error into a message on stderr and exit 1."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except UsageError as exc:
            raise click.UsageError(str(exc)) from exc
        except SliceRegularError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return run


_OPTIONS = {
    "input": click.option("--input", "input_", metavar="FILE|JSON", default=None,
                          help="input spec, as a file path or inline JSON"),
    "probes": click.option("--probes", metavar="FILE|JSON", default=None,
                           help="probe points or grid, as a file path or inline JSON"),
    "tol": click.option("--tol", type=click.FloatRange(min=0.0, min_open=True),
                        default=None, help="accuracy target"),
    "format": click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                           default="json", help="output format"),
    "seed": click.option("--seed", type=click.IntRange(min=0), default=0,
                         help="seed for randomized property suites"),
    "out": click.option("--out", type=click.Path(), default=None,
                        help="output file (default: stdout)"),
}


def _options(*names: str):
    """Declare the named options of _OPTIONS, in the order given."""

    def decorate(fn):
        for name in reversed(names):
            fn = _OPTIONS[name](fn)
        return fn

    return decorate


@click.group()
def cli():
    """Slice regular function calculus and quaternionic Laplace transforms."""


@cli.command()
@_options("input", "probes", "tol", "format", "out")
@_reports_errors
def transform(input_, probes, tol, fmt, out):
    """Evaluate the Laplace transform of a time function at probe points.

    The input JSON describes the time function ({"kind": "exp", "b": [...]},
    "poly", "heaviside_shift", "sum", "scale"); an optional top-level
    "side": "left"|"right" selects the transform (default left).
    """
    spec = _load_spec(input_, "transform")
    if not isinstance(spec, dict):
        raise UsageError("transform input must be a JSON object")
    side_name = spec.pop("side", "left")
    try:
        side = Side(side_name)
    except ValueError as exc:
        raise UsageError(f"side must be 'left' or 'right', got {side_name!r}") from exc
    fn = time_function_from_json(spec)
    abs_tol = DEFAULT_ABS_TOL if tol is None else tol
    result = laplace_left(fn, abs_tol) if side is Side.LEFT else laplace_right(fn, abs_tol)
    points = _parse_probes(probes)

    def value_and_error(s: Quaternion) -> dict:
        value, err = result.evaluate_with_error(s)
        return {"value": value.to_list(), "est_error": err}

    _emit_probe_records(points, "s", value_and_error, fmt, out)


@cli.command()
@_options("input", "probes", "format", "out")
@_reports_errors
def regprod(input_, probes, fmt, out):
    """Star-multiply two series: input JSON {"f": <series>, "g": <series>}.

    A series is {"side": "left"|"right", "coeffs": [[w,x,y,z], ...]}.  Emits
    the product coefficients; with --probes, an evaluation table instead
    (JSON output always carries the coefficients).
    """
    spec = _load_spec(input_, "regprod")
    try:
        f = RegularSeries.from_json_dict(spec["f"])
        g = RegularSeries.from_json_dict(spec["g"])
    except (KeyError, TypeError) as exc:
        raise UsageError(f"regprod input needs series fields 'f' and 'g': {exc}") from exc
    product = f.star(g)
    preamble = product.to_json_dict()
    if probes is not None:
        records = [{"q": q.to_list(), "value": product(q).to_list()}
                   for q in _parse_probes(probes)]
    else:
        records = [{"n": n, "coeff": c} for n, c in enumerate(preamble["coeffs"])]
    _emit(records, fmt, out, preamble if fmt == "json" else None)


@cli.command("eval")
@_options("input", "probes", "format", "out")
@_reports_errors
def eval_series(input_, probes, fmt, out):
    """Evaluate a series (side-aware Horner) at probe points."""
    spec = _load_spec(input_, "eval")
    if not isinstance(spec, dict):
        raise UsageError("eval input must be a series object")
    series = RegularSeries.from_json_dict(spec)
    points = _parse_probes(probes)

    def record(q: Quaternion) -> dict:
        report = series.evaluate(q)
        return {"q": q.to_list(), "value": report.value.to_list(),
                "terms_used": report.terms_used, "trunc_bound": report.trunc_bound}

    _emit([record(q) for q in points], fmt, out)


@cli.command()
@click.argument("suite", type=str)
@_options("tol", "format", "seed", "out")
@_reports_errors
def verify(suite, tol, fmt, seed, out):
    """Run a named property suite; exit 0 iff every property passes."""
    checks = run_suite(suite, seed=seed, tol=tol)
    records = [c.to_json_dict() for c in checks]
    _emit(records, fmt, out, {"suite": suite, "seed": seed})
    failures = [c for c in checks if not c.passed]
    for c in failures:
        click.echo(
            f"FAIL [{c.suite}] {c.name}: residual {c.residual:.3e} vs "
            f"threshold {c.threshold:.1e} ({c.mode})", err=True)
    if failures:
        sys.exit(1)


_TABLE_BUILTINS = ("exp", "cauchy_kernel", "cauchy_kernel_right", "exp_transform")


@cli.command()
@_options("input", "probes", "format", "out")
@_reports_errors
def table(input_, probes, fmt, out):
    """Tabulate a built-in function on a probe grid.

    Inputs: {"function": "exp"} | {"function": "cauchy_kernel", "s": [...]}
    | {"function": "cauchy_kernel_right", "q": [...]} |
    {"function": "exp_transform", "b": [...], "side": "left"|"right"}.
    """
    spec = _load_spec(input_, "table")
    if not isinstance(spec, dict) or "function" not in spec:
        raise UsageError("table input must name a 'function'")
    name = spec["function"]
    try:
        if name == "exp":
            fn = exp_function()
        elif name == "cauchy_kernel":
            fn = cauchy_kernel(quat_from_list(spec["s"]))
        elif name == "cauchy_kernel_right":
            fn = cauchy_kernel_right(quat_from_list(spec["q"]))
        elif name == "exp_transform":
            fn = exp_transform_closed_form(
                quat_from_list(spec["b"]), Side(spec.get("side", "left"))).fn
        else:
            raise UsageError(
                f"unknown function {name!r}; expected one of {', '.join(_TABLE_BUILTINS)}")
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed table spec: {exc}") from exc
    _emit_probe_records(_parse_probes(probes), "q",
                        lambda q: {"value": fn.evaluate(q).to_list()}, fmt, out)


main = cli

if __name__ == "__main__":
    main()
