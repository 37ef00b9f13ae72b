"""Experiment harness: run traces, sweeps, angle tables and model curves.

Output is CSV (header row, '.' decimals, LF line endings, floats with 10
significant digits) or JSON (one object with "meta" and "rows", floats at
full round-trip precision). Exit codes: 0 success, 2 usage error
(including an --out file that cannot be opened; one whose directory does
not exist is rejected before the command computes), 3 register-size error.
Nothing in the pipeline is stochastic, so identical command lines produce
byte-identical output.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import operator
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import click
import numpy as np

from . import __version__
from .analysis import (
    MAX_RECURRENCE_QUBITS,
    ComparisonRow,
    SuccessModel,
    optimal_phase_search,
    recurrence_table,
    simulated_amplitude_series,
    success_probability_modified,
    success_probability_standard,
    sweep_compare,
)
from .grover import (
    GroverConfig,
    HybridOrder,
    IterationRecord,
    RatioInterpretation,
    Schedule,
    ScheduleKind,
    fixed_phase,
    iterate_grover,
)
from .statevector import MAX_QUBITS, SizeLimitError

# Statevector cross-check column in `recurrence` is produced up to this size;
# beyond it only the recurrence column is emitted.
RECURRENCE_SIM_MAX_QUBITS = 16

EXIT_USAGE = 2
EXIT_SIZE = 3


class QubitRangeParam(click.ParamType):
    """Inclusive range 'LO..HI'; a bare 'N' means N..N."""

    name = "range"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        text = str(value).strip()
        lo_s, dots, hi_s = text.partition("..")
        if not dots:
            hi_s = lo_s
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            self.fail(f"expected LO..HI, got {value!r}", param, ctx)
        if lo > hi:
            self.fail(f"empty qubit range {value!r}", param, ctx)
        return lo, hi


def _parse_marked(ctx, param, value):
    if value is None:
        return None
    try:
        return frozenset(int(tok) for tok in str(value).split(","))
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}")


def _guarded(fn):
    """Map domain errors to the documented exit codes.

    An --out whose directory does not exist is a usage error, reported
    before the command computes anything.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            out = kwargs.get("out")
            if out is not None and not out.parent.is_dir():
                raise ValueError(f"cannot open {out}: {out.parent} is not a directory")
            return fn(*args, **kwargs)
        except SizeLimitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_SIZE)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_USAGE)

    return wrapper


def _schedule_options(fn):
    """Add the four schedule flags; the command receives them as one `schedule`."""

    @click.option(
        "--schedule",
        type=click.Choice([k.value for k in ScheduleKind]),
        default=ScheduleKind.STANDARD.value,
        show_default=True,
        help="Diffusion-phase schedule.",
    )
    @click.option(
        "--eq10-interpretation",
        type=click.Choice([i.value for i in RatioInterpretation]),
        default=RatioInterpretation.ADDITIVE.value,
        show_default=True,
        help="How adaptive-eq10 combines the growth term with the base angle.",
    )
    @click.option(
        "--rotation-target",
        type=int,
        default=None,
        help="Qubit carrying the rotated controlled gate (default: highest).",
    )
    @click.option(
        "--hybrid-order",
        type=click.Choice([o.value for o in HybridOrder]),
        default=HybridOrder.H_THEN_RY.value,
        show_default=True,
        help="Gate order after iteration 1 of the hybrid schedule.",
    )
    @functools.wraps(fn)
    def wrapper(schedule, eq10_interpretation, rotation_target, hybrid_order, **kwargs):
        return fn(schedule=Schedule(schedule, eq10_interpretation, rotation_target, hybrid_order), **kwargs)

    return wrapper


def _output_options(fn):
    fn = click.option(
        "--out",
        type=click.Path(dir_okay=False, writable=True, path_type=Path),
        default=None,
        help="Write to a file instead of stdout.",
    )(fn)
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["csv", "json"]),
        default="csv",
        show_default=True,
    )(fn)
    return fn


def _base_meta(command: str, schedule: Schedule | None = None) -> dict:
    meta = {
        "tool": "groversim",
        "version": __version__,
        "command": command,
        "schedule": schedule.kind.value if schedule else None,
        "eq10_interpretation": schedule.interpretation.value if schedule else None,
        "rotation_target": schedule.rotation_target if schedule else None,
        "hybrid_order": schedule.hybrid_order.value if schedule else None,
    }
    return meta


# Returns one CSV line, its fields quoted on the running Python's rules
# (3.13 also quotes "\r"): writerow returns what its file's write, here
# str, returns.
_CSV_LINE = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


# Rows per write, in both formats. A chunk is a few KiB of text.
_ROWS_PER_CHUNK = 128
# The % spec that writes a cell of each exact type in each format. %r writes
# a finite float as json does (float.__repr__); %.0s consumes a None and
# writes nothing of it. Every other cell, bool, str and float subclasses
# such as numpy.float64 included, is written by the format's per-cell writer
# and placed with %s.
_JSON_SPECS = {int: "%d", float: "%r", type(None): "%.0snull"}
_CSV_SPECS = {int: "%d", float: "%.10g", type(None): "%.0s"}


def _csv_cell(value, alone: bool) -> str:
    """value as a CSV cell: a float with 10 significant digits, any other
    value as csv writes it, as a row's only cell or among others."""
    if isinstance(value, float):
        return "%.10g" % value
    return _CSV_LINE((value,))[:-1] if alone else _CSV_LINE((value, None))[:-2]


class _Layout(NamedTuple):
    """How one format writes rows of one width."""

    width: int
    specs: dict  # the % spec of each exact cell type
    cell: Callable[[object], str]  # the per-cell writer of every other cell
    row: Callable[[tuple], str]  # the % template of a row, from its cells' specs
    sep: str  # between two rows


def _json_layout(columns) -> _Layout:
    """Rows as json.dumps(indent=2) lays out a dict(zip(columns, row)) in
    the document's rows list; a key's % is doubled in the template."""
    keys = [json.dumps(column).replace("%", "%%") for column in columns]

    def row(specs):
        items = ",".join(f"\n      {key}: {spec or '%s'}" for key, spec in zip(keys, specs))
        return "{" + items + "\n    }" if items else "{}"

    return _Layout(len(columns), _JSON_SPECS, json.dumps, functools.cache(row), ",\n    ")


def _csv_layout(width: int) -> _Layout:
    """Rows as csv.writer(lineterminator="\n") writes them, floats with 10
    significant digits. csv writes a row's only cell "" when it is empty, so
    every cell of a one-cell row takes the per-cell writer."""
    alone = width == 1
    return _Layout(
        width,
        {} if alone else _CSV_SPECS,
        functools.partial(_csv_cell, alone=alone),
        functools.cache(lambda specs: ",".join(spec or "%s" for spec in specs) + "\n"),
        "",
    )


def _column_spec(cells: tuple, specs: dict) -> str | None:
    """The % spec that writes every one of a column's cells, or None if each
    takes the per-cell writer: the cells differ in type, their type has no
    spec, or the spec is %r and a cell is NaN or infinite, which json writes
    as NaN or Infinity. A sum of finite floats that overflows sends them to
    the per-cell writer too, which writes the same text."""
    types = set(map(type, cells))
    spec = specs.get(types.pop()) if len(types) == 1 else None
    if spec == "%r" and not math.isfinite(sum(cells)):
        return None
    return spec


def _texts(rows, layout: _Layout):
    """Yield the text of rows, tuples of layout.width cells, _ROWS_PER_CHUNK
    at a time. A chunk is one % call on its flattened cells. Its template
    repeats the row template of its column specs, built once per tuple of
    specs; a column without a spec is passed through layout.cell first. A
    row of another width raises ValueError naming its index."""
    rows = iter(rows)
    start = 0
    while chunk := list(itertools.islice(rows, _ROWS_PER_CHUNK)):
        count = len(chunk)
        if set(map(len, chunk)) != {layout.width}:
            i = next(i for i, row in enumerate(chunk) if len(row) != layout.width)
            raise ValueError(f"row {start + i}: {len(chunk[i])} cells under {layout.width} columns")
        columns = list(zip(*chunk))
        specs = tuple(_column_spec(cells, layout.specs) for cells in columns)
        if None in specs:
            chunk = zip(*(cells if spec else map(layout.cell, cells) for cells, spec in zip(columns, specs)))
        template = layout.sep.join(itertools.repeat(layout.row(specs), count))
        yield template % tuple(itertools.chain.from_iterable(chunk))
        start += count


def _emit(columns, rows, meta, fmt, out, csv_trailer=()):
    """Stream rows, tuples of scalars under `columns`, as CSV or JSON.

    `rows` is any iterable, consumed once and written _ROWS_PER_CHUNK rows
    at a time by _texts, so the text is never held whole. Every row has one
    cell per column; a row that does not raises ValueError. CSV is the bytes
    of csv.writer(lineterminator="\n") on the header, the rows and the
    csv_trailer rows, which may be of any width, each float cell written
    with 10 significant digits. JSON is the bytes of json.dumps({"meta":
    meta, "rows": [dict(zip(columns, row)), ...]}, indent=2) plus a
    newline; `columns` are distinct. An --out file that cannot be opened
    is a usage error; a failed write is not.
    """
    try:
        dest = out.open("w") if out is not None else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(exc) from exc
    with dest as f:
        if fmt == "json":
            # Drop the head's closing "\n}"; the rows list closes the document.
            f.write(json.dumps({"meta": meta}, indent=2)[:-2] + ',\n  "rows": [')
            sep = "\n    "
            for text in _texts(rows, _json_layout(columns)):
                f.write(sep + text)
                sep = ",\n    "
            f.write("]\n}\n" if sep == "\n    " else "\n  ]\n}\n")
            return
        f.write(_CSV_LINE(columns))
        f.writelines(_texts(rows, _csv_layout(len(columns))))
        for row in csv_trailer:
            f.writelines(_texts([row], _csv_layout(len(row))))


def _initial_probability(config: GroverConfig) -> float:
    """Target probability of the uniform state, before any iteration.

    Only the M marked amplitudes are built, each 1/sqrt(N) as in
    uniform_superposition; the run loop's readout, |a|**2 summed over the
    same M values, gives the same bytes without a full register.
    """
    amps = np.full(len(config.marked), 1.0 / math.sqrt(1 << config.n_qubits))
    return float((np.abs(amps) ** 2).sum())


@click.group()
@click.version_option(__version__, prog_name="groversim")
def main():
    """Statevector experiments with standard and phase-rotated diffusion."""


@main.command(name="run")
@click.option("--qubits", type=int, required=True, help="Register size n.")
@click.option(
    "--marked",
    callback=_parse_marked,
    default=None,
    help="Comma-separated marked basis indices (default: 2^n - 1).",
)
@click.option("--iterations", type=int, default=None, help="Iteration count (default: 2*opt + 2).")
@_schedule_options
@_output_options
@_guarded
def cmd_run(qubits, marked, iterations, schedule, fmt, out):
    """Simulate one search run and emit its per-iteration trace."""
    config = GroverConfig(qubits, marked, schedule, iterations)
    records = list(iterate_grover(config))
    notes = []
    if schedule.kind is not ScheduleKind.STANDARD and len(config.marked) > 1:
        notes.append(
            "modified schedules assume a single marked state; "
            f"results for {len(config.marked)} marked states are exploratory"
        )
    meta = _base_meta("run", schedule)
    meta.update(
        qubits=qubits,
        marked=list(config.marked),
        iterations=config.max_iterations,
        initial_probability=_initial_probability(config),
        notes=notes,
    )
    _emit(IterationRecord._fields, records, meta, fmt, out)


@main.command(name="sweep")
@click.option("--qubits", "qubit_range", type=QubitRangeParam(), required=True, help="Inclusive range LO..HI.")
@_schedule_options
@_output_options
@_guarded
def cmd_sweep(qubit_range, schedule, fmt, out):
    """Compare standard vs scheduled peak iteration counts over a qubit range."""
    report = sweep_compare(qubit_range[0], qubit_range[1], schedule)
    meta = _base_meta("sweep", schedule)
    meta.update(
        qubits=f"{qubit_range[0]}..{qubit_range[1]}",
        average_improvement_pct=report.average_improvement_pct,
        average_improvement_pct_excl_2q=report.average_improvement_pct_excl_2q,
    )
    # Each average sits under the improvement_pct column; its other cells are blank.
    averages = ("average_improvement_pct", "average_improvement_pct_excl_2q")
    at = ComparisonRow._fields.index("improvement_pct")
    blank = ("",) * len(ComparisonRow._fields)
    trailer = [(name, *blank[1:at], meta[name], *blank[at + 1 :]) for name in averages]
    _emit(ComparisonRow._fields, report.rows, meta, fmt, out, csv_trailer=trailer)


@main.command(name="angles")
@click.option("--qubits", "qubit_range", type=QubitRangeParam(), required=True, help="Inclusive range LO..HI (LO >= 2).")
@_output_options
@_guarded
def cmd_angles(qubit_range, fmt, out):
    """Tabulate the closed-form rotation angle against the numeric search.

    The search column is filled up to the register's limit (n <= 20,
    MAX_QUBITS); larger registers emit the closed form only.
    """
    lo, hi = qubit_range
    # The closed-form ceiling; from n = 55 on the angle rounds to pi/2 exactly.
    if hi > MAX_RECURRENCE_QUBITS:
        raise SizeLimitError(f"angles supports up to {MAX_RECURRENCE_QUBITS} qubits, got {hi}")
    columns = ("n", "half_angle_tangent", "phase_closed_form", "phase_search", "abs_difference")
    rows = []
    for n in range(lo, hi + 1):
        closed = fixed_phase(n)
        denominator = 1 << (n - 2)
        searched = optimal_phase_search(n) if n <= MAX_QUBITS else None
        difference = abs(searched - closed) if searched is not None else None
        rows.append((n, f"{denominator - 1}/{denominator}", closed, searched, difference))
    meta = _base_meta("angles")
    meta.update(qubits=f"{lo}..{hi}")
    _emit(columns, rows, meta, fmt, out)


@main.command(name="recurrence")
@click.option("--qubits", type=int, required=True, help="Register size n (N = 2^n).")
@click.option("--iterations", type=int, required=True, help="Number of recurrence rows.")
@_output_options
@_guarded
def cmd_recurrence(qubits, iterations, fmt, out):
    """Emit the two-amplitude recurrence next to the statevector amplitudes.

    Columns: marked amplitude from the recurrence, the same amplitude from a
    full simulation (register sizes up to 16), the measured growth ratio
    a_{i+1}/a_i (empty on the final row) and the model ratio (2i+1)/(2i-1).
    """
    table = recurrence_table(qubits, iterations)
    simulated = (
        simulated_amplitude_series(qubits, iterations)
        if qubits <= RECURRENCE_SIM_MAX_QUBITS
        else itertools.repeat(None)
    )
    columns = ("iteration", "amplitude_recurrence", "amplitude_statevector", "ratio", "model_ratio")
    ratios = (b / a if a != 0.0 else None for a, b in zip(table, itertools.islice(table, 1, None)))
    rows = zip(
        itertools.count(1),
        table,
        simulated,
        itertools.chain(ratios, [None]),
        # (2i+1)/(2i-1): int true division rounds the exact ratio correctly; no Fraction needed.
        map(operator.truediv, itertools.count(3, 2), itertools.count(1, 2)),
    )
    meta = _base_meta("recurrence")
    meta.update(qubits=qubits, iterations=iterations)
    _emit(columns, rows, meta, fmt, out)


@main.command(name="curve")
@click.option("--qubits", type=int, required=True, help="Register size n.")
@click.option("--iterations", type=int, required=True, help="Curve length in iterations.")
@click.option("--with-model", is_flag=True, help="Add the closed-form model columns.")
@_schedule_options
@_output_options
@_guarded
def cmd_curve(qubits, iterations, with_model, schedule, fmt, out):
    """Success probability per iteration (iteration 0 = initial state)."""
    config = GroverConfig(qubits, schedule=schedule, max_iterations=iterations)
    probabilities = [r.target_probability for r in iterate_grover(config)]
    probabilities.insert(0, _initial_probability(config))
    model = SuccessModel.for_search(qubits, len(config.marked))
    columns = ("iteration", "probability")
    rows = list(enumerate(probabilities))
    if with_model:
        columns += ("model_standard", "model_modified")
        rows = [
            (i, p, success_probability_standard(i, model), success_probability_modified(i, model))
            for i, p in rows
        ]
    meta = _base_meta("curve", schedule)
    meta.update(qubits=qubits, iterations=iterations, delta_theta=model.delta_theta)
    _emit(columns, rows, meta, fmt, out)


if __name__ == "__main__":
    main()
