"""Experiment harness: run traces, sweeps, angle tables and model curves.

Output is CSV (header row, '.' decimals, LF line endings, floats with 10
significant digits) or JSON (one object with "meta" and "rows", floats at
full round-trip precision). Exit codes: 0 success, 2 usage error, 3
register-size error. Nothing in the pipeline is stochastic, so identical
command lines produce byte-identical output.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .analysis import (
    MAX_SEARCH_QUBITS,
    SuccessModel,
    amplitude_ratio,
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
    MarkedSet,
    RatioInterpretation,
    Schedule,
    ScheduleKind,
    fixed_phase,
    run_grover,
)
from .statevector import SizeLimitError, check_register_size

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
        lo_s, _, hi_s = text.partition("..")
        hi_s = hi_s or lo_s
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
        indices = frozenset(int(tok) for tok in str(value).split(","))
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}")
    if not indices:
        raise click.BadParameter("marked set must be nonempty")
    return indices


def _guarded(fn):
    """Map domain errors to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SizeLimitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_SIZE)
        except (ValueError, IndexError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_USAGE)

    return wrapper


def _schedule_options(fn):
    fn = click.option(
        "--hybrid-order",
        type=click.Choice([o.value for o in HybridOrder]),
        default=HybridOrder.H_THEN_RY.value,
        show_default=True,
        help="Gate order after iteration 1 of the hybrid schedule.",
    )(fn)
    fn = click.option(
        "--rotation-target",
        type=int,
        default=None,
        help="Qubit carrying the rotated controlled gate (default: highest).",
    )(fn)
    fn = click.option(
        "--eq10-interpretation",
        "interpretation",
        type=click.Choice([i.value for i in RatioInterpretation]),
        default=RatioInterpretation.ADDITIVE.value,
        show_default=True,
        help="How adaptive-eq10 combines the growth term with the base angle.",
    )(fn)
    fn = click.option(
        "--schedule",
        "schedule_name",
        type=click.Choice([k.value for k in ScheduleKind]),
        default=ScheduleKind.STANDARD.value,
        show_default=True,
        help="Diffusion-phase schedule.",
    )(fn)
    return fn


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


def _build_schedule(schedule_name, interpretation, rotation_target, hybrid_order) -> Schedule:
    return Schedule(
        kind=ScheduleKind(schedule_name),
        interpretation=RatioInterpretation(interpretation),
        rotation_target=rotation_target,
        hybrid_order=HybridOrder(hybrid_order),
    )


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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _json_value(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _emit(columns, rows, meta, fmt, out, csv_trailer=()):
    """Serialize rows (list of per-column dicts) as CSV or JSON."""
    if fmt == "json":
        payload = {
            "meta": meta,
            "rows": [{c: _json_value(r[c]) for c in columns} for r in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_csv_cell(r[c]) for c in columns])
        for extra in csv_trailer:
            writer.writerow([_csv_cell(v) for v in extra])
        text = buf.getvalue()
    if out is None:
        click.echo(text, nl=False)
    else:
        out.write_text(text)


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
def cmd_run(qubits, marked, iterations, schedule_name, interpretation, rotation_target, hybrid_order, fmt, out):
    """Simulate one search run and emit its per-iteration trace."""
    schedule = _build_schedule(schedule_name, interpretation, rotation_target, hybrid_order)
    if marked is None:
        check_register_size(qubits)
        marked = frozenset({(1 << qubits) - 1})
    config = GroverConfig(qubits, MarkedSet(marked), schedule, iterations)
    trace = run_grover(config)

    columns = ["iteration", "theta_used", "target_probability", "mean_amplitude"]
    rows = [
        {
            "iteration": r.iteration,
            "theta_used": r.theta_used,
            "target_probability": r.target_probability,
            "mean_amplitude": r.mean_amplitude,
        }
        for r in trace.records
    ]
    meta = _base_meta("run", schedule)
    meta.update(
        qubits=qubits,
        marked=sorted(config.marked.indices),
        iterations=config.max_iterations,
        initial_probability=trace.initial_probability,
        notes=list(trace.notes),
    )
    _emit(columns, rows, meta, fmt, out)


@main.command(name="sweep")
@click.option("--qubits", "qubit_range", type=QubitRangeParam(), required=True, help="Inclusive range LO..HI.")
@_schedule_options
@_output_options
@_guarded
def cmd_sweep(qubit_range, schedule_name, interpretation, rotation_target, hybrid_order, fmt, out):
    """Compare standard vs scheduled peak iteration counts over a qubit range."""
    schedule = _build_schedule(schedule_name, interpretation, rotation_target, hybrid_order)
    report = sweep_compare(qubit_range[0], qubit_range[1], schedule)

    columns = [
        "n",
        "std_iters",
        "mod_iters",
        "difference",
        "ratio",
        "improvement_pct",
        "std_peak_prob",
        "mod_peak_prob",
        "schedule_used",
    ]
    rows = [
        {
            "n": r.n_qubits,
            "std_iters": r.std_iters,
            "mod_iters": r.mod_iters,
            "difference": r.difference,
            "ratio": r.ratio,
            "improvement_pct": r.improvement_pct,
            "std_peak_prob": r.std_peak_prob,
            "mod_peak_prob": r.mod_peak_prob,
            "schedule_used": r.schedule_used,
        }
        for r in report.rows
    ]
    meta = _base_meta("sweep", schedule)
    meta.update(
        qubits=f"{qubit_range[0]}..{qubit_range[1]}",
        average_improvement_pct=report.average_improvement_pct,
        average_improvement_pct_excl_2q=report.average_improvement_pct_excl_2q,
    )
    trailer = [
        ["average_improvement_pct", "", "", "", "", report.average_improvement_pct, "", "", ""],
        [
            "average_improvement_pct_excl_2q",
            "",
            "",
            "",
            "",
            report.average_improvement_pct_excl_2q,
            "",
            "",
            "",
        ],
    ]
    _emit(columns, rows, meta, fmt, out, csv_trailer=trailer)


@main.command(name="angles")
@click.option("--qubits", "qubit_range", type=QubitRangeParam(), required=True, help="Inclusive range LO..HI (LO >= 2).")
@_output_options
@_guarded
def cmd_angles(qubit_range, fmt, out):
    """Tabulate the closed-form rotation angle against the numeric search.

    The search column is filled while the search is supported (n <= 12);
    larger registers emit the closed form only.
    """
    lo, hi = qubit_range
    columns = ["n", "half_angle_tangent", "phase_closed_form", "phase_search", "abs_difference"]
    rows = []
    for n in range(lo, hi + 1):
        closed = fixed_phase(n)
        numerator = (1 << (n - 2)) - 1
        denominator = 1 << (n - 2)
        searched = optimal_phase_search(n) if n <= MAX_SEARCH_QUBITS else None
        rows.append(
            {
                "n": n,
                "half_angle_tangent": f"{numerator}/{denominator}",
                "phase_closed_form": closed,
                "phase_search": searched,
                "abs_difference": abs(searched - closed) if searched is not None else None,
            }
        )
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
        else None
    )
    columns = ["iteration", "amplitude_recurrence", "amplitude_statevector", "ratio", "model_ratio"]
    rows = []
    for pos, row in enumerate(table):
        ratio = table[pos + 1].a / row.a if pos + 1 < len(table) and row.a != 0.0 else None
        rows.append(
            {
                "iteration": row.iteration,
                "amplitude_recurrence": row.a,
                "amplitude_statevector": simulated[pos] if simulated is not None else None,
                "ratio": ratio,
                "model_ratio": float(amplitude_ratio(row.iteration)),
            }
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
def cmd_curve(qubits, iterations, with_model, schedule_name, interpretation, rotation_target, hybrid_order, fmt, out):
    """Success probability per iteration (iteration 0 = initial state)."""
    schedule = _build_schedule(schedule_name, interpretation, rotation_target, hybrid_order)
    check_register_size(qubits)
    marked = MarkedSet(frozenset({(1 << qubits) - 1}))
    trace = run_grover(GroverConfig(qubits, marked, schedule, iterations))
    model = SuccessModel.for_search(qubits, marked.count)

    columns = ["iteration", "probability"]
    if with_model:
        columns += ["model_standard", "model_modified"]
    probabilities = [trace.initial_probability] + [r.target_probability for r in trace.records]
    rows = []
    for i, p in enumerate(probabilities):
        row = {"iteration": i, "probability": p}
        if with_model:
            row["model_standard"] = success_probability_standard(i, model)
            row["model_modified"] = success_probability_modified(i, model)
        rows.append(row)
    meta = _base_meta("curve", schedule)
    meta.update(qubits=qubits, iterations=iterations, delta_theta=model.delta_theta)
    _emit(columns, rows, meta, fmt, out)


if __name__ == "__main__":
    main()
