"""Span tracer for the benchmark's traced runs.

Wraps every public function of groversim's statevector, grover and
analysis modules, and the CLI entry point cli.main, at every name each one
is bound to: `from .statevector import apply_one_qubit_gate` copies the
name into grover, so both bindings are replaced. Each call records one
span (name, start, end, parent) in flat in-memory arrays; `save` writes
them out once the pass is over, and `layer_metrics` reduces them to the
per-layer metrics. Functions captured before instrumenting, such as a
default argument value, stay untraced.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("statevector", "grover", "analysis", "cli")
ENTRY_POINTS = {"cli": ("main",)}  # click objects, not plain functions

GATES = ("statevector.apply_one_qubit_gate", "statevector.apply_controlled_one_qubit_gate")
DIFFUSIONS = ("grover.modified_diffusion", "grover.standard_diffusion_gates")

# An integer kept per span, taken from the call's result: the register
# size of kernels and runs, the row count of the recurrence.
SIZE_OF = {
    **{name: (lambda state: state.n_qubits) for name in GATES + DIFFUSIONS},
    "grover.run_grover": lambda trace: trace.config.n_qubits,
    "analysis.recurrence_table": len,
}

# Bytes a gate call reads and writes, counted from array sizes: one
# complex128 (16 B) in and one out per amplitude.
GATE_BYTES_PER_AMPLITUDE = 32

PER_ITERATION_QUBITS = (5, 13, 16, 20)


class Tracer:
    """Spans in flat arrays, indexed by span id in call order.

    `parent` is -1 for a top-level call. `size` is -1 unless SIZE_OF names
    the function; `failed` is 1 when the call raised.
    """

    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("i")
        self.failed = array("b")
        self._open = [-1]

    def wrap(self, fn, label: str):
        name_id = len(self.labels)
        self.labels.append(label)
        size_of = SIZE_OF.get(label)

        def traced(*args, **kwargs):
            span = len(self.name)
            self.name.append(name_id)
            self.parent.append(self._open[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.size.append(-1)
            self.failed.append(0)
            self._open.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                self.failed[span] = int(exc.code not in (0, None))
                raise
            except BaseException:
                self.failed[span] = 1
                raise
            finally:
                self.end[span] = perf_counter()
                self.start[span] = start
                self._open.pop()
            if size_of is not None:
                self.size[span] = size_of(result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            key: np.frombuffer(getattr(self, key), dtype=getattr(self, key).typecode)
            for key in ("name", "parent", "start", "end", "size", "failed")
        }

    def save(self, path) -> None:
        np.savez(path, labels=np.array(self.labels), **self.arrays())


def _traced_callables(module, layer: str):
    for name, obj in vars(module).items():
        if name in ENTRY_POINTS.get(layer, ()) or (
            not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
        ):
            yield name, obj


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Replace every binding of every traced callable while the block runs."""
    modules = {layer: importlib.import_module(f"groversim.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name, obj in _traced_callables(module, layer):
            wrappers[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{name}"))
    patched = []
    for module in (importlib.import_module("groversim"), *modules.values()):
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                setattr(module, name, wrappers[id(obj)][1])
                patched.append((module, name, obj))
    try:
        yield
    finally:
        for module, name, obj in patched:
            setattr(module, name, obj)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Calls nest on one thread, so children never overlap one another and
    the time they cover is the sum of their durations.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
    return duration - covered


def layer_metrics(labels: list[str], spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    name, parent, size, failed = (spans[k] for k in ("name", "parent", "size", "failed"))
    duration = spans["end"] - spans["start"]
    self_time = self_times(spans["start"], spans["end"], parent)
    layer_of = np.array([label.split(".")[0] for label in labels])

    def mask(*wanted: str) -> np.ndarray:
        ids = [i for i, label in enumerate(labels) if label in wanted]
        return np.isin(name, ids)

    def parent_in(m: np.ndarray) -> np.ndarray:
        return (parent >= 0) & m[np.maximum(parent, 0)]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    gate = mask(*GATES)
    top_gate = gate & ~parent_in(gate)
    diffusion = mask(*DIFFUSIONS)
    run = mask("grover.run_grover")
    search = mask("analysis.optimal_phase_search")
    # The search objective calls the diffusion and the readout directly.
    objective_diffusion = diffusion & parent_in(search)
    objective = objective_diffusion | (mask("statevector.target_probability") & parent_in(search))
    run_iteration = diffusion & parent_in(run)
    iterations_per_run = np.bincount(parent[run_iteration], minlength=len(name))
    main = mask("cli.main")

    metrics = {
        "statevector.gate_calls": int(top_gate.sum()),
        "statevector.gate_s": float(duration[top_gate].sum()),
        "statevector.gate_bytes_computed": int(
            (GATE_BYTES_PER_AMPLITUDE * (np.int64(1) << size[top_gate].astype(np.int64))).sum()
        ),
        "statevector.flip_calls": int(mask("statevector.phase_flip_indices").sum()),
        "statevector.flip_s": float(duration[mask("statevector.phase_flip_indices")].sum()),
        "statevector.readout_calls": int(mask("statevector.target_probability").sum()),
        "statevector.readout_s": float(duration[mask("statevector.target_probability")].sum()),
        "statevector.prep_s": float(duration[mask("statevector.uniform_superposition")].sum()),
        "grover.oracle_calls": int(mask("grover.apply_oracle").sum()),
        "grover.oracle_self_s": float(self_time[mask("grover.apply_oracle")].sum()),
        "grover.diffusion_calls": int(diffusion.sum()),
        "grover.diffusion_s": float(duration[diffusion].sum()),
        "grover.diffusion_self_s": float(self_time[diffusion].sum()),
        "grover.gates_per_diffusion": ratio(float((top_gate & parent_in(diffusion)).sum()), float(diffusion.sum())),
        "grover.iterations": int(run_iteration.sum()),
        "grover.run_self_s": float(self_time[run].sum()),
    }
    for n in PER_ITERATION_QUBITS:
        at_n = run & (size == n)
        metrics[f"grover.s_per_iteration.n{n}"] = ratio(
            float(duration[at_n].sum()), float(iterations_per_run[at_n].sum())
        )
    metrics.update(
        {
            "analysis.search_s": float(duration[search].sum()),
            "analysis.objective_evals": int(objective_diffusion.sum()),
            "analysis.objective_s": float(duration[objective].sum()),
            "analysis.evals_per_angle": ratio(float(objective_diffusion.sum()), float(search.sum())),
            "analysis.sweep_self_s": float(self_time[mask("analysis.sweep_compare")].sum()),
            "analysis.peak_s": float(duration[mask("analysis.find_peak_iteration")].sum()),
            "analysis.recurrence_rows": int(size[mask("analysis.recurrence_table")].sum()),
            "analysis.recurrence_s": float(duration[mask("analysis.recurrence_table")].sum()),
            "cli.commands": int(main.sum()),
            "cli.self_s": float(self_time[main].sum()),
        }
    )
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = int(failed[layer_of[name] == layer].sum())
    metrics["trace.spans"] = len(name)
    return metrics
