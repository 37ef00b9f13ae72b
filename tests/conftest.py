import numpy as np
import pytest
from click.testing import CliRunner

from groversim import (
    HADAMARD,
    PAULI_X,
    HybridOrder,
    RatioInterpretation,
    Schedule,
    ScheduleKind,
    StateVector,
    apply_controlled_one_qubit_gate,
    apply_one_qubit_gate,
)
from groversim.cli import main as cli_main

# Every ScheduleKind, HybridOrder and RatioInterpretation, and a
# non-default rotation target.
SCHEDULES = [
    Schedule(),
    Schedule(ScheduleKind.FIXED),
    Schedule(ScheduleKind.ADAPTIVE),
    Schedule(ScheduleKind.ADAPTIVE, RatioInterpretation.MULTIPLICATIVE),
    Schedule(ScheduleKind.HYBRID),
    Schedule(ScheduleKind.HYBRID, hybrid_order=HybridOrder.RY_THEN_H),
    Schedule(ScheduleKind.HYBRID, rotation_target=0),
]


def random_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random normalized state (good enough for kernel checks)."""
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(n_qubits, amps)


def gate_by_gate_diffusion(state, gate, target):
    """H^n X^n C-U X^n H^n, one full-register gate pass at a time."""
    n = state.n_qubits
    for layer in (HADAMARD, PAULI_X):
        for q in range(n):
            state = apply_one_qubit_gate(state, q, layer)
    controls = frozenset(range(n)) - {target}
    state = apply_controlled_one_qubit_gate(state, controls, target, gate)
    for layer in (PAULI_X, HADAMARD):
        for q in range(n):
            state = apply_one_qubit_gate(state, q, layer)
    return state


@pytest.fixture
def cli():
    runner = CliRunner()

    def invoke(*args):
        return runner.invoke(cli_main, [str(a) for a in args])

    return invoke


def csv_rows(text: str) -> tuple[list[str], list[dict]]:
    """Parse CSV output into (header, rows-as-string-dicts)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:] if line]
    return header, rows
