"""Gate-by-gate reference the fast paths are tested against.

One full-register gate pass at a time, plus explicit operator matrices
built from the same passes; bit j of a basis index is qubit j.

Byte-level comparisons run it on complex128 registers. On a float64
register numpy's real matrix-vector route, taken by the qubit-0 layer,
rounds differently; the fast path's float64 results equal the real part
of the complex128 ones instead.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from groversim.grover import GroverConfig, IterationRecord
from groversim.statevector import (
    HADAMARD,
    OneQubitGate,
    SizeLimitError,
    StateVector,
    check_register_size,
    phase_flip_indices,
    target_probability,
)

# dense_operator_of materializes 2**n x 2**n matrices; test-oracle scale only.
MAX_DENSE_QUBITS = 8

PAULI_X = OneQubitGate(np.array([[0, 1], [1, 0]]))
PAULI_Z = OneQubitGate(np.array([[1, 0], [0, -1]]))


def basis_state(n_qubits: int, index: int) -> StateVector:
    """|index> as a statevector."""
    check_register_size(n_qubits)
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise IndexError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def apply_one_qubit_gate(state: StateVector, qubit: int, gate: OneQubitGate) -> StateVector:
    """Apply a 2x2 gate to one qubit of the register.

    Acts on every index pair (x, x | 1 << qubit) with bit `qubit` clear in x:
    viewing the amplitudes as a (high bits, qubit, low bits) tensor, the gate
    is a broadcast matrix product over the middle axis.
    """
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise IndexError(f"qubit {qubit} out of range for {n}-qubit register")
    a = state.amps.reshape(-1, 2, 1 << qubit)
    return StateVector(n, np.matmul(gate.matrix, a).reshape(-1))


def apply_controlled_one_qubit_gate(
    state: StateVector,
    controls: Iterable[int],
    target: int,
    gate: OneQubitGate,
) -> StateVector:
    """Apply `gate` to `target` on the subspace where every control bit is 1.

    An empty control set reduces to apply_one_qubit_gate; every amplitude
    outside the fully-controlled subspace is left untouched.
    """
    n = state.n_qubits
    control_set = frozenset(int(c) for c in controls)
    if not 0 <= target < n:
        raise IndexError(f"target qubit {target} out of range for {n}-qubit register")
    for c in control_set:
        if not 0 <= c < n:
            raise IndexError(f"control qubit {c} out of range for {n}-qubit register")
    if target in control_set:
        raise ValueError(f"target qubit {target} overlaps the control set")
    if not control_set:
        return apply_one_qubit_gate(state, target, gate)

    control_mask = 0
    for c in control_set:
        control_mask |= 1 << c
    target_bit = 1 << target
    idx = np.arange(state.dim)
    lower = idx[((idx & control_mask) == control_mask) & ((idx & target_bit) == 0)]
    upper = lower | target_bit

    m = gate.matrix
    out = state.amps.copy()
    a0 = state.amps[lower]
    a1 = state.amps[upper]
    out[lower] = m[0, 0] * a0 + m[0, 1] * a1
    out[upper] = m[1, 0] * a0 + m[1, 1] * a1
    return StateVector(n, out)


def apply_sequence(state: StateVector, gate_sequence: Iterable[tuple]) -> StateVector:
    """Apply each (gate, controls, target) of the sequence in order."""
    for gate, controls, target in gate_sequence:
        state = apply_controlled_one_qubit_gate(state, controls, target, gate)
    return state


def dense_operator_of(
    gate_sequence: Sequence[tuple[OneQubitGate, Iterable[int], int]],
    n_qubits: int,
) -> np.ndarray:
    """Explicit matrix of a (gate, controls, target) sequence.

    Built column-by-column by applying the sequence to each basis vector.
    Independent check for the in-place kernels, hence the small size cap.
    """
    if not 1 <= n_qubits <= MAX_DENSE_QUBITS:
        raise SizeLimitError(
            f"dense operators support 1..{MAX_DENSE_QUBITS} qubits, got {n_qubits}"
        )
    dim = 1 << n_qubits
    out = np.empty((dim, dim), dtype=np.complex128)
    for col in range(dim):
        out[:, col] = apply_sequence(basis_state(n_qubits, col), gate_sequence).amps
    return out


def layer(gate: OneQubitGate, n_qubits: int) -> list:
    """`gate` on every qubit, qubit 0 first, as a gate sequence."""
    return [(gate, (), q) for q in range(n_qubits)]


def gate_by_gate_diffusion(state: StateVector, gate: OneQubitGate, target: int) -> StateVector:
    """H^n X^n C-U X^n H^n, one full-register gate pass at a time."""
    n = state.n_qubits
    h, x = layer(HADAMARD, n), layer(PAULI_X, n)
    return apply_sequence(state, [*h, *x, (gate, set(range(n)) - {target}, target), *x, *h])


def gate_by_gate_records(config: GroverConfig) -> list[IterationRecord]:
    """iterate_grover's records from a complex128 register whose every
    diffusion is gate_by_gate_diffusion."""
    n, schedule, marked = config.n_qubits, config.schedule, config.marked.indices
    target = n - 1 if schedule.rotation_target is None else schedule.rotation_target
    dim = 1 << n
    state = StateVector(n, np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))
    records = []
    for i in range(1, config.max_iterations + 1):
        state = phase_flip_indices(state, marked)
        theta, gate = schedule.step(n, i)
        state = gate_by_gate_diffusion(state, gate, target)
        probability = target_probability(state, marked)
        records.append(IterationRecord(i, theta, probability, float(np.mean(state.amps.real))))
    return records
