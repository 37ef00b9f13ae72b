"""Gate-by-gate reference the fast paths are tested against.

The package runs every schedule on a float64 register, in place, through
groversim.grover.iterate_grover. This module is the operator-level spec
that run is checked against: a complex128 register (StateVector),
validated 2x2 gates (OneQubitGate), the oracle, the diffusion circuit and
the readout, each applied one full-register gate pass at a time, plus
explicit operator matrices built from the same passes. Bit j of a basis
index is qubit j.

Fed a real state and real gates, every imaginary part here stays zero,
and the package's float64 results are byte-identical to the real parts of
the complex128 ones; _hadamard_layers documents the one signed-zero
exception. (numpy's real matrix-vector route, taken by the qubit-0 layer,
rounds differently, which is why the reference is complex128.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from groversim import statevector
from groversim.grover import GroverConfig, IterationRecord
from groversim.statevector import SizeLimitError, _integer, check_register_size

# dense_operator_of materializes 2**n x 2**n matrices; test-oracle scale only.
MAX_DENSE_QUBITS = 8

UNITARITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OneQubitGate:
    """A 2x2 unitary, row-major, held as complex128."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("gate entries must be finite")
        err = np.abs(m.conj().T @ m - np.eye(2)).max()
        if err > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (max |M†M - I| = {err:.3g})")
        object.__setattr__(self, "matrix", m)


HADAMARD = OneQubitGate(statevector.HADAMARD)
PAULI_X = OneQubitGate(np.array([[0, 1], [1, 0]]))
PAULI_Z = OneQubitGate(np.array([[1, 0], [0, -1]]))


@dataclass(eq=False)
class StateVector:
    """2**n_qubits complex128 amplitudes; basis index bit j is qubit j."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        self.n_qubits = int(self.n_qubits)
        check_register_size(self.n_qubits)
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        self.amps = amps

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm_squared(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


def basis_state(n_qubits: int, index: int) -> StateVector:
    """|index> as a statevector."""
    check_register_size(n_qubits)
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise IndexError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def uniform_state(n_qubits: int) -> StateVector:
    """The package's uniform start as a statevector."""
    return StateVector(n_qubits, statevector.uniform_superposition(n_qubits))


def phase_flip_indices(state: StateVector, indices: Iterable[int]) -> StateVector:
    """Negate the amplitude at each listed basis index."""
    out = state.amps.copy()
    out[_validated_indices(state, indices)] *= -1.0
    return StateVector(state.n_qubits, out)


def apply_oracle(state: StateVector, marked: Iterable[int]) -> StateVector:
    """Phase oracle: flip the sign of every marked amplitude."""
    return phase_flip_indices(state, marked)


def target_probability(state: StateVector, indices: Iterable[int]) -> float:
    """Total probability mass on the listed basis indices."""
    return float((np.abs(state.amps[_validated_indices(state, indices)]) ** 2).sum())


def _validated_indices(state: StateVector, indices: Iterable[int]) -> np.ndarray:
    idx = np.unique(np.fromiter((_integer(i, "basis index") for i in indices), dtype=np.int64, count=-1))
    if idx.size and (idx[0] < 0 or idx[-1] >= state.dim):
        raise IndexError(
            f"basis index out of range [0, {state.dim}) for {state.n_qubits} qubits"
        )
    return idx


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


def modified_diffusion(
    state: StateVector, gate: np.ndarray, rotation_target: int | None = None
) -> StateVector:
    """H^n X^n C-U X^n H^n, with U = gate (a 2x2 matrix, as Schedule.step
    returns) on the rotation target t (default n - 1), controlled by every
    other qubit; one full-register gate pass at a time."""
    n = state.n_qubits
    target = n - 1 if rotation_target is None else rotation_target
    h, x = layer(HADAMARD, n), layer(PAULI_X, n)
    controlled = (OneQubitGate(gate), set(range(n)) - {target}, target)
    return apply_sequence(state, [*h, *x, controlled, *x, *h])


def assert_real_part_bytes(result: np.ndarray, reference: StateVector) -> None:
    """Assert that the float64 result is byte-identical to the real part of
    the oracle's complex128 reference.

    The one exception, documented at grover._hadamard_layers, is the sign
    of exact zeros at n = 2, where the reference's complex (2,2)@(2,2) gemm
    can return -0.0 for a zero sum that the real gemm returns as +0.0:
    there every zero of the reference is taken as +0.0.
    """
    expected = np.ascontiguousarray(reference.amps.real)
    if reference.n_qubits == 2:
        expected[expected == 0.0] = 0.0
    assert result.tobytes() == expected.tobytes()


def oracle_records(config: GroverConfig) -> list[IterationRecord]:
    """iterate_grover's records, re-simulated on a complex128 register:
    apply_oracle, then Schedule.step's gate through modified_diffusion,
    then target_probability."""
    n, schedule, marked = config.n_qubits, config.schedule, config.marked
    state = uniform_state(n)
    records = []
    for i in range(1, config.max_iterations + 1):
        state = apply_oracle(state, marked)
        theta, gate = schedule.step(n, i)
        state = modified_diffusion(state, gate, schedule.rotation_target)
        probability = target_probability(state, marked)
        records.append(IterationRecord(i, theta, probability, float(np.mean(state.amps.real))))
    return records
