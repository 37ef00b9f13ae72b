"""Dense complex-amplitude register simulation.

Bit convention: bit j of a basis index is qubit j, so qubit 0 is the least
significant bit and applying X to qubit j maps basis index x to x ^ (1 << j).

States are numpy complex128 vectors of length 2**n wrapped together with
their qubit count. Gate application returns a new StateVector and never
mutates or renormalizes its input: norm drift would indicate a kernel bug,
so callers check it instead of hiding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# 2**20 amplitudes = 16 MiB of complex128 per state. Comfortable headroom
# over the n <= 13 experiments while refusing accidental huge allocations.
MAX_QUBITS = 20

# dense_operator_of materializes 2**n x 2**n matrices; test-oracle scale only.
MAX_DENSE_QUBITS = 8

UNITARITY_TOL = 1e-12


class SizeLimitError(ValueError):
    """Register size outside what the dense representation supports."""


class NormDriftError(ValueError):
    """A state's squared norm left 1 by more than the run's tolerance."""


def check_register_size(n_qubits: int) -> None:
    """Raise SizeLimitError unless 1 <= n_qubits <= MAX_QUBITS."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise SizeLimitError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


@dataclass(frozen=True, eq=False)
class OneQubitGate:
    """A 2x2 complex unitary, row-major."""

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

    def __matmul__(self, other: "OneQubitGate") -> "OneQubitGate":
        return OneQubitGate(self.matrix @ other.matrix)


HADAMARD = OneQubitGate(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
PAULI_X = OneQubitGate(np.array([[0, 1], [1, 0]]))
PAULI_Z = OneQubitGate(np.array([[1, 0], [0, -1]]))


@dataclass(eq=False)
class StateVector:
    """2**n_qubits complex amplitudes; basis index bit j is qubit j."""

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


def uniform_superposition(n_qubits: int) -> StateVector:
    """All 2**n amplitudes equal to 1/sqrt(2**n)."""
    check_register_size(n_qubits)
    dim = 1 << n_qubits
    return StateVector(n_qubits, np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))


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


def phase_flip_indices(state: StateVector, indices: Iterable[int]) -> StateVector:
    """Negate the amplitude at each listed basis index."""
    idx = _validated_indices(state, indices)
    out = state.amps.copy()
    out[idx] *= -1.0
    return StateVector(state.n_qubits, out)


def target_probability(state: StateVector, indices: Iterable[int]) -> float:
    """Total probability mass on the listed basis indices (exact readout)."""
    return float((np.abs(state.amps[_validated_indices(state, indices)]) ** 2).sum())


def _validated_indices(state: StateVector, indices: Iterable[int]) -> np.ndarray:
    idx = np.unique(np.fromiter((int(i) for i in indices), dtype=np.int64, count=-1))
    if idx.size and (idx[0] < 0 or idx[-1] >= state.dim):
        raise IndexError(
            f"basis index out of range [0, {state.dim}) for {state.n_qubits} qubits"
        )
    return idx


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
        state = basis_state(n_qubits, col)
        for gate, controls, target in gate_sequence:
            state = apply_controlled_one_qubit_gate(state, controls, target, gate)
        out[:, col] = state.amps
    return out
