"""Dense register simulation.

Bit convention: bit j of a basis index is qubit j, so qubit 0 is the least
significant bit and applying X to qubit j maps basis index x to x ^ (1 << j).

States are numpy vectors of length 2**n wrapped together with their qubit
count: float64 while every operator applied so far is real, as in every
schedule the package runs, and complex128 once complex input or a gate
with a nonzero imaginary part enters. A phase flip returns a new
StateVector and never mutates or renormalizes its input: norm drift would
indicate a kernel bug, so callers check it instead of hiding it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# 2**20 amplitudes = 8 MiB of float64 per real state. Comfortable headroom
# over the n <= 13 experiments while refusing accidental huge allocations.
MAX_QUBITS = 20

UNITARITY_TOL = 1e-12


class SizeLimitError(ValueError):
    """Register size outside what the dense representation supports."""


class NormDriftError(ValueError):
    """A state's squared norm left 1 by more than the run's tolerance."""


def check_register_size(n_qubits: int) -> None:
    """Raise SizeLimitError unless 1 <= n_qubits <= MAX_QUBITS."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise SizeLimitError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def _float64_or_complex128(values) -> np.ndarray:
    a = np.asarray(values)
    return np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)


@dataclass(frozen=True, eq=False)
class OneQubitGate:
    """A 2x2 unitary, row-major: float64 when every imaginary part is zero,
    complex128 otherwise."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _float64_or_complex128(self.matrix)
        if np.iscomplexobj(m) and not m.imag.any():
            m = np.ascontiguousarray(m.real)
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


@dataclass(eq=False)
class StateVector:
    """2**n_qubits amplitudes; basis index bit j is qubit j.

    Complex input is held as complex128, real or integer input as float64.
    """

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        self.n_qubits = int(self.n_qubits)
        check_register_size(self.n_qubits)
        amps = _float64_or_complex128(self.amps)
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
    return StateVector(n_qubits, np.full(dim, 1.0 / math.sqrt(dim)))


def phase_flip_indices(state: StateVector, indices: Iterable[int]) -> StateVector:
    """Negate the amplitude at each listed basis index, keeping the dtype."""
    idx = _validated_indices(state, indices)
    out = state.amps.copy()
    out[idx] *= -1.0
    return StateVector(state.n_qubits, out)


def target_probability(state: StateVector, indices: Iterable[int]) -> float:
    """Total probability mass on the listed basis indices (exact readout)."""
    return _probability(state.amps, _validated_indices(state, indices))


def _probability(amps: np.ndarray, idx: np.ndarray) -> float:
    return float((np.abs(amps[idx]) ** 2).sum())


def _validated_indices(state: StateVector, indices: Iterable[int]) -> np.ndarray:
    idx = np.unique(np.fromiter(map(_basis_index, indices), dtype=np.int64, count=-1))
    if idx.size and (idx[0] < 0 or idx[-1] >= state.dim):
        raise IndexError(
            f"basis index out of range [0, {state.dim}) for {state.n_qubits} qubits"
        )
    return idx



def _basis_index(value) -> int:
    """value as an int; a float or other non-integer is a ValueError, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"basis index must be an integer, got {value!r}") from None
