"""Dense register basics: size limit, errors, the Hadamard matrix, the
uniform start and the readout.

Bit convention: bit j of a basis index is qubit j, so qubit 0 is the least
significant bit and applying X to qubit j maps basis index x to x ^ (1 << j).

A register is a float64 numpy vector of length 2**n: every operator the
package applies is real (the uniform start, the oracle's sign flips, H, Z
and the R_y rotations), so no amplitude ever needs an imaginary part. Norm
drift would indicate a kernel bug, so callers check it instead of hiding it.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# 2**20 amplitudes = 8 MiB of float64 per register. Comfortable headroom
# over the n <= 13 experiments while refusing accidental huge allocations.
MAX_QUBITS = 20


class SizeLimitError(ValueError):
    """Register size outside what the dense representation supports."""


class NormDriftError(ValueError):
    """A state's squared norm left 1 by more than the run's tolerance."""


def check_register_size(n_qubits: int) -> int:
    """n_qubits as an int. Raise ValueError unless it is an integer, and
    SizeLimitError unless 1 <= n_qubits <= MAX_QUBITS."""
    n_qubits = _integer(n_qubits, "n_qubits")
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise SizeLimitError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    return n_qubits


# 2x2 float64, row-major; read-only because every run shares it.
HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
HADAMARD.flags.writeable = False


def uniform_superposition(n_qubits: int) -> np.ndarray:
    """All 2**n amplitudes equal to 1/sqrt(2**n)."""
    check_register_size(n_qubits)
    dim = 1 << n_qubits
    return np.full(dim, 1.0 / math.sqrt(dim))


def _probability(amps: np.ndarray, idx: np.ndarray) -> float:
    """Total probability mass on the basis indices idx (exact readout)."""
    return float((np.abs(amps[idx]) ** 2).sum())


def _integer(value, name: str) -> int:
    """value as an int; a float or other non-integer is a ValueError, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
