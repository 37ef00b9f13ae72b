"""Grover search constructions: oracle, diffusion operators, phase schedules.

The standard diffusion reflects every amplitude about the mean. The modified
schedules replace the controlled phase flip inside the gate-level diffusion
with a controlled rotation whose angle is set per run (fixed-eq9), per
iteration (adaptive-eq10), or switches gate family after the first iteration
(hybrid-eq11-12); the standard schedule is the zero angle of the same
operator. All operators here drop an overall -1 factor, which leaves every
probability unchanged.

Gate-name convention: constructor names list the factors in application
order, so gate_zr_y(t) applies Z then R_y(t) (matrix R_y(t) @ Z) and
gate_ry_h(t) applies H then R_y(t) (matrix R_y(t) @ H). gate_hr_y(t) is the
opposite reading of the latter, matrix H @ R_y(t); the two are related by
gate_ry_h(t) == gate_hr_y(-t) and both are selectable for the hybrid
schedule, since gate-name notation alone does not pin the order down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .statevector import (
    HADAMARD,
    NormDriftError,
    OneQubitGate,
    StateVector,
    apply_one_qubit_gate,
    check_register_size,
    phase_flip_indices,
    target_probability,
    uniform_superposition,
)


def gate_r_y(theta: float) -> OneQubitGate:
    """Rotation about the y axis: [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    c, s = _half_angle(theta)
    return OneQubitGate(np.array([[c, -s], [s, c]]))


def gate_zr_y(theta: float) -> OneQubitGate:
    """Z followed by R_y(theta): [[cos(t/2), sin(t/2)], [sin(t/2), -cos(t/2)]].

    gate_zr_y(0) is exactly Z, recovering the standard diffusion.
    """
    c, s = _half_angle(theta)
    return OneQubitGate(np.array([[c, s], [s, -c]]))


def gate_hr_y(theta: float) -> OneQubitGate:
    """Matrix product H @ R_y(theta)."""
    _half_angle(theta)
    return HADAMARD @ gate_r_y(theta)


def gate_ry_h(theta: float) -> OneQubitGate:
    """H followed by R_y(theta), i.e. matrix R_y(theta) @ H."""
    _half_angle(theta)
    return gate_r_y(theta) @ HADAMARD


def _half_angle(theta: float) -> tuple[float, float]:
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    return math.cos(theta / 2.0), math.sin(theta / 2.0)


class ScheduleKind(Enum):
    """Diffusion-phase schedule families (values double as CLI tokens)."""

    STANDARD = "standard"
    FIXED = "fixed-eq9"
    ADAPTIVE = "adaptive-eq10"
    HYBRID = "hybrid-eq11-12"


class RatioInterpretation(Enum):
    """How the adaptive schedule combines the growth term with the base angle."""

    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


class HybridOrder(Enum):
    """Application order of the hybrid schedule's post-first-iteration gate."""

    H_THEN_RY = "h-then-ry"  # matrix R_y(theta) @ H
    RY_THEN_H = "ry-then-h"  # matrix H @ R_y(theta)


@dataclass(frozen=True)
class Schedule:
    kind: ScheduleKind = ScheduleKind.STANDARD
    interpretation: RatioInterpretation = RatioInterpretation.ADDITIVE
    rotation_target: int | None = None  # None -> highest qubit (n - 1)
    hybrid_order: HybridOrder = HybridOrder.H_THEN_RY

    def describe(self) -> str:
        label = self.kind.value
        if self.kind is ScheduleKind.ADAPTIVE:
            label += f"[{self.interpretation.value}]"
        elif self.kind is ScheduleKind.HYBRID:
            label += f"[{self.hybrid_order.value}]"
        if self.rotation_target is not None:
            label += f"@q{self.rotation_target}"
        return label


@dataclass(frozen=True)
class MarkedSet:
    """Basis indices the oracle flips; the search targets exactly these."""

    indices: frozenset

    def __post_init__(self):
        idx = frozenset(int(i) for i in self.indices)
        if not idx:
            raise ValueError("marked set must be nonempty")
        if min(idx) < 0:
            raise ValueError("marked indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @property
    def count(self) -> int:
        return len(self.indices)

    def validate_for(self, n_qubits: int) -> None:
        dim = 1 << n_qubits
        if max(self.indices) >= dim:
            raise ValueError(
                f"marked index {max(self.indices)} out of range for {n_qubits} qubits"
            )
        if self.count >= dim:
            raise ValueError("marked set must leave at least one unmarked state")


def fixed_phase(n_qubits: int) -> float:
    """Rotation angle maximizing one-step amplification: 2*atan(1 - 4/N).

    Zero for n = 2, strictly increasing in n, approaching pi/2 for large
    registers.
    """
    if n_qubits < 2:
        raise ValueError(f"fixed phase angle needs at least 2 qubits, got {n_qubits}")
    half = 1 << (n_qubits - 2)
    return 2.0 * math.atan((half - 1) / half)


def adaptive_phase(
    n_qubits: int,
    iteration: int,
    interpretation: RatioInterpretation = RatioInterpretation.ADDITIVE,
) -> float:
    """Iteration-dependent angle grown by the term 1 + (2i-1)/(2i+1).

    ADDITIVE adds the dimensionless growth term directly to the base angle;
    MULTIPLICATIVE scales the base angle by it. As i grows the term tends
    to 2, so the limits are base + 2 and 2 * base respectively.
    """
    if iteration < 1:
        raise ValueError(f"iteration index must be >= 1, got {iteration}")
    base = fixed_phase(n_qubits)
    growth = 1.0 + (2 * iteration - 1) / (2 * iteration + 1)
    if interpretation is RatioInterpretation.ADDITIVE:
        return base + growth
    if interpretation is RatioInterpretation.MULTIPLICATIVE:
        return base * growth
    raise ValueError(f"unknown interpretation: {interpretation!r}")


def schedule_phase(schedule: Schedule, n_qubits: int, iteration: int) -> float:
    """Rotation angle a schedule assigns to a 1-based iteration."""
    if schedule.kind is ScheduleKind.STANDARD:
        return 0.0
    if schedule.kind in (ScheduleKind.FIXED, ScheduleKind.HYBRID):
        return fixed_phase(n_qubits)
    if schedule.kind is ScheduleKind.ADAPTIVE:
        return adaptive_phase(n_qubits, iteration, schedule.interpretation)
    raise ValueError(f"unknown schedule kind: {schedule.kind!r}")


def apply_oracle(state: StateVector, marked: MarkedSet) -> StateVector:
    """Phase oracle: flip the sign of every marked amplitude."""
    return phase_flip_indices(state, marked.indices)


def standard_diffusion_mean(state: StateVector) -> StateVector:
    """Inversion about the mean: each amplitude a becomes 2m - a."""
    m = np.mean(state.amps)
    return StateVector(state.n_qubits, 2.0 * m - state.amps)


def modified_diffusion(
    state: StateVector,
    theta: float,
    inner_gate=gate_zr_y,
    rotation_target: int | None = None,
) -> StateVector:
    """Diffusion H^n X^n C-U X^n H^n, with U = inner_gate(theta) on the
    rotation target t, controlled by every other qubit.

    `inner_gate` is a constructor such as gate_zr_y, gate_ry_h or gate_hr_y;
    gate_zr_y(0) is exactly Z, giving the standard diffusion (equal to
    standard_diffusion_mean up to an overall sign). X^n C-U X^n is U acting
    on the amplitude pair (2**t, 0) alone, so that pair is updated between
    the H layers. X's 0/1 matmul moves amplitudes exactly, so the result is
    bit-identical to the gate-by-gate circuit.
    """
    n = state.n_qubits
    target = n - 1 if rotation_target is None else rotation_target
    if not 0 <= target < n:
        raise ValueError(f"rotation target {target} out of range for {n} qubits")
    m = inner_gate(theta).matrix
    for q in range(n):
        state = apply_one_qubit_gate(state, q, HADAMARD)
    # The H layer's output is a fresh array, so updating it in place leaves
    # the caller's state alone. Operand order as in
    # apply_controlled_one_qubit_gate.
    a0, a1 = state.amps[1 << target], state.amps[0]
    state.amps[1 << target] = m[0, 0] * a0 + m[0, 1] * a1
    state.amps[0] = m[1, 0] * a0 + m[1, 1] * a1
    for q in range(n):
        state = apply_one_qubit_gate(state, q, HADAMARD)
    return state


def n_optimal_standard(n_qubits: int, marked_count: int) -> int:
    """Conventional iteration optimum floor((pi/4) * sqrt(N/M))."""
    if marked_count < 1:
        raise ValueError(f"marked count must be >= 1, got {marked_count}")
    dim = 1 << n_qubits
    if marked_count >= dim:
        raise ValueError(f"marked count {marked_count} must be < {dim}")
    return math.floor(math.pi / 4.0 * math.sqrt(dim / marked_count))


def default_max_iterations(n_qubits: int, marked_count: int) -> int:
    """Window wide enough to expose the success-probability peak: 2*opt + 2."""
    return 2 * n_optimal_standard(n_qubits, marked_count) + 2


@dataclass
class GroverConfig:
    n_qubits: int
    marked: MarkedSet
    schedule: Schedule = field(default_factory=Schedule)
    max_iterations: int | None = None  # None -> default_max_iterations

    def __post_init__(self):
        check_register_size(self.n_qubits)
        self.marked.validate_for(self.n_qubits)
        if self.schedule.kind is not ScheduleKind.STANDARD and self.n_qubits < 2:
            raise ValueError("modified schedules need at least 2 qubits")
        if self.schedule.rotation_target is not None and not (
            0 <= self.schedule.rotation_target < self.n_qubits
        ):
            raise ValueError(
                f"rotation target {self.schedule.rotation_target} out of range "
                f"for {self.n_qubits} qubits"
            )
        if self.max_iterations is None:
            self.max_iterations = default_max_iterations(self.n_qubits, self.marked.count)
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class IterationRecord:
    iteration: int
    theta_used: float
    target_probability: float
    mean_amplitude: float  # mean of the real parts, diagnostics only


@dataclass
class RunTrace:
    config: GroverConfig
    records: list[IterationRecord]
    initial_probability: float
    notes: tuple[str, ...] = ()


def run_grover(config: GroverConfig) -> RunTrace:
    """Prepare the uniform state, then iterate oracle + scheduled diffusion.

    Records target probability, applied angle and diagnostics after every
    iteration; the trace always spans exactly max_iterations records.
    Raises NormDriftError if the squared norm leaves 1 by 1e-10 or more.
    """
    n = config.n_qubits
    schedule = config.schedule
    marked = config.marked
    state = uniform_superposition(n)
    initial = target_probability(state, marked.indices)

    notes: tuple[str, ...] = ()
    if schedule.kind is not ScheduleKind.STANDARD and marked.count > 1:
        notes = (
            "modified schedules assume a single marked state; "
            f"results for {marked.count} marked states are exploratory",
        )

    marked_order = np.array(sorted(marked.indices))

    records = []
    for i in range(1, config.max_iterations + 1):
        state = apply_oracle(state, marked)
        theta = schedule_phase(schedule, n, i)
        state = modified_diffusion(
            state, theta, _inner_gate_for(schedule, i), schedule.rotation_target
        )
        probs = state.probabilities()
        total = float(probs.sum())
        if not abs(total - 1.0) < 1e-10:
            raise NormDriftError(
                f"statevector norm drifted to {total!r} at iteration {i}"
            )
        records.append(
            IterationRecord(
                iteration=i,
                theta_used=theta,
                target_probability=float(probs[marked_order].sum()),
                mean_amplitude=float(np.mean(state.amps.real)),
            )
        )
    return RunTrace(config, records, initial, notes)


def _inner_gate_for(schedule: Schedule, iteration: int):
    if schedule.kind is not ScheduleKind.HYBRID or iteration == 1:
        return gate_zr_y
    if schedule.hybrid_order is HybridOrder.H_THEN_RY:
        return gate_ry_h
    return gate_hr_y
