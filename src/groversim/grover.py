"""Grover search: phase schedules, their gates, and the run loop.

Every schedule runs through one diffusion, _diffuse, the gate-level
H^n X^n C-U X^n H^n. The standard schedule takes U = Z, which reflects
every amplitude about the mean. The modified schedules replace Z with a
controlled rotation whose angle is set per run (fixed-eq9), per iteration
(adaptive-eq10), or switches gate family after the first iteration
(hybrid-eq11-12). All operators here drop an overall -1 factor, which
leaves every probability unchanged. The mean form of the reflection lives
in analysis, as the recurrence's independent check.

Gate-name convention: constructor names list the factors in application
order, so gate_zr_y(t) applies Z then R_y(t) (matrix R_y(t) @ Z) and
gate_ry_h(t) applies H then R_y(t) (matrix R_y(t) @ H). gate_hr_y(t) is the
opposite reading of the latter, matrix H @ R_y(t); the two are related by
gate_ry_h(t) == gate_hr_y(-t) and both are selectable for the hybrid
schedule, since gate-name notation alone does not pin the order down.
Gates are 2x2 float64 arrays, row-major.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .statevector import (
    HADAMARD,
    NormDriftError,
    _integer,
    _probability,
    check_register_size,
    uniform_superposition,
)


def gate_r_y(theta: float) -> np.ndarray:
    """Rotation about the y axis: [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    c, s = _half_angle(theta)
    return np.array([[c, -s], [s, c]])


def gate_zr_y(theta: float) -> np.ndarray:
    """Z followed by R_y(theta): [[cos(t/2), sin(t/2)], [sin(t/2), -cos(t/2)]].

    gate_zr_y(0) is exactly Z, recovering the standard diffusion.
    """
    c, s = _half_angle(theta)
    return np.array([[c, s], [s, -c]])


def gate_hr_y(theta: float) -> np.ndarray:
    """Matrix product H @ R_y(theta)."""
    return HADAMARD @ gate_r_y(theta)


def gate_ry_h(theta: float) -> np.ndarray:
    """H followed by R_y(theta), i.e. matrix R_y(theta) @ H."""
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
    """A diffusion-phase schedule. kind, interpretation and hybrid_order
    take their Enum's member or its value, the CLI token, and store the
    member; rotation_target takes any integer and stores an int, so every
    Schedule hashes. Anything else is a ValueError."""

    kind: ScheduleKind = ScheduleKind.STANDARD
    interpretation: RatioInterpretation = RatioInterpretation.ADDITIVE
    rotation_target: int | None = None  # None -> highest qubit (n - 1)
    hybrid_order: HybridOrder = HybridOrder.H_THEN_RY

    def __post_init__(self):
        object.__setattr__(self, "kind", ScheduleKind(self.kind))
        object.__setattr__(self, "interpretation", RatioInterpretation(self.interpretation))
        object.__setattr__(self, "hybrid_order", HybridOrder(self.hybrid_order))
        if self.rotation_target is not None:
            object.__setattr__(self, "rotation_target", _integer(self.rotation_target, "rotation_target"))

    def describe(self) -> str:
        label = self.kind.value
        if self.kind is ScheduleKind.ADAPTIVE:
            label += f"[{self.interpretation.value}]"
        elif self.kind is ScheduleKind.HYBRID:
            label += f"[{self.hybrid_order.value}]"
        if self.rotation_target is not None:
            label += f"@q{self.rotation_target}"
        return label

    def step(self, n_qubits: int, iteration: int) -> tuple[float, np.ndarray]:
        """Rotation angle and diffusion gate for a 1-based iteration.

        The hybrid schedule applies gate_zr_y in iteration 1 and the gate
        its hybrid_order names from iteration 2 on; the others always
        apply gate_zr_y.
        """
        if self.kind is ScheduleKind.STANDARD:
            theta = 0.0
        elif self.kind is ScheduleKind.ADAPTIVE:
            theta = adaptive_phase(n_qubits, iteration, self.interpretation)
        else:
            theta = fixed_phase(n_qubits)
        if self.kind is not ScheduleKind.HYBRID or iteration == 1:
            return theta, gate_zr_y(theta)
        if self.hybrid_order is HybridOrder.H_THEN_RY:
            return theta, gate_ry_h(theta)
        return theta, gate_hr_y(theta)


def fixed_phase(n_qubits: int) -> float:
    """Rotation angle maximizing one-step amplification: 2*atan(1 - 4/N).

    Zero for n = 2, strictly increasing in n, approaching pi/2 for large
    registers.
    """
    if _integer(n_qubits, "n_qubits") < 2:
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
    interpretation may also be its value, the CLI token.
    """
    interpretation = RatioInterpretation(interpretation)
    if _integer(iteration, "iteration") < 1:
        raise ValueError(f"iteration index must be >= 1, got {iteration}")
    base = fixed_phase(n_qubits)
    growth = 1.0 + (2 * iteration - 1) / (2 * iteration + 1)
    if interpretation is RatioInterpretation.MULTIPLICATIVE:
        return base * growth
    return base + growth


def _diffuse(src: np.ndarray, out: np.ndarray, spare: np.ndarray, m: np.ndarray, target: int) -> tuple:
    """The diffusion H^n X^n C-U X^n H^n applied to src, with U = m on
    qubit target, controlled by every other qubit.

    Schedule.step picks m; gate_zr_y(0) is exactly Z, giving the standard
    diffusion, equal up to an overall sign to the mean form
    analysis.standard_diffusion_mean. X^n C-U X^n is m acting on the
    amplitude pair (2**target, 0) alone, so that pair is updated between
    the two H^n. X's 0/1 matmul moves amplitudes exactly, so the result is
    byte-identical to the real part of the gate-by-gate circuit of
    tests/oracle.py, which runs on a complex copy of src (up to the one
    exception _hadamard_layers states).

    The pair update is _rotate_pair, which the angle search shares.

    Returns (result, the other buffer). Both H^n ping-pong between two
    buffers and end in whichever one the parity of n gives; see
    _hadamard_layers. spare may be src, whose content is dead once the
    first layer has read it, so a run diffuses its register in place and
    holds two buffers in all.
    """
    amps, spare = _hadamard_layers(src, out, spare)
    amps[1 << target], amps[0] = _rotate_pair(m, amps[1 << target], amps[0])
    return _hadamard_layers(amps, spare, amps)


def _rotate_pair(m: np.ndarray, a0, a1) -> tuple:
    """m applied to the amplitude pair (a0, a1): the entries for indices
    2**target and 0 between the diffusion's two H^n."""
    # Operand order as in the controlled-gate kernel of tests/oracle.py.
    return m[0, 0] * a0 + m[0, 1] * a1, m[1, 0] * a0 + m[1, 1] * a1


_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])  # HADAMARD == HADAMARD[0, 0] * _SIGNS exactly
_SIGNS.flags.writeable = False


def _hadamard_layers(src: np.ndarray, out: np.ndarray, spare: np.ndarray, *, last_entry: bool = False) -> tuple:
    """H^n of src. Returns (result, the other buffer).

    The result is byte-identical to the real part of tests/oracle.py's
    per-qubit kernel applying H to qubits 0..n-1 of a complex copy of src.
    (The one exception is the sign of exact zeros at n = 2, where the
    complex (2,2)@(2,2) gemm's edge kernel can return -0.0 for a zero sum
    that IEEE arithmetic, and the real gemm, return as +0.0; no
    probability depends on it.)

    Layer q reads the current layout's lowest bit, which is always bit q,
    and writes it as the top bit: its source viewed as (N/2, 2) and
    transposed is a (2, N/2) operand that BLAS reads with leading
    dimension 2, so H acts on both halves in one gemm, with no copy. After
    n layers the layout is natural again. The per-qubit kernel's layer q
    is 2**(n-1-q) products (2,2)@(2,2**q); for q >= 1 one (2,2)@(2,N/2)
    product computes every output entry with the same arithmetic. For
    q = 0 numpy takes the matrix-vector route, whose entries are
    fl(fl(h*x0) +- fl(h*x1)), h = HADAMARD[0, 0], and never -0.0 (gemv
    adds its sums to a zeroed y). Layer 0 scales src by h in one pass into
    spare, or into src if spare is src (its content is then dead; else src
    is only read), applies _SIGNS to the scaled pairs in one gemm into out
    and adds 0.0: products by +-1 are exact, so any BLAS rounds each entry
    once, FMA or not. The later layers alternate between out and spare.
    The three buffers are float64, C-contiguous and (N,).

    With last_entry, only entry N - 1 of the result is computed, byte for
    byte; the rest is scratch. Each layer moves the lowest index bit to
    the top, so the m = N >> (q+1) entries layer q must deliver are row 1
    of its product on its last 2m inputs: layer 0 subtracts the scaled
    pairs, and m never drops below 2, so the later layers stay gemms.
    """
    size = src.size
    half = size >> 1
    scaled = src if spare is src else spare
    np.multiply(HADAMARD[0, 0], src, out=scaled)
    y = out[half:] if last_entry else out
    if last_entry:
        np.subtract(scaled[0::2], scaled[1::2], out=y)
    else:
        np.matmul(_SIGNS, scaled.reshape(half, 2).T, out=out.reshape(2, half))
    y += 0.0
    for q in range(1, size.bit_length() - 1):
        m = max(2, size >> (q + 1)) if last_entry else half
        x, y = (out[-2 * m :], spare[-2 * m :]) if last_entry else (out, spare)
        np.matmul(HADAMARD, x.reshape(m, 2).T, out=y.reshape(2, m))
        out, spare = spare, out
    return out, spare


def n_optimal_standard(n_qubits: int, marked_count: int) -> int:
    """Conventional iteration optimum floor((pi/4) * sqrt(N/M))."""
    if _integer(marked_count, "marked_count") < 1:
        raise ValueError(f"marked count must be >= 1, got {marked_count}")
    dim = 1 << _integer(n_qubits, "n_qubits")
    if marked_count >= dim:
        raise ValueError(f"marked count {marked_count} must be < {dim}")
    return math.floor(math.pi / 4.0 * math.sqrt(dim / marked_count))


@dataclass(frozen=True)
class GroverConfig:
    """One search run, checked once against its register and stored as the
    run reads it. marked takes any iterable of basis indices and stores a
    sorted tuple of distinct ints; None is the all-ones index 2**n - 1.
    schedule is stored as Schedule.step reads it: rotation_target None is
    n - 1, interpretation is reset unless the kind is adaptive and
    hybrid_order unless it is hybrid, so equal runs have equal configs.
    max_iterations None is 2 * n_optimal_standard + 2, past the peak."""

    n_qubits: int
    marked: tuple[int, ...] | None = None
    schedule: Schedule = field(default_factory=Schedule)
    max_iterations: int | None = None

    def __post_init__(self):
        # Frozen: the fields are validated here once and never reassigned.
        n = check_register_size(self.n_qubits)
        dim = 1 << n
        given = (dim - 1,) if self.marked is None else self.marked
        try:
            marked = sorted({_integer(i, "basis index") for i in given})
        except TypeError:
            raise ValueError(f"marked must be an iterable of basis indices, got {given!r}") from None
        if not marked:
            raise ValueError("marked set must be nonempty")
        if marked[0] < 0:
            raise ValueError("marked indices must be nonnegative")
        if marked[-1] >= dim:
            raise ValueError(f"marked index {marked[-1]} out of range for {n} qubits")
        if len(marked) >= dim:
            raise ValueError("marked set must leave at least one unmarked state")
        schedule, default = self.schedule, Schedule()
        if not isinstance(schedule, Schedule):
            raise ValueError(f"schedule must be a Schedule, got {schedule!r}")
        if schedule.kind is not ScheduleKind.STANDARD and n < 2:
            raise ValueError("modified schedules need at least 2 qubits")
        target = n - 1 if schedule.rotation_target is None else schedule.rotation_target
        if not 0 <= target < n:
            raise ValueError(f"rotation target {target} out of range for {n} qubits")
        schedule = Schedule(
            schedule.kind,
            (schedule if schedule.kind is ScheduleKind.ADAPTIVE else default).interpretation,
            target,
            (schedule if schedule.kind is ScheduleKind.HYBRID else default).hybrid_order,
        )
        iterations = self.max_iterations
        if iterations is None:
            iterations = 2 * n_optimal_standard(n, len(marked)) + 2
        iterations = _integer(iterations, "max_iterations")
        if iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {iterations}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "marked", tuple(marked))
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "max_iterations", iterations)


class IterationRecord(NamedTuple):
    """State after one iteration; _fields are the `run` columns, in order."""

    iteration: int
    theta_used: float
    target_probability: float
    mean_amplitude: float  # diagnostics only


def iterate_grover(config: GroverConfig) -> Iterator[IterationRecord]:
    """Prepare the uniform state, then yield one record per iteration of
    oracle + scheduled diffusion, up to max_iterations records.

    Each record is computed only when it is pulled, so a consumer that stops
    early skips the remaining iterations. Raises NormDriftError if the
    squared norm leaves 1 by 1e-10 or more.

    The run owns two float64 register-sized buffers for its whole length:
    the oracle negates the marked amplitudes in place, and _diffuse works
    in the register and the other buffer. The records are byte-identical
    to those of re-simulating each iteration with the oracle, diffusion
    and readout of tests/oracle.py on a complex register. GroverConfig
    stores the marked indices sorted, so the readout sums them in
    ascending order, and the rotation target resolved (None as n - 1).
    """
    n = config.n_qubits
    schedule = config.schedule
    marked = np.array(config.marked, dtype=np.int64)
    amps = uniform_superposition(n)
    spare = np.empty_like(amps)
    for i in range(1, config.max_iterations + 1):
        # Only the adaptive gate changes after iteration 2 (Schedule.step),
        # so the others are built twice per run.
        if i <= 2 or schedule.kind is ScheduleKind.ADAPTIVE:
            theta, gate = schedule.step(n, i)
        amps[marked] *= -1.0
        amps, spare = _diffuse(amps, spare, amps, gate, schedule.rotation_target)
        total = float(np.vdot(amps, amps))
        if not abs(total - 1.0) < 1e-10:
            raise NormDriftError(
                f"statevector norm drifted to {total!r} at iteration {i}"
            )
        yield IterationRecord(
            iteration=i,
            theta_used=theta,
            target_probability=_probability(amps, marked),
            mean_amplitude=float(np.mean(amps)),
        )
