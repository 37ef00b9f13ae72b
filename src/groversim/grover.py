"""Grover search: phase schedules, their gates, and the run loop.

Every schedule runs through one diffusion, _diffuse, the gate-level
H^n X^n C-U X^n H^n. The standard schedule takes U = Z, which reflects
every amplitude about the mean. The modified schedules replace Z with a
controlled rotation whose angle is set per run (fixed-eq9), per iteration
(adaptive-eq10), or switches gate family after the first iteration
(hybrid-eq11-12). All operators here drop an overall -1 factor, which
leaves every probability unchanged. The mean form of the reflection lives
in analysis, as the recurrence's independent check.

iterate_grover builds the views of its two buffers once per run
(_diffusion_views), and the readers of one (n_qubits, marked, schedule)
share one run of the run store: each yields the stored records and
extends the run's one register in turn. One budget of 1.25 MiB bounds the
runs it keeps, and it keeps none past n = 13. Registers up to n = 17 run
in bit-reversed order, where each Hadamard layer reads two contiguous
half-register streams, and are read out in natural order; larger ones run
in natural order (_layer_views gives both plans, _RunStore.REVERSED_BYTES
the bound's reasons). The records are the same bytes either way.

Gate-name convention: constructor names list the factors in application
order, so gate_zr_y(t) applies Z then R_y(t) (matrix R_y(t) @ Z) and
gate_ry_h(t) applies H then R_y(t) (matrix R_y(t) @ H). gate_hr_y(t) is the
opposite reading of the latter, matrix H @ R_y(t); the two are related by
gate_ry_h(t) == gate_hr_y(-t) and both are selectable for the hybrid
schedule, since gate-name notation alone does not pin the order down.
Gates are 2x2 float64 arrays, row-major.
"""

from __future__ import annotations

import functools
import math
import threading
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


def _diffuse(src: np.ndarray, views: tuple, m, target: int) -> np.ndarray:
    """The diffusion H^n X^n C-U X^n H^n applied to src, with U = m on
    qubit target, controlled by every other qubit.

    Schedule.step picks m, which the run loop passes as its rows of floats
    (_rotate_pair); gate_zr_y(0) is exactly Z, giving the standard
    diffusion, equal up to an overall sign to the mean form
    analysis.standard_diffusion_mean. X^n C-U X^n is m acting on the
    amplitude pair (2**target, 0) alone, so that pair is updated between
    the two H^n; it sits at views' one_hot[target] and 0 in the register's
    layout. X's 0/1 matmul moves amplitudes exactly, so the result is
    byte-identical to the real part of the gate-by-gate circuit of
    tests/oracle.py, which runs on a complex copy of src (in the
    bit-reversed plan, permuted alike; up to the one exception
    _hadamard_layers states).

    The pair update is _rotate_pair, which the angle search shares.

    views is _diffusion_views(register, other), built once per run. The
    result is register, which may be src itself: a run diffuses in place
    and holds two buffers in all. Any other src is only read.
    """
    opening, closing = views
    amps = _hadamard_layers(src, opening)
    pair = opening.one_hot[target]
    amps[pair], amps[0] = _rotate_pair(m, amps.item(pair), amps.item(0))
    return _hadamard_layers(amps, closing)


def _rotate_pair(m, a0: float, a1: float) -> tuple[float, float]:
    """m, the gate's rows ((m00, m01), (m10, m11)) as floats, applied to
    the amplitude pair (a0, a1): the entries for indices 2**target and 0
    between the diffusion's two H^n. IEEE double arithmetic is the same on
    Python floats and numpy scalars, so a float64 array m gives the same
    bytes, only slower."""
    (m00, m01), (m10, m11) = m
    # Operand order as in the controlled-gate kernel of tests/oracle.py.
    return m00 * a0 + m01 * a1, m10 * a0 + m11 * a1


_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])  # HADAMARD == HADAMARD[0, 0] * _SIGNS exactly
_SIGNS.flags.writeable = False


class _Layers(NamedTuple):
    """The views of one H^n; see _layer_views."""

    scaled: np.ndarray
    first: tuple
    rest: tuple
    result: np.ndarray
    one_hot: tuple  # one_hot[q]: where basis index 2**q sits in the buffers


def _layer_views(
    scaled: np.ndarray, other: np.ndarray, *, last_entry: bool = False, bit_reversed: bool = False
) -> _Layers:
    """The views of H^n on two float64, C-contiguous (N,) buffers as
    (a, b, out) triples of np.matmul: layer 0 scales its source into
    `scaled` and applies `first`, with _SIGNS for HADAMARD, writing other;
    layer q >= 1 applies rest[q - 1], alternating between the buffers; the
    last writes `result`. Both plans take qubits 0..n-1 in order.

    The natural plan holds the register in natural order. Layer q reads
    the current layout's lowest bit, which is always bit q, and writes it
    as the top bit: its source viewed as (N/2, 2) and transposed is a
    (2, N/2) operand that BLAS reads with leading dimension 2, and its
    destination viewed as (2, N/2) takes both halves, so one gemm computes
    the layer with no copy. After n layers the layout is natural again.

    With bit_reversed, the buffers hold the register in bit-reversed order
    (Pease's constant-geometry butterfly): layer q reads the top bit,
    which is always bit q, from the two contiguous halves of its source,
    the rows of a (2, N/2) operand whose transpose multiplies HADAMARD,
    and writes it as the lowest bit through its destination viewed as
    (N/2, 2). After n layers the layout is bit-reversed again. Each output
    entry is the same two-term product as in the natural plan, so the two
    plans' bytes are equal. iterate_grover takes it for registers up to
    n = 17 (_RunStore.REVERSED_BYTES), where it is faster, readout
    included. Larger registers keep the natural plan: at n = 18 its
    threaded dgemm beats the reversed layers and their readout, and from
    n = 19 on the reversed layers alone run about 1.9x slower.

    With last_entry (natural plan only), the views are windows that
    compute only entry N - 1 of the result (the rest is scratch). Each
    layer moves the lowest index bit to the top, so the m = N >> (q+1)
    entries layer q must deliver are row 1 of its product on its last 2m
    inputs: layer 0 takes row 1 of its signs, and m never drops below 2,
    so the later layers stay gemms.
    """
    size = scaled.size
    half = size >> 1
    count = size.bit_length() - 1
    buffers = (scaled, other)
    if bit_reversed:
        layers = [
            (buffers[q % 2].reshape(2, half).T, HADAMARD, buffers[(q + 1) % 2].reshape(half, 2))
            for q in range(count)
        ]
        first = (layers[0][0], _SIGNS, layers[0][2])
        one_hot = tuple(half >> q for q in range(count))
    else:
        rows = slice(1, 2) if last_entry else slice(None)
        layers = []
        for q in range(count):
            m = max(2, size >> (q + 1)) if last_entry and q else half
            x, y = buffers[q % 2][-2 * m :], buffers[(q + 1) % 2][-2 * m :]
            layers.append((HADAMARD, x.reshape(m, 2).T, y.reshape(2, m)))
        first = (_SIGNS[rows], layers[0][1], layers[0][2][rows])
        one_hot = tuple(1 << q for q in range(count))
    return _Layers(scaled, first, tuple(layers[1:]), buffers[count % 2], one_hot)


def _diffusion_views(
    register: np.ndarray, other: np.ndarray, *, bit_reversed: bool = False
) -> tuple[_Layers, _Layers]:
    """The views of _diffuse: the opening H^n from register, ending in
    register or other as the parity of n gives, and the closing H^n from
    there back into register, both in the plan bit_reversed names."""
    opening = _layer_views(register, other, bit_reversed=bit_reversed)
    if opening.result is register:
        return opening, opening
    return opening, _layer_views(other, register, bit_reversed=bit_reversed)


def _hadamard_layers(src: np.ndarray, layers: _Layers) -> np.ndarray:
    """H^n of src through the prebuilt views of _layer_views, in src's
    layout (natural or bit-reversed, as the views were built); returns
    layers.result.

    The result is byte-identical to the real part of tests/oracle.py's
    per-qubit kernel applying H to qubits 0..n-1 of a complex copy of src
    (permuted alike in the bit-reversed plan). (The one exception is the
    sign of exact zeros at n = 2, where the complex (2,2)@(2,2) gemm's
    edge kernel can return -0.0 for a zero sum that IEEE arithmetic, and
    the real gemm, return as +0.0; no probability depends on it.)

    The per-qubit kernel's layer q is 2**(n-1-q) products (2,2)@(2,2**q);
    for q >= 1 one (2,2)@(2,N/2) product, or its transpose
    (N/2,2)@(2,2) in the bit-reversed plan, computes every output entry
    with the same arithmetic. For q = 0 numpy takes the matrix-vector
    route, whose entries are fl(fl(h*x0) +- fl(h*x1)), h = HADAMARD[0, 0],
    and never -0.0 (gemv adds its sums to a zeroed y). Layer 0 scales src
    by h in one pass into layers.scaled, which may be src itself (its
    content is then dead; else src is only read), applies _SIGNS to the
    scaled pairs in one gemm and adds 0.0: products by +-1 are exact, so
    any BLAS rounds each entry once, FMA or not.
    """
    scaled, (a, b, y), rest, result, _ = layers
    np.multiply(HADAMARD[0, 0], src, out=scaled)
    np.matmul(a, b, out=y)
    y += 0.0
    for a, b, y in rest:
        np.matmul(a, b, out=y)
    return result


def _reverse_bits(indices: np.ndarray, n_qubits: int) -> np.ndarray:
    """_bit_reversal(n_qubits)[indices], without that register-sized array."""
    out = np.zeros_like(indices)
    for q in range(n_qubits):
        out |= (indices >> q & 1) << (n_qubits - 1 - q)
    return out


@functools.cache
def _bit_reversal(n_qubits: int) -> np.ndarray:
    """The index array taking each basis index to its bit reversal over
    n_qubits bits; it is its own inverse. It stays writeable, since take
    would copy a read-only index array on every call; nothing writes it."""
    perm = np.zeros(1, dtype=np.intp)
    for _ in range(n_qubits):
        perm = np.concatenate((2 * perm, 2 * perm + 1))
    return perm


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


class _Run:
    """One run of the store: its records, its register after the last of
    them, the theta and gate of that iteration, the lock its readers
    extend it under, and whether the store keeps it and whether an
    iteration of it raised."""

    def __init__(self, n_qubits: int, kept: bool = False):
        self.records: list[IterationRecord] = []
        self.amps = uniform_superposition(n_qubits)
        self.theta = self.gate = None
        self.lock = threading.Lock()
        self.kept = kept
        self.failed = False


class _RunStore:
    """iterate_grover's run store: one shared _Run per key (n_qubits,
    marked, schedule), kept only if its register is at most REGISTER_BYTES
    (64 KiB, n <= 13, the paper's tables); a larger run belongs to its
    reader alone.

    One budget, BYTES, bounds the kept runs: a record counts RECORD_BYTES,
    a marked index of the key MARKED_BYTES (their size in CPython, rounded
    up) and the register its nbytes. Past it whole runs are evicted, least
    recently looked up first; a reader of an evicted run goes on in that
    run alone. Every change holds one lock, which a reader may take while
    it holds a run's lock but never the other way round, so readers in any
    threads may share the store.
    """

    REGISTER_BYTES = 8 << 13
    # iterate_grover runs registers up to 1 MiB (n <= 17) bit-reversed
    # (_layer_views). There a reversed diffusion and its readout copy take
    # about two thirds of the natural diffusion's time (4.8 against 6.3 ms
    # at n = 17, on a 2-core Xeon with OpenBLAS's default core). At n = 18
    # they take longer than the natural plan's threaded dgemm (10.5
    # against 8.3 ms), and from n = 19 on the reversed layers alone run
    # about 1.9x slower.
    REVERSED_BYTES = 8 << 17
    RECORD_BYTES = 200
    MARKED_BYTES = 40
    BYTES = (1 << 20) + (1 << 18)

    def __init__(self):
        self.runs: dict[tuple, _Run] = {}
        self.bytes = 0
        self._lock = threading.Lock()

    def run(self, key: tuple) -> _Run:
        """The stored run of key, now the most recently used, or a new one."""
        if 8 << key[0] > self.REGISTER_BYTES:
            return _Run(key[0])
        with self._lock:
            run = self.runs.pop(key, None)
            if run is None:
                run = _Run(key[0], kept=True)
                self.bytes += len(key[1]) * self.MARKED_BYTES + run.amps.nbytes
            self.runs[key] = run
            self._evict()
            return run

    def grow(self, run: _Run, record: IterationRecord) -> None:
        """Append run's next record, counting it if the store keeps the run."""
        with self._lock:
            run.records.append(record)
            if run.kept:
                self.bytes += self.RECORD_BYTES
                self._evict()

    def drop(self, key: tuple) -> None:
        """Forget run key."""
        with self._lock:
            self._drop(key)

    def clear(self) -> None:
        with self._lock:
            while self.runs:
                self._drop(next(iter(self.runs)))

    def _evict(self) -> None:
        """Drop the least recently looked-up runs until the store is within BYTES."""
        while self.bytes > self.BYTES:
            self._drop(next(iter(self.runs)))

    def _drop(self, key: tuple) -> None:
        run = self.runs.pop(key, None)
        if run is not None:
            run.kept = False
            held = len(key[1]) * self.MARKED_BYTES + len(run.records) * self.RECORD_BYTES
            self.bytes -= held + run.amps.nbytes


_STORE = _RunStore()


def iterate_grover(config: GroverConfig) -> Iterator[IterationRecord]:
    """Prepare the uniform state, then yield one record per iteration of
    oracle + scheduled diffusion, up to max_iterations records.

    Each record is computed only when it is pulled, so a consumer that stops
    early skips the remaining iterations. Raises NormDriftError if the
    squared norm leaves 1 by 1e-10 or more.

    A run is a pure function of (n_qubits, marked, schedule), which
    GroverConfig stores as the run reads them, so the readers of that key
    share one run (_RunStore.run). A reader yields the run's records; at
    each one missing it extends the run's register by one iteration under
    the run's lock and stores the record, so interleaved readers make each
    iteration once. An iteration that raises marks the run failed and
    drops it from the store: no reader extends it again, and its other
    readers go on in the store's current run of the key.

    A reader builds a spare float64 register-sized buffer and the views of
    it and the run's register (_diffusion_views) once for each run it
    extends: the oracle negates the marked amplitudes in place, and
    _diffuse leaves its result in the register. Registers up to n = 17
    are held bit-reversed, with the marked indices mapped into that
    order, and each readout puts the register into natural order in the
    spare buffer: a register the store may keep (n <= 13) is gathered
    through _bit_reversal's cached index array, a larger one copied
    through its (2,)*n view with the axes reversed, which needs no index
    array. Larger registers are held in natural order. Up to n = 13 the
    norm is np.vdot, which OpenBLAS runs on one thread there; from n = 14
    on it is a BLAS-free sum, so no run wakes a BLAS thread to check it.

    The records are byte-identical to those of re-simulating each
    iteration with the oracle, diffusion and readout of tests/oracle.py
    on a complex register. GroverConfig stores the marked indices sorted,
    so the readout sums their probabilities in ascending order of index,
    in every plan, and the rotation target resolved (None as n - 1). The
    mean is np.mean's pairwise sum over the natural order, divided by N.
    """
    n = config.n_qubits
    schedule = config.schedule
    marked = np.array(config.marked, dtype=np.int64)
    bit_reversed = 8 << n <= _RunStore.REVERSED_BYTES
    # OpenBLAS threads ddot above 10,000 entries, so np.vdot is kept for
    # the registers the store may keep, where it is the fastest sum.
    small = 8 << n <= _RunStore.REGISTER_BYTES
    if small:
        reversal = _bit_reversal(n)
        flips = reversal[marked]
    elif bit_reversed:
        flips = _reverse_bits(marked, n)
    else:
        flips = marked
    key = (n, config.marked, schedule)
    run, extended = _STORE.run(key), None  # extended: the run `views` serve
    for i in range(1, config.max_iterations + 1):
        while len(run.records) < i:
            with run.lock:
                done = len(run.records) + 1
                if run.failed:
                    run = _STORE.run(key)
                elif done <= i:  # else another reader extended the run meanwhile
                    if extended is not run:
                        extended, spare = run, np.empty_like(run.amps)
                        views = _diffusion_views(run.amps, spare, bit_reversed=bit_reversed)
                        if bit_reversed and not small:
                            # spare, and the register with its bit order reversed
                            cube = (2,) * n
                            unreversed = spare.reshape(cube), run.amps.reshape(cube).transpose(range(n)[::-1])
                    try:
                        # Only the adaptive gate changes after iteration 2
                        # (Schedule.step).
                        if done <= 2 or schedule.kind is ScheduleKind.ADAPTIVE:
                            run.theta, matrix = schedule.step(n, done)
                            run.gate = matrix.tolist()
                        amps = run.amps
                        amps[flips] *= -1.0
                        _diffuse(amps, views, run.gate, schedule.rotation_target)
                        total = float(np.vdot(amps, amps) if small else np.einsum("i,i->", amps, amps))
                        if not abs(total - 1.0) < 1e-10:
                            raise NormDriftError(f"statevector norm drifted to {total!r} at iteration {done}")
                        if small:
                            natural = amps.take(reversal, out=spare, mode="clip")
                        elif bit_reversed:
                            natural = spare
                            np.copyto(*unreversed)
                        else:
                            natural = amps
                        record = IterationRecord(
                            iteration=done,
                            theta_used=run.theta,
                            target_probability=_probability(amps, flips),
                            mean_amplitude=float(np.add.reduce(natural)) / natural.size,
                        )
                        _STORE.grow(run, record)
                    except BaseException:
                        run.failed = True
                        _STORE.drop(key)
                        raise
        yield run.records[i - 1]
