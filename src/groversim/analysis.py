"""Classical cross-checks and comparison reports for the search schedules.

Everything here is an independent route to numbers the simulator also
produces: a two-amplitude recurrence for standard search with one marked
state, closed-form sin^2 success models, a derivative-free search for the
best diffusion rotation angle, and the standard-vs-modified iteration-count
sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import fmean

import numpy as np

from .grover import (
    GroverConfig,
    MarkedSet,
    RunTrace,
    Schedule,
    n_optimal_standard,
    run_grover,
    standard_diffusion_mean,
)
from .statevector import (
    HADAMARD,
    SizeLimitError,
    apply_one_qubit_gate,
    phase_flip_indices,
    uniform_superposition,
)

# Grid step and bracket-refinement width for the rotation-angle search.
SEARCH_GRID_STEP = 1e-3
SEARCH_REFINE_TOL = 1e-9
MAX_SEARCH_QUBITS = 12
# Amplitudes the search evaluates at once (angles per batch times 2**n);
# larger batches raise the search's peak memory.
SEARCH_BATCH_AMPLITUDES = 4096

# The recurrence is pure float arithmetic in N = 2**n; keep N exact.
MAX_RECURRENCE_QUBITS = 52

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class RecurrenceState:
    """Amplitudes entering iteration i of standard search with one marked state.

    `a` is the marked amplitude, `b` the shared unmarked amplitude, and `m`
    the mean after the oracle flips a's sign (the mean the next reflection
    uses). Row 1 is the uniform start, a = b = 1/sqrt(N).
    """

    iteration: int
    a: float
    b: float
    m: float


def recurrence_table(n_qubits: int, iterations: int) -> list[RecurrenceState]:
    """Run the two-amplitude recurrence for the given number of iterations.

    Per step: flip a -> -a, take the mean m = ((N-1)*b - a)/N over all
    amplitudes, then reflect both about it: a <- 2m + a, b <- 2m - b.
    Matches the full statevector simulation of standard search exactly.
    """
    if not 1 <= n_qubits <= MAX_RECURRENCE_QUBITS:
        raise SizeLimitError(
            f"recurrence supports 1..{MAX_RECURRENCE_QUBITS} qubits, got {n_qubits}"
        )
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    big_n = 2.0**n_qubits
    a = b = 1.0 / math.sqrt(big_n)
    rows = []
    for i in range(1, iterations + 1):
        m = ((big_n - 1.0) * b - a) / big_n
        rows.append(RecurrenceState(iteration=i, a=a, b=b, m=m))
        a, b = 2.0 * m + a, 2.0 * m - b
    return rows


def simulated_amplitude_series(n_qubits: int, count: int) -> list[float]:
    """Marked-state amplitude entering each of `count` iterations, simulated.

    Uses the mean-form diffusion so the sign convention matches the
    recurrence (the gate form differs by an alternating overall sign).
    The state stays exactly real throughout.
    """
    marked_index = (1 << n_qubits) - 1
    state = uniform_superposition(n_qubits)
    out = []
    for _ in range(count):
        out.append(float(state.amps[marked_index].real))
        state = phase_flip_indices(state, {marked_index})
        state = standard_diffusion_mean(state)
    return out


def amplitude_ratio(iteration: int) -> Fraction:
    """Leading-order growth ratio of consecutive marked amplitudes: (2i+1)/(2i-1)."""
    if iteration < 1:
        raise ValueError(f"iteration index must be >= 1, got {iteration}")
    return Fraction(2 * iteration + 1, 2 * iteration - 1)


@dataclass(frozen=True)
class SuccessModel:
    """Closed-form success-probability model sin^2((2i+1) * theta0).

    theta0 = asin(sqrt(M/N)); delta_theta is the fractional phase boost the
    modified schedules are modeled with (default sqrt(2) - 1, i.e. a sqrt(2)
    compression of the iteration axis).
    """

    theta0: float
    delta_theta: float = math.sqrt(2.0) - 1.0

    def __post_init__(self):
        if not 0.0 < self.theta0 < math.pi / 2.0:
            raise ValueError(f"theta0 must be in (0, pi/2), got {self.theta0}")

    @classmethod
    def for_search(
        cls,
        n_qubits: int,
        marked_count: int = 1,
        delta_theta: float = math.sqrt(2.0) - 1.0,
    ) -> "SuccessModel":
        return cls(math.asin(math.sqrt(marked_count / 2.0**n_qubits)), delta_theta)


def success_probability_standard(iterations: int, model: SuccessModel) -> float:
    """sin^2((2i+1) * theta0); i = 0 gives the initial probability M/N."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    return math.sin((2 * iterations + 1) * model.theta0) ** 2


def success_probability_modified(iterations: int, model: SuccessModel) -> float:
    """sin^2((2i+1) * (1 + delta_theta) * theta0)."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    return math.sin((2 * iterations + 1) * (1.0 + model.delta_theta) * model.theta0) ** 2


def optimal_phase_search(n_qubits: int) -> float:
    """Best diffusion rotation angle for the first iteration, found numerically.

    Maximizes the marked-state probability after one oracle + modified
    diffusion (gate_zr_y) applied to the uniform state (single marked
    state), via a coarse grid scan over [-pi, pi) followed by golden-section
    refinement. Every objective value is bit-identical to
    target_probability(modified_diffusion(after_oracle, theta, gate_zr_y),
    marked), but only the part of the diffusion the angle reaches is run
    per angle.

    modified_diffusion is H^n, then gate_zr_y(theta) on the amplitude pair
    at indices 2**(n-1) and 0, then H^n; only that pair depends on the
    angle. Cached once per n: H^n of the post-oracle state, and the input
    of each closing H layer with the pair left unrotated. Recomputed per
    angle: the rotated pair, then at closing H layer q only the
    2**(q+1)-amplitude blocks the pair has reached so far, two from q = 0
    to n - 2 and the whole register at q = n - 1. Grid angles go in
    batches of at most SEARCH_BATCH_AMPLITUDES amplitudes, which bounds
    peak memory.

    Each layer is np.matmul(H, blocks.reshape(k, 2, 2**q)), the per-item
    (2,2)@(2,2**q) product apply_one_qubit_gate computes. BLAS rounding
    depends on the product's shape: an elementwise butterfly or a
    single-column product differs in the last bit, which moves the
    committed angle table.
    """
    if not 2 <= n_qubits <= MAX_SEARCH_QUBITS:
        raise ValueError(
            f"phase search supports 2..{MAX_SEARCH_QUBITS} qubits, got {n_qubits}"
        )
    probabilities = _first_iteration_objective(n_qubits)
    grid = np.arange(-math.pi, math.pi, SEARCH_GRID_STEP)
    batch = max(1, SEARCH_BATCH_AMPLITUDES >> n_qubits)
    values = np.concatenate(
        [probabilities(grid[i : i + batch]) for i in range(0, len(grid), batch)]
    )
    k = int(values.argmax())
    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, len(grid) - 1)])
    return _golden_section_max(
        lambda t: float(probabilities(np.array([t]))[0]), lo, hi, SEARCH_REFINE_TOL
    )


def _first_iteration_objective(n_qubits: int):
    """f(thetas) -> marked probability after oracle + modified_diffusion with
    gate_zr_y(theta), for a 1-D array of angles; see optimal_phase_search.
    """
    dim = 1 << n_qubits
    half = dim >> 1
    state = phase_flip_indices(uniform_superposition(n_qubits), {dim - 1})
    for q in range(n_qubits):
        state = apply_one_qubit_gate(state, q, HADAMARD)
    a0, a1 = state.amps[half], state.amps[0]  # the pair gate_zr_y rotates
    layer_inputs = []
    for q in range(n_qubits - 1):
        layer_inputs.append(state.amps.reshape(2, half))
        state = apply_one_qubit_gate(state, q, HADAMARD)
    h = HADAMARD.matrix

    def probabilities(thetas: np.ndarray) -> np.ndarray:
        # Entries [[c, s], [s, -c]] of gate_zr_y(theta), combined as
        # modified_diffusion combines them.
        c = np.array([math.cos(t / 2.0) for t in thetas], dtype=np.complex128)
        s = np.array([math.sin(t / 2.0) for t in thetas], dtype=np.complex128)
        # Row 0 is the run of indices from 0, row 1 the run from 2**(n-1).
        reached = np.empty((len(thetas), 2, 1), dtype=np.complex128)
        reached[:, 0, 0] = s * a0 + -c * a1
        reached[:, 1, 0] = c * a0 + s * a1
        for q, layer_input in enumerate(layer_inputs):
            width = 2 << q
            blocks = np.empty((len(thetas), 2, width), dtype=np.complex128)
            blocks[:] = layer_input[:, :width]
            blocks[:, :, : width >> 1] = reached
            reached = np.matmul(h, blocks.reshape(-1, 2, width >> 1)).reshape(blocks.shape)
        amp = np.matmul(h, reached)[:, 1, -1]
        # Every amplitude here is real (zero imaginary part), so this equals
        # target_probability's vdot exactly.
        return amp.real**2 + amp.imag**2

    return probabilities


def _golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2.0


def find_peak_iteration(trace: RunTrace) -> tuple[int, float]:
    """First crest of the success curve: earliest iteration whose probability
    is not exceeded by the next one. Later revivals of the oscillating curve
    are deliberately ignored; a flat trace yields iteration 1 and a strictly
    rising trace yields the last iteration.
    """
    records = trace.records
    if not records:
        raise ValueError("trace has no iterations")
    probs = [r.target_probability for r in records]
    for i in range(len(probs) - 1):
        if probs[i] >= probs[i + 1]:
            return records[i].iteration, probs[i]
    return records[-1].iteration, probs[-1]


@dataclass
class ComparisonRow:
    n_qubits: int
    std_iters: int
    mod_iters: int
    difference: int
    ratio: float
    improvement_pct: float
    std_peak_prob: float
    mod_peak_prob: float
    schedule_used: str


@dataclass
class SweepReport:
    rows: list[ComparisonRow]
    average_improvement_pct: float
    # Mean without the 2-qubit row, where a single iteration already succeeds
    # with certainty and no schedule can improve on it.
    average_improvement_pct_excl_2q: float | None


def sweep_compare(n_lo: int, n_hi: int, schedule: Schedule) -> SweepReport:
    """Standard-vs-scheduled peak comparison over an inclusive qubit range.

    Each n runs both schedules for 2 * n_optimal + 2 iterations with the
    all-ones state marked, locates the first success-probability crest and
    tabulates iteration counts, their ratio and the percent improvement.
    """
    if n_lo > n_hi:
        raise ValueError(f"empty qubit range {n_lo}..{n_hi}")
    rows = []
    for n in range(n_lo, n_hi + 1):
        marked = MarkedSet(frozenset({(1 << n) - 1}))
        limit = 2 * n_optimal_standard(n, 1) + 2
        std_trace = run_grover(GroverConfig(n, marked, Schedule(), limit))
        mod_trace = run_grover(GroverConfig(n, marked, schedule, limit))
        std_iters, std_peak = find_peak_iteration(std_trace)
        mod_iters, mod_peak = find_peak_iteration(mod_trace)
        ratio = mod_iters / std_iters
        rows.append(
            ComparisonRow(
                n_qubits=n,
                std_iters=std_iters,
                mod_iters=mod_iters,
                difference=std_iters - mod_iters,
                ratio=ratio,
                improvement_pct=100.0 * (1.0 - ratio),
                std_peak_prob=std_peak,
                mod_peak_prob=mod_peak,
                schedule_used=schedule.describe(),
            )
        )
    average = fmean(r.improvement_pct for r in rows)
    tail = [r.improvement_pct for r in rows if r.n_qubits > 2]
    return SweepReport(rows, average, fmean(tail) if tail else None)


def theoretical_complexity(n_qubits: int, marked_count: int, modified: bool = False) -> float:
    """Oracle-call estimate (pi/4) * sqrt(N/M) - 1/2, over sqrt(2) if modified."""
    if marked_count < 1:
        raise ValueError(f"marked count must be >= 1, got {marked_count}")
    base = math.pi / 4.0 * math.sqrt(2.0**n_qubits / marked_count) - 0.5
    return base / math.sqrt(2.0) if modified else base
