"""Classical cross-checks and comparison reports for the search schedules.

The recurrence and the success models are independent routes to numbers
the simulator also produces: a two-amplitude recurrence for standard
search with one marked state and closed-form sin^2 success models. The
derivative-free search for the best first-iteration rotation angle runs
the simulator's own diffusion kernel over batches of angles, and the
sweep compares standard and modified iteration counts.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from statistics import fmean

import numpy as np

from .grover import (
    GroverConfig,
    IterationRecord,
    MarkedSet,
    Schedule,
    _hadamard_layers,
    iterate_grover,
    standard_diffusion_mean,
)
from .statevector import SizeLimitError, check_register_size, uniform_superposition

# Grid step and bracket-refinement width for the rotation-angle search.
SEARCH_GRID_STEP = 1e-3
SEARCH_REFINE_TOL = 1e-9
MAX_SEARCH_QUBITS = 12
# Amplitudes the search evaluates at once (angles per batch times 2**n);
# larger batches raise the search's peak memory.
SEARCH_BATCH_AMPLITUDES = 8192

# The recurrence is pure float arithmetic in N = 2**n; keep N exact.
MAX_RECURRENCE_QUBITS = 52

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def recurrence_table(n_qubits: int, iterations: int) -> list[float]:
    """Marked amplitude a entering each of `iterations` iterations of
    standard search with one marked state, by the two-amplitude recurrence.

    b is the shared unmarked amplitude; the first entry is the uniform
    start, a = b = 1/sqrt(N). Per step: flip a -> -a, take the mean
    m = ((N-1)*b - a)/N over all amplitudes, then reflect both about it:
    a <- 2m + a, b <- 2m - b. Matches the full statevector simulation of
    standard search exactly.
    """
    if not 1 <= n_qubits <= MAX_RECURRENCE_QUBITS:
        raise SizeLimitError(
            f"recurrence supports 1..{MAX_RECURRENCE_QUBITS} qubits, got {n_qubits}"
        )
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    big_n = 2.0**n_qubits
    a = b = 1.0 / math.sqrt(big_n)
    amplitudes = []
    for _ in range(iterations):
        amplitudes.append(a)
        m = ((big_n - 1.0) * b - a) / big_n
        a, b = 2.0 * m + a, 2.0 * m - b
    return amplitudes


def simulated_amplitude_series(n_qubits: int, count: int) -> list[float]:
    """Marked-state amplitude entering each of `count` iterations, simulated.

    Uses the mean-form diffusion so the sign convention matches the
    recurrence (the gate form differs by an alternating overall sign).
    The state is a float64 register throughout.
    """
    marked_index = (1 << n_qubits) - 1
    amps = uniform_superposition(n_qubits)
    out = []
    for _ in range(count):
        out.append(float(amps[marked_index]))
        amps[marked_index] *= -1.0
        amps = standard_diffusion_mean(amps)
    return out


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
    refinement. Every objective value is byte-identical to the marked
    probability after the run loop's first iteration (the oracle, then
    _diffuse with gate_zr_y(theta) on qubit n - 1) at that angle.

    The diffusion is H^n, then gate_zr_y(theta) on the amplitude pair at
    indices 2**(n-1) and 0, then H^n; only that pair depends on the angle.
    The opening H^n runs once per n. Each batch of angles copies that
    opened state into one register per angle, rotates each register's
    pair, and closes the whole batch with one call of _hadamard_layers, the
    kernel the run loop's _diffuse runs. A batch holds at most
    SEARCH_BATCH_AMPLITUDES amplitudes, which bounds peak memory.
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
    """f(thetas) -> marked probability after the oracle and the diffusion
    with gate_zr_y(theta), for a 1-D array of angles; see
    optimal_phase_search.
    """
    dim = 1 << n_qubits
    after_oracle = uniform_superposition(n_qubits)
    after_oracle[dim - 1] *= -1.0
    opened, _ = _hadamard_layers(after_oracle, np.empty_like(after_oracle), np.empty_like(after_oracle))
    a0, a1 = opened[dim >> 1], opened[0]  # the pair gate_zr_y rotates

    def probabilities(thetas: np.ndarray) -> np.ndarray:
        # Entries [[c, s], [s, -c]] of gate_zr_y(theta), combined as
        # _diffuse combines them.
        c = np.array([math.cos(t / 2.0) for t in thetas])
        s = np.array([math.sin(t / 2.0) for t in thetas])
        batch = np.empty((len(thetas), dim))
        batch[:] = opened
        batch[:, dim >> 1] = c * a0 + s * a1
        batch[:, 0] = s * a0 + -c * a1
        closed, _ = _hadamard_layers(batch, np.empty_like(batch), batch)
        # Flat index x*k + j holds amplitude x of register j, so the last k
        # entries are the marked amplitude dim - 1 of each register.
        return np.abs(closed.reshape(-1)[-len(thetas) :]) ** 2  # the readout's |a|**2

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


def find_peak_iteration(records: Iterable[IterationRecord]) -> tuple[int, float]:
    """First crest of the success curve: earliest record whose probability
    is not exceeded by the next one. Later revivals of the oscillating curve
    are deliberately ignored; a flat curve yields its first record and a
    strictly rising one its last.

    Pulls at most one record past the crest, so given iterate_grover it
    simulates no further. Raises ValueError if there are no records.
    """
    records = iter(records)
    crest = next(records, None)
    if crest is None:
        raise ValueError("no iterations to search for a crest")
    for record in records:
        if crest.target_probability >= record.target_probability:
            break
        crest = record
    return crest.iteration, crest.target_probability


@dataclass
class ComparisonRow:
    """One register size of a sweep; the fields are the `sweep` columns, in order."""

    n: int
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

    Each n runs both schedules with the all-ones state marked for up to
    2 * n_optimal + 2 iterations, stopping one record past the first
    success-probability crest, and tabulates the crest iteration counts,
    their ratio and the percent improvement.
    """
    check_register_size(n_lo)
    check_register_size(n_hi)
    if n_lo > n_hi:
        raise ValueError(f"empty qubit range {n_lo}..{n_hi}")
    rows = []
    for n in range(n_lo, n_hi + 1):
        marked = MarkedSet(frozenset({(1 << n) - 1}))
        std_iters, std_peak = find_peak_iteration(
            iterate_grover(GroverConfig(n, marked, Schedule()))
        )
        mod_iters, mod_peak = find_peak_iteration(
            iterate_grover(GroverConfig(n, marked, schedule))
        )
        ratio = mod_iters / std_iters
        rows.append(
            ComparisonRow(
                n=n,
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
    tail = [r.improvement_pct for r in rows if r.n != 2]
    return SweepReport(rows, average, fmean(tail) if tail else None)
