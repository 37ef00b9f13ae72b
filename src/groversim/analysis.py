"""Classical cross-checks and comparison reports for the search schedules.

The recurrence and the success models are independent routes to numbers
the simulator also produces: a two-amplitude recurrence for standard
search with one marked state and closed-form sin^2 success models. The
derivative-free search for the best first-iteration rotation angle runs
the simulator's own diffusion arithmetic on the angles a closed form
leaves: it opens the register with H^n once per size, and each angle only
rotates the pair and closes the marked amplitude's cone of the second
H^n. The sweep compares standard and modified iteration counts; its runs
read grover's run store, so the sweeps, traces and curves one process
runs share every iteration they repeat.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from statistics import fmean
from typing import NamedTuple

import numpy as np

from .grover import (
    GroverConfig,
    IterationRecord,
    Schedule,
    _hadamard_layers,
    _layer_views,
    _rotate_pair,
    gate_zr_y,
    iterate_grover,
)
from .statevector import SizeLimitError, _integer, _probability, check_register_size, uniform_superposition

# Grid step and bracket-refinement width for the rotation-angle search.
SEARCH_GRID_STEP = 1e-3
SEARCH_REFINE_TOL = 1e-9
# Bound on |f - g| for the search's closed-form screen; see optimal_phase_search.
_SCREEN_BOUND = 1e-12

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
    n_qubits = _integer(n_qubits, "n_qubits")
    if not 1 <= n_qubits <= MAX_RECURRENCE_QUBITS:
        raise SizeLimitError(
            f"recurrence supports 1..{MAX_RECURRENCE_QUBITS} qubits, got {n_qubits}"
        )
    if _integer(iterations, "iterations") < 1:
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
    amps = uniform_superposition(n_qubits)
    marked_index = amps.size - 1
    out = []
    for _ in range(_integer(count, "count")):
        out.append(float(amps[marked_index]))
        amps[marked_index] *= -1.0
        amps = standard_diffusion_mean(amps)
    return out


def standard_diffusion_mean(amps: np.ndarray) -> np.ndarray:
    """Inversion about the mean: each amplitude a becomes 2m - a.

    m is the mean numpy takes over the register cast to complex128, whose
    pairwise sum rounds as the float64 one does not; the recurrence's
    statevector column rests on those bytes.
    """
    m = np.mean(amps.astype(np.complex128)).real
    return 2.0 * m - amps


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
        dim = 2.0 ** _integer(n_qubits, "n_qubits")
        if not 1 <= _integer(marked_count, "marked_count") < dim:
            raise ValueError(f"marked count {marked_count} must be in [1, 2**{n_qubits})")
        return cls(math.asin(math.sqrt(marked_count / dim)), delta_theta)


def success_probability_standard(iterations: int, model: SuccessModel) -> float:
    """sin^2((2i+1) * theta0); i = 0 gives the initial probability M/N."""
    if _integer(iterations, "iterations") < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    return math.sin((2 * iterations + 1) * model.theta0) ** 2


def success_probability_modified(iterations: int, model: SuccessModel) -> float:
    """sin^2((2i+1) * (1 + delta_theta) * theta0)."""
    if _integer(iterations, "iterations") < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    return math.sin((2 * iterations + 1) * (1.0 + model.delta_theta) * model.theta0) ** 2


def optimal_phase_search(n_qubits: int) -> float:
    """Best diffusion rotation angle for the first iteration, found numerically.

    Maximizes f(theta), the marked probability after the run loop's first
    iteration at that angle (_first_iteration_probability), by a grid scan
    over [-pi, pi) and golden-section refinement between the neighbours of
    the first grid maximum k. Only k needs the grid, so the closed form g
    (_first_iteration_closed_form) screens it: if |f - g| <= eps on the
    grid, k is among the candidates {j : g_j >= max g - 2 eps}, and f is
    evaluated only there, first maximum in grid order, as argmax takes it.
    Every value the search compares is f's.

    eps = _SCREEN_BOUND = 1e-12 has a wide margin. In exact arithmetic g is
    f at the same float angle. f's probes round each step as the run
    loop's diffusion does, so the diffusion's error bound is theirs. With
    u = 2**-53, each H layer entry, fused (fma(h1, x1, h0*x0)) or not,
    with h rounded too, is off by at most 3u(|h0 x0| + |h1 x1|), which
    adds at most 3*sqrt(2)u < 4.3u to the error of the unit register. The
    pair rotation and the rounded start 1/sqrt(N) are one such step each,
    so the marked amplitude is off by at most (2n + 2) * 4.3u and f by
    twice that: 2.5e-14 at n = 12, 4.0e-14 at n = 20. g's terms are at
    most 2 in size, its sine and cosine within a few ulps, and
    2|f1|/N <= 1, so g is off by about 20u = 2.2e-15.
    """
    n_qubits = check_register_size(n_qubits)
    if n_qubits < 2:
        raise ValueError(f"phase search needs at least 2 qubits, got {n_qubits}")
    grid = np.arange(-math.pi, math.pi, SEARCH_GRID_STEP)
    screen = _first_iteration_closed_form(n_qubits, grid)
    f = _first_iteration_probability(n_qubits)
    candidates = np.flatnonzero(screen >= screen.max() - 2.0 * _SCREEN_BOUND)
    k = max(candidates.tolist(), key=lambda j: f(float(grid[j])))
    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, len(grid) - 1)])
    return _golden_section_max(f, lo, hi, SEARCH_REFINE_TOL)


def _first_iteration_probability(n_qubits: int):
    """f(theta) -> marked probability after the oracle and _diffuse with
    gate_zr_y(theta) on qubit n - 1, from the uniform state with index
    2**n - 1 marked, read out as the run loop reads it.

    The opening H^n does not depend on theta, so it runs once, here, as do
    the views of the close; a probe writes _rotate_pair of its saved pair
    entries into the opened register and closes only the marked entry's
    cone (the last_entry windows of _layer_views), in the two buffers the
    opened register is not.
    """
    after_oracle = uniform_superposition(n_qubits)
    after_oracle[-1] *= -1.0
    marked = np.array([after_oracle.size - 1])
    half = after_oracle.size >> 1
    first, second = np.empty_like(after_oracle), np.empty_like(after_oracle)
    opened = _hadamard_layers(after_oracle, _layer_views(first, second))
    cone = _layer_views(after_oracle, first if opened is second else second, last_entry=True)
    a0, a1 = opened[half], opened[0]

    def f(theta: float) -> float:
        opened[half], opened[0] = _rotate_pair(gate_zr_y(theta), a0, a1)
        return _probability(_hadamard_layers(opened, cone), marked)

    return f


def _first_iteration_closed_form(n_qubits: int, thetas: np.ndarray) -> np.ndarray:
    """f of _first_iteration_probability in closed form, g = f1**2 / N.

    In units of 1/sqrt(N), the opening H^n leaves a1 = 1 - 2/N at index 0
    and a0 = 2/N at index 2**(n-1); rotating that pair and closing with H^n
    leaves f1 = a0 - a1 - 1 + s(a0 - a1) - c(a0 + a1) at the marked index,
    with c, s = cos, sin(theta/2).
    """
    big_n = float(1 << n_qubits)
    a1, a0 = 1.0 - 2.0 / big_n, 2.0 / big_n
    f1 = a0 - a1 - 1.0 + np.sin(thetas / 2.0) * (a0 - a1) - np.cos(thetas / 2.0) * (a0 + a1)
    return f1 * f1 / big_n


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


class ComparisonRow(NamedTuple):
    """One register size of a sweep; _fields are the `sweep` columns, in order."""

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

    Each n runs both schedules with GroverConfig's default target, the
    all-ones state, for up to 2 * n_optimal + 2 iterations, stopping one
    record past the first success-probability crest, and tabulates the
    crest iteration counts, their ratio and the percent improvement.

    The runs read grover's run store (iterate_grover): a run is a pure
    function of its config without the window, so the records an earlier
    run of the process pulled are the ones this run would compute.
    GroverConfig stores the schedule its run reads, so runs that differ
    only in what they ignore, standard sweeps' two runs among them, are
    one run.
    """
    check_register_size(n_lo)
    check_register_size(n_hi)
    if n_lo > n_hi:
        raise ValueError(f"empty qubit range {n_lo}..{n_hi}")
    rows = []
    for n in range(n_lo, n_hi + 1):
        std_iters, std_peak = find_peak_iteration(iterate_grover(GroverConfig(n)))
        mod_iters, mod_peak = find_peak_iteration(iterate_grover(GroverConfig(n, schedule=schedule)))
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

