"""End-to-end acceptance checks. One test per criterion; each prints a
single PASS/FAIL line (plus the mandated per-row reports), so run with -s
to see the report:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
from click.testing import CliRunner

from groversim import (
    GroverConfig,
    HybridOrder,
    RatioInterpretation,
    Schedule,
    ScheduleKind,
    SuccessModel,
    find_peak_iteration,
    fixed_phase,
    gate_hr_y,
    gate_r_y,
    gate_zr_y,
    iterate_grover,
    n_optimal_standard,
    optimal_phase_search,
    recurrence_table,
    success_probability_standard,
    sweep_compare,
)
from groversim import analysis
from groversim.analysis import simulated_amplitude_series, standard_diffusion_mean
from groversim.cli import main as cli_main
from conftest import random_real_amps, random_state
from oracle import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    OneQubitGate,
    StateVector,
    apply_oracle,
    apply_sequence,
    dense_operator_of,
    modified_diffusion,
    uniform_state,
)

# Reference values the suite reproduces.
REFERENCE_STANDARD_ITERATIONS = [1, 2, 3, 4, 6, 8, 12, 17, 25, 35, 50, 71]
REFERENCE_MODIFIED_ITERATIONS = [1, 1, 2, 3, 4, 6, 9, 12, 18, 25, 35, 50]
REFERENCE_HEADLINE_PROBABILITY = 0.997461  # modified n=5 run, 3 iterations
REFERENCE_STANDARD_P3 = 0.896936  # standard n=5 run, 3 iterations
REFERENCE_AVG_IMPROVEMENT = 28.1017
REFERENCE_AVG_IMPROVEMENT_EXCL_2Q = 30.65

RUNNER = CliRunner()


def _cli(*args) -> str:
    result = RUNNER.invoke(cli_main, [str(a) for a in args])
    assert result.exit_code == 0, f"CLI failed: {args} -> {result.output}"
    return result.output


def _verdict(number: int, label: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_standard_iteration_table_exact():
    start = time.perf_counter()
    output = _cli("sweep", "--qubits", "2..13", "--schedule", "standard")
    lines = [l for l in output.splitlines()[1:] if l and not l.startswith("average")]
    std_column = [int(line.split(",")[1]) for line in lines]
    elapsed = time.perf_counter() - start
    ok = std_column == REFERENCE_STANDARD_ITERATIONS and elapsed < 10.0
    _verdict(
        1,
        "standard peak iterations for n=2..13 match the reference row exactly",
        ok,
        f"got {std_column} in {elapsed:.2f} s",
    )


def test_criterion_2_standard_probability_cross_check():
    records = list(iterate_grover(GroverConfig(5, {31}, max_iterations=3)))
    p3 = records[-1].target_probability
    closed_form = math.sin(7.0 * math.asin(1.0 / math.sqrt(32.0))) ** 2
    ok = abs(p3 - REFERENCE_STANDARD_P3) < 5e-3 and abs(p3 - closed_form) < 1e-9
    _verdict(
        2,
        "standard n=5 probability after 3 iterations",
        ok,
        f"simulated {p3:.9f}, closed form {closed_form:.9f}, reference {REFERENCE_STANDARD_P3}",
    )


def test_criterion_3_optimal_angle_table():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 13):
        tangent = ((1 << (n - 2)) - 1) / (1 << (n - 2))
        closed = 2.0 * math.atan(tangent)
        assert abs(closed - fixed_phase(n)) < 1e-15
        worst = max(worst, abs(optimal_phase_search(n) - closed))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    _verdict(
        3,
        "numeric angle search matches 2*atan((2^(n-2)-1)/2^(n-2)) for n=2..12",
        ok,
        f"max |search - closed form| = {worst:.2e} in {elapsed:.1f} s",
    )


def test_criterion_4_recurrence_table():
    worst_amp = 0.0
    for n in range(2, 11):
        count = n_optimal_standard(n, 1) + 1
        recurred = recurrence_table(n, count)
        simulated = simulated_amplitude_series(n, count)
        worst_amp = max(worst_amp, max(abs(r - s) for r, s in zip(recurred, simulated)))

    rows = recurrence_table(20, 7)
    reference_ratios = [3.0, 5.0 / 3.0, 7.0 / 5.0, 9.0 / 7.0, 11.0 / 9.0, 13.0 / 11.0]
    worst_ratio = max(
        abs(rows[i] / rows[i - 1] - reference_ratios[i - 1]) for i in range(1, 7)
    )
    ok = worst_amp < 1e-12 and worst_ratio < 1e-4
    _verdict(
        4,
        "recurrence matches statevector amplitudes and large-N growth ratios",
        ok,
        f"max amplitude gap {worst_amp:.2e}, max ratio gap {worst_ratio:.2e}",
    )


def test_criterion_5_modified_headline_with_combination_report():
    marked = (31,)
    combos = []
    for order in HybridOrder:
        for target in range(5):
            combos.append(Schedule(ScheduleKind.HYBRID, rotation_target=target, hybrid_order=order))
    combos.append(Schedule(ScheduleKind.FIXED))
    combos.append(Schedule(ScheduleKind.ADAPTIVE, RatioInterpretation.ADDITIVE))
    combos.append(Schedule(ScheduleKind.ADAPTIVE, RatioInterpretation.MULTIPLICATIVE))

    print("schedule combination report (n=5, marked=31, window=6):")
    hits = []
    for schedule in combos:
        peak_iter, peak_prob = find_peak_iteration(list(iterate_grover(GroverConfig(5, marked, schedule, 6))))
        deviation = abs(peak_prob - REFERENCE_HEADLINE_PROBABILITY)
        meets = peak_iter == 3 and peak_prob >= 0.99 and deviation <= 5e-3
        hits.append(meets)
        print(
            f"  {schedule.describe():40s} peak@{peak_iter} p={peak_prob:.7f} "
            f"|p-{REFERENCE_HEADLINE_PROBABILITY}|={deviation:.2e} -> "
            f"{'MEETS' if meets else 'deviates'}"
        )
    _verdict(
        5,
        "at least one schedule interpretation peaks at iteration 3 with p within "
        f"5e-3 of {REFERENCE_HEADLINE_PROBABILITY}",
        any(hits),
        f"{sum(hits)}/{len(hits)} combinations meet the target",
    )


def test_criterion_6_modified_iteration_table_reported():
    report = sweep_compare(2, 13, Schedule(ScheduleKind.HYBRID))
    print("modified-schedule iteration counts vs reference (hybrid default):")
    matches = 0
    for row, expected in zip(report.rows, REFERENCE_MODIFIED_ITERATIONS):
        flag = "match" if row.mod_iters == expected else "MISMATCH"
        matches += row.mod_iters == expected
        print(
            f"  n={row.n:2d} simulated={row.mod_iters:3d} reference={expected:3d} "
            f"[{flag}] peak_p={row.mod_peak_prob:.4f}"
        )
    print(
        f"  average improvement: recomputed {report.average_improvement_pct:.4f}% "
        f"vs reference {REFERENCE_AVG_IMPROVEMENT}%"
    )
    print(
        f"  average improvement excluding n=2: recomputed "
        f"{report.average_improvement_pct_excl_2q:.4f}% vs reference "
        f"{REFERENCE_AVG_IMPROVEMENT_EXCL_2Q}%"
    )
    ok = (
        len(report.rows) == 12
        and math.isfinite(report.average_improvement_pct)
        and math.isfinite(report.average_improvement_pct_excl_2q)
    )
    _verdict(
        6,
        "modified iteration table emitted with per-n flags and recomputed averages",
        ok,
        f"{matches}/12 rows match the reference",
    )


def _random_circuit(rng, n_qubits, n_gates):
    constructors = [
        lambda: HADAMARD,
        lambda: PAULI_X,
        lambda: PAULI_Z,
        lambda: OneQubitGate(gate_r_y(rng.uniform(-math.pi, math.pi))),
        lambda: OneQubitGate(gate_zr_y(rng.uniform(-math.pi, math.pi))),
        lambda: OneQubitGate(gate_hr_y(rng.uniform(-math.pi, math.pi))),
    ]
    ops = []
    for _ in range(n_gates):
        gate = constructors[rng.integers(len(constructors))]()
        wires = rng.permutation(n_qubits)
        span = int(rng.integers(1, min(4, n_qubits) + 1))
        ops.append((gate, frozenset(int(w) for w in wires[1:span]), int(wires[0])))
    return ops


def test_criterion_7_property_bundle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    failures = []

    # unitarity over random circuits, n <= 10
    for _ in range(20):
        n = int(rng.integers(2, 11))
        state = apply_sequence(uniform_state(n), _random_circuit(rng, n, 30))
        if abs(state.norm_squared() - 1.0) >= 1e-10:
            failures.append(f"norm drift at n={n}")

    # gate-form vs mean-form diffusion, n <= 10
    for n in range(1, 11):
        amps = random_real_amps(n, rng)
        gate_form = modified_diffusion(StateVector(n, amps), gate_zr_y(0.0)).amps
        mean_form = standard_diffusion_mean(amps)
        err = min(np.abs(gate_form - mean_form).max(), np.abs(gate_form + mean_form).max())
        if err >= 1e-10:
            failures.append(f"diffusion mismatch {err:.2e} at n={n}")

    # dense operator vs kernel, n <= 6
    for _ in range(8):
        n = int(rng.integers(1, 7))
        ops = _random_circuit(rng, n, 10) if n > 1 else [(HADAMARD, frozenset(), 0)]
        state = random_state(n, rng)
        stepped = apply_sequence(state, ops)
        dense = dense_operator_of(ops, n) @ state.amps
        if np.abs(stepped.amps - dense).max() >= 1e-10:
            failures.append(f"dense mismatch at n={n}")

    # gate identities
    hx = HADAMARD.matrix @ PAULI_X.matrix
    if np.abs(hx - gate_r_y(-math.pi / 2)).max() >= 1e-15:
        failures.append("HX != R_y(-pi/2)")
    if not np.array_equal(gate_zr_y(0.0), PAULI_Z.matrix):
        failures.append("gate_zr_y(0) != Z")

    # zero-angle schedule reduces to the standard trace
    marked = (31,)
    standard = list(iterate_grover(GroverConfig(5, marked, max_iterations=8)))
    state = uniform_state(5)
    for record in standard:
        state = apply_oracle(state, marked)
        state = modified_diffusion(state, gate_zr_y(0.0))
        delta = abs(abs(state.amps[31]) ** 2 - record.target_probability)
        if delta >= 1e-12:
            failures.append(f"zero-angle reduction drift {delta:.2e}")

    # closed-form success law vs simulation, n = 2..12
    for n in range(2, 13):
        model = SuccessModel.for_search(n)
        limit = n_optimal_standard(n, 1)
        for record in iterate_grover(GroverConfig(n, max_iterations=limit)):
            expected = success_probability_standard(record.iteration, model)
            if abs(record.target_probability - expected) >= 1e-9:
                failures.append(f"sin^2 law gap at n={n}, i={record.iteration}")
                break

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _verdict(
        7,
        "property bundle (unitarity, diffusion forms, dense kernel, identities, "
        "reduction, success law)",
        ok,
        f"{len(failures)} failures in {elapsed:.1f} s" + (f": {failures[:3]}" if failures else ""),
    )


def test_criterion_8_byte_identical_reruns():
    commands = [
        ("run", "--qubits", "5", "--schedule", "standard", "--iterations", "4"),
        ("run", "--qubits", "5", "--schedule", "hybrid-eq11-12", "--iterations", "3"),
        ("run", "--qubits", "5", "--schedule", "hybrid-eq11-12", "--iterations", "3", "--format", "json"),
        ("run", "--qubits", "2", "--schedule", "standard", "--iterations", "1"),
        ("sweep", "--qubits", "2..13", "--schedule", "standard"),
        ("sweep", "--qubits", "2..13", "--schedule", "hybrid-eq11-12", "--format", "json"),
        ("angles", "--qubits", "2..7"),
        ("recurrence", "--qubits", "5", "--iterations", "7"),
        ("recurrence", "--qubits", "20", "--iterations", "7"),
        ("curve", "--qubits", "13", "--iterations", "140", "--schedule", "standard", "--with-model"),
    ]
    stable = True
    for command in commands:
        # Each run starts with no memoized sweep crests, so a rerun
        # recomputes its crests instead of reading the first run's.
        analysis._crest.cache_clear()
        first = _cli(*command).encode()
        analysis._crest.cache_clear()
        second = _cli(*command).encode()
        if first != second:
            stable = False
            print(f"  nondeterministic output: {command}")
    _verdict(
        8,
        "every acceptance command is byte-identical across consecutive runs",
        stable,
        f"{len(commands)} commands checked twice",
    )
