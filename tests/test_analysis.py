import math
from fractions import Fraction

import numpy as np
import pytest

from groversim import (
    GroverConfig,
    IterationRecord,
    MarkedSet,
    RunTrace,
    Schedule,
    ScheduleKind,
    SizeLimitError,
    SuccessModel,
    amplitude_ratio,
    find_peak_iteration,
    fixed_phase,
    n_optimal_standard,
    optimal_phase_search,
    recurrence_table,
    run_grover,
    simulated_amplitude_series,
    success_probability_modified,
    success_probability_standard,
    sweep_compare,
    theoretical_complexity,
)
from groversim.analysis import (
    SEARCH_GRID_STEP,
    SEARCH_REFINE_TOL,
    _first_iteration_objective,
    _golden_section_max,
)
from groversim.grover import gate_zr_y, modified_diffusion
from groversim.statevector import (
    phase_flip_indices,
    target_probability,
    uniform_superposition,
)


def synthetic_trace(probs):
    config = GroverConfig(
        2, MarkedSet(frozenset({3})), max_iterations=max(len(probs), 1)
    )
    records = [
        IterationRecord(i + 1, 0.0, p, 0.0) for i, p in enumerate(probs)
    ]
    return RunTrace(config, records, 0.25)


class TestRecurrence:
    def test_first_row_is_uniform_amplitude(self):
        rows = recurrence_table(5, 3)
        assert rows[0].a == pytest.approx(1.0 / math.sqrt(32.0), abs=1e-15)
        assert rows[0].b == rows[0].a

    def test_second_row_closed_form(self):
        for n in range(2, 11):
            big_n = 2.0**n
            rows = recurrence_table(n, 2)
            expected = 3.0 / math.sqrt(big_n) - 4.0 / (big_n * math.sqrt(big_n))
            assert rows[1].a == pytest.approx(expected, abs=1e-12)

    def test_third_row_closed_form(self):
        for n in range(4, 11):
            big_n = 2.0**n
            rows = recurrence_table(n, 3)
            expected = (
                5.0 / math.sqrt(big_n)
                - 20.0 / (big_n * math.sqrt(big_n))
                + 16.0 / (big_n**2 * math.sqrt(big_n))
            )
            assert rows[2].a == pytest.approx(expected, abs=1e-12)

    def test_two_qubits_reach_certainty_in_one_step(self):
        rows = recurrence_table(2, 2)
        assert rows[1].a == pytest.approx(1.0, abs=1e-12)

    def test_normalization_invariant(self):
        for n in range(2, 11):
            big_n = 2.0**n
            limit = 2 * n_optimal_standard(n, 1) + 2
            for row in recurrence_table(n, limit):
                total = row.a**2 + (big_n - 1.0) * row.b**2
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_statevector_simulation(self):
        for n in range(2, 11):
            count = n_optimal_standard(n, 1) + 2
            recurred = [row.a for row in recurrence_table(n, count)]
            simulated = simulated_amplitude_series(n, count)
            for r, s in zip(recurred, simulated):
                assert abs(r - s) < 1e-12

    def test_ratio_asymptotics_large_n(self):
        rows = recurrence_table(20, 8)
        for i in range(1, 7):
            measured = rows[i].a / rows[i - 1].a
            model = float(amplitude_ratio(i))
            assert abs(measured - model) < 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            recurrence_table(5, 0)
        with pytest.raises(SizeLimitError):
            recurrence_table(0, 3)
        with pytest.raises(SizeLimitError):
            recurrence_table(53, 3)


class TestAmplitudeRatio:
    def test_values(self):
        assert amplitude_ratio(1) == Fraction(3, 1)
        assert amplitude_ratio(2) == Fraction(5, 3)
        assert amplitude_ratio(6) == Fraction(13, 11)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            amplitude_ratio(0)


class TestSuccessModels:
    def test_standard_n5_three_iterations(self):
        model = SuccessModel.for_search(5)
        p = success_probability_standard(3, model)
        assert p == pytest.approx(math.sin(7.0 * math.asin(1.0 / math.sqrt(32.0))) ** 2, abs=1e-15)
        # reported simulation value for the same setup
        assert p == pytest.approx(0.896936, abs=5e-3)

    def test_zero_iterations_gives_initial_probability(self):
        model = SuccessModel.for_search(6)
        assert success_probability_standard(0, model) == pytest.approx(1.0 / 64.0, abs=1e-15)
        assert success_probability_modified(0, SuccessModel.for_search(6, delta_theta=0.0)) == (
            pytest.approx(1.0 / 64.0, abs=1e-15)
        )

    def test_n2_single_iteration_is_certain(self):
        model = SuccessModel.for_search(2)
        assert success_probability_standard(1, model) == pytest.approx(1.0, abs=1e-12)

    def test_modified_with_zero_delta_reduces(self):
        model = SuccessModel.for_search(7, delta_theta=0.0)
        for i in range(6):
            assert success_probability_modified(i, model) == success_probability_standard(i, model)

    def test_peak_compression_n13(self):
        model = SuccessModel.for_search(13)
        std_peak = max(range(1, 141), key=lambda i: success_probability_standard(i, model))
        mod_peak = max(range(1, 141), key=lambda i: success_probability_modified(i, model))
        assert std_peak == 71
        assert mod_peak == 50

    def test_theta0_validation(self):
        with pytest.raises(ValueError):
            SuccessModel(0.0)
        with pytest.raises(ValueError):
            SuccessModel(math.pi)

    def test_closed_form_matches_simulation(self):
        for n in range(2, 13):
            model = SuccessModel.for_search(n)
            marked = MarkedSet(frozenset({(1 << n) - 1}))
            limit = n_optimal_standard(n, 1)
            trace = run_grover(GroverConfig(n, marked, max_iterations=limit))
            for record in trace.records:
                expected = success_probability_standard(record.iteration, model)
                assert abs(record.target_probability - expected) < 1e-9


class TestOptimalPhaseSearch:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_closed_form(self, n):
        assert abs(optimal_phase_search(n) - fixed_phase(n)) < 1e-6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            optimal_phase_search(1)
        with pytest.raises(ValueError):
            optimal_phase_search(13)


class TestFirstIterationObjective:
    """The search objective must equal the full simulation bit for bit: the
    committed angle table depends on every comparison the search makes."""

    @staticmethod
    def full_simulation(n):
        marked = {(1 << n) - 1}
        after_oracle = phase_flip_indices(uniform_superposition(n), marked)
        return lambda theta: target_probability(
            modified_diffusion(after_oracle, theta, gate_zr_y), marked
        )

    @pytest.mark.parametrize("n", range(2, 10))
    def test_equals_full_simulation_on_grid_and_refinement(self, n):
        objective = _first_iteration_objective(n)
        full = self.full_simulation(n)
        grid = np.arange(-math.pi, math.pi, SEARCH_GRID_STEP)
        thetas = grid[::105]
        assert len(thetas) == 60
        assert objective(thetas).tolist() == [full(t) for t in thetas]

        k = int(np.abs(grid - fixed_phase(n)).argmin())
        probes = []

        def both(theta):
            value = float(objective(np.array([theta]))[0])
            probes.append((theta, value, full(theta)))
            return value

        _golden_section_max(both, float(grid[k - 1]), float(grid[k + 1]), SEARCH_REFINE_TOL)
        assert len(probes) > 30
        assert [p for p in probes if p[1] != p[2]] == []

    def test_equals_full_simulation_at_twelve_qubits(self):
        objective = _first_iteration_objective(12)
        full = self.full_simulation(12)
        thetas = np.array([-math.pi, -1.0, 0.0, fixed_phase(12), 3.0])
        assert objective(thetas).tolist() == [full(t) for t in thetas]


class TestFindPeak:
    def test_strictly_rising_trace_peaks_at_end(self):
        trace = synthetic_trace([0.1, 0.2, 0.3, 0.4])
        assert find_peak_iteration(trace) == (4, 0.4)

    def test_flat_trace_peaks_first(self):
        trace = synthetic_trace([0.5, 0.5, 0.5])
        assert find_peak_iteration(trace) == (1, 0.5)

    def test_first_crest_wins_over_later_revival(self):
        # oscillating success curves revive; the first crest is the answer
        trace = synthetic_trace([0.3, 0.9, 0.2, 0.95])
        assert find_peak_iteration(trace) == (2, 0.9)

    def test_standard_n5_peaks_at_four(self):
        marked = MarkedSet(frozenset({31}))
        trace = run_grover(GroverConfig(5, marked, max_iterations=10))
        it, p = find_peak_iteration(trace)
        assert it == 4
        assert p == pytest.approx(math.sin(9.0 * math.asin(1.0 / math.sqrt(32.0))) ** 2, abs=1e-9)

    def test_standard_n3_first_crest_inside_revival_window(self):
        # the 6-iteration window contains a higher revival at iteration 6;
        # the reported peak must still be the first crest at iteration 2
        marked = MarkedSet(frozenset({7}))
        trace = run_grover(GroverConfig(3, marked, max_iterations=6))
        it, _ = find_peak_iteration(trace)
        assert it == 2

    def test_peak_matches_n_optimal_for_all_sizes(self):
        for n in range(2, 14):
            marked = MarkedSet(frozenset({(1 << n) - 1}))
            trace = run_grover(GroverConfig(n, marked))
            it, _ = find_peak_iteration(trace)
            assert it == n_optimal_standard(n, 1)

    def test_empty_trace_rejected(self):
        config = GroverConfig(2, MarkedSet(frozenset({3})), max_iterations=1)
        with pytest.raises(ValueError):
            find_peak_iteration(RunTrace(config, [], 0.25))


class TestSweepCompare:
    def test_standard_against_itself(self):
        report = sweep_compare(2, 2, Schedule())
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.std_iters == row.mod_iters == 1
        assert row.improvement_pct == 0.0
        assert report.average_improvement_pct == 0.0
        assert report.average_improvement_pct_excl_2q is None

    def test_hybrid_n3(self):
        report = sweep_compare(3, 3, Schedule(ScheduleKind.HYBRID))
        row = report.rows[0]
        assert (row.std_iters, row.mod_iters) == (2, 1)
        assert row.improvement_pct == pytest.approx(50.0, abs=1e-12)

    def test_hybrid_n12_ratio(self):
        report = sweep_compare(12, 12, Schedule(ScheduleKind.HYBRID))
        row = report.rows[0]
        assert (row.std_iters, row.mod_iters) == (50, 35)
        assert row.ratio == pytest.approx(0.70, abs=1e-12)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            sweep_compare(5, 4, Schedule())

    def test_schedule_description_recorded(self):
        report = sweep_compare(3, 4, Schedule(ScheduleKind.HYBRID))
        assert all(r.schedule_used == "hybrid-eq11-12[h-then-ry]" for r in report.rows)


class TestTheoreticalComplexity:
    def test_standard_n13(self):
        expected = math.pi / 4.0 * math.sqrt(8192.0) - 0.5
        assert theoretical_complexity(13, 1) == pytest.approx(expected, abs=1e-12)
        assert theoretical_complexity(13, 1) == pytest.approx(70.6, abs=0.1)

    def test_modified_ratio(self):
        for n in range(2, 14):
            ratio = theoretical_complexity(n, 1, modified=True) / theoretical_complexity(n, 1)
            assert ratio == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_quarter_marked(self):
        expected = math.pi / 4.0 * 2.0 - 0.5
        assert theoretical_complexity(4, 4) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_marked_count(self):
        with pytest.raises(ValueError):
            theoretical_complexity(4, 0)
