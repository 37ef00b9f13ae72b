import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from groversim import (
    ComparisonRow,
    GroverConfig,
    HybridOrder,
    IterationRecord,
    NormDriftError,
    RatioInterpretation,
    Schedule,
    ScheduleKind,
    SizeLimitError,
    SuccessModel,
    find_peak_iteration,
    fixed_phase,
    iterate_grover,
    n_optimal_standard,
    optimal_phase_search,
    recurrence_table,
    success_probability_modified,
    success_probability_standard,
    sweep_compare,
)
from groversim.analysis import (
    _SCREEN_BOUND,
    SEARCH_GRID_STEP,
    SEARCH_REFINE_TOL,
    _first_iteration_closed_form,
    _first_iteration_probability,
    _golden_section_max,
    simulated_amplitude_series,
)
from groversim import analysis, grover
from groversim.grover import gate_zr_y
from conftest import SCHEDULES, clear_run_store
from oracle import modified_diffusion, phase_flip_indices, target_probability, uniform_state


def synthetic_records(probs):
    return [IterationRecord(i + 1, 0.0, p, 0.0) for i, p in enumerate(probs)]


class TestRecurrence:
    def test_first_row_is_uniform_amplitude(self):
        rows = recurrence_table(5, 3)
        assert rows[0] == pytest.approx(1.0 / math.sqrt(32.0), abs=1e-15)

    def test_second_row_closed_form(self):
        for n in range(2, 11):
            big_n = 2.0**n
            rows = recurrence_table(n, 2)
            expected = 3.0 / math.sqrt(big_n) - 4.0 / (big_n * math.sqrt(big_n))
            assert rows[1] == pytest.approx(expected, abs=1e-12)

    def test_third_row_closed_form(self):
        for n in range(4, 11):
            big_n = 2.0**n
            rows = recurrence_table(n, 3)
            expected = (
                5.0 / math.sqrt(big_n)
                - 20.0 / (big_n * math.sqrt(big_n))
                + 16.0 / (big_n**2 * math.sqrt(big_n))
            )
            assert rows[2] == pytest.approx(expected, abs=1e-12)

    def test_two_qubits_reach_certainty_in_one_step(self):
        rows = recurrence_table(2, 2)
        assert rows[1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_statevector_simulation(self):
        for n in range(2, 11):
            count = n_optimal_standard(n, 1) + 2
            recurred = recurrence_table(n, count)
            simulated = simulated_amplitude_series(n, count)
            for r, s in zip(recurred, simulated):
                assert abs(r - s) < 1e-12

    def test_ratio_asymptotics_large_n(self):
        rows = recurrence_table(20, 8)
        for i in range(1, 7):
            measured = rows[i] / rows[i - 1]
            model = float(Fraction(2 * i + 1, 2 * i - 1))
            assert abs(measured - model) < 1e-4

    def test_validation(self):
        for iterations in (0, 2.5):
            with pytest.raises(ValueError):
                recurrence_table(5, iterations)
        with pytest.raises(SizeLimitError):
            recurrence_table(0, 3)
        with pytest.raises(SizeLimitError):
            recurrence_table(53, 3)
        for n in (3.5, 3.0, np.float64(3.0)):
            with pytest.raises(ValueError, match="n_qubits must be an integer"):
                recurrence_table(n, 3)
            with pytest.raises(ValueError, match="n_qubits must be an integer"):
                simulated_amplitude_series(n, 2)
        with pytest.raises(ValueError, match="count must be an integer"):
            simulated_amplitude_series(3, 2.5)
        assert recurrence_table(np.int64(3), 2) == recurrence_table(3, 2)


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

    @pytest.mark.parametrize(
        "n, marked_count, message",
        [
            (5.5, 1, "n_qubits must be an integer"),
            (np.float64(5.0), 1, "n_qubits must be an integer"),
            (5, 1.5, "marked_count must be an integer"),
            (5, 0, r"marked count 0 must be in \[1, 2\*\*5\)"),
            (5, 32, r"marked count 32 must be in \[1, 2\*\*5\)"),
            (5, 40, r"marked count 40 must be in \[1, 2\*\*5\)"),
        ],
        ids=["n5.5", "n-float64", "count1.5", "count0", "count32", "count40"],
    )
    def test_for_search_validation(self, n, marked_count, message):
        with pytest.raises(ValueError, match=message):
            SuccessModel.for_search(n, marked_count)

    @pytest.mark.parametrize("law", [success_probability_standard, success_probability_modified])
    @pytest.mark.parametrize("iterations", [-1, 1.5, 2.5, np.float64(2.0)])
    def test_iteration_validation(self, law, iterations):
        with pytest.raises(ValueError, match="iterations must be"):
            law(iterations, SuccessModel.for_search(5))

    def test_closed_form_matches_simulation(self):
        for n in range(2, 13):
            model = SuccessModel.for_search(n)
            limit = n_optimal_standard(n, 1)
            for record in iterate_grover(GroverConfig(n, max_iterations=limit)):
                expected = success_probability_standard(record.iteration, model)
                assert abs(record.target_probability - expected) < 1e-9


class TestOptimalPhaseSearch:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_closed_form(self, n):
        assert abs(optimal_phase_search(n) - fixed_phase(n)) < 1e-6

    @pytest.mark.parametrize(
        "n, bits",
        [
            (2, "0x1.0d8e28b753698p-26"),
            (3, "0x1.dac67008ca85ep-1"),
            (4, "0x1.4978fb1ce46bep+0"),
            (5, "0x1.700a7cea066d0p+0"),
            (6, "0x1.819d0b7e0d7b6p+0"),
            (7, "0x1.89ff60a00db08p+0"),
            (8, "0x1.8e17aae19781bp+0"),
            (9, "0x1.901db4edf29a3p+0"),
            (10, "0x1.911f359fb1fd9p+0"),
            (11, "0x1.919f95bb5837ep+0"),
            (12, "0x1.91dfadb23870ap+0"),
        ],
    )
    def test_bits_of_committed_angle_table(self, n, bits):
        # The values behind results/angle_table.csv's phase_search column.
        assert optimal_phase_search(n).hex() == bits

    def test_rejects_out_of_range(self):
        # The search runs over the register's own range, minus n = 1.
        assert abs(optimal_phase_search(13) - fixed_phase(13)) < 1e-7
        with pytest.raises(ValueError):
            optimal_phase_search(1)
        with pytest.raises(SizeLimitError):
            optimal_phase_search(21)
        for n in (3.5, 3.0, np.float64(3.0)):
            with pytest.raises(ValueError, match="n_qubits must be an integer"):
                optimal_phase_search(n)


class TestFirstIterationObjective:
    """The search's exact values must equal the full simulation bit for bit:
    the committed angle table depends on every comparison the search
    makes. The closed form only screens the grid, within _SCREEN_BOUND."""

    GRID = np.arange(-math.pi, math.pi, SEARCH_GRID_STEP)

    @staticmethod
    def full_simulation(n):
        marked = {(1 << n) - 1}
        after_oracle = phase_flip_indices(uniform_state(n), marked)
        return lambda theta: target_probability(
            modified_diffusion(after_oracle, gate_zr_y(theta)), marked
        )

    @pytest.mark.parametrize("n", range(2, 13))
    def test_equals_full_simulation_on_grid_and_refinement(self, n):
        exact = _first_iteration_probability(n)
        full = self.full_simulation(n)
        thetas = self.GRID[::105].tolist()
        assert len(thetas) == 60
        assert [exact(t) for t in thetas] == [full(t) for t in thetas]

        k = int(np.abs(self.GRID - fixed_phase(n)).argmin())
        probes = []

        def both(theta):
            value = exact(theta)
            probes.append((theta, value, full(theta)))
            return value

        lo, hi = float(self.GRID[k - 1]), float(self.GRID[k + 1])
        _golden_section_max(both, lo, hi, SEARCH_REFINE_TOL)
        assert len(probes) > 30
        assert [p for p in probes if p[1] != p[2]] == []

    def test_equals_full_simulation_at_twelve_qubits(self):
        exact = _first_iteration_probability(12)
        full = self.full_simulation(12)
        thetas = [-math.pi, -1.0, 0.0, fixed_phase(12), 3.0]
        assert [exact(t) for t in thetas] == [full(t) for t in thetas]

    @pytest.mark.parametrize("n", range(2, 21))
    def test_equals_run_loop_first_iteration(self, n):
        # Three angles, in both orders: the helper reuses its buffers and
        # rewrites the opened pair, so no value may depend on the call before.
        exact = _first_iteration_probability(n)
        records = [
            next(iterate_grover(GroverConfig(n, schedule=Schedule(kind), max_iterations=1)))
            for kind in (ScheduleKind.FIXED, ScheduleKind.ADAPTIVE, ScheduleKind.STANDARD)
        ]
        for order in (records, records[::-1]):
            assert [exact(r.theta_used) for r in order] == [r.target_probability for r in order]

    @pytest.mark.parametrize("n", range(2, 21))
    def test_closed_form_within_screen_bound_on_sampled_grid(self, n):
        # A sample of the grid, and every grid point within 20 of the
        # screen's best; the search's docstring bounds the rest.
        closed = _first_iteration_closed_form(n, self.GRID)
        k = int(closed.argmax())
        assert k == int(np.abs(self.GRID - fixed_phase(n)).argmin())
        sample = np.union1d(np.arange(0, len(self.GRID), 105), np.arange(k - 20, k + 21))
        exact = _first_iteration_probability(n)
        gaps = [abs(exact(float(self.GRID[j])) - closed[j]) for j in sample]
        assert max(gaps) <= _SCREEN_BOUND / 100

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closed_form_within_screen_bound_on_full_grid(self, n):
        closed = _first_iteration_closed_form(n, self.GRID)
        exact = _first_iteration_probability(n)
        values = np.array([exact(t) for t in self.GRID.tolist()])
        assert np.abs(values - closed).max() <= _SCREEN_BOUND / 100
        # The search brackets the first maximum of the exact values.
        k = int(values.argmax())
        assert self.GRID[k - 1] <= optimal_phase_search(n) <= self.GRID[k + 1]

    @pytest.mark.parametrize("n", range(2, 21))
    def test_search_evaluates_one_candidate_and_the_refinement(self, n, monkeypatch):
        # The screen leaves one grid point per n up to 17 (two from 18 on),
        # so the search calls the kernel there and at each golden-section
        # step, and nowhere else.
        calls = []

        def counted(n_qubits):
            exact = _first_iteration_probability(n_qubits)
            return lambda theta: calls.append(theta) or exact(theta)

        monkeypatch.setattr(analysis, "_first_iteration_probability", counted)
        optimal_phase_search(n)
        screen = _first_iteration_closed_form(n, self.GRID)
        candidates = self.GRID[screen >= screen.max() - 2.0 * _SCREEN_BOUND].tolist()
        k = int(np.abs(self.GRID - fixed_phase(n)).argmin())
        lo, hi = float(self.GRID[k - 1]), float(self.GRID[k + 1])
        probes = []
        _golden_section_max(lambda t: probes.append(t) or 0.0, lo, hi, SEARCH_REFINE_TOL)
        assert len(candidates) == (1 if n <= 17 else 2)
        assert calls[0] == self.GRID[k]
        assert calls[: len(candidates)] == candidates
        assert len(calls) == len(candidates) + len(probes) < 40

    def test_probe_allocates_no_register(self):
        # The search holds three registers, all allocated with the
        # objective; a probe allocates nothing register-sized, which would
        # show at n = 16 as 256 KiB or more.
        register = 8 << 16
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            exact = _first_iteration_probability(16)
            _, setup_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            exact(fixed_phase(16))
            _, probe_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert setup_peak - start <= 3 * register + 64 * 1024
        assert probe_peak - before <= 64 * 1024


class TestFindPeak:
    def test_strictly_rising_trace_peaks_at_end(self):
        assert find_peak_iteration(synthetic_records([0.1, 0.2, 0.3, 0.4])) == (4, 0.4)

    def test_flat_trace_peaks_first(self):
        assert find_peak_iteration(synthetic_records([0.5, 0.5, 0.5])) == (1, 0.5)

    def test_first_crest_wins_over_later_revival(self):
        # oscillating success curves revive; the first crest is the answer
        assert find_peak_iteration(synthetic_records([0.3, 0.9, 0.2, 0.95])) == (2, 0.9)

    def test_standard_n5_peaks_at_four(self):
        it, p = find_peak_iteration(list(iterate_grover(GroverConfig(5, {31}, max_iterations=10))))
        assert it == 4
        assert p == pytest.approx(math.sin(9.0 * math.asin(1.0 / math.sqrt(32.0))) ** 2, abs=1e-9)

    def test_standard_n3_first_crest_inside_revival_window(self):
        # the 6-iteration window contains a higher revival at iteration 6;
        # the reported peak must still be the first crest at iteration 2
        it, _ = find_peak_iteration(list(iterate_grover(GroverConfig(3, {7}, max_iterations=6))))
        assert it == 2

    def test_peak_matches_n_optimal_for_all_sizes(self):
        for n in range(2, 14):
            it, _ = find_peak_iteration(iterate_grover(GroverConfig(n)))
            assert it == n_optimal_standard(n, 1)

    @pytest.mark.parametrize("records", [[], iter(())], ids=["list", "iterator"])
    def test_empty_trace_rejected(self, records):
        with pytest.raises(ValueError):
            find_peak_iteration(records)

    @pytest.mark.parametrize(
        "probs, crest",
        [
            ([0.1, 0.6, 0.9, 0.4, 0.95, 0.2], 3),
            ([0.5, 0.5, 0.5, 0.5], 1),
            ([0.1, 0.2, 0.3, 0.4], 4),
        ],
        ids=["middle", "flat", "rising"],
    )
    def test_pulls_at_most_one_record_past_the_crest(self, probs, crest):
        def records():
            for i, p in enumerate(probs, start=1):
                if i > crest + 1:
                    pytest.fail(f"pulled record {i}, more than one past crest {crest}")
                yield IterationRecord(i, 0.0, p, 0.0)

        assert find_peak_iteration(records()) == (crest, probs[crest - 1])


# (given, same) schedules whose 13-qubit runs are one: same differs only in
# fields given's kind ignores, or in rotation_target 12 for None.
IGNORED_FIELDS = [
    (Schedule(ScheduleKind.HYBRID), Schedule(ScheduleKind.HYBRID, RatioInterpretation.MULTIPLICATIVE)),
    (Schedule(ScheduleKind.HYBRID), Schedule(ScheduleKind.HYBRID, rotation_target=12)),
    (Schedule(ScheduleKind.ADAPTIVE), Schedule(ScheduleKind.ADAPTIVE, hybrid_order=HybridOrder.RY_THEN_H)),
    (
        Schedule(ScheduleKind.FIXED),
        Schedule(ScheduleKind.FIXED, RatioInterpretation.MULTIPLICATIVE, 12, HybridOrder.RY_THEN_H),
    ),
]


class TestSweepCompare:
    def test_standard_against_itself(self):
        report = sweep_compare(2, 2, Schedule())
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.std_iters == row.mod_iters == 1
        assert row.improvement_pct == 0.0
        assert report.average_improvement_pct == 0.0
        assert report.average_improvement_pct_excl_2q is None

    def test_one_qubit_row_counts_toward_the_mean_without_n2(self):
        report = sweep_compare(1, 2, Schedule())
        assert [r.n for r in report.rows] == [1, 2]
        assert report.average_improvement_pct_excl_2q == 0.0

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

    @pytest.mark.parametrize("bad", [None, "hybrid-eq11-12", ScheduleKind.HYBRID])
    def test_schedule_must_be_a_schedule(self, bad):
        with pytest.raises(ValueError, match="schedule must be a Schedule"):
            sweep_compare(2, 3, bad)

    def test_schedule_description_recorded(self):
        report = sweep_compare(3, 4, Schedule(ScheduleKind.HYBRID))
        assert all(r.schedule_used == "hybrid-eq11-12[h-then-ry]" for r in report.rows)

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=Schedule.describe)
    def test_rows_equal_full_window_crests(self, schedule):
        # The sweep stops each run one record past its crest; its rows must
        # equal those read off the whole 2 * n_optimal + 2 window.
        n_lo = 1 if schedule.kind is ScheduleKind.STANDARD else 2
        expected = []
        for n in range(n_lo, 11):
            std_iters, std_peak = find_peak_iteration(list(iterate_grover(GroverConfig(n))))
            mod_iters, mod_peak = find_peak_iteration(
                list(iterate_grover(GroverConfig(n, schedule=schedule)))
            )
            ratio = mod_iters / std_iters
            expected.append(
                ComparisonRow(
                    n, std_iters, mod_iters, std_iters - mod_iters, ratio,
                    100.0 * (1.0 - ratio), std_peak, mod_peak, schedule.describe(),
                )
            )
        assert sweep_compare(n_lo, 10, schedule).rows == expected

    def test_schedule_token_equals_its_member(self):
        assert sweep_compare(3, 4, Schedule(kind="hybrid-eq11-12")) == sweep_compare(3, 4, Schedule(ScheduleKind.HYBRID))

    @pytest.mark.parametrize("target", [np.int64(1), np.array(1)], ids=["int64", "0-d-array"])
    def test_numpy_rotation_target_sweeps_as_its_int(self, target):
        schedule = Schedule(ScheduleKind.HYBRID, rotation_target=target)
        assert type(schedule.rotation_target) is int
        assert sweep_compare(3, 4, schedule) == sweep_compare(3, 4, Schedule(ScheduleKind.HYBRID, rotation_target=1))

    def test_simulates_only_up_to_one_past_each_crest(self, monkeypatch):
        # iterate_grover runs one _diffuse per iteration; an empty run
        # store makes the sweep run both schedules.
        clear_run_store()
        calls = 0
        real = grover._diffuse

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(grover, "_diffuse", counted)
        row = sweep_compare(13, 13, Schedule(ScheduleKind.HYBRID)).rows[0]
        assert (row.std_iters, row.mod_iters) == (71, 50)
        assert calls == 72 + 51

    @staticmethod
    def count_diffusions(monkeypatch) -> list:
        """Count grover._diffuse calls, one per iteration of a run; returns
        the one-item list that holds the count."""
        calls = [0]
        real = grover._diffuse

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(grover, "_diffuse", counted)
        return calls

    def test_repeat_sweeps_reuse_crests(self, monkeypatch):
        calls = self.count_diffusions(monkeypatch)
        cold = sweep_compare(13, 13, Schedule(ScheduleKind.HYBRID)).rows
        assert calls[0] == 72 + 51

        calls[0] = 0
        assert sweep_compare(13, 13, Schedule(ScheduleKind.HYBRID)).rows == cold
        assert calls[0] == 0

        # Only the adaptive run is new; the standard crest is reused.
        adaptive = sweep_compare(13, 13, Schedule(ScheduleKind.ADAPTIVE)).rows[0]
        assert calls[0] == adaptive.mod_iters + 1

        # An explicit rotation target is its own config, not the default's.
        calls[0] = 0
        schedule = Schedule(ScheduleKind.HYBRID, rotation_target=0)
        row = sweep_compare(13, 13, schedule).rows[0]
        assert calls[0] == row.mod_iters + 1
        full_window = find_peak_iteration(list(iterate_grover(GroverConfig(13, schedule=schedule))))
        assert (row.mod_iters, row.mod_peak_prob) == full_window
        assert (row.mod_iters, row.mod_peak_prob) != (cold[0].mod_iters, cold[0].mod_peak_prob)

        # Both runs of a standard-schedule sweep are one config.
        clear_run_store()
        calls[0] = 0
        sweep_compare(13, 13, Schedule())
        assert calls[0] == 72

    @pytest.mark.parametrize("given, same", IGNORED_FIELDS, ids=Schedule.describe)
    def test_fields_the_run_ignores_give_one_config(self, given, same):
        config = GroverConfig(13, schedule=given)
        assert GroverConfig(13, schedule=same) == config
        assert hash(GroverConfig(13, schedule=same)) == hash(config)

    @pytest.mark.parametrize("given, same", IGNORED_FIELDS, ids=Schedule.describe)
    def test_fields_the_run_ignores_share_its_crest(self, monkeypatch, given, same):
        # A schedule's kind reads interpretation or hybrid_order only if it
        # is adaptive or hybrid, and rotation_target None is n - 1: same
        # makes the runs given makes, so its sweep simulates nothing.
        calls = self.count_diffusions(monkeypatch)
        first = sweep_compare(13, 13, given).rows
        calls[0] = 0
        warm = sweep_compare(13, 13, same).rows
        assert calls[0] == 0
        assert warm == [row._replace(schedule_used=same.describe()) for row in first]
        clear_run_store()
        assert sweep_compare(13, 13, same).rows == warm

    def test_failed_run_is_not_memoized(self, monkeypatch):
        cold = sweep_compare(3, 3, Schedule(ScheduleKind.HYBRID)).rows
        clear_run_store()
        real = grover._diffuse
        standard_gate = gate_zr_y(0.0)

        def drifting(src, views, m, target):
            # The standard run is exact; every modified run drifts at once.
            amps = real(src, views, m, target)
            if not np.array_equal(m, standard_gate):
                amps *= 1.001
            return amps

        monkeypatch.setattr(grover, "_diffuse", drifting)
        with pytest.raises(NormDriftError):
            sweep_compare(3, 3, Schedule(ScheduleKind.HYBRID))
        monkeypatch.undo()

        calls = self.count_diffusions(monkeypatch)
        assert sweep_compare(3, 3, Schedule(ScheduleKind.HYBRID)).rows == cold
        assert calls[0] == cold[0].mod_iters + 1
