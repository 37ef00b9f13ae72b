import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from groversim import (
    HADAMARD,
    PAULI_X,
    GroverConfig,
    HybridOrder,
    MarkedSet,
    NormDriftError,
    RatioInterpretation,
    Schedule,
    ScheduleKind,
    SizeLimitError,
    StateVector,
    adaptive_phase,
    apply_controlled_one_qubit_gate,
    apply_one_qubit_gate,
    apply_oracle,
    default_max_iterations,
    fixed_phase,
    gate_hr_y,
    gate_ry_h,
    gate_zr_y,
    modified_diffusion,
    n_optimal_standard,
    run_grover,
    schedule_phase,
    standard_diffusion_mean,
    uniform_superposition,
)
from groversim import grover
from conftest import random_state

MARK_ALL_ONES = lambda n: MarkedSet(frozenset({(1 << n) - 1}))
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def gate_by_gate_diffusion(state, gate, target):
    """H^n X^n C-U X^n H^n, one full-register gate pass at a time."""
    n = state.n_qubits
    for layer in (HADAMARD, PAULI_X):
        for q in range(n):
            state = apply_one_qubit_gate(state, q, layer)
    controls = frozenset(range(n)) - {target}
    state = apply_controlled_one_qubit_gate(state, controls, target, gate)
    for layer in (PAULI_X, HADAMARD):
        for q in range(n):
            state = apply_one_qubit_gate(state, q, layer)
    return state


class TestFixedPhase:
    def test_two_qubits_is_zero(self):
        assert fixed_phase(2) == 0.0

    def test_three_qubits(self):
        assert fixed_phase(3) == pytest.approx(2.0 * math.atan(0.5), abs=1e-15)

    def test_seven_qubits(self):
        assert fixed_phase(7) == pytest.approx(2.0 * math.atan(31.0 / 32.0), abs=1e-15)

    def test_strictly_increasing_toward_half_pi(self):
        values = [fixed_phase(n) for n in range(2, 21)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < math.pi / 2.0
        assert math.pi / 2.0 - values[-1] < 1e-4

    def test_rejects_small_registers(self):
        with pytest.raises(ValueError):
            fixed_phase(1)


class TestAdaptivePhase:
    def test_additive_literal_value(self):
        # base angle 0 for n = 2, growth term 1 + 1/3
        assert adaptive_phase(2, 1) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_multiplicative_value(self):
        expected = fixed_phase(5) * (4.0 / 3.0)
        got = adaptive_phase(5, 1, RatioInterpretation.MULTIPLICATIVE)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_additive_limit(self):
        assert adaptive_phase(5, 10**7) == pytest.approx(fixed_phase(5) + 2.0, abs=1e-6)

    def test_multiplicative_limit(self):
        got = adaptive_phase(5, 10**7, RatioInterpretation.MULTIPLICATIVE)
        assert got == pytest.approx(2.0 * fixed_phase(5), abs=1e-6)

    def test_monotone_in_iteration(self):
        values = [adaptive_phase(6, i) for i in range(1, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_bad_iteration(self):
        with pytest.raises(ValueError):
            adaptive_phase(5, 0)


def test_schedule_phase_dispatch():
    assert schedule_phase(Schedule(), 5, 3) == 0.0
    assert schedule_phase(Schedule(ScheduleKind.FIXED), 5, 3) == fixed_phase(5)
    assert schedule_phase(Schedule(ScheduleKind.HYBRID), 5, 2) == fixed_phase(5)
    adaptive = Schedule(ScheduleKind.ADAPTIVE, RatioInterpretation.MULTIPLICATIVE)
    assert schedule_phase(adaptive, 5, 2) == adaptive_phase(
        5, 2, RatioInterpretation.MULTIPLICATIVE
    )


class TestOracle:
    def test_uniform_n2(self):
        state = apply_oracle(uniform_superposition(2), MarkedSet(frozenset({3})))
        assert np.allclose(state.amps, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_involution_exact(self):
        state = random_state(4, np.random.default_rng(5))
        marked = MarkedSet(frozenset({0, 3, 9}))
        twice = apply_oracle(apply_oracle(state, marked), marked)
        assert np.array_equal(twice.amps, state.amps)

    def test_marked_complement_gives_same_probabilities(self):
        state = uniform_superposition(3)
        most = apply_oracle(state, MarkedSet(frozenset(range(7))))
        one = apply_oracle(state, MarkedSet(frozenset({7})))
        assert np.allclose(most.probabilities(), one.probabilities(), atol=1e-15)


class TestDiffusion:
    def test_mean_form_fixes_uniform(self):
        state = uniform_superposition(3)
        out = standard_diffusion_mean(state)
        assert np.allclose(out.amps, state.amps, atol=1e-15)

    def test_mean_form_concentrates_n2(self):
        state = apply_oracle(uniform_superposition(2), MarkedSet(frozenset({3})))
        out = standard_diffusion_mean(state)
        assert np.allclose(out.amps, [0, 0, 0, 1], atol=1e-15)

    def test_mean_form_involution(self):
        state = random_state(5, np.random.default_rng(8))
        twice = standard_diffusion_mean(standard_diffusion_mean(state))
        assert np.allclose(twice.amps, state.amps, atol=1e-13)

    def test_gate_form_concentrates_n2_up_to_sign(self):
        state = apply_oracle(uniform_superposition(2), MarkedSet(frozenset({3})))
        out = modified_diffusion(state, 0.0)
        err = min(
            np.abs(out.amps - np.array([0, 0, 0, 1])).max(),
            np.abs(out.amps + np.array([0, 0, 0, 1])).max(),
        )
        assert err < 1e-10

    def test_gate_form_fixes_uniform_up_to_sign(self):
        state = uniform_superposition(3)
        out = modified_diffusion(state, 0.0)
        err = min(np.abs(out.amps - state.amps).max(), np.abs(out.amps + state.amps).max())
        assert err < 1e-10

    def test_gate_form_matches_mean_form(self):
        state = random_state(5, np.random.default_rng(21))
        gate = modified_diffusion(state, 0.0).amps
        mean = standard_diffusion_mean(state).amps
        assert min(np.abs(gate - mean).max(), np.abs(gate + mean).max()) < 1e-10

    @pytest.mark.parametrize("inner_gate", [gate_zr_y, gate_ry_h, gate_hr_y])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_pair_update_equals_gate_by_gate_circuit_bitwise(self, inner_gate, n):
        rng = np.random.default_rng(100 + n)
        for target in range(n):
            for theta in (0.0, fixed_phase(max(n, 2)), float(rng.uniform(-math.pi, math.pi))):
                state = random_state(n, rng)
                before = state.amps.copy()
                out = modified_diffusion(state, theta, inner_gate, target)
                expected = gate_by_gate_diffusion(state, inner_gate(theta), target)
                assert np.array_equal(out.amps.view(np.float64), expected.amps.view(np.float64))
                assert np.array_equal(state.amps.view(np.float64), before.view(np.float64))

    def test_modified_n2_zero_angle_reaches_certainty(self):
        state = apply_oracle(uniform_superposition(2), MarkedSet(frozenset({3})))
        out = modified_diffusion(state, 0.0)
        assert abs(out.amps[3]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_modified_preserves_norm(self):
        state = random_state(5, np.random.default_rng(34))
        for theta in np.random.default_rng(35).uniform(-math.pi, math.pi, 10):
            out = modified_diffusion(state, float(theta))
            assert abs(out.norm_squared() - 1.0) < 1e-12

    def test_modified_rejects_bad_target(self):
        with pytest.raises(ValueError):
            modified_diffusion(uniform_superposition(3), 0.5, rotation_target=3)


class TestNOptimal:
    def test_reference_row(self):
        reference = [1, 2, 3, 4, 6, 8, 12, 17, 25, 35, 50, 71]
        assert [n_optimal_standard(n, 1) for n in range(2, 14)] == reference

    def test_examples(self):
        assert n_optimal_standard(5, 1) == 4
        assert n_optimal_standard(13, 1) == 71
        assert n_optimal_standard(2, 1) == 1

    def test_rejects_bad_marked_counts(self):
        with pytest.raises(ValueError):
            n_optimal_standard(3, 8)
        with pytest.raises(ValueError):
            n_optimal_standard(3, 0)


class TestRunGrover:
    def test_n2_standard_one_iteration_is_certain(self):
        trace = run_grover(GroverConfig(2, MARK_ALL_ONES(2), max_iterations=1))
        assert trace.records[-1].target_probability == pytest.approx(1.0, abs=1e-12)
        assert trace.initial_probability == pytest.approx(0.25, abs=1e-15)

    def test_n5_standard_matches_closed_form(self):
        theta0 = math.asin(1.0 / math.sqrt(32.0))
        trace = run_grover(GroverConfig(5, MARK_ALL_ONES(5), max_iterations=4))
        p3 = trace.records[2].target_probability
        p4 = trace.records[3].target_probability
        assert p3 == pytest.approx(math.sin(7.0 * theta0) ** 2, abs=1e-9)
        assert p4 == pytest.approx(math.sin(9.0 * theta0) ** 2, abs=1e-9)

    def test_n5_hybrid_headline(self):
        config = GroverConfig(5, MARK_ALL_ONES(5), Schedule(ScheduleKind.HYBRID), 3)
        trace = run_grover(config)
        p3 = trace.records[-1].target_probability
        assert p3 >= 0.99
        assert p3 == pytest.approx(0.997461, abs=5e-3)

    def test_hybrid_order_knob_changes_result(self):
        literal = Schedule(ScheduleKind.HYBRID, hybrid_order=HybridOrder.RY_THEN_H)
        trace = run_grover(GroverConfig(5, MARK_ALL_ONES(5), literal, 3))
        assert trace.records[-1].target_probability < 0.9

    def test_fixed_schedule_with_zero_angle_reduces_to_standard(self):
        # n = 2 is the only size whose fixed angle is zero, so the reduction
        # must be exact there through the public run loop.
        standard = run_grover(GroverConfig(2, MARK_ALL_ONES(2), max_iterations=4))
        fixed = run_grover(
            GroverConfig(2, MARK_ALL_ONES(2), Schedule(ScheduleKind.FIXED), 4)
        )
        for s, f in zip(standard.records, fixed.records):
            assert abs(s.target_probability - f.target_probability) < 1e-12

    def test_forced_zero_angle_reduces_to_standard_any_n(self):
        marked = MARK_ALL_ONES(5)
        standard = run_grover(GroverConfig(5, marked, max_iterations=8))
        state = uniform_superposition(5)
        for record in standard.records:
            state = apply_oracle(state, marked)
            state = modified_diffusion(state, 0.0, gate_zr_y)
            p = abs(state.amps[31]) ** 2
            assert abs(p - record.target_probability) < 1e-12

    def test_default_iteration_window(self):
        config = GroverConfig(6, MARK_ALL_ONES(6))
        assert config.max_iterations == default_max_iterations(6, 1) == 2 * 6 + 2

    def test_trace_shape_and_bookkeeping(self):
        config = GroverConfig(4, MARK_ALL_ONES(4), Schedule(ScheduleKind.FIXED), 5)
        trace = run_grover(config)
        assert len(trace.records) == 5
        assert [r.iteration for r in trace.records] == [1, 2, 3, 4, 5]
        for r in trace.records:
            assert r.theta_used == fixed_phase(4)
            assert 0.0 <= r.target_probability <= 1.0 + 1e-12

    def test_adaptive_schedule_theta_progression(self):
        schedule = Schedule(ScheduleKind.ADAPTIVE, RatioInterpretation.ADDITIVE)
        trace = run_grover(GroverConfig(4, MARK_ALL_ONES(4), schedule, 3))
        expected = [adaptive_phase(4, i) for i in (1, 2, 3)]
        assert [r.theta_used for r in trace.records] == expected

    def test_multi_marked_standard_works(self):
        trace = run_grover(GroverConfig(4, MarkedSet(frozenset({3, 5})), max_iterations=2))
        assert trace.notes == ()
        assert trace.initial_probability == pytest.approx(2.0 / 16.0, abs=1e-15)

    def test_multi_marked_modified_is_flagged(self):
        config = GroverConfig(
            4, MarkedSet(frozenset({3, 5})), Schedule(ScheduleKind.FIXED), 2
        )
        trace = run_grover(config)
        assert trace.notes and "single marked state" in trace.notes[0]


class TestNormDrift:
    @staticmethod
    def scaled_diffusion(factor):
        def diffusion(state, *args):
            return StateVector(state.n_qubits, state.amps * factor)

        return diffusion

    def test_drift_raises(self, monkeypatch):
        monkeypatch.setattr(grover, "modified_diffusion", self.scaled_diffusion(1.001))
        with pytest.raises(NormDriftError, match="norm drifted"):
            run_grover(GroverConfig(4, MARK_ALL_ONES(4), max_iterations=3))

    def test_drift_inside_tolerance_passes(self, monkeypatch):
        factor = math.sqrt(1.0 + 5e-11)
        monkeypatch.setattr(grover, "modified_diffusion", self.scaled_diffusion(factor))
        trace = run_grover(GroverConfig(4, MARK_ALL_ONES(4), max_iterations=1))
        assert len(trace.records) == 1

    def test_drift_raises_under_optimize_flag(self):
        script = textwrap.dedent(
            """
            from groversim import GroverConfig, MarkedSet, NormDriftError, StateVector, grover, run_grover
            if __debug__:
                raise SystemExit(2)  # not running under -O
            grover.modified_diffusion = lambda s, *a: StateVector(s.n_qubits, 2 * s.amps)
            try:
                run_grover(GroverConfig(3, MarkedSet(frozenset({7})), max_iterations=1))
            except NormDriftError:
                raise SystemExit(0)
            raise SystemExit(1)
            """
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


class TestConfigValidation:
    def test_marked_out_of_range(self):
        with pytest.raises(ValueError):
            GroverConfig(3, MarkedSet(frozenset({8})))

    def test_marked_cannot_cover_everything(self):
        with pytest.raises(ValueError):
            GroverConfig(1, MarkedSet(frozenset({0, 1})))

    def test_empty_marked_set(self):
        with pytest.raises(ValueError):
            MarkedSet(frozenset())

    def test_rotation_target_out_of_range(self):
        with pytest.raises(ValueError):
            GroverConfig(3, MARK_ALL_ONES(3), Schedule(rotation_target=3))

    def test_modified_needs_two_qubits(self):
        with pytest.raises(ValueError):
            GroverConfig(1, MarkedSet(frozenset({1})), Schedule(ScheduleKind.FIXED))

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            GroverConfig(21, MarkedSet(frozenset({0})))

    def test_bad_max_iterations(self):
        with pytest.raises(ValueError):
            GroverConfig(3, MARK_ALL_ONES(3), max_iterations=0)
