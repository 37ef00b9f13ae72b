import concurrent.futures
import copy
import dataclasses
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import textwrap
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from groversim import (
    GroverConfig,
    HybridOrder,
    NormDriftError,
    RatioInterpretation,
    Schedule,
    ScheduleKind,
    SizeLimitError,
    adaptive_phase,
    fixed_phase,
    gate_hr_y,
    gate_ry_h,
    gate_zr_y,
    iterate_grover,
    n_optimal_standard,
)
from groversim import grover
from groversim.analysis import standard_diffusion_mean
from groversim.statevector import uniform_superposition
from conftest import SCHEDULES, clear_run_store, diffuse, hadamard, random_real_amps, random_state
from oracle import (
    HADAMARD,
    StateVector,
    apply_oracle,
    apply_sequence,
    assert_real_part_bytes,
    layer,
    modified_diffusion,
    oracle_records,
    uniform_state,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def record_bytes(records):
    """Each record's fields, floats as float.hex, which tells -0.0 from 0.0."""
    return [
        (r.iteration, r.theta_used.hex(), r.target_probability.hex(), r.mean_amplitude.hex())
        for r in records
    ]


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

    @pytest.mark.parametrize("n", [1, 3.0])
    def test_rejects_small_registers(self, n):
        with pytest.raises(ValueError):
            fixed_phase(n)


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

    @pytest.mark.parametrize("n, iteration", [(5, 0), (3, 1.5)])
    def test_rejects_bad_iteration(self, n, iteration):
        with pytest.raises(ValueError):
            adaptive_phase(n, iteration)

    @pytest.mark.parametrize("member", list(RatioInterpretation))
    def test_interpretation_token_is_its_member(self, member):
        assert adaptive_phase(6, 2, member.value) == adaptive_phase(6, 2, member)

    @pytest.mark.parametrize("bad", ["nonsense", None, ScheduleKind.ADAPTIVE])
    def test_rejects_bad_interpretation(self, bad):
        with pytest.raises(ValueError):
            adaptive_phase(6, 2, bad)


@pytest.mark.parametrize(
    "schedule, iteration, theta, constructor",
    [
        (Schedule(), 3, 0.0, gate_zr_y),
        (Schedule(ScheduleKind.FIXED), 3, fixed_phase(5), gate_zr_y),
        (Schedule(ScheduleKind.HYBRID), 1, fixed_phase(5), gate_zr_y),
        (Schedule(ScheduleKind.HYBRID), 2, fixed_phase(5), gate_ry_h),
        (
            Schedule(ScheduleKind.HYBRID, hybrid_order=HybridOrder.RY_THEN_H),
            2,
            fixed_phase(5),
            gate_hr_y,
        ),
        (Schedule(ScheduleKind.ADAPTIVE), 2, adaptive_phase(5, 2), gate_zr_y),
        (
            Schedule(ScheduleKind.ADAPTIVE, RatioInterpretation.MULTIPLICATIVE),
            2,
            adaptive_phase(5, 2, RatioInterpretation.MULTIPLICATIVE),
            gate_zr_y,
        ),
    ],
)
def test_schedule_step(schedule, iteration, theta, constructor):
    got_theta, gate = schedule.step(5, iteration)
    assert got_theta == theta
    assert gate.tobytes() == constructor(theta).tobytes()


# Each member of Schedule's three enums, with the kind under which its field
# changes the run.
SCHEDULE_MEMBERS = [
    *[("kind", member, None) for member in ScheduleKind],
    *[("interpretation", member, ScheduleKind.ADAPTIVE) for member in RatioInterpretation],
    *[("hybrid_order", member, ScheduleKind.HYBRID) for member in HybridOrder],
]


class TestScheduleTokens:
    @pytest.mark.parametrize("field, member, kind", SCHEDULE_MEMBERS, ids=[m.value for _, m, _ in SCHEDULE_MEMBERS])
    def test_token_runs_as_its_member(self, field, member, kind):
        token = Schedule(**{"kind": kind, field: member.value})
        literal = Schedule(**{"kind": kind, field: member})
        assert getattr(token, field) is member
        assert token == literal
        assert record_bytes(iterate_grover(GroverConfig(5, schedule=token))) == record_bytes(
            iterate_grover(GroverConfig(5, schedule=literal))
        )

    @pytest.mark.parametrize("field, member, kind", SCHEDULE_MEMBERS, ids=[m.value for _, m, _ in SCHEDULE_MEMBERS])
    @pytest.mark.parametrize("target", [None, 2, np.int64(2)])
    def test_token_hashes_as_its_member(self, field, member, kind, target):
        # The run store keys on the schedule: equal schedules must hash
        # alike however they were built, and a copy must hash as it does.
        token = Schedule(**{"kind": kind and kind.value, field: member.value}, rotation_target=target)
        literal = Schedule(**{"kind": kind, field: member}, rotation_target=target)
        fields = (literal.kind, literal.interpretation, literal.rotation_target, literal.hybrid_order)
        assert token == literal and hash(token) == hash(literal) == hash(fields)
        for copied in (pickle.loads(pickle.dumps(token)), copy.deepcopy(token), dataclasses.replace(token)):
            assert copied == literal and hash(copied) == hash(literal)
        assert len({token: 1, literal: 2}) == 1

    @pytest.mark.parametrize("field", ["kind", "interpretation", "hybrid_order"])
    @pytest.mark.parametrize("bad", ["nonsense", "STANDARD", "", None, 1])
    def test_bad_token_is_rejected(self, field, bad):
        with pytest.raises(ValueError):
            Schedule(**{field: bad})

    @pytest.mark.parametrize(
        "field, member",
        [("kind", HybridOrder.H_THEN_RY), ("interpretation", ScheduleKind.ADAPTIVE), ("hybrid_order", ScheduleKind.HYBRID)],
    )
    def test_another_enums_member_is_rejected(self, field, member):
        with pytest.raises(ValueError):
            Schedule(**{field: member})


class TestOracle:
    def test_uniform_n2(self):
        state = apply_oracle(uniform_state(2), {3})
        assert np.allclose(state.amps, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_involution_exact(self):
        state = random_state(4, np.random.default_rng(5))
        marked = {0, 3, 9}
        twice = apply_oracle(apply_oracle(state, marked), marked)
        assert np.array_equal(twice.amps, state.amps)

    def test_marked_complement_gives_same_probabilities(self):
        state = uniform_state(3)
        most = apply_oracle(state, range(7))
        one = apply_oracle(state, {7})
        assert np.allclose(np.abs(most.amps) ** 2, np.abs(one.amps) ** 2, atol=1e-15)


def after_oracle(n):
    """The float64 uniform register with the all-ones index flipped."""
    amps = uniform_superposition(n)
    amps[-1] *= -1.0
    return amps


class TestDiffusion:
    def test_mean_form_fixes_uniform(self):
        amps = uniform_superposition(3)
        assert np.allclose(standard_diffusion_mean(amps), amps, atol=1e-15)

    def test_mean_form_concentrates_n2(self):
        out = standard_diffusion_mean(after_oracle(2))
        assert np.allclose(out, [0, 0, 0, 1], atol=1e-15)

    def test_mean_form_involution(self):
        amps = random_real_amps(5, np.random.default_rng(8))
        twice = standard_diffusion_mean(standard_diffusion_mean(amps))
        assert np.allclose(twice, amps, atol=1e-13)

    def test_gate_form_concentrates_n2_up_to_sign(self):
        out = diffuse(after_oracle(2), gate_zr_y(0.0))
        err = min(
            np.abs(out - np.array([0, 0, 0, 1])).max(),
            np.abs(out + np.array([0, 0, 0, 1])).max(),
        )
        assert err < 1e-10

    def test_gate_form_fixes_uniform_up_to_sign(self):
        amps = uniform_superposition(3)
        out = diffuse(amps, gate_zr_y(0.0))
        err = min(np.abs(out - amps).max(), np.abs(out + amps).max())
        assert err < 1e-10

    def test_gate_form_matches_mean_form(self):
        amps = random_real_amps(5, np.random.default_rng(21))
        gate = diffuse(amps, gate_zr_y(0.0))
        mean = standard_diffusion_mean(amps)
        assert min(np.abs(gate - mean).max(), np.abs(gate + mean).max()) < 1e-10

    @pytest.mark.parametrize("inner_gate", [gate_zr_y, gate_ry_h, gate_hr_y])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_pair_update_equals_gate_by_gate_circuit_bitwise(self, inner_gate, n):
        # Odd and even n: each H^n ends in the buffer the parity of n picks.
        # The run loop's form, with the register as spare, must agree too.
        rng = np.random.default_rng(100 + n)
        for target in range(n):
            for theta in (0.0, fixed_phase(max(n, 2)), float(rng.uniform(-math.pi, math.pi))):
                amps = random_real_amps(n, rng)
                before = amps.copy()
                gate = inner_gate(theta)
                expected = modified_diffusion(StateVector(n, amps), gate, target).amps.real
                assert diffuse(amps, gate, target).tobytes() == expected.tobytes()
                assert amps.tobytes() == before.tobytes()
                in_place = grover._diffuse(amps, grover._diffusion_views(amps, np.empty_like(amps)), gate, target)
                assert in_place.tobytes() == expected.tobytes()

    def test_modified_n2_zero_angle_reaches_certainty(self):
        out = diffuse(after_oracle(2), gate_zr_y(0.0))
        assert abs(out[3]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_modified_preserves_norm(self):
        amps = random_real_amps(5, np.random.default_rng(34))
        for theta in np.random.default_rng(35).uniform(-math.pi, math.pi, 10):
            out = diffuse(amps, gate_zr_y(float(theta)))
            assert abs(np.vdot(out, out) - 1.0) < 1e-12

    @pytest.mark.parametrize("in_place", [False, True], ids=["out-of-place", "in-place"])
    def test_kernel_allocates_no_register(self, in_place):
        # Given its buffers, the diffusion allocates nothing register-sized;
        # a temporary would show in large-register peak RSS.
        amps = random_real_amps(16, np.random.default_rng(36))
        register = amps if in_place else np.empty_like(amps)
        views = grover._diffusion_views(register, np.empty_like(amps))
        gate = gate_zr_y(0.3)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            grover._diffuse(amps, views, gate, 15)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 64 * 1024

    @pytest.mark.parametrize("schedule", [Schedule(), Schedule(ScheduleKind.HYBRID)], ids=Schedule.describe)
    @pytest.mark.parametrize("n", [16, 17])
    def test_run_peak_memory_is_two_registers(self, schedule, n):
        # A whole run holds its register and one scratch buffer: the oracle
        # flips in place, each diffusion reuses both buffers, and each
        # readout copies the bit-reversed register into natural order in
        # the scratch buffer, through a transposed view.
        config = GroverConfig(n, None, schedule, 4)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            records = list(iterate_grover(config))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 4
        register = 8 << n  # float64 amplitudes
        assert peak - start <= 2 * register + 64 * 1024

    @pytest.mark.parametrize("n", [14, 17, 18])
    def test_large_run_builds_no_index_array(self, monkeypatch, n):
        # Past the run store's bound no run calls _bit_reversal, so its
        # cache holds no index array larger than 64 KiB.
        calls = spy_bit_reversal(monkeypatch)
        config = GroverConfig(n, {1, (1 << n) - 2}, Schedule(ScheduleKind.HYBRID), 2)
        assert len(list(iterate_grover(config))) == 2
        assert calls == []

    @pytest.mark.parametrize("schedule", [Schedule(), Schedule(ScheduleKind.HYBRID)], ids=Schedule.describe)
    def test_bit_reversed_run_peak_memory_is_two_registers(self, schedule):
        # At n = 13 the run is bit-reversed and each readout gathers the
        # register into natural order in the scratch buffer, through the
        # index array cached per n: no third register, not even a copy of
        # that array (take copies a read-only one).
        grover._bit_reversal(13)
        config = GroverConfig(13, None, schedule, 4)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            records = list(iterate_grover(config))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 4
        register = 8 << 13
        assert peak - start <= 2 * register + register // 2


def spy_bit_reversal(monkeypatch):
    """Record the n_qubits of every grover._bit_reversal call."""
    calls = []
    real = grover._bit_reversal

    def spied(n_qubits):
        calls.append(n_qubits)
        return real(n_qubits)

    monkeypatch.setattr(grover, "_bit_reversal", spied)
    return calls


def layer_test_amps(family, n, rng):
    dim = 1 << n
    if family == "real":
        return rng.normal(size=dim)
    if family == "flipped-uniform":
        amps = np.full(dim, 1.0 / math.sqrt(dim))
        amps[rng.integers(dim)] *= -1
        return amps
    if family == "wide-range":
        # Magnitudes from 2**63 down past the subnormals, some of which
        # underflow to zero: every rounding mode of the sums shows.
        return rng.normal(size=dim) * np.exp2(rng.integers(-1100, 64, size=dim).astype(float))
    # Basis state; the amplitudes elsewhere are +0.0 or -0.0.
    amps = rng.choice([0.0, -0.0], size=dim)
    amps[rng.integers(dim)] = 1.0
    return amps


def per_qubit_hadamards(amps):
    """The oracle's H on qubits 0..n-1, one pass each, of a complex128 copy."""
    n = amps.size.bit_length() - 1
    return apply_sequence(StateVector(n, amps), layer(HADAMARD, n))


class TestHadamardLayers:
    """The diffusion's H^n against the real part of the per-qubit kernel."""

    @pytest.mark.parametrize(
        "family, n",
        [
            *itertools.product(
                ["real", "wide-range", "flipped-uniform", "signed-zero-basis"], range(1, 17)
            ),
            ("real", 20),
            ("wide-range", 20),
        ],
    )
    def test_equals_per_qubit_kernel_bytewise(self, family, n):
        amps = layer_test_amps(family, n, np.random.default_rng(n))
        before = amps.copy()
        first, second = np.empty_like(amps), np.empty_like(amps)
        result, spare = hadamard(amps, first, second)
        assert_real_part_bytes(result, per_qubit_hadamards(amps))
        assert amps.tobytes() == before.tobytes()
        assert result is (first if n % 2 else second) and spare is (second if n % 2 else first)
        # The closing H^n's form, with the source as spare, equals out of place.
        expected, _ = hadamard(result, np.empty_like(amps), np.empty_like(amps))
        got, _ = hadamard(result, spare, result)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, parts", [(1, [0.0, -0.0, 0.5, -0.5]), (2, [0.0, -0.0, 0.5])])
    def test_signed_zeros_bytewise(self, n, parts):
        # Every state whose amplitudes come from `parts`: exact zeros reach
        # the output, and their signs must match too (at n = 2 up to the
        # exception assert_real_part_bytes documents). The angle search's
        # close gives the full kernel's entry N - 1, signed zeros included.
        first, second = np.empty(1 << n), np.empty(1 << n)
        for combo in itertools.product(parts, repeat=1 << n):
            amps = np.array(combo)
            expected = per_qubit_hadamards(amps)
            result, _ = hadamard(amps, first, second)
            assert_real_part_bytes(result, expected)
            src = amps.copy()
            result, _ = hadamard(src, first, src)
            assert_real_part_bytes(result, expected)
            last, _ = hadamard(amps, np.empty_like(amps), np.empty_like(amps), last_entry=True)
            assert last[-1:].tobytes() == result[-1:].tobytes()

    @pytest.mark.parametrize(
        "family, n",
        [
            *itertools.product(
                ["real", "wide-range", "flipped-uniform", "signed-zero-basis"], range(1, 17)
            ),
            *itertools.product(["real", "wide-range"], range(17, 21)),
        ],
    )
    def test_last_entry_equals_full_kernel_bytewise(self, family, n):
        # The angle search closes only entry N - 1's cone of the closing
        # H^n. Its buffers start as NaN, so if entry N - 1 depended on any
        # entry the cone leaves unwritten, it would be NaN.
        amps = layer_test_amps(family, n, np.random.default_rng(n))
        before = amps.copy()
        expected, _ = hadamard(amps, np.empty_like(amps), np.empty_like(amps))
        first, second = np.full_like(amps, np.nan), np.full_like(amps, np.nan)
        result, spare = hadamard(amps, first, second, last_entry=True)
        assert result is (first if n % 2 else second) and spare is (second if n % 2 else first)
        assert result[-1:].tobytes() == expected[-1:].tobytes()
        assert amps.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 13])
    def test_reused_views_equal_per_qubit_kernel_bytewise(self, n):
        # A run builds its views once and sends every H^n through them: each
        # call equals the per-qubit kernel, out of place or in place (the
        # source is the scaled buffer), whatever the buffers held before.
        rng = np.random.default_rng(200 + n)
        scaled, other = np.empty(1 << n), np.empty(1 << n)
        views = grover._layer_views(scaled, other)
        for family in ["real", "wide-range", "flipped-uniform", "signed-zero-basis", "real"]:
            amps = layer_test_amps(family, n, rng)
            expected = per_qubit_hadamards(amps)
            result = grover._hadamard_layers(amps, views)
            assert result is views.result is (other if n % 2 else scaled)
            assert_real_part_bytes(result, expected)
            scaled[:] = amps
            assert_real_part_bytes(grover._hadamard_layers(scaled, views), expected)

    @pytest.mark.parametrize("inner_gate", [gate_zr_y, gate_ry_h, gate_hr_y])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9])
    def test_diffusion_views_serve_every_iteration_bytewise(self, inner_gate, n):
        # The run loop's form: one _diffusion_views per run, each diffusion
        # in place in the register, checked against the gate-by-gate
        # circuit on a complex register after every step.
        rng = np.random.default_rng(300 + n)
        register = random_real_amps(n, rng)
        views = grover._diffusion_views(register, np.empty_like(register))
        state = StateVector(n, register.copy())
        for _ in range(6):
            target = int(rng.integers(n))
            gate = inner_gate(float(rng.uniform(-math.pi, math.pi)))
            assert grover._diffuse(register, views, gate, target) is register
            state = modified_diffusion(state, gate, target)
            assert register.tobytes() == np.ascontiguousarray(state.amps.real).tobytes()

    @pytest.mark.parametrize(
        "family, n", itertools.product(["real", "wide-range", "flipped-uniform", "signed-zero-basis"], range(1, 14))
    )
    def test_bit_reversed_plan_equals_natural_plan_bytewise(self, family, n):
        # The run's plan up to n = 13: H^n of the bit-reversed register is
        # the natural plan's H^n, bit-reversed, out of place and in place.
        amps = layer_test_amps(family, n, np.random.default_rng(500 + n))
        rev = grover._bit_reversal(n)
        expected, _ = hadamard(amps, np.empty_like(amps), np.empty_like(amps))
        src = amps[rev]
        scaled, other = np.empty_like(amps), np.empty_like(amps)
        views = grover._layer_views(scaled, other, bit_reversed=True)
        result = grover._hadamard_layers(src, views)
        assert result is views.result is (other if n % 2 else scaled)
        assert result.tobytes() == expected[rev].tobytes()
        assert src.tobytes() == amps[rev].tobytes()
        scaled[:] = src
        assert grover._hadamard_layers(scaled, views).tobytes() == expected[rev].tobytes()

    @pytest.mark.parametrize(
        "family, n", itertools.product(["real", "wide-range", "flipped-uniform", "signed-zero-basis"], range(1, 14))
    )
    def test_bit_reversed_diffusion_views_serve_every_iteration_bytewise(self, family, n):
        # The run loop's form up to n = 13: one bit-reversed
        # _diffusion_views per run, each diffusion in place, checked in
        # natural order against the gate-by-gate circuit after every step.
        rng = np.random.default_rng(600 + n)
        amps = layer_test_amps(family, n, rng)
        rev = grover._bit_reversal(n)
        register = amps[rev]
        views = grover._diffusion_views(register, np.empty_like(register), bit_reversed=True)
        state = StateVector(n, amps.copy())
        for inner_gate in [gate_zr_y, gate_ry_h, gate_hr_y, gate_zr_y]:
            target = int(rng.integers(n))
            gate = inner_gate(float(rng.uniform(-math.pi, math.pi)))
            assert grover._diffuse(register, views, gate, target) is register
            state = modified_diffusion(state, gate, target)
            assert_real_part_bytes(register[rev], state)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 13])
    def test_reused_last_entry_views_bytewise(self, n):
        # The angle search builds its cone windows once per n and closes
        # every probe through them.
        rng = np.random.default_rng(400 + n)
        views = grover._layer_views(np.full(1 << n, np.nan), np.full(1 << n, np.nan), last_entry=True)
        for family in ["real", "wide-range", "flipped-uniform", "signed-zero-basis", "real"]:
            amps = layer_test_amps(family, n, rng)
            expected, _ = hadamard(amps, np.empty_like(amps), np.empty_like(amps))
            assert grover._hadamard_layers(amps, views)[-1:].tobytes() == expected[-1:].tobytes()

    @pytest.mark.parametrize("family, n", itertools.product(["real", "wide-range"], [5, 12, 20]))
    def test_sign_layer_rounds_once_without_fma(self, family, n):
        # Layer 0 of _hadamard_layers scales x by h, then its gemm multiplies
        # the scaled pairs (p0, p1) by +-1 only, which is exact: each output
        # is p0 + p1 or p0 - p1 rounded once, with or without FMA, so layer 0
        # rests on no BLAS kernel's rounding. math.fsum rounds the exact sum
        # once, as float(Fraction(p0) +- Fraction(p1)) does; both are taken
        # below n = 20, where Fraction would take seconds.
        half = 1 << (n - 1)
        x = layer_test_amps(family, n, np.random.default_rng(n))
        p = grover.HADAMARD[0, 0] * x
        y = np.empty(2 * half)
        np.matmul(grover._SIGNS, p.reshape(half, 2).T, out=y.reshape(2, half))
        p0, p1 = p[0::2].tolist(), p[1::2].tolist()
        expected = [math.fsum((a, sign * b)) for sign in (1.0, -1.0) for a, b in zip(p0, p1)]
        if n < 20:
            assert expected == [
                float(Fraction(a) + sign * Fraction(b)) for sign in (1, -1) for a, b in zip(p0, p1)
            ]
        wrong = int((y != np.array(expected)).sum())
        assert not wrong, f"{wrong} of {2 * half} layer-0 outputs are not p0 +- p1 rounded once"

    @pytest.mark.parametrize("family, n", itertools.product(["real", "wide-range"], [5, 12]))
    def test_dgemm_layer_is_fused_multiply_add(self, family, n):
        # The committed bytes rest on this arithmetic: each output of a
        # q >= 1 layer (the np.matmul of _hadamard_layers) is
        # fma(h[r,1], x1, h[r,0]*x0), one rounding after the rounded
        # product, checked here in exact rational arithmetic.
        h, half = grover.HADAMARD, 1 << (n - 1)
        x = layer_test_amps(family, n, np.random.default_rng(n))
        y = np.empty(2 * half)
        np.matmul(h, x.reshape(half, 2).T, out=y.reshape(2, half))
        x0, x1 = x[0::2].tolist(), x[1::2].tolist()
        expected = [
            float(Fraction(h[r, 1]) * Fraction(x1[i]) + Fraction(float(h[r, 0]) * x0[i]))
            for r in range(2)
            for i in range(half)
        ]
        wrong = int((y != np.array(expected)).sum())
        if wrong:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            core = os.environ.get("OPENBLAS_CORETYPE", "unset")
            pytest.fail(
                f"{wrong} of {2 * half} layer outputs are not fma(h[r,1], x1, h[r,0]*x0) "
                f"on BLAS {blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', 'no OpenBLAS configuration')}), "
                f"OPENBLAS_CORETYPE={core}: the committed bytes under results/ are not "
                "reproducible on this build"
            )


class TestNOptimal:
    def test_reference_row(self):
        reference = [1, 2, 3, 4, 6, 8, 12, 17, 25, 35, 50, 71]
        assert [n_optimal_standard(n, 1) for n in range(2, 14)] == reference

    def test_examples(self):
        assert n_optimal_standard(5, 1) == 4
        assert n_optimal_standard(13, 1) == 71
        assert n_optimal_standard(2, 1) == 1

    @pytest.mark.parametrize("n, count", [(3, 8), (3, 0), (3, 1.5), (3.5, 1)])
    def test_rejects_bad_arguments(self, n, count):
        with pytest.raises(ValueError):
            n_optimal_standard(n, count)


class TestIterateGrover:
    def test_n2_standard_one_iteration_is_certain(self):
        records = list(iterate_grover(GroverConfig(2, max_iterations=1)))
        assert records[-1].target_probability == pytest.approx(1.0, abs=1e-12)

    def test_n5_standard_matches_closed_form(self):
        theta0 = math.asin(1.0 / math.sqrt(32.0))
        records = list(iterate_grover(GroverConfig(5, max_iterations=4)))
        p3 = records[2].target_probability
        p4 = records[3].target_probability
        assert p3 == pytest.approx(math.sin(7.0 * theta0) ** 2, abs=1e-9)
        assert p4 == pytest.approx(math.sin(9.0 * theta0) ** 2, abs=1e-9)

    def test_n5_hybrid_headline(self):
        config = GroverConfig(5, (31,), Schedule(ScheduleKind.HYBRID), 3)
        p3 = list(iterate_grover(config))[-1].target_probability
        assert p3 >= 0.99
        assert p3 == pytest.approx(0.997461, abs=5e-3)

    def test_hybrid_order_knob_changes_result(self):
        literal = Schedule(ScheduleKind.HYBRID, hybrid_order=HybridOrder.RY_THEN_H)
        records = list(iterate_grover(GroverConfig(5, (31,), literal, 3)))
        assert records[-1].target_probability < 0.9

    def test_fixed_schedule_with_zero_angle_reduces_to_standard(self):
        # n = 2 is the only size whose fixed angle is zero, so the reduction
        # must be exact there through the public run loop.
        standard = list(iterate_grover(GroverConfig(2, max_iterations=4)))
        fixed = list(
            iterate_grover(GroverConfig(2, (3,), Schedule(ScheduleKind.FIXED), 4))
        )
        for s, f in zip(standard, fixed):
            assert abs(s.target_probability - f.target_probability) < 1e-12

    def test_forced_zero_angle_reduces_to_standard_any_n(self):
        marked = (31,)
        standard = list(iterate_grover(GroverConfig(5, marked, max_iterations=8)))
        state = uniform_state(5)
        for record in standard:
            state = apply_oracle(state, marked)
            state = modified_diffusion(state, gate_zr_y(0.0))
            p = abs(state.amps[31]) ** 2
            assert abs(p - record.target_probability) < 1e-12

    def test_default_iteration_window(self):
        config = GroverConfig(6)
        assert config.max_iterations == 2 * n_optimal_standard(6, 1) + 2 == 2 * 6 + 2

    def test_trace_shape_and_bookkeeping(self):
        config = GroverConfig(4, (15,), Schedule(ScheduleKind.FIXED), 5)
        records = list(iterate_grover(config))
        assert len(records) == 5
        assert [r.iteration for r in records] == [1, 2, 3, 4, 5]
        for r in records:
            assert r.theta_used == fixed_phase(4)
            assert 0.0 <= r.target_probability <= 1.0 + 1e-12

    def test_adaptive_schedule_theta_progression(self):
        schedule = Schedule(ScheduleKind.ADAPTIVE, RatioInterpretation.ADDITIVE)
        records = iterate_grover(GroverConfig(4, (15,), schedule, 3))
        expected = [adaptive_phase(4, i) for i in (1, 2, 3)]
        assert [r.theta_used for r in records] == expected

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=Schedule.describe)
    @pytest.mark.parametrize(
        "n, marked",
        [(n, m) for n in range(2, 8) for m in ("all-ones", "1,5", "pair") if (n, m) != (2, "1,5")],
    )
    def test_records_equal_oracle_resimulation(self, schedule, n, marked):
        # "pair" marks both amplitudes the diffusion's pair update writes,
        # (2**t, 0), so the run's in-place oracle flips them.
        target = n - 1 if schedule.rotation_target is None else schedule.rotation_target
        indices = {"all-ones": {(1 << n) - 1}, "1,5": {1, 5}, "pair": {0, 1 << target}}[marked]
        config = GroverConfig(n, indices, schedule)
        assert record_bytes(iterate_grover(config)) == record_bytes(oracle_records(config))

    @staticmethod
    def spy_plans(monkeypatch):
        """Record the plan of every _diffusion_views call iterate_grover makes."""
        plans = []
        real = grover._diffusion_views

        def spied(*args, **kwargs):
            plans.append(kwargs.get("bit_reversed", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(grover, "_diffusion_views", spied)
        return plans

    @staticmethod
    def bound_config(n, schedule, iterations):
        """A run whose marked set holds the pair (2**t, 0) and indices that
        bit reversal moves."""
        target = n - 1 if schedule.rotation_target is None else schedule.rotation_target
        return GroverConfig(n, {0, 1, 1 << target, (1 << n) - 2}, schedule, iterations)

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=Schedule.describe)
    @pytest.mark.parametrize("n", [13, 14])
    def test_records_equal_oracle_on_either_side_of_the_plan_bound(self, monkeypatch, schedule, n):
        # Both run bit-reversed, on either side of the readout's bound:
        # n = 13 gathers through _bit_reversal's index array, n = 14 copies
        # through a transposed view and maps its marked indices without it.
        plans = self.spy_plans(monkeypatch)
        gathers = spy_bit_reversal(monkeypatch)
        config = self.bound_config(n, schedule, 8)
        assert record_bytes(iterate_grover(config)) == record_bytes(oracle_records(config))
        assert plans == [True]
        assert gathers == ([13] if n == 13 else [])

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=Schedule.describe)
    @pytest.mark.parametrize("n", [17, 18])
    def test_records_equal_natural_plan_on_either_side_of_the_plan_bound(self, monkeypatch, schedule, n):
        # n = 17 runs bit-reversed, n = 18 in natural order; each equals
        # the same run forced onto the natural plan (the dense oracle is
        # too slow here).
        config = self.bound_config(n, schedule, 3)
        with monkeypatch.context() as forced:
            forced.setattr(grover._RunStore, "REVERSED_BYTES", 0)
            natural = record_bytes(iterate_grover(config))
        plans = self.spy_plans(monkeypatch)
        assert record_bytes(iterate_grover(config)) == natural
        assert plans == [n <= 17]

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=Schedule.describe)
    def test_stopping_early_yields_a_prefix(self, schedule):
        config = GroverConfig(5, {1, 5}, schedule)
        records = list(iterate_grover(config))
        assert len(records) == config.max_iterations
        assert list(itertools.islice(iterate_grover(config), 3)) == records[:3]


def cold_record_bytes(config):
    """record_bytes of config's run simulated from the uniform state, with
    the run store empty before and after."""
    clear_run_store()
    try:
        return record_bytes(iterate_grover(config))
    finally:
        clear_run_store()


def store_key(config):
    return config.n_qubits, config.marked, config.schedule


def check_store_bytes():
    """The store's byte count equals what its runs hold, within its budget,
    and every run it holds is marked kept."""
    store = grover._STORE
    held = sum(
        len(marked) * store.MARKED_BYTES + len(run.records) * store.RECORD_BYTES + run.amps.nbytes
        for (_, marked, _), run in store.runs.items()
    )
    assert store.bytes == held <= store.BYTES
    assert all(run.kept for run in store.runs.values())


@pytest.fixture
def checked_store(monkeypatch):
    """grover's run store, checked with check_store_bytes after every
    lookup and every record it stores."""
    store = grover._STORE
    for name in ("run", "grow"):
        real = getattr(store, name)

        def checked(*args, real=real):
            got = real(*args)
            check_store_bytes()
            return got

        monkeypatch.setattr(store, name, checked)
    return store


def counted_diffusions(monkeypatch):
    """The list that each later grover._diffuse call appends its n to."""
    calls = []
    real = grover._diffuse

    def counted(src, *args):
        calls.append(src.size.bit_length() - 1)
        return real(src, *args)

    monkeypatch.setattr(grover, "_diffuse", counted)
    return calls


class TestRunStore:
    """Runs of one (n, marked, schedule) share one run of the store, whose
    register its readers extend in turn; every reader gets a cold run's
    bytes."""

    @pytest.mark.parametrize("window", ["shorter", "equal", "longer", "longer-evicted"])
    @pytest.mark.parametrize("n", [5, 9])
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=Schedule.describe)
    def test_resumed_stream_equals_cold_run_bytewise(self, schedule, n, window):
        full = GroverConfig(n, schedule=schedule)
        held = full.max_iterations // 2
        length = {"shorter": held - 2, "equal": held}.get(window, full.max_iterations + 5)
        config = GroverConfig(n, schedule=schedule, max_iterations=length)
        expected = cold_record_bytes(config)
        assert len(list(itertools.islice(iterate_grover(full), held))) == held
        key = store_key(config)
        run = grover._STORE.runs[key]
        assert len(run.records) == held
        if window == "longer-evicted":
            grover._STORE.drop(key)
            assert not run.kept
        assert record_bytes(iterate_grover(config)) == expected
        if window == "longer-evicted":
            assert len(run.records) == held and len(grover._STORE.runs[key].records) == length
        else:
            assert grover._STORE.runs[key] is run and len(run.records) == max(held, length)
        check_store_bytes()

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=Schedule.describe)
    def test_interleaved_readers_get_cold_bytes(self, schedule):
        # Both readers share the run: each yields the records the other
        # stored and extends its register past them.
        config = GroverConfig(9, schedule=schedule)
        expected = cold_record_bytes(config)
        readers = iterate_grover(config), iterate_grover(config)
        got = [], []
        for which, count in [(0, 3), (1, 5), (0, 4), (1, 1), (0, 20), (1, 40), (0, 40)]:
            got[which].extend(itertools.islice(readers[which], count))
        assert record_bytes(got[0]) == record_bytes(got[1]) == expected

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=Schedule.describe)
    def test_interleaved_readers_make_each_iteration_once(self, schedule, monkeypatch):
        # Two readers of one n = 9 run take turns, one record at a time and
        # then in runs of several: together they make the run's 36
        # diffusions, each once, in its one register.
        config = GroverConfig(9, schedule=schedule)
        expected = cold_record_bytes(config)
        calls = counted_diffusions(monkeypatch)
        readers = iterate_grover(config), iterate_grover(config)
        got = [], []
        for which, count in [(0, 1), (1, 1), (1, 1), (0, 1), (0, 2), (1, 7), (0, 10), (1, 40), (0, 40)]:
            got[which].extend(itertools.islice(readers[which], count))
        assert record_bytes(got[0]) == record_bytes(got[1]) == expected
        assert len(calls) == config.max_iterations == 36
        assert len(grover._STORE.runs[store_key(config)].records) == 36

    @pytest.mark.parametrize("simulated", [True, False], ids=["own-register", "no-register"])
    def test_reader_of_an_evicted_run_goes_on_in_it(self, simulated):
        # The run is evicted under a live reader, and a new reader starts
        # its successor. The live reader goes on in the evicted run alone,
        # whether it extended that run or only read its records.
        config = GroverConfig(9, schedule=Schedule(ScheduleKind.HYBRID))
        expected = cold_record_bytes(config)
        if not simulated:
            list(itertools.islice(iterate_grover(config), 3))
        reader = iterate_grover(config)
        got = list(itertools.islice(reader, 3))
        evicted = grover._STORE.runs[store_key(config)]
        grover._STORE.drop(store_key(config))
        assert len(list(itertools.islice(iterate_grover(config), 6))) == 6
        successor = grover._STORE.runs[store_key(config)]
        got.extend(reader)
        assert record_bytes(got) == expected
        assert len(evicted.records) == config.max_iterations and not evicted.kept
        assert len(successor.records) == 6 and successor.kept
        check_store_bytes()

    def test_failed_run_leaves_no_entry(self, monkeypatch):
        # Each reader's kernel drifts from its third diffusion on; the first
        # reader's two records are dropped with the run, so the second
        # simulates from the uniform state and fails where the first did.
        config = GroverConfig(5, schedule=Schedule(ScheduleKind.HYBRID))
        real = grover._diffuse

        def drifting(src, views, m, target):
            amps = real(src, views, m, target)
            if next(calls) >= 3:
                amps *= 1.001
            return amps

        monkeypatch.setattr(grover, "_diffuse", drifting)
        for _ in range(2):
            calls = itertools.count(1)
            records = iterate_grover(config)
            assert [r.iteration for r in itertools.islice(records, 2)] == [1, 2]
            with pytest.raises(NormDriftError, match="at iteration 3$"):
                next(records)
            assert store_key(config) not in grover._STORE.runs
            check_store_bytes()

    def test_other_reader_of_a_failed_run_goes_on_with_cold_bytes(self, monkeypatch):
        # One reader's iteration 3 drifts and fails the shared run, whose
        # register it has scaled. The other reader, which shares the run's
        # two records, never extends it: it starts the key's new run.
        config = GroverConfig(5, schedule=Schedule(ScheduleKind.HYBRID))
        expected = cold_record_bytes(config)
        failing, other = iterate_grover(config), iterate_grover(config)
        got = list(itertools.islice(other, 2))
        assert [r.iteration for r in itertools.islice(failing, 2)] == [1, 2]
        failed = grover._STORE.runs[store_key(config)]
        real = grover._diffuse

        def drifting(src, views, m, target):
            amps = real(src, views, m, target)
            amps *= 1.001
            return amps

        monkeypatch.setattr(grover, "_diffuse", drifting)
        with pytest.raises(NormDriftError, match="at iteration 3$"):
            next(failing)
        monkeypatch.undo()
        assert failed.failed and not failed.kept and store_key(config) not in grover._STORE.runs
        got.extend(other)
        assert record_bytes(got) == expected
        assert len(failed.records) == 2
        assert len(grover._STORE.runs[store_key(config)].records) == config.max_iterations
        check_store_bytes()

    def test_no_register_of_n14_outlives_its_run(self, cli):
        # The store keeps the n = 13 run; the n = 14, 16 and 20 runs belong
        # to their readers alone, records and register.
        for args in [
            ("--qubits", 13, "--iterations", 20),
            ("--qubits", 14, "--iterations", 3),
            ("--qubits", 16, "--iterations", 20),
            ("--qubits", 20, "--iterations", 3, "--schedule", "hybrid-eq11-12"),
        ]:
            assert cli("run", *args).exit_code == 0
        assert [n for n, _, _ in grover._STORE.runs] == [13]
        check_store_bytes()

    def test_registers_stay_within_the_budget(self, checked_store):
        # Each n = 13 run of three iterations holds 66,176 B: its 64 KiB
        # register, three records and its key. The twentieth run evicts the
        # first whole. A run looked up again is the most recently used, so
        # the next eviction passes it by.
        store = checked_store
        configs = [GroverConfig(13, {j}, max_iterations=3) for j in range(20)]
        expected = cold_record_bytes(configs[0])
        for config in configs:
            assert len(list(iterate_grover(config))) == 3
        assert store.BYTES == (1 << 20) + (1 << 18)
        assert [marked for _, marked, _ in store.runs] == [(j,) for j in range(1, 20)]
        assert store.bytes == 19 * 66_176
        assert len(list(iterate_grover(dataclasses.replace(configs[1], max_iterations=4)))) == 4
        assert record_bytes(iterate_grover(configs[0])) == expected
        assert [marked for _, marked, _ in store.runs] == [(j,) for j in range(3, 20)] + [(1,), (0,)]
        assert len(store.runs[store_key(configs[1])].records) == 4

    def test_records_stay_within_the_budget(self, checked_store):
        # Each scanned run holds 300,296 B of records, key and register:
        # the fifth evicts the least recently used, and the evicted run
        # reads its cold bytes again.
        store = checked_store
        configs = [GroverConfig(5, {j}, max_iterations=1500) for j in range(5)]
        expected = cold_record_bytes(configs[0])
        for config in configs:
            assert len(list(iterate_grover(config))) == 1500
        assert [marked for _, marked, _ in store.runs] == [(1,), (2,), (3,), (4,)]
        assert store.bytes == 4 * 300_296
        assert store.BYTES == (1 << 20) + (1 << 18)
        assert record_bytes(iterate_grover(configs[0])) == expected
        assert [marked for _, marked, _ in store.runs] == [(2,), (3,), (4,), (0,)]

    @pytest.mark.parametrize(
        "config, kept",
        [
            # Grows past the budget record by record: first it evicts the
            # n = 5 run, the least recently used, then itself.
            pytest.param(GroverConfig(3, max_iterations=7000), [], id="long-window"),
            # Its key alone, 1.6 MB, would be past the budget, but the
            # store keeps no n = 16 run: the n = 5 run stays.
            pytest.param(GroverConfig(16, range(40_000), max_iterations=2), [5], id="large-marked-set"),
        ],
    )
    def test_run_past_the_budget_is_not_kept(self, config, kept, checked_store):
        list(itertools.islice(iterate_grover(GroverConfig(5)), 3))
        assert len(list(iterate_grover(config))) == config.max_iterations
        assert [n for n, _, _ in checked_store.runs] == kept

    def test_readers_in_threads_share_the_store(self, monkeypatch):
        # Eight threads read each schedule's n = 9 run twice over, with
        # different windows, through one store: each run's 19 iterations
        # are made once.
        configs = [
            GroverConfig(9, schedule=schedule, max_iterations=length)
            for schedule in SCHEDULES
            for length in (7, 19)
        ]
        expected = [cold_record_bytes(config) for config in configs]
        calls = counted_diffusions(monkeypatch)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(2):
                got = list(pool.map(lambda config: record_bytes(iterate_grover(config)), configs))
                assert got == expected
        assert len(calls) == 19 * len(SCHEDULES)
        check_store_bytes()


class TestMarkedIndexSymmetry:
    """A run's success curve depends on the marked index only through bit t,
    the rotation target: for j != t, X_j commutes with the diffusion and
    fixes the uniform start."""

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=Schedule.describe)
    @pytest.mark.parametrize(
        "n, indices",
        [
            *(pytest.param(n, range(1 << n), id=f"n{n}-every") for n in range(2, 6)),
            *(
                pytest.param(n, [0, 1, (1 << n - 1) - 1, 1 << n - 1, (1 << n) - 2], id=f"n{n}-five")
                for n in (6, 7)
            ),
        ],
    )
    def test_curve_equals_bit_t_class_representative(self, schedule, n, indices):
        t = n - 1 if schedule.rotation_target is None else schedule.rotation_target

        def curve(index):
            return list(iterate_grover(GroverConfig(n, {index}, schedule)))

        representatives = {1: curve((1 << n) - 1), 0: curve(((1 << n) - 1) ^ (1 << t))}
        for index in indices:
            records, expected = curve(index), representatives[index >> t & 1]
            assert [r.theta_used for r in records] == [r.theta_used for r in expected]
            gaps = [abs(r.target_probability - e.target_probability) for r, e in zip(records, expected)]
            assert max(gaps) <= 1e-12, index


class TestRegisterDtype:
    """Every schedule runs on a float64 register, byte-equal to the real
    part of the complex128 oracle."""

    @pytest.mark.parametrize("n", [3, 5, 10, 16])
    def test_mean_form_keeps_float64_and_complex_bytes(self, n):
        amps = np.random.default_rng(n).normal(size=1 << n)
        real = standard_diffusion_mean(amps)
        cplx = amps.astype(complex)
        assert real.dtype == np.float64
        assert real.tobytes() == (2.0 * np.mean(cplx) - cplx).real.tobytes()

    @pytest.mark.parametrize("constructor", [gate_zr_y, gate_ry_h, gate_hr_y])
    @pytest.mark.parametrize("target", [0, 3])
    def test_real_gates_keep_float64(self, constructor, target):
        gate = constructor(fixed_phase(5))
        assert gate.dtype == np.float64
        out = diffuse(after_oracle(5), gate, target)
        assert out.dtype == np.float64
        after = apply_oracle(uniform_state(5), (31,))
        reference = modified_diffusion(after, gate, target)
        assert out.tobytes() == np.ascontiguousarray(reference.amps.real).tobytes()

    @pytest.mark.parametrize(
        "n, kind, order, interpretation",
        itertools.product([2, 3, 5, 8], ScheduleKind, HybridOrder, RatioInterpretation),
    )
    def test_records_equal_complex_register_run_bytewise(self, n, kind, order, interpretation):
        config = GroverConfig(n, schedule=Schedule(kind, interpretation, hybrid_order=order))
        assert record_bytes(iterate_grover(config)) == record_bytes(oracle_records(config))


class TestNormDrift:
    @staticmethod
    def scale_diffusion(monkeypatch, factor):
        """Make iterate_grover's diffusion scale the register by factor;
        returns the list its calls are appended to."""
        calls = []

        def diffusion(src, views, matrix, target):
            calls.append(target)
            return np.multiply(src, factor, out=src)

        monkeypatch.setattr(grover, "_diffuse", diffusion)
        return calls

    # The norm is np.vdot up to n = 13 and a BLAS-free sum from n = 14 on,
    # in the bit-reversed plan at n = 16 and the natural one at n = 18.
    @pytest.mark.parametrize("n", [4, 16, 18])
    def test_drift_raises(self, monkeypatch, n):
        calls = self.scale_diffusion(monkeypatch, 1.001)
        with pytest.raises(NormDriftError, match="norm drifted"):
            list(iterate_grover(GroverConfig(n, max_iterations=3)))
        assert calls == [n - 1]

    def test_drift_raises_from_the_generator(self, monkeypatch):
        calls = self.scale_diffusion(monkeypatch, 1.001)
        records = iterate_grover(GroverConfig(4, max_iterations=3))
        with pytest.raises(NormDriftError, match="at iteration 1"):
            next(records)
        assert calls == [3]

    @pytest.mark.parametrize("n", [4, 16, 18])
    def test_drift_inside_tolerance_passes(self, monkeypatch, n):
        factor = math.sqrt(1.0 + 5e-11)
        calls = self.scale_diffusion(monkeypatch, factor)
        records = list(iterate_grover(GroverConfig(n, max_iterations=1)))
        assert len(records) == 1
        assert calls == [n - 1]

    def test_drift_raises_under_optimize_flag(self):
        script = textwrap.dedent(
            """
            import numpy as np
            from groversim import GroverConfig, NormDriftError, grover, iterate_grover
            if __debug__:
                raise SystemExit(2)  # not running under -O
            calls = []

            def diffusion(src, views, *args):
                calls.append(args)
                return np.multiply(src, 2, out=src)

            grover._diffuse = diffusion
            try:
                list(iterate_grover(GroverConfig(3, {7}, max_iterations=1)))
            except NormDriftError:
                raise SystemExit(0 if len(calls) == 1 else 3)
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
    @pytest.mark.parametrize("n, marked", [(3, {8}), (3, [7, 8]), (5, (32,))])
    def test_marked_out_of_range(self, n, marked):
        with pytest.raises(ValueError, match="out of range for"):
            GroverConfig(n, marked)

    @pytest.mark.parametrize("n, marked", [(1, {0, 1}), (2, range(4)), (2, [3, 2, 1, 0, 3])])
    def test_marked_cannot_cover_everything(self, n, marked):
        with pytest.raises(ValueError, match="at least one unmarked state"):
            GroverConfig(n, marked)

    @pytest.mark.parametrize("empty", [set(), frozenset(), [], (), range(0)])
    def test_empty_marked_set(self, empty):
        with pytest.raises(ValueError, match="must be nonempty"):
            GroverConfig(3, empty)

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), -0.5])
    def test_non_integer_marked_index_is_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"basis index must be an integer, got {bad!r}")):
            GroverConfig(3, {3, bad})

    @pytest.mark.parametrize("marked", [{-1}, [3, -2], (np.int64(-8),)])
    def test_negative_marked_index_is_rejected(self, marked):
        with pytest.raises(ValueError, match="must be nonnegative"):
            GroverConfig(3, marked)

    @pytest.mark.parametrize("bad", [7, np.int64(7), 7.0])
    def test_non_iterable_marked_is_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"iterable of basis indices, got {bad!r}")):
            GroverConfig(3, bad)

    @pytest.mark.parametrize(
        "marked",
        [[5, 3], (3, 5), {5, 3}, frozenset({3, 5}), [np.int64(5), np.int32(3)], np.array([5, 3]), [5, 3, 5, 3]],
        ids=["list", "tuple", "set", "frozenset", "numpy-ints", "numpy-array", "duplicates"],
    )
    @pytest.mark.parametrize("kind", [ScheduleKind.STANDARD, ScheduleKind.HYBRID])
    def test_marked_forms_give_one_sorted_tuple(self, marked, kind):
        config = GroverConfig(3, marked, Schedule(kind))
        assert config.marked == (3, 5)
        assert all(type(i) is int for i in config.marked)
        expected = GroverConfig(3, (3, 5), Schedule(kind))
        assert record_bytes(iterate_grover(config)) == record_bytes(iterate_grover(expected))

    def test_marked_is_copied_from_the_callers_list(self):
        marked = [5, 3]
        config = GroverConfig(3, marked)
        marked.append(1)
        marked[0] = 7
        assert config.marked == (3, 5)
        assert config.max_iterations == 2 * n_optimal_standard(3, 2) + 2

    @pytest.mark.parametrize("target", [3, 1.0])
    def test_rotation_target_out_of_range(self, target):
        with pytest.raises(ValueError):
            GroverConfig(3, schedule=Schedule(rotation_target=target))

    @pytest.mark.parametrize("bad", [None, "hybrid-eq11-12", ScheduleKind.HYBRID])
    def test_schedule_must_be_a_schedule(self, bad):
        with pytest.raises(ValueError, match="schedule must be a Schedule"):
            GroverConfig(3, schedule=bad)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("given", SCHEDULES, ids=Schedule.describe)
    def test_schedule_is_stored_as_the_run_reads_it(self, given, n):
        config = GroverConfig(n, schedule=given)
        resolved = config.schedule
        assert type(resolved.rotation_target) is int
        assert resolved.rotation_target == (n - 1 if given.rotation_target is None else given.rotation_target)
        assert resolved.kind is given.kind
        if given.kind is not ScheduleKind.ADAPTIVE:
            assert resolved.interpretation is Schedule().interpretation
        if given.kind is not ScheduleKind.HYBRID:
            assert resolved.hybrid_order is Schedule().hybrid_order
        again = GroverConfig(n, schedule=resolved)
        assert again == config and hash(again) == hash(config)
        for i in range(1, config.max_iterations + 1):
            (theta, gate), (resolved_theta, resolved_gate) = given.step(n, i), resolved.step(n, i)
            assert theta.hex() == resolved_theta.hex() and gate.tobytes() == resolved_gate.tobytes()
        # The oracle re-simulates the run under the schedule as given.
        as_given = types.SimpleNamespace(**{**vars(config), "schedule": given})
        assert record_bytes(iterate_grover(config)) == record_bytes(oracle_records(as_given))

    def test_modified_needs_two_qubits(self):
        with pytest.raises(ValueError):
            GroverConfig(1, {1}, Schedule(ScheduleKind.FIXED))

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            GroverConfig(21, {0})

    @pytest.mark.parametrize("n", [3.0, 3.5, np.float64(3.0)])
    def test_non_integer_size_is_rejected(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n_qubits must be an integer, got {n!r}")):
            GroverConfig(n, {7})

    def test_numpy_integer_size_is_accepted(self):
        config = GroverConfig(np.int64(3), {7})
        assert config.max_iterations == 6
        assert type(config.n_qubits) is int

    @pytest.mark.parametrize("bad", [0, 2.5])
    def test_bad_max_iterations(self, bad):
        with pytest.raises(ValueError):
            GroverConfig(3, max_iterations=bad)

    @pytest.mark.parametrize("kind", list(ScheduleKind))
    def test_marked_defaults_to_all_ones_index(self, kind):
        config = GroverConfig(5, schedule=Schedule(kind))
        assert config.marked == (31,)
        explicit = GroverConfig(5, [31], Schedule(kind))
        assert list(iterate_grover(config)) == list(iterate_grover(explicit))

    @pytest.mark.parametrize(
        "name, value",
        [("n_qubits", 4), ("marked", (9,)), ("schedule", Schedule(ScheduleKind.HYBRID)), ("max_iterations", 2.5)],
    )
    def test_fields_cannot_be_reassigned(self, name, value):
        # A reassigned field would skip __post_init__'s validation: marked
        # (9,) on 3 qubits once raised a bare IndexError from the run loop.
        config = GroverConfig(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
        assert config == GroverConfig(3)
