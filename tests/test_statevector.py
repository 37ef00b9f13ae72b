"""The package's register basics, and the test oracle's register, gates,
kernels and readout (tests/oracle.py)."""

import math
import re

import numpy as np
import pytest

from groversim import SizeLimitError
from groversim.statevector import uniform_superposition
from conftest import random_state
from oracle import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    OneQubitGate,
    StateVector,
    apply_controlled_one_qubit_gate,
    apply_one_qubit_gate,
    basis_state,
    dense_operator_of,
    phase_flip_indices,
    target_probability,
    uniform_state,
)


class TestUniformSuperposition:
    def test_n2_is_all_quarters(self):
        assert np.array_equal(uniform_superposition(2), np.full(4, 0.5))

    def test_n1_matches_single_hadamard(self):
        expected = apply_one_qubit_gate(basis_state(1, 0), 0, HADAMARD)
        assert np.allclose(uniform_superposition(1), expected.amps, atol=1e-15)

    def test_n5_amplitude_value(self):
        assert np.all(uniform_superposition(5) == 1.0 / math.sqrt(32.0))

    @pytest.mark.parametrize("n", [0, -1, 21, 64])
    def test_rejects_unsupported_sizes(self, n):
        with pytest.raises(SizeLimitError):
            uniform_superposition(n)

    @pytest.mark.parametrize("n", [3.0, 3.5, np.float64(3.0), "3"])
    def test_rejects_non_integer_sizes(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n_qubits must be an integer, got {n!r}")):
            uniform_superposition(n)

    def test_largest_supported_size(self):
        amps = uniform_superposition(20)
        assert amps.shape == (1 << 20,)
        assert abs(np.vdot(amps, amps) - 1.0) < 1e-10


class TestApplyOneQubitGate:
    def test_hadamard_on_zero(self):
        state = apply_one_qubit_gate(basis_state(1, 0), 0, HADAMARD)
        r = 1.0 / math.sqrt(2.0)
        assert np.allclose(state.amps, [r, r], atol=1e-15)

    def test_x_on_qubit1_sets_index_2(self):
        # LSB convention: qubit 1 is bit 1, so |00> -> index 2.
        state = apply_one_qubit_gate(basis_state(2, 0), 1, PAULI_X)
        assert np.array_equal(state.amps, [0, 0, 1, 0])

    def test_z_flips_the_one_component(self):
        r = 1.0 / math.sqrt(2.0)
        state = StateVector(1, [r, r])
        state = apply_one_qubit_gate(state, 0, PAULI_Z)
        assert np.allclose(state.amps, [r, -r], atol=1e-15)

    def test_input_not_mutated(self):
        state = uniform_state(2)
        before = state.amps.copy()
        apply_one_qubit_gate(state, 0, PAULI_X)
        assert np.array_equal(state.amps, before)

    @pytest.mark.parametrize("q", [-1, 2])
    def test_qubit_out_of_range(self, q):
        with pytest.raises(IndexError):
            apply_one_qubit_gate(uniform_state(2), q, PAULI_X)


class TestControlledGate:
    def test_cnot_01_to_11(self):
        state = apply_controlled_one_qubit_gate(basis_state(2, 1), {0}, 1, PAULI_X)
        assert np.array_equal(state.amps, [0, 0, 0, 1])

    def test_controlled_z_flips_only_all_ones(self):
        state = apply_controlled_one_qubit_gate(uniform_state(2), {0}, 1, PAULI_Z)
        assert np.allclose(state.amps, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_empty_control_set_is_plain_gate(self):
        state = random_state(3, np.random.default_rng(7))
        controlled = apply_controlled_one_qubit_gate(state, set(), 1, HADAMARD)
        plain = apply_one_qubit_gate(state, 1, HADAMARD)
        assert np.array_equal(controlled.amps, plain.amps)

    def test_amplitudes_without_all_controls_untouched(self):
        state = uniform_state(3)
        out = apply_controlled_one_qubit_gate(state, {0, 1}, 2, HADAMARD)
        untouched = [i for i in range(8) if (i & 0b011) != 0b011]
        assert np.array_equal(out.amps[untouched], state.amps[untouched])

    def test_target_in_controls_rejected(self):
        with pytest.raises(ValueError):
            apply_controlled_one_qubit_gate(uniform_state(3), {0, 1}, 1, PAULI_X)

    def test_control_out_of_range(self):
        with pytest.raises(IndexError):
            apply_controlled_one_qubit_gate(uniform_state(2), {5}, 1, PAULI_X)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            apply_controlled_one_qubit_gate(uniform_state(2), {0}, 3, PAULI_X)


class TestPhaseFlip:
    def test_uniform_n2_flip_index_3(self):
        state = phase_flip_indices(uniform_state(2), {3})
        assert np.allclose(state.amps, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_uniform_n3_flip_index_5(self):
        state = phase_flip_indices(uniform_state(3), {5})
        r = 1.0 / math.sqrt(8.0)
        expected = np.full(8, r, dtype=complex)
        expected[5] = -r
        assert np.array_equal(state.amps, expected)

    def test_empty_set_is_identity(self):
        state = uniform_state(3)
        assert np.array_equal(phase_flip_indices(state, set()).amps, state.amps)

    def test_double_flip_is_identity_exactly(self):
        state = random_state(4, np.random.default_rng(11))
        twice = phase_flip_indices(phase_flip_indices(state, {1, 7, 9}), {1, 7, 9})
        assert np.array_equal(twice.amps, state.amps)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            phase_flip_indices(uniform_state(2), {4})


class TestTargetProbability:
    def test_uniform_n5_single_index(self):
        assert target_probability(uniform_state(5), {31}) == pytest.approx(
            1.0 / 32.0, abs=1e-15
        )

    def test_basis_state_certainty(self):
        assert target_probability(basis_state(2, 3), {3}) == 1.0

    def test_empty_set_is_zero(self):
        assert target_probability(uniform_state(3), set()) == 0.0

    def test_complement_sums_to_one(self):
        state = random_state(3, np.random.default_rng(3))
        p = target_probability(state, {0, 2, 5})
        q = target_probability(state, {1, 3, 4, 6, 7})
        assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            target_probability(uniform_state(2), {-1})

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), -0.5])
    def test_non_integer_index_is_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            target_probability(uniform_state(2), [bad])
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            phase_flip_indices(uniform_state(2), [bad])

    def test_numpy_integer_index_is_accepted(self):
        state = uniform_state(2)
        assert target_probability(state, [np.int64(3)]) == target_probability(state, [3])

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_equals_sum_of_squared_moduli_bitwise(self, count):
        # The run loop's records are this readout; pin its rounding.
        for seed in range(40):
            rng = np.random.default_rng([count, seed])
            state = random_state(int(rng.integers(2, 9)), rng)
            idx = [int(i) for i in rng.integers(0, state.dim, size=count)]
            expected = float((np.abs(state.amps[sorted(set(idx))]) ** 2).sum())
            assert target_probability(state, idx) == expected, (seed, idx)


class TestDenseOperator:
    def test_single_hadamard(self):
        op = dense_operator_of([(HADAMARD, set(), 0)], 1)
        assert np.allclose(op, HADAMARD.matrix, atol=1e-15)

    def test_empty_sequence_is_identity(self):
        assert np.array_equal(dense_operator_of([], 3), np.eye(8))

    def test_gate_sandwich_matches_mean_reflection(self):
        # H X (controlled Z) X H over all qubits equals 2|s><s| - I up to sign.
        n = 3
        seq = (
            [(HADAMARD, set(), q) for q in range(n)]
            + [(PAULI_X, set(), q) for q in range(n)]
            + [(PAULI_Z, {0, 1}, 2)]
            + [(PAULI_X, set(), q) for q in range(n)]
            + [(HADAMARD, set(), q) for q in range(n)]
        )
        op = dense_operator_of(seq, n)
        reflector = 2.0 / 8.0 * np.ones((8, 8)) - np.eye(8)
        err = min(np.abs(op - reflector).max(), np.abs(op + reflector).max())
        assert err < 1e-10

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            dense_operator_of([], 9)


class TestGateValidation:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            OneQubitGate(np.array([[1, 0], [0, 2]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            OneQubitGate(np.array([[np.nan, 0], [0, 1]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            OneQubitGate(np.eye(3))


class TestStateVectorValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            StateVector(2, np.zeros(5, dtype=complex))

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            StateVector(21, np.zeros(1 << 21, dtype=complex))


class TestRegisterDtype:
    """The package's register is float64."""

    def test_uniform_superposition_is_float64(self):
        assert uniform_superposition(4).dtype == np.float64
