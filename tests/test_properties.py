"""Invariant checks over randomized circuits, states and angles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    StateVector,
    apply_controlled_one_qubit_gate,
    apply_one_qubit_gate,
    dense_operator_of,
    gate_hr_y,
    gate_r_y,
    gate_zr_y,
    modified_diffusion,
    phase_flip_indices,
    standard_diffusion_mean,
    uniform_superposition,
)
from conftest import random_state

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)

_FIXED_GATES = {"h": HADAMARD, "x": PAULI_X, "z": PAULI_Z}
_PARAM_GATES = {"ry": gate_r_y, "zry": gate_zr_y, "hry": gate_hr_y}


@st.composite
def circuits(draw, max_qubits=10, max_gates=20):
    """(n, ops) with ops = [(OneQubitGate, controls, target), ...]."""
    n = draw(st.integers(min_value=2, max_value=max_qubits))
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_gates))):
        name = draw(st.sampled_from(sorted(_FIXED_GATES) + sorted(_PARAM_GATES)))
        if name in _FIXED_GATES:
            gate = _FIXED_GATES[name]
        else:
            gate = _PARAM_GATES[name](draw(angles))
        wires = draw(st.permutations(range(n)))
        span = draw(st.integers(min_value=1, max_value=min(4, n)))
        ops.append((gate, frozenset(wires[1:span]), wires[0]))
    return n, ops


def apply_ops(state: StateVector, ops) -> StateVector:
    for gate, controls, target in ops:
        state = apply_controlled_one_qubit_gate(state, controls, target, gate)
    return state


@given(circuits())
@settings(max_examples=60, deadline=None)
def test_random_circuits_preserve_norm(circuit):
    n, ops = circuit
    state = apply_ops(uniform_superposition(n), ops)
    assert abs(state.norm_squared() - 1.0) < 1e-10


@given(circuits(max_qubits=6, max_gates=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_dense_operator(circuit, seed):
    n, ops = circuit
    state = random_state(n, np.random.default_rng(seed))
    sequential = apply_ops(state, ops)
    dense = dense_operator_of(ops, n) @ state.amps
    assert np.abs(sequential.amps - dense).max() < 1e-10


def test_bit_order_exhaustive():
    # X on qubit j must map basis index x to x ^ (1 << j), for every x, j, n.
    for n in range(1, 5):
        for j in range(n):
            for x in range(1 << n):
                amps = np.zeros(1 << n, dtype=complex)
                amps[x] = 1.0
                out = apply_one_qubit_gate(StateVector(n, amps), j, PAULI_X)
                expected = np.zeros(1 << n, dtype=complex)
                expected[x ^ (1 << j)] = 1.0
                assert np.array_equal(out.amps, expected)


@given(
    st.integers(min_value=1, max_value=6),
    st.sets(st.integers(min_value=0, max_value=63)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_phase_flip_equals_diagonal_sign_operator(n, indices, seed):
    indices = {i for i in indices if i < (1 << n)}
    state = random_state(n, np.random.default_rng(seed))
    flipped = phase_flip_indices(state, indices)
    diag = np.ones(1 << n)
    diag[sorted(indices)] = -1.0
    assert np.array_equal(flipped.amps, diag * state.amps)
    assert np.array_equal(phase_flip_indices(flipped, indices).amps, state.amps)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_diffusion_gate_form_matches_mean_form(n, seed):
    state = random_state(n, np.random.default_rng(seed))
    gate = modified_diffusion(state, 0.0).amps
    mean = standard_diffusion_mean(state).amps
    assert min(np.abs(gate - mean).max(), np.abs(gate + mean).max()) < 1e-10


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_overall_sign_never_changes_probabilities(n, seed):
    state = random_state(n, np.random.default_rng(seed))
    negated = StateVector(n, -state.amps)
    assert np.array_equal(state.probabilities(), negated.probabilities())


@given(angles)
@settings(max_examples=100, deadline=None)
def test_zry_factorization(theta):
    product = gate_r_y(theta).matrix @ PAULI_Z.matrix
    assert np.abs(gate_zr_y(theta).matrix - product).max() < 1e-15


def test_hx_is_quarter_turn():
    hx = HADAMARD.matrix @ PAULI_X.matrix
    assert np.abs(hx - gate_r_y(-math.pi / 2).matrix).max() < 1e-15
