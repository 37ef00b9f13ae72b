"""Invariant checks over randomized circuits, states and angles."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import gate_hr_y, gate_r_y, gate_ry_h, gate_zr_y, statevector
from groversim.analysis import standard_diffusion_mean
from conftest import diffuse, hadamard, random_real_amps, random_state
from oracle import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    OneQubitGate,
    StateVector,
    apply_one_qubit_gate,
    apply_sequence,
    assert_real_part_bytes,
    dense_operator_of,
    layer,
    modified_diffusion,
    phase_flip_indices,
    uniform_state,
)

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
            gate = OneQubitGate(_PARAM_GATES[name](draw(angles)))
        wires = draw(st.permutations(range(n)))
        span = draw(st.integers(min_value=1, max_value=min(4, n)))
        ops.append((gate, frozenset(wires[1:span]), wires[0]))
    return n, ops


@given(circuits())
@settings(max_examples=60, deadline=None)
def test_random_circuits_preserve_norm(circuit):
    n, ops = circuit
    state = apply_sequence(uniform_state(n), ops)
    assert abs(state.norm_squared() - 1.0) < 1e-10


@given(circuits(max_qubits=6, max_gates=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_dense_operator(circuit, seed):
    n, ops = circuit
    state = random_state(n, np.random.default_rng(seed))
    sequential = apply_sequence(state, ops)
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
    amps = random_real_amps(n, np.random.default_rng(seed))
    gate = diffuse(amps, gate_zr_y(0.0))
    mean = standard_diffusion_mean(amps)
    assert min(np.abs(gate - mean).max(), np.abs(gate + mean).max()) < 1e-10


@given(
    st.integers(min_value=1, max_value=10),
    st.sampled_from([gate_zr_y, gate_ry_h, gate_hr_y]),
    angles,
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_diffusion_equals_gate_by_gate_circuit_bytewise(n, inner_gate, theta, target, seed):
    amps = random_real_amps(n, np.random.default_rng(seed))
    gate, target = inner_gate(theta), target % n
    expected = modified_diffusion(StateVector(n, amps), gate, target)
    assert diffuse(amps, gate, target).tobytes() == expected.amps.real.tobytes()


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_overall_sign_never_changes_probabilities(n, seed):
    state = random_state(n, np.random.default_rng(seed))
    negated = StateVector(n, -state.amps)
    assert np.array_equal(np.abs(state.amps) ** 2, np.abs(negated.amps) ** 2)


@given(angles)
@settings(max_examples=100, deadline=None)
def test_zry_factorization(theta):
    product = gate_r_y(theta) @ PAULI_Z.matrix
    assert np.abs(gate_zr_y(theta) - product).max() < 1e-15


def test_hx_is_quarter_turn():
    hx = HADAMARD.matrix @ PAULI_X.matrix
    assert np.abs(hx - gate_r_y(-math.pi / 2)).max() < 1e-15


@given(
    st.integers(min_value=1, max_value=10),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_float64_kernel_is_real_part_of_complex128_kernel_bytewise(n, signed_zeros, seed):
    # The signed-zero family draws most entries from +-0.0 and the rest as
    # random reals. The bytes are the real part of the oracle's complex128
    # per-qubit kernel, up to assert_real_part_bytes' one exception at n = 2.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=1 << n)
    if signed_zeros:
        x = np.where(rng.random(x.shape) < 0.7, rng.choice([0.0, -0.0], size=x.shape), x)
    result, _ = hadamard(x, np.empty_like(x), np.empty_like(x))
    assert_real_part_bytes(result, apply_sequence(StateVector(n, x), layer(HADAMARD, n)))


@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["real", "signed-zeros", "wide-range"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_last_entry_equals_full_kernel_bytewise(n, family, seed):
    # The angle search's close computes only entry N - 1 of H^n; that entry
    # is the full kernel's, byte for byte, on any register.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=1 << n)
    if family == "signed-zeros":
        x = np.where(rng.random(x.shape) < 0.7, rng.choice([0.0, -0.0], size=x.shape), x)
    elif family == "wide-range":
        x *= np.exp2(rng.integers(-1100, 64, size=x.shape).astype(float))
    expected, _ = hadamard(x, np.empty_like(x), np.empty_like(x))
    result, _ = hadamard(x, np.empty_like(x), np.empty_like(x), last_entry=True)
    assert result[-1:].tobytes() == expected[-1:].tobytes()


@given(angles)
@settings(max_examples=100, deadline=None)
def test_real_gates_are_real_part_of_complex_products(theta):
    ry, h = gate_r_y(theta).astype(complex), statevector.HADAMARD.astype(complex)
    assert gate_ry_h(theta).tobytes() == (ry @ h).real.tobytes()
    assert gate_hr_y(theta).tobytes() == (h @ ry).real.tobytes()
