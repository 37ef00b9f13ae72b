import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import (
    HADAMARD,
    gate_hr_y,
    gate_r_y,
    gate_ry_h,
    gate_zr_y,
)
from oracle import PAULI_X, PAULI_Z

RNG = np.random.default_rng(2024)


def test_r_y_zero_is_identity():
    assert np.array_equal(gate_r_y(0.0), np.eye(2))


def test_r_y_minus_half_pi_equals_hx():
    hx = HADAMARD @ PAULI_X.matrix
    assert np.abs(gate_r_y(-math.pi / 2) - hx).max() < 1e-15


def test_r_y_pi():
    assert np.abs(gate_r_y(math.pi) - np.array([[0, -1], [1, 0]])).max() < 1e-15


def test_zr_y_zero_is_exactly_z():
    assert np.array_equal(gate_zr_y(0.0), PAULI_Z.matrix)


def test_zr_y_pi_is_x():
    assert np.abs(gate_zr_y(math.pi) - PAULI_X.matrix).max() < 1e-15


def test_zr_y_determinant_is_minus_one():
    for theta in RNG.uniform(-math.pi, math.pi, size=50):
        assert np.linalg.det(gate_zr_y(theta)) == pytest.approx(-1.0, abs=1e-12)


def test_zr_y_is_r_y_times_z():
    for theta in RNG.uniform(-2 * math.pi, 2 * math.pi, size=100):
        product = gate_r_y(theta) @ PAULI_Z.matrix
        assert np.abs(gate_zr_y(theta) - product).max() < 1e-15


def test_hr_y_zero_is_hadamard():
    assert np.array_equal(gate_hr_y(0.0), HADAMARD)


def test_hr_y_pi():
    expected = HADAMARD @ np.array([[0, -1], [1, 0]])
    assert np.abs(gate_hr_y(math.pi) - expected).max() < 1e-15


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_constructors_return_orthogonal_float64_matrices(theta):
    # The constructors build their entries from cos and sin and check
    # nothing but the angle; this is the unitarity check they rely on.
    for m in (HADAMARD, gate_r_y(theta), gate_zr_y(theta), gate_hr_y(theta), gate_ry_h(theta)):
        assert m.dtype == np.float64 and m.shape == (2, 2) and m.flags.c_contiguous
        assert np.abs(m.T @ m - np.eye(2)).max() <= 1e-12


def test_ry_h_is_hr_y_with_negated_angle():
    for theta in RNG.uniform(-math.pi, math.pi, size=50):
        assert np.abs(gate_ry_h(theta) - gate_hr_y(-theta)).max() < 1e-15


def test_ry_h_matrix_order():
    theta = 1.234
    expected = gate_r_y(theta) @ HADAMARD
    assert np.abs(gate_ry_h(theta) - expected).max() < 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("ctor", [gate_r_y, gate_zr_y, gate_hr_y, gate_ry_h])
def test_non_finite_angle_rejected(ctor, bad):
    with pytest.raises(ValueError):
        ctor(bad)
