"""The package root exports the documented API, and README's example runs as written."""

import re
from pathlib import Path

import groversim
from groversim import analysis, grover, statevector

README = Path(__file__).resolve().parent.parent / "README.md"

# Package order: the statevector names, then grover's, then analysis's.
PUBLIC_API = ["__version__", *"""
    HADAMARD MAX_QUBITS NormDriftError SizeLimitError
    GroverConfig HybridOrder IterationRecord RatioInterpretation
    Schedule ScheduleKind adaptive_phase fixed_phase gate_hr_y gate_r_y
    gate_ry_h gate_zr_y iterate_grover n_optimal_standard
    ComparisonRow SuccessModel SweepReport find_peak_iteration optimal_phase_search
    recurrence_table success_probability_modified success_probability_standard
    sweep_compare
""".split()]
# The gate-by-gate test oracle and the operator-level API live in
# tests/oracle.py, not in the package.
ORACLE_NAMES = """
    apply_one_qubit_gate apply_controlled_one_qubit_gate dense_operator_of basis_state
    PAULI_X PAULI_Z MAX_DENSE_QUBITS OneQubitGate StateVector phase_flip_indices
    apply_oracle modified_diffusion target_probability
""".split()


def test_all_is_the_documented_api():
    assert groversim.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        getattr(groversim, name)


def test_iterate_grover_is_the_only_run_interface():
    for module in (groversim, grover):
        assert not hasattr(module, "run_grover")
        assert not hasattr(module, "RunTrace")


def test_test_oracle_is_not_shipped():
    for module in (groversim, grover, statevector, analysis):
        assert [name for name in ORACLE_NAMES if hasattr(module, name)] == []


def test_readme_library_example_prints_its_comment(capsys):
    block = re.search(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    imports = [line for line in block.splitlines() if "import" in line]
    assert imports and all(line.startswith("from groversim import ") for line in imports)
    exec(block, {})
    expected = re.search(r"print\(.*\)\s+# (\S+)\n", block).group(1)
    assert capsys.readouterr().out == expected + "\n"
