"""Statevector simulation of Grover search with phase-rotated diffusion schedules."""

__version__ = "0.1.0"

from .statevector import (
    HADAMARD,
    MAX_QUBITS,
    NormDriftError,
    SizeLimitError,
)
from .grover import (
    GroverConfig,
    HybridOrder,
    IterationRecord,
    RatioInterpretation,
    Schedule,
    ScheduleKind,
    adaptive_phase,
    fixed_phase,
    gate_hr_y,
    gate_r_y,
    gate_ry_h,
    gate_zr_y,
    iterate_grover,
    n_optimal_standard,
)
from .analysis import (
    ComparisonRow,
    SuccessModel,
    SweepReport,
    find_peak_iteration,
    optimal_phase_search,
    recurrence_table,
    success_probability_modified,
    success_probability_standard,
    sweep_compare,
)

__all__ = [
    "__version__",
    # statevector
    "HADAMARD",
    "MAX_QUBITS",
    "NormDriftError",
    "SizeLimitError",
    # grover
    "GroverConfig",
    "HybridOrder",
    "IterationRecord",
    "RatioInterpretation",
    "Schedule",
    "ScheduleKind",
    "adaptive_phase",
    "fixed_phase",
    "gate_hr_y",
    "gate_r_y",
    "gate_ry_h",
    "gate_zr_y",
    "iterate_grover",
    "n_optimal_standard",
    # analysis
    "ComparisonRow",
    "SuccessModel",
    "SweepReport",
    "find_peak_iteration",
    "optimal_phase_search",
    "recurrence_table",
    "success_probability_modified",
    "success_probability_standard",
    "sweep_compare",
]
