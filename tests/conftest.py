import numpy as np
import pytest
from click.testing import CliRunner

from groversim import HybridOrder, RatioInterpretation, Schedule, ScheduleKind, analysis, grover
from groversim.cli import main as cli_main
from oracle import StateVector

# Every ScheduleKind, HybridOrder and RatioInterpretation, and a
# non-default rotation target.
SCHEDULES = [
    Schedule(),
    Schedule(ScheduleKind.FIXED),
    Schedule(ScheduleKind.ADAPTIVE),
    Schedule(ScheduleKind.ADAPTIVE, RatioInterpretation.MULTIPLICATIVE),
    Schedule(ScheduleKind.HYBRID),
    Schedule(ScheduleKind.HYBRID, hybrid_order=HybridOrder.RY_THEN_H),
    Schedule(ScheduleKind.HYBRID, rotation_target=0),
]


def random_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random normalized state (good enough for kernel checks)."""
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(n_qubits, amps)


def random_real_amps(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """A random normalized float64 register, as the package runs."""
    amps = rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def diffuse(amps: np.ndarray, gate: np.ndarray, target: int | None = None) -> np.ndarray:
    """The run loop's diffusion kernel, grover._diffuse, applied out of
    place to a float64 register; target defaults to the highest qubit."""
    n = amps.size.bit_length() - 1
    target = n - 1 if target is None else target
    result, _ = grover._diffuse(amps, np.empty_like(amps), np.empty_like(amps), gate, target)
    return result


@pytest.fixture(autouse=True)
def cold_crests():
    """Each test starts without memoized sweep crests, so none it makes
    under a patched kernel can reach a later test."""
    analysis._crest.cache_clear()


@pytest.fixture
def cli():
    runner = CliRunner()

    def invoke(*args):
        return runner.invoke(cli_main, [str(a) for a in args])

    return invoke


def csv_rows(text: str) -> tuple[list[str], list[dict]]:
    """Parse CSV output into (header, rows-as-string-dicts)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:] if line]
    return header, rows
