"""The four benchmark workloads and the output checks that feed fail_ratio.

Each workload is a closed loop: one process runs its commands one after
another through groversim.cli.main, each writing one file with --out. The
only randomness is the workload seed, which picks the marked index of the
n=16 standard run; the program receives only that index.

Every command has one check. It takes the command's output bytes plus the
other outputs of the same pass and returns a description of what is wrong,
or None when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Absolute tolerance on amplitudes and probabilities, the recurrence
# tolerance the project holds its cross-checks to.
RECURRENCE_TOL = 1e-12

LARGE_QUBITS = 16
LARGE_ITERATIONS = 20
HUGE_QUBITS = 20
LONG_QUBITS = 30
LONG_ITERATIONS = 51474

Check = Callable[[bytes, dict], "str | None"]


@dataclass(frozen=True)
class Command:
    output: str  # file name passed to --out
    argv: tuple[str, ...]
    check: Check


# Largest register each workload simulates as a statevector; None when it
# builds none.
LARGEST_QUBITS = {
    "paper-tables": 13,
    "angle-search": 9,
    "large-register": HUGE_QUBITS,
    "recurrence-long": None,
}
WORKLOADS = tuple(LARGEST_QUBITS)


def state_bytes(workload: str) -> int:
    """Bytes of the workload's largest complex128 statevector (0 if none)."""
    n = LARGEST_QUBITS[workload]
    return 0 if n is None else 16 << n


def marked_index(seed: int) -> int:
    """Marked basis index of the n=16 standard run; seed 0 marks 2^n - 1."""
    if seed == 0:
        return (1 << LARGE_QUBITS) - 1
    return random.Random(seed).randrange(1 << LARGE_QUBITS)


@cache
def expected_digests() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def digest_check(key: str) -> Check:
    """Byte equality with an output recorded from the reference commit."""

    def check(data: bytes, outputs: dict) -> str | None:
        got = hashlib.sha256(data).hexdigest()
        want = expected_digests()[key]
        return None if got == want else f"sha256 {got} differs from recorded {key} {want}"

    return check


def recurrence_amplitudes(n_qubits: int, iterations: int) -> list[float]:
    """Marked amplitude after 1..iterations standard Grover iterations.

    The benchmark's own two-amplitude recurrence (oracle flip, then
    reflection about the mean), independent of the program under test.
    """
    big_n = 2.0**n_qubits
    a = b = 1.0 / math.sqrt(big_n)
    out = []
    for _ in range(iterations):
        m = ((big_n - 1.0) * b - a) / big_n
        a, b = 2.0 * m + a, 2.0 * m - b
        out.append(a)
    return out


def standard_run_check(n_qubits: int, iterations: int, marked: int) -> Check:
    """JSON `run` output: each probability within RECURRENCE_TOL of a_i^2."""

    def check(data: bytes, outputs: dict) -> str | None:
        doc = json.loads(data)
        meta = doc["meta"]
        if (meta["qubits"], meta["iterations"], meta["marked"]) != (n_qubits, iterations, [marked]):
            return f"meta describes another run: {meta}"
        rows = doc["rows"]
        if [r["iteration"] for r in rows] != list(range(1, iterations + 1)):
            return "iteration column is not 1..iterations"
        for row, a in zip(rows, recurrence_amplitudes(n_qubits, iterations)):
            err = abs(row["target_probability"] - a * a)
            if not err <= RECURRENCE_TOL:
                return f"iteration {row['iteration']}: probability off by {err:.3g}"
        return None

    return check


def closed_form_amplitude(n_qubits: int, iteration: int) -> float:
    """Marked amplitude entering iteration i: sin((2i-1) * asin(2^(-n/2)))."""
    return math.sin((2 * iteration - 1) * math.asin(2.0 ** (-n_qubits / 2.0)))


def recurrence_json_check(n_qubits: int, iterations: int) -> Check:
    """JSON `recurrence` output: every amplitude within RECURRENCE_TOL of the closed form."""

    def check(data: bytes, outputs: dict) -> str | None:
        rows = json.loads(data)["rows"]
        if [r["iteration"] for r in rows] != list(range(1, iterations + 1)):
            return "iteration column is not 1..iterations"
        for row in rows:
            err = abs(row["amplitude_recurrence"] - closed_form_amplitude(n_qubits, row["iteration"]))
            if not err <= RECURRENCE_TOL:
                return f"iteration {row['iteration']}: amplitude off by {err:.3g}"
        return None

    return check


def csv_matches_json_check(json_output: str) -> Check:
    """CSV output equals the JSON output of the same command, cell by cell.

    CSV keeps 10 significant digits, so it cannot meet RECURRENCE_TOL by
    itself; the check requires each cell to be the CSV rendering of the
    full-precision JSON value, whose accuracy the JSON check covers.
    """

    def check(data: bytes, outputs: dict) -> str | None:
        if json_output not in outputs:
            return f"no {json_output} to compare with"
        rows = json.loads(outputs[json_output])["rows"]
        lines = data.decode().split("\n")
        if not rows or lines[-1] != "" or len(lines) != len(rows) + 2:
            return f"{len(lines) - 1} CSV lines for {len(rows)} JSON rows"
        columns = list(rows[0])
        if lines[0] != ",".join(columns):
            return f"header {lines[0]!r}"
        for line, row in zip(lines[1:], rows):
            want = ",".join(_csv_cell(row[c]) for c in columns)
            if line != want:
                return f"row {row[columns[0]]}: {line!r} != {want!r}"
        return None

    return check


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


# Every job of scripts/reproduce_results.py except angle_table.csv, frozen
# here so that the workload cannot change under a later commit.
PAPER_JOBS = (
    ("sweep_hybrid.csv", ("sweep", "--qubits", "2..13", "--schedule", "hybrid-eq11-12")),
    ("sweep_hybrid.json", ("sweep", "--qubits", "2..13", "--schedule", "hybrid-eq11-12", "--format", "json")),
    ("sweep_adaptive_additive.csv", ("sweep", "--qubits", "2..13", "--schedule", "adaptive-eq10", "--eq10-interpretation", "additive")),
    ("sweep_adaptive_multiplicative.csv", ("sweep", "--qubits", "2..13", "--schedule", "adaptive-eq10", "--eq10-interpretation", "multiplicative")),
    ("trace_n5_standard.csv", ("run", "--qubits", "5", "--schedule", "standard", "--iterations", "4")),
    ("trace_n5_hybrid.csv", ("run", "--qubits", "5", "--schedule", "hybrid-eq11-12", "--iterations", "3")),
    ("recurrence_n5.csv", ("recurrence", "--qubits", "5", "--iterations", "7")),
    ("recurrence_n20.csv", ("recurrence", "--qubits", "20", "--iterations", "7")),
    ("curve_n13_standard.csv", ("curve", "--qubits", "13", "--iterations", "140", "--schedule", "standard", "--with-model")),
    ("curve_n13_hybrid.csv", ("curve", "--qubits", "13", "--iterations", "140", "--schedule", "hybrid-eq11-12", "--with-model")),
)


def commands_for(name: str, marked: int) -> list[Command]:
    """The commands of one workload pass, in the order they run."""
    if name == "paper-tables":
        return [Command(out, argv, digest_check(out)) for out, argv in PAPER_JOBS]
    if name == "angle-search":
        return [Command("angle_table_n2-9.csv", ("angles", "--qubits", "2..9"), digest_check("angle_table_n2-9.csv"))]
    if name == "large-register":
        return [
            Command(
                f"run_n{LARGE_QUBITS}_standard.json",
                ("run", "--qubits", str(LARGE_QUBITS), "--iterations", str(LARGE_ITERATIONS),
                 "--schedule", "standard", "--marked", str(marked), "--format", "json"),
                standard_run_check(LARGE_QUBITS, LARGE_ITERATIONS, marked),
            ),
            Command(
                f"run_n{HUGE_QUBITS}_hybrid.csv",
                ("run", "--qubits", str(HUGE_QUBITS), "--iterations", "3", "--schedule", "hybrid-eq11-12"),
                digest_check(f"run_n{HUGE_QUBITS}_hybrid.csv"),
            ),
        ]
    if name == "recurrence-long":
        argv = ("recurrence", "--qubits", str(LONG_QUBITS), "--iterations", str(LONG_ITERATIONS))
        json_out = f"recurrence_n{LONG_QUBITS}.json"
        return [
            Command(f"recurrence_n{LONG_QUBITS}.csv", argv, csv_matches_json_check(json_out)),
            Command(json_out, argv + ("--format", "json"), recurrence_json_check(LONG_QUBITS, LONG_ITERATIONS)),
        ]
    raise ValueError(f"unknown workload {name!r}")
