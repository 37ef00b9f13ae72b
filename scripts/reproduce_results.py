#!/usr/bin/env python3
"""Regenerate every experiment table under results/.

Each job is one CLI invocation, so the files carry exactly what the tool
emits; rerunning the script reproduces them byte for byte.
"""

from pathlib import Path
from time import perf_counter

from groversim.cli import main

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

JOBS = [
    # first-iteration rotation angles: closed form vs numeric search
    ("angle_table.csv", ["angles", "--qubits", "2..12"]),
    # the same check past the paper's 12-qubit stop, up to the register's limit
    ("angle_table_large.csv", ["angles", "--qubits", "13..20"]),
    # iteration-count comparison, standard vs hybrid schedule
    ("sweep_hybrid.csv", ["sweep", "--qubits", "2..13", "--schedule", "hybrid-eq11-12"]),
    ("sweep_hybrid.json", ["sweep", "--qubits", "2..13", "--schedule", "hybrid-eq11-12", "--format", "json"]),
    # same comparison for the per-iteration adaptive angles, both readings
    ("sweep_adaptive_additive.csv", ["sweep", "--qubits", "2..13", "--schedule", "adaptive-eq10", "--eq10-interpretation", "additive"]),
    ("sweep_adaptive_multiplicative.csv", ["sweep", "--qubits", "2..13", "--schedule", "adaptive-eq10", "--eq10-interpretation", "multiplicative"]),
    # the 5-qubit showcase traces
    ("trace_n5_standard.csv", ["run", "--qubits", "5", "--schedule", "standard", "--iterations", "4"]),
    ("trace_n5_hybrid.csv", ["run", "--qubits", "5", "--schedule", "hybrid-eq11-12", "--iterations", "3"]),
    # amplitude recurrence next to the full simulation, small and large N
    ("recurrence_n5.csv", ["recurrence", "--qubits", "5", "--iterations", "7"]),
    ("recurrence_n20.csv", ["recurrence", "--qubits", "20", "--iterations", "7"]),
    # long success-probability curves with the sin^2 models alongside
    ("curve_n13_standard.csv", ["curve", "--qubits", "13", "--iterations", "140", "--schedule", "standard", "--with-model"]),
    ("curve_n13_hybrid.csv", ["curve", "--qubits", "13", "--iterations", "140", "--schedule", "hybrid-eq11-12", "--with-model"]),
]


def run():
    RESULTS_DIR.mkdir(exist_ok=True)
    for filename, args in JOBS:
        out = RESULTS_DIR / filename
        start = perf_counter()
        main(args + ["--out", str(out)], standalone_mode=False)
        print(f"wrote {out} in {perf_counter() - start:.2f} s")


if __name__ == "__main__":
    run()
