"""Self-tests of the benchmark: span arithmetic, output checks and exact counts.

Run from the repository root:  python3 perfbench/selftest.py
(The file name keeps it out of the project's pytest collection.)
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import groversim.cli  # noqa: E402
from click.testing import CliRunner  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, instrumented, layer_metrics, self_times  # noqa: E402
from run import BLOCK_S, block_median, blocks  # noqa: E402

TOL = workloads.RECURRENCE_TOL


def cli_output(*argv: str) -> bytes:
    result = CliRunner().invoke(groversim.cli.main, list(argv))
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


def flip_last_digit(text: str) -> str:
    head, digit = text[:-1], text[-1]
    return head + ("1" if digit == "0" else "0")


class SelfTimeTest(unittest.TestCase):
    # span:      0  1  2  3   4
    # nesting:   0 > (1, 2 > 3); 4 alone
    START = np.array([0.0, 1.0, 5.0, 6.0, 12.0])
    END = np.array([10.0, 4.0, 9.0, 7.0, 13.0])
    PARENT = np.array([-1, 0, 0, 2, -1])

    def test_self_time_subtracts_direct_children_only(self):
        np.testing.assert_allclose(self_times(self.START, self.END, self.PARENT), [3.0, 3.0, 3.0, 1.0, 1.0])

    def test_layer_metrics_use_self_time(self):
        labels = ["cli.main", "grover.modified_diffusion", "statevector.apply_one_qubit_gate"]
        spans = {
            "name": np.array([0, 1, 1, 2, 0]),
            "parent": self.PARENT,
            "start": self.START,
            "end": self.END,
            "size": np.array([-1, 3, 3, 3, -1]),
            "failed": np.array([0, 0, 0, 0, 1]),
        }
        metrics = layer_metrics(labels, spans)
        self.assertEqual(metrics["cli.self_s"], 3.0 + 1.0)
        self.assertEqual(metrics["cli.commands"], 2)
        self.assertEqual(metrics["cli.errors"], 1)
        self.assertEqual(metrics["grover.diffusion_s"], 3.0 + 4.0)
        self.assertEqual(metrics["grover.diffusion_self_s"], 3.0 + 3.0)
        self.assertEqual(metrics["grover.gates_per_diffusion"], 0.5)
        self.assertEqual(metrics["statevector.gate_bytes_computed"], 32 * 8)


class BlockTest(unittest.TestCase):
    """wall_s and cpu_s: median over blocks of at least BLOCK_S seconds of passes."""

    def test_short_passes_pool_and_remainder_joins_last_block(self):
        passes = [{"wall_s": BLOCK_S / 2, "cpu_s": 1.0}] * 5
        self.assertEqual([len(b) for b in blocks(passes)], [2, 3])

    def test_long_passes_stay_alone_and_one_short_run_is_one_block(self):
        self.assertEqual([len(b) for b in blocks([{"wall_s": BLOCK_S}] * 3)], [1, 1, 1])
        self.assertEqual([len(b) for b in blocks([{"wall_s": 0.1}] * 3)], [3])

    def test_median_of_block_means(self):
        walls = [1.0, 3.0, 1.0, 3.0, 2.0, 6.0]  # median over passes: 2.5
        grouped = blocks([{"wall_s": w * BLOCK_S / 4} for w in walls])
        self.assertEqual([len(b) for b in grouped], [2, 2, 2])
        self.assertAlmostEqual(block_median(grouped, "wall_s"), 2.0 * BLOCK_S / 4)


class OutputCheckTest(unittest.TestCase):
    """Each check accepts real output and rejects it perturbed just past tolerance."""

    def test_recorded_digests_match_committed_results(self):
        results = ROOT / "results"
        if not results.is_dir():
            self.skipTest("no results/ in this checkout")
        digests = workloads.expected_digests()
        for name, _ in workloads.PAPER_JOBS:
            data = (results / name).read_bytes()
            self.assertEqual(hashlib.sha256(data).hexdigest(), digests[name], name)
            check = workloads.digest_check(name)
            self.assertIsNone(check(data, {}))
            self.assertIsNotNone(check(data[:-2] + bytes([data[-2] ^ 1]) + data[-1:], {}), name)
        angle_rows = (results / "angle_table.csv").read_bytes().splitlines(keepends=True)[:9]
        self.assertIsNone(workloads.digest_check("angle_table_n2-9.csv")(b"".join(angle_rows), {}))

    def test_standard_run_check(self):
        n, iterations, marked = 10, 30, 123
        check = workloads.standard_run_check(n, iterations, marked)
        data = cli_output("run", "--qubits", str(n), "--iterations", str(iterations), "--schedule", "standard",
                          "--marked", str(marked), "--format", "json")
        self.assertIsNone(check(data, {}))
        self.assertIsNotNone(workloads.standard_run_check(n, iterations, marked + 1)(data, {}))
        doc = json.loads(data)
        a = workloads.recurrence_amplitudes(n, iterations)[6]
        for shift, accepted in ((0.99 * TOL, True), (1.01 * TOL, False)):
            doc["rows"][6]["target_probability"] = a * a + shift
            self.assertEqual(check(json.dumps(doc).encode(), {}) is None, accepted, shift)

    def test_recurrence_checks(self):
        n, iterations = workloads.LONG_QUBITS, 300
        argv = ("recurrence", "--qubits", str(n), "--iterations", str(iterations))
        csv_data, json_data = cli_output(*argv), cli_output(*argv, "--format", "json")
        outputs = {"r.json": json_data}
        json_check = workloads.recurrence_json_check(n, iterations)
        csv_check = workloads.csv_matches_json_check("r.json")
        self.assertIsNone(json_check(json_data, outputs))
        self.assertIsNone(csv_check(csv_data, outputs))

        doc = json.loads(json_data)
        exact = workloads.closed_form_amplitude(n, 200)
        for shift, accepted in ((0.99 * TOL, True), (1.01 * TOL, False)):
            doc["rows"][199]["amplitude_recurrence"] = exact - shift
            self.assertEqual(json_check(json.dumps(doc).encode(), outputs) is None, accepted, shift)

        lines = csv_data.decode().split("\n")
        cells = lines[150].split(",")
        cells[1] = flip_last_digit(cells[1])
        lines[150] = ",".join(cells)
        self.assertIsNotNone(csv_check("\n".join(lines).encode(), outputs))
        self.assertIsNotNone(csv_check(csv_data, {}))

    def test_marked_index_comes_from_seed(self):
        self.assertEqual(workloads.marked_index(0), (1 << workloads.LARGE_QUBITS) - 1)
        self.assertEqual(workloads.marked_index(7), workloads.marked_index(7))
        indices = {workloads.marked_index(seed) for seed in range(1, 50)}
        self.assertGreater(len(indices), 40)
        self.assertTrue(all(0 <= i < 1 << workloads.LARGE_QUBITS for i in indices))


class ExactCountTest(unittest.TestCase):
    COMMANDS = (
        ("sweep.csv", ("sweep", "--qubits", "2..6", "--schedule", "hybrid-eq11-12")),
        ("angles.csv", ("angles", "--qubits", "2..3")),
        ("recurrence.csv", ("recurrence", "--qubits", "30", "--iterations", "50")),
    )

    def traced_pass(self) -> tuple[Tracer, dict]:
        tracer = Tracer()
        with tempfile.TemporaryDirectory() as out, instrumented(tracer):
            for name, argv in self.COMMANDS:
                groversim.cli.main([*argv, "--out", str(Path(out) / name)], standalone_mode=False)
        return tracer, layer_metrics(tracer.labels, tracer.arrays())

    def test_counts_repeat_and_match_formulas(self):
        tracer, first = self.traced_pass()
        _, second = self.traced_pass()
        counts = {k: v for k, v in first.items() if not (k.endswith("_s") or ".s_per_iteration." in k)}
        self.assertEqual(counts, {k: second[k] for k in counts})

        spans = tracer.arrays()
        diffusion_ids = [i for i, label in enumerate(tracer.labels) if label in ("grover.modified_diffusion", "grover.standard_diffusion_gates")]
        gate_ids = [i for i, label in enumerate(tracer.labels) if label.startswith("statevector.apply_")]
        diffusions = np.flatnonzero(np.isin(spans["name"], diffusion_ids))
        gates_under = np.bincount(spans["parent"][np.isin(spans["name"], gate_ids)], minlength=len(spans["name"]))
        np.testing.assert_array_equal(gates_under[diffusions], 4 * spans["size"][diffusions] + 1)

        grid = len(np.arange(-math.pi, math.pi, 1e-3))
        self.assertEqual(grid, 6284)
        golden = 2 + math.ceil(math.log(2e-3 / 1e-9) / math.log((1 + math.sqrt(5)) / 2))
        self.assertEqual(first["analysis.evals_per_angle"], grid + golden)
        self.assertEqual(first["analysis.objective_evals"], 2 * (grid + golden))
        self.assertEqual(first["analysis.recurrence_rows"], 50)
        self.assertEqual(first["cli.commands"], 3)
        self.assertEqual(sum(first[f"{layer}.errors"] for layer in ("statevector", "grover", "analysis", "cli")), 0)

    def test_instrumenting_is_undone(self):
        before = groversim.cli.main, groversim.grover.apply_one_qubit_gate, groversim.apply_one_qubit_gate
        with instrumented(Tracer()):
            self.assertIsNot(groversim.grover.apply_one_qubit_gate, before[1])
            self.assertIs(groversim.grover.apply_one_qubit_gate, groversim.statevector.apply_one_qubit_gate)
        self.assertEqual((groversim.cli.main, groversim.grover.apply_one_qubit_gate, groversim.apply_one_qubit_gate), before)


if __name__ == "__main__":
    unittest.main()
