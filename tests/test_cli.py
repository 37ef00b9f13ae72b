import importlib.util
import json
import math
from pathlib import Path

import pytest

from conftest import csv_rows

THETA0_N5 = math.asin(1.0 / math.sqrt(32.0))
REPO_DIR = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_DIR / "results"


def _reproduce_jobs():
    path = REPO_DIR / "scripts" / "reproduce_results.py"
    spec = importlib.util.spec_from_file_location("reproduce_results", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.JOBS


REPRODUCE_JOBS = _reproduce_jobs()


class TestRunCommand:
    def test_n2_standard_single_iteration(self, cli):
        result = cli("run", "--qubits", 2, "--schedule", "standard", "--iterations", 1)
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert header == ["iteration", "theta_used", "target_probability", "mean_amplitude"]
        assert len(rows) == 1
        assert float(rows[0]["target_probability"]) == pytest.approx(1.0, abs=1e-9)

    def test_n5_standard_four_iterations(self, cli):
        result = cli("run", "--qubits", 5, "--schedule", "standard", "--iterations", 4)
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        final = float(rows[-1]["target_probability"])
        assert final == pytest.approx(math.sin(9.0 * THETA0_N5) ** 2, abs=1e-9)

    def test_n5_hybrid_three_iterations(self, cli):
        result = cli("run", "--qubits", 5, "--schedule", "hybrid-eq11-12", "--iterations", 3)
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        assert float(rows[-1]["target_probability"]) == pytest.approx(0.997461, abs=5e-3)

    def test_default_iterations_and_marked(self, cli):
        result = cli("run", "--qubits", 4, "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["meta"]["marked"] == [15]
        assert payload["meta"]["iterations"] == 2 * 3 + 2
        assert len(payload["rows"]) == 8

    def test_explicit_marked_set(self, cli):
        result = cli("run", "--qubits", 3, "--marked", "1,5", "--iterations", 1, "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["meta"]["marked"] == [1, 5]
        assert payload["meta"]["initial_probability"] == pytest.approx(0.25, abs=1e-15)

    def test_modified_multi_marked_notes(self, cli):
        result = cli(
            "run", "--qubits", 3, "--marked", "1,5", "--schedule", "fixed-eq9",
            "--iterations", 1, "--format", "json",
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["meta"]["notes"]

    def test_rotation_target_flag(self, cli):
        base = cli("run", "--qubits", 4, "--schedule", "fixed-eq9", "--iterations", 3)
        moved = cli(
            "run", "--qubits", 4, "--schedule", "fixed-eq9", "--iterations", 3,
            "--rotation-target", 0,
        )
        assert base.exit_code == moved.exit_code == 0
        # all-ones marked state is symmetric in the wire choice
        assert base.output == moved.output

    def test_hybrid_order_flag_changes_output(self, cli):
        default = cli("run", "--qubits", 5, "--schedule", "hybrid-eq11-12", "--iterations", 3)
        literal = cli(
            "run", "--qubits", 5, "--schedule", "hybrid-eq11-12", "--iterations", 3,
            "--hybrid-order", "ry-then-h",
        )
        assert default.output != literal.output


class TestSweepCommand:
    def test_single_row_two_qubits(self, cli):
        result = cli("sweep", "--qubits", "2..2", "--schedule", "hybrid-eq11-12")
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        data = [r for r in rows if r["n"] == "2"]
        assert len(data) == 1
        assert float(data[0]["improvement_pct"]) == 0.0

    def test_hybrid_n3_improvement(self, cli):
        result = cli("sweep", "--qubits", "3..3", "--schedule", "hybrid-eq11-12")
        _, rows = csv_rows(result.output)
        assert rows[0]["std_iters"] == "2"
        assert rows[0]["mod_iters"] == "1"
        assert float(rows[0]["improvement_pct"]) == pytest.approx(50.0, abs=1e-9)

    def test_trailer_rows_carry_averages(self, cli):
        result = cli("sweep", "--qubits", "3..4", "--schedule", "hybrid-eq11-12")
        lines = result.output.splitlines()
        assert lines[-2].startswith("average_improvement_pct,")
        assert lines[-1].startswith("average_improvement_pct_excl_2q,")

    def test_json_meta_averages_match_csv_trailer(self, cli):
        csv_out = cli("sweep", "--qubits", "2..4", "--schedule", "hybrid-eq11-12").output
        json_out = cli(
            "sweep", "--qubits", "2..4", "--schedule", "hybrid-eq11-12", "--format", "json"
        ).output
        payload = json.loads(json_out)
        trailer = [l for l in csv_out.splitlines() if l.startswith("average_improvement_pct,")]
        avg_csv = trailer[0].split(",")[5]
        assert f"{payload['meta']['average_improvement_pct']:.10g}" == avg_csv

    def test_bare_number_means_single_size(self, cli):
        result = cli("sweep", "--qubits", "3", "--schedule", "standard")
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        assert rows[0]["n"] == "3"


class TestAnglesCommand:
    def test_small_range_values(self, cli):
        result = cli("angles", "--qubits", "2..4")
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        assert [r["n"] for r in rows] == ["2", "3", "4"]
        assert rows[0]["half_angle_tangent"] == "0/1"
        assert rows[2]["half_angle_tangent"] == "3/4"
        assert float(rows[1]["phase_closed_form"]) == pytest.approx(
            2.0 * math.atan(0.5), abs=1e-9
        )
        for row in rows:
            assert float(row["abs_difference"]) < 1e-6

    def test_search_column_empty_beyond_supported_size(self, cli):
        result = cli("angles", "--qubits", "13..14")
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        for row in rows:
            assert row["phase_search"] == ""
            assert row["abs_difference"] == ""
            assert row["phase_closed_form"] != ""

    def test_below_two_qubits_is_usage_error(self, cli):
        result = cli("angles", "--qubits", "1..3")
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "filename, args", REPRODUCE_JOBS, ids=[name for name, _ in REPRODUCE_JOBS]
    )
    def test_full_table_matches_committed_results(self, cli, tmp_path, filename, args):
        out = tmp_path / filename
        result = cli(*args, "--out", out)
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (RESULTS_DIR / filename).read_bytes()


class TestRecurrenceCommand:
    def test_recurrence_matches_statevector(self, cli):
        result = cli("recurrence", "--qubits", 5, "--iterations", 6)
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        assert len(rows) == 6
        for row in rows:
            rec = float(row["amplitude_recurrence"])
            sim = float(row["amplitude_statevector"])
            assert abs(rec - sim) < 1e-12

    def test_first_row_n2(self, cli):
        result = cli("recurrence", "--qubits", 2, "--iterations", 1)
        _, rows = csv_rows(result.output)
        assert float(rows[0]["amplitude_recurrence"]) == pytest.approx(0.5, abs=1e-12)

    def test_large_register_ratios(self, cli):
        result = cli("recurrence", "--qubits", 20, "--iterations", 7)
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        expected = [3, 5 / 3, 7 / 5, 9 / 7, 11 / 9, 13 / 11]
        for row, model in zip(rows[:-1], expected):
            assert row["amplitude_statevector"] == ""  # beyond simulation size
            assert float(row["ratio"]) == pytest.approx(model, abs=1e-4)
            assert float(row["model_ratio"]) == pytest.approx(model, abs=1e-9)
        assert rows[-1]["ratio"] == ""

    def test_statevector_column_present_at_boundary(self, cli):
        result = cli("recurrence", "--qubits", 16, "--iterations", 2)
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        assert rows[0]["amplitude_statevector"] != ""


class TestCurveCommand:
    def test_models_start_at_initial_probability(self, cli):
        result = cli(
            "curve", "--qubits", 5, "--iterations", 6, "--schedule", "standard", "--with-model"
        )
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert header == ["iteration", "probability", "model_standard", "model_modified"]
        assert rows[0]["iteration"] == "0"
        assert float(rows[0]["probability"]) == pytest.approx(1.0 / 32.0, abs=1e-12)
        assert float(rows[0]["model_standard"]) == pytest.approx(1.0 / 32.0, abs=1e-12)
        assert len(rows) == 7

    def test_model_columns_absent_without_flag(self, cli):
        result = cli("curve", "--qubits", 4, "--iterations", 3)
        header, _ = csv_rows(result.output)
        assert header == ["iteration", "probability"]

    def test_n13_standard_first_crest_at_71(self, cli):
        result = cli("curve", "--qubits", 13, "--iterations", 140, "--schedule", "standard")
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        probs = [float(r["probability"]) for r in rows]
        crest = next(i for i in range(1, len(probs) - 1) if probs[i] >= probs[i + 1])
        assert crest == 71


class TestFormatsAndDeterminism:
    def test_csv_uses_lf_and_plain_decimals(self, cli):
        out = cli("run", "--qubits", 3, "--iterations", 2).output
        assert "\r" not in out
        assert "," in out.splitlines()[0]
        for cell in out.splitlines()[1].split(","):
            assert " " not in cell

    def test_json_round_trips_csv_cells(self, cli):
        args = ("run", "--qubits", 5, "--schedule", "fixed-eq9", "--iterations", 4)
        csv_out = cli(*args).output
        payload = json.loads(cli(*args, "--format", "json").output)
        header, rows = csv_rows(csv_out)
        assert len(rows) == len(payload["rows"])
        for csv_row, json_row in zip(rows, payload["rows"]):
            for column in header:
                value = json_row[column]
                expect = f"{value:.10g}" if isinstance(value, float) else str(value)
                assert csv_row[column] == expect

    def test_repeat_invocations_identical(self, cli):
        args = ("run", "--qubits", 6, "--schedule", "adaptive-eq10", "--iterations", 5)
        assert cli(*args).output == cli(*args).output

    def test_out_writes_same_bytes(self, cli, tmp_path):
        target = tmp_path / "trace.csv"
        args = ("run", "--qubits", 4, "--iterations", 3)
        stdout = cli(*args).output
        result = cli(*args, "--out", str(target))
        assert result.exit_code == 0
        assert target.read_text() == stdout

    def test_version_flag(self, cli):
        result = cli("--version")
        assert result.exit_code == 0
        assert "groversim" in result.output


class TestExitCodes:
    def test_missing_required_flag(self, cli):
        assert cli("run").exit_code == 2

    def test_unknown_schedule(self, cli):
        assert cli("run", "--qubits", 3, "--schedule", "nope").exit_code == 2

    def test_zero_qubits_is_sizing_error(self, cli):
        assert cli("run", "--qubits", 0).exit_code == 3

    def test_oversized_register_is_sizing_error(self, cli):
        assert cli("run", "--qubits", 25).exit_code == 3

    def test_sweep_with_oversized_bound(self, cli):
        assert cli("sweep", "--qubits", "21..25", "--schedule", "standard").exit_code == 3

    def test_modified_schedule_on_single_qubit(self, cli):
        assert cli("run", "--qubits", 1, "--schedule", "fixed-eq9").exit_code == 2

    def test_marked_index_out_of_range(self, cli):
        assert cli("run", "--qubits", 3, "--marked", "8").exit_code == 2

    def test_marked_not_integers(self, cli):
        assert cli("run", "--qubits", 3, "--marked", "a,b").exit_code == 2

    def test_rotation_target_out_of_range(self, cli):
        result = cli("run", "--qubits", 3, "--schedule", "fixed-eq9", "--rotation-target", 5)
        assert result.exit_code == 2

    def test_recurrence_zero_qubits_is_sizing_error(self, cli):
        assert cli("recurrence", "--qubits", 0, "--iterations", 3).exit_code == 3

    def test_reversed_range(self, cli):
        assert cli("sweep", "--qubits", "5..3", "--schedule", "standard").exit_code == 2

    def test_malformed_range(self, cli):
        assert cli("sweep", "--qubits", "x..y", "--schedule", "standard").exit_code == 2

    def test_success_is_zero(self, cli):
        assert cli("run", "--qubits", 2, "--iterations", 1).exit_code == 0
