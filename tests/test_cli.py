import collections
import csv
import hashlib
import io
import importlib.util
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import csv_rows
from groversim import IterationRecord, grover
from groversim import cli as cli_module

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
# sha256 digests of benchmark outputs, read here and never written.
EXPECTED_DIGESTS = json.loads((REPO_DIR / "perfbench" / "expected.json").read_text())

SCHEDULE_FLAGS = ["--schedule", "--eq10-interpretation", "--rotation-target", "--hybrid-order"]
OUTPUT_FLAGS = ["--format", "--out"]
COMMAND_FLAGS = {
    "run": ["--qubits", "--marked", "--iterations", *SCHEDULE_FLAGS, *OUTPUT_FLAGS],
    "sweep": ["--qubits", *SCHEDULE_FLAGS, *OUTPUT_FLAGS],
    "angles": ["--qubits", *OUTPUT_FLAGS],
    "recurrence": ["--qubits", "--iterations", *OUTPUT_FLAGS],
    "curve": ["--qubits", "--iterations", "--with-model", *SCHEDULE_FLAGS, *OUTPUT_FLAGS],
}
FLAG_DEFAULTS = {
    "--schedule": "standard",
    "--eq10-interpretation": "additive",
    "--hybrid-order": "h-then-ry",
    "--format": "csv",
}


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
        assert len(payload["meta"]["notes"]) == 1
        assert "single marked state" in payload["meta"]["notes"][0]

    @pytest.mark.parametrize("qubits, marked, share", [(2, "3", 1 / 4), (4, "3,5", 2 / 16)])
    def test_standard_run_meta(self, cli, qubits, marked, share):
        result = cli(
            "run", "--qubits", qubits, "--marked", marked, "--schedule", "standard",
            "--iterations", 1, "--format", "json",
        )
        assert result.exit_code == 0
        meta = json.loads(result.output)["meta"]
        assert meta["notes"] == []
        assert meta["initial_probability"] == pytest.approx(share, abs=1e-15)

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

    def test_meta_echoes_the_schedule_as_given(self, cli):
        # The run reads the hybrid schedule without its interpretation and
        # with target n - 1; meta still shows what the user gave.
        result = cli(
            "run", "--qubits", 3, "--iterations", 1, "--schedule", "hybrid-eq11-12",
            "--eq10-interpretation", "multiplicative", "--format", "json",
        )
        assert result.exit_code == 0, result.output
        meta = json.loads(result.output)["meta"]
        assert meta["eq10_interpretation"] == "multiplicative"
        assert meta["rotation_target"] is None

    def test_n20_hybrid_matches_benchmark_digest(self, cli, tmp_path):
        # The one byte-level pin above n = 13: three hybrid iterations on
        # the largest register.
        out = tmp_path / "run_n20_hybrid.csv"
        result = cli("run", "--qubits", 20, "--iterations", 3, "--schedule", "hybrid-eq11-12", "--out", out)
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPECTED_DIGESTS["run_n20_hybrid.csv"]


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

    def test_schedule_used_echoes_the_schedule_as_given(self, cli):
        # Both sweeps run one config at n = 3; each row names its own input.
        moved = cli("sweep", "--qubits", 3, "--schedule", "hybrid-eq11-12", "--rotation-target", 2)
        plain = cli("sweep", "--qubits", 3, "--schedule", "hybrid-eq11-12")
        assert moved.exit_code == plain.exit_code == 0
        assert csv_rows(moved.output)[1][0]["schedule_used"].endswith("@q2")
        assert "@q" not in csv_rows(plain.output)[1][0]["schedule_used"]

    def test_sweeps_in_one_process_match_committed_results(self, cli, tmp_path):
        # reproduce_results.py runs its sweeps in one process, each after
        # the ones before it have stored their runs. The per-job
        # test_full_table_matches_committed_results runs each sweep cold.
        sweeps = [(name, args) for name, args in REPRODUCE_JOBS if args[0] == "sweep"]
        assert len(sweeps) == 4
        for filename, args in sweeps:
            out = tmp_path / filename
            result = cli(*args, "--out", out)
            assert result.exit_code == 0, result.output
            assert out.read_bytes() == (RESULTS_DIR / filename).read_bytes(), filename


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
        # The search runs up to the register's limit, n = 20.
        _, rows = csv_rows(cli("angles", "--qubits", "13..13").output)
        assert float(rows[0]["abs_difference"]) < 1e-7
        result = cli("angles", "--qubits", "21..22")
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        for row in rows:
            assert row["phase_search"] == ""
            assert row["abs_difference"] == ""
            assert row["phase_closed_form"] != ""

    def test_below_two_qubits_is_usage_error(self, cli):
        result = cli("angles", "--qubits", "1..3")
        assert result.exit_code == 2

    def test_ceiling_is_the_recurrence_limit(self, cli):
        assert cli("angles", "--qubits", "52..52").exit_code == 0
        assert cli("angles", "--qubits", "53..53").exit_code == 3

    @pytest.mark.parametrize(
        "filename, args", REPRODUCE_JOBS, ids=[name for name, _ in REPRODUCE_JOBS]
    )
    def test_full_table_matches_committed_results(self, cli, tmp_path, filename, args):
        out = tmp_path / filename
        result = cli(*args, "--out", out)
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (RESULTS_DIR / filename).read_bytes()

    def test_jobs_in_one_process_resume_the_stored_runs(self, cli, tmp_path, monkeypatch):
        # Every job, in one process from an empty run store, as
        # reproduce_results.py runs them: the sweeps simulate each run
        # once; the n = 5 traces read their records, and the n = 13 curves
        # read theirs and go on extending the stored runs' registers. The
        # angle tables make no diffusion. Without stored registers a pass
        # makes 1,057, and rerunning every run 1,064, 505 of them at n = 13.
        calls = []
        real = grover._diffuse

        def counted(src, *args):
            calls.append(src.size.bit_length() - 1)
            return real(src, *args)

        monkeypatch.setattr(grover, "_diffuse", counted)
        counts = []
        for filename, args in REPRODUCE_JOBS:
            before = len(calls)
            out = tmp_path / filename
            result = cli(*args, "--out", out)
            assert result.exit_code == 0, result.output
            assert out.read_bytes() == (RESULTS_DIR / filename).read_bytes(), filename
            counts.append(len(calls) - before)
        assert counts == [0, 0, 424, 0, 176, 177, 0, 0, 0, 0, 68, 89]
        assert (len(calls), calls.count(13), calls.count(5)) == (934, 382, 17)


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

    def test_benchmark_window_csv_is_its_json_to_10_digits(self, cli):
        # recurrence-long's two commands: the JSON is indent=2 text, and each
        # CSV line renders the matching JSON row, ratio-less last row included.
        args = ("recurrence", "--qubits", 30, "--iterations", 51474)
        text = cli(*args, "--format", "json").output
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        rows = doc["rows"]
        assert len(rows) == 51474 and rows[-1]["ratio"] is None
        lines = cli(*args).output.split("\n")
        assert lines[0] == ",".join(rows[0]) and lines[-1] == ""
        assert len(lines) == len(rows) + 2

        def cell(value) -> str:
            if value is None:
                return ""
            return f"{value:.10g}" if isinstance(value, float) else str(value)

        mismatched = [
            (line, row) for line, row in zip(lines[1:], rows) if line != ",".join(cell(v) for v in row.values())
        ]
        assert mismatched == []

    def test_model_ratio_is_the_exact_ratio_rounded(self):
        # the model_ratio column's float form, over the benchmark's n = 30 window
        for i in range(1, 51475):
            assert (2 * i + 1) / (2 * i - 1) == float(Fraction(2 * i + 1, 2 * i - 1))


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

    @pytest.mark.parametrize(
        "args, trailer_rows",
        [
            (("run", "--qubits", 5, "--schedule", "fixed-eq9", "--iterations", 4), 0),
            (("sweep", "--qubits", "2..4", "--schedule", "hybrid-eq11-12"), 2),
            (("angles", "--qubits", "11..13"), 0),
            (("recurrence", "--qubits", 5, "--iterations", 4), 0),
            (("curve", "--qubits", 4, "--iterations", 3, "--schedule", "adaptive-eq10", "--with-model"), 0),
        ],
        ids=["run", "sweep", "angles", "recurrence", "curve"],
    )
    def test_json_round_trips_csv_cells(self, cli, args, trailer_rows):
        csv_out = cli(*args).output
        payload = json.loads(cli(*args, "--format", "json").output)
        header, rows = csv_rows(csv_out)
        # the sweep's CSV trailer is checked against meta by TestSweepCommand
        assert len(rows) == len(payload["rows"]) + trailer_rows
        for csv_row, json_row in zip(rows, payload["rows"]):
            assert list(json_row) == header
            for column, value in json_row.items():
                if value is None:
                    expect = ""
                elif isinstance(value, float):
                    expect = f"{value:.10g}"
                else:
                    expect = str(value)
                assert csv_row[column] == expect

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_help_lists_flags_in_order_with_defaults(self, cli, command):
        result = cli(command, "--help")
        assert result.exit_code == 0
        listed = [line.split()[0] for line in result.output.splitlines() if line.startswith("  --")]
        assert listed == [*COMMAND_FLAGS[command], "--help"]
        # an option's help may wrap, so read each option's text with whitespace joined
        text = " ".join(result.output.split())
        sections = {part.split()[0]: part for part in re.split(r" (?=--[a-z])", text)[1:]}
        for flag in COMMAND_FLAGS[command]:
            default = FLAG_DEFAULTS.get(flag)
            if default is None:
                assert "[default:" not in sections[flag]
            else:
                assert f"[default: {default}]" in sections[flag]

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

    def test_streamed_json_equals_whole_text(self, cli, tmp_path):
        args = ("recurrence", "--qubits", 30, "--iterations", 2000, "--format", "json")
        target = tmp_path / "recurrence.json"
        stdout = cli(*args).stdout_bytes
        assert cli(*args, "--out", str(target)).exit_code == 0
        doc = json.loads(stdout)
        assert len(doc["rows"]) == 2000
        expected = (json.dumps(doc, indent=2) + "\n").encode()
        assert stdout == expected
        assert target.read_bytes() == expected

    def test_json_text_is_never_held_whole(self, tmp_path):
        columns = ("iteration", "amplitude")
        rows = [(i, i / 7) for i in range(20000)]
        target = tmp_path / "rows.json"
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            cli_module._emit(columns, rows, {"command": "test"}, "json", target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < target.stat().st_size // 8

    def test_csv_text_is_never_held_whole(self, tmp_path):
        columns = ("iteration", "amplitude")
        rows = [(i, i / 7) for i in range(20000)]
        target = tmp_path / "rows.csv"
        # The module's csv writer allocates its 128 KiB record buffer at its
        # first line and keeps it; that fixed buffer is not the text.
        cli_module._emit(columns, rows[:1], {"command": "test"}, "csv", target)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            cli_module._emit(columns, rows, {"command": "test"}, "csv", target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < target.stat().st_size // 8

    def test_version_flag(self, cli):
        result = cli("--version")
        assert result.exit_code == 0
        assert "groversim" in result.output


# Scalars of every JSON kind, with the strings that could be mistaken for
# the layout the rows are placed in or for a % spec, and the cells a row
# template would write unlike json: bool (not %d), NaN and the infinities
# and numpy.float64 (not %r).
json_scalars = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(np.float64),
    st.sampled_from([np.float64(0.1), np.float64("nan"), np.float64("inf"), np.float64("-inf"), np.float64(-0.0)]),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['"', "\\", "\n", "}", ",\n      {", "\n    },\n    {", "ñ €𝄞", "%s", "%d%%"]),
)
json_keys = st.one_of(st.text(max_size=8), st.sampled_from(['a"b', "k\\", "x\ny", "é", "%", "%%", "%s"]))


def draw_rows(draw, columns, cells, max_rows):
    """Zero to max_rows rows of cells drawn one by one, each row a plain
    tuple or a namedtuple over columns (renamed where a column is not an
    identifier), as the commands emit both."""
    named = collections.namedtuple("Row", columns, rename=True)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        values = [draw(cells) for _ in columns]
        rows.append(named._make(values) if draw(st.booleans()) else tuple(values))
    return rows


@st.composite
def flat_rows(draw):
    """Column names and zero or more rows of JSON scalars under them."""
    columns = tuple(draw(st.lists(json_keys, min_size=1, max_size=5, unique=True)))
    return columns, draw_rows(draw, columns, json_scalars, 6)


def json_rows(columns, rows) -> list[dict]:
    return [dict(zip(columns, row)) for row in rows]


json_meta = st.fixed_dictionaries(
    {"command": st.text(), "notes": st.just([])},
    optional={
        "nested": st.recursive(
            json_scalars,
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(json_keys, inner, max_size=3),
            max_leaves=8,
        )
    },
)


# Cells of every kind a CSV row can hold, with the strings csv must quote
# (csv quotes "\r" only from Python 3.13 on) and those a % template could
# misread.
csv_cells = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet=',"\r\n% a', max_size=4),
    st.sampled_from(["", ",", '"', "\r", "\n", "a\rb", "%", "%s", "%d%%", " x "]),
)


@st.composite
def csv_tables(draw):
    """Column names, zero or more rows under them, each cell drawn on its
    own so a column's type can change from row to row, and trailer rows of
    any length."""
    columns = tuple(draw(st.lists(st.text(alphabet=',"\r\n% ab', max_size=3), min_size=1, max_size=4, unique=True)))
    rows = draw_rows(draw, columns, csv_cells, 6)
    trailer = draw(st.lists(st.lists(csv_cells, min_size=1, max_size=5).map(tuple), max_size=2))
    return columns, rows, trailer


def reference_csv(columns, rows, trailer) -> str:
    """CSV as csv.writer writes it with each cell formatted on its own."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.10g}"
        return str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    for extra in trailer:
        writer.writerow([cell(v) for v in extra])
    return buffer.getvalue()


class CountingRows:
    """Iterable over rows that counts its passes and the rows it hands out."""

    def __init__(self, rows):
        self.rows = rows
        self.passes = 0
        self.served = 0

    def __iter__(self):
        self.passes += 1
        for row in self.rows:
            self.served += 1
            yield row


class TestEmit:
    @settings(max_examples=200, deadline=None)
    @given(table=flat_rows(), meta=json_meta)
    @example(table=(("i", "x"), [(1, 0.5), (True, math.nan), (False, math.inf)]), meta={"command": "", "notes": []})
    @example(table=(("x",), [(math.nan,), (-math.inf,)]), meta={"command": "", "notes": []})
    @example(table=((), [(), ()]), meta={"command": "", "notes": []})
    @example(
        table=(("%", "%%", "%s"), [(np.float64(0.1), np.float64("nan"), np.float64(-0.0)), (1, 2.5, None)]),
        meta={"command": "%s", "notes": []},
    )
    def test_json_is_json_dumps_indent_2(self, tmp_path_factory, table, meta):
        columns, rows = table
        target = tmp_path_factory.mktemp("emit") / "out.json"
        cli_module._emit(columns, rows, meta, "json", target)
        assert target.read_text() == json.dumps({"meta": meta, "rows": json_rows(columns, rows)}, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(table=csv_tables())
    @example(table=(("a",), [(None,), ("",), ("x",)], [(None,), ("",), (1.5,)]))
    @example(table=(("i", "ratio"), [(1, 0.5), (2, None)], [("mean", "", 2.25)]))
    @example(table=(("x", "y"), [("a\rb", "%s"), (True, np.float64("nan"))], []))
    @example(table=(IterationRecord._fields, [IterationRecord(1, 0.0, 0.25, -0.0)], []))
    @example(table=(("n", "ratio"), [], [("mean", 2.25)]))
    @example(table=(("i", "x"), [(1, 0.5)], [("mean",), ("mean", "", "", 2.25)]))
    def test_csv_matches_csv_writer(self, tmp_path_factory, table):
        columns, rows, trailer = table
        target = tmp_path_factory.mktemp("emit") / "out.csv"
        cli_module._emit(columns, rows, {}, "csv", target, csv_trailer=trailer)
        with target.open(newline="") as f:
            assert f.read() == reference_csv(columns, rows, trailer)

    CHUNK = cli_module._ROWS_PER_CHUNK

    @pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_json_chunk_boundaries(self, tmp_path, count):
        # Strings that look like the row boundary the chunk text is split at.
        columns = ("i", "x", "s", "none")
        rows = [(i, i / 7, ["},\n      {", "}, {", "\n"][i % 3], None) for i in range(count)]
        target = tmp_path / "rows.json"
        cli_module._emit(columns, rows, {"command": "test"}, "json", target)
        expected = {"meta": {"command": "test"}, "rows": json_rows(columns, rows)}
        assert target.read_text() == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_csv_chunk_boundaries(self, tmp_path, count):
        columns = ("i", "x", "s", "none")
        rows = [(i, i / 7, ["a,b", '"', "%s"][i % 3], None) for i in range(count)]
        trailer = [("mean", "", 2.25)]
        target = tmp_path / "rows.csv"
        cli_module._emit(columns, rows, {}, "csv", target, csv_trailer=trailer)
        with target.open(newline="") as f:
            assert f.read() == reference_csv(columns, rows, trailer)

    # A column's cells of one type and then, from row `at` on, of another.
    TYPE_CHANGES = {
        "float-none": (0.1, None),
        "int-bool": (7, True),
        "float-nan": (0.1, math.nan),
        "float-str": (0.1, "0.1"),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("change", TYPE_CHANGES)
    @pytest.mark.parametrize("at", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_type_change_at_chunk_boundary(self, tmp_path, fmt, change, at):
        before, after = self.TYPE_CHANGES[change]
        columns = ("i", "x")
        rows = [(i, before if i < at else after) for i in range(2 * self.CHUNK + 2)]
        target = tmp_path / f"rows.{fmt}"
        cli_module._emit(columns, rows, {"command": "test"}, fmt, target)
        with target.open(newline="") as f:
            text = f.read()
        if fmt == "json":
            expected = {"meta": {"command": "test"}, "rows": json_rows(columns, rows)}
            assert text == json.dumps(expected, indent=2) + "\n"
        else:
            assert text == reference_csv(columns, rows, [])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("at, width", [(0, 1), (1, 3), (CHUNK + 3, 1)])
    def test_row_of_another_width_raises(self, tmp_path, fmt, at, width):
        # dict(zip(columns, row)) would drop a long row's extra cells and
        # a short row's missing keys; the row is refused instead.
        rows = [(i, i / 7) for i in range(2 * self.CHUNK)]
        rows[at] = rows[at][:1] + (0.5,) * (width - 1)
        with pytest.raises(ValueError, match=f"^row {at}: {width} cells under 2 columns$"):
            cli_module._emit(("i", "x"), rows, {}, fmt, tmp_path / "rows")

    # angle_table_large.csv runs the same command as angle_table.csv, through
    # the same emit path, with an n = 13..20 search that takes seconds.
    JSON_JOBS = [job for job in REPRODUCE_JOBS if job[0] != "angle_table_large.csv"]

    @pytest.mark.parametrize("filename, args", JSON_JOBS, ids=[job[0] for job in JSON_JOBS])
    def test_reproduce_job_json_is_indent_2(self, cli, filename, args):
        out = cli(*args, "--format", "json").output
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_command_with_no_rows(self, cli, monkeypatch, tmp_path, fmt):
        monkeypatch.setattr(cli_module, "recurrence_table", lambda *_args: [])
        out = tmp_path / "rows"
        result = cli("recurrence", "--qubits", 20, "--iterations", 3, "--format", fmt, "--out", out)
        assert result.exit_code == 0, result.output
        if fmt == "csv":
            assert out.read_text() == "iteration,amplitude_recurrence,amplitude_statevector,ratio,model_ratio\n"
        else:
            assert out.read_text().endswith(',\n  "rows": []\n}\n')

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_are_consumed_once(self, tmp_path, fmt):
        columns = ("i", "x")
        rows = [(i, i / 3) for i in range(5)]
        counted = CountingRows(rows)
        cli_module._emit(columns, counted, {}, fmt, tmp_path / "counted")
        assert (counted.passes, counted.served) == (1, len(rows))
        generator = (row for row in rows)
        cli_module._emit(columns, generator, {}, fmt, tmp_path / "generated")
        assert next(generator, None) is None
        cli_module._emit(columns, rows, {}, fmt, tmp_path / "listed")
        expected = (tmp_path / "listed").read_bytes()
        assert (tmp_path / "counted").read_bytes() == expected
        assert (tmp_path / "generated").read_bytes() == expected


class TestExitCodes:
    def test_missing_required_flag(self, cli):
        assert cli("run").exit_code == 2

    def test_unknown_schedule(self, cli):
        assert cli("run", "--qubits", 3, "--schedule", "nope").exit_code == 2

    def test_zero_qubits_is_sizing_error(self, cli):
        assert cli("run", "--qubits", 0).exit_code == 3

    def test_oversized_register_is_sizing_error(self, cli):
        assert cli("run", "--qubits", 25).exit_code == 3

    @pytest.mark.parametrize("qubits", ["21..25", "0..2", "2000..2000"])
    def test_sweep_with_oversized_bound(self, cli, qubits):
        assert cli("sweep", "--qubits", qubits, "--schedule", "standard").exit_code == 3

    def test_modified_schedule_on_single_qubit(self, cli):
        assert cli("run", "--qubits", 1, "--schedule", "fixed-eq9").exit_code == 2

    def test_marked_index_out_of_range(self, cli):
        assert cli("run", "--qubits", 3, "--marked", "8").exit_code == 2

    @pytest.mark.parametrize("marked", ["a,b", ""])
    def test_marked_not_integers(self, cli, marked):
        assert cli("run", "--qubits", 3, "--marked", marked).exit_code == 2

    def test_rotation_target_out_of_range(self, cli):
        result = cli("run", "--qubits", 3, "--schedule", "fixed-eq9", "--rotation-target", 5)
        assert result.exit_code == 2

    def test_recurrence_zero_qubits_is_sizing_error(self, cli):
        assert cli("recurrence", "--qubits", 0, "--iterations", 3).exit_code == 3

    def test_reversed_range(self, cli):
        assert cli("sweep", "--qubits", "5..3", "--schedule", "standard").exit_code == 2

    @pytest.mark.parametrize("qubits", ["x..y", "3..", "..3"])
    def test_malformed_range(self, cli, qubits):
        assert cli("sweep", "--qubits", qubits, "--schedule", "standard").exit_code == 2

    def test_unwritable_out_is_usage_error(self, cli, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        result = cli("run", "--qubits", 3, "--out", out)
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and str(out) in result.output

    @pytest.mark.parametrize(
        "args, computes",
        [
            (["run", "--qubits", 3], "iterate_grover"),
            (["curve", "--qubits", 3, "--iterations", 2], "iterate_grover"),
            (["sweep", "--qubits", "2..13", "--schedule", "hybrid-eq11-12"], "sweep_compare"),
            (["angles", "--qubits", "2..4"], "optimal_phase_search"),
            (["recurrence", "--qubits", 5, "--iterations", 3], "recurrence_table"),
        ],
    )
    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_bad_out_directory_fails_before_computing(self, cli, tmp_path, monkeypatch, args, computes, parent):
        def unreachable(*_args, **_kwargs):
            raise AssertionError(f"{computes} ran before --out was checked")

        monkeypatch.setattr(cli_module, computes, unreachable)
        (tmp_path / "file").write_text("")
        out = tmp_path / parent / "x.csv"
        result = cli(*args, "--out", out)
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and str(out) in result.output

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["run", "curve"])
    def test_norm_drift_writes_no_output(self, cli, tmp_path, monkeypatch, command, fmt):
        # Every record is collected before the output is opened, so a drift
        # at iteration 3 leaves neither the two earlier rows nor an --out file.
        real = grover._diffuse

        def drift_from_third_call():
            calls = itertools.count(1)

            def diffusion(*args):
                out = real(*args)
                if next(calls) >= 3:
                    out *= 1.001
                return out

            monkeypatch.setattr(grover, "_diffuse", diffusion)

        args = [command, "--qubits", 4, "--iterations", 4, "--format", fmt]
        out = tmp_path / "x.out"
        for extra in ([], ["--out", out]):
            drift_from_third_call()
            result = cli(*args, *extra)
            assert result.exit_code == 2
            assert re.fullmatch(r"error: statevector norm drifted to \S+ at iteration 3\n", result.output)
        assert not out.exists()

    def test_programming_error_is_not_usage_error(self, cli, monkeypatch):
        def out_of_bounds(*_args):
            raise IndexError("list index out of range")

        monkeypatch.setattr(cli_module, "recurrence_table", out_of_bounds)
        result = cli("recurrence", "--qubits", 5, "--iterations", 3)
        assert result.exit_code == 1
        assert isinstance(result.exception, IndexError)

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_failed_write_is_not_usage_error(self, cli):
        result = cli("run", "--qubits", 3, "--out", "/dev/full")
        assert result.exit_code == 1
        assert isinstance(result.exception, OSError)

    def test_success_is_zero(self, cli):
        assert cli("run", "--qubits", 2, "--iterations", 1).exit_code == 0
