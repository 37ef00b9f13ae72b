"""scripts/compare_results.py: the by-value check of results/ for a BLAS
whose bytes differ from the committed ones."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO_DIR = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_DIR / "results"


def _load_script():
    path = REPO_DIR / "scripts" / "compare_results.py"
    spec = importlib.util.spec_from_file_location("compare_results", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_results = _load_script()


def edit_csv_cell(name, line, column, change):
    def edit(directory):
        path = directory / name
        rows = [row.split(",") for row in path.read_text().splitlines()]
        col = rows[0].index(column)
        rows[line - 1][col] = change(rows[line - 1][col])
        path.write_text("".join(",".join(row) + "\n" for row in rows))

    return edit


def edit_sweep_json(change):
    def edit(directory):
        path = directory / "sweep_hybrid.json"
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload, indent=2) + "\n")

    return edit


def shift(delta):
    return lambda cell: repr(float(cell) + delta)


def set_row_value(key, change):
    def apply(payload):
        payload["rows"][5][key] = change(payload["rows"][5][key])

    return apply


def set_meta_value(key, change):
    def apply(payload):
        payload["meta"][key] = change(payload["meta"][key])

    return apply


@pytest.fixture
def regenerated(tmp_path):
    copy = tmp_path / "results"
    shutil.copytree(RESULTS_DIR, copy)
    return copy


def test_committed_results_agree_with_themselves(regenerated, capsys):
    assert compare_results.main([str(RESULTS_DIR), str(regenerated)]) == 0
    assert capsys.readouterr().out == "results agree by value\n"


@pytest.mark.parametrize(
    "edit",
    [
        edit_csv_cell("angle_table.csv", 4, "phase_search", shift(5e-8)),
        edit_csv_cell("angle_table.csv", 4, "abs_difference", shift(-5e-8)),
        edit_sweep_json(set_row_value("mod_peak_prob", lambda p: p + 4e-16)),
        edit_sweep_json(set_row_value("std_peak_prob", lambda p: p - 9e-13)),
    ],
    ids=["search-cell", "search-difference", "json-probability", "json-probability-near-bound"],
)
def test_drift_within_tolerance_agrees(regenerated, edit):
    edit(regenerated)
    assert compare_results.compare_dirs(RESULTS_DIR, regenerated) == []


@pytest.mark.parametrize(
    "edit",
    [
        edit_csv_cell("angle_table.csv", 4, "phase_search", shift(2e-7)),
        edit_csv_cell("angle_table.csv", 4, "phase_closed_form", shift(1e-12)),
        edit_csv_cell("sweep_hybrid.csv", 3, "std_peak_prob", shift(1e-15)),
        edit_csv_cell("trace_n5_standard.csv", 2, "target_probability", shift(1e-15)),
        edit_sweep_json(set_row_value("mod_peak_prob", lambda p: p + 1e-11)),
        edit_sweep_json(set_row_value("mod_iters", lambda i: i + 1)),
        edit_sweep_json(set_meta_value("average_improvement_pct", lambda p: p + 1e-12)),
        lambda d: (d / "recurrence_n5.csv").write_text((d / "recurrence_n5.csv").read_text() + "8,0,0\n"),
        lambda d: (d / "curve_n13_hybrid.csv").unlink(),
    ],
    ids=[
        "search-cell",
        "closed-form-cell",
        "csv-probability",
        "trace-probability",
        "json-probability",
        "json-iterations",
        "json-meta",
        "extra-row",
        "missing-file",
    ],
)
def test_other_differences_are_reported(regenerated, edit, capsys):
    edit(regenerated)
    assert compare_results.main([str(RESULTS_DIR), str(regenerated)]) == 1
    assert "results agree by value" not in capsys.readouterr().out
