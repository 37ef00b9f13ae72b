"""The CI workflow, read as text: its test selections select tests, the
files it runs exist, and its Python versions are ones the package
supports. No workflow step is run."""

import functools
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

REPO_DIR = Path(__file__).resolve().parent.parent
WORKFLOW = (REPO_DIR / ".github" / "workflows" / "tier1.yml").read_text()
PYPROJECT = (REPO_DIR / "pyproject.toml").read_text()


def pytest_runs() -> list[tuple[str, ...]]:
    """The words of every `run:` line that calls pytest, with its inline
    environment assignments."""
    runs = []
    for line in WORKFLOW.splitlines():
        command = line.strip().removeprefix("run:").strip()
        if "-m pytest" in command:
            runs.append(tuple(shlex.split(command)))
    return runs


SELECTIONS = [words for words in pytest_runs() if "-k" in words]


@functools.cache
def collected(words: tuple[str, ...]) -> list[str]:
    """The test ids that the pytest call in words collects, run from the
    repository root with its inline environment."""
    at = words.index("pytest")
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
    env.update(word.split("=", 1) for word in words[:at] if re.fullmatch(r"[A-Z_]+=\S*", word))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-p", "no:cacheprovider", *words[at + 1 :]],
        cwd=REPO_DIR,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return [line for line in done.stdout.splitlines() if "::" in line]


def test_workflow_runs_the_whole_suite_and_a_selection():
    assert any("-k" not in words for words in pytest_runs())
    assert SELECTIONS


@pytest.mark.parametrize("words", SELECTIONS, ids=lambda words: words[words.index("-k") + 1])
def test_every_selection_collects_tests(words):
    assert collected(words)


def test_no_fma_selection_covers_the_kernel_view_plans():
    # The job without FMA must check that a run's prebuilt views, reused
    # call after call, still give the per-qubit kernel's bytes.
    (words,) = [w for w in SELECTIONS if any(word.startswith("OPENBLAS_CORETYPE=") for word in w)]
    ids = collected(words)
    for name in [
        "test_reused_views_equal_per_qubit_kernel_bytewise",
        "test_diffusion_views_serve_every_iteration_bytewise",
        "test_reused_last_entry_views_bytewise",
    ]:
        assert any(f"::TestHadamardLayers::{name}[" in i for i in ids), name
    assert not any("dgemm_layer_is_fused_multiply_add" in i for i in ids)


def test_every_file_the_workflow_runs_exists():
    paths = set(re.findall(r"(?<![\w$/{.-])(?:[\w-]+/)+[\w-]+\.py\b", WORKFLOW))
    assert {"scripts/reproduce_results.py", "scripts/compare_results.py", "perfbench/run.py"} <= paths
    assert [p for p in sorted(paths) if not (REPO_DIR / p).is_file()] == []


def test_matrix_versions_satisfy_requires_python():
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT, re.M)
    assert floor, "requires-python is not of the form >=X.Y"
    lists = re.findall(r"python-version: (\[[^\]]*\]|\"[^\"]*\")", WORKFLOW)
    versions = [v for entry in lists for v in re.findall(r'"(\d+)\.(\d+)"', entry)]
    assert len(versions) == 4
    low = tuple(map(int, floor.groups()))
    assert [v for v in versions if tuple(map(int, v)) < low] == []
    assert (str(low[0]), str(low[1])) in versions
