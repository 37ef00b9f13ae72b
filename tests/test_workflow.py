"""The CI workflow, read as text: its test selections select tests, the
files it runs exist, and its Python versions are ones the package
supports. No workflow step is run."""

import functools
import importlib.util
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
    # call after call, still give the per-qubit kernel's bytes, in both
    # plans, and that runs on either side of the plans' bound keep the
    # oracle's records.
    (words,) = [w for w in SELECTIONS if any(word.startswith("OPENBLAS_CORETYPE=") for word in w)]
    ids = collected(words)
    for name in [
        "TestHadamardLayers::test_reused_views_equal_per_qubit_kernel_bytewise",
        "TestHadamardLayers::test_diffusion_views_serve_every_iteration_bytewise",
        "TestHadamardLayers::test_reused_last_entry_views_bytewise",
        "TestHadamardLayers::test_bit_reversed_plan_equals_natural_plan_bytewise",
        "TestHadamardLayers::test_bit_reversed_diffusion_views_serve_every_iteration_bytewise",
        "TestIterateGrover::test_records_equal_oracle_on_either_side_of_the_plan_bound",
    ]:
        assert any(f"::{name}[" in i for i in ids), name
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


def load_replay_ci():
    spec = importlib.util.spec_from_file_location("replay_ci", REPO_DIR / "scripts" / "replay_ci.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_runs_every_run_step_but_install():
    yaml = pytest.importorskip("yaml")  # the replay reads the workflow with PyYAML, as CI does not
    replay = load_replay_ci()
    jobs = yaml.safe_load(WORKFLOW)["jobs"]
    assert {name: replay.job_versions(job) for name, job in jobs.items()} == {
        "test": ["3.10", "3.12", "3.13"],
        "results-without-fma": ["3.12"],
    }
    for job in jobs.values():
        names = [step["name"] for step in job["steps"] if "run" in step]
        assert "Install" in names
        assert [step["name"] for step in replay.run_steps(job)] == [n for n in names if n != "Install"]


def test_replay_shims_run_the_checkout(tmp_path):
    load_replay_ci().write_shims(tmp_path, sys.executable)
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"), PATH=f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    done = subprocess.run(["groversim", "--version"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("groversim")
    done = subprocess.run(["python", "-c", "import sys; print(sys.executable)"], env=env, capture_output=True, text=True)
    assert done.stdout.strip() == sys.executable
