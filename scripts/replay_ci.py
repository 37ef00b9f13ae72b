#!/usr/bin/env python3
"""Replay the jobs of .github/workflows/tier1.yml on this machine.

Run from anywhere in the repository: python3 scripts/replay_ci.py

Each job runs its `run:` steps, except the one named Install, in a fresh
`git worktree` of HEAD (commit first: uncommitted changes are not
replayed). The steps run as a hosted runner's bash runs them, with
RUNNER_TEMP set to a fresh directory, `src/` of the worktree on
PYTHONPATH in place of the Install step's `pip install -e`, and on PATH a
`python` that runs the chosen interpreter and a `groversim` that runs
`python -m groversim.cli`. A job replays with the interpreter running this
script and with every Python version it asks for that has numpy here; the
versions without numpy are reported as not run. After a step fails, the
job's later steps are skipped, as on a hosted runner.

Prints one line per step and exits 1 if a step failed, 2 if PyYAML is
missing or an argument is given: it takes none but --help.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parent.parent
WORKFLOW = REPO_DIR / ".github" / "workflows" / "tier1.yml"
# The lines of a failed step's output that are printed.
TAIL_LINES = 20


def job_versions(job: dict) -> list[str]:
    """The Python versions a job asks for: its matrix, or what its
    setup-python step pins."""
    matrix = job.get("strategy", {}).get("matrix", {}).get("python-version")
    if matrix:
        return [str(v) for v in matrix]
    for step in job["steps"]:
        if str(step.get("uses", "")).startswith("actions/setup-python"):
            return [str(step["with"]["python-version"])]
    return []


def run_steps(job: dict) -> list[dict]:
    """The steps a replay runs: every `run:` step but Install."""
    return [step for step in job["steps"] if "run" in step and step.get("name") != "Install"]


def interpreter(version: str) -> str | None:
    """The path of a Python of this version that imports numpy, or None."""
    if version == "%d.%d" % sys.version_info[:2]:
        return sys.executable
    found = shutil.which(f"python{version}")
    if found is None:
        return None
    probe = subprocess.run(
        [found, "-c", "import sys, numpy; print(sys.executable)"], capture_output=True, text=True
    )
    if probe.returncode != 0:
        return None
    return probe.stdout.strip()


def write_shims(bin_dir: Path, python: str) -> None:
    for name, command in [("python", f'"{python}"'), ("groversim", f'"{python}" -m groversim.cli')]:
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec {command} "$@"\n')
        shim.chmod(0o755)


def replay(job_name: str, job: dict, python: str, label: str) -> bool:
    """Run the job's steps with this interpreter; True if every step passed."""
    scratch = Path(tempfile.mkdtemp(prefix="replay-ci-"))
    work, runner_temp, bin_dir = scratch / "work", scratch / "runner-temp", scratch / "bin"
    runner_temp.mkdir()
    bin_dir.mkdir()
    write_shims(bin_dir, python)
    subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(work), "HEAD"], cwd=REPO_DIR, check=True)
    env = dict(
        os.environ,
        RUNNER_TEMP=str(runner_temp),
        PYTHONPATH=str(work / "src"),
        PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
    )
    passed = True
    try:
        for number, step in enumerate(run_steps(job)):
            name = step.get("name", step["run"].splitlines()[0])
            if not passed:
                print(f"[{job_name} / {label}] {name}: skipped", flush=True)
                continue
            script = runner_temp / f"step-{number}.sh"
            script.write_text(step["run"])
            start = time.perf_counter()
            done = subprocess.run(
                ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
                cwd=work,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            seconds = time.perf_counter() - start
            status = "ok" if done.returncode == 0 else f"FAILED (exit {done.returncode})"
            print(f"[{job_name} / {label}] {name}: {status} in {seconds:.1f} s", flush=True)
            if done.returncode != 0:
                passed = False
                for line in done.stdout.splitlines()[-TAIL_LINES:]:
                    print(f"    {line}")
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(work)], cwd=REPO_DIR, check=True)
        shutil.rmtree(scratch)
    return passed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args(argv)
    try:
        import yaml
    except ImportError:
        print("error: PyYAML is not installed, so the workflow cannot be read", file=sys.stderr)
        return 2
    workflow = yaml.safe_load(WORKFLOW.read_text())
    running = "%d.%d" % sys.version_info[:2]
    passed = True
    for job_name, job in workflow["jobs"].items():
        pythons = {running: sys.executable}
        for version in job_versions(job):
            found = interpreter(version)
            if found is None:
                print(f"[{job_name} / python {version}] not run: no Python {version} with numpy here", flush=True)
            else:
                pythons[version] = found
        for version, python in pythons.items():
            passed &= replay(job_name, job, python, f"python {version}")
    print("all steps passed" if passed else "some steps failed")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
