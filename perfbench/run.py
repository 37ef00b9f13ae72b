"""groversim benchmark: run one workload and report its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of perfbench/workloads.py, or `all` to run each in
turn. Every pass runs in a fresh worker process, so a pass's CPU time and
peak RSS belong to that pass alone. Another pass starts while, at the mean
pass length so far, it would end within S seconds; a run makes at least
one pass, two when traced. wall_s and cpu_s are medians over blocks:
consecutive passes, at least BLOCK_S seconds of them, each block
contributing the mean of its passes. peak_rss_mib is the median over
passes. Set-up time is the median over fresh interpreters importing
groversim and groversim.cli: several probes plus every pass's worker.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json.
With --trace 1 untraced and traced passes alternate, and the result holds
its per-layer metrics: per-layer times are medians over traced passes,
counts must repeat exactly, and trace.overhead_s is the traced minus the
untraced median wall time. Every output is checked (see workloads.py); a
command that exits non-zero or fails its check counts as failed.

Human-readable lines, with fail_ratio and the environment record, come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The full record, per-pass samples
included, goes to .perfbench/<workload>/result.json in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, commands_for, marked_index, state_bytes

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench"

SETUP_PROBES = 7
# The machine's speed drifts between two levels over tens of seconds. The
# median of many short passes jumps between the levels from run to run;
# the mean over a few seconds of passes moves smoothly with the share of
# time spent at each, so short passes are pooled into blocks this long.
BLOCK_S = 5.0
PASS_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """A worker or a run ended without producing its result."""


def spawn(args: list[str]) -> tuple[float, subprocess.Popen]:
    """Start a worker; return the seconds until it reported ready, and the process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        proc.stdout.close()
        if ready != "ready\n":
            raise BenchmarkError(f"worker did not start (exit code {finish(proc)})")
    except BaseException:
        kill(proc)
        raise
    return setup, proc


def kill(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.wait()


def finish(proc: subprocess.Popen) -> int:
    """Wait for a worker, killing it past the timeout; return its exit code."""
    try:
        return proc.wait(PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill(proc)
        raise BenchmarkError(f"worker still running after {PASS_TIMEOUT_S} s") from None
    except BaseException:
        kill(proc)
        raise


def probe_setup() -> float:
    setup, proc = spawn(["--probe"])
    if finish(proc) != 0:
        raise BenchmarkError("set-up probe failed")
    return setup


def run_pass(workload: str, marked: int, traced: bool, work: Path, accepted: set[str]) -> dict:
    """One pass in a fresh worker, with its outputs checked.

    `accepted` holds the digests of output sets that already passed every
    check in this run. A pass whose outputs are byte-identical to such a
    set passes without checking them again; the first pass, and any pass
    whose outputs differ, gets the full checks.
    """
    commands = commands_for(workload, marked)
    outdir = work / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    result_path = work / "pass.json"
    result_path.unlink(missing_ok=True)
    spec = {
        "workload": workload,
        "marked": marked,
        "trace": traced,
        "outdir": str(outdir),
        "result": str(result_path),
        "spans": str(work / "spans.npz"),
    }
    setup, proc = spawn([json.dumps(spec)])
    code = finish(proc)
    if code != 0 or not result_path.exists():
        raise BenchmarkError(f"worker exited with code {code}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = setup
    result["traced"] = traced

    outputs = {c.output: (outdir / c.output).read_bytes() for c in commands if (outdir / c.output).exists()}
    digest = hashlib.sha256()
    for name in sorted(outputs):
        digest.update(f"{name}\0{hashlib.sha256(outputs[name]).hexdigest()}\0".encode())
    digest.update(json.dumps(result["exit_codes"]).encode())
    result["outputs_sha256"] = digest.hexdigest()
    if result["outputs_sha256"] in accepted:
        result["problems"] = []
        return result
    problems = []
    for command, exit_code in zip(commands, result["exit_codes"]):
        if exit_code != 0:
            problems.append(f"{command.output}: exit code {exit_code}")
        elif command.output not in outputs:
            problems.append(f"{command.output}: no output written")
        elif (problem := command.check(outputs[command.output], outputs)) is not None:
            problems.append(f"{command.output}: {problem}")
    result["problems"] = problems
    if not problems:
        accepted.add(result["outputs_sha256"])
    return result


def blocks(passes: list[dict]) -> list[list[dict]]:
    """Consecutive passes grouped into blocks of at least BLOCK_S seconds of wall time.

    A remainder shorter than BLOCK_S joins the last block; a run shorter
    than BLOCK_S is one block.
    """
    grouped, current, span = [], [], 0.0
    for p in passes:
        current.append(p)
        span += p["wall_s"]
        if span >= BLOCK_S:
            grouped.append(current)
            current, span = [], 0.0
    if current and grouped:
        grouped[-1].extend(current)
    elif current:
        grouped.append(current)
    return grouped


def block_median(grouped: list[list[dict]], key: str) -> float:
    """Median over blocks of the mean of `key` over each block's passes."""
    return statistics.median(statistics.fmean(p[key] for p in block) for block in grouped)


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, and its value."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100 * (len(ordered) - 10) // len(ordered), ordered[-11]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one workload; figures are None when no pass completed."""
    work = WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    marked = marked_index(seed)
    n_commands = len(commands_for(name, marked))

    probe_setup()  # the first import in a fresh checkout compiles bytecode
    # Half the probes run before the passes and half after, so that set-up
    # is not sampled only in the machine's state at the start of the run.
    setups = [probe_setup() for _ in range(SETUP_PROBES // 2)]
    passes, attempted, failed, accepted = [], 0, 0, set()
    min_passes = 2 if trace else 1
    start = time.perf_counter()
    while True:
        done = attempted // n_commands
        # Start another pass only if, at the mean pass length so far, it
        # ends within the run length.
        if done >= min_passes and (time.perf_counter() - start) * (done + 1) / done > seconds:
            break
        traced = trace and done % 2 == 1
        attempted += n_commands
        try:
            result = run_pass(name, marked, traced, work, accepted)
        except BenchmarkError as exc:
            print(f"{name}: pass failed: {exc}", file=sys.stderr)
            failed += n_commands
            continue
        for problem in result["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        failed += len(result["problems"])
        setups.append(result["setup_s"])
        passes.append(result)
    setups += [probe_setup() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    summary = {
        "workload": name,
        "seed": seed,
        "marked": marked,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "largest_state_bytes": state_bytes(name),
        "setup_samples": setups,
        "wall_samples": [p["wall_s"] for p in plain],
        "blocks": [len(block) for block in blocks(plain)],
        "wall_tail": tail([p["wall_s"] for p in plain]),
        "env": passes[0]["env"] if passes else None,
        "end_to_end": None,
        "per_layer": None,
        "passes": passes,
    }
    if plain:
        grouped = blocks(plain)
        summary["end_to_end"] = {
            "wall_s": block_median(grouped, "wall_s"),
            "cpu_s": block_median(grouped, "cpu_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        }
    if plain and traced_passes:
        summary["per_layer"] = layer_summary(traced_passes, plain)
    return summary


def layer_summary(traced: list[dict], plain: list[dict]) -> dict:
    """Median of each per-layer time over traced passes; counts must repeat."""
    per_pass = [{**p["layers"], "cli.bytes_out": p["bytes_out"]} for p in traced]
    layers = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        is_time = key.endswith("_s") or ".s_per_iteration." in key
        if not is_time and len(set(values)) != 1:
            raise BenchmarkError(f"count {key} differs between passes: {values}")
        layers[key] = statistics.median(values)
    layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    return layers


def report(summary: dict, declared: list[dict]) -> dict:
    """Print one workload's human-readable lines; return its declared metrics."""
    print(
        f"{summary['workload']}: seed {summary['seed']} (marked {summary['marked']}), "
        f"{summary['attempted']} commands, {summary['failed']} failed, fail_ratio {summary['fail_ratio']:.4g}, "
        f"largest state {summary['largest_state_bytes']} B (computed)"
    )
    walls = summary["wall_samples"]
    if summary["wall_tail"]:
        pct, value = summary["wall_tail"]
        print(f"  wall_s per pass: median {statistics.median(walls):.6g} s, p{pct} {value:.6g} s over {len(walls)} passes")
    elif walls:
        print(f"  wall_s per pass: median {statistics.median(walls):.6g} s over {len(walls)} passes; a tail needs 11")
    print(f"  wall_s and cpu_s: median over {len(summary['blocks'])} blocks of {summary['blocks']} passes")
    print(f"  setup_s over {len(summary['setup_samples'])} interpreters")
    found = {**(summary["end_to_end"] or {}), **(summary["per_layer"] or {})}
    metrics = {}
    for spec in declared:
        value = found.get(spec["name"])
        if value is None:
            raise BenchmarkError(f"{summary['workload']}: metric {spec['name']} not measured")
        print(f"  {spec['name']:<34} {value:14.6g} {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "groversim" / "cli.py").is_file():
        print(f"error: no groversim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, env = {}, 0, 0, None
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
            (WORK_DIR / name / "result.json").write_text(json.dumps(summary, indent=1))
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in report(summary, declared).items()})
            attempted += summary["attempted"]
            failed += summary["failed"]
            env = env or summary["env"]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
