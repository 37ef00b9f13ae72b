"""One pass of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON
       python3 perfbench/worker.py --probe

The worker imports groversim and groversim.cli from the checkout's src/
and prints "ready"; the parent times set-up from spawning the process up
to that line. A probe stops there. Otherwise the worker runs the
workload's commands through groversim.cli.main, each writing its output
file with --out, and writes one JSON object with the pass's measurements
to SPEC["result"]. With SPEC["trace"] the calls are traced and the spans
are written to SPEC["spans"].
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def run_command(cli_main, argv: list[str]) -> int:
    """Exit code of one CLI invocation, as the shell would see it."""
    try:
        cli_main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        traceback.print_exc()
        return 1
    return 0


def blas_info() -> dict:
    """Loaded BLAS library and its thread cap, found through the process map."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "blas" in line.rsplit("/", 1)[-1].lower()})
    info = {"library": [Path(p).name for p in libs], "threads": None}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_QUERIES:
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.restype = ctypes.c_int
                query.argtypes = []
                info["threads"] = query()
                return info
    return info


def cpu_info() -> dict:
    model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / key).read_text().strip() for key in ("level", "type", "size"))
            if kind != "Instruction":
                caches[f"L{level}"] = size
    return {"cpu_model": model, "caches": caches}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        **cpu_info(),
        "git_commit": git_commit(),
    }


def main() -> int:
    sys.path.insert(0, str(SRC))
    import groversim
    import groversim.cli

    if not Path(groversim.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported groversim from {groversim.__file__}, not {SRC}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    # Anything the program prints from here on goes to stderr, so the
    # parent never has to drain the pipe.
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    if sys.argv[1] == "--probe":
        return 0

    from workloads import commands_for

    spec = json.loads(sys.argv[1])
    outdir = Path(spec["outdir"])
    commands = commands_for(spec["workload"], spec["marked"])
    tracer = None
    scope = contextlib.nullcontext()
    if spec["trace"]:
        from tracer import Tracer, instrumented

        tracer = Tracer()
        scope = instrumented(tracer)

    codes, seconds = [], []
    with scope:
        cli_main = groversim.cli.main  # the traced binding inside the scope
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        pass_start = time.perf_counter()
        for command in commands:
            start = time.perf_counter()
            codes.append(run_command(cli_main, [*command.argv, "--out", str(outdir / command.output)]))
            seconds.append(time.perf_counter() - start)
        wall = time.perf_counter() - pass_start
        usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mib": usage1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit_codes": codes,
        "command_s": seconds,
        "bytes_out": sum((outdir / c.output).stat().st_size for c in commands if (outdir / c.output).exists()),
        "env": environment(),
    }
    if tracer is not None:
        from tracer import layer_metrics

        spans = tracer.arrays()
        result["layers"] = layer_metrics(tracer.labels, spans)
        tracer.save(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
