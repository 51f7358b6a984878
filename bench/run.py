"""genresolvent benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed). The launcher pins BLAS to one thread before
numpy loads, writes the workload's seeded inputs under ``.bench_work/``,
takes set-up samples in fresh interpreters, runs one closed-loop worker
process for S seconds and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Times are
calibrated to a reference host speed (see hostspeed.py). The line before it
records the environment, the input digests, the sample counts and the raw
wall-clock figures. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Every BLAS the numpy wheels may load reads one of these at load time, so
# they must be set before numpy is imported here or in any child process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_work")
PROGRAM = Path("src") / "genresolvent" / "__init__.py"
# Set-up samples per run: the worker's own first command plus this many
# extra fresh interpreters; the median is reported.
SETUP_PROBES = 4
# The whole run, children included, must end within this many seconds.
RUN_LIMIT_S = 175


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS loaded into this process, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def run_worker(manifest: Path, seconds: float, trace: int, deadline: float,
               trace_out: Path | None = None) -> dict:
    """Start one fresh worker interpreter and return its JSON summary."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), str(manifest),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    from hostspeed import kernel  # loads numpy, so only once main() has pinned BLAS
    probe_before = kernel()
    launched = time.monotonic()
    proc = subprocess.run(argv + ["--launched", repr(launched)], env=env, capture_output=True,
                          text=True, timeout=max(deadline - launched, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return dict(json.loads(lines[-1]), probe_before_setup_s=probe_before)


def main() -> int:
    parser = argparse.ArgumentParser(description="genresolvent benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    if not PROGRAM.is_file():
        print(f"run.py: {PROGRAM} not found; run from the root of a genresolvent checkout",
              file=sys.stderr)
        return 2
    from inputs import WORKLOADS, write_workload

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    import compileall
    compileall.compile_dir(str(PROGRAM.parent), quiet=2)  # every sample imports from .pyc

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        commands, digests = write_workload(args.workload, args.seed, workdir)
        manifest = workdir / "manifest.json"
        manifest.write_text(json.dumps({"commands": [vars(c) for c in commands]}),
                            encoding="utf-8")
        probes = [run_worker(manifest, 0, 0, deadline) for _ in range(SETUP_PROBES)]
        trace_out = WORK_DIR / f"trace-{args.workload}.npz" if args.trace else None
        run = run_worker(manifest, args.seconds, args.trace, deadline, trace_out)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = run["attempted"] + sum(p["attempted"] for p in probes)
    failed = run["failed"] + sum(p["failed"] for p in probes)
    from hostspeed import at_reference
    setup_wall = [w["setup_s"] for w in probes + [run]]
    setup = [at_reference(w["setup_s"], [w["probe_before_setup_s"], w["probe_after_setup_s"]])
             for w in probes + [run]]
    cmd_ms = [s * 1e3 for s in run["cmd_calibrated"]]
    wall_ms = [s * 1e3 for s in run["cmd_seconds"]]
    if args.trace:
        from tracing import LAYER_UNITS
        metrics = {name: {"value": run["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cmds_per_s": {"value": run["timed_correct"] / sum(run["cmd_calibrated"]),
                           "unit": "1/s"},
            "cmd_p50_ms": {"value": statistics.median(cmd_ms), "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "input_sha256": digests,
        "cycle_commands": len(commands),
        "cmd_samples": len(cmd_ms),
        "wall_cmds_per_s": run["timed_correct"] / run["timed_seconds"],
        "wall_cmd_p50_ms": statistics.median(wall_ms),
        "host_probes": len(run["probe_s"]),
        "host_probe_p50_ms": statistics.median(run["probe_s"]) * 1e3,
        "setup_samples": len(setup),
        "wall_setup_s": statistics.median(setup_wall),
    }
    if len(cmd_ms) >= 100:  # highest percentile with at least ten samples beyond it
        pct = 90 if len(cmd_ms) < 1000 else 99
        info[f"cmd_p{pct}_ms"] = statistics.quantiles(cmd_ms, n=100)[pct - 1]
    if args.trace:
        info["traced_cycles"] = run["traced_cycles"]
        info["spans"] = run["spans"]
        info["trace_file"] = str(trace_out)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
