"""One closed-loop client of the genresolvent CLI, run in a fresh interpreter.

    python3 bench/worker.py MANIFEST --launched T --seconds S --trace 0|1

The worker imports genresolvent, runs the workload's first command untimed
(its finish time, less the launcher's monotonic stamp T taken just before
this process was started, is one set-up sample), then calls ``cli.main``
one command at a time, cycling through the manifest, until S seconds have
passed. With S = 0 it stops after the first command. Every command's output
is checked, as it arrives, against the outcome its input was built to
produce; outputs are not kept, so memory does not grow with throughput.
Untraced, host-speed probes (hostspeed.py) run between and during commands,
and each duration is also reported calibrated to the reference speed. The
last stdout line is a JSON summary for the launcher.

With --trace 1 the first half of the time runs untraced, for the overhead
baseline, and the second half runs whole traced cycles.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from hostspeed import HostProbe, calibrated, kernel


def run_command(cli, argv: list[str], probe: HostProbe | None = None
                ) -> tuple[int | None, str, float]:
    """Call cli.main with stdout captured; exit None means it raised.

    ``cli.main`` is looked up on every call so that a traced wrapper is seen.
    The duration leaves out the time the probe's timer took during the call.
    """
    out = io.StringIO()
    spent = probe.spent if probe is not None else 0.0
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except Exception:  # any escape from the CLI is a failed command, not a crash
        code = None
    duration = time.perf_counter() - started
    if probe is not None:
        duration -= probe.spent - spent
    return code, out.getvalue(), duration


def check(command: dict, code: int | None, output: str) -> dict:
    """Judge one command; return ok plus the points it sampled and drops it reported."""
    result = {"ok": False, "points": 0, "drops": 0}
    if code is None or code in (2, 3) or code != command["expect_exit"]:
        return result
    if command["argv"][0] == "spectrum":
        lines = output.splitlines()
        if not lines or lines[0] != "re,im,rank,is_drop":
            return result
        try:
            rows = [line.split(",") for line in lines[1:]]
            points = [complex(float(r[0]), float(r[1])) for r in rows]
            ranks = [int(r[2]) for r in rows]
            drops = sum(int(r[3]) for r in rows)
        except (ValueError, IndexError):
            return result
        oracle = np.array([complex(re, im) for re, im in command["oracle_eigs"]])
        distance = np.abs(np.array(points)[:, None] - oracle[None, :]).min(axis=1)
        far = distance > command["scan_margin"]
        full_rank = bool(np.all(np.array(ranks)[far] == command["scan_rank"]))
        ok = len(rows) == command["scan_points"] and full_rank
        return {"ok": ok, "points": len(rows), "drops": drops}
    try:
        report = json.loads(output)
    except json.JSONDecodeError:
        return result
    if report.get("exit_code") != code:
        return result
    if command["argv"][0] == "perturb":
        result["ok"] = report.get("classification") == command["expect_classification"]
        return result
    result["ok"] = True
    result["points"] = len(report.get("grid", {}).get("points", []))
    return result


def timed_loop(cli, commands: list[dict], seconds: float, whole_cycles: bool, tracer=None,
               probe: HostProbe | None = None):
    """Closed loop over the command cycle, checking each output as it arrives.

    A new command starts only while time remains. With whole_cycles the
    loop also finishes the cycle it is in, so every cycle is counted fully.
    With a probe, one host-speed probe runs before every command and one
    after the last; their indices are the returned marks. Returns the
    cli.main durations, the verdicts, the marks and the loop's wall time.
    """
    durations, verdicts, marks = [], [], []
    started = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and not (whole_cycles and i % len(commands)):
            break
        command = commands[i % len(commands)]
        if probe is not None:
            marks.append(probe.sample())
        if tracer is not None:
            tracer.current_command = i
        code, output, duration = run_command(cli, command["argv"], probe)
        durations.append(duration)
        verdicts.append(check(command, code, output))
        i += 1
    if probe is not None:
        marks.append(probe.sample())
    return durations, verdicts, marks, time.perf_counter() - started


def failures(verdicts: list[dict]) -> int:
    return sum(not v["ok"] for v in verdicts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from genresolvent import cli

    commands = json.loads(Path(args.manifest).read_text(encoding="utf-8"))["commands"]
    code, output, _ = run_command(cli, commands[0]["argv"])
    setup_s = time.monotonic() - args.launched
    first = check(commands[0], code, output)
    summary: dict = {"setup_s": setup_s, "probe_after_setup_s": kernel(),
                     "attempted": 1, "failed": int(not first["ok"])}

    if args.seconds > 0:
        untraced_seconds = args.seconds / 2 if args.trace else args.seconds
        with HostProbe() as probe:
            durations, verdicts, marks, elapsed = timed_loop(cli, commands, untraced_seconds,
                                                             False, probe=probe)
        summary["attempted"] += len(verdicts)
        summary["failed"] += failures(verdicts)
        summary.update(
            timed_seconds=elapsed,
            cmd_seconds=durations,
            timed_correct=len(verdicts) - failures(verdicts),
            cmd_calibrated=calibrated(durations, marks, probe.samples),
            probe_s=probe.samples,
        )
        if args.trace:
            summary["layers"] = traced_phase(cli, commands, args.seconds / 2,
                                             statistics.median(durations), summary, args.trace_out)

    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(summary))
    return 0


def traced_phase(cli, commands, seconds, untraced_p50, summary, trace_out) -> dict:
    from tracing import Tracer, layer_metrics, traced

    tracer = Tracer()
    with traced(tracer):
        durations, verdicts, _, _ = timed_loop(cli, commands, seconds, True, tracer)
    summary["attempted"] += len(verdicts)
    summary["failed"] += failures(verdicts)
    cycles = len(verdicts) // len(commands)
    points = [v["points"] for v in verdicts]
    grid_commands = {i for i, p in enumerate(points) if p}
    metrics = layer_metrics(tracer, cycles, sum(points) // cycles, grid_commands)
    oracle = sum(len(c["oracle_eigs"]) for c in commands)
    metrics.update({
        "criteria.scan_drop_points": sum(v["drops"] for v in verdicts) / cycles,
        "criteria.scan_oracle_eigs": float(oracle),
        "trace.overhead_frac": statistics.median(durations) / untraced_p50 - 1.0,
    })
    summary["traced_cycles"] = cycles
    summary["spans"] = len(tracer.start)
    if trace_out:
        tracer.write(trace_out)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
