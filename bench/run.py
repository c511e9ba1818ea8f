"""widthlab benchmark: four exact-solver workloads, timed end to end.

    python3 bench/run.py --workload exact_width --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the repository root. Each workload runs in its own worker process
(worker.py), so peak memory is per workload. The worker builds its inputs
from --seed, then runs the workload's whole instance ladder as one pass,
closed-loop: one client, one command at a time, back to back, in-process.
Passes repeat until --seconds have passed (the first always in full), so
each command runs many times and its time is the median over its runs.
Set-up is timed separately in fresh processes, from process start to the
first timed command, several times per run.

The reported times are scaled to a reference host speed. A shared host
runs the same code tens of percent faster or slower from one minute to the
next, and runs on different seeds land in different spells. Between
commands the worker times a fixed pure-Python loop (worker.speed_sample),
and setup_s, wall_s and top_rung_s are multiplied by REFERENCE_SPEED_S over
the run's median loop time. The loop is the benchmark's own code, so a
change to widthlab cannot move it. The unscaled figures are printed too.

--trace 0 prints the end-to-end metrics; --trace 1 runs each command
untraced and then traced and prints the per-layer metrics of the traced
runs. The last line of stdout is one JSON object: correct, attempted,
failed, metrics. `failed` counts commands that raised, exited with the
wrong code or gave output that failed its check; `correct` is false if any
command failed, a known-defect probe ended otherwise than expected or the
tracer failed its own checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
# The names of ladders.WORKLOADS; the launcher itself never imports widthlab.
WORKLOADS = ("exact_width", "lower_bound", "obdd_compile", "ordering_convert")
# worker.speed_sample's median on the host the baseline was measured on
# (2-vCPU Xeon VM at 2.0 GHz, Python 3.11); times are scaled to that speed.
REFERENCE_SPEED_S = 0.0015
SETUP_SAMPLES = 9  # set-ups per run: SETUP_SAMPLES - 1 probes plus the measuring worker
DEADLINE_S = 170.0  # a run never outlives this, whatever --seconds asks

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("top_rung_s", "s"),
              ("peak_rss_mib", "MiB"))
SCALED = ("setup_s", "wall_s", "top_rung_s")  # scaled to the reference host speed


class WorkerError(RuntimeError):
    pass


def _tail(values: list[float]) -> str:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it, where there are enough samples for one."""
    n = len(values)
    text = f"median of n={n}"
    if n >= 11:
        i = n - 11
        text += f", p{100 * (i + 1) / n:.0f}={sorted(values)[i]:.4f}"
    return text


def _spawn(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Start a worker, time it to READY, and return (setup_s, its stdout after READY)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    work = WORK / f"{args.workload}-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(work, ignore_errors=True)
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"{args.workload} worker failed (exit {proc.returncode})")
    return setup_s, rest


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [_spawn(args, True, deadline)[0] for _ in range(probes)]
    setup_s, out = _spawn(args, False, deadline)
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = setups + [setup_s]
    return report


def ladder_wall_s(step_s: dict[str, list[float]], stat=statistics.median) -> float:
    """Time to run the ladder once: the sum over commands of `stat` of each
    command's runs, so one slow run does not set it."""
    return sum(stat(times) for times in step_s.values())


def trace_overhead(report: dict) -> tuple[float, str]:
    """Traced minus untraced ladder time, from per-command minimums, and
    whether that difference stands out of the untraced runs' own spread
    (max - min per command)."""
    untraced, traced = report["step_s"], report["traced_step_s"]
    overhead = ladder_wall_s(traced, min) - ladder_wall_s(untraced, min)
    spread = sum(max(times) - min(times) for times in untraced.values())
    if abs(overhead) <= spread:
        return overhead, f"unresolved: within the untraced spread of {spread:.4f} s"
    return overhead, f"resolved: the untraced spread is {spread:.4f} s"


def speed_scale(report: dict) -> float:
    """Factor that takes this run's times to the reference host speed."""
    return REFERENCE_SPEED_S / statistics.median(report["speed_s"])


def metrics_of(report: dict, trace: bool) -> dict:
    if trace:
        layers = dict(report["layers"])
        layers["trace.overhead_s"] = trace_overhead(report)[0]
        return {name: {"value": layers[name], "unit": unit}
                for name, unit, *_ in tracer.LAYER_METRICS}
    scale = speed_scale(report)
    values = {"setup_s": scale * statistics.median(report["setup_s"]),
              "wall_s": scale * ladder_wall_s(report["step_s"]),
              "top_rung_s": scale * statistics.median(report["step_s"][report["top_rung"]]),
              "peak_rss_mib": report["peak_rss_mib"]}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def nonzero_problems(report: dict, metrics: dict) -> list[str]:
    return [f"per-layer metric {name} is 0 on {report['workload']}"
            for name, _, _, workload, _ in tracer.LAYER_METRICS
            if workload == report["workload"] and not metrics[name]["value"]]


def print_report(report: dict, metrics: dict, args) -> None:
    w = report["workload"]
    print(f"workload {w}  seed {args.seed}  passes {report['passes']}  "
          f"(closed loop, 1 client, in-process, commands back to back)")
    if args.trace:
        computed = {name for name, *_, is_computed in tracer.LAYER_METRICS if is_computed}
        notes = {name: "  (computed from instance sizes)" for name in computed}
        notes["trace.overhead_s"] = f"  ({trace_overhead(report)[1]})"
        for name, m in metrics.items():
            print(f"  {name:56s} {m['value']:>14.6g} {m['unit']}{notes.get(name, '')}")
    else:
        scale = speed_scale(report)
        notes = {"setup_s": _tail(report["setup_s"]),
                 "wall_s": "sum of per-command medians",
                 "top_rung_s": f"{_tail(report['step_s'][report['top_rung']])}; "
                               f"{report['top_rung']}",
                 "peak_rss_mib": "ru_maxrss of the worker"}
        for name, m in metrics.items():
            raw = f"unscaled {m['value'] / scale:.4f}, " if name in SCALED else ""
            print(f"  {name:14s} {m['value']:12.4f} {m['unit']:4s} ({raw}{notes[name]})")
        print(f"  host speed: loop median {statistics.median(report['speed_s']) * 1e3:.4f} ms "
              f"over n={len(report['speed_s'])}, reference {REFERENCE_SPEED_S * 1e3:.4f} ms; "
              f"times above are scaled by {scale:.4f}; per command, unscaled:")
        for label, times in report["step_s"].items():
            print(f"    {statistics.median(times):9.4f} s  {label}  ({_tail(times)})")
    ratio = report["failed"] / report["attempted"]
    print(f"  fail_ratio     {ratio:12.4f}      ({report['failed']}/{report['attempted']} "
          f"commands failed)")
    for label, reason in report["failures"].items():
        print(f"    failed: {label}: {reason}")
    for label, (outcome, expected) in report["probes"].items():
        print(f"  probe (untimed, once): {label}: {outcome}"
              f"{'' if expected else '  (unexpected)'}")
    for problem in report["problems"]:
        print(f"    trace check failed: {problem}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "widthlab" / "cli.py").is_file():
        print(f"error: no widthlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            report = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        metrics = metrics_of(report, bool(args.trace))
        if args.trace:
            report["problems"] += nonzero_problems(report, metrics)
        print_report(report, metrics, args)
        summary["correct"] &= (not report["failures"] and not report["problems"]
                               and all(ok for _, ok in report["probes"].values()))
        summary["attempted"] += report["attempted"]
        summary["failed"] += report["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
