"""One workload in one process: set-up, timed passes and the correctness gate.

Started by run.py; prints `READY` once set-up is done (run.py times the
process from its start to that line), then one JSON line with the
measurements. With --setup-only it exits after `READY`.

Commands run closed-loop and back to back, one at a time, through
`widthlab.cli.main(argv)` in this process with stdout captured to memory.
Before each timed command the matching core's adjacency cache is cleared
and the garbage collector run, so each command starts as cold as a fresh
`widthlab` process would.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from widthlab import cli, graph  # noqa: E402

import ladders  # noqa: E402
import tracer as tracing  # noqa: E402

DIGESTS = BENCH / "digests.json"


def run_step(step: ladders.Step) -> ladders.Result:
    if step.out is not None:
        step.out.unlink(missing_ok=True)  # never read a previous pass's file
    graph.adjacency_masks.cache_clear()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        if step.call is not None:
            code, text = step.call()
            out.write(text)
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(step.argv)
    except Exception as exc:  # a crash of the program under test is a failed command
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    seconds = time.perf_counter() - start
    out_bytes = step.out.read_bytes() if step.out is not None and step.out.exists() else None
    return ladders.Result(code, error, out.getvalue(), out_bytes, seconds)


def speed_sample() -> float:
    """Seconds one run of a fixed pure-Python loop takes. The host's speed
    drifts by tens of percent over minutes; the median of these samples,
    taken between commands, tracks it (run.py scales times by it)."""
    start = time.perf_counter()
    total = 0
    for i in range(15000):
        total += i * i % 7
    return time.perf_counter() - start


def run_pass(ladder: ladders.Ladder):
    return {step.label: run_step(step) for step in ladder.steps}


def json_digests(ladder: ladders.Ladder, results) -> dict[str, str]:
    return {s.label: hashlib.sha256(results[s.label].stdout.encode()).hexdigest()
            for s in ladder.steps if s.json_stdout and results[s.label].error is None}


def judge(ladder: ladders.Ladder, steps: list[ladders.Step], results,
          recorded: dict[str, str] | None):
    """Per step: None if it succeeded, else why it failed: an exception
    escaped, the exit code was wrong or the output failed its check."""
    verdicts = {}
    for step in steps:
        r = results[step.label]
        if r.error is not None:
            verdicts[step.label] = r.error
        elif r.code != step.expect_exit:
            verdicts[step.label] = f"exit {r.code}, expected {step.expect_exit}"
        else:
            verdicts[step.label] = None
    for label, check in ladder.checks:
        if label not in verdicts or verdicts[label] is not None:
            continue
        try:
            verdicts[label] = check(results)
        except Exception as exc:  # malformed output fails its check
            verdicts[label] = f"check raised {type(exc).__name__}: {exc}"
    if recorded is not None:
        for label, digest in json_digests(ladder, results).items():
            if verdicts[label] is None and recorded.get(label) != digest:
                verdicts[label] = "--json output differs from the recorded digest"
    return verdicts


def recorded_digests(workload: str, seed: int) -> dict[str, str] | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(str(seed), {}).get(workload)


def traced_run(step: ladders.Step, tracer: tracing.Tracer, problems: set[str]):
    """One command with the tracer installed; its own check failures go to `problems`."""
    tracer.install()
    problems.update(tracer.coverage_problems(installed=True))
    try:
        return run_step(step)
    finally:
        tracer.uninstall()
        problems.update(tracer.coverage_problems(installed=False))


def measure(ladder: ladders.Ladder, seed: int, seconds: float, trace: bool) -> dict:
    """Run the ladder in passes until `seconds` have passed; the first pass
    always runs in full and is checked in full, and every later command must
    repeat its first output byte for byte. Only the first outputs are kept,
    so the benchmark's own memory does not grow with the number of passes.

    Untraced, a pass runs the top rung a second time at its end, so the top
    rung gets more samples, and the last pass stops at the first command
    that would start after `seconds`. With `trace`, each command runs
    untraced and then traced, back to back; passes are whole, at least two,
    and another starts only if it should end within `seconds`.
    """
    top = next(s for s in ladder.steps if s.label == ladder.top_rung)
    schedule = ladder.steps if trace else ladder.steps + [top]
    tracer = tracing.Tracer() if trace else None
    problems: set[str] = set()  # the tracer's own check failures
    step_s = {s.label: [] for s in ladder.steps}
    traced_step_s = {s.label: [] for s in ladder.steps}
    layers = []
    speed_s = []
    reference = {}  # label -> first result
    differs = []  # per attempt: (label, why its output differs from the first, or None)
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        pass_start = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        for step in schedule:
            if passes and not trace and time.perf_counter() >= deadline:
                break
            runs = [("repeated", run_step(step), step_s)]
            if tracer is not None:
                runs.append(("traced", traced_run(step, tracer, problems), traced_step_s))
            for what, r, times in runs:
                times[step.label].append(r.seconds)
                first = reference.setdefault(step.label, r)
                differs.append((step.label, None if r.same_output(first)
                                else f"{what} output differs from the first run"))
            speed_s.append(speed_sample())
        passes += 1
        if tracer is not None:
            layers.append(tracing.layer_metrics(tracer))
        now = time.perf_counter()
        if trace:
            if passes >= 2 and 2 * now - pass_start > deadline:
                break
        elif now >= deadline:
            break

    verdicts = judge(ladder, ladder.steps, reference, recorded_digests(ladder.workload, seed))
    failures: dict[str, str] = {}  # label -> first reason
    failed = 0
    for label, why in differs:
        why = verdicts[label] or why
        if why is not None:
            failed += 1
            failures.setdefault(label, why)
    report = {
        "workload": ladder.workload,
        "top_rung": ladder.top_rung,
        "attempted": len(differs),
        "failed": failed,
        "failures": failures,
        "problems": sorted(problems),
        "passes": passes,
        "step_s": step_s,
        "speed_s": speed_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["traced_step_s"] = traced_step_s
        # median_low keeps counts whole; counts repeat exactly from pass to pass
        report["layers"] = {name: statistics.median_low(m[name] for m in layers)
                            for name in layers[0]}
    report["probes"] = {probe.label: run_probe(ladder, probe) for probe in ladder.probes}
    return report


def run_probe(ladder: ladders.Ladder, probe: ladders.Step) -> tuple[str, bool]:
    """Run a known-defect probe once, untimed: (what happened, as expected).
    Passing its check and raising its known exception are both expected."""
    r = run_step(probe)
    if r.error is not None and r.error.startswith(f"{probe.known_defect}:"):
        return f"known defect: {r.error}", True
    verdict = judge(ladder, [probe], {probe.label: r}, None)[probe.label]
    return (verdict, False) if verdict is not None else ("passes", True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=ladders.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for the inputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True)
    try:
        ladder = ladders.BY_NAME[args.workload](args.seed, work)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        report = measure(ladder, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
