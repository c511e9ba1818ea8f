"""Record a BENCH file: the benchmark's end-to-end metrics over ten seeds and
one traced run's per-layer metrics, in bench/baseline.json's shape.

    python3 scripts/bench_record.py --out BENCH_<n>.json

For each workload it runs `python3 bench/run.py --workload W --seed S
--seconds 25` for seeds 1-10, then one `--trace 1` run on the first seed:
about 25 minutes on a 2-vCPU VM. Each run gets a fresh, empty
PYTHONPYCACHEPREFIX, so no run loads bytecode that an earlier run or the
checkout's __pycache__ left: stale bytecode moves peak_rss_mib and setup_s.

Per workload and metric the file holds the median, the quartiles
(statistics.quantiles) and the spread (interquartile range over median) of
the runs, the same for the unscaled times, the share of commands that
failed, and the traced run's per-layer metrics. A run that is not
`correct: true` stops the recording, and nothing is written.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact_width", "lower_bound", "obdd_compile", "ordering_convert")
# run.py prints each scaled time as "  wall_s  0.1234 s  (unscaled 0.1500, ...".
UNSCALED = re.compile(r"^  (\w+) +\S+ +\S+ +\(unscaled ([0-9.]+), ", re.MULTILINE)


class RunError(RuntimeError):
    pass


def run_bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """One bench/run.py run with a fresh bytecode cache: its summary and stdout."""
    with tempfile.TemporaryDirectory(prefix="bench-pyc-") as pyc:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=pyc)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if summary is None or not summary["correct"]:
        raise RunError(f"{workload} seed {seed} trace {trace}: not correct "
                       f"(exit {proc.returncode}) {proc.stderr.strip()}")
    return summary, proc.stdout


def summarize(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "unit": unit,
            "runs": len(values)}


def hardware() -> str:
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next(line.split(":", 1)[1].strip() for line in cpuinfo
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy = f"numpy {importlib.metadata.version('numpy')}"
    except importlib.metadata.PackageNotFoundError:
        numpy = "no numpy"
    return (f"{os.cpu_count()} vCPU {model}; {platform.system()}; "
            f"Python {platform.python_version()}; {numpy}")


def record(workloads, seeds: list[int], seconds: float) -> dict:
    runs = {w: [] for w in workloads}  # (summary, stdout) per seed
    for seed in seeds:  # seed-major, so a slow spell of the host spreads over workloads
        for w in workloads:
            runs[w].append(run_bench(w, seed, seconds, 0))
            print(f"{w} seed {seed}: wall_s {runs[w][-1][0]['metrics']['wall_s']['value']:.4f}",
                  file=sys.stderr, flush=True)
    traced_key = f"per_layer_seed{seeds[0]}"
    out = {
        "what": f"Per workload: median and quartiles over {len(seeds)} runs of `python3 "
                f"bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0` for "
                f"seeds {seeds[0]}-{seeds[-1]}, each with a fresh empty PYTHONPYCACHEPREFIX, "
                f"and the per-layer metrics of one `--trace 1` run on seed {seeds[0]}. "
                "wall_s and top_rung_s are scaled to the reference host speed (see "
                "bench/run.py); the unscaled medians are given beside them. Written by "
                "scripts/bench_record.py.",
        "hardware": hardware(),
        "end_to_end": {}, "fail_ratio": {}, traced_key: {},
    }
    for w in workloads:
        summaries = [s for s, _ in runs[w]]
        metrics = {name: summarize([s["metrics"][name]["value"] for s in summaries], m["unit"])
                   for name, m in summaries[0]["metrics"].items()}
        unscaled = [dict(UNSCALED.findall(stdout)) for _, stdout in runs[w]]
        for name in ("setup_s", "wall_s", "top_rung_s"):
            metrics[f"unscaled_{name}"] = summarize([float(u[name]) for u in unscaled], "s")
        out["end_to_end"][w] = {f"seeds_{seeds[0]}_{seeds[-1]}": metrics}
        failed = sum(s["failed"] for s in summaries)
        attempted = sum(s["attempted"] for s in summaries)
        out["fail_ratio"][w] = {"failed": failed, "attempted": attempted,
                                "value": failed / attempted if attempted else 0.0}
        traced, _ = run_bench(w, seeds[0], seconds, 1)
        out[traced_key][w] = {name: m["value"] for name, m in traced["metrics"].items()}
        print(f"{w}: traced", file=sys.stderr, flush=True)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="the BENCH file to write")
    args = ap.parse_args(argv)
    try:
        bench = record(WORKLOADS, list(range(1, 11)), 25)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
