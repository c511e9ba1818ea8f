"""scripts/bench_record.py: its summaries, and one recording of the lightest
workload read back from bench/run.py's own output."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_is_median_quartiles_and_relative_spread(bench_record):
    summary = bench_record.summarize([4.0, 1.0, 3.0, 2.0, 5.0], "s")
    assert summary == {"median": 3.0, "q1": 1.5, "q3": 4.5, "spread": 1.0, "unit": "s",
                       "runs": 5}
    assert bench_record.summarize([2.0], "MiB")["q1"] == 2.0


def test_records_the_baseline_shape(bench_record):
    bench = bench_record.record(["exact_width"], [1], 0)
    metrics = bench["end_to_end"]["exact_width"]["seeds_1_1"]
    assert set(metrics) == {"setup_s", "wall_s", "top_rung_s", "peak_rss_mib",
                            "unscaled_setup_s", "unscaled_wall_s", "unscaled_top_rung_s"}
    assert all(m["runs"] == 1 and m["median"] > 0 for m in metrics.values())
    assert bench["fail_ratio"]["exact_width"]["failed"] == 0
    assert bench["per_layer_seed1"]["exact_width"]["width.dp_states"] > 0
