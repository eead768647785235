"""Schema sanity of the committed benchmark snapshots.

The nightly workflow (``.github/workflows/bench.yml``) commits each
``pytest-benchmark`` run to ``benchmarks/snapshots/BENCH_<date>.json`` so
the repository carries its own performance trajectory.  A malformed
snapshot (truncated upload, hand-edited file, pytest-benchmark schema
drift) would silently poison every later trend analysis, so this suite
fails CI on one.
"""

import json
import re
from datetime import datetime
from pathlib import Path

import pytest

SNAPSHOT_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "snapshots"
SNAPSHOT_NAME = re.compile(r"^BENCH_(\d{4}-\d{2}-\d{2})\.json$")

snapshots = sorted(SNAPSHOT_DIR.glob("BENCH_*.json"))


def test_trajectory_is_seeded():
    """At least one snapshot is committed (the perf trajectory is real)."""
    assert snapshots, f"no BENCH_*.json committed under {SNAPSHOT_DIR}"


@pytest.mark.parametrize("path", snapshots, ids=lambda p: p.name)
class TestSnapshotSchema:
    def test_filename_is_a_dated_snapshot(self, path):
        match = SNAPSHOT_NAME.match(path.name)
        assert match, f"{path.name} does not match BENCH_YYYY-MM-DD.json"
        datetime.strptime(match.group(1), "%Y-%m-%d")

    def test_payload_has_pytest_benchmark_shape(self, path):
        payload = json.loads(path.read_text())
        for key in ("benchmarks", "machine_info", "datetime", "version"):
            assert key in payload, f"{path.name} misses top-level key {key!r}"
        assert payload["benchmarks"], f"{path.name} records no benchmarks"

    def test_every_benchmark_entry_is_well_formed(self, path):
        payload = json.loads(path.read_text())
        for bench in payload["benchmarks"]:
            assert isinstance(bench.get("name"), str) and bench["name"]
            stats = bench.get("stats")
            assert isinstance(stats, dict), f"{bench['name']}: missing stats"
            for key in ("mean", "min", "max", "stddev", "rounds"):
                assert key in stats, f"{bench['name']}: stats misses {key!r}"
            assert stats["mean"] > 0.0
            assert 0.0 < stats["min"] <= stats["mean"] <= stats["max"]
            assert stats["rounds"] >= 1
            for key, value in bench.get("extra_info", {}).items():
                assert isinstance(value, (int, float, str, bool)), (
                    f"{bench['name']}: extra_info[{key!r}] is not a scalar"
                )

    def test_serving_hotpath_metrics_are_well_formed(self, path):
        """Snapshots from the serving era carry the latency/throughput schema.

        ``benchmarks/test_serving_hotpath.py`` (added 2026-08-07) reports
        p50/p99 per-example latency and examples/sec for single-example vs
        microbatched scoring, plus the measured speedup, in ``extra_info``.
        Snapshots dated on or after that day must include the entry; any
        snapshot carrying one must have a complete, consistent schema.
        """
        required = (
            "single_p50_ms",
            "single_p99_ms",
            "single_examples_per_sec",
            "micro_p50_ms",
            "micro_p99_ms",
            "micro_examples_per_sec",
            "serving_speedup",
            "example_chunk",
        )
        payload = json.loads(path.read_text())
        serving = [
            bench
            for bench in payload["benchmarks"]
            if "test_serving_hotpath" in bench.get("fullname", bench["name"])
        ]
        date = datetime.strptime(SNAPSHOT_NAME.match(path.name).group(1), "%Y-%m-%d")
        if date >= datetime(2026, 8, 7):
            assert serving, f"{path.name} misses the serving hot-path benchmark"
        for bench in serving:
            extra = bench.get("extra_info", {})
            for key in required:
                assert key in extra, f"{bench['name']}: extra_info misses {key!r}"
            assert extra["example_chunk"] >= 32
            assert extra["serving_speedup"] >= 3.0
            assert 0.0 < extra["single_p50_ms"] <= extra["single_p99_ms"]
            assert 0.0 < extra["micro_p50_ms"] <= extra["micro_p99_ms"]
            assert (
                extra["micro_examples_per_sec"] > extra["single_examples_per_sec"]
            )

    def test_has_engine_benchmarks(self, path):
        """Every snapshot carries the circuit-engine hot-path series.

        The nightly run executes the whole ``benchmarks/`` suite, which
        includes ``benchmarks/test_engine_hotpath.py`` — a snapshot without
        its compiled-transient and batched-sweep entries means the engine
        benchmarks silently stopped running.
        """
        payload = json.loads(path.read_text())
        names = [bench["name"] for bench in payload["benchmarks"]]
        for expected in ("test_compiled_layer_transient", "test_batched_vdd_sweep"):
            assert any(expected in name for name in names), (
                f"{path.name} misses the {expected} engine benchmark"
            )
