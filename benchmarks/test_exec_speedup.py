"""Executor scaling benchmark: parallel sweeps vs the serial loop.

Measures the wall-clock win of fanning a Fig. 8-shaped sweep (a batch of
independent pipeline evaluations) out over a process pool, and asserts that
parallel results are *bit-identical* to serial ones.

Two workloads are used:

* A wait-bound stand-in pipeline with a fixed per-task cost, to measure the
  executor's own scaling without needing spare cores (process pools overlap
  such tasks even on a single-CPU runner).  This is where the ≥2x speedup
  with ``workers=4`` is asserted.
* The real classification pipeline at a tiny scale, to prove serial/parallel
  result parity on genuine training runs.

On a multi-core machine the same ``workers=4`` configuration applies to the
real compute-bound sweeps (e.g. ``AttackCampaign(pipeline, workers=4)`` for
the Fig. 8 grids); the executor's measured speedup is reported by
``format_execution_report``.
"""

import dataclasses
import multiprocessing
import time

import pytest

from repro.attacks import Attack2ExcitatoryThreshold, AttackCampaign
from repro.core.reporting import format_execution_report
from repro.core.results import ExperimentResult
from repro.exec import SweepExecutor

#: Per-task cost of the stand-in pipeline and the sweep size.  8 tasks at
#: 0.4 s give a 3.2 s serial floor; four workers land near 0.8 s plus pool
#: start-up, comfortably past the asserted 2x.
TASK_SECONDS = 0.4
GRID_THRESHOLD_CHANGES = (-0.2, -0.1, 0.1, 0.2)
GRID_FRACTIONS = (0.5, 1.0)


@dataclasses.dataclass(frozen=True)
class WaitBoundConfig:
    """Minimal picklable config for the stand-in pipeline.

    A dataclass so the executor's cache scope is derived from its *content*
    (stable across processes) — the elastic benchmark merges caches written
    by independently-launched workers.
    """

    scale_name: str = "wait-bound"


class WaitBoundPipeline:
    """Pipeline-protocol stand-in whose runs cost a fixed wall-clock time.

    Results are a pure function of the attack label, so serial and parallel
    execution must agree exactly — mirroring the real pipeline's contract.
    """

    def __init__(self, config=None) -> None:
        self.config = config or WaitBoundConfig()

    def _result(self, label: str) -> ExperimentResult:
        time.sleep(TASK_SECONDS)
        # Deterministic pseudo-accuracy derived from the label alone.
        accuracy = (sum(label.encode()) % 97) / 97.0
        return ExperimentResult(attack_label=label, accuracy=accuracy)

    def run(self, attack) -> ExperimentResult:
        return self._result(attack.label())

    def run_baseline(self) -> ExperimentResult:
        return self._result("baseline")


def build_wait_bound_pipeline() -> WaitBoundPipeline:
    return WaitBoundPipeline()


def _grid_attacks():
    return [
        Attack2ExcitatoryThreshold(threshold_change=change, fraction=fraction)
        for change in GRID_THRESHOLD_CHANGES
        for fraction in GRID_FRACTIONS
    ]


def test_parallel_sweep_speedup_over_serial(benchmark):
    attacks = _grid_attacks()

    serial = SweepExecutor(WaitBoundPipeline(), workers=0)
    start = time.perf_counter()
    serial_results = serial.map(attacks)
    serial_seconds = time.perf_counter() - start

    parallel = SweepExecutor(
        None, workers=4, pipeline_factory=build_wait_bound_pipeline
    )

    def run_parallel():
        return parallel.map(attacks)

    start = time.perf_counter()
    parallel_results = benchmark.pedantic(run_parallel, rounds=1, iterations=1)
    parallel_seconds = time.perf_counter() - start

    speedup = serial_seconds / parallel_seconds
    print(
        f"\nserial {serial_seconds:.2f} s, parallel(4) {parallel_seconds:.2f} s, "
        f"speedup {speedup:.2f}x over {len(attacks)} tasks"
    )
    print(format_execution_report(parallel.stats))

    for left, right in zip(serial_results, parallel_results):
        assert left.attack_label == right.attack_label
        assert left.accuracy == right.accuracy
    assert speedup >= 2.0, f"expected >=2x with workers=4, measured {speedup:.2f}x"


def test_resilient_sweep_under_chaos_matches_clean_run(benchmark):
    """A supervised sweep with injected worker faults still lands the same
    results as a fault-free serial run, at a bounded wall-clock overhead."""
    from repro.exec import Fault, FaultPlan, ResiliencePolicy, RetryPolicy

    attacks = _grid_attacks()
    clean = SweepExecutor(WaitBoundPipeline(), workers=0)
    clean_results = clean.map(attacks)

    # Every task fails its first attempt; the supervisor's retry heals it.
    plan = FaultPlan(name="bench-chaos", faults=(Fault(action="raise"),))
    policy = ResiliencePolicy(
        retry=RetryPolicy(backoff_base=0.01, backoff_max=0.05), chaos=plan
    )
    chaotic = SweepExecutor(
        None,
        workers=4,
        pipeline_factory=build_wait_bound_pipeline,
        policy=policy,
    )

    def run_chaotic():
        return chaotic.map(attacks)

    chaotic_results = benchmark.pedantic(run_chaotic, rounds=1, iterations=1)
    chaotic.close()
    print(format_execution_report(chaotic.stats))

    for left, right in zip(clean_results, chaotic_results):
        assert left.attack_label == right.attack_label
        assert left.accuracy == right.accuracy
    assert chaotic.stats.retries == len(attacks)


def _run_elastic_worker(workdir: str, worker_id: str) -> None:
    """One cooperating elastic process of the scaling benchmark.

    Module-level so it is importable by child processes; each worker opens
    its own persistent cache, joins the shared lease board and drains
    whatever chunks it can claim or steal.
    """
    from repro.exec import ElasticPolicy, ElasticScheduler, build_chunks
    from repro.store import open_worker_cache

    attacks = _grid_attacks()
    cache = open_worker_cache(workdir, worker_id)
    executor = SweepExecutor(
        None, workers=0, pipeline_factory=build_wait_bound_pipeline, cache=cache
    )
    scheduler = ElasticScheduler(
        workdir,
        "bench",
        policy=ElasticPolicy(lease_ttl=30.0, chunk_size=1, poll_interval=0.02),
        owner=worker_id,
        stats=executor.stats,
    )
    chunks = build_chunks(len(attacks), 1)
    scheduler.drain(
        chunks,
        lambda chunk: executor.map([attacks[i] for i in chunk.positions]),
    )


def _elastic_drain_seconds(workdir, n_workers: int) -> float:
    """Wall-clock of ``n_workers`` cooperating processes draining the grid."""
    context = multiprocessing.get_context("fork")
    start = time.perf_counter()
    processes = [
        context.Process(
            target=_run_elastic_worker, args=(str(workdir), f"bench-w{i}")
        )
        for i in range(n_workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0
    return time.perf_counter() - start


def test_elastic_scaling_one_to_four_processes(benchmark, tmp_path):
    """Work-stealing over the shard-cache substrate scales like the pool.

    One process drains the wait-bound grid serially; four cooperating
    processes split it dynamically through lease files.  The union of the
    per-worker caches must resolve every variant to the same bits the
    serial executor computes.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    from repro.exec import build_chunks
    from repro.store import open_worker_cache

    attacks = _grid_attacks()
    single_dir, fleet_dir = tmp_path / "single", tmp_path / "fleet"
    single_seconds = _elastic_drain_seconds(single_dir, 1)

    fleet_seconds = benchmark.pedantic(
        _elastic_drain_seconds, args=(fleet_dir, 4), rounds=1, iterations=1
    )

    speedup = single_seconds / fleet_seconds
    print(
        f"\nelastic 1 proc {single_seconds:.2f} s, 4 procs "
        f"{fleet_seconds:.2f} s, speedup {speedup:.2f}x "
        f"over {len(attacks)} tasks"
    )
    benchmark.extra_info["elastic_speedup"] = round(speedup, 3)
    benchmark.extra_info["single_process_seconds"] = round(single_seconds, 3)
    benchmark.extra_info["four_process_seconds"] = round(fleet_seconds, 3)
    benchmark.extra_info["tasks"] = len(attacks)
    benchmark.extra_info["chunks"] = len(build_chunks(len(attacks), 1))

    # Result parity: the union of the fleet's caches matches a serial run.
    serial = SweepExecutor(WaitBoundPipeline(), workers=0)
    serial_results = serial.map(attacks)
    union = open_worker_cache(fleet_dir, "checker")
    merged = SweepExecutor(
        None, workers=0, pipeline_factory=build_wait_bound_pipeline, cache=union
    ).peek_results(attacks)
    assert all(result is not None for result in merged)
    for left, right in zip(serial_results, merged):
        assert left.attack_label == right.attack_label
        assert left.accuracy == right.accuracy
    assert speedup >= 2.0, f"expected >=2x with 4 processes, measured {speedup:.2f}x"


def test_parallel_campaign_matches_serial_bit_for_bit(tiny_pipeline_config):
    """Fig. 8a-scope sweep: campaign results identical for workers=0 and 4."""
    from repro.core import ClassificationPipeline

    changes, fractions = (-0.2, 0.2), (0.0, 1.0)
    serial_campaign = AttackCampaign(ClassificationPipeline(tiny_pipeline_config))
    serial_grid = serial_campaign.sweep_layer_threshold(
        "excitatory", changes, fractions
    )
    parallel_campaign = AttackCampaign(
        ClassificationPipeline(tiny_pipeline_config), workers=4
    )
    parallel_grid = parallel_campaign.sweep_layer_threshold(
        "excitatory", changes, fractions
    )
    assert (serial_grid.accuracies == parallel_grid.accuracies).all()
    assert serial_grid.baseline_accuracy == parallel_grid.baseline_accuracy
