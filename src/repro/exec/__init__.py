"""Execution subsystem: parallel sweep execution with caching and timing.

The attack figures are parameter sweeps — dozens of *independent*
train-and-evaluate pipeline runs per figure.  This package factors the
"run many configurations" loop out of the sweep drivers:

* :class:`~repro.exec.executor.SweepExecutor` — fans independent attack
  evaluations out over a supervised process pool (``workers > 1``) or runs
  them inline (``workers <= 1``, the deterministic debugging default).
  Both paths follow one :class:`~repro.exec.resilience.ResiliencePolicy`:
  worker-death recovery (pool rebuild + re-dispatch of lost in-flight
  tasks), per-task timeout/retry with seeded exponential backoff, and
  percentile-based straggler re-dispatch with first-result-wins merges.
  Without a policy it follows
  :data:`~repro.exec.resilience.PLAIN_POLICY` (no retries, timeouts,
  duplicates or chaos).
* :class:`~repro.exec.cache.ResultCache` — a keyed result cache so the
  baseline and repeated attack configurations are evaluated once per
  campaign instead of once per sweep.
* :class:`~repro.exec.executor.ExecutionStats` — wall-clock and per-task
  timing, rendered through :func:`repro.core.reporting.format_execution_report`.
* :class:`~repro.exec.circuits.CircuitSweepDispatcher` — the circuit-tier
  counterpart: sweeps whose points are parameter variants of one topology
  (threshold/VDD grids) advance in lockstep through the batched engine of
  :mod:`repro.analog.batch` instead of one simulation per point.
* :class:`~repro.exec.snn_batch.PipelineBatchDispatcher` — the pipeline-tier
  twin: a serial batch of attack evaluations (variants of one Diehl&Cook
  topology) trains and evaluates in one lockstep pass through the batched
  SNN engine (:mod:`repro.snn.batched`) instead of one full run per point.
* :class:`~repro.exec.shard.ShardSpec` — the static splitter (the
  ``--shard i/n`` flag of ``python -m repro scenarios run``): shard ``i``
  owns one pre-assigned :class:`~repro.exec.shard.Chunk` of every ``n``-th
  variant, so the union of all shards is exactly the full list, with no
  coordination needed.
* :mod:`repro.exec.chaos` — the deterministic fault-injection harness
  (seeded :class:`~repro.exec.chaos.FaultPlan`: kill/delay/raise/corrupt,
  plus whole-process kill/stall and lease corruption for elastic drains)
  that regression-tests the executor's supervision and backs the ``--chaos``
  CLI flag.
* :class:`~repro.exec.microbatch.Microbatcher` — the serving front-end:
  coalesces a stream of single-example scoring requests into lockstep
  passes of up to ``example_chunk`` through the batched engine, with a
  max-linger deadline bounding per-request latency, out-of-order-safe
  result demux, and flush/occupancy counters surfaced through
  :class:`~repro.exec.executor.ExecutionStats`.
* :class:`~repro.exec.elastic.ElasticScheduler` — the dynamic splitter
  (``--elastic``): workers claim contiguous chunks through heartbeat lease
  files over a shared directory, steal leases of dead peers, and
  duplicate stragglers under the executor's
  :class:`~repro.exec.resilience.StragglerPolicy`.  Both splitters run
  each chunk through the same ``executor.map`` and merge from the union
  of per-invocation caches, validated by one
  :class:`~repro.exec.shard.MergeReport`.

Parallel execution is bit-identical to serial execution: every pipeline run
derives its random streams from ``(config.seed, attack label)`` alone, never
from shared mutable RNG state, so results do not depend on which worker runs
which task or in what order.
"""

from repro.exec.cache import ResultCache, attack_cache_key
from repro.exec.chaos import CHAOS_PLANS, Fault, FaultPlan, InjectedFault, load_fault_plan
from repro.exec.circuits import CircuitSweepDispatcher
from repro.exec.elastic import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_LEASE_TTL,
    ElasticPolicy,
    ElasticScheduler,
    Lease,
    LeaseBoard,
    LeaseCorruptionError,
    build_chunks,
    default_worker_id,
    find_stale_artifacts,
    sweep_expired_leases,
    sweep_stale_artifacts,
    whole_chunk,
)
from repro.exec.executor import (
    ExecutionStats,
    PipelineFromConfig,
    SweepExecutor,
    TaskTiming,
    default_worker_count,
)
from repro.exec.microbatch import DEFAULT_LINGER, FLUSH_CAUSES, Microbatcher
from repro.exec.resilience import (
    ResilienceExecutorError,
    ResiliencePolicy,
    RetryPolicy,
    StragglerPolicy,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.exec.shard import FULL, Chunk, MergeReport, ShardSpec, merge_report
from repro.exec.snn_batch import PipelineBatchDispatcher

__all__ = [
    "CHAOS_PLANS",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_LINGER",
    "FLUSH_CAUSES",
    "FULL",
    "Microbatcher",
    "Chunk",
    "ElasticPolicy",
    "ElasticScheduler",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "Lease",
    "LeaseBoard",
    "LeaseCorruptionError",
    "MergeReport",
    "ShardSpec",
    "build_chunks",
    "default_worker_id",
    "find_stale_artifacts",
    "merge_report",
    "sweep_expired_leases",
    "sweep_stale_artifacts",
    "whole_chunk",
    "CircuitSweepDispatcher",
    "PipelineBatchDispatcher",
    "ResultCache",
    "attack_cache_key",
    "load_fault_plan",
    "ExecutionStats",
    "PipelineFromConfig",
    "ResilienceExecutorError",
    "ResiliencePolicy",
    "RetryPolicy",
    "StragglerPolicy",
    "SweepExecutor",
    "TaskTiming",
    "TaskTimeoutError",
    "WorkerCrashError",
    "default_worker_count",
]
