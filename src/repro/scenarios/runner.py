"""Scenario execution: grids, adaptive searches, sharding and resume.

:class:`ScenarioRunner` turns declarative scenarios into pipeline runs
through the existing execution subsystem — one
:class:`~repro.exec.executor.SweepExecutor` per (config, engine), so a
scenario campaign inherits everything the figure tier already has: process
parallelism, content-keyed result caching, lockstep batched sweeps on the
serial path and persistent resume through
:class:`repro.store.PersistentResultCache`.

Sharding (``--shard i/n``) splits a scenario's variant list across
independent invocations with :class:`~repro.exec.shard.ShardSpec`; each
shard persists every result it computes, and *any* invocation that finds
the union of the shard caches complete assembles the merged
:class:`ScenarioResult` — bit-identical to an unsharded run, because the
numbers come from the same content-keyed cache entries either way.
Adaptive (bisect) scenarios cannot split their probe sequence, so a whole
scenario is shard-assigned by a stable hash of its name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ExperimentConfig
from repro.exec.elastic import (
    Chunk,
    ElasticPolicy,
    ElasticScheduler,
    build_chunks,
    default_worker_id,
    whole_chunk,
)
from repro.exec.executor import PipelineFromConfig, SweepExecutor
from repro.exec.resilience import ResiliencePolicy
from repro.exec.shard import FULL, MergeReport, ShardSpec, merge_report
from repro.figures import FigureTable
from repro.scenarios.registry import Scenario
from repro.scenarios.spec import ScenarioSpec, ScenarioVariant
from repro.scenarios.strategy import (
    BisectionOutcome,
    BisectionStrategy,
    degradations_from_accuracies,
)


@dataclass
class ScenarioResult:
    """Everything one scenario evaluation produced.

    ``complete`` is ``False`` when this invocation only covered a shard of
    the variant list (or none of it, for a bisect scenario owned by
    another shard); the merged artifact is only written once some
    invocation finds every variant resolved in the shared caches.
    """

    scenario: str = ""
    title: str = ""
    scale_name: str = ""
    strategy: str = "grid"
    engine: str = "auto"
    shard: str = "0/1"
    complete: bool = True
    missing: int = 0
    missing_positions: List[int] = field(default_factory=list)
    missing_shards: List[int] = field(default_factory=list)
    #: Elastic campaigns: unresolved positions never leased by any worker.
    unclaimed_positions: List[int] = field(default_factory=list)
    #: Elastic campaigns: unresolved positions whose lease was lost (owner
    #: died past the re-dispatch budget).
    lost_positions: List[int] = field(default_factory=list)
    sharded_out: bool = False
    metrics: Dict[str, float] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    tables: List[FigureTable] = field(default_factory=list)
    cases: List[Dict[str, object]] = field(default_factory=list)
    wall_seconds: float = 0.0
    executor_tasks: int = 0
    executor_cache_hits: int = 0
    executor_retries: int = 0
    executor_timeouts: int = 0
    executor_requeues: int = 0
    executor_pool_rebuilds: int = 0
    cache_quarantined: int = 0
    workers: int = 0
    #: Elastic worker id this result was assembled by ("" = not elastic).
    worker: str = ""
    leases_claimed: int = 0
    leases_stolen: int = 0
    leases_expired: int = 0
    duplicate_wins: int = 0
    peers_joined: int = 0
    peers_lost: int = 0

    def render(self) -> str:
        """All tables of the scenario, ready to print."""
        return "\n".join(table.render() for table in self.tables)


class ScenarioRunner:
    """Runs registry scenarios through shared sweep executors.

    Parameters
    ----------
    scale:
        Default scale preset for scenarios that do not pin one
        (``None`` → ``ExperimentConfig.from_environment()``).
    workers:
        Worker processes per executor (``0``/``1`` = serial, which routes
        whole grids through the lockstep batched SNN engine).
    engine:
        Engine override; ``None`` defers to each scenario's own pin.
    cache:
        Shared result cache (pass the persistent shard cache from
        :func:`repro.store.open_shard_cache` for resumable campaigns).
    shard:
        This invocation's :class:`ShardSpec` (default: the full list).
    pipeline_factory:
        Test hook — a callable ``(config, engine) -> factory`` replacing
        :class:`~repro.exec.executor.PipelineFromConfig`, letting tests
        drive scenarios through stub pipelines.
    resilience:
        Optional :class:`~repro.exec.resilience.ResiliencePolicy` the
        scenario executors follow (crash recovery, retry/timeout/backoff,
        straggler re-dispatch, chaos injection).  ``None`` selects the
        plain :data:`~repro.exec.resilience.PLAIN_POLICY`.
    elastic:
        Optional :class:`~repro.exec.elastic.ElasticPolicy`; when given,
        this invocation joins a cooperative work-stealing drain of each
        scenario over ``workdir`` (see :mod:`repro.exec.elastic`) instead
        of evaluating a static shard.  Mutually exclusive with a
        non-trivial ``shard``; requires ``workdir``.
    workdir:
        The shared campaign directory elastic coordination state (leases,
        worker heartbeats) lives under — normally the artifact/cache
        directory every cooperating process was pointed at.
    worker_id:
        Stable identity of this elastic worker (lease ownership, cache
        file name, chaos fault targeting).  Default: ``<hostname>-<pid>``.
    """

    def __init__(
        self,
        *,
        scale: Optional[str] = None,
        workers: int = 0,
        engine: Optional[str] = None,
        cache=None,
        shard: ShardSpec = FULL,
        pipeline_factory=None,
        resilience: Optional[ResiliencePolicy] = None,
        elastic: Optional[ElasticPolicy] = None,
        workdir: Optional[Path | str] = None,
        worker_id: Optional[str] = None,
    ) -> None:
        if elastic is not None:
            if workdir is None:
                raise ValueError("elastic execution needs a shared workdir")
            if not shard.is_trivial:
                raise ValueError(
                    "elastic execution and static sharding are mutually "
                    "exclusive (leases replace the --shard split)"
                )
        self.scale = scale
        self.workers = workers
        self.engine = engine
        self.cache = cache
        self.shard = shard
        self.resilience = resilience
        self.elastic = elastic
        self.workdir = Path(workdir) if workdir is not None else None
        self.worker_id = worker_id or default_worker_id()
        self._pipeline_factory = pipeline_factory or PipelineFromConfig
        self._executors: Dict[Tuple[str, str], SweepExecutor] = {}

    # ------------------------------------------------------------------ config
    def config_for(self, scenario: Scenario) -> ExperimentConfig:
        """The experiment config a scenario runs under (scale resolution)."""
        scale = scenario.scale or self.scale
        if scale is None:
            return ExperimentConfig.from_environment()
        return ExperimentConfig.from_scale(scale)

    def engine_for(self, scenario: Scenario) -> str:
        """The SNN engine a scenario runs under (CLI override wins)."""
        return self.engine or scenario.engine

    def executor_for(self, scenario: Scenario) -> SweepExecutor:
        """The shared executor for this scenario's (scale, engine) pair."""
        config = self.config_for(scenario)
        engine = self.engine_for(scenario)
        key = (config.scale_name, engine)
        if key not in self._executors:
            self._executors[key] = SweepExecutor(
                pipeline_factory=self._pipeline_factory(config, engine=engine),
                workers=self.workers,
                cache=self.cache,
                policy=self.resilience,
            )
        return self._executors[key]

    def close(self, *, cancel_pending: bool = False) -> None:
        """Shut every executor's worker pool down (no-op when serial).

        ``cancel_pending`` drops queued-but-unstarted work instead of
        draining it — the graceful-shutdown path (Ctrl-C / SIGTERM), where
        every completed result is already flushed to the persistent cache.
        """
        for executor in self._executors.values():
            executor.close(cancel_pending=cancel_pending)

    def __enter__(self) -> "ScenarioRunner":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close(cancel_pending=exc_type is not None)

    # ------------------------------------------------------------------- runs
    def run(self, scenario: Scenario) -> ScenarioResult:
        """Evaluate one scenario (this invocation's shard of it)."""
        executor = self.executor_for(scenario)
        stats = executor.stats
        tasks_before, hits_before = stats.tasks_executed, stats.cache_hits
        events_before = stats.resilience_events()
        elastic_before = stats.elastic_events()
        start = time.perf_counter()
        if scenario.strategy == "bisect":
            if self.elastic is not None:
                result = self._run_bisect_elastic(scenario, executor)
            else:
                result = self._run_bisect(scenario, executor)
        elif self.elastic is not None:
            result = self._run_grid_elastic(scenario, executor)
        else:
            result = self._run_grid(scenario, executor)
        result.scenario = scenario.name
        result.title = scenario.title or scenario.name
        result.scale_name = self.config_for(scenario).scale_name
        result.strategy = scenario.strategy
        result.engine = self.engine_for(scenario)
        result.shard = str(self.shard)
        result.wall_seconds = time.perf_counter() - start
        result.executor_tasks = stats.tasks_executed - tasks_before
        result.executor_cache_hits = stats.cache_hits - hits_before
        events = stats.resilience_events()
        result.executor_retries = events["retries"] - events_before["retries"]
        result.executor_timeouts = events["timeouts"] - events_before["timeouts"]
        result.executor_requeues = events["requeues"] - events_before["requeues"]
        result.executor_pool_rebuilds = (
            events["pool_rebuilds"] - events_before["pool_rebuilds"]
        )
        result.cache_quarantined = events["quarantined"] - events_before["quarantined"]
        elastic_events = stats.elastic_events()
        for name in elastic_events:
            setattr(result, name, elastic_events[name] - elastic_before[name])
        if self.elastic is not None:
            result.worker = self.worker_id
        result.workers = executor.workers
        return result

    # ------------------------------------------------------------------- grid
    def _run_grid(self, scenario: Scenario, executor: SweepExecutor) -> ScenarioResult:
        variants = scenario.variants()
        mine = [v for i, v in enumerate(variants) if self.shard.owns_index(i)]
        if mine:
            # The leading None keeps the baseline in every shard's batch, so
            # each shard's lockstep pass carries it and the merged artifact
            # never waits on a specific shard for the baseline.
            executor.map([None] + [variant.attack for variant in mine])
        resolved = executor.peek_results([variant.attack for variant in variants])
        baseline = executor.peek_results([None])[0]
        report = merge_report(resolved, self.shard)
        result = ScenarioResult(
            complete=report.complete and baseline is not None,
            missing=report.missing + (1 if baseline is None else 0),
            missing_positions=list(report.missing_positions),
            missing_shards=list(report.missing_shards),
        )
        if not result.complete:
            return result
        self._assemble_grid(scenario, variants, resolved, baseline, result)
        return result

    # -------------------------------------------------------------- elastic
    def _make_scheduler(
        self, scenario: Scenario, executor: SweepExecutor
    ) -> ElasticScheduler:
        """The work-stealing scheduler of one scenario's cooperative drain."""
        chaos = self.resilience.chaos if self.resilience is not None else None
        return ElasticScheduler(
            self.workdir,
            scenario.name,
            policy=self.elastic,
            owner=self.worker_id,
            stats=executor.stats,
            chaos=chaos,
        )

    def _refresh_sibling_caches(self) -> None:
        """Pick up results peers flushed since this process opened its cache."""
        if self.workdir is None or not hasattr(self.cache, "preload"):
            return
        from repro.store import preload_sibling_caches

        preload_sibling_caches(self.cache, self.workdir)

    def _drain(
        self,
        scenario: Scenario,
        executor: SweepExecutor,
        chunks: Sequence[Chunk],
        run_chunk,
    ) -> Dict[str, str]:
        """Run one scheduler drain with the lease heartbeat hook installed."""
        scheduler = self._make_scheduler(scenario, executor)
        previous = executor.heartbeat
        executor.heartbeat = scheduler.heartbeat
        try:
            kinds = scheduler.drain(chunks, run_chunk)
        finally:
            executor.heartbeat = previous
        self._refresh_sibling_caches()
        self._last_categories = scheduler.categorize(chunks, kinds)
        return kinds

    def _run_grid_elastic(
        self, scenario: Scenario, executor: SweepExecutor
    ) -> ScenarioResult:
        """Cooperatively drain a grid scenario's variant chunks via leases.

        Every chunk's batch leads with the baseline (a cache hit after the
        first), and the merged artifact is assembled from the *union* of
        all workers' persistent caches — so it is bit-identical to an
        unsharded single-process run regardless of which worker computed
        which chunk, how many died, or how many duplicates raced.
        """
        variants = scenario.variants()
        attacks = [variant.attack for variant in variants]
        chunks = build_chunks(len(variants), self.elastic.chunk_size)

        def run_chunk(chunk: Chunk) -> None:
            executor.map([None] + [attacks[i] for i in chunk.positions])

        self._drain(scenario, executor, chunks, run_chunk)
        resolved = executor.peek_results(attacks)
        baseline = executor.peek_results([None])[0]
        unclaimed, lost = self._last_categories
        missing = tuple(i for i, r in enumerate(resolved) if r is None)
        # A done chunk whose results are nonetheless missing (its owner's
        # cache file was lost after the marker landed) counts as lost.
        unclaimed = tuple(i for i in unclaimed if i in set(missing))
        lost = tuple(i for i in missing if i not in set(unclaimed))
        report = MergeReport(
            total=len(resolved),
            count=1,
            missing_positions=missing,
            unclaimed_positions=unclaimed,
            lost_positions=lost,
        )
        result = ScenarioResult(
            complete=report.complete and baseline is not None,
            missing=report.missing + (1 if baseline is None else 0),
            missing_positions=list(report.missing_positions),
            unclaimed_positions=list(report.unclaimed_positions),
            lost_positions=list(report.lost_positions),
        )
        if not result.complete:
            return result
        self._assemble_grid(scenario, variants, resolved, baseline, result)
        return result

    def _run_bisect_elastic(
        self, scenario: ScenarioSpec, executor: SweepExecutor
    ) -> ScenarioResult:
        """Whole-lease an adaptive scenario: one worker owns the whole search.

        Probes depend on previous results, so the scenario is a single
        indivisible chunk.  The claimer runs the search; a worker that
        finds it already done re-assembles the result from the shared
        caches (pure cache hits — the probe sequence is deterministic); a
        worker that finds it held by a live peer skips it like a bisect
        scenario owned by another static shard.
        """
        scheduler = self._make_scheduler(scenario, executor)
        chunk = whole_chunk()
        outcome, lease = scheduler.claim_whole(chunk)
        if outcome == "busy":
            return ScenarioResult(complete=False, sharded_out=True)
        if outcome == "lost":
            return ScenarioResult(
                complete=False, missing=1, lost_positions=[0]
            )
        if outcome == "done":
            self._refresh_sibling_caches()
            return self._run_bisect(scenario, executor)
        previous = executor.heartbeat
        executor.heartbeat = scheduler.heartbeat
        try:
            if scheduler.chaos is not None:
                scheduler.chaos.apply_elastic(
                    f"{scheduler.owner}:{chunk.id}", lease.attempt
                )
            scheduler._current = lease
            result = self._run_bisect(scenario, executor)
        finally:
            scheduler._current = None
            executor.heartbeat = previous
        scheduler.board.complete(chunk.id, scheduler.owner)
        return result

    def _assemble_grid(
        self,
        scenario: Scenario,
        variants: Sequence[ScenarioVariant],
        resolved: Sequence,
        baseline,
        result: ScenarioResult,
    ) -> None:
        """Fill metrics/arrays/tables from a fully resolved variant list."""
        accuracies = np.array([r.accuracy for r in resolved], dtype=float)
        baseline_accuracy = float(baseline.accuracy)
        degradations = np.array(
            degradations_from_accuracies(accuracies, baseline_accuracy)
        )
        result.arrays["accuracies"] = accuracies
        result.arrays["relative_degradation"] = degradations
        result.arrays["defended"] = np.array(
            [bool(variant.defense) for variant in variants], dtype=bool
        )
        # One aligned array per swept parameter (numeric parameters as
        # floats, categorical ones as strings) so the artifact is
        # self-describing without re-expanding the spec.
        names: List[str] = []
        for variant in variants:
            for key, _ in variant.params:
                if key not in names:
                    names.append(key)
        for name in names:
            values = [dict(variant.params).get(name) for variant in variants]
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
                result.arrays[f"param_{name}"] = np.array(values, dtype=float)
            else:
                result.arrays[f"param_{name}"] = np.array(
                    ["" if v is None else str(v) for v in values]
                )

        worst = int(np.argmin(accuracies))
        result.metrics = {
            "baseline_accuracy": baseline_accuracy,
            "n_variants": float(len(variants)),
            "worst_accuracy": float(accuracies[worst]),
            "worst_relative_degradation": float(degradations[worst]),
        }
        defenses = sorted({variant.defense for variant in variants if variant.defense})
        if defenses:
            undefended = ~result.arrays["defended"]
            result.metrics["undefended_worst_degradation"] = float(
                degradations[undefended].max()
            )
        for defense in defenses:
            mask = np.array([variant.defense == defense for variant in variants])
            result.metrics[f"defended_worst_degradation_{defense}"] = float(
                degradations[mask].max()
            )

        rows = []
        for variant, accuracy, degradation in zip(variants, accuracies, degradations):
            rows.append(
                [
                    variant.label,
                    variant.defense or "-",
                    f"{accuracy:.4f}",
                    f"{accuracy - baseline_accuracy:+.4f}",
                    f"{degradation:+.1%}",
                ]
            )
            result.cases.append(
                {
                    "label": variant.label,
                    "params": dict(variant.params),
                    "defense": variant.defense,
                    "defense_factor": variant.defense_factor,
                    "accuracy": float(accuracy),
                    "relative_degradation": float(degradation),
                }
            )
        result.tables.append(
            FigureTable(
                title=(
                    f"{scenario.name} (baseline {baseline_accuracy:.4f}, "
                    f"{len(variants)} variants)"
                ),
                headers=[
                    "variant",
                    "defense",
                    "accuracy",
                    "change",
                    "relative degradation",
                ],
                rows=rows,
            )
        )

    # ----------------------------------------------------------------- bisect
    def _run_bisect(
        self, scenario: ScenarioSpec, executor: SweepExecutor
    ) -> ScenarioResult:
        if not self.shard.is_trivial and not self.shard.owns_name(scenario.name):
            return ScenarioResult(complete=False, sharded_out=True)
        settings = scenario.search
        parameter = settings.parameter
        values = [float(v) for v in scenario.grid[parameter]]
        baseline = executor.run_baseline()
        baseline_accuracy = float(baseline.accuracy)

        def degradation_of(value: float) -> float:
            params = dict(scenario.fixed)
            params[parameter] = value
            attacked = executor.run_attack(scenario.build_attack(params))
            if baseline_accuracy == 0.0:
                return 0.0
            return (baseline_accuracy - attacked.accuracy) / baseline_accuracy

        strategy = BisectionStrategy(
            parameter, target_degradation=settings.target_degradation
        )
        outcome = strategy.run(values, degradation_of)
        return self._assemble_bisect(scenario, outcome, baseline_accuracy)

    def _assemble_bisect(
        self,
        scenario: ScenarioSpec,
        outcome: BisectionOutcome,
        baseline_accuracy: float,
    ) -> ScenarioResult:
        """Fill metrics/arrays/tables from a finished adaptive search."""
        result = ScenarioResult(complete=True)
        probed_values = np.array(list(outcome.probes), dtype=float)
        probed_degradations = np.array(
            [outcome.probes[v] for v in outcome.probes], dtype=float
        )
        result.arrays["probed_values"] = probed_values
        result.arrays["probed_degradations"] = probed_degradations
        result.arrays["candidate_values"] = np.array(
            scenario.grid[outcome.parameter], dtype=float
        )
        result.metrics = {
            "baseline_accuracy": baseline_accuracy,
            "n_probes": float(outcome.n_probes),
            "n_candidates": float(len(scenario.grid[outcome.parameter])),
            "target_degradation": float(outcome.target_degradation),
            "collapse_found": float(outcome.collapse_value is not None),
        }
        if outcome.collapse_value is not None:
            result.metrics["collapse_value"] = float(outcome.collapse_value)
            result.metrics["collapse_index"] = float(outcome.collapse_index)
        rows = [
            [f"{value:g}", f"{degradation:+.1%}"]
            for value, degradation in outcome.probes.items()
        ]
        result.tables.append(
            FigureTable(
                title=f"{scenario.name} — {outcome.describe()}",
                headers=[outcome.parameter, "relative degradation"],
                rows=rows,
            )
        )
        for value, degradation in outcome.probes.items():
            result.cases.append(
                {
                    "label": f"{outcome.parameter}={value:g}",
                    "params": {**dict(scenario.fixed), outcome.parameter: value},
                    "defense": "",
                    "defense_factor": 1.0,
                    "accuracy": float(baseline_accuracy * (1.0 - degradation)),
                    "relative_degradation": float(degradation),
                }
            )
        return result
