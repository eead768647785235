"""Scenario execution: grids, adaptive searches, splitting and resume.

:class:`ScenarioRunner` turns declarative scenarios into pipeline runs
through the existing execution subsystem — one
:class:`~repro.exec.executor.SweepExecutor` per scale, so a
scenario campaign inherits everything the figure tier already has: process
parallelism, content-keyed result caching, lockstep batched sweeps on the
serial path and persistent resume through
:class:`repro.store.PersistentResultCache`.

A grid scenario has one path.  It first decides which chunks of the
variant list this invocation evaluates: a static shard (``--shard i/n``,
default the whole list) owns one pre-assigned chunk of interleaved
positions, while ``--elastic`` drains the lease board's contiguous chunks
(:mod:`repro.exec.elastic`).  Every chunk then runs through the same
``executor.map``, each result lands in this invocation's persistent cache,
and *any* invocation that finds the union of the caches complete
assembles the merged :class:`ScenarioResult` — bit-identical to an
unsplit run, because the numbers come from the same content-keyed cache
entries either way.  One :class:`~repro.exec.shard.MergeReport` names
whatever is still missing.  Adaptive (bisect) scenarios cannot split
their probe sequence, so a whole scenario is owned by one static shard
(stable name hash) or one elastic lease.  Where the executor trains
lockstep passes, the owner first trains the baseline and the search's
next undecided probes in one pass; the search then reads them from the
cache and reports exactly what a sequential search would.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ExperimentConfig
from repro.exec.elastic import (
    ElasticPolicy,
    ElasticScheduler,
    build_chunks,
    default_worker_id,
    whole_chunk,
)
from repro.exec.executor import PipelineFromConfig, SweepExecutor
from repro.exec.resilience import ResiliencePolicy
from repro.exec.shard import FULL, Chunk, MergeReport, ShardSpec, merge_report
from repro.figures import FigureTable
from repro.scenarios.registry import Scenario
from repro.scenarios.spec import ScenarioSpec, ScenarioVariant
from repro.scenarios.strategy import (
    BisectionOutcome,
    BisectionStrategy,
    degradations_from_accuracies,
)
from repro.utils.validation import check_engine


@dataclass
class ScenarioResult:
    """Everything one scenario evaluation produced.

    ``complete`` is ``False`` when this invocation only covered part of
    the variant list (``report`` then names what is missing), or none of
    it (``sharded_out``: a bisect scenario owned by another shard or
    elastic worker); the merged artifact is only written once some
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
    #: What the merge still misses (``None`` for a finished bisection).
    report: Optional[MergeReport] = None
    sharded_out: bool = False
    metrics: Dict[str, float] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    tables: List[FigureTable] = field(default_factory=list)
    cases: List[Dict[str, object]] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Executor counter deltas over the run, keyed by
    #: :data:`~repro.exec.executor.COUNTERS` name.
    execution: Dict[str, int] = field(default_factory=dict)
    workers: int = 0
    #: Elastic worker id this result was assembled by ("" = not elastic).
    worker: str = ""

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
        Execution engine of every scenario, ``"auto"`` (default) or
        ``"scalar"`` (see :data:`repro.utils.validation.ENGINES`).
    cache:
        Shared result cache (pass the persistent shard cache from
        :func:`repro.store.open_shard_cache` for resumable campaigns).
    shard:
        This invocation's :class:`ShardSpec` (default: the full list).
    pipeline_factory:
        Test hook — a callable ``(config, *, engine) -> factory`` replacing
        :class:`~repro.exec.executor.PipelineFromConfig`, letting tests
        drive scenarios through stub pipelines.
    resilience:
        Optional :class:`~repro.exec.resilience.ResiliencePolicy` the
        scenario executors follow (crash recovery, retry/timeout/backoff,
        straggler re-dispatch, chaos injection) — its straggler rule also
        decides when an elastic worker duplicates a peer's chunk.
        ``None`` selects the plain
        :data:`~repro.exec.resilience.PLAIN_POLICY`.
    elastic:
        Optional :class:`~repro.exec.elastic.ElasticPolicy`; when given,
        this invocation takes its chunks from a cooperative work-stealing
        drain of each scenario over ``workdir`` (see
        :mod:`repro.exec.elastic`) instead of a static shard.  Mutually
        exclusive with a non-trivial ``shard``; requires ``workdir``.
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
        engine: str = "auto",
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
        self.engine = check_engine(engine)
        self.cache = cache
        self.shard = shard
        self.resilience = resilience
        self.elastic = elastic
        self.workdir = Path(workdir) if workdir is not None else None
        self.worker_id = worker_id or default_worker_id()
        self._pipeline_factory = pipeline_factory or PipelineFromConfig
        self._executors: Dict[str, SweepExecutor] = {}

    # ------------------------------------------------------------------ config
    def config_for(self, scenario: Scenario) -> ExperimentConfig:
        """The experiment config a scenario runs under (scale resolution)."""
        scale = scenario.scale or self.scale
        if scale is None:
            return ExperimentConfig.from_environment()
        return ExperimentConfig.from_scale(scale)

    def executor_for(self, scenario: Scenario) -> SweepExecutor:
        """The shared executor for this scenario's scale."""
        config = self.config_for(scenario)
        key = config.scale_name
        if key not in self._executors:
            self._executors[key] = SweepExecutor(
                pipeline_factory=self._pipeline_factory(config, engine=self.engine),
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
        """Evaluate one scenario (this invocation's chunks of it)."""
        executor = self.executor_for(scenario)
        stats = executor.stats
        before = stats.counters()
        start = time.perf_counter()
        if scenario.strategy == "bisect":
            result = self._run_bisect(scenario, executor)
        else:
            result = self._run_grid(scenario, executor)
        result.scenario = scenario.name
        result.title = scenario.title or scenario.name
        result.scale_name = self.config_for(scenario).scale_name
        result.strategy = scenario.strategy
        result.engine = self.engine
        result.shard = str(self.shard)
        result.wall_seconds = time.perf_counter() - start
        result.execution = stats.since(before)
        if self.elastic is not None:
            result.worker = self.worker_id
        result.workers = executor.workers
        return result

    @contextmanager
    def _scheduler(
        self, scenario: Scenario, executor: SweepExecutor
    ) -> Iterator[ElasticScheduler]:
        """This worker's lease scheduler for one scenario, heartbeat installed.

        The executor renews the held lease around every task; on exit the
        results peers flushed meanwhile are preloaded for the merge.
        """
        resilience = self.resilience
        scheduler = ElasticScheduler(
            self.workdir,
            scenario.name,
            policy=self.elastic,
            owner=self.worker_id,
            stats=executor.stats,
            chaos=resilience.chaos if resilience is not None else None,
            straggler=resilience.straggler if resilience is not None else None,
        )
        previous, executor.heartbeat = executor.heartbeat, scheduler.heartbeat
        try:
            yield scheduler
        finally:
            executor.heartbeat = previous
        if hasattr(self.cache, "preload"):
            from repro.store import preload_sibling_caches

            preload_sibling_caches(self.cache, self.workdir)

    # ------------------------------------------------------------------- grid
    def _run_grid(self, scenario: Scenario, executor: SweepExecutor) -> ScenarioResult:
        variants = scenario.variants()
        attacks = [variant.attack for variant in variants]

        def run_chunk(chunk: Chunk) -> None:
            # The leading None keeps the baseline in every chunk's batch, so
            # each lockstep pass carries it and the merged artifact never
            # waits on a specific chunk for the baseline.
            executor.map([None] + [attacks[i] for i in chunk.positions])

        if self.elastic is None:
            mine = self.shard.chunk(len(attacks))
            if mine.positions:
                run_chunk(mine)
        else:
            chunks = build_chunks(len(attacks), self.elastic.chunk_size)
            with self._scheduler(scenario, executor) as scheduler:
                scheduler.drain(chunks, run_chunk)
        resolved = executor.peek_results(attacks)
        baseline = executor.peek_results([None])[0]
        report = merge_report(resolved, self.shard, elastic=self.elastic is not None)
        result = ScenarioResult(
            complete=report.complete and baseline is not None,
            missing=report.missing + (1 if baseline is None else 0),
            report=report,
        )
        if result.complete:
            self._assemble_grid(scenario, variants, resolved, baseline, result)
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
        """Run an adaptive search if this invocation owns the whole scenario.

        Probes depend on previous results, so the scenario is one
        indivisible unit: a static shard owns it by name hash, an elastic
        worker by claiming its ``whole`` lease.  A worker that finds the
        lease done re-runs the search from the shared caches (pure cache
        hits — the probe sequence is deterministic).
        """
        if self.elastic is None:
            if not self.shard.owns_name(scenario.name):
                return ScenarioResult(complete=False, sharded_out=True)
            return self._search(scenario, executor)
        chunk = whole_chunk()
        with self._scheduler(scenario, executor) as scheduler:
            outcome, lease = scheduler.claim_whole(chunk)
            if outcome == "claimed":
                return scheduler.run_claimed(
                    chunk, lease, lambda _: self._search(scenario, executor)
                )
        if outcome == "busy":
            return ScenarioResult(complete=False, sharded_out=True)
        if outcome == "lost":
            report = MergeReport(total=1, missing_positions=(0,), elastic=True)
            return ScenarioResult(complete=False, missing=1, report=report)
        return self._search(scenario, executor)

    def _search(
        self, scenario: ScenarioSpec, executor: SweepExecutor
    ) -> ScenarioResult:
        settings = scenario.search
        parameter = settings.parameter
        values = [float(v) for v in scenario.grid[parameter]]
        attacks = [
            scenario.build_attack({**dict(scenario.fixed), parameter: value})
            for value in values
        ]
        attack_of = dict(zip(values, attacks))
        strategy = BisectionStrategy(
            parameter, target_degradation=settings.target_degradation
        )
        if executor.lockstep:
            baseline, speculative = self._speculate(strategy, attacks, executor)
        else:
            baseline, speculative = executor.run_baseline(), []
        baseline_accuracy = float(baseline.accuracy)
        accuracies: Dict[float, float] = {}

        def degradation_of(value: float) -> float:
            attacked = executor.run_attack(attack_of[value])
            accuracies[value] = float(attacked.accuracy)
            return degradations_from_accuracies([attacked.accuracy], baseline_accuracy)[0]

        outcome = strategy.run(values, degradation_of)
        executor.stats.speculative_unused += sum(
            values[i] not in outcome.probes for i in speculative
        )
        return self._assemble_bisect(scenario, outcome, baseline_accuracy, accuracies)

    @staticmethod
    def _speculate(
        strategy: BisectionStrategy, attacks: Sequence, executor: SweepExecutor
    ) -> Tuple[object, List[int]]:
        """Train the baseline and the search's next undecided probes in one
        lockstep pass; returns the baseline and the probe indices trained.

        The plan reads the cache, with the degradations the search itself
        would compute, so probes a grid or an earlier run already evaluated
        steer it instead of being trained again, and a search the cache
        settles trains nothing.
        """
        baseline, *cached = executor.peek_results([None] + list(attacks))
        known: Dict[int, float] = {}
        if baseline is not None:
            hits = [i for i, result in enumerate(cached) if result is not None]
            degradations = degradations_from_accuracies(
                [cached[i].accuracy for i in hits], float(baseline.accuracy)
            )
            known = dict(zip(hits, degradations))
        planned = strategy.plan(len(attacks), known)
        baseline = executor.map([None] + [attacks[i] for i in planned])[0]
        trained = [i for i in planned if cached[i] is None]
        executor.stats.speculative_lanes += len(trained)
        return baseline, trained

    def _assemble_bisect(
        self,
        scenario: ScenarioSpec,
        outcome: BisectionOutcome,
        baseline_accuracy: float,
        accuracies: Dict[float, float],
    ) -> ScenarioResult:
        """Fill metrics/arrays/tables from a finished adaptive search.

        ``accuracies`` maps each probed value to its measured accuracy,
        which the cases report as is.
        """
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
                    "accuracy": accuracies[value],
                    "relative_degradation": float(degradation),
                }
            )
        return result
