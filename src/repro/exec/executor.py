"""The sweep executor: serial or supervised process-parallel attack evaluation.

Every task is one pipeline evaluation — ``pipeline.run(attack)`` or, for
``attack=None``, ``pipeline.run_baseline()``.  Tasks are independent by
construction (each run trains a fresh network from seeds derived from the
experiment config and the attack label alone), so they parallelise across
processes without any shared state — and, on the serial path, a pipeline
on the lockstep SNN engine evaluates a whole batch of them in one
``pipeline.run_batch`` pass, bit-identical to running them one by one.

Worker processes do **not** receive the parent's pipeline object.  They
rebuild an equivalent pipeline once per worker from a picklable factory
(by default :class:`PipelineFromConfig` around ``pipeline.config``), then
serve every task assigned to them from that private pipeline.  Because all
pipeline randomness is a pure function of the config seed and the attack
label, the rebuilt pipelines produce bit-identical results to the parent's.

Every parallel batch runs under a supervision loop that follows the
executor's :class:`~repro.exec.resilience.ResiliencePolicy` (worker-death
recovery, timeouts, seeded retries, straggler duplicates, chaos injection);
without a policy it runs the plain semantics of
:data:`~repro.exec.resilience.PLAIN_POLICY`.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.cache import ResultCache, attack_cache_key, scope_key
from repro.exec.chaos import FaultPlan, install_worker_plan, worker_plan
from repro.exec.resilience import (
    PLAIN_POLICY,
    ResiliencePolicy,
    TaskTimeoutError,
    WorkerCrashError,
)

#: Module-global pipeline of the current worker process (set by the pool
#: initializer, used by every task executed in that worker).
_WORKER_PIPELINE = None


def _initialize_worker(
    pipeline_factory: Callable[[], object], plan: Optional[FaultPlan]
) -> None:
    """Build the worker-private pipeline and install the chaos plan, once
    per pool process."""
    global _WORKER_PIPELINE
    # Workers must not inherit the parent's signal handling (fork start
    # method copies it): graceful shutdown is the parent's job.  SIGINT is
    # ignored — Ctrl-C hits the whole process group, and the parent shuts
    # the pool down; SIGTERM resets to default so pool teardown after a
    # worker crash terminates siblings without tracebacks.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        pass
    _WORKER_PIPELINE = pipeline_factory()
    install_worker_plan(plan)


def _run_dispatch(key: str, attack, attempt: int) -> Tuple:
    """Run one dispatch in a worker, applying any installed chaos first."""
    start = time.perf_counter()
    plan = worker_plan()
    if plan is not None:
        plan.apply(key, attempt, allow_kill=True)
    if attack is None:
        result = _WORKER_PIPELINE.run_baseline()
    else:
        result = _WORKER_PIPELINE.run(attack)
    return key, attempt, result, time.perf_counter() - start


@dataclass(frozen=True)
class PipelineFromConfig:
    """Picklable factory that rebuilds a classification pipeline in a worker.

    Rebuilding from the config is cheap relative to one training run and
    sidesteps pickling the parent pipeline's dataset arrays and RNG state.
    ``engine`` selects the SNN execution engine of the rebuilt pipeline
    (results are engine-independent; see :mod:`repro.core.pipeline`).
    """

    config: object
    engine: str = "auto"

    def __call__(self):
        from repro.core.pipeline import ClassificationPipeline

        return ClassificationPipeline(self.config, engine=self.engine)


@dataclass
class TaskTiming:
    """Timing record of one executed task."""

    key: str
    seconds: float
    cached: bool = False
    worker_mode: str = "serial"


@dataclass(frozen=True)
class Counter:
    """One integer counter of :class:`ExecutionStats`.

    ``group`` is ``"executor"`` (always reported; provenance top level),
    ``"resilience"`` / ``"elastic"`` (stored in that provenance block) or
    ``"serving"`` / ``"lockstep"`` (report-only).  An empty ``provenance``
    key keeps a counter out of artifacts; non-executor counters show in
    the execution report, under ``label``, only when nonzero.
    ``recovery`` marks counts of recovered faults (``repro report``).
    """

    name: str
    group: str
    provenance: str
    label: str
    recovery: bool = False


#: Every integer counter of :class:`ExecutionStats`, in report order.
#: Provenance, reports and per-run deltas all read counters from here.
COUNTERS: Tuple[Counter, ...] = (
    Counter("batches", "executor", "", "batches"),
    Counter("tasks_executed", "executor", "executor_tasks", "tasks executed"),
    Counter("cache_hits", "executor", "executor_cache_hits", "cache hits"),
    Counter("retries", "resilience", "retries", "task retries", True),
    Counter("timeouts", "resilience", "timeouts", "task timeouts", True),
    Counter("requeues", "resilience", "requeues", "straggler re-dispatches", True),
    Counter("pool_rebuilds", "resilience", "pool_rebuilds", "worker-pool rebuilds", True),
    Counter("quarantined", "resilience", "cache_quarantined", "quarantined cache entries", True),
    Counter("leases_claimed", "elastic", "leases_claimed", "chunk leases claimed"),
    Counter("leases_stolen", "elastic", "leases_stolen", "expired leases stolen", True),
    Counter("leases_expired", "elastic", "leases_expired", "lease expiries observed", True),
    Counter("duplicate_wins", "elastic", "duplicate_wins", "duplicate first-result wins", True),
    Counter("peers_joined", "elastic", "peers_joined", "elastic peers seen"),
    Counter("peers_lost", "elastic", "peers_lost", "elastic peers lost", True),
    Counter("microbatches", "serving", "", "microbatches formed"),
    Counter("microbatch_requests", "serving", "", "serving requests"),
    Counter("microbatch_full_flushes", "serving", "", "full flushes"),
    Counter("microbatch_linger_flushes", "serving", "", "linger flushes"),
    Counter("microbatch_drain_flushes", "serving", "", "drain flushes"),
    Counter("lockstep_passes", "lockstep", "", "lockstep passes"),
    # Rendered inside the "lockstep passes" row, so it has no row label.
    Counter("lockstep_lanes", "lockstep", "", ""),
)


@dataclass
class ExecutionStats:
    """Aggregate instrumentation of one executor's lifetime.

    ``speedup_estimate`` compares the summed task time (what a serial run
    would have cost) with the measured wall-clock time of the parallel
    batches; it is the executor's own measurement of how much the process
    pool helped.  The integer counters are listed in :data:`COUNTERS`.
    """

    workers: int = 0
    tasks_executed: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    task_seconds: float = 0.0
    timings: List[TaskTiming] = field(default_factory=list)
    batches: int = 0
    #: Resilience counters (filled by the retry and supervision loops):
    #: tasks re-run after a transient failure, dispatches abandoned past the
    #: task timeout, straggler duplicates submitted, worker pools rebuilt
    #: after process death, and cache entries quarantined as corrupt.
    retries: int = 0
    timeouts: int = 0
    requeues: int = 0
    pool_rebuilds: int = 0
    quarantined: int = 0
    #: Elastic work-stealing counters (filled by :mod:`repro.exec.elastic`):
    #: chunk leases claimed (including steals), expired leases taken over,
    #: lease expiries observed, straggler duplicates that won their done
    #: marker, and cooperating worker processes seen joining / going silent.
    leases_claimed: int = 0
    leases_stolen: int = 0
    leases_expired: int = 0
    duplicate_wins: int = 0
    peers_joined: int = 0
    peers_lost: int = 0
    #: Serving counters (filled by :class:`repro.exec.microbatch.Microbatcher`):
    #: lockstep microbatches formed, single-example requests coalesced into
    #: them, and how each flush was triggered (batch full, max-linger
    #: deadline, or explicit drain/close); the three flush causes always
    #: sum to ``microbatches``.
    microbatches: int = 0
    microbatch_requests: int = 0
    microbatch_full_flushes: int = 0
    microbatch_linger_flushes: int = 0
    microbatch_drain_flushes: int = 0
    #: Lockstep counters (filled by the serial path): ``run_batch`` passes
    #: and the tasks (lanes) they evaluated.
    lockstep_passes: int = 0
    lockstep_lanes: int = 0

    def record(self, timing: TaskTiming) -> None:
        """Account one finished task (cached or freshly executed)."""
        self.timings.append(timing)
        if timing.cached:
            self.cache_hits += 1
        else:
            self.tasks_executed += 1
            self.task_seconds += timing.seconds

    def speedup_estimate(self) -> float:
        """Summed task time / wall time (1.0 when nothing ran)."""
        if self.wall_seconds <= 0.0:
            return 1.0
        return self.task_seconds / self.wall_seconds

    def counters(self) -> Dict[str, int]:
        """Every :data:`COUNTERS` value, keyed by counter name."""
        return {counter.name: getattr(self, counter.name) for counter in COUNTERS}

    def since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas since ``before`` (an earlier :meth:`counters`)."""
        return {name: value - before[name] for name, value in self.counters().items()}

    def mean_microbatch_occupancy(self) -> float:
        """Mean requests per formed microbatch (0.0 when none formed)."""
        if self.microbatches == 0:
            return 0.0
        return self.microbatch_requests / self.microbatches

    def slowest_tasks(self, count: int = 5) -> List[TaskTiming]:
        """The ``count`` slowest individually timed tasks.

        Cached hits and lockstep lanes are left out: a lane's timing is an
        equal share of its pass, not a measurement of that task.
        """
        executed = [
            t for t in self.timings if not t.cached and t.worker_mode != "batched"
        ]
        return sorted(executed, key=lambda t: t.seconds, reverse=True)[:count]


#: Progress callback signature: (timing, completed_so_far, total_in_batch).
ProgressCallback = Callable[[TaskTiming, int, int], None]


class SweepExecutor:
    """Runs batches of independent attack evaluations, serially or in parallel.

    Parameters
    ----------
    pipeline:
        The evaluation pipeline.  Anything implementing the campaign's
        pipeline protocol works: ``run(attack)``, ``run_baseline()`` and a
        ``config`` attribute.  Required for serial execution; for parallel
        execution it may be omitted when ``pipeline_factory`` is given.
    workers:
        Number of worker processes.  ``0`` or ``1`` selects the serial
        in-process path (deterministic call order, easiest to debug and
        profile); ``>= 2`` fans every batch of two or more misses out over
        a supervised process pool, one task per dispatch — each worker
        trains its attack alone (``pipeline.run``, a one-lane pass on the
        lockstep engine), so a pool run never shares a lockstep pass
        between attacks.
    pipeline_factory:
        Picklable zero-argument callable building the pipeline inside each
        worker.  Defaults to :class:`PipelineFromConfig` around
        ``pipeline.config``.
    cache:
        Result cache shared across batches (a fresh one by default).  Pass
        an explicit cache to share results between several executors.
    progress:
        Optional callback invoked after every finished task with
        ``(timing, done, total)``.
    policy:
        The :class:`~repro.exec.resilience.ResiliencePolicy` both paths
        follow.  The serial path retries transient task failures with the
        policy's seeded backoff (and applies the chaos plan in-process,
        demoting ``kill`` faults to transient failures); the parallel path
        implements timeout, retry/backoff, straggler re-dispatch and pool
        rebuild.  ``None`` selects
        :data:`~repro.exec.resilience.PLAIN_POLICY`: no retries, timeouts,
        duplicates or chaos — worker death is still recovered within its
        pool-rebuild budget or raised as
        :class:`~repro.exec.resilience.WorkerCrashError`.

    On the serial path, a pipeline whose ``resolved_engine`` is
    ``"batched"`` trains every pending batch, a batch of one included, in
    one ``run_batch`` lockstep pass; any other pipeline runs task by task.
    A task failure is only raised after the retry budget is exhausted, and
    only after every sibling task has been drained into the cache.  With a
    chaos plan installed, the serial path runs task by task so faults
    inject per task (both routes are bit-identical by the engine parity
    contract, so this changes timing only, never numbers).
    """

    def __init__(
        self,
        pipeline=None,
        *,
        workers: int = 0,
        pipeline_factory: Optional[Callable[[], object]] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
        policy: Optional[ResiliencePolicy] = None,
    ) -> None:
        if pipeline is None and pipeline_factory is None:
            raise ValueError("SweepExecutor needs a pipeline or a pipeline_factory")
        self._pipeline = pipeline
        self._factory = pipeline_factory
        self.workers = max(0, int(workers))
        self.cache = cache if cache is not None else ResultCache()
        self.stats = ExecutionStats(workers=self.workers)
        self._progress = progress
        self.policy = policy if policy is not None else PLAIN_POLICY
        #: Lease-aware dispatch hook (:mod:`repro.exec.elastic`): a callable
        #: invoked around every serial task and on every supervision-loop
        #: iteration.  The elastic scheduler installs its rate-limited
        #: lease/presence renewal here, so long chunks keep heartbeating
        #: while their tasks run.  ``None`` = no elastic coordination.
        self.heartbeat: Optional[Callable[[], None]] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._scope: Optional[str] = None

    # ------------------------------------------------------------------ helpers
    @property
    def pipeline(self):
        """The serial-path pipeline (built lazily from the factory if needed)."""
        if self._pipeline is None:
            self._pipeline = self._factory()
        return self._pipeline

    def _worker_factory(self) -> Callable[[], object]:
        if self._factory is not None:
            return self._factory
        config = getattr(self._pipeline, "config", None)
        if config is None:
            raise ValueError(
                "parallel execution needs a picklable pipeline_factory; the "
                "wrapped pipeline has no .config to rebuild one from"
            )
        # Propagate the wrapped pipeline's engine choice so a forced
        # engine="scalar" holds on the parallel path too.
        return PipelineFromConfig(config, engine=getattr(self._pipeline, "engine", "auto"))

    @property
    def parallel(self) -> bool:
        """True when batches are dispatched to a process pool."""
        return self.workers >= 2

    def _cache_key(self, attack) -> str:
        """Scoped cache key: experiment-config namespace + attack content.

        The scope prevents a shared cache from serving results computed
        under a *different* experiment config (different scale, seed, ...):
        keys from distinct configs never collide.
        """
        if self._scope is None:
            source = self._pipeline if self._pipeline is not None else self._factory
            self._scope = scope_key(getattr(source, "config", None) or source)
        return f"{self._scope}::{attack_cache_key(attack)}"

    @property
    def _baseline_cache_key(self) -> str:
        return self._cache_key(None)

    # ------------------------------------------------------------------ running
    def run_baseline(self):
        """The attack-free result (evaluated once, then served from cache)."""
        return self.map([None])[0]

    def run_attack(self, attack):
        """One attacked result (served from cache when already evaluated)."""
        return self.map([attack])[0]

    def peek_results(self, attacks: Sequence) -> List:
        """Cached results for ``attacks`` (input order) without executing.

        Entries not in the cache come back as ``None``.  Sharded scenario
        runs use this to assemble the merged artifact: every shard
        evaluates its own slice, then any invocation can check — without
        triggering work — whether the union of the persistent caches
        already covers the full variant list.
        """
        return [self.cache.peek(self._cache_key(attack)) for attack in attacks]

    def map(self, attacks: Sequence) -> List:
        """Evaluate every attack in ``attacks`` and return aligned results.

        ``None`` entries request the attack-free baseline.  Duplicate
        configurations (by :func:`attack_cache_key`) are evaluated once.
        Results are returned in input order regardless of completion order.
        The cache's quarantine count is synced into the stats afterwards, so
        corrupt entries recovered from show up in reports and provenance.
        """
        batch_start = time.perf_counter()
        keys = [self._cache_key(attack) for attack in attacks]

        pending: Dict[str, object] = {}
        for key, attack in zip(keys, attacks):
            if key not in self.cache and key not in pending:
                pending[key] = attack

        total = len(pending)
        try:
            if total:
                if self.parallel and total > 1:
                    _Supervisor(self, pending, total).run()
                else:
                    self._run_serial(pending, total)
        finally:
            # Account the batch even when a task failed, so retries see
            # truthful stats and the completed siblings' timings.
            self.stats.batches += 1
            self.stats.wall_seconds += time.perf_counter() - batch_start

        # Every request not satisfied by a fresh evaluation above was a cache
        # hit — including duplicates of a key evaluated in this same batch.
        freshly_executed = set()
        for key in keys:
            if key in pending and key not in freshly_executed:
                freshly_executed.add(key)
                continue
            self.stats.record(TaskTiming(key=key, seconds=0.0, cached=True))

        self._backfill_baseline(keys)
        self.stats.quarantined = getattr(
            self.cache, "quarantined_entries", self.stats.quarantined
        )
        return [self.cache.peek(key) for key in keys]

    def _backfill_baseline(self, keys: Sequence[str]) -> None:
        """Fill ``baseline_accuracy`` on attacked results once it is known.

        In serial runs the pipeline itself back-references its cached
        baseline, but a parallel worker that only ever sees attacked tasks
        cannot.  Normalising here makes the field deterministic — identical
        for serial and parallel execution — whenever the baseline has been
        evaluated (the campaign includes it in every sweep batch).
        """
        baseline = self.cache.peek(self._baseline_cache_key)
        baseline_accuracy = getattr(baseline, "accuracy", None)
        if baseline_accuracy is None:
            return
        for key in dict.fromkeys(keys):
            if key == self._baseline_cache_key:
                continue
            result = self.cache.peek(key)
            if (
                dataclasses.is_dataclass(result)
                and getattr(result, "baseline_accuracy", False) is None
            ):
                self.cache.put(
                    key,
                    dataclasses.replace(result, baseline_accuracy=baseline_accuracy),
                )

    def _beat(self) -> None:
        """Invoke the heartbeat hook; shared-FS hiccups must not kill tasks."""
        if self.heartbeat is not None:
            try:
                self.heartbeat()
            except OSError:  # pragma: no cover - shared-FS hiccup
                pass

    def _run_serial(self, pending: Dict[str, object], total: int) -> None:
        self._beat()
        # Chaos targets individual tasks, so a chaos plan forces the per-task
        # loop: each task is then a separate injection point.
        if (
            self.policy.chaos is None
            and getattr(self.pipeline, "resolved_engine", None) == "batched"
        ):
            self._run_serial_batched(pending, total)
            return
        done = 0
        for key, attack in pending.items():
            self._beat()
            result, seconds = self._retrying(key, lambda: self._evaluate(attack))
            timing = TaskTiming(key=key, seconds=seconds, worker_mode="serial")
            self.cache.put(key, result)
            self.stats.record(timing)
            done += 1
            if self._progress is not None:
                self._progress(timing, done, total)

    def _evaluate(self, attack):
        if attack is None:
            return self.pipeline.run_baseline()
        return self.pipeline.run(attack)

    def _retrying(self, key: str, call: Callable[[], object]) -> Tuple[object, float]:
        """``call()`` on the serial path: chaos for ``key``, then retry with
        backoff; returns the result and the successful attempt's seconds."""
        retry = self.policy.retry
        chaos = self.policy.chaos
        attempt = 0
        while True:
            start = time.perf_counter()
            try:
                if chaos is not None:
                    chaos.apply(key, attempt, allow_kill=False)
                return call(), time.perf_counter() - start
            except Exception:
                # KeyboardInterrupt/SystemExit (BaseException) propagate:
                # an interrupt must stop the campaign, not be retried.
                if attempt >= retry.max_retries:
                    raise
                attempt += 1
                self.stats.retries += 1
                time.sleep(retry.delay(key, attempt))

    def _run_serial_batched(self, pending: Dict[str, object], total: int) -> None:
        """Evaluate a whole pending batch, even a batch of one, in one
        lockstep variant pass of ``pipeline.run_batch``.

        The pass retries as a whole under the policy's retry budget, keyed
        by its first task.  A failure that outlasts it — such as a
        :class:`~repro.snn.batched.BatchedNetworkError` — propagates: the
        pipeline's own ``run`` is a one-lane ``run_batch`` on this engine,
        so no per-task fallback could succeed.  Timings attribute the pass's
        wall-clock evenly across its tasks, under the ``"batched"`` worker
        mode, so ``ExecutionStats`` stays truthful about where time went
        (``task_seconds`` equals wall time for a lockstep pass — the speedup
        shows up as fewer seconds, not as pool concurrency).
        """
        attacks = list(pending.values())
        results, seconds = self._retrying(
            next(iter(pending)), lambda: self.pipeline.run_batch(attacks)
        )
        self.stats.lockstep_passes += 1
        self.stats.lockstep_lanes += len(results)
        seconds /= total
        for done, (key, result) in enumerate(zip(pending, results), start=1):
            timing = TaskTiming(key=key, seconds=seconds, worker_mode="batched")
            self.cache.put(key, result)
            self.stats.record(timing)
            if self._progress is not None:
                self._progress(timing, done, total)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The executor's persistent worker pool (created on first use).

        Keeping one pool per executor means the worker start-up cost — and
        the per-worker pipeline rebuild in the initializer — is paid once
        per campaign, not once per sweep batch.  The initializer also
        installs the policy's chaos plan in every worker.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_initialize_worker,
                initargs=(self._worker_factory(), self.policy.chaos),
            )
        return self._pool

    def _discard_pool(self) -> None:
        """Drop the (broken or clogged) pool without waiting on its tasks."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self, *, cancel_pending: bool = False) -> None:
        """Shut the worker pool down (no-op for serial executors).

        Optional: an unclosed pool is joined at interpreter exit by
        :mod:`concurrent.futures`; use ``close()`` (or the context-manager
        form) for deterministic teardown in long-lived processes.
        ``cancel_pending=True`` additionally cancels queued-but-unstarted
        tasks — the interrupt path, where already-completed results are
        already flushed to the cache and waiting on the queue tail would
        only delay the exit.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=cancel_pending)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # On an exceptional exit (including KeyboardInterrupt) drop queued
        # tasks: completed results are cached, the rest resumes next run.
        self.close(cancel_pending=exc_type is not None)

    # ------------------------------------------------------------------ misc
    def baseline_accuracy(self) -> float:
        """Accuracy of the attack-free run (cached)."""
        return self.run_baseline().accuracy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = f"parallel(workers={self.workers})" if self.parallel else "serial"
        return f"SweepExecutor({mode}, cached={len(self.cache)})"


@dataclass
class _Dispatch:
    """Book-keeping for one submitted (task, attempt) pair."""

    key: str
    attempt: int
    submitted_at: float
    timed_out: bool = False
    duplicated: bool = False


class _Supervisor:
    """The parallel supervision loop of one :meth:`SweepExecutor.map` batch.

    Owns the in-flight dispatch table, the retry schedule and the
    failure ledger for the batch; see :class:`SweepExecutor` for the
    semantics it implements.
    """

    def __init__(
        self, executor: SweepExecutor, pending: Dict[str, object], total: int
    ) -> None:
        self.executor = executor
        self.pending = pending
        self.total = total
        self.policy = executor.policy
        self.resolved: set = set()
        self.failures: Dict[str, BaseException] = {}
        self.inflight: Dict[object, _Dispatch] = {}
        self.retry_heap: List[Tuple[float, int, str]] = []
        self._heap_seq = itertools.count()
        self.dispatch_counts: Dict[str, int] = {}
        self.durations: List[float] = []
        self.done = 0
        self.rebuilds = 0
        #: Keys whose dispatch was lost to a dead pool (re-dispatched on rebuild).
        self.lost_keys: set = set()
        self.pool_broken = False

    # ------------------------------------------------------------- submission
    def _submit(self, key: str) -> None:
        attempt = self.dispatch_counts.get(key, 0)
        self.dispatch_counts[key] = attempt + 1
        try:
            pool = self.executor._ensure_pool()
            future = pool.submit(
                _run_dispatch, key, self.pending[key], attempt
            )
        except BrokenProcessPool:
            # The pool died between the last collection and this submit;
            # the dispatch never happened — queue it for the rebuilt pool.
            self.dispatch_counts[key] = attempt
            self.lost_keys.add(key)
            self.pool_broken = True
            return
        self.inflight[future] = _Dispatch(key, attempt, time.monotonic())

    def _schedule_retry(self, key: str) -> None:
        retry_number = self.dispatch_counts[key]  # dispatches so far = retry #
        ready = time.monotonic() + self.policy.retry.delay(key, retry_number)
        heapq.heappush(self.retry_heap, (ready, next(self._heap_seq), key))

    def _active(self, key: str) -> bool:
        return key not in self.resolved and key not in self.failures

    # ------------------------------------------------------------------- loop
    def run(self) -> None:
        """Drive the batch until every task is resolved or permanently failed."""
        for key in self.pending:
            self._submit(key)
        while any(self._active(key) for key in self.pending):
            self.executor._beat()
            now = time.monotonic()
            self._launch_due_retries(now)
            if self.pool_broken:
                self._rebuild_pool()
                continue
            if not self.inflight:
                if self.retry_heap:
                    time.sleep(
                        max(0.0, min(self.policy.tick, self.retry_heap[0][0] - now))
                    )
                    continue
                # Every active task must be in flight or scheduled; a bare
                # loop here would spin forever, so fail loudly instead.
                raise RuntimeError(
                    "supervision invariant violated: active tasks with no "
                    "dispatch in flight and no retry scheduled"
                )
            finished, _ = wait(
                set(self.inflight), timeout=self.policy.tick,
                return_when=FIRST_COMPLETED,
            )
            self._collect(finished)
            if self.pool_broken:
                self._rebuild_pool()
                continue
            now = time.monotonic()
            self._scan_timeouts(now)
            if self.pool_broken:
                self._rebuild_pool()
                continue
            self._scan_stragglers(now)
            if self.pool_broken:
                self._rebuild_pool()
        if self.failures:
            # Siblings were drained first, so completed results are cached
            # and a retrying map() only re-runs the failed tasks.
            first = next(key for key in self.pending if key in self.failures)
            raise self.failures[first]

    def _launch_due_retries(self, now: float) -> None:
        while self.retry_heap and self.retry_heap[0][0] <= now:
            _, _, key = heapq.heappop(self.retry_heap)
            if self._active(key):
                self._submit(key)

    def _collect(self, finished) -> None:
        """Absorb finished futures (sets ``pool_broken`` when workers died)."""
        stats = self.executor.stats
        for future in finished:
            dispatch = self.inflight.pop(future)
            key = dispatch.key
            try:
                _, _, result, seconds = future.result()
            except (BrokenProcessPool, CancelledError):
                # The dispatch died with its pool (or was cancelled during a
                # teardown); its task is lost, not failed.
                if self._active(key):
                    self.lost_keys.add(key)
                self.pool_broken = True
                continue
            except Exception as error:  # noqa: BLE001 - ledgered, raised at end
                if not self._active(key):
                    continue
                if self.dispatch_counts[key] <= self.policy.retry.max_retries:
                    stats.retries += 1
                    self._schedule_retry(key)
                else:
                    self.failures[key] = error
                continue
            if not self._active(key):
                continue  # a duplicate dispatch already won this task
            self.resolved.add(key)
            self.durations.append(seconds)
            timing = TaskTiming(key=key, seconds=seconds, worker_mode="parallel")
            self.executor.cache.put(key, result)
            stats.record(timing)
            self.done += 1
            if self.executor._progress is not None:
                self.executor._progress(timing, self.done, self.total)

    # -------------------------------------------------------------- recovery
    def _rebuild_pool(self) -> None:
        """Replace a dead or clogged pool; re-dispatch only the lost tasks."""
        stats = self.executor.stats
        self.rebuilds += 1
        stats.pool_rebuilds += 1
        if self.rebuilds > self.policy.retry.max_pool_rebuilds:
            raise WorkerCrashError(
                f"worker processes died through {self.rebuilds} pool rebuilds "
                f"(budget {self.policy.retry.max_pool_rebuilds}); giving up"
            )
        lost = set(self.lost_keys)
        # Dispatches still tracked in flight die with the pool — except
        # timed-out ones, whose replacement was already queued (it lands in
        # ``lost`` through its own future's cancellation, or is live below).
        for dispatch in self.inflight.values():
            if self._active(dispatch.key) and not dispatch.timed_out:
                lost.add(dispatch.key)
        self.inflight.clear()
        self.lost_keys.clear()
        self.pool_broken = False
        self.executor._discard_pool()
        scheduled = {key for _, _, key in self.retry_heap}
        for key in self.pending:  # pending order keeps re-dispatch deterministic
            if key in lost and key not in scheduled:
                self._submit(key)

    def _scan_timeouts(self, now: float) -> None:
        """Replace dispatches that outlived the per-task timeout."""
        timeout = self.policy.retry.task_timeout
        if timeout is None:
            return
        stats = self.executor.stats
        for dispatch in list(self.inflight.values()):
            if dispatch.timed_out or not self._active(dispatch.key):
                continue
            if now - dispatch.submitted_at <= timeout:
                continue
            dispatch.timed_out = True
            stats.timeouts += 1
            key = dispatch.key
            if self.dispatch_counts[key] <= self.policy.retry.max_retries:
                # Immediate replacement: the timeout already waited longer
                # than any backoff would.
                self._submit(key)
            else:
                self.failures[key] = TaskTimeoutError(
                    f"task {key!r} exceeded {timeout:g}s on "
                    f"{self.dispatch_counts[key]} dispatch(es)"
                )
        # A hung task cannot be cancelled inside ProcessPoolExecutor; when
        # every worker slot may be occupied by an abandoned dispatch, the
        # replacements above would queue forever — force a pool rebuild.
        # (This timeout-based detection is the "missing heartbeat" path:
        # the worker never reports back, so the supervisor walks away.)
        abandoned = sum(1 for d in self.inflight.values() if d.timed_out)
        if abandoned >= self.executor.workers and abandoned:
            self.inflight = {
                f: d for f, d in self.inflight.items() if not d.timed_out
            }
            self.pool_broken = True

    def _scan_stragglers(self, now: float) -> None:
        """Submit one duplicate for each dispatch far past its peers."""
        deadline = self.policy.straggler.deadline(self.durations)
        if deadline is None:
            return
        for dispatch in list(self.inflight.values()):
            if dispatch.duplicated or dispatch.timed_out:
                continue
            if not self._active(dispatch.key):
                continue
            if now - dispatch.submitted_at <= deadline:
                continue
            dispatch.duplicated = True
            self.executor.stats.requeues += 1
            self._submit(dispatch.key)


def default_worker_count() -> int:
    """A sensible worker count for this machine (``os.cpu_count()``, min 1)."""
    return max(1, os.cpu_count() or 1)
