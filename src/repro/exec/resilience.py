"""Fault-tolerant campaign execution: the policy the sweep executor follows.

:class:`~repro.exec.executor.SweepExecutor` supervises every parallel batch
and keeps its bit-identical-results contract while surviving the three
failure modes a long campaign actually meets; this module holds the policy
values that configure it and the errors it gives up with:

* **Worker death** — a worker process that dies mid-task breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor`.  The supervisor catches
  ``BrokenProcessPool``, rebuilds the pool, and re-dispatches *only* the
  tasks that were in flight when it broke; completed siblings stay cached.
* **Transient task failures and hangs** — every task carries a retry budget
  with seeded exponential backoff plus jitter (the schedule is a pure
  function of ``(policy seed, task key, attempt)``, so it is reproducible),
  and an optional per-task timeout after which a lost dispatch is replaced.
* **Stragglers** — once enough tasks have finished, a percentile-based
  deadline flags dispatches running far past their peers and submits one
  duplicate each.  *First result wins*: every dispatch of a task computes
  the same bits (results are a pure function of config seed and attack
  label), so whichever lands first is cached and the merge stays
  bit-identical to a clean serial run.

Failure handling never reorders or changes results — it only changes *when*
and *in which process* a task runs, which the executor's determinism
contract already makes irrelevant.  The counters (retries, timeouts,
requeues, pool rebuilds, quarantined cache entries) land in
:class:`~repro.exec.executor.ExecutionStats` and flow into
``repro report`` and artifact provenance, so a chaotic run is auditable
after the fact.  Chaos itself is injected by :mod:`repro.exec.chaos` and
regression-tested in ``tests/test_exec_resilience.py``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.exec.chaos import FaultPlan


class ResilienceExecutorError(RuntimeError):
    """Base of the failures the supervision layer itself gives up with."""


class TaskTimeoutError(ResilienceExecutorError):
    """A task exceeded its timeout on every dispatch of its retry budget."""


class WorkerCrashError(ResilienceExecutorError):
    """Worker processes kept dying past the pool-rebuild budget."""


def _uniform(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform [0, 1) draw for one (task, attempt) pair."""
    digest = hashlib.sha256(f"backoff:{seed}:{key}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task retry budget, timeout, and seeded backoff schedule.

    ``delay(key, retry_number)`` grows exponentially
    (``backoff_base * backoff_factor**(retry_number-1)``, capped at
    ``backoff_max``) and is spread by up to ``jitter`` of itself — but the
    jitter is drawn from a SHA-256 of ``(seed, key, retry_number)``, never
    from global RNG state, so the whole backoff schedule of a campaign is
    reproducible run-to-run.
    """

    max_retries: int = 2
    task_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5
    max_pool_rebuilds: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {self.task_timeout}")

    def delay(self, key: str, retry_number: int) -> float:
        """Backoff before retry ``retry_number`` (1-based) of task ``key``."""
        base = min(
            self.backoff_base * self.backoff_factor ** max(retry_number - 1, 0),
            self.backoff_max,
        )
        return base * (1.0 + self.jitter * _uniform(self.seed, key, retry_number))


@dataclass(frozen=True)
class StragglerPolicy:
    """When to re-dispatch a dispatch that runs far past its peers.

    Once at least ``min_samples`` tasks of the batch have finished, any
    dispatch older than ``factor`` times the ``percentile``-th percentile
    of the finished durations (but never younger than ``min_seconds``)
    gets *one* duplicate submission.  First result wins, so a straggler
    that eventually finishes is simply ignored — re-dispatch trades spare
    worker capacity for tail latency without touching the numbers.
    """

    enabled: bool = True
    percentile: float = 90.0
    factor: float = 4.0
    min_samples: int = 6
    min_seconds: float = 0.5

    def deadline(self, durations: List[float]) -> Optional[float]:
        """The age (seconds) past which an in-flight dispatch is a straggler.

        ``None`` while there are not yet enough finished samples.
        """
        if not self.enabled or len(durations) < max(self.min_samples, 1):
            return None
        ordered = sorted(durations)
        index = max(0, math.ceil(self.percentile / 100.0 * len(ordered)) - 1)
        return max(self.min_seconds, self.factor * ordered[index])


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything the supervision layer needs to know, in one value.

    ``chaos`` optionally carries a :class:`~repro.exec.chaos.FaultPlan`
    that is installed into every worker (and applied on the serial path)
    — the deterministic fault-injection harness the resilience tests and
    the ``--chaos`` CLI flag use.  ``tick`` is the supervision poll
    interval: how often the main loop wakes to check timeouts, stragglers
    and due retries.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    straggler: StragglerPolicy = field(default_factory=StragglerPolicy)
    chaos: Optional[FaultPlan] = None
    tick: float = 0.05

    @classmethod
    def from_options(
        cls,
        *,
        task_timeout: Optional[float] = None,
        max_retries: int = 2,
        chaos: Optional[FaultPlan] = None,
        seed: int = 0,
    ) -> "ResiliencePolicy":
        """The policy the CLI flags map to (timeout/retries/chaos)."""
        return cls(
            retry=RetryPolicy(
                max_retries=max_retries, task_timeout=task_timeout, seed=seed
            ),
            chaos=chaos,
        )




#: The policy an executor built with ``policy=None`` follows: no retries, no
#: timeout, no straggler duplicates, no chaos.  Worker death is still
#: recovered within ``RetryPolicy.max_pool_rebuilds`` (or raised as
#: :class:`WorkerCrashError`).
PLAIN_POLICY = ResiliencePolicy(
    retry=RetryPolicy(max_retries=0), straggler=StragglerPolicy(enabled=False)
)


def __getattr__(name: str):
    # ``ResilientExecutor`` is a bare alias kept because the benchmark's
    # tracer (perfbench/layers.py) wraps ``map`` on this name; resolved
    # lazily since the executor module imports this one.
    if name == "ResilientExecutor":
        from repro.exec.executor import SweepExecutor

        return SweepExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
