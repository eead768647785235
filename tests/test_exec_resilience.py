"""Fault-tolerance regression tests: chaotic campaigns end bit-identical.

Every failure mode the supervision layer (:mod:`repro.exec.resilience`)
recovers from — worker death, hangs past the task timeout, transient
exceptions, stragglers, corrupt cache state, killed shards — is injected
deterministically through :mod:`repro.exec.chaos` and must end in the
*same SHA-256-pinned results* as a clean run, with the executor's
resilience counters matching the injected plan.
"""

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.attacks import Attack3InhibitoryThreshold
from repro.core.reporting import format_execution_report
from repro.core.results import ExperimentResult
from repro.exec import (
    CHAOS_PLANS,
    Fault,
    FaultPlan,
    InjectedFault,
    MergeReport,
    ResilienceExecutorError,
    ResiliencePolicy,
    RetryPolicy,
    ShardSpec,
    StragglerPolicy,
    SweepExecutor,
    TaskTimeoutError,
    WorkerCrashError,
    attack_cache_key,
    load_fault_plan,
    merge_report,
)
from repro.exec import chaos as chaos_module
from repro.exec.executor import COUNTERS, ExecutionStats
from repro.scenarios import ScenarioRunner, get_scenario
from repro.store import PersistentResultCache, save_scenario_result
from repro.utils.serialization import atomic_write_json, atomic_write_npz


@dataclasses.dataclass
class StubConfig:
    scale_name: str = "stub"
    seed: int = 0


class StubPipeline:
    """Deterministic, instant, picklable pipeline stand-in.

    Accuracy is a pure function of the attack label, so every dispatch of
    a task — first attempt, retry, straggler duplicate, post-rebuild
    re-dispatch — computes the same bits, exactly like the real pipeline's
    determinism contract.
    """

    def __init__(self, config=None):
        self.config = config or StubConfig()

    def run(self, attack) -> ExperimentResult:
        label = attack.label()
        return ExperimentResult(
            attack_label=label, accuracy=(sum(label.encode()) % 97) / 97.0
        )

    def run_baseline(self) -> ExperimentResult:
        return ExperimentResult(attack_label="baseline", accuracy=0.9)


ATTACKS = [None] + [
    Attack3InhibitoryThreshold(threshold_change=change, fraction=fraction)
    for change in (-0.2, -0.1, 0.1, 0.2)
    for fraction in (0.5, 1.0)
]
KEYS = [attack_cache_key(attack) for attack in ATTACKS]

#: SHA-256 of the clean run's accuracy array — every chaotic campaign below
#: must end exactly here.
CLEAN_SHA256 = "7319ff173e875b36b3c36d2158c648cf8610e39677ef2aea357332998e55ce91"

#: Fast backoff so retry-path tests don't sleep their way through CI.
FAST_RETRY = dict(backoff_base=0.01, backoff_max=0.05)


def results_digest(results) -> str:
    return hashlib.sha256(
        np.array([r.accuracy for r in results], dtype=float).tobytes()
    ).hexdigest()


def run_chaotic(plan, *, workers=2, retry=None, straggler=None, cache=None):
    """One full campaign under ``plan``; returns (digest, stats)."""
    policy = ResiliencePolicy(
        retry=retry or RetryPolicy(**FAST_RETRY),
        straggler=straggler or StragglerPolicy(enabled=False),
        chaos=plan,
    )
    with SweepExecutor(
        StubPipeline(),
        workers=workers,
        pipeline_factory=StubPipeline,
        cache=cache,
        policy=policy,
    ) as executor:
        digest = results_digest(executor.map(ATTACKS))
        return digest, executor.stats


class TestRetryPolicy:
    def test_backoff_schedule_is_reproducible(self):
        first = RetryPolicy(seed=7)
        second = RetryPolicy(seed=7)
        schedule = [first.delay("task-a", n) for n in (1, 2, 3)]
        assert schedule == [second.delay("task-a", n) for n in (1, 2, 3)]

    def test_jitter_depends_on_seed_and_key(self):
        policy = RetryPolicy(seed=1)
        assert policy.delay("a", 1) != policy.delay("b", 1)
        assert policy.delay("a", 1) != RetryPolicy(seed=2).delay("a", 1)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3, jitter=0.0
        )
        assert policy.delay("k", 1) == pytest.approx(0.1)
        assert policy.delay("k", 2) == pytest.approx(0.2)
        assert policy.delay("k", 5) == pytest.approx(0.3)  # capped

    def test_jitter_is_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5)
        delay = policy.delay("k", 1)
        assert 0.1 <= delay <= 0.1 * 1.5

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        for timeout in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="task_timeout"):
                RetryPolicy(task_timeout=timeout)


class TestStragglerPolicy:
    def test_no_deadline_before_min_samples(self):
        policy = StragglerPolicy(min_samples=6)
        assert policy.deadline([1.0] * 5) is None

    def test_deadline_scales_the_percentile(self):
        policy = StragglerPolicy(
            min_samples=4, percentile=90.0, factor=2.0, min_seconds=0.1
        )
        assert policy.deadline([1.0, 1.0, 1.0, 2.0]) == pytest.approx(4.0)

    def test_min_seconds_floor(self):
        policy = StragglerPolicy(min_samples=1, factor=2.0, min_seconds=5.0)
        assert policy.deadline([0.01]) == pytest.approx(5.0)

    def test_disabled_never_fires(self):
        assert StragglerPolicy(enabled=False).deadline([1.0] * 100) is None


class TestResiliencePolicy:
    def test_from_options_maps_the_cli_flags(self):
        plan = CHAOS_PLANS["ci-plan"]
        policy = ResiliencePolicy.from_options(
            task_timeout=3.5, max_retries=4, chaos=plan, seed=11
        )
        assert policy.retry.task_timeout == 3.5
        assert policy.retry.max_retries == 4
        assert policy.retry.seed == 11
        assert policy.chaos is plan

    def test_error_hierarchy(self):
        assert issubclass(TaskTimeoutError, ResilienceExecutorError)
        assert issubclass(WorkerCrashError, ResilienceExecutorError)


class TestFaultPlan:
    def test_fires_gates_on_match_and_attempt(self):
        fault = Fault(action="raise", match="fraction=0.5", attempts=(0,))
        assert fault.fires(0, "A|fraction=0.5", 0)
        assert not fault.fires(0, "A|fraction=1.0", 0)
        assert not fault.fires(0, "A|fraction=0.5", 1)

    def test_probability_extremes(self):
        always = Fault(action="raise", probability=1.0)
        never = Fault(action="raise", probability=0.0)
        assert all(always.fires(0, key, 0) for key in KEYS)
        assert not any(never.fires(0, key, 0) for key in KEYS)

    def test_probability_draw_is_seeded(self):
        fault = Fault(action="raise", probability=0.5)
        first = [fault.fires(3, key, 0) for key in KEYS]
        assert first == [fault.fires(3, key, 0) for key in KEYS]
        assert first != [fault.fires(4, key, 0) for key in KEYS]

    def test_apply_raise(self):
        plan = FaultPlan(faults=(Fault(action="raise"),))
        with pytest.raises(InjectedFault):
            plan.apply("any-task", 0)

    def test_apply_delay_sleeps(self):
        plan = FaultPlan(faults=(Fault(action="delay", delay_seconds=0.05),))
        start = time.perf_counter()
        plan.apply("any-task", 0)
        assert time.perf_counter() - start >= 0.05

    def test_kill_is_demoted_without_allow_kill(self):
        plan = FaultPlan(faults=(Fault(action="kill"),))
        with pytest.raises(InjectedFault, match="demoted"):
            plan.apply("any-task", 0, allow_kill=False)

    def test_count_firing_matches_manual_count(self):
        plan = FaultPlan(seed=9, faults=(Fault(action="raise", probability=0.5),))
        manual = sum(1 for key in KEYS if plan.faults[0].fires(9, key, 0))
        assert plan.count_firing(KEYS, "raise") == manual

    def test_validation(self):
        with pytest.raises(ValueError, match="action"):
            Fault(action="explode")
        with pytest.raises(ValueError, match="probability"):
            Fault(action="raise", probability=1.5)
        with pytest.raises(ValueError, match="delay_seconds"):
            Fault(action="delay", delay_seconds=-1.0)

    def test_json_round_trip(self):
        plan = FaultPlan(
            name="rt",
            seed=5,
            faults=(
                Fault(action="kill", match="x", attempts=(0, 1), exit_code=9),
                Fault(action="delay", delay_seconds=0.5, probability=0.25),
            ),
        )
        assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault-plan field"):
            FaultPlan.from_dict({"name": "x", "typo": 1})
        with pytest.raises(ValueError, match="unknown fault field"):
            FaultPlan.from_dict({"faults": [{"action": "raise", "typo": 1}]})

    def test_load_fault_plan_by_name_and_path(self, tmp_path):
        assert load_fault_plan("ci-plan") is CHAOS_PLANS["ci-plan"]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(FaultPlan(name="file-plan").to_dict()))
        assert load_fault_plan(str(path)).name == "file-plan"

    def test_load_fault_plan_errors_name_the_registry(self, tmp_path):
        with pytest.raises(ValueError, match="ci-plan"):
            load_fault_plan("no-such-plan")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_fault_plan(str(bad))


class TestSerialResilience:
    def test_clean_serial_run_pins_the_reference_digest(self):
        with SweepExecutor(StubPipeline(), workers=0) as executor:
            assert results_digest(executor.map(ATTACKS)) == CLEAN_SHA256
            counts = executor.stats.counters()
            assert {c.name: counts[c.name] for c in COUNTERS if c.group == "resilience"} == {
                "retries": 0,
                "timeouts": 0,
                "requeues": 0,
                "pool_rebuilds": 0,
                "quarantined": 0,
            }

    def test_injected_raises_are_retried_bit_identically(self):
        plan = FaultPlan(name="raise", faults=(Fault(action="raise"),))
        digest, stats = run_chaotic(plan, workers=0)
        assert digest == CLEAN_SHA256
        # Every task fails once (attempt 0) and heals on the first retry,
        # so the retry counter equals exactly what the plan injected.
        assert stats.retries == plan.count_firing(KEYS, "raise") == len(KEYS)

    def test_serial_kill_is_demoted_to_a_transient_failure(self):
        plan = FaultPlan(
            name="kill", faults=(Fault(action="kill", match="fraction=0.5"),)
        )
        digest, stats = run_chaotic(plan, workers=0)
        assert digest == CLEAN_SHA256
        assert stats.retries == plan.count_firing(KEYS, "kill") == 4

    def test_retry_budget_exhaustion_raises_the_task_error(self):
        plan = FaultPlan(
            faults=(Fault(action="raise", match="baseline", attempts=(0, 1, 2, 3)),)
        )
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_retries=2, **FAST_RETRY), chaos=plan
        )
        with SweepExecutor(StubPipeline(), workers=0, policy=policy) as executor:
            with pytest.raises(InjectedFault):
                executor.map(ATTACKS)
            assert executor.stats.retries == 2  # the whole budget was spent


class TestParallelResilience:
    def test_transient_failures_heal_with_matching_counters(self):
        plan = FaultPlan(name="flaky", seed=1, faults=(Fault(action="raise"),))
        digest, stats = run_chaotic(plan)
        assert digest == CLEAN_SHA256
        assert stats.retries == plan.count_firing(KEYS, "raise") == len(KEYS)
        assert stats.pool_rebuilds == 0

    def test_worker_death_rebuilds_the_pool_bit_identically(self):
        plan = FaultPlan(
            name="kill",
            faults=(
                Fault(action="kill", match="threshold_change=-0.2|fraction=1.0"),
            ),
        )
        digest, stats = run_chaotic(plan)
        assert digest == CLEAN_SHA256
        assert stats.pool_rebuilds >= 1

    def test_hung_task_is_replaced_after_the_timeout(self):
        plan = FaultPlan(
            faults=(
                Fault(action="delay", match="baseline", delay_seconds=5.0),
            )
        )
        policy = ResiliencePolicy(
            retry=RetryPolicy(task_timeout=0.4, **FAST_RETRY),
            straggler=StragglerPolicy(enabled=False),
            chaos=plan,
        )
        with SweepExecutor(
            StubPipeline(), workers=2, pipeline_factory=StubPipeline, policy=policy
        ) as executor:
            start = time.perf_counter()
            digest = results_digest(executor.map(ATTACKS))
            wall = time.perf_counter() - start
            assert digest == CLEAN_SHA256
            assert executor.stats.timeouts >= 1
            # map() returned with the replacement's result instead of
            # waiting out the 5 s hang (only pool teardown joins it).
            assert wall < 5.0

    def test_straggler_is_redispatched_first_result_wins(self):
        plan = FaultPlan(
            faults=(
                Fault(action="delay", match="baseline", delay_seconds=4.0),
            )
        )
        policy = ResiliencePolicy(
            retry=RetryPolicy(**FAST_RETRY),
            straggler=StragglerPolicy(
                min_samples=4, percentile=90.0, factor=3.0, min_seconds=0.2
            ),
            chaos=plan,
        )
        with SweepExecutor(
            StubPipeline(), workers=2, pipeline_factory=StubPipeline, policy=policy
        ) as executor:
            start = time.perf_counter()
            digest = results_digest(executor.map(ATTACKS))
            wall = time.perf_counter() - start
            assert digest == CLEAN_SHA256
            assert executor.stats.requeues >= 1
            assert wall < 4.0  # the duplicate's result won, nobody waited out the hang

    def test_retry_budget_exhaustion_fails_but_drains_siblings(self):
        plan = FaultPlan(
            faults=(
                Fault(action="raise", match="baseline", attempts=(0, 1, 2, 3, 4)),
            )
        )
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_retries=1, **FAST_RETRY),
            straggler=StragglerPolicy(enabled=False),
            chaos=plan,
        )
        with SweepExecutor(
            StubPipeline(), workers=2, pipeline_factory=StubPipeline, policy=policy
        ) as executor:
            with pytest.raises(InjectedFault):
                executor.map(ATTACKS)
            siblings = executor.peek_results(ATTACKS[1:])
            assert all(result is not None for result in siblings)

    def test_endless_worker_death_exhausts_the_rebuild_budget(self):
        plan = FaultPlan(
            faults=(
                Fault(action="kill", match="baseline", attempts=tuple(range(8))),
            )
        )
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_retries=6, max_pool_rebuilds=2, **FAST_RETRY),
            straggler=StragglerPolicy(enabled=False),
            chaos=plan,
        )
        with SweepExecutor(
            StubPipeline(), workers=2, pipeline_factory=StubPipeline, policy=policy
        ) as executor:
            with pytest.raises(WorkerCrashError, match="pool rebuilds"):
                executor.map(ATTACKS)


class TestCacheCorruptionRecovery:
    """Every corruption mode is quarantined, warned about and recomputed."""

    def _populate(self, path) -> None:
        cache = PersistentResultCache(path)
        with SweepExecutor(StubPipeline(), workers=0, cache=cache) as executor:
            assert results_digest(executor.map(ATTACKS)) == CLEAN_SHA256

    def _recompute(self, path):
        """Reopen the cache (quarantine happens here) and re-run the campaign."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache = PersistentResultCache(path)
        with SweepExecutor(StubPipeline(), workers=0, cache=cache) as executor:
            digest = results_digest(executor.map(ATTACKS))
            return digest, executor.stats, cache, caught

    def test_digest_mismatch_quarantines_the_entry(self, tmp_path):
        path = tmp_path / "cache.json"
        self._populate(path)
        assert chaos_module.corrupt_cache_entry(path, match="baseline") == 1
        digest, stats, cache, caught = self._recompute(path)
        assert digest == CLEAN_SHA256
        assert cache.quarantined_entries == 1
        assert stats.quarantined == 1  # surfaced into executor stats
        assert len(cache.quarantined_files) == 1
        assert cache.quarantined_files[0].exists()  # original kept for post-mortem
        assert any("digest mismatch" in str(w.message) for w in caught)
        # Only the corrupt entry recomputed; siblings stayed cache hits.
        assert stats.tasks_executed == 1
        assert stats.cache_hits == len(ATTACKS) - 1

    def test_truncated_cache_file_is_moved_aside(self, tmp_path):
        path = tmp_path / "cache.json"
        self._populate(path)
        chaos_module.truncate_file(path, keep_bytes=20)
        digest, stats, cache, caught = self._recompute(path)
        assert digest == CLEAN_SHA256
        assert cache.quarantined_files == [tmp_path / "cache.json.quarantined"]
        assert any("quarantined corrupt result cache" in str(w.message) for w in caught)
        assert stats.tasks_executed == len(ATTACKS)  # everything recomputed

    def test_empty_cache_file_is_moved_aside(self, tmp_path):
        path = tmp_path / "cache.json"
        self._populate(path)
        path.write_text("")
        digest, _, cache, caught = self._recompute(path)
        assert digest == CLEAN_SHA256
        assert len(cache.quarantined_files) == 1
        assert caught  # warned, not crashed

    def test_quarantine_self_heals_on_the_next_run(self, tmp_path):
        path = tmp_path / "cache.json"
        self._populate(path)
        chaos_module.corrupt_cache_entry(path)
        self._recompute(path)
        # The recomputed flush rewrote a fully valid file.
        digest, stats, cache, caught = self._recompute(path)
        assert digest == CLEAN_SHA256
        assert cache.quarantined_entries == 0
        assert not caught
        assert stats.cache_hits == len(ATTACKS)

    def test_corrupt_cache_chaos_action_round_trips_through_apply_disk(
        self, tmp_path
    ):
        path = tmp_path / "cache.json"
        self._populate(path)
        plan = FaultPlan(faults=(Fault(action="corrupt_cache", match="baseline"),))
        assert plan.apply_disk(tmp_path) == 1
        digest, stats, cache, _ = self._recompute(path)
        assert digest == CLEAN_SHA256
        assert cache.quarantined_entries == 1


class TestKilledShardResume:
    def test_interrupted_campaign_resumes_from_the_persistent_cache(self, tmp_path):
        path = tmp_path / "cache.json"
        first = PersistentResultCache(path)
        # A campaign killed partway: only the first half of the grid landed.
        with SweepExecutor(StubPipeline(), workers=0, cache=first) as executor:
            executor.map(ATTACKS[: len(ATTACKS) // 2])
        # A fresh process pointed at the same cache finishes the rest.
        second = PersistentResultCache(path)
        with SweepExecutor(StubPipeline(), workers=0, cache=second) as executor:
            digest = results_digest(executor.map(ATTACKS))
            assert digest == CLEAN_SHA256
            assert executor.stats.cache_hits == len(ATTACKS) // 2
            assert executor.stats.tasks_executed == len(ATTACKS) - len(ATTACKS) // 2


def _hammer_one_path(path, writer, rounds) -> int:
    """Rewrite ``path`` ``rounds`` times from this process; returns the pid."""
    for round_index in range(rounds):
        if writer == "json":
            atomic_write_json(path, {"pid": os.getpid(), "round": round_index})
        else:
            atomic_write_npz(path, {"round": np.array([round_index])})
    return os.getpid()


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", ["json", "npz"])
    def test_concurrent_writers_of_one_path_never_collide(self, tmp_path, writer):
        # Elastic workers that all see the complete variant union write the
        # same scenario artifact at once; every write must land whole.
        path = tmp_path / f"scenario-shared.{writer}"
        processes, rounds = 4, 200
        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [
                pool.submit(_hammer_one_path, path, writer, rounds)
                for _ in range(processes)
            ]
            pids = {future.result() for future in futures}  # re-raises OSError
        if writer == "json":
            final = json.loads(path.read_text(encoding="utf-8"))
            assert final["pid"] in pids and final["round"] == rounds - 1
        else:
            with np.load(path) as loaded:
                assert loaded["round"].tolist() == [rounds - 1]
        assert not list(tmp_path.glob("*.tmp"))

    def test_interrupted_json_write_preserves_the_original(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"value": 1})

        def explode(fd):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(os, "fsync", explode)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_json(path, {"value": 2})
        assert json.loads(path.read_text(encoding="utf-8")) == {"value": 1}

    def test_interrupted_npz_write_preserves_the_original(self, tmp_path, monkeypatch):
        path = tmp_path / "arrays.npz"
        original = {"a": np.arange(4.0)}
        atomic_write_npz(path, original)

        def explode(fd):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(os, "fsync", explode)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_npz(path, {"a": np.zeros(4)})
        with np.load(path) as loaded:
            np.testing.assert_array_equal(loaded["a"], original["a"])

    def test_cache_flush_survives_a_simulated_interrupt(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        cache = PersistentResultCache(path)
        cache.put("k1", ExperimentResult(attack_label="A", accuracy=0.5))

        def explode(fd):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(os, "fsync", explode)
        with pytest.raises(OSError):
            cache.put("k2", ExperimentResult(attack_label="B", accuracy=0.25))
        monkeypatch.undo()
        # The torn flush lost nothing: the previous file is intact and the
        # digest-verified entry still loads.
        reopened = PersistentResultCache(path)
        assert reopened.peek("k1") == ExperimentResult(attack_label="A", accuracy=0.5)
        assert reopened.quarantined_entries == 0


class TestShardMergeReport:
    def test_complete_report(self):
        report = merge_report([object()] * 4, ShardSpec(index=0, count=2))
        assert report.complete
        assert report.missing == 0
        assert report.missing_shards == ()
        assert "all 4 variant(s) resolved" in report.describe()

    def test_missing_positions_map_to_owning_shards(self):
        resolved = [object(), None, object(), None, object(), None]
        report = merge_report(resolved, ShardSpec(index=0, count=3))
        assert report.missing_positions == (1, 3, 5)
        # Positions 1, 3, 5 of a 3-way interleave belong to shards 1, 0, 2.
        assert report.missing_shards == (0, 1, 2)
        text = report.describe()
        assert "3 of 6 variant(s) unresolved" in text
        assert "1, 3, 5" in text
        assert "0/3" in text and "1/3" in text and "2/3" in text

    def test_describe_truncates_long_position_lists(self):
        report = MergeReport(total=40, count=2, missing_positions=tuple(range(20)))
        text = report.describe(limit=8)
        assert "… (12 more)" in text

    def test_resume_commands_render_one_per_missing_shard(self):
        report = MergeReport(total=6, count=3, missing_positions=(1, 4))
        commands = report.resume_commands("repro scenarios run X {split}")
        assert commands == ["repro scenarios run X --shard 1/3"]


class TestReporting:
    def test_clean_report_omits_resilience_rows(self):
        stats = ExecutionStats()
        report = format_execution_report(stats)
        assert "task retries" not in report
        assert "worker-pool rebuilds" not in report

    def test_recovered_faults_appear_in_the_report(self):
        stats = ExecutionStats(retries=3, timeouts=1, pool_rebuilds=2, quarantined=4)
        report = format_execution_report(stats)
        assert "task retries" in report and "3" in report
        assert "task timeouts" in report
        assert "worker-pool rebuilds" in report
        assert "quarantined cache entries" in report


# --------------------------------------------------------------------------
# CLI integration: --chaos end to end, shard-merge reporting, signals.
# --------------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[1]


def _cli_main(argv):
    from repro.cli import main

    return main(argv)


class TestCLIChaos:
    def test_chaos_scenario_run_is_bit_identical_with_counters(self, tmp_path, capsys):
        plan = FaultPlan(name="test-plan", faults=(Fault(action="raise"),))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan.to_dict()))
        clean_dir, chaos_dir = tmp_path / "clean", tmp_path / "chaos"
        base = ["scenarios", "run", "separate_domain_droop", "--scale", "tiny", "--quiet"]
        assert _cli_main(base + ["--out", str(clean_dir)]) == 0
        assert _cli_main(base + ["--out", str(chaos_dir), "--chaos", str(plan_path)]) == 0
        capsys.readouterr()

        clean = json.loads((clean_dir / "scenario-separate_domain_droop.json").read_text())
        chaotic = json.loads((chaos_dir / "scenario-separate_domain_droop.json").read_text())
        assert chaotic["metrics"] == clean["metrics"]
        # Per-array SHA-256 digests (and shapes/dtypes) must be identical.
        assert chaotic["arrays"] == clean["arrays"]
        # The provenance counters record exactly the injected plan: every
        # task (2 variants + baseline) failed once and was retried.
        assert chaotic["provenance"]["resilience"]["retries"] == 3
        assert clean["provenance"]["resilience"]["retries"] == 0

        # The stored block is the executor's own counter delta over the run,
        # renamed through the counter table: rerun the same chaotic campaign
        # in-process and compare what lands on disk with the stats.
        scenario = get_scenario("separate_domain_droop")
        policy = ResiliencePolicy.from_options(chaos=plan)
        with ScenarioRunner(scale="tiny", resilience=policy) as runner:
            stats = runner.executor_for(scenario).stats
            before = stats.counters()
            result = runner.run(scenario)
            delta = stats.since(before)
        paths = save_scenario_result(
            scenario, result, tmp_path / "inproc",
            config=runner.config_for(scenario), git_sha="test",
        )
        stored = json.loads(paths.json_path.read_text())["provenance"]["resilience"]
        assert stored == {
            c.provenance: delta[c.name] for c in COUNTERS if c.group == "resilience"
        }
        assert stored == chaotic["provenance"]["resilience"]

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-retries", "-1"), ("--task-timeout", "nan"), ("--task-timeout", "0")],
    )
    def test_bad_resilience_flag_exits_naming_the_flag(self, tmp_path, flag, value):
        for argv in (
            ["run", "fig4", "--scale", "tiny"],
            ["scenarios", "run", "separate_domain_droop", "--scale", "tiny"],
        ):
            with pytest.raises(SystemExit, match=f"^{flag}: "):
                _cli_main(argv + ["--out", str(tmp_path), flag, value])

    def test_unknown_chaos_plan_exits_with_the_registry(self, tmp_path):
        with pytest.raises(SystemExit, match="ci-plan"):
            _cli_main(
                ["scenarios", "run", "separate_domain_droop", "--scale", "tiny",
                 "--out", str(tmp_path), "--chaos", "bogus"]
            )


class TestCLIShardMergeReporting:
    def test_incomplete_merge_names_missing_shards_and_resume_command(
        self, tmp_path, capsys
    ):
        code = _cli_main(
            ["scenarios", "run", "separate_domain_droop", "--scale", "tiny",
             "--out", str(tmp_path), "--shard", "0/3", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 of 2 variant(s) unresolved" in out
        assert "owned by shard(s) 1/3" in out
        assert (
            f"resume with: python -m repro scenarios run separate_domain_droop "
            f"--shard 1/3 --out {tmp_path}" in out
        )

    def test_all_shards_then_any_invocation_merges(self, tmp_path, capsys):
        base = ["scenarios", "run", "separate_domain_droop", "--scale", "tiny",
                "--out", str(tmp_path), "--quiet"]
        for index in range(3):
            assert _cli_main(base + ["--shard", f"{index}/3"]) == 0
        assert _cli_main(base + ["--shard", "0/3"]) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "scenario-separate_domain_droop.json").exists()
        assert "unresolved" not in out.rsplit("[separate_domain_droop]", 1)[-1]


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signal semantics")
class TestGracefulShutdown:
    """Ctrl-C / SIGTERM land a distinct exit code, no traceback, warm cache."""

    def _launch(self, tmp_path):
        # A delay fault stretches each task so the signal reliably lands
        # mid-campaign; tasks and chaos are otherwise the normal tiny run.
        plan = FaultPlan(
            name="slow", faults=(Fault(action="delay", delay_seconds=1.5),)
        )
        plan_path = tmp_path / "slow.json"
        plan_path.write_text(json.dumps(plan.to_dict()))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "scenarios", "run",
             "separate_domain_droop", "--scale", "tiny", "--quiet",
             "--out", str(tmp_path / "out"), "--chaos", str(plan_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        # The campaign header proves the run (and the signal handler) is up.
        line = process.stdout.readline()
        assert "[separate_domain_droop]" in line
        time.sleep(0.5)
        return process

    def _finish(self, process):
        try:
            stdout, stderr = process.communicate(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - debugging aid
            process.kill()
            raise
        return process.returncode, stdout, stderr

    def test_sigint_exits_130_without_traceback(self, tmp_path):
        process = self._launch(tmp_path)
        process.send_signal(signal.SIGINT)
        code, _, stderr = self._finish(process)
        assert code == 130
        assert "interrupted" in stderr
        assert "Traceback" not in stderr

    def test_sigterm_exits_143_without_traceback(self, tmp_path):
        process = self._launch(tmp_path)
        process.send_signal(signal.SIGTERM)
        code, _, stderr = self._finish(process)
        assert code == 143
        assert "terminated" in stderr
        assert "Traceback" not in stderr
