"""Tests for elastic crash-tolerant campaign execution (ISSUE 9).

Covers: lease-board atomics (exclusive claim, mtime-judged expiry, steal
with attempt accounting, first-result-wins completion, corrupt-lease
quarantine), the work-stealing scheduler (drain, dead-peer steal, dispatch
budget, straggler duplication, peer accounting), chunk building, stale
artifact sweeps, sibling-preload retry on transient read failures, the
``owns_name`` balance of the static shard splitter, elastic merge-report
rendering, the elastic ``ScenarioRunner`` paths, and the CLI contract:
kill a cooperating worker mid-chunk and the survivors still produce an
artifact bit-identical to a single-process run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core import ExperimentConfig
from repro.core.results import ExperimentResult
from repro.exec.cache import ResultCache
from repro.exec.chaos import Fault, FaultPlan
from repro.exec.elastic import (
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
from repro.exec.executor import ExecutionStats
from repro.exec.shard import MergeReport, ShardSpec
from repro.scenarios import ScenarioRunner, ScenarioSpec, scenario_names
from repro.store import (
    CacheCorruptionError,
    PersistentResultCache,
    _atomic_write_json,
    open_worker_cache,
)

# --------------------------------------------------------------------------
# Policy and chunking.
# --------------------------------------------------------------------------


class TestElasticPolicy:
    def test_defaults_are_valid(self):
        policy = ElasticPolicy()
        assert policy.effective_heartbeat == pytest.approx(policy.lease_ttl / 4)
        assert policy.effective_straggler_after == pytest.approx(
            4 * policy.lease_ttl
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lease_ttl": 0.0},
            {"lease_ttl": -1.0},
            {"chunk_size": 0},
            {"max_attempts": 0},
            {"heartbeat_interval": -0.1},
        ],
    )
    def test_invalid_values_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ElasticPolicy(**kwargs)

    def test_explicit_intervals_win_over_defaults(self):
        policy = ElasticPolicy(heartbeat_interval=1.5, straggler_after=9.0)
        assert policy.effective_heartbeat == 1.5
        assert policy.effective_straggler_after == 9.0


class TestChunks:
    def test_chunks_partition_all_positions_contiguously(self):
        chunks = build_chunks(10, 4)
        assert [c.id for c in chunks] == ["chunk-0000", "chunk-0001", "chunk-0002"]
        assert [c.positions for c in chunks] == [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9),
        ]

    def test_empty_grid_has_no_chunks(self):
        assert build_chunks(0, 4) == []

    def test_invalid_chunk_size_is_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            build_chunks(10, 0)

    def test_whole_chunk_is_a_single_lease_unit(self):
        chunk = whole_chunk(3)
        assert chunk.id == "whole"
        assert chunk.positions == (0, 1, 2)

    def test_default_worker_id_is_filesystem_safe(self):
        worker = default_worker_id()
        assert worker
        assert "/" not in worker and " " not in worker


# --------------------------------------------------------------------------
# Lease board atomics.
# --------------------------------------------------------------------------


def _backdate(path: Path, seconds: float) -> None:
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestLeaseBoard:
    def test_claim_is_exclusive(self, tmp_path):
        board = LeaseBoard(tmp_path, lease_ttl=60.0)
        first = board.claim("chunk-0000", "alice")
        assert first is not None and first.owner == "alice"
        assert board.claim("chunk-0000", "bob") is None
        kind, lease = board.state("chunk-0000")
        assert kind == "held" and lease.owner == "alice"

    def test_expiry_is_judged_by_file_mtime(self, tmp_path):
        board = LeaseBoard(tmp_path, lease_ttl=5.0)
        board.claim("chunk-0000", "alice")
        assert board.state("chunk-0000")[0] == "held"
        _backdate(board.lease_path("chunk-0000"), 100.0)
        assert board.state("chunk-0000")[0] == "expired"

    def test_renew_bumps_the_mtime_back_to_fresh(self, tmp_path):
        board = LeaseBoard(tmp_path, lease_ttl=5.0)
        lease = board.claim("chunk-0000", "alice")
        _backdate(board.lease_path("chunk-0000"), 100.0)
        renewed = board.renew(lease)
        assert renewed.heartbeat_unix >= lease.heartbeat_unix
        assert board.state("chunk-0000")[0] == "held"

    def test_steal_increments_the_attempt(self, tmp_path):
        board = LeaseBoard(tmp_path, lease_ttl=5.0)
        dead = board.claim("chunk-0000", "dead")
        _backdate(board.lease_path("chunk-0000"), 100.0)
        stolen = board.steal("chunk-0000", "bob", dead)
        assert stolen is not None
        assert stolen.owner == "bob"
        assert stolen.attempt == dead.attempt + 1

    def test_steal_of_a_vanished_lease_loses_gracefully(self, tmp_path):
        board = LeaseBoard(tmp_path, lease_ttl=5.0)
        dead = board.claim("chunk-0000", "dead")
        board.lease_path("chunk-0000").unlink()
        assert board.steal("chunk-0000", "bob", dead) is None

    def test_complete_is_first_result_wins(self, tmp_path):
        board = LeaseBoard(tmp_path, lease_ttl=60.0)
        board.claim("chunk-0000", "alice")
        assert board.complete("chunk-0000", "alice") is True
        assert board.complete("chunk-0000", "bob") is False
        assert board.state("chunk-0000")[0] == "done"
        assert not board.lease_path("chunk-0000").exists()

    def test_corrupt_lease_is_detected_and_quarantined(self, tmp_path):
        board = LeaseBoard(tmp_path, lease_ttl=60.0)
        board.lease_path("chunk-0000").write_text('{"corrupt')
        assert board.state("chunk-0000")[0] == "corrupt"
        with pytest.raises(LeaseCorruptionError):
            board.read("chunk-0000")
        reclaimed = board.reclaim_corrupt("chunk-0000", "bob")
        assert reclaimed is not None and reclaimed.attempt == 1
        quarantined = [
            p for p in board.directory.iterdir() if ".quarantined" in p.name
        ]
        assert len(quarantined) == 1

    def test_lease_round_trips_and_rejects_bad_documents(self):
        lease = Lease(
            owner="a", chunk="c", attempt=2, created_unix=1.0, heartbeat_unix=2.0
        )
        assert Lease.from_dict(lease.to_dict()) == lease
        with pytest.raises(LeaseCorruptionError):
            Lease.from_dict({"owner": "a"})
        with pytest.raises(LeaseCorruptionError):
            Lease.from_dict("not a dict")


# --------------------------------------------------------------------------
# Scheduler: drain, steal, budget, stragglers.
# --------------------------------------------------------------------------


def _policy(**overrides) -> ElasticPolicy:
    base = dict(lease_ttl=60.0, poll_interval=0.01, chunk_size=2)
    base.update(overrides)
    return ElasticPolicy(**base)


class TestElasticScheduler:
    def test_single_worker_drains_every_chunk(self, tmp_path):
        stats = ExecutionStats()
        scheduler = ElasticScheduler(
            tmp_path, "scn", policy=_policy(), owner="solo", stats=stats
        )
        chunks = build_chunks(5, 2)
        ran: list = []
        kinds = scheduler.drain(chunks, lambda chunk: ran.append(chunk.id))
        assert all(kind == "done" for kind in kinds.values())
        assert sorted(ran) == [c.id for c in chunks]
        assert stats.leases_claimed == len(chunks)
        assert stats.leases_stolen == 0
        assert scheduler.categorize(chunks, kinds) == ((), ())

    def test_second_drain_is_a_noop_over_done_markers(self, tmp_path):
        first = ElasticScheduler(tmp_path, "scn", policy=_policy(), owner="a")
        chunks = build_chunks(4, 2)
        first.drain(chunks, lambda chunk: None)
        stats = ExecutionStats()
        second = ElasticScheduler(
            tmp_path, "scn", policy=_policy(), owner="b", stats=stats
        )
        ran: list = []
        kinds = second.drain(chunks, lambda chunk: ran.append(chunk.id))
        assert all(kind == "done" for kind in kinds.values())
        assert ran == []
        assert stats.leases_claimed == 0

    def test_dead_peer_lease_is_stolen_and_completed(self, tmp_path):
        stats = ExecutionStats()
        scheduler = ElasticScheduler(
            tmp_path, "scn", policy=_policy(lease_ttl=1.0), owner="bob", stats=stats
        )
        chunks = build_chunks(2, 2)
        dead = scheduler.board.claim("chunk-0000", "dead-peer")
        assert dead is not None
        _backdate(scheduler.board.lease_path("chunk-0000"), 50.0)
        kinds = scheduler.drain(chunks, lambda chunk: None)
        assert kinds["chunk-0000"] == "done"
        assert stats.leases_stolen == 1
        assert stats.leases_expired == 1

    def test_over_budget_chunk_is_reported_lost(self, tmp_path):
        stats = ExecutionStats()
        scheduler = ElasticScheduler(
            tmp_path,
            "scn",
            policy=_policy(lease_ttl=1.0, max_attempts=2),
            owner="bob",
            stats=stats,
        )
        chunks = build_chunks(3, 2)
        burned = Lease(
            owner="dead",
            chunk="chunk-0000",
            attempt=5,
            created_unix=time.time() - 50.0,
            heartbeat_unix=time.time() - 50.0,
        )
        _atomic_write_json(
            scheduler.board.lease_path("chunk-0000"), burned.to_dict()
        )
        _backdate(scheduler.board.lease_path("chunk-0000"), 50.0)
        kinds = scheduler.drain(chunks, lambda chunk: None)
        assert kinds["chunk-0000"] == "expired"
        assert kinds["chunk-0001"] == "done"
        unclaimed, lost = scheduler.categorize(chunks, kinds)
        assert unclaimed == ()
        assert lost == (0, 1)

    def test_straggling_live_peer_is_duplicated_first_result_wins(self, tmp_path):
        stats = ExecutionStats()
        scheduler = ElasticScheduler(
            tmp_path,
            "scn",
            policy=_policy(lease_ttl=300.0, straggler_after=1.0),
            owner="bob",
            stats=stats,
        )
        chunks = build_chunks(2, 2)
        # A live (fresh mtime) peer that has held its lease far too long.
        slow = Lease(
            owner="slowpoke",
            chunk="chunk-0000",
            attempt=0,
            created_unix=time.time() - 100.0,
            heartbeat_unix=time.time(),
        )
        _atomic_write_json(scheduler.board.lease_path("chunk-0000"), slow.to_dict())
        ran: list = []
        kinds = scheduler.drain(chunks, lambda chunk: ran.append(chunk.id))
        assert kinds["chunk-0000"] == "done"
        assert "chunk-0000" in ran
        assert stats.duplicate_wins == 1
        assert stats.leases_stolen == 0  # duplication, not theft

    def test_corrupt_lease_is_reclaimed_during_drain(self, tmp_path):
        stats = ExecutionStats()
        scheduler = ElasticScheduler(
            tmp_path, "scn", policy=_policy(), owner="bob", stats=stats
        )
        chunks = build_chunks(2, 2)
        scheduler.board.lease_path("chunk-0000").write_text("garbage!")
        kinds = scheduler.drain(chunks, lambda chunk: None)
        assert all(kind == "done" for kind in kinds.values())
        assert stats.leases_claimed == len(chunks)

    def test_heartbeat_renews_the_held_lease_mtime(self, tmp_path):
        policy = _policy(lease_ttl=5.0, heartbeat_interval=0.001)
        scheduler = ElasticScheduler(tmp_path, "scn", policy=policy, owner="bob")
        lease = scheduler.board.claim("chunk-0000", scheduler.owner)
        scheduler._current = lease
        _backdate(scheduler.board.lease_path("chunk-0000"), 100.0)
        scheduler.heartbeat(force=True)
        assert scheduler.board.state("chunk-0000")[0] == "held"

    def test_peer_accounting_counts_joins_and_losses(self, tmp_path):
        policy = _policy(lease_ttl=1.0)
        stats = ExecutionStats()
        scheduler = ElasticScheduler(
            tmp_path, "scn", policy=policy, owner="me", stats=stats
        )
        peer_file = tmp_path / "workers" / "peer.json"
        _atomic_write_json(peer_file, {"owner": "peer", "heartbeat_unix": 0.0})
        scheduler._account_peers()
        assert stats.peers_joined == 1  # itself is never counted
        assert stats.peers_lost == 0
        _backdate(peer_file, 50.0)
        scheduler._account_peers()
        assert stats.peers_lost == 1

    def test_startup_sweep_removes_only_ancient_leases(self, tmp_path):
        board = LeaseBoard(tmp_path / "leases" / "scn", lease_ttl=60.0)
        board.claim("chunk-0000", "old")
        board.claim("chunk-0001", "recent")
        _backdate(board.lease_path("chunk-0000"), 10_000.0)
        scheduler = ElasticScheduler(
            tmp_path, "scn", policy=_policy(startup_sweep_age=600.0), owner="me"
        )
        assert scheduler.swept_at_startup == 1
        assert not board.lease_path("chunk-0000").exists()
        assert board.lease_path("chunk-0001").exists()

    def test_claim_whole_outcomes(self, tmp_path):
        chunk = whole_chunk()
        a = ElasticScheduler(tmp_path, "scn", policy=_policy(), owner="a")
        outcome, lease = a.claim_whole(chunk)
        assert outcome == "claimed" and lease.owner == "a"
        b = ElasticScheduler(tmp_path, "scn", policy=_policy(), owner="b")
        assert b.claim_whole(chunk)[0] == "busy"
        a.board.complete(chunk.id, "a")
        assert b.claim_whole(chunk)[0] == "done"

    def test_claim_whole_steals_expired_and_reports_lost(self, tmp_path):
        chunk = whole_chunk()
        policy = _policy(lease_ttl=1.0, max_attempts=2)
        a = ElasticScheduler(tmp_path, "scn", policy=policy, owner="a")
        a.board.claim(chunk.id, "dead")
        _backdate(a.board.lease_path(chunk.id), 50.0)
        outcome, lease = a.claim_whole(chunk)
        assert outcome == "claimed" and lease.attempt == 1
        _backdate(a.board.lease_path(chunk.id), 50.0)
        b = ElasticScheduler(tmp_path, "scn", policy=policy, owner="b")
        assert b.claim_whole(chunk)[0] == "lost"

    def test_elastic_events_are_separate_from_resilience_events(self):
        stats = ExecutionStats()
        stats.leases_claimed = 3
        stats.retries = 2
        assert stats.elastic_events() == {
            "leases_claimed": 3,
            "leases_stolen": 0,
            "leases_expired": 0,
            "duplicate_wins": 0,
            "peers_joined": 0,
            "peers_lost": 0,
        }
        assert "leases_claimed" not in stats.resilience_events()

    def test_chaos_lease_corruption_is_survived(self, tmp_path):
        plan = FaultPlan(
            seed=0,
            faults=(Fault(action="corrupt_lease", match="chunk-0000"),),
        )
        board = LeaseBoard(tmp_path / "leases" / "scn", lease_ttl=60.0)
        board.claim("chunk-0000", "previous-life")
        stats = ExecutionStats()
        scheduler = ElasticScheduler(
            tmp_path, "scn", policy=_policy(), owner="me", stats=stats, chaos=plan
        )
        chunks = build_chunks(2, 2)
        kinds = scheduler.drain(chunks, lambda chunk: None)
        assert all(kind == "done" for kind in kinds.values())


# --------------------------------------------------------------------------
# Stale-artifact hygiene.
# --------------------------------------------------------------------------


class TestSweeps:
    def test_sweep_expired_leases_is_age_bounded(self, tmp_path):
        board = LeaseBoard(tmp_path / "leases" / "scn", lease_ttl=60.0)
        board.claim("chunk-0000", "old")
        board.claim("chunk-0001", "new")
        _backdate(board.lease_path("chunk-0000"), 1000.0)
        assert sweep_expired_leases(tmp_path / "leases", older_than=600.0) == 1
        assert sweep_expired_leases(tmp_path / "missing", older_than=600.0) == 0

    def test_find_stale_artifacts_names_reasons(self, tmp_path):
        board = LeaseBoard(tmp_path / "leases" / "scn", lease_ttl=60.0)
        board.claim("chunk-0000", "dead")
        _backdate(board.lease_path("chunk-0000"), 100.0)
        (tmp_path / "workers").mkdir()
        stale_worker = tmp_path / "workers" / "w9.json"
        stale_worker.write_text("{}")
        _backdate(stale_worker, 100.0)
        quarantined = tmp_path / "cache.json.quarantined-1"
        quarantined.write_text("junk")
        reasons = dict(find_stale_artifacts(tmp_path, lease_ttl=10.0))
        assert "expired lease" in reasons[board.lease_path("chunk-0000")]
        assert "stale worker heartbeat" in reasons[stale_worker]
        assert "quarantined" in reasons[quarantined]
        # Fresh files are never flagged.
        fresh = LeaseBoard(tmp_path / "leases" / "scn", lease_ttl=60.0)
        fresh.claim("chunk-0001", "alive")
        flagged = [p for p, _ in find_stale_artifacts(tmp_path, lease_ttl=10.0)]
        assert fresh.lease_path("chunk-0001") not in flagged

    def test_sweep_stale_artifacts_dry_run_then_apply(self, tmp_path, capsys):
        stale = tmp_path / "x.lease"
        stale.write_text("{}")
        _backdate(stale, 100.0)
        entries = sweep_stale_artifacts(tmp_path, lease_ttl=10.0, apply=False)
        assert len(entries) == 1
        assert stale.exists(), "dry run must not delete"
        out = capsys.readouterr().out
        assert "would remove" in out
        sweep_stale_artifacts(tmp_path, lease_ttl=10.0, apply=True)
        assert not stale.exists()


# --------------------------------------------------------------------------
# Sibling-cache preload retry (satellite: transient read failures).
# --------------------------------------------------------------------------


def _result(label: str) -> ExperimentResult:
    return ExperimentResult(
        attack_label=label, accuracy=0.5, baseline_accuracy=0.8
    )


class TestPreloadRetry:
    def _sibling_with_entry(self, tmp_path) -> Path:
        sibling = PersistentResultCache(tmp_path / "cache.elastic-a.json")
        sibling.put("key-1", _result("x"))
        return sibling.path

    def test_transient_first_read_failure_is_retried_once(
        self, tmp_path, monkeypatch
    ):
        sibling_path = self._sibling_with_entry(tmp_path)
        cache = PersistentResultCache(tmp_path / "cache.elastic-b.json")
        original = PersistentResultCache._read_entries
        calls = {"n": 0}

        def flaky(path):
            calls["n"] += 1
            if calls["n"] == 1:
                raise CacheCorruptionError("torn read (peer mid-flush)")
            return original(path)

        monkeypatch.setattr(
            PersistentResultCache, "_read_entries", staticmethod(flaky)
        )
        monkeypatch.setattr(PersistentResultCache, "PRELOAD_RETRY_DELAY", 0.0)
        assert cache.preload(sibling_path) == 1
        assert calls["n"] == 2
        assert cache.quarantined_entries == 0

    def test_two_consecutive_failures_still_raise(self, tmp_path, monkeypatch):
        sibling_path = self._sibling_with_entry(tmp_path)
        cache = PersistentResultCache(tmp_path / "cache.elastic-b.json")

        def broken(path):
            raise CacheCorruptionError("really corrupt")

        monkeypatch.setattr(
            PersistentResultCache, "_read_entries", staticmethod(broken)
        )
        monkeypatch.setattr(PersistentResultCache, "PRELOAD_RETRY_DELAY", 0.0)
        with pytest.raises(CacheCorruptionError):
            cache.preload(sibling_path)

    def test_concurrent_flush_and_preload_never_corrupt(self, tmp_path):
        """Race regression: atomic flushes are always preloadable."""
        writer = PersistentResultCache(tmp_path / "cache.elastic-w.json")
        reader = PersistentResultCache(tmp_path / "cache.elastic-r.json")
        errors: list = []

        def keep_flushing():
            try:
                for i in range(100):
                    writer.put(f"key-{i}", _result(f"attack-{i}"))
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        thread = threading.Thread(target=keep_flushing)
        thread.start()
        try:
            for _ in range(30):
                reader.preload(writer.path)
        finally:
            thread.join()
        assert errors == []
        reader.preload(writer.path)  # final preload after the writer stopped
        assert len(reader._results) == 100


class TestOpenWorkerCache:
    def test_worker_caches_are_distinct_and_cross_preloaded(self, tmp_path):
        a = open_worker_cache(tmp_path, "w0")
        a.put("shared-key", _result("x"))
        b = open_worker_cache(tmp_path, "w1")
        assert a.path != b.path
        assert b.peek("shared-key") is not None

    def test_worker_id_is_sanitised_for_the_filesystem(self, tmp_path):
        cache = open_worker_cache(tmp_path, "host/1:weird id")
        assert cache.path.parent == tmp_path
        assert "/" not in cache.path.name and ":" not in cache.path.name
        assert " " not in cache.path.name


# --------------------------------------------------------------------------
# owns_name balance (satellite: chi-square over the library scenarios).
# --------------------------------------------------------------------------


class TestOwnsNameBalance:
    #: 95 % critical values of chi-square with df = n - 1.
    CRITICAL = {2: 3.84, 3: 5.99, 4: 7.81, 8: 14.07}

    def test_library_scenarios_spread_acceptably_across_shards(self):
        names = scenario_names()
        assert len(names) >= 10
        for count, critical in self.CRITICAL.items():
            shards = [ShardSpec(index=i, count=count) for i in range(count)]
            observed = [
                sum(1 for name in names if shard.owns_name(name))
                for shard in shards
            ]
            assert sum(observed) == len(names)  # partition, no overlap
            expected = len(names) / count
            chi2 = sum((o - expected) ** 2 / expected for o in observed)
            assert chi2 <= critical, (
                f"owns_name is imbalanced over {count} shards: "
                f"counts {observed}, chi2 {chi2:.2f} > {critical}"
            )

    def test_owns_name_matches_crc32_contract(self):
        spec = ShardSpec(index=1, count=3)
        for name in scenario_names():
            expected = zlib.crc32(name.encode("utf-8")) % 3 == 1
            assert spec.owns_name(name) == expected


# --------------------------------------------------------------------------
# Elastic merge-report rendering.
# --------------------------------------------------------------------------


class TestElasticMergeReport:
    def test_elastic_categories_render_instead_of_shard_owners(self):
        report = MergeReport(
            total=8,
            count=1,
            missing_positions=(2, 5, 6),
            unclaimed_positions=(2,),
            lost_positions=(5, 6),
        )
        text = report.describe()
        assert "3 of 8 variant(s) unresolved" in text
        assert "1 never claimed" in text
        assert "2 leased but lost" in text
        assert "shard" not in text
        assert report.unclaimed == 1 and report.lost == 2

    def test_legacy_rendering_is_unchanged_without_categories(self):
        report = MergeReport(total=4, count=2, missing_positions=(1, 3))
        assert "owned by shard(s) 1/2" in report.describe()

    def test_recovered_faults_cell_folds_elastic_counters(self):
        from repro.core.reporting import format_recovered_faults

        stolen = {
            "resilience": {"retries": 0},
            "elastic": {
                "worker": "w0",
                "leases_claimed": 2,
                "leases_expired": 1,
                "leases_stolen": 1,
                "peers_joined": 3,
                "duplicate_wins": 0,
            },
        }
        cell = format_recovered_faults(stolen)
        assert "leases_stolen=1" in cell and "leases_expired=1" in cell
        # Healthy-run markers never surface as recovered faults: worker is
        # an id string, peers_joined/leases_claimed fire on clean drains.
        assert "worker" not in cell
        assert "peers_joined" not in cell and "leases_claimed" not in cell
        clean = {"elastic": {"worker": "w0", "leases_claimed": 4}}
        assert format_recovered_faults(clean) == "-"
        assert format_recovered_faults({}) == "-"


# --------------------------------------------------------------------------
# Elastic ScenarioRunner (stub pipeline, in-process workers).
# --------------------------------------------------------------------------


@dataclass
class _StubPipeline:
    """Deterministic instant pipeline satisfying the executor protocol."""

    config: ExperimentConfig = field(default_factory=ExperimentConfig.tiny)
    baseline: float = 0.8

    def run_baseline(self) -> ExperimentResult:
        return ExperimentResult(
            attack_label="baseline",
            accuracy=self.baseline,
            baseline_accuracy=self.baseline,
        )

    def run(self, attack) -> ExperimentResult:
        change = float(getattr(attack, "threshold_change", 0.0))
        degradation = 0.9 / (1.0 + np.exp(-(change - 0.1) * 300.0))
        return ExperimentResult(
            attack_label=attack.label(),
            accuracy=self.baseline * (1.0 - degradation),
            baseline_accuracy=self.baseline,
        )


@dataclass(frozen=True)
class _stub_factory:
    config: ExperimentConfig
    engine: str = "auto"

    def __call__(self) -> _StubPipeline:
        return _StubPipeline(config=self.config)


def _grid_spec(name: str = "elastic-grid") -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        family="both_thresholds",
        grid={
            "threshold_change": tuple(
                round(v, 3) for v in np.linspace(0.01, 0.2, 6)
            )
        },
        scale="tiny",
    )


def _bisect_spec(name: str = "elastic-bisect") -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        family="both_thresholds",
        grid={"threshold_change": (0.02, 0.05, 0.1, 0.15, 0.2)},
        strategy="bisect",
        scale="tiny",
    )


class TestElasticRunner:
    def test_requires_a_workdir(self):
        with pytest.raises(ValueError, match="workdir"):
            ScenarioRunner(pipeline_factory=_stub_factory, elastic=ElasticPolicy())

    def test_is_mutually_exclusive_with_static_sharding(self, tmp_path):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ScenarioRunner(
                pipeline_factory=_stub_factory,
                elastic=ElasticPolicy(),
                workdir=tmp_path,
                shard=ShardSpec(index=0, count=2),
            )

    def test_elastic_grid_matches_a_plain_run(self, tmp_path):
        policy = _policy(chunk_size=2)
        elastic = ScenarioRunner(
            pipeline_factory=_stub_factory,
            elastic=policy,
            workdir=tmp_path,
            worker_id="wa",
        ).run(_grid_spec())
        plain = ScenarioRunner(pipeline_factory=_stub_factory).run(_grid_spec())
        assert elastic.complete
        assert np.array_equal(
            elastic.arrays["accuracies"], plain.arrays["accuracies"]
        )
        assert elastic.metrics == plain.metrics
        assert elastic.worker == "wa"
        assert elastic.leases_claimed == 3  # 6 variants / chunk_size 2
        assert elastic.leases_stolen == 0

    def test_second_worker_assembles_from_done_markers(self, tmp_path):
        cache = ResultCache()
        spec = _grid_spec()
        first = ScenarioRunner(
            pipeline_factory=_stub_factory,
            cache=cache,
            elastic=_policy(),
            workdir=tmp_path,
            worker_id="wa",
        ).run(spec)
        assert first.complete and first.executor_tasks > 0
        second = ScenarioRunner(
            pipeline_factory=_stub_factory,
            cache=cache,
            elastic=_policy(),
            workdir=tmp_path,
            worker_id="wb",
        ).run(spec)
        assert second.complete
        assert second.executor_tasks == 0, "all chunks were already done"
        assert second.leases_claimed == 0
        assert second.metrics == first.metrics

    def test_elastic_bisect_claims_and_completes(self, tmp_path):
        cache = ResultCache()
        spec = _bisect_spec()
        first = ScenarioRunner(
            pipeline_factory=_stub_factory,
            cache=cache,
            elastic=_policy(),
            workdir=tmp_path,
            worker_id="wa",
        ).run(spec)
        assert first.complete
        board = LeaseBoard(
            tmp_path / "leases" / spec.name, lease_ttl=60.0
        )
        assert board.done_path("whole").exists()
        # A second worker re-assembles from pure cache hits.
        second = ScenarioRunner(
            pipeline_factory=_stub_factory,
            cache=cache,
            elastic=_policy(),
            workdir=tmp_path,
            worker_id="wb",
        ).run(spec)
        assert second.complete
        assert second.executor_tasks == 0
        assert second.metrics == first.metrics

    def test_elastic_bisect_held_by_live_peer_is_skipped(self, tmp_path):
        spec = _bisect_spec()
        board = LeaseBoard(tmp_path / "leases" / spec.name, lease_ttl=300.0)
        board.claim("whole", "live-peer")
        result = ScenarioRunner(
            pipeline_factory=_stub_factory,
            elastic=_policy(lease_ttl=300.0),
            workdir=tmp_path,
            worker_id="wb",
        ).run(spec)
        assert result.sharded_out
        assert not result.complete

    def test_elastic_bisect_over_budget_is_lost(self, tmp_path):
        spec = _bisect_spec()
        board = LeaseBoard(tmp_path / "leases" / spec.name, lease_ttl=1.0)
        burned = Lease(
            owner="dead",
            chunk="whole",
            attempt=9,
            created_unix=time.time() - 50.0,
            heartbeat_unix=time.time() - 50.0,
        )
        _atomic_write_json(board.lease_path("whole"), burned.to_dict())
        _backdate(board.lease_path("whole"), 50.0)
        result = ScenarioRunner(
            pipeline_factory=_stub_factory,
            elastic=_policy(lease_ttl=1.0, max_attempts=2),
            workdir=tmp_path,
            worker_id="wb",
        ).run(spec)
        assert not result.complete
        assert result.lost_positions == [0]


# --------------------------------------------------------------------------
# CLI: kill a cooperating worker, survivors stay bit-identical.
# --------------------------------------------------------------------------


SCENARIO = "separate_domain_droop"  # 2 variants at any scale


def _digests(path: Path) -> dict:
    with open(path) as handle:
        document = json.load(handle)
    return {name: entry["sha256"] for name, entry in document["arrays"].items()}


def _elastic_argv(out: Path, worker: str, *extra: str) -> list:
    return [
        sys.executable,
        "-m",
        "repro",
        "scenarios",
        "run",
        SCENARIO,
        "--scale",
        "tiny",
        "--out",
        str(out),
        "--elastic",
        "--worker-id",
        worker,
        "--lease-ttl",
        "3",
        "--chunk-size",
        "1",
        "--quiet",
        *extra,
    ]


def _subprocess_env() -> dict:
    env = os.environ.copy()
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestElasticCLIKillContract:
    @pytest.fixture(scope="class")
    def reference_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("reference")
        rc = main(
            [
                "scenarios",
                "run",
                SCENARIO,
                "--scale",
                "tiny",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert rc == 0
        return out

    def test_killed_worker_leaves_a_stale_lease_survivors_recover(
        self, reference_dir, tmp_path
    ):
        out = tmp_path / "elastic"
        out.mkdir()
        plan = tmp_path / "kill-w1.json"
        plan.write_text(
            json.dumps(
                {
                    "seed": 0,
                    "faults": [
                        {
                            "action": "kill_process",
                            "match": "w1:",
                            "probability": 1.0,
                        }
                    ],
                }
            )
        )
        env = _subprocess_env()
        # The doomed worker claims its first chunk, then SIGKILLs itself —
        # exactly the stale-lease footprint of a real crash.
        doomed = subprocess.run(
            _elastic_argv(out, "w1", "--chaos", str(plan)),
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert doomed.returncode in (-9, 137), doomed.stderr.decode()
        leases = out / "leases" / SCENARIO
        assert list(leases.glob("*.lease")), "the crash must leave its lease"
        # A surviving worker steals the expired lease and finishes the
        # campaign — the merged artifact is bit-identical to a clean run.
        survivor = subprocess.run(
            _elastic_argv(out, "w0"),
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert survivor.returncode == 0, survivor.stdout.decode()
        merged = out / f"scenario-{SCENARIO}.json"
        assert merged.exists()
        assert _digests(merged) == _digests(
            reference_dir / f"scenario-{SCENARIO}.json"
        ), "the recovered campaign must be bit-identical to a clean run"
        with open(merged) as handle:
            provenance = json.load(handle)["provenance"]
        elastic = provenance["elastic"]
        assert elastic["leases_stolen"] >= 1, "w0 must have stolen w1's lease"
        assert elastic["worker"] == "w0"
        # A worker joining after the drain finished re-assembles the same
        # artifact from the done markers and shared caches, running nothing.
        late = subprocess.run(
            _elastic_argv(out, "w2"),
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert late.returncode == 0, late.stdout.decode()
        assert b"0 pipeline runs" in late.stdout
        assert _digests(merged) == _digests(
            reference_dir / f"scenario-{SCENARIO}.json"
        )

    def test_elastic_and_shard_flags_conflict(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "scenarios",
                    "run",
                    SCENARIO,
                    "--elastic",
                    "--shard",
                    "0/2",
                    "--out",
                    str(tmp_path),
                ]
            )


class TestScenariosCleanCLI:
    def test_dry_run_lists_and_apply_deletes(self, tmp_path, capsys):
        stale = tmp_path / "chunk-0000.lease"
        stale.write_text("{}")
        _backdate(stale, 1000.0)
        rc = main(["scenarios", "clean", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "would remove" in out and "re-run with --apply" in out
        assert stale.exists()
        rc = main(["scenarios", "clean", str(tmp_path), "--apply"])
        assert rc == 0
        assert "removed" in capsys.readouterr().out
        assert not stale.exists()

    def test_clean_of_a_tidy_directory_reports_nothing(self, tmp_path, capsys):
        rc = main(["scenarios", "clean", str(tmp_path)])
        assert rc == 0
        assert "nothing stale" in capsys.readouterr().out

    def test_clean_of_a_missing_directory_fails(self, tmp_path, capsys):
        rc = main(["scenarios", "clean", str(tmp_path / "absent")])
        assert rc == 1
