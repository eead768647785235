"""Coordinator-free work-stealing execution over a shared filesystem.

A static shard (:mod:`repro.exec.shard`) is one pre-assigned chunk, so a
dead or slow shard stalls the merge until a human re-runs it.  This module
assigns chunks dynamically instead: N independently-launched ``repro``
processes (different hosts sharing a filesystem, or CI matrix jobs)
cooperatively drain one campaign, joining and leaving at any time, and
the merged artifact stays bit-identical to a single-process run.  Each
claimed chunk runs through the same ``executor.map`` as a static shard's.

There is **no coordinator**.  The only shared state is the campaign
workdir:

* **Result substrate** — each worker persists results to its own
  content-keyed cache file (``cache.elastic-<worker>.json``, see
  :func:`repro.store.open_worker_cache`) and preloads every sibling cache.
  The merge is a cache union, exactly like static sharding.
* **Lease files** — workers claim contiguous *chunks* of the variant list
  through atomic lease files under ``<workdir>/leases/<scenario>/``.  A
  lease carries the owner id, attempt count and heartbeat timestamp;
  claiming is an exclusive create (``os.link`` of a temp file, which fails
  if the lease exists), renewal is the shared atomic write
  (:func:`repro.utils.serialization.atomic_write_json`: per-process temp
  file + fsync + ``os.replace``).
* **Done markers** — a worker that finishes a chunk creates
  ``<chunk>.done`` exclusively.  First creation wins; a duplicate run of
  the same chunk that loses the race simply discards nothing (its results
  are bit-identical by the determinism contract).

**Correctness never depends on lease exclusivity.**  Every pipeline result
is a pure function of ``(config seed, attack label)`` and the caches are
content-keyed, so two workers computing the same chunk produce the same
bits and the union is unaffected.  Leases only prevent *wasted* work; any
race (two claims in the steal window, a revived worker finishing a chunk
that was stolen from it) costs time, never changes numbers.

Lease **expiry is judged by file mtime** on the shared filesystem, not by
wall-clock timestamps embedded in the lease, so workers on hosts with
skewed clocks agree on staleness as long as they see the same filesystem.
A worker that stops heartbeating (crash, SIGKILL, host death) stops
renewing its lease; once the lease's mtime age exceeds ``lease_ttl`` any
peer *steals* it — re-dispatch budgeted by ``max_attempts``, mirroring
:class:`~repro.exec.resilience.RetryPolicy`.  Live-but-slow owners are
handled by the executor's one straggler rule,
:meth:`~repro.exec.resilience.StragglerPolicy.deadline`, fed with the
durations of the chunks this worker has run: a chunk leased for longer
gets one duplicate evaluation with first-result-wins arbitration through
the done marker.

Adaptive (bisect) scenarios cannot split their probe sequence, so they are
whole-leased: a single ``whole`` chunk claimed by one worker at a time
(:func:`whole_chunk`), with the same expiry/steal recovery.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import socket
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.exec.chaos import FaultPlan
from repro.exec.executor import ExecutionStats
from repro.exec.resilience import PLAIN_POLICY, StragglerPolicy
from repro.exec.shard import Chunk
from repro.utils.serialization import atomic_write_json

#: Default lease time-to-live (seconds of missing heartbeats before peers
#: may steal); the CLI exposes it as ``--lease-ttl``.
DEFAULT_LEASE_TTL = 15.0

#: Default variants per chunk (the work-stealing granularity of grid
#: scenarios); the CLI exposes it as ``--chunk-size``.
DEFAULT_CHUNK_SIZE = 4

#: Leases older than this (seconds) are deleted when a scheduler starts —
#: campaign-scale hygiene only, far above any lease TTL so the attempt
#: accounting of live steals is never defeated.
STARTUP_SWEEP_AGE = 600.0

T = TypeVar("T")


class LeaseCorruptionError(ValueError):
    """A lease file exists but does not parse as a lease document."""


def _safe_name(name: str) -> str:
    """``name`` reduced to a filesystem-safe component (never empty)."""
    cleaned = re.sub(r"[^A-Za-z0-9._-]", "_", str(name))
    return cleaned or "unnamed"


def default_worker_id() -> str:
    """A worker id unique per process: ``<hostname>-<pid>``."""
    return _safe_name(f"{socket.gethostname()}-{os.getpid()}")


@dataclass(frozen=True)
class ElasticPolicy:
    """Tuning of one elastic worker (all workers should share one policy).

    Parameters
    ----------
    lease_ttl:
        Seconds a lease may go without renewal before peers treat its
        owner as dead and steal the chunk.  Judged by lease-file *mtime*
        age, so it is immune to clock skew between hosts.  Workers renew
        every quarter TTL (:attr:`heartbeat_interval`).
    chunk_size:
        Variants per lease for grid scenarios — the work-stealing
        granularity.  Smaller chunks steal finer but cost more lease
        traffic.
    max_attempts:
        Total dispatch budget per chunk (first claim plus steals),
        mirroring :class:`~repro.exec.resilience.RetryPolicy.max_retries`.
        A chunk whose expired lease already burned the budget is reported
        as *lost* instead of stolen again.
    poll_interval:
        Sleep between scheduler scans when nothing is claimable.
    """

    lease_ttl: float = DEFAULT_LEASE_TTL
    chunk_size: int = DEFAULT_CHUNK_SIZE
    max_attempts: int = 4
    poll_interval: float = 0.25

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lease_ttl) and self.lease_ttl > 0):
            raise ValueError(f"lease_ttl must be finite and > 0, got {self.lease_ttl}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not (math.isfinite(self.poll_interval) and self.poll_interval >= 0):
            raise ValueError(
                f"poll_interval must be finite and >= 0, got {self.poll_interval}"
            )

    @property
    def heartbeat_interval(self) -> float:
        """Seconds between lease renewals: a quarter of the TTL."""
        return self.lease_ttl / 4.0


@dataclass(frozen=True)
class Lease:
    """The content of one lease file (expiry is judged by file mtime)."""

    owner: str
    chunk: str
    attempt: int
    created_unix: float
    heartbeat_unix: float

    def to_dict(self) -> Dict:
        """JSON-ready dict form (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "Lease":
        """Build a lease from its :meth:`to_dict` form (strict)."""
        if not isinstance(payload, dict):
            raise LeaseCorruptionError("lease document is not a JSON object")
        try:
            return cls(
                owner=str(payload["owner"]),
                chunk=str(payload["chunk"]),
                attempt=int(payload["attempt"]),
                created_unix=float(payload["created_unix"]),
                heartbeat_unix=float(payload["heartbeat_unix"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise LeaseCorruptionError(f"invalid lease fields: {error}") from None


def build_chunks(total: int, chunk_size: int) -> List[Chunk]:
    """Split ``total`` variant positions into contiguous fixed-size chunks.

    Contiguous (unlike a static shard's interleaved chunk) because chunks
    are claimed dynamically: load balance comes from stealing, not from
    the assignment, and contiguous slices keep chunk ids stable under a
    growing variant list prefix.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        Chunk(
            id=f"chunk-{start // chunk_size:04d}",
            positions=tuple(range(start, min(start + chunk_size, total))),
        )
        for start in range(0, total, chunk_size)
    ]


def whole_chunk(total: int = 0) -> Chunk:
    """The single all-positions chunk used to whole-lease bisect scenarios."""
    return Chunk(id="whole", positions=tuple(range(total)))


def _create_exclusive(path: Path, payload: Dict) -> bool:
    """Atomically create ``path`` with ``payload`` iff it does not exist.

    Written as a temp file first, then ``os.link``-ed into place:
    ``os.link`` fails with :class:`FileExistsError` when the target
    exists, which is the atomic claim primitive (NFS-safe, unlike
    ``O_EXCL`` on some legacy servers).  Returns ``False`` when another
    process won the race.
    """
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    try:
        os.link(tmp, path)
        return True
    except FileExistsError:
        return False
    finally:
        tmp.unlink(missing_ok=True)


class LeaseBoard:
    """The lease files of one scenario's campaign, under one directory.

    All methods are safe to call concurrently from independent processes;
    every mutation is a single atomic filesystem operation (exclusive
    link, replace, or unlink), and every race resolves to at most one
    winner — with losers falling back to duplicate-but-harmless work.
    """

    def __init__(self, directory: Path | str, *, lease_ttl: float) -> None:
        self.directory = Path(directory)
        self.lease_ttl = float(lease_ttl)
        self.directory.mkdir(parents=True, exist_ok=True)

    def lease_path(self, chunk_id: str) -> Path:
        """Where ``chunk_id``'s lease file lives."""
        return self.directory / f"{_safe_name(chunk_id)}.lease"

    def done_path(self, chunk_id: str) -> Path:
        """Where ``chunk_id``'s first-result-wins done marker lives."""
        return self.directory / f"{_safe_name(chunk_id)}.done"

    # ------------------------------------------------------------------ state
    def read(self, chunk_id: str) -> Optional[Lease]:
        """The current lease of ``chunk_id`` (``None`` when unclaimed).

        Raises :class:`LeaseCorruptionError` when the file exists but does
        not parse — the scheduler quarantines it and reclaims the chunk.
        """
        path = self.lease_path(chunk_id)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as error:
            raise LeaseCorruptionError(f"cannot read lease: {error}") from None
        try:
            return Lease.from_dict(json.loads(text))
        except ValueError as error:
            raise LeaseCorruptionError(f"not a lease document: {error}") from None

    def state(self, chunk_id: str) -> Tuple[str, Optional[Lease]]:
        """One chunk's lifecycle state: what a scheduler scan sees.

        Returns ``(kind, lease)`` with kind one of ``"done"`` (marker
        exists), ``"open"`` (no lease), ``"held"`` (fresh lease),
        ``"expired"`` (lease mtime older than the TTL) or ``"corrupt"``
        (unparseable lease file).
        """
        if self.done_path(chunk_id).exists():
            return "done", None
        path = self.lease_path(chunk_id)
        try:
            mtime = path.stat().st_mtime
        except FileNotFoundError:
            return "open", None
        try:
            lease = self.read(chunk_id)
        except LeaseCorruptionError:
            return "corrupt", None
        if lease is None:
            return "open", None
        if time.time() - mtime > self.lease_ttl:
            return "expired", lease
        return "held", lease

    # ------------------------------------------------------------------ claims
    def claim(self, chunk_id: str, owner: str, *, attempt: int = 0) -> Optional[Lease]:
        """Claim an unleased chunk exclusively; ``None`` when a peer won."""
        now = time.time()
        lease = Lease(
            owner=owner,
            chunk=chunk_id,
            attempt=attempt,
            created_unix=now,
            heartbeat_unix=now,
        )
        if _create_exclusive(self.lease_path(chunk_id), lease.to_dict()):
            return lease
        return None

    def steal(self, chunk_id: str, owner: str, expired: Lease) -> Optional[Lease]:
        """Take over an expired lease: unlink it, then claim with attempt+1.

        Both losing outcomes are benign: a vanished file means another
        peer stole first, and a failed re-claim means the unlink raced a
        concurrent steal.  The worst interleaving (unlinking a lease that
        a peer just refreshed in the steal window) only duplicates work,
        which the determinism contract makes harmless.
        """
        try:
            os.unlink(self.lease_path(chunk_id))
        except FileNotFoundError:
            return None
        return self.claim(chunk_id, owner, attempt=expired.attempt + 1)

    def reclaim_corrupt(self, chunk_id: str, owner: str) -> Optional[Lease]:
        """Quarantine an unparseable lease file aside, then claim the chunk.

        The prior attempt count is unreadable, so the reclaim conservatively
        charges one attempt to the budget (``attempt=1``).
        """
        from repro.store import quarantine_path

        path = self.lease_path(chunk_id)
        try:
            os.replace(path, quarantine_path(path))
        except FileNotFoundError:
            pass
        return self.claim(chunk_id, owner, attempt=1)

    def renew(self, lease: Lease) -> Lease:
        """Refresh a held lease's heartbeat (and, crucially, its mtime)."""
        renewed = dataclasses.replace(lease, heartbeat_unix=time.time())
        atomic_write_json(self.lease_path(lease.chunk), renewed.to_dict())
        return renewed

    def complete(self, chunk_id: str, owner: str) -> bool:
        """Record a finished chunk; returns whether this worker's result won.

        Creates the done marker exclusively (first-result-wins among
        duplicates — a losing result is bit-identical anyway), then drops
        the lease file so scans stop tracking it.
        """
        won = _create_exclusive(
            self.done_path(chunk_id),
            {"owner": owner, "finished_unix": time.time()},
        )
        self.lease_path(chunk_id).unlink(missing_ok=True)
        return won


class ElasticScheduler:
    """One worker's view of a cooperative campaign drain.

    Each participating process builds its own scheduler over the shared
    ``workdir`` and calls :meth:`drain` with the same chunk list (derived
    deterministically from the scenario spec, so all workers agree on it
    without communicating).  The loop: claim the lowest unclaimed chunk,
    else steal the lowest expired one within budget, else duplicate a
    chunk a live peer holds past ``straggler``'s deadline, else wait —
    until every chunk is done or lost.  ``straggler`` is the sweep
    executor's :class:`~repro.exec.resilience.StragglerPolicy`, fed with
    the durations of the chunks this worker has run; the default (that of
    :data:`~repro.exec.resilience.PLAIN_POLICY`) never duplicates.

    Counters land in the supplied :class:`ExecutionStats` (``leases_*``,
    ``duplicate_wins``, ``peers_*``) and flow into provenance and
    ``repro report`` like the resilience counters do.
    """

    def __init__(
        self,
        workdir: Path | str,
        scenario: str,
        *,
        policy: Optional[ElasticPolicy] = None,
        owner: Optional[str] = None,
        stats: Optional[ExecutionStats] = None,
        chaos: Optional[FaultPlan] = None,
        straggler: Optional[StragglerPolicy] = None,
    ) -> None:
        self.workdir = Path(workdir)
        self.scenario = scenario
        self.policy = policy if policy is not None else ElasticPolicy()
        self.owner = _safe_name(owner) if owner else default_worker_id()
        self.stats = stats if stats is not None else ExecutionStats()
        self.chaos = chaos
        self.straggler = straggler if straggler is not None else PLAIN_POLICY.straggler
        self.board = LeaseBoard(
            self.workdir / "leases" / _safe_name(scenario),
            lease_ttl=self.policy.lease_ttl,
        )
        self._workers_dir = self.workdir / "workers"
        self._current: Optional[Lease] = None
        self._last_beat = 0.0
        self._peers_fresh: Dict[str, bool] = {}
        self._expired_seen: set = set()
        self._durations: List[float] = []
        #: Ancient leases removed by the startup hygiene sweep.
        self.swept_at_startup = sweep_expired_leases(
            self.workdir / "leases", older_than=STARTUP_SWEEP_AGE
        )
        if self.chaos is not None:
            # Lease-corruption faults model damage that happened while no
            # process was alive: applied once, before the first scan.
            self.chaos.apply_leases(self.board.directory)
        self.heartbeat(force=True)

    # -------------------------------------------------------------- heartbeat
    def heartbeat(self, *, force: bool = False) -> None:
        """Refresh this worker's presence file and renew its held lease.

        Rate-limited to the policy's heartbeat interval, so it is safe
        (and intended) to call from tight loops — the sweep executor calls
        it around every task via its ``heartbeat`` hook.  Filesystem
        hiccups are swallowed: a missed renewal only risks a benign
        duplicate evaluation, never a wrong result.
        """
        now = time.monotonic()
        if not force and now - self._last_beat < self.policy.heartbeat_interval:
            return
        self._last_beat = now
        try:
            self._workers_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_json(
                self._workers_dir / f"{self.owner}.json",
                {"owner": self.owner, "heartbeat_unix": time.time()},
            )
            if self._current is not None:
                self._current = self.board.renew(self._current)
        except OSError:  # pragma: no cover - shared-FS hiccup
            pass

    def _account_peers(self) -> None:
        """Update joined/lost counters from the worker-presence directory."""
        try:
            entries = list(self._workers_dir.glob("*.json"))
        except OSError:  # pragma: no cover - shared-FS hiccup
            return
        presence_ttl = 2.0 * self.policy.lease_ttl
        now = time.time()
        for path in entries:
            peer = path.stem
            if peer == self.owner:  # a worker is not its own peer
                continue
            try:
                fresh = now - path.stat().st_mtime <= presence_ttl
            except OSError:
                continue
            known = self._peers_fresh.get(peer)
            if known is None:
                self._peers_fresh[peer] = fresh
                if fresh:
                    self.stats.peers_joined += 1
            elif known and not fresh:
                self._peers_fresh[peer] = False
                self.stats.peers_lost += 1
            elif not known and fresh:
                self._peers_fresh[peer] = True
                self.stats.peers_joined += 1

    # ------------------------------------------------------------------ scans
    def scan(self, chunks: Sequence[Chunk]) -> Dict[str, Tuple[str, Optional[Lease]]]:
        """The lifecycle state of every chunk, in one pass."""
        states = {chunk.id: self.board.state(chunk.id) for chunk in chunks}
        for chunk_id, (kind, lease) in states.items():
            if kind == "expired" and lease is not None:
                token = (chunk_id, lease.attempt)
                if token not in self._expired_seen:
                    self._expired_seen.add(token)
                    self.stats.leases_expired += 1
        return states

    def _within_budget(self, lease: Lease) -> bool:
        return lease.attempt + 1 < self.policy.max_attempts

    def _claim_next(
        self, chunks: Sequence[Chunk], states: Dict[str, Tuple[str, Optional[Lease]]]
    ) -> Optional[Tuple[Chunk, Lease]]:
        """Claim the best available chunk: open first, then expired, then corrupt."""
        for chunk in chunks:
            kind, _ = states[chunk.id]
            if kind != "open":
                continue
            lease = self.board.claim(chunk.id, self.owner)
            if lease is not None:
                self.stats.leases_claimed += 1
                return chunk, lease
        for chunk in chunks:
            kind, expired = states[chunk.id]
            if kind == "expired" and expired is not None and self._within_budget(expired):
                lease = self.board.steal(chunk.id, self.owner, expired)
                if lease is not None:
                    self.stats.leases_claimed += 1
                    self.stats.leases_stolen += 1
                    return chunk, lease
            elif kind == "corrupt":
                lease = self.board.reclaim_corrupt(chunk.id, self.owner)
                if lease is not None:
                    self.stats.leases_claimed += 1
                    return chunk, lease
        return None

    def _straggler_target(
        self,
        chunks: Sequence[Chunk],
        states: Dict[str, Tuple[str, Optional[Lease]]],
        duplicated: set,
    ) -> Optional[Chunk]:
        """A peer's held chunk old enough to deserve one duplicate evaluation."""
        threshold = self.straggler.deadline(self._durations)
        if threshold is None:
            return None
        now = time.time()
        for chunk in chunks:
            kind, lease = states[chunk.id]
            if kind != "held" or lease is None or chunk.id in duplicated:
                continue
            if lease.owner == self.owner:
                continue
            if now - lease.created_unix > threshold:
                return chunk
        return None

    # ------------------------------------------------------------------ drain
    def _timed(self, chunk: Chunk, run_chunk: Callable[[Chunk], T]) -> T:
        """Run one chunk, recording its duration for the straggler rule."""
        start = time.monotonic()
        value = run_chunk(chunk)
        self._durations.append(time.monotonic() - start)
        return value

    def run_claimed(
        self, chunk: Chunk, lease: Lease, run_chunk: Callable[[Chunk], T]
    ) -> T:
        """Run one claimed chunk and mark it done; returns ``run_chunk``'s value.

        The lease is renewed by heartbeat calls while it runs.  Chaos
        process faults fire *after* the claim, so an injected SIGKILL
        leaves exactly the stale lease a real crash would.  On a task
        failure the lease is left to expire (peers steal it with the
        attempt budget intact) and the error propagates — completed
        sibling chunks stay merged.
        """
        self._current = lease
        try:
            if self.chaos is not None:
                self.chaos.apply_elastic(f"{self.owner}:{chunk.id}", lease.attempt)
            value = self._timed(chunk, run_chunk)
        finally:
            self._current = None
        self.board.complete(chunk.id, self.owner)
        return value

    def _run_duplicate(self, chunk: Chunk, run_chunk: Callable[[Chunk], None]) -> None:
        """Duplicate a straggling chunk without holding its lease."""
        self._timed(chunk, run_chunk)
        if self.board.complete(chunk.id, self.owner):
            self.stats.duplicate_wins += 1

    def drain(
        self, chunks: Sequence[Chunk], run_chunk: Callable[[Chunk], None]
    ) -> Dict[str, str]:
        """Cooperatively drain ``chunks``, returning the final state map.

        ``run_chunk`` evaluates one chunk's variants (typically an
        ``executor.map`` call whose results land in this worker's
        persistent cache).  Returns ``{chunk_id: kind}`` where every kind
        is ``"done"`` on success; an ``"expired"`` survivor is a chunk lost
        past its dispatch budget (rendered by the merge report).

        Termination: a live owner finishes its chunk (or, past the
        straggler deadline, is duplicated), a dead owner's lease expires
        and is stolen, and the steal budget bounds re-dispatch — so the
        loop always ends with chunks done or lost.
        """
        duplicated: set = set()
        while True:
            self.heartbeat()
            self._account_peers()
            states = self.scan(chunks)
            kinds = {chunk_id: kind for chunk_id, (kind, _) in states.items()}
            if all(kind == "done" for kind in kinds.values()):
                break
            claimed = self._claim_next(chunks, states)
            if claimed is not None:
                self.run_claimed(claimed[0], claimed[1], run_chunk)
                continue
            held = [c for c in chunks if kinds[c.id] == "held"]
            if held:
                target = self._straggler_target(chunks, states, duplicated)
                if target is not None:
                    duplicated.add(target.id)
                    self._run_duplicate(target, run_chunk)
                    continue
                time.sleep(self.policy.poll_interval)
                continue
            recoverable = any(
                kind == "open"
                or (kind == "expired" and lease is not None and self._within_budget(lease))
                or kind == "corrupt"
                for kind, lease in states.values()
            )
            if not recoverable:
                # Everything not done is past its dispatch budget: lost.
                break
            time.sleep(self.policy.poll_interval)
        return {chunk_id: kind for chunk_id, (kind, _) in self.scan(chunks).items()}

    def claim_whole(self, chunk: Chunk) -> Tuple[str, Optional[Lease]]:
        """Claim (or steal) a whole-leased chunk, without waiting.

        The bisect path: adaptive scenarios are one indivisible chunk, so
        a worker either owns the whole search or skips the scenario.
        Returns ``(outcome, lease)`` with outcome ``"claimed"`` (run it),
        ``"done"`` (assemble from caches), ``"busy"`` (a live peer owns
        it) or ``"lost"`` (expired past the dispatch budget).
        """
        kind, lease = self.board.state(chunk.id)
        if kind == "done":
            return "done", None
        if kind == "expired" and lease is not None and not self._within_budget(lease):
            return "lost", lease
        claimed = self._claim_next([chunk], {chunk.id: (kind, lease)})
        if claimed is None:
            return "busy", lease
        return "claimed", claimed[1]


# --------------------------------------------------------------------------
# Stale-artifact hygiene (``repro scenarios clean`` + startup sweep).
# --------------------------------------------------------------------------


def sweep_expired_leases(lease_root: Path | str, *, older_than: float) -> int:
    """Delete lease files older than ``older_than`` seconds; returns the count.

    The scheduler runs this at startup with a *large* age bound
    (:data:`STARTUP_SWEEP_AGE`): it clears leases from long-dead campaigns
    without interfering with live expiry/steal accounting, which operates
    at ``lease_ttl`` granularity.
    """
    root = Path(lease_root)
    if not root.is_dir():
        return 0
    removed = 0
    now = time.time()
    for path in root.rglob("*.lease"):
        try:
            if now - path.stat().st_mtime > older_than:
                path.unlink()
                removed += 1
        except OSError:
            continue
    return removed


def find_stale_artifacts(
    workdir: Path | str, *, lease_ttl: float = DEFAULT_LEASE_TTL
) -> List[Tuple[Path, str]]:
    """Stale files under a campaign workdir, each with a removal reason.

    Covers the byproducts that accumulate across campaigns: quarantined
    corrupt cache/lease files, expired ``.lease`` files, stale
    worker-presence heartbeats, and done markers and orphaned atomic-write
    temp files older than an age floor (an hour for done markers, a minute
    for temp files, never less than ``lease_ttl``).  Staleness is judged
    by file age alone; a done marker is flagged even if its lease
    directory still holds live leases.
    Pure inspection — deletion is the caller's decision (the CLI's
    ``scenarios clean`` is dry-run by default).
    """
    root = Path(workdir)
    found: List[Tuple[Path, str]] = []
    if not root.is_dir():
        return found
    now = time.time()
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        try:
            age = now - path.stat().st_mtime
        except OSError:
            continue
        name = path.name
        if ".quarantined" in name:
            found.append((path, "quarantined corrupt file"))
        elif name.endswith(".lease"):
            if age > lease_ttl:
                found.append((path, f"expired lease (age {age:.0f}s)"))
        elif name.endswith(".done"):
            if age > max(lease_ttl, 3600.0):
                found.append((path, f"done marker of a finished campaign (age {age:.0f}s)"))
        elif name.endswith(".tmp"):
            if age > max(lease_ttl, 60.0):
                found.append((path, f"orphaned atomic-write temp file (age {age:.0f}s)"))
        elif path.parent.name == "workers" and name.endswith(".json"):
            if age > 2.0 * lease_ttl:
                found.append((path, f"stale worker heartbeat (age {age:.0f}s)"))
    return found


def sweep_stale_artifacts(
    workdir: Path | str,
    *,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    apply: bool = False,
    stream=None,
) -> List[Tuple[Path, str]]:
    """List (and with ``apply=True`` delete) stale campaign files.

    Prints one line per file to ``stream`` (default stdout); returns the
    entries so callers can count or test them.
    """
    stream = stream if stream is not None else sys.stdout
    entries = find_stale_artifacts(workdir, lease_ttl=lease_ttl)
    verb = "removed" if apply else "would remove"
    for path, reason in entries:
        if apply:
            Path(path).unlink(missing_ok=True)
        print(f"{verb} {path} ({reason})", file=stream)
    return entries
