"""Persistent, schema-versioned artifacts and a disk cache.

Two persistence layers back the ``python -m repro`` CLI:

* **Artifacts** — every reproduced figure, scenario evaluation and
  serving snapshot is one JSON document plus one ``<stem>.npz`` bundle
  beside it.  :func:`write_artifact` writes the pair and
  :func:`load_artifact` reads it back.  The document carries
  ``schema_version``, a kind key naming the artifact (``"figure"``,
  ``"scenario"`` or ``"snapshot"``), the kind's own fields (metrics,
  rendered tables, paper claims, a scenario's spec, a snapshot's model
  identity), an array manifest (dtype, shape and SHA-256 per array) and
  full provenance: config, seed, scale, git SHA, wall-clock, executor
  counters, library versions.  :func:`save_figure_result`,
  :func:`save_scenario_result` and
  :func:`repro.snn.snapshot.save_snapshot` only assemble their kind's
  fields.
* **The executor result cache** — :class:`PersistentResultCache` is a
  :class:`~repro.exec.cache.ResultCache` that mirrors every
  :class:`~repro.core.results.ExperimentResult` it stores to a JSON file.
  A new process pointed at the same file resumes where the last one
  stopped: already-evaluated attack configurations are served as cache
  hits with bit-identical numbers (JSON round-trips Python floats
  exactly), and only missing grid points are trained.

Artifacts are forward-compatible through ``schema_version``; loaders
reject documents from a newer schema instead of misreading them.
:func:`load_artifact` checks every array against its manifest entry, so
a malformed document or a tampered, reshaped or re-typed array is a
:class:`ValueError` naming the file, never a silently wrong number.

Both layers are hardened against the failure modes of real campaigns:

* Every file (JSON document, NPZ array bundle, cache flush) is written
  atomically — temp file in the same directory, ``fsync``, ``os.replace``
  — so a process killed mid-write can never leave a half-written artifact
  that later fails digest checks; the worst case is losing the write.
* Every persisted cache entry carries a SHA-256 digest of its content.
  A corrupt entry (or a truncated/empty/unparseable cache file) is
  **quarantined** on load — moved aside with a warning and recomputed as
  a cache miss — instead of crashing the campaign or, worse, silently
  serving wrong numbers.  Quarantine counts surface in executor stats and
  artifact provenance (see :mod:`repro.exec.resilience`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

import numpy as np

import repro
from repro.core.config import ExperimentConfig
from repro.core.results import ExperimentResult
from repro.exec.cache import ResultCache
from repro.exec.executor import COUNTERS
from repro.utils.serialization import atomic_write_json, atomic_write_npz, to_jsonable

if TYPE_CHECKING:
    from repro.figures import FigureResult, FigureSpec

#: Version of the artifact document layout.  Bump on breaking changes.
SCHEMA_VERSION = 1

#: File-name prefix of each artifact kind.  The keys are the document
#: keys that name an artifact, e.g. ``{"figure": "fig8", ...}``.
_ARTIFACT_PREFIXES = {"figure": "", "scenario": "scenario-", "snapshot": "snapshot-"}


class CacheCorruptionError(ValueError):
    """A persistent cache file is unreadable or not a cache document.

    A :class:`ValueError` subclass so existing sibling-preload error
    handling keeps working; the cache's own loader catches it to
    quarantine the file instead of crashing.  Schema-newer files raise a
    plain :class:`ValueError` — refusing a future format is not
    corruption and must stay loud.
    """


def git_revision(repo_root: Optional[Path] = None) -> str:
    """The current git commit SHA, or ``"unknown"`` outside a checkout."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root or Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = output.stdout.strip()
    return sha if output.returncode == 0 and sha else "unknown"


@dataclass(frozen=True)
class ArtifactPaths:
    """Where one artifact pair was written."""

    json_path: Path
    npz_path: Path


@dataclass
class StoredArtifact:
    """A figure, scenario or snapshot artifact loaded back from disk.

    ``kind`` is the document's kind key; ``arrays`` holds the NPZ arrays,
    each already checked against its manifest entry.
    """

    kind: str
    document: Dict[str, Any]
    arrays: Dict[str, np.ndarray]

    @property
    def name(self) -> str:
        """Registry name of the figure or scenario, or the snapshot's name."""
        return self.document[self.kind]

    @property
    def metrics(self) -> Dict[str, Any]:
        """Scalar metrics of the producing run."""
        return self.document.get("metrics", {})

    @property
    def provenance(self) -> Dict[str, Any]:
        """Config/seed/git-SHA/timing provenance of the producing run."""
        return self.document.get("provenance", {})


def _array_digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def build_provenance(
    config: ExperimentConfig,
    *,
    wall_seconds: float = 0.0,
    workers: int = 0,
    execution: Optional[Mapping[str, int]] = None,
    worker: str = "",
    git_sha: Optional[str] = None,
) -> Dict[str, Any]:
    """The provenance block stored with every artifact.

    ``execution`` holds the run's executor counter deltas (absent ones are
    zero), filed by :data:`~repro.exec.executor.COUNTERS`.  The
    ``resilience`` and ``elastic`` blocks audit fault recovery and work
    stealing without affecting the numbers; ``worker`` is the elastic
    worker id ("" when not elastic).
    """
    provenance: Dict[str, Any] = {
        "config": to_jsonable(config),
        "seed": config.seed,
        "scale": config.scale_name,
        "git_sha": git_sha if git_sha is not None else git_revision(),
        "created_at_unix": time.time(),
        "wall_seconds": wall_seconds,
        "workers": workers,
        "resilience": {},
        "elastic": {"worker": worker},
        "versions": {
            "repro": repro.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    counts = execution or {}
    for counter in COUNTERS:
        if counter.provenance:
            block = provenance if counter.group == "executor" else provenance[counter.group]
            block[counter.provenance] = counts.get(counter.name, 0)
    return provenance


def write_artifact(
    out_dir: Path | str,
    kind: str,
    name: str,
    fields: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
    provenance: Mapping[str, Any],
) -> ArtifactPaths:
    """Write one artifact pair under ``out_dir``: the NPZ, then the JSON.

    The file stem is ``name`` behind the kind's prefix (``fig8``,
    ``scenario-<name>``, ``snapshot-<name>``).  The document is ``fields``
    plus the envelope: ``schema_version``, ``{kind: name}``, the array
    manifest and ``provenance``.  Both writes are atomic, and the
    document lands last, so it never names arrays that are not on disk.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _ARTIFACT_PREFIXES[kind] + name
    paths = ArtifactPaths(
        json_path=out_dir / f"{stem}.json", npz_path=out_dir / f"{stem}.npz"
    )
    atomic_write_npz(paths.npz_path, arrays)
    document = {
        **fields,
        "schema_version": SCHEMA_VERSION,
        kind: name,
        "arrays": {
            key: {
                "npz": paths.npz_path.name,
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "sha256": _array_digest(array),
            }
            for key, array in arrays.items()
        },
        "provenance": provenance,
    }
    atomic_write_json(paths.json_path, document)
    return paths


def _is_manifest_entry(entry: Any) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("dtype"), str)
        and isinstance(entry.get("shape"), list)
        and isinstance(entry.get("sha256"), str)
    )


def _read_verified_arrays(
    json_path: Path, manifest: Mapping[str, Dict[str, Any]]
) -> Dict[str, np.ndarray]:
    """Every manifest array from the ``<stem>.npz`` beside ``json_path``."""
    npz_path = json_path.with_suffix(".npz")
    arrays: Dict[str, np.ndarray] = {}
    try:
        with np.load(npz_path) as bundle:
            for name, entry in manifest.items():
                if name not in bundle.files:
                    raise ValueError(
                        f"array {name!r} of {json_path} is missing from {npz_path.name}"
                    )
                array = bundle[name]
                if str(array.dtype) != entry["dtype"]:
                    raise ValueError(
                        f"array {name!r} of {json_path} is corrupt: dtype "
                        f"{array.dtype}, manifest says {entry['dtype']}"
                    )
                if list(array.shape) != entry["shape"]:
                    raise ValueError(
                        f"array {name!r} of {json_path} is corrupt: shape "
                        f"{list(array.shape)}, manifest says {entry['shape']}"
                    )
                if _array_digest(array) != entry["sha256"]:
                    raise ValueError(
                        f"array {name!r} of {json_path} is corrupt: digest mismatch"
                    )
                arrays[name] = array
    except zipfile.BadZipFile as error:
        raise ValueError(f"{npz_path} is not a readable NPZ bundle: {error}") from None
    return arrays


def load_artifact(json_path: Path | str, kind: Optional[str] = None) -> StoredArtifact:
    """Load one artifact pair and verify it against its manifest.

    Arrays are read only from the ``<stem>.npz`` beside the document; the
    manifest's ``npz`` field is not followed.  Raises :class:`ValueError`
    naming the file when the document is not a JSON object, has a newer
    ``schema_version``, names no artifact kind or a kind other than
    ``kind`` (when given), or has a manifest that is not an object of
    ``{dtype, shape, sha256}`` entries; and naming the array when one is
    missing from the bundle or differs from its entry in dtype, shape or
    SHA-256.  Propagates :class:`OSError` when a file cannot be read.
    """
    json_path = Path(json_path)
    with open(json_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{json_path} is not an artifact: not a JSON object")
    version = document.get("schema_version")
    if not isinstance(version, int) or version > SCHEMA_VERSION:
        raise ValueError(
            f"{json_path} has artifact schema {version!r}; this build reads "
            f"schemas <= {SCHEMA_VERSION}"
        )
    found = _document_kind(document)
    if found == "other":
        raise ValueError(
            f"{json_path} is not an artifact: no {'/'.join(_ARTIFACT_PREFIXES)} key"
        )
    if kind is not None and found != kind:
        raise ValueError(f"{json_path} is a {found} artifact, not a {kind} artifact")
    manifest = document.get("arrays", {})
    if not isinstance(manifest, dict):
        raise ValueError(f"{json_path} has an array manifest that is not a JSON object")
    for name, entry in manifest.items():
        if not _is_manifest_entry(entry):
            raise ValueError(
                f"{json_path} has a malformed manifest entry for array {name!r} "
                "(expected {dtype, shape, sha256})"
            )
    arrays = _read_verified_arrays(json_path, manifest) if manifest else {}
    return StoredArtifact(kind=found, document=document, arrays=arrays)


def _document_kind(document: Any) -> str:
    """The artifact kind key of a parsed document, or ``"other"``."""
    if not isinstance(document, dict) or "schema_version" not in document:
        return "other"
    return next((kind for kind in _ARTIFACT_PREFIXES if kind in document), "other")


def classify_artifact_json(json_path: Path | str) -> str:
    """What kind of document one ``.json`` file holds.

    Returns ``"figure"`` / ``"scenario"`` / ``"snapshot"`` for artifact
    documents, ``"other"`` for JSON that parses but is not an artifact
    (skippable, e.g. a stray config), ``"corrupt"`` for files that are not
    valid JSON and ``"unreadable"`` for files that cannot be opened at
    all.  The report commands treat the last two as failures — a
    truncated or unreadable artifact must fail the run, not vanish from
    it.
    """
    try:
        with open(json_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError:
        return "unreadable"
    except ValueError:
        return "corrupt"
    return _document_kind(document)


def _tables(tables) -> list:
    """The JSON form of rendered :class:`~repro.figures.FigureTable` s."""
    return [{"title": t.title, "headers": t.headers, "rows": t.rows} for t in tables]


def save_figure_result(
    spec: FigureSpec,
    result: FigureResult,
    out_dir: Path | str,
    *,
    config: ExperimentConfig,
    git_sha: Optional[str] = None,
) -> ArtifactPaths:
    """Persist ``result`` as ``<name>.json`` + ``<name>.npz`` under ``out_dir``."""
    fields = {
        "title": spec.title,
        "description": spec.description,
        "tags": list(spec.tags),
        "metrics": to_jsonable(result.metrics),
        "tables": _tables(result.tables),
        "claims": [
            {
                "metric": claim.metric,
                "paper_value": claim.paper_value,
                "description": claim.description,
            }
            for claim in spec.claims
        ],
    }
    provenance = build_provenance(
        config,
        wall_seconds=result.wall_seconds,
        workers=result.workers,
        execution=result.execution,
        git_sha=git_sha,
    )
    return write_artifact(out_dir, "figure", spec.name, fields, result.arrays, provenance)


def save_scenario_result(
    scenario,
    result,
    out_dir: Path | str,
    *,
    config: ExperimentConfig,
    git_sha: Optional[str] = None,
) -> ArtifactPaths:
    """Persist a :class:`~repro.scenarios.runner.ScenarioResult` pair.

    Writes ``scenario-<name>.json`` + ``scenario-<name>.npz`` under
    ``out_dir``, carrying the *full declarative spec*
    (``scenario.to_dict()``) so an artifact is reproducible from itself.
    """
    fields = {
        "title": scenario.title or scenario.name,
        "description": scenario.description,
        "tags": list(scenario.tags),
        "strategy": result.strategy,
        "engine": result.engine,
        "shard": result.shard,
        "spec": to_jsonable(scenario.to_dict()),
        "metrics": to_jsonable(result.metrics),
        "cases": to_jsonable(result.cases),
        "tables": _tables(result.tables),
    }
    provenance = build_provenance(
        config,
        wall_seconds=result.wall_seconds,
        workers=result.workers,
        execution=result.execution,
        worker=result.worker,
        git_sha=git_sha,
    )
    return write_artifact(
        out_dir, "scenario", scenario.name, fields, result.arrays, provenance
    )


def _entry_digest(fields: Mapping[str, Any]) -> str:
    """SHA-256 of one cache entry's canonical JSON content."""
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode("utf-8")
    ).hexdigest()


def quarantine_path(path: Path) -> Path:
    """A fresh ``<name>.quarantined[-N]`` sibling path for a corrupt file."""
    candidate = path.with_name(path.name + ".quarantined")
    counter = 0
    while candidate.exists():
        counter += 1
        candidate = path.with_name(f"{path.name}.quarantined-{counter}")
    return candidate


class PersistentResultCache(ResultCache):
    """A :class:`ResultCache` whose experiment results survive the process.

    Every :class:`~repro.core.results.ExperimentResult` put into the cache
    is mirrored to one JSON file (written atomically), keyed by the
    executor's scoped content key.  Loading the file back reconstructs the
    results exactly — JSON preserves Python floats bit-for-bit — so a
    re-run of the same figures completes from cache hits alone.  Values of
    other types stay in memory only (the executor never produces them for
    the registered figures).

    Every persisted entry carries a SHA-256 digest of its content, checked
    on load.  Corrupt state never crashes a campaign and never silently
    serves wrong numbers: an unreadable/truncated/empty cache file is
    **quarantined** (moved aside with a :class:`RuntimeWarning`) and the
    cache starts fresh; individual entries failing their digest are
    dropped (the file is copied aside once for post-mortem) and recomputed
    as cache misses.  ``quarantined_entries`` / ``quarantined_files``
    record what happened, and flow into executor stats and artifact
    provenance through :meth:`repro.exec.executor.SweepExecutor.map`.
    A cache file from a *newer* schema still raises: refusing to guess at
    a future format is not a corruption-recovery case.
    """

    def __init__(self, path: Path | str) -> None:
        super().__init__()
        self.path = Path(path)
        self._persisted: Dict[str, Dict[str, Any]] = {}
        #: Entries dropped for failing their content digest (all files).
        self.quarantined_entries = 0
        #: Corrupt files moved (or copied) aside, in quarantine order.
        self.quarantined_files: list = []
        if self.path.exists():
            self._load_own_file()

    def _load_own_file(self) -> None:
        """Adopt this cache's own file, quarantining corrupt state."""
        try:
            entries, bad = self._read_entries(self.path)
        except CacheCorruptionError as error:
            moved = quarantine_path(self.path)
            os.replace(self.path, moved)
            self.quarantined_files.append(moved)
            warnings.warn(
                f"quarantined corrupt result cache {self.path} -> {moved.name} "
                f"({error}); its results will be recomputed",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        if bad:
            # Keep the good entries, but preserve the damaged original for
            # post-mortem before the next flush overwrites it.
            copied = quarantine_path(self.path)
            shutil.copy2(self.path, copied)
            self.quarantined_files.append(copied)
            self.quarantined_entries += bad
            warnings.warn(
                f"dropped {bad} corrupt entr{'y' if bad == 1 else 'ies'} from "
                f"result cache {self.path} (digest mismatch; original copied "
                f"to {copied.name}); they will be recomputed",
                RuntimeWarning,
                stacklevel=3,
            )
        for key, fields, result in entries:
            self._persisted[key] = fields
            self._results[key] = result

    @staticmethod
    def _read_entries(path: Path):
        """Read one cache file; returns ``(entries, corrupt_count)``.

        ``entries`` is a list of ``(key, raw_fields, ExperimentResult)``
        for every entry that parsed and passed its digest check;
        ``corrupt_count`` counts entries that failed it.  Raises
        :class:`CacheCorruptionError` when the file as a whole is not a
        cache document (unreadable, truncated, empty, not a JSON object)
        and plain :class:`ValueError` for newer-schema files.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            raise CacheCorruptionError(f"cannot read cache file: {error}") from None
        except ValueError as error:
            raise CacheCorruptionError(f"not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise CacheCorruptionError("cache document is not a JSON object")
        version = payload.get("schema_version")
        if not isinstance(version, int):
            raise CacheCorruptionError(f"missing/invalid schema_version {version!r}")
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"{path} has cache schema {version!r}; this build "
                f"reads schemas <= {SCHEMA_VERSION} — delete the file to "
                "start a fresh cache"
            )
        raw = payload.get("results", {})
        if not isinstance(raw, dict):
            raise CacheCorruptionError("cache 'results' is not a JSON object")
        entries = []
        corrupt = 0
        for key, entry in raw.items():
            if isinstance(entry, dict) and "fields" in entry:
                fields = entry.get("fields")
                digest = entry.get("sha256")
                if not isinstance(fields, dict) or _entry_digest(fields) != digest:
                    corrupt += 1
                    continue
            else:
                # Entry written before per-entry digests existed: accept
                # (layout unchanged, just unverifiable).
                fields = entry
            try:
                result = ExperimentResult(**fields)
            except TypeError:
                # An entry written by a different ExperimentResult layout
                # (same schema, drifted fields): drop it — a cache miss
                # re-trains the point, a bad hit would corrupt figures.
                continue
            entries.append((key, fields, result))
        return entries, corrupt

    #: Pause before the single re-read of a sibling file that failed its
    #: first read — long enough for a peer's atomic flush to land.
    PRELOAD_RETRY_DELAY = 0.05

    def _read_sibling_entries(self, path: Path):
        """Read a *sibling* cache file, retrying once on a failed first read.

        A peer flushing concurrently replaces the file between our
        ``open`` and ``read`` — the first read can then see a vanished
        file or (on filesystems without atomic rename visibility) torn
        content.  That is transient, not corruption: one short retry
        reads the peer's completed flush.  Only a *second* consecutive
        failure is treated as real corruption (exceptions propagate,
        corrupt-entry counts stand), so a healthy sibling mid-flush is
        never quarantined.
        """
        try:
            entries, bad = self._read_entries(path)
            if not bad:
                return entries, bad
        except (CacheCorruptionError, OSError):
            pass
        time.sleep(self.PRELOAD_RETRY_DELAY)
        return self._read_entries(path)

    def preload(self, path: Path | str) -> int:
        """Seed in-memory entries from *another* cache file, without adopting.

        Entries already present (from this cache's own file or earlier
        preloads) win.  Preloaded results are served as cache hits but are
        **not** re-persisted to this cache's file, so concurrent shard
        invocations writing disjoint files never clobber each other's
        entries.  A first read that fails (a peer's concurrent flush
        replacing the file mid-read) is retried once before anything is
        counted as corrupt.  Corrupt sibling entries are skipped (counted
        in ``quarantined_entries``) but the sibling file is left untouched
        — its owning shard quarantines it.  Returns the number of entries
        added.
        """
        path = Path(path)
        added = 0
        if not path.exists():
            return added
        entries, bad = self._read_sibling_entries(path)
        self.quarantined_entries += bad
        if bad:
            warnings.warn(
                f"skipped {bad} corrupt entr{'y' if bad == 1 else 'ies'} while "
                f"preloading sibling cache {path}; they will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )
        for key, _fields, result in entries:
            if key not in self._results:
                self._results[key] = result
                added += 1
        return added

    def put(self, key: str, result) -> None:
        """Store ``result`` and, for experiment results, flush it to disk.

        The flush rewrites the whole file per put; with entries this small
        that costs milliseconds against the multi-second training run each
        entry represents, and it is what makes a run interrupted mid-figure
        resumable from every result it had already computed.
        """
        super().put(key, result)
        if isinstance(result, ExperimentResult):
            fields = dataclasses.asdict(result)
            self._persisted[key] = fields
            self._flush()

    def _flush(self) -> None:
        payload: Mapping[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "results": {
                key: {"fields": fields, "sha256": _entry_digest(fields)}
                for key, fields in self._persisted.items()
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.path, payload)


def open_shard_cache(directory: Path | str, shard=None) -> PersistentResultCache:
    """The persistent cache for one (possibly sharded) campaign invocation.

    Each shard persists its results to its own file
    (``cache.shard-<i>-of-<n>.json``; the unsharded file stays
    ``cache.json``), so concurrent shard processes never rewrite each
    other's files, and every invocation *preloads* all sibling cache files
    in the directory — which is what makes the merge step implicit: once
    the union of shard caches covers a scenario's variant list, any
    invocation assembles the complete, bit-identical artifact with zero
    new pipeline runs.
    """
    directory = Path(directory)
    if shard is None or shard.count == 1:
        path = directory / "cache.json"
    else:
        path = directory / f"cache.shard-{shard.index}-of-{shard.count}.json"
    cache = PersistentResultCache(path)
    preload_sibling_caches(cache, directory)
    return cache


def preload_sibling_caches(cache: PersistentResultCache, directory: Path | str) -> int:
    """Preload every ``cache*.json`` sibling in ``directory`` into ``cache``.

    The merge primitive of both static sharding and elastic execution:
    re-run after other invocations flushed and the in-memory union grows
    to cover their results.  An unreadable or newer-schema *sibling* must
    not block this invocation — its entries simply become cache misses
    here (the cache's own file still fails loudly on open: silently
    dropping our own persisted results would hide data loss).  Returns
    the number of entries added.
    """
    directory = Path(directory)
    added = 0
    for sibling in sorted(directory.glob("cache*.json")):
        if sibling == cache.path:
            continue
        try:
            added += cache.preload(sibling)
        except (OSError, ValueError) as error:
            print(
                f"warning: skipping unreadable sibling cache {sibling}: {error}",
                file=sys.stderr,
            )
    return added


def open_worker_cache(directory: Path | str, worker_id: str) -> PersistentResultCache:
    """The persistent cache for one *elastic* worker invocation.

    Like :func:`open_shard_cache`, but keyed by worker id instead of a
    static shard coordinate: each cooperating process persists to its own
    ``cache.elastic-<worker>.json`` (never contending with peers on
    writes) and preloads every sibling — so whichever worker finds the
    union complete assembles the merged artifact, bit-identical to a
    single-process run.
    """
    directory = Path(directory)
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", str(worker_id)) or "worker"
    cache = PersistentResultCache(directory / f"cache.elastic-{safe}.json")
    preload_sibling_caches(cache, directory)
    return cache
