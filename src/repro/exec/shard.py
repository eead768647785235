"""The campaign splitter's vocabulary: chunks, static shards, merge reports.

Every invocation evaluates a scenario's variant list in chunks
(:class:`Chunk`), one ``executor.map`` batch each; only where the chunks
come from differs.  A static shard ``i/n`` (:class:`ShardSpec`,
``--shard``) owns one pre-assigned chunk of every ``n``-th position
starting at ``i``: a pure function of the task order, so processes agree
on the split without coordination and the chunk needs no lease
(:data:`FULL` owns everything).  Interleaving balances cost because sweep
grids usually run from mild to severe corruption.  ``--elastic``
(:mod:`repro.exec.elastic`) instead leases contiguous chunks.  Either way
the merge is a union of content-keyed caches, and :func:`merge_report`
names what is unresolved.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class Chunk:
    """One unit of work: the variant positions evaluated in one batch."""

    id: str
    positions: Tuple[int, ...]


@dataclass(frozen=True)
class ShardSpec:
    """One shard coordinate of an ``n``-way split (zero-based ``index``)."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not (0 <= self.index < self.count):
            raise ValueError(
                f"shard index must be in [0, {self.count - 1}], got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"i/n"`` (e.g. ``"0/4"``) into a spec.

        Raises :class:`ValueError` on malformed input, with the expected
        format in the message.
        """
        parts = str(text).split("/")
        if len(parts) != 2:
            raise ValueError(f"shard must look like 'i/n' (e.g. '0/4'), got {text!r}")
        try:
            index, count = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"shard must look like 'i/n' with integer i and n, got {text!r}"
            ) from None
        return cls(index=index, count=count)

    @property
    def is_trivial(self) -> bool:
        """True for the 1-way split (every task belongs to this shard)."""
        return self.count == 1

    def select(self, items: Sequence[T]) -> List[T]:
        """The subsequence of ``items`` assigned to this shard (interleaved)."""
        return list(items[self.index :: self.count])

    def chunk(self, total: int) -> Chunk:
        """The one pre-assigned chunk this shard owns of a ``total``-long list."""
        return Chunk(
            id=f"shard-{self.index}-of-{self.count}",
            positions=tuple(range(self.index, total, self.count)),
        )

    def owns_name(self, name: str) -> bool:
        """Stable name-based assignment for *unsplittable* units of work.

        Adaptive scenarios cannot split their probe sequence (each probe
        depends on the previous result), so a whole scenario is assigned to
        one shard by a stable hash of its name — identical across processes
        and Python hash randomisation.
        """
        return zlib.crc32(name.encode("utf-8")) % self.count == self.index

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


#: The trivial 1-way split, used when no ``--shard`` was requested.
FULL = ShardSpec(index=0, count=1)


@dataclass(frozen=True)
class MergeReport:
    """Validation of a merge: exactly what is still unresolved.

    Built by :func:`merge_report` from a positionally resolved variant
    list, the report names the missing positions, says who owns them (the
    static shards of the interleaved split, or lost elastic leases), and
    renders the commands that compute them.
    """

    #: Length of the full variant list being merged.
    total: int
    #: Shard count of the static split (``1`` for unsharded and elastic runs).
    count: int = 1
    #: Zero-based positions of the variants still unresolved.
    missing_positions: Tuple[int, ...] = ()
    #: Whether the positions were split by an elastic drain, not by shards.
    elastic: bool = False

    @property
    def complete(self) -> bool:
        """True when every variant position resolved to a result."""
        return not self.missing_positions

    @property
    def missing(self) -> int:
        """How many variant positions are unresolved."""
        return len(self.missing_positions)

    @property
    def missing_shards(self) -> Tuple[int, ...]:
        """Sorted shard indices owning the unresolved positions."""
        return tuple(sorted({p % self.count for p in self.missing_positions}))

    def resume_commands(self, template: str) -> List[str]:
        """Concrete resume commands for the unresolved positions.

        ``template`` must contain a ``{split}`` placeholder for the
        splitter flag, e.g. ``"python -m repro scenarios run NAME {split}
        --out OUT"``: one ``--shard i/n`` command per absent shard, or a
        single ``--elastic`` command (any worker re-claims lost chunks).
        """
        if self.complete:
            return []
        if self.elastic:
            return [template.format(split="--elastic")]
        return [
            template.format(split=f"--shard {index}/{self.count}")
            for index in self.missing_shards
        ]

    def describe(self, *, limit: int = 8) -> str:
        """One line naming the missing positions and who owns them."""
        if self.complete:
            return f"all {self.total} variant(s) resolved"
        shown = ", ".join(str(p) for p in self.missing_positions[:limit])
        if self.missing > limit:
            shown += f", … ({self.missing - limit} more)"
        if self.elastic:
            owners = "leased but lost"
        else:
            shards = ", ".join(f"{index}/{self.count}" for index in self.missing_shards)
            owners = f"owned by shard(s) {shards}"
        return (
            f"{self.missing} of {self.total} variant(s) unresolved "
            f"(position(s) {shown}) — {owners}"
        )


def merge_report(
    resolved: Sequence[Optional[object]], spec: ShardSpec = FULL, *, elastic: bool = False
) -> MergeReport:
    """Validate a merge attempt: ``None`` entries in ``resolved`` are missing.

    ``resolved`` is the positionally aligned result list of a full variant
    grid (as returned by ``SweepExecutor.peek_results``); ``spec`` carries
    the shard count the campaign was split into, and ``elastic`` marks a
    lease-drained campaign.
    """
    missing = tuple(
        position for position, result in enumerate(resolved) if result is None
    )
    return MergeReport(
        total=len(resolved), count=spec.count, missing_positions=missing, elastic=elastic
    )
