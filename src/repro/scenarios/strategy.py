"""Evaluation strategies: dense grids and adaptive bisection search.

A dense grid answers "what does the whole response surface look like"; the
adaptive :class:`BisectionStrategy` answers the campaign question the paper
cares about — *where does accuracy collapse?* — cheaply.  On the lockstep
engine a search costs passes, not runs: its baseline and first
:data:`SPECULATIVE_PROBES` undecided probes train in one pass, so a cold
search takes at most ``max(1, ceil(log2(n - 1)) - 1)`` passes (2 for 8
candidates).  On the scalar engine or a process pool it costs runs: at most
``2 + ceil(log2(n - 1))`` probes (see :func:`worst_case_cost`).
It binary-searches the candidate values of one swept parameter — declared
mildest corruption first — for the first value whose relative accuracy
degradation reaches a target, assuming the degradation is monotone along
the declared value order (true for every corruption family here: more
corruption never helps accuracy).

Because probes run through the shared
:class:`~repro.exec.executor.SweepExecutor`, every probe is cached: a
bisection over a grid that a dense sweep already evaluated costs zero new
pipeline runs, and re-running a bisection resumes from the persistent cache.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple


@dataclass
class BisectionOutcome:
    """Result of one adaptive collapse search.

    ``collapse_value`` is the first swept value whose relative degradation
    reached the target (``None`` when even the most severe value stays
    under it); ``probes`` maps each evaluated value to its measured
    degradation, in evaluation order.
    """

    parameter: str
    target_degradation: float
    collapse_value: Optional[float]
    collapse_index: Optional[int]
    probes: Dict[float, float] = field(default_factory=dict)

    @property
    def n_probes(self) -> int:
        """Number of distinct values the search evaluated."""
        return len(self.probes)

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.collapse_value is None:
            return (
                f"no collapse: degradation stays under "
                f"{self.target_degradation:.0%} across the range "
                f"({self.n_probes} probes)"
            )
        return (
            f"collapse at {self.parameter}={self.collapse_value:g} "
            f"(degradation >= {self.target_degradation:.0%}, "
            f"{self.n_probes} probes)"
        )


#: Undecided probes a lockstep search trains ahead, beside its baseline, in
#: its first pass: on a cold search, the first four levels of the tree.
SPECULATIVE_PROBES = 5

# A search state is a bracket ``(lo, hi)`` of candidate indices with
# ``degradation(lo) < target <= degradation(hi)``; ``lo = -1`` and ``hi = n``
# stand for "not measured yet".  A search over ``n`` candidates starts at
# ``(-1, n)`` and is settled once ``hi - lo <= 1``, collapsing at ``hi``
# (no collapse when ``hi == n``).


def _probe_index(state: Tuple[int, int], n: int) -> Optional[int]:
    """The candidate index ``state`` probes next (``None`` once settled)."""
    lo, hi = state
    if hi - lo <= 1:
        return None
    if hi == n:
        # The most severe value decides whether a collapse exists at all.
        return n - 1
    if lo == -1:
        # The mildest value may already collapse.
        return 0
    return (lo + hi) // 2


def _next_state(state: Tuple[int, int], index: int, collapsed: bool) -> Tuple[int, int]:
    """The state after probing ``index`` and measuring ``collapsed``."""
    lo, hi = state
    return (lo, index) if collapsed else (index, hi)


def worst_case_cost(n: int) -> Tuple[int, int]:
    """``(probes, lockstep passes)`` a cold search over ``n`` candidates needs.

    Probes: the most severe value, the mildest, then ``ceil(log2(n - 1))``
    halvings; each is one pipeline run on the scalar engine or a process
    pool.  On the lockstep engine the first pass trains the baseline and
    the first four levels, and every deeper probe is one more pass:
    ``max(1, ceil(log2(n - 1)) - 1)`` passes.
    """
    probes = 1 if n == 1 else 2 + (n - 2).bit_length()
    return probes, max(1, probes - 3)


class BisectionStrategy:
    """Find the smallest corruption that collapses accuracy.

    Parameters
    ----------
    parameter:
        Name of the swept parameter (reporting only; the candidate values
        arrive pre-resolved).
    target_degradation:
        Relative accuracy degradation (vs baseline) that counts as
        "collapsed", e.g. ``0.5`` for half the baseline accuracy lost.

    The candidate values must be ordered from mildest to most severe
    corruption; the measured degradation is assumed monotone non-decreasing
    along that order.  Under that assumption the search returns exactly the
    value a dense scan of the same candidates would return, with at most
    :func:`worst_case_cost` probes instead of ``n``.

    The decision tree exists once, as ``_probe_index`` and ``_next_state``:
    :meth:`run` follows it one measured probe at a time, and :meth:`plan`
    walks it ahead over both outcomes to name the probes worth training
    together.
    """

    def __init__(self, parameter: str, *, target_degradation: float = 0.5) -> None:
        if not (0.0 < target_degradation <= 1.0):
            raise ValueError(
                f"target_degradation must be in (0, 1], got {target_degradation!r}"
            )
        self.parameter = parameter
        self.target_degradation = target_degradation

    def _collapses(self, degradation: float) -> bool:
        return degradation >= self.target_degradation

    def plan(self, n: int, known: Mapping[int, float]) -> List[int]:
        """The next undecided indices a search over ``n`` candidates may probe.

        ``known`` maps candidate indices to degradations already measured.
        The walk follows the real edge at every known index and, at an
        unknown one, plans it and expands both outcomes, breadth first, up
        to :data:`SPECULATIVE_PROBES` indices.  The plan is empty when the
        known values settle the search, and never names a known index.
        """
        planned: List[int] = []
        frontier = deque([(-1, n)])
        while frontier and len(planned) < SPECULATIVE_PROBES:
            state = frontier.popleft()
            index = _probe_index(state, n)
            if index is None:
                continue
            if index in known:
                collapsed = self._collapses(known[index])
                frontier.appendleft(_next_state(state, index, collapsed))
            else:
                planned.append(index)
                frontier.extend(_next_state(state, index, c) for c in (True, False))
        return planned

    def run(
        self,
        values: Sequence[float],
        degradation_of: Callable[[float], float],
    ) -> BisectionOutcome:
        """Search ``values`` (mild → severe) for the first collapsing value.

        ``degradation_of(value)`` must return the relative accuracy
        degradation of the scenario evaluated at ``value``.
        """
        values = [float(v) for v in values]
        if not values:
            raise ValueError("bisection needs at least one candidate value")
        n = len(values)
        probes: Dict[float, float] = {}
        state = (-1, n)
        while (index := _probe_index(state, n)) is not None:
            value = values[index]
            if value not in probes:
                probes[value] = float(degradation_of(value))
            state = _next_state(state, index, self._collapses(probes[value]))
        collapse_index = state[1] if state[1] < n else None
        return BisectionOutcome(
            parameter=self.parameter,
            target_degradation=self.target_degradation,
            collapse_value=None if collapse_index is None else values[collapse_index],
            collapse_index=collapse_index,
            probes=probes,
        )


def dense_collapse_index(
    degradations: Sequence[float], target_degradation: float
) -> Optional[int]:
    """First index whose degradation reaches the target (dense-scan reference).

    This is the exhaustive counterpart of :class:`BisectionStrategy` — the
    acceptance tests compare the two on the same grid.
    """
    for index, degradation in enumerate(degradations):
        if float(degradation) >= target_degradation:
            return index
    return None


def degradations_from_accuracies(
    accuracies: Sequence[float], baseline_accuracy: float
) -> List[float]:
    """Relative degradation per swept point (0 when the baseline is 0)."""
    if baseline_accuracy == 0.0:
        return [0.0 for _ in accuracies]
    return [
        float((baseline_accuracy - accuracy) / baseline_accuracy)
        for accuracy in accuracies
    ]
