"""Plain-text reports: the sweep executor's instrumentation and the stored
artifacts' provenance and paper comparison (``repro report``)."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.exec.executor import COUNTERS, ExecutionStats
from repro.utils.tables import format_table


def format_execution_report(stats: ExecutionStats, *, slowest: int = 5) -> str:
    """Render a :class:`~repro.exec.executor.ExecutionStats` summary.

    Shows how much work the executor did, how much the cache saved, and —
    for process pools — the measured parallel speedup (summed task time
    over wall-clock time).  Lockstep passes are reported as passes and
    lanes: their per-task times are equal shares, not measurements, so
    only individually timed tasks make the "slowest" list.
    """
    counts = stats.counters()
    mode = f"parallel ({stats.workers} workers)" if stats.workers >= 2 else "serial"
    rows = [("mode", mode)]
    rows += [(c.label, str(counts[c.name])) for c in COUNTERS if c.group == "executor"]
    rows.append(("wall-clock time", f"{stats.wall_seconds:.2f} s"))
    rows.append(("summed task time", f"{stats.task_seconds:.2f} s"))
    if stats.workers >= 2:
        rows.append(("measured speedup", f"{stats.speedup_estimate():.2f}x"))
    # Every other counter appears only when it fired, so clean runs keep the
    # familiar compact report.
    for counter in COUNTERS:
        count = counts[counter.name]
        if counter.group == "executor" or not counter.label or not count:
            continue
        value = str(count)
        if counter.name == "lockstep_passes":
            value += f" ({counts['lockstep_lanes']} lanes)"
        rows.append((counter.label, value))
    if stats.microbatches:
        rows.append(
            ("mean batch occupancy", f"{stats.mean_microbatch_occupancy():.2f}")
        )
    for timing in stats.slowest_tasks(slowest):
        # Drop the experiment-config scope prefix: within one report every
        # task shares it, and the attack content is the informative part.
        label = timing.key.rsplit("::", 1)[-1]
        rows.append((f"slowest: {label}", f"{timing.seconds:.2f} s"))
    return format_table(["quantity", "value"], rows, title="sweep execution")


def format_recovered_faults(provenance: Mapping) -> str:
    """Render an artifact's fault-recovery counters as one cell.

    Folds the ``resilience`` and ``elastic`` provenance counters that mark
    a recovered fault (:data:`~repro.exec.executor.COUNTERS` entries with
    ``recovery`` set) into a ``key=count`` list ("-" when nothing fired).
    Healthy elastic runs claim leases and see peers on every drain, so a
    clean campaign keeps the compact "-" cell.
    """
    fired = {}
    for counter in COUNTERS:
        if counter.recovery:
            count = (provenance.get(counter.group) or {}).get(counter.provenance, 0)
            if count:
                fired[counter.provenance] = count
    if not fired:
        return "-"
    return ", ".join(f"{key}={count}" for key, count in sorted(fired.items()))


def format_artifact_summary(documents: Sequence[Mapping]) -> str:
    """Provenance overview of stored figure artifacts (``repro report``).

    ``documents`` are artifact JSON documents as written by
    :func:`repro.store.save_figure_result` — plain mappings, so this module
    stays import-independent of the store.
    """
    rows = []
    for document in documents:
        provenance = document.get("provenance", {})
        recovered = format_recovered_faults(provenance)
        rows.append(
            (
                document.get("figure", "?"),
                provenance.get("scale", "?"),
                str(provenance.get("seed", "?")),
                str(provenance.get("git_sha", "?"))[:12],
                f"{provenance.get('wall_seconds', 0.0):.2f} s",
                str(provenance.get("executor_tasks", 0)),
                str(provenance.get("executor_cache_hits", 0)),
                recovered,
            )
        )
    return format_table(
        [
            "figure",
            "scale",
            "seed",
            "git SHA",
            "wall",
            "runs",
            "cache hits",
            "recovered faults",
        ],
        rows,
        title=f"Stored figure artifacts ({len(rows)})",
    )


def format_paper_comparison(documents: Sequence[Mapping]) -> str:
    """Measured metrics vs the paper's published numbers, across artifacts.

    Only figures that declare paper claims contribute rows; the difference
    column makes reduced-scale deviations visible at a glance.
    """
    rows = []
    for document in documents:
        metrics = document.get("metrics", {})
        for claim in document.get("claims", []):
            metric = claim.get("metric", "?")
            paper_value = claim.get("paper_value")
            measured = metrics.get(metric)
            if isinstance(measured, (int, float)) and isinstance(
                paper_value, (int, float)
            ):
                delta = f"{measured - paper_value:+.4f}"
                measured_text = f"{measured:.4f}"
                paper_text = f"{paper_value:.4f}"
            else:
                delta, measured_text, paper_text = "n/a", str(measured), str(paper_value)
            rows.append(
                (
                    document.get("figure", "?"),
                    claim.get("description") or metric,
                    paper_text,
                    measured_text,
                    delta,
                )
            )
    if not rows:
        return "No paper claims declared by the stored artifacts."
    return format_table(
        ["figure", "quantity", "paper", "reproduced", "difference"],
        rows,
        title="Reproduction vs the paper's published numbers",
    )
