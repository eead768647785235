"""Plain-text table rendering for experiment and benchmark reports.

The benchmark harness prints the same rows/series the paper's figures show;
these helpers format them readably on a terminal without any plotting
dependency.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _stringify(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    *,
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table."""
    str_rows = [[_stringify(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), 8))
    lines.append(fmt_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)
