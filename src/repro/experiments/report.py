"""Paper-style text rendering of experiment results."""

from __future__ import annotations

from typing import Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    footer: Sequence[Sequence[object]] = (),
) -> str:
    """Render an aligned text table with a title and optional footer rows."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    str_footer = [[_fmt(cell) for cell in row] for row in footer]
    widths = [len(h) for h in headers]
    for row in str_rows + str_footer:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if str_footer:
        lines.append("  ".join("-" * w for w in widths))
        for row in str_footer:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 10 else f"{cell:.1f}"
    return str(cell)
