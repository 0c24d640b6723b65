"""Plain-text rendering of experiment tables and series.

The paper's artefacts are tables and line plots; in a terminal-first
reproduction we print aligned tables and (for figures) the underlying
series a reader compares against the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence


@dataclass
class Table:
    """A titled table with a header row and string cells."""

    title: str
    header: List[str]
    rows: List[List[str]] = field(default_factory=list)
    footnote: Optional[str] = None

    def add_row(self, *cells: object) -> None:
        self.rows.append([str(c) for c in cells])


def render_table(table: Table) -> str:
    """Align columns and frame the table for terminal output."""
    widths = [len(h) for h in table.header]
    for row in table.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = [table.title, "=" * len(table.title), fmt(table.header),
             fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in table.rows)
    if table.footnote:
        lines.append("")
        lines.append(table.footnote)
    return "\n".join(lines)


def render_series(title: str, xlabel: str, ylabel: str,
                  series: Iterable, x_format: str = "{:g}",
                  y_format: str = "{:.3f}") -> str:
    """Render named (x, y) series as a compact aligned listing.

    ``series`` is an iterable of ``(name, xs, ys)`` triples.
    """
    lines = [title, "=" * len(title)]
    for name, xs, ys in series:
        lines.append(f"-- {name} ({xlabel} -> {ylabel})")
        lines.append("   " + "  ".join(
            f"{x_format.format(x)}:{y_format.format(y)}"
            for x, y in zip(xs, ys)))
    return "\n".join(lines)


def seconds(value: float) -> str:
    """Human-friendly seconds with sensible precision."""
    if value >= 100:
        return f"{value:.0f} s"
    if value >= 1:
        return f"{value:.2f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.0f} us"
