"""Plain-text reporting: tables, bar charts, paper comparisons.

Everything the benches print goes through these helpers so the
paper-vs-measured output has one consistent format in bench logs and
the ``results/<name>.txt`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned monospace table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def ascii_bars(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
) -> str:
    """A horizontal bar chart for figure-shaped bench output."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not values:
        return "(no data)"
    peak = max(max(values), 1e-12)
    label_w = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        bar = "#" * max(0, round(width * value / peak))
        lines.append(f"{label.rjust(label_w)} | {bar} {value:.3g}{unit}")
    return "\n".join(lines)


@dataclass(frozen=True)
class PaperComparison:
    """One paper-vs-measured row."""

    metric: str
    paper: float
    measured: float
    unit: str = ""
    #: Relative tolerance used only for the PASS/near/off label.
    rel_tolerance: float = 0.25

    @property
    def relative_error(self) -> float:
        """|measured - paper| / |paper| (inf when paper is 0)."""
        if self.paper == 0:
            return float("inf") if self.measured != 0 else 0.0
        return abs(self.measured - self.paper) / abs(self.paper)

    @property
    def verdict(self) -> str:
        """Three-level closeness label for bench output."""
        err = self.relative_error
        if err <= self.rel_tolerance:
            return "MATCH"
        if err <= 2 * self.rel_tolerance:
            return "NEAR"
        return "OFF"


def comparison_table(rows: Iterable[PaperComparison]) -> str:
    """Render paper-vs-measured rows as a table."""
    return format_table(
        ["metric", "paper", "measured", "rel.err", "verdict"],
        [
            [
                row.metric,
                f"{row.paper:.4g}{row.unit}",
                f"{row.measured:.4g}{row.unit}",
                ("inf" if row.relative_error == float("inf")
                 else f"{100 * row.relative_error:.1f}%"),
                row.verdict,
            ]
            for row in rows
        ],
    )
