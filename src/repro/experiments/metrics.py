"""Result containers and plain-text rendering for the experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence


@dataclass
class ExperimentSeries:
    """One experiment: an x-axis sweep producing one row per x value."""

    experiment: str
    figure: str
    x_label: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, row: Mapping[str, Any]) -> None:
        self.rows.append(dict(row))

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def columns(self) -> list[str]:
        seen: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def as_markdown(self) -> str:
        """Render the series as a GitHub-flavoured markdown table."""
        return render_table(self.rows, title=f"{self.experiment} ({self.figure})")


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.5f}"
        return f"{value:.3f}"
    return str(value)


def render_table(rows: Sequence[Mapping[str, Any]], title: str = "") -> str:
    """Render rows of dictionaries as a markdown table (used in EXPERIMENTS.md)."""
    if not rows:
        return f"### {title}\n\n(no data)\n" if title else "(no data)\n"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in rows:
        lines.append(
            "| " + " | ".join(_format_cell(row.get(c, "")) for c in columns) + " |"
        )
    lines.append("")
    return "\n".join(lines)


def speedup(rows: Iterable[Mapping[str, Any]], fast: str, slow: str) -> list[float]:
    """Per-row ratio ``slow / fast`` (e.g. batch time over incremental time)."""
    out = []
    for row in rows:
        denominator = row.get(fast) or 0.0
        numerator = row.get(slow) or 0.0
        out.append(float("inf") if denominator == 0 else numerator / denominator)
    return out
