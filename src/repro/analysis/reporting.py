"""Plain-text table/series formatting used by the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["format_table", "ResultTable"]


def _fmt(value: Any, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Sequence[Any]], headers: Sequence[str], precision: int = 2
) -> str:
    """Render rows/headers as an aligned plain-text table."""
    str_rows = [[_fmt(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length must match headers")
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class ResultTable:
    """A named table of experiment results with provenance metadata."""

    name: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} values for table {self.name!r}, got {len(values)}"
            )
        self.rows.append(list(values))

    def to_text(self, precision: int = 2) -> str:
        header = f"== {self.name} =="
        body = format_table(self.rows, self.headers, precision=precision)
        if self.notes:
            return f"{header}\n{self.notes}\n{body}"
        return f"{header}\n{body}"

    def column(self, header: str) -> list[Any]:
        """Values of one column by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.headers, row)) for row in self.rows]
