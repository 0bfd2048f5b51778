"""Plain-text table rendering for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figure series and
prints it in the same row/column layout, so a reader can eyeball the shape
against the original.  This module owns the formatting so benches stay
focused on the experiment itself.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["format_table", "format_records", "format_series"]


def _render_cell(value: object, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Sequence[object]],
    headers: Sequence[str],
    title: Optional[str] = None,
    precision: int = 2,
) -> str:
    """Render rows as an aligned monospace table.

    Floats are formatted to ``precision`` decimals; everything else via
    ``str``.  Column widths adapt to content.
    """
    rendered: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, headers has {len(headers)}"
            )
        rendered.append([_render_cell(cell, precision) for cell in row])
    widths = [
        max(len(rendered[r][c]) for r in range(len(rendered)))
        for c in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        cell.ljust(width) for cell, width in zip(rendered[0], widths)
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered[1:]:
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def format_records(
    records: Iterable[Dict[str, object]],
    columns: Sequence[str],
    title: Optional[str] = None,
    precision: int = 2,
) -> str:
    """Render dict records (one per row) selecting ``columns`` in order."""
    rows = []
    for record in records:
        missing = [c for c in columns if c not in record]
        if missing:
            raise KeyError(f"record missing columns: {missing}")
        rows.append([record[c] for c in columns])
    return format_table(rows, columns, title, precision)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: Dict[str, Sequence[object]],
    title: Optional[str] = None,
    precision: int = 2,
) -> str:
    """Render figure-style data: one x column plus one column per series.

    This is the textual stand-in for the paper's line plots (Figures
    8-10): same x sweep, same curves, printed as columns.
    """
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} points, "
                f"x has {len(x_values)}"
            )
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [series[name][i] for name in series])
    return format_table(rows, headers, title, precision)
