"""One table type for every printed experiment result.

A :class:`Table` is declared once per harness, with no rows: a title,
its columns and any note lines printed above or below the rows.  A run
fills it (:meth:`Table.fill`) with one dict per row, keyed by column
name, and the named values its notes print.  Derived columns (a ratio, a
share) are computed from the row when it is filled, so every value a
caller reads is ``row[name]`` or ``table.values[name]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

__all__ = ["Column", "Table", "size_label"]


def size_label(nbytes: int) -> str:
    """``64B`` below a kilobyte, else whole ``KB``."""
    return f"{nbytes}B" if nbytes < 1024 else f"{nbytes // 1024}KB"


@dataclass(frozen=True)
class Column:
    """One column: its header is right-aligned to ``width``, and a cell
    prints as ``format(value, fmt) + unit``.  ``derive`` computes the
    value from the rest of the row; a column without it is measured."""

    name: str
    header: str = ""
    width: int = 0
    fmt: str = ""
    unit: str = ""
    derive: Optional[Callable[[dict], Any]] = None


@dataclass(frozen=True)
class Table:
    """A title, columns, notes and rows.

    The title and the notes are :meth:`str.format` templates over
    ``values``.  A table whose columns have no headers prints no header
    line; ``indent`` prefixes the header and every row.
    """

    title: str
    columns: Tuple[Column, ...]
    above: Tuple[str, ...] = ()
    below: Tuple[str, ...] = ()
    indent: str = ""
    rows: Tuple[dict, ...] = ()
    values: Dict[str, Any] = field(default_factory=dict)

    def fill(self, rows: Iterable[dict], **values) -> "Table":
        """This table with ``rows`` (derived columns computed) and ``values``."""
        filled = []
        for row in rows:
            row = dict(row)
            for column in self.columns:
                if column.derive is not None:
                    row[column.name] = column.derive(row)
            filled.append(row)
        return Table(
            self.title, self.columns, self.above, self.below, self.indent,
            tuple(filled), values,
        )

    def text(self) -> str:
        lines = [line.format(**self.values) for line in (self.title, *self.above)]
        if any(column.header for column in self.columns):
            lines.append(
                self.indent
                + " ".join(f"{c.header:>{c.width}}" for c in self.columns)
            )
        for row in self.rows:
            lines.append(
                self.indent
                + " ".join(format(row[c.name], c.fmt) + c.unit for c in self.columns)
            )
        lines.extend(line.format(**self.values) for line in self.below)
        return "\n".join(lines)
