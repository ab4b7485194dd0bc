"""Reference table writer on csv.writer and json.dump, the oracle that
entrate.sweep.write_table must match byte for byte."""

from __future__ import annotations

import csv
import json
from typing import IO, Sequence

from entrate.sweep import CSV_SCHEMA_LINE

#: CSV's number cells: 17 significant digits
format_float = "%.17g".__mod__


def write_table(fh: IO[str], header: list[str],
                columns: Sequence[Sequence[float | str]], fmt: str = "csv") -> None:
    """Write the columns under header as CSV (schema line, header, cells
    quoted only where they need it, numbers through format_float) or as a
    JSON list of one object per row. Each column holds strings or numbers."""
    rows = list(zip(*columns))
    if fmt == "json":
        json.dump([dict(zip(header, row)) for row in rows], fh, indent=2, default=float)
        fh.write("\n")
        return
    fh.write(CSV_SCHEMA_LINE + "\n")
    out = csv.writer(fh, lineterminator="\n")
    out.writerow(header)
    out.writerows(zip(*(col if isinstance(col[0], str) else map(format_float, col)
                        for col in zip(*rows))))
