"""Reference table writer on csv.writer and json.dump, the oracle that
entrate.sweep.write_table must match byte for byte."""

from __future__ import annotations

import csv
import json
from typing import IO, Sequence

from entrate.sweep import CSV_SCHEMA_LINE, format_float


def write_table(fh: IO[str], header: list[str],
                rows: Sequence[Sequence[float | str]], fmt: str = "csv") -> None:
    """Write rows under header as CSV (schema line, header, cells quoted
    only where they need it, numbers through format_float) or as a JSON
    list of one object per row. Each column holds strings or numbers."""
    if fmt == "json":
        json.dump([dict(zip(header, row)) for row in rows], fh, indent=2, default=float)
        fh.write("\n")
        return
    fh.write(CSV_SCHEMA_LINE + "\n")
    out = csv.writer(fh, lineterminator="\n")
    out.writerow(header)
    out.writerows(zip(*(col if isinstance(col[0], str) else map(format_float, col)
                        for col in zip(*rows))))
