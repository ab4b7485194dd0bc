"""Deterministic parameter sweeps over 1-d or 2-d grids.

A sweep builds the beam blocks of the valid grid points from the grid's
parameter columns in one models.beam_blocks call, passes them through
scattering.BeamBlocks.gate (one stacked k x k eigen-solve), and computes
the stable points' quantities in this process on the one
scattering.BeamBlocks the gate returns: the gated blocks stacked with
their eigenvalues, each the k x k block that models.drift_full or
drift_effective gives for its point alone, bit for bit. Each quantity runs
once per sweep on that problem axis: the rate fields in one rates._rates
call (its E-peak stage only for E_max or fwhm, and never the peak count,
which no column shows), the pair rates in one stacked solve and the
spectrum peaks in one rates.spectrum_peak call. Each gives a float64
array over the stable points, NaN where it fails, and its failures by
row. A batched value equals the one-point value bit for bit, so the rows,
emitted strictly in grid order, are byte-stable however the grid is split
into sweeps.

The result is columns: the batched arrays go into one NaN-filled column
per value column at the grid's stable points, the stability margins come
from the gate, and each point's status from its parameter error, the
gate, or the first failure of its quantities in column order. Unstable
points are flagged in the status column rather than aborting the sweep,
and so are points whose parameters are invalid or where a quantity fails
(the polynomials of E or of the spectrum overflow, or the spectrum peak's
height passes float64): the row keeps the quantities that succeeded, NaN
for the others. SweepResult.table, value_grid and write_csv read the
columns; SweepResult.rows, a SweepRow per point, is built on first use.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import IO, Sequence

import numpy as np

from . import models, rates, scattering

AXIS_NAMES = ("delta", "Delta", "n_th", "Gamma", "g")
QUANTITIES = ("stability_margin", "E_max", "gamma_E", "fwhm", "pair_rate", "spectrum")

#: Column units, appended as a " [kappa]" suffix where dimensionful.
_KAPPA_COLUMNS = {"delta", "Delta", "Gamma", "g", "stability_margin", "gamma_E",
                  "fwhm", "pair_rate", "spectrum_peak_omega", "omega"}

CSV_SCHEMA_LINE = "# schema=1"
#: Values for the parameters a model requires and a sweep config leaves out.
_DEFAULTS = {"full": {"g": 1.0, "Gamma": 1e-3}, "effective": {"g": 1.0, "delta": 10.0}}


#: Cells formatted and written at a time, as rows of the table's width: the
#: writer holds the text of one block, never the whole table's.
_BLOCK_CELLS = 10240


def write_table(fh: IO[str], header: list[str], columns: Sequence[Sequence[float | str]],
                fmt: str = "csv") -> None:
    """Write a table given as columns of equal length, one per header name
    (at least one, no two alike), as CSV or as JSON.

    CSV: a column holds strings or numbers, told apart by its first cell.
    The schema line, the header through csv.writer, then one line per row:
    numbers as "%.17g" writes them, strings quoted as csv.writer quotes
    them. JSON: byte for byte what json.dump(..., indent=2, default=float)
    writes for a list of one object per row, non-finite floats as its NaN,
    Infinity and -Infinity tokens, and "[]" for no rows; a column may hold
    any cells json.dump writes so.

    Both stream in blocks of _BLOCK_CELLS // (number of columns) rows (at
    least one), each turned into text at once (_block_text), so neither a
    dict or a string per cell nor the whole text is ever built."""
    n = len(columns[0])
    json_ = fmt == "json"
    if json_:
        if not n:
            fh.write("[]\n")
            return
        # each row starts with the "," that joins it to the one before
        literals = [("," if j else ",\n  {") + "\n    "
                    + json.encoder.encode_basestring_ascii(key) + ": "
                    for j, key in enumerate(header)] + ["\n  }"]
        quotes = [None] * len(columns)
    else:
        fh.write(CSV_SCHEMA_LINE + "\n")
        csv.writer(fh, lineterminator="\n").writerow(header)
        if not n:
            return
        literals = [""] + [","] * (len(columns) - 1) + ["\n"]
        # csv.writer quotes a row of one empty field, and no other empty field
        quote = _csv_cell if len(columns) > 1 else lambda s: _csv_cell(s) or '""'
        quotes = [quote if isinstance(col[0], str) else None for col in columns]
    rows = max(1, _BLOCK_CELLS // len(columns))
    # each literal as a block's column of rows, built once
    literals = [np.broadcast_to(np.frombuffer(b, np.uint8), (min(n, rows), len(b)))
                for b in (s.encode() for s in literals)]
    for i in range(0, n, rows):
        text = _block_text([col[i:i + rows] for col in columns], literals, quotes, json_)
        fh.write("[" + text[1:] if json_ and i == 0 else text)
    if json_:
        fh.write("\n]\n")


def _block_text(block: list[Sequence], literals: list[np.ndarray], quotes: list,
                json_: bool) -> str:
    """The text of a block of rows, given as columns: a byte matrix with
    one row per table row, holding each column's literal text (separator,
    or JSON's indent and key) and then its cell, left-aligned in zero
    bytes, which are dropped at the end. All of the block's float columns
    go through one floattext.float_slots call, and each spans only the byte
    places of the slot its cells use; a text column (csv-quoted, its NUL
    bytes carried as 0xff, a byte UTF-8 never uses) is formatted cell by
    cell."""
    rows = len(block[0])
    split = [_split_cells(cells, quote, json_) for cells, quote in zip(block, quotes)]
    floats = [c for c in split if isinstance(c, np.ndarray)]
    if floats:
        # imported on first use: the rate API, which `import entrate` also
        # loads, never writes a table
        from .floattext import SLOT, float_slots
        slots = float_slots(np.concatenate(floats), json_).reshape(len(floats), rows, SLOT)
        # from the first to the last byte place any cell of the column uses:
        # fewer zero bytes to drop (a number fills at most 23 of 32)
        used = np.bitwise_or.reduce(slots.view("<u8").transpose(0, 2, 1).copy(), axis=2)
        slots = iter(cells[:, places[0]:places[-1] + 1] for cells, places
                     in zip(slots, map(np.flatnonzero, used.view(np.uint8))))
    parts = []
    for literal, cells in zip(literals, split):
        parts.append(literal[:rows])
        if isinstance(cells, np.ndarray):
            parts.append(next(slots))
            continue
        raw = [t.encode("utf-8", "surrogatepass").replace(b"\0", b"\xff") for t in cells]
        width = max(map(len, raw))
        parts.append(np.frombuffer(b"".join(t.ljust(width, b"\0") for t in raw),
                                   np.uint8).reshape(rows, width))
    parts.append(literals[-1][:rows])
    flat = np.concatenate(parts, axis=1).ravel()
    text = flat[flat != 0]
    if len(floats) < len(split):
        text = text.tobytes().replace(b"\xff", b"\0")
    return str(text, "utf-8", "surrogatepass")


def _split_cells(cells: Sequence, quote, json_: bool) -> np.ndarray | list[str]:
    """A column's cells in a block: its floats for the kernel, or the text
    of each cell. A CSV column that is not text is numbers, which "%.17g"
    writes as their floats; a JSON column is floats (np.float64 too) only
    if every cell is one, as json.dump writes a float by float.__repr__ and
    each other cell otherwise."""
    if quote is not None:
        return [quote(c) for c in cells]
    if (not json_ or getattr(cells, "dtype", None) == np.float64
            or all(isinstance(c, float) for c in cells)):
        return np.asarray(cells, np.float64)
    return [json.dumps(c, default=float) for c in cells]


def _csv_cell(s: str) -> str:
    """A string cell as csv.writer writes it with "\\n" line ends: quoted
    when it holds a comma, a quote (doubled) or a newline."""
    if '"' in s:
        return '"' + s.replace('"', '""') + '"'
    return '"' + s + '"' if "," in s or "\n" in s else s


def _is_integer(value) -> bool:
    """An int, but not a bool (JSON true and false)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or a float, but not a bool: config values are checked, not
    coerced."""
    return _is_integer(value) or isinstance(value, (float, np.floating))


@dataclass(frozen=True)
class SweepAxis:
    name: str
    min: float
    max: float
    steps: int
    log: bool = False

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        if not _is_integer(self.steps):
            raise ValueError(f"axis {self.name} steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise ValueError("axis needs steps >= 2")
        for bound, value in (("min", self.min), ("max", self.max)):
            if not (_is_number(value) and math.isfinite(value)):
                raise ValueError(f"axis {self.name} {bound} must be finite, got {value!r}")
        if not self.min < self.max:
            raise ValueError("axis needs min < max")
        if not isinstance(self.log, (bool, np.bool_)):
            raise ValueError(f"axis {self.name} log must be true or false, got {self.log!r}")
        if self.log and self.min <= 0:
            raise ValueError("log axis needs min > 0")

    def values(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.min, self.max, self.steps)
        return np.linspace(self.min, self.max, self.steps)


@dataclass
class SweepConfig:
    model: str
    fixed: dict[str, float]
    axes: list[SweepAxis]
    quantities: list[str]
    tol: float = 1e-6
    # read by nothing in the package: kept, with its checks, only because
    # the benchmark's rate_map workload (perfbench/workloads.py) passes it
    jobs: int = 0

    def __post_init__(self):
        if self.model not in ("full", "effective"):
            raise ValueError(f"model must be 'full' or 'effective', got {self.model!r}")
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("sweeps support one or two axes")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("axis names must be distinct")
        unknown = [q for q in self.quantities if q not in QUANTITIES]
        if unknown:
            raise ValueError(f"unknown quantities {unknown}; allowed: {QUANTITIES}")
        if not self.quantities:
            raise ValueError("at least one quantity is required")
        if len(set(self.quantities)) != len(self.quantities):
            raise ValueError("quantities must be distinct")
        if not (_is_number(self.tol) and 0 < self.tol < math.inf):
            raise ValueError(f"tol must be a finite positive number, got {self.tol!r}")
        if not _is_integer(self.jobs):
            raise ValueError(f"jobs must be an integer, got {self.jobs!r}")
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")
        unknown = sorted(set(self.fixed) - models.PARAMETER_NAMES)
        if unknown:
            raise ValueError(f"unknown parameters {unknown} in fixed; "
                             f"allowed: {sorted(models.PARAMETER_NAMES)}")
        for name, value in self.fixed.items():
            # one non-finite parameter would fail every grid point
            if not (_is_number(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        # a fixed parameter that fails the model's rules would fail every point
        for name, test, message in models._CHECKS[models._MODELS[self.model]]:
            if name in self.fixed and name not in names and not test(self.fixed[name]):
                raise ValueError(message)
        if "pair_rate" in self.quantities and self.model != "effective":
            raise ValueError("pair_rate is defined for the effective model only")
        if self.model == "effective" and any(a.name in ("Gamma", "n_th") for a in self.axes):
            raise ValueError("the effective model has no Gamma or n_th axis")

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        try:
            unknown = sorted(set(doc) - {f.name for f in fields(cls)})
            if unknown:
                raise ValueError(f"unknown sweep config keys {unknown}")
            axes = [SweepAxis(**ax) for ax in doc["axes"]]
            fixed, quantities = doc.get("fixed", {}), doc["quantities"]
            # checked, not coerced: dict() and list() would take pairs and
            # the keys of an object
            if not isinstance(fixed, dict):
                raise ValueError(f"fixed must be an object of parameter values, got {fixed!r}")
            if not (isinstance(quantities, list)
                    and all(isinstance(q, str) for q in quantities)):
                raise ValueError(f"quantities must be a list of names, got {quantities!r}")
            return cls(model=doc["model"], fixed=dict(fixed), axes=axes,
                       quantities=list(quantities), tol=doc.get("tol", 1e-6),
                       jobs=doc.get("jobs", 0))
        except KeyError as exc:
            raise ValueError(f"sweep config is missing required field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed sweep config: {exc}") from exc

    @classmethod
    def from_json(cls, path: str) -> "SweepConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config {path}: line {exc.lineno}, col {exc.colno}: "
                                 f"{exc.msg}") from exc
        return cls.from_dict(doc)


@dataclass
class SweepRow:
    axis_values: tuple[float, ...]
    values: dict[str, float]
    status: str


@dataclass
class SweepResult:
    """The sweep's table as columns, one cell per grid point in row-major
    order: the axis values, each value column (NaN where unavailable), the
    status, and whether the point's parameters are valid."""
    config: SweepConfig
    axis_values: list[np.ndarray]
    values: dict[str, np.ndarray]
    status: list[str]
    valid: np.ndarray

    @functools.cached_property
    def rows(self) -> list[SweepRow]:
        """One SweepRow per grid point (_eval_point), built on first use."""
        cells = zip(*(c.tolist() for c in self.values.values()))
        return list(map(_eval_point, zip(*(c.tolist() for c in self.axis_values)),
                        repeat(list(self.values)), cells, self.valid.tolist(), self.status))

    def columns(self) -> list[str]:
        return [a.name for a in self.config.axes] + list(self.values)

    def header(self) -> list[str]:
        return [c + " [kappa]" if c in _KAPPA_COLUMNS else c for c in self.columns()]

    def table(self) -> tuple[list[str], list[Sequence[float | str]]]:
        """Header and columns, one cell per grid point: axis values,
        quantities (NaN where unavailable) and the status."""
        return self.header() + ["status"], [*self.axis_values, *self.values.values(), self.status]

    def write_csv(self, fh: IO[str]) -> None:
        """The table as CSV (a failure status with commas is quoted)."""
        write_table(fh, *self.table())

    def grid_shape(self) -> tuple[int, ...]:
        return tuple(a.steps for a in self.config.axes)

    def value_grid(self, quantity: str) -> np.ndarray:
        """Quantity as an array shaped like the grid (NaN where unavailable);
        ValueError unless it names a value column of the sweep."""
        if quantity not in self.values:
            raise ValueError(f"{quantity!r} is not a value column of this sweep; "
                             f"columns: {list(self.values)}")
        return self.values[quantity].reshape(self.grid_shape()).copy()


def _eval_point(axis_values: tuple, names: list, cells: tuple, valid: bool, status: str):
    """One grid point's SweepRow from its cells of the value columns names:
    its values are the cells that hold one, not NaN, and the stability
    margin of a point whose parameters are valid also where the gate could
    not solve its block (NaN)."""
    return SweepRow(axis_values, {c: v for c, v in zip(names, cells) if not math.isnan(v)
                                  or valid and c == "stability_margin"}, status)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate the grid; row order is the row-major product of axis values.
    The gated blocks of the stable points are one problem axis: the rate
    fields come from one rates._rates call (the E-peak stage only for E_max
    or fwhm; other fields than the columns ride along), the pair rates from
    scattering._pair_rate, which cannot fail at a stable point, and the
    spectrum peaks from one rates.spectrum_peak call. A point's status is
    its parameter error, the gate's failure or verdict, or the first
    failure of its quantities in column order."""
    grid = [c.ravel() for c in np.meshgrid(*(a.values() for a in config.axes), indexing="ij")]
    n, quantities = grid[0].size, config.quantities

    m, decay, n_th, errors = models.beam_blocks(config.model, {
        **_DEFAULTS[config.model], **config.fixed,
        **{a.name: c for a, c in zip(config.axes, grid)}})
    valid = np.delete(np.arange(n), list(errors))
    blocks, passed, margin, failures = scattering.BeamBlocks.gate(m, decay, n_th)
    stable = valid[passed]

    values = {c: np.full(n, np.nan) for q in quantities
              for c in (("spectrum_peak", "spectrum_peak_omega") if q == "spectrum" else (q,))}
    if "stability_margin" in values:
        values["stability_margin"][valid] = margin
    status = np.full(n, "unstable", dtype=object)
    status[stable] = "ok"
    for i, failure in [*errors.items(), *zip(valid[list(failures)], failures.values())]:
        status[i] = f"failed: {failure}"
    if stable.size:
        rated = {"E_max", "gamma_E", "fwhm"}.intersection(quantities)
        found, failed = rates._rates(blocks, config.tol, quantities) if rated else ({}, {})
        if "pair_rate" in quantities:
            found["pair_rate"] = scattering._pair_rate(blocks.m, blocks.decay)
        if "spectrum" in quantities:
            # the peak's omega fails with its height, whose column comes first
            omega, height, failed["spectrum_peak"] = rates.spectrum_peak(blocks)
            found.update(spectrum_peak=height, spectrum_peak_omega=omega)
        # the last column first: a row's status is its first failure in column order
        for c in reversed(values):
            if c in found:
                values[c][stable] = found[c]
            for j, exc in failed.get(c, {}).items():
                status[stable[j]] = f"failed: {exc}"
    return SweepResult(config, grid, values, status.tolist(), np.isin(np.arange(n), valid))
