"""Deterministic parameter sweeps over 1-d or 2-d grids.

A sweep builds the beam blocks of the valid grid points from the grid's
parameter columns in one models.beam_blocks call, passes them through
scattering.BeamBlocks.gate (one stacked k x k eigen-solve), and computes
the stable points' quantities in contiguous chunks, one chunk per worker
of a process pool when jobs != 1. A chunk is one scattering.BeamBlocks
(the gated blocks with their eigenvalues; no DriftMatrix is built), and each
quantity runs once per chunk on that problem axis: the rate fields in one
rates._rates call, the pair rates in one stacked solve and the spectrum
peaks in one rates.spectrum_peak call. A batched value equals the
one-point value bit for bit, so the rows, emitted strictly in grid order,
are byte-stable whatever the worker count and however the grid is split
into sweeps. Unstable points are flagged in the status column rather than
aborting the sweep, and so are points whose parameters are invalid or
whose computation fails.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields
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


#: Rows formatted and written at a time: the writer holds the text of one
#: block, never the whole table's.
_BLOCK_ROWS = 2048


def write_table(fh: IO[str], header: list[str], columns: Sequence[Sequence[float | str]],
                fmt: str = "csv") -> None:
    """Write a table given as columns of equal length, one per header name
    (at least one), as CSV or as JSON. A column holds strings or numbers,
    told apart by its first cell.

    CSV: the schema line, the header through csv.writer, then one line per
    row: numbers as "%.17g" writes them, strings quoted as csv.writer
    quotes them. JSON: byte for byte what json.dump(..., indent=2,
    default=float) writes for a list of one object per row, non-finite
    floats as its NaN, Infinity and -Infinity tokens, and "[]" for no rows.

    Both stream in blocks of _BLOCK_ROWS rows, each turned into text at
    once (_block_text), so neither a dict or a string per cell nor the
    whole text is ever built."""
    n = len(columns[0])
    json_ = fmt == "json"
    if json_:
        if not n:
            fh.write("[]\n")
            return
        # as in dict(zip(header, row)): a repeated key keeps its first place
        # and its last column
        keys = {key: i for i, key in enumerate(header)}
        columns = [columns[i] for i in keys.values()]
        # each row starts with the "," that joins it to the one before
        literals = [("," if j else ",\n  {") + "\n    "
                    + json.encoder.encode_basestring_ascii(key) + ": "
                    for j, key in enumerate(keys)] + ["\n  }"]
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
    # each literal as a block's column of rows, built once
    literals = [np.broadcast_to(np.frombuffer(b, np.uint8), (min(n, _BLOCK_ROWS), len(b)))
                for b in (s.encode() for s in literals)]
    for i in range(0, n, _BLOCK_ROWS):
        text = _block_text([col[i:i + _BLOCK_ROWS] for col in columns], literals, quotes, json_)
        fh.write("[" + text[1:] if json_ and i == 0 else text)
    if json_:
        fh.write("\n]\n")


def _block_text(block: list[Sequence], literals: list[np.ndarray], quotes: list,
                json_: bool) -> str:
    """The text of a block of rows, given as columns: a byte matrix with
    one row per table row, holding each column's literal text (separator,
    or JSON's indent and key) and then its cell, left-aligned in zero
    bytes, which are dropped at the end. All of the block's floats go
    through one floattext.float_slots call, and a float column spans only
    the byte places of the slot its cells use; strings (csv-quoted, their
    NUL bytes carried as 0xff, a byte UTF-8 never uses) and JSON's other
    cells are formatted cell by cell."""
    rows = len(block[0])
    split = [_split_cells(cells, quote, json_) for cells, quote in zip(block, quotes)]
    floats = [f for f, _ in split if f is not None]
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
    for literal, (f, texts) in zip(literals, split):
        parts.append(literal[:rows])
        cells = None if f is None else next(slots)
        if texts is not None:
            raw = [b"" if t is None else t.encode("utf-8", "surrogatepass").replace(b"\0", b"\xff")
                   for t in texts]
            width = max(max(map(len, raw)), 0 if cells is None else cells.shape[1])
            matrix = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in raw),
                                   np.uint8).reshape(rows, width)
            if cells is not None:
                matrix = matrix.copy()
                kernel = np.array([t is None for t in texts])
                matrix[kernel, :cells.shape[1]] = cells[kernel]
            cells = matrix
        parts.append(cells)
    parts.append(literals[-1][:rows])
    flat = np.concatenate(parts, axis=1).ravel()
    text = flat[flat != 0]
    if any(texts is not None for _, texts in split):
        text = text.tobytes().replace(b"\xff", b"\0")
    return str(text, "utf-8", "surrogatepass")


def _split_cells(cells: Sequence, quote, json_: bool) -> tuple[np.ndarray | None,
                                                                list[str | None] | None]:
    """A column's cells in a block as the floats for the kernel and the
    texts of the other cells (None where a float is), either None when it
    has no such cells."""
    if quote is not None:
        return None, [quote(c) for c in cells]
    if isinstance(cells, np.ndarray) and cells.dtype == np.float64:
        return cells, None
    if not json_:
        values = np.asarray(cells)
        if values.dtype.kind in "biuf":
            return values.astype(np.float64), None
        return None, ["%.17g" % c for c in cells]
    # json.dump writes a float (np.float64 too) by float.__repr__
    is_float = [isinstance(c, float) for c in cells]
    if all(is_float):
        return np.array(cells, np.float64), None
    texts = [None if t else json.dumps(c, default=float) for c, t in zip(cells, is_float)]
    if not any(is_float):
        return None, texts
    return np.array([c if t else 0.0 for c, t in zip(cells, is_float)]), texts


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
    jobs: int = 0          # 0 = all available cores

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
            raise ValueError(f"jobs must be >= 0 (0 = all cores), got {self.jobs}")
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
    config: SweepConfig
    rows: list[SweepRow] = field(default_factory=list)

    def columns(self) -> list[str]:
        cols = [a.name for a in self.config.axes]
        for q in self.config.quantities:
            if q == "spectrum":
                cols += ["spectrum_peak", "spectrum_peak_omega"]
            else:
                cols.append(q)
        return cols

    def header(self) -> list[str]:
        return [c + " [kappa]" if c in _KAPPA_COLUMNS else c for c in self.columns()]

    def table(self) -> tuple[list[str], list[list[float | str]]]:
        """Header and columns, one cell per grid point: axis values,
        quantities (NaN where unavailable) and the status."""
        quantities = self.columns()[len(self.config.axes):]
        return self.header() + ["status"], [
            *([row.axis_values[i] for row in self.rows] for i in range(len(self.config.axes))),
            *([row.values.get(c, math.nan) for row in self.rows] for c in quantities),
            [row.status for row in self.rows]]

    def write_csv(self, fh: IO[str]) -> None:
        """The table as CSV (a failure status with commas is quoted)."""
        write_table(fh, *self.table())

    def grid_shape(self) -> tuple[int, ...]:
        return tuple(a.steps for a in self.config.axes)

    def value_grid(self, quantity: str) -> np.ndarray:
        """Quantity as an array shaped like the grid (NaN where unavailable)."""
        vals = np.array([row.values.get(quantity, math.nan) for row in self.rows])
        return vals.reshape(self.grid_shape())


def _eval_chunk(payload: tuple[tuple[str, ...], float, scattering.BeamBlocks],
                ) -> list[dict[str, float] | str]:
    """The quantities of a contiguous chunk of stable points, given as
    their beam blocks, each quantity from one batched call over the chunk:
    the rate fields from rates._rates, the pair rates from
    scattering._pair_rate and the spectrum peaks from rates.spectrum_peak.
    A point whose rate fails gets its `failed: ...` status instead; the
    pair rate and the spectrum peak cannot fail at a stable point."""
    quantities, tol, blocks = payload
    rate_fields = [q for q in ("E_max", "gamma_E", "fwhm") if q in quantities]
    columns: dict[str, list[float]] = {}
    if "pair_rate" in quantities:
        columns["pair_rate"] = scattering._pair_rate(blocks.m, blocks.decay).tolist()
    if "spectrum" in quantities:
        omega, height = rates.spectrum_peak(blocks)
        columns["spectrum_peak_omega"], columns["spectrum_peak"] = omega.tolist(), height.tolist()
    results = rates._rates(blocks, tol) if rate_fields else [None] * len(blocks)
    return [f"failed: {rr}" if isinstance(rr, Exception) else
            {**{q: getattr(rr, q) for q in rate_fields}, **{c: v[i] for c, v in columns.items()}}
            for i, rr in enumerate(results)]


def _eval_point(axis_values: tuple[float, ...], quantities: tuple[str, ...],
                margin: float | None, computed: dict[str, float] | str | None) -> SweepRow:
    """One grid point's row from its stability margin (None for invalid
    parameters) and what its chunk computed: its quantities, a failure
    status (also that of invalid parameters), or None where it is not
    stable."""
    out: dict[str, float] = {}
    if margin is not None and "stability_margin" in quantities:
        out["stability_margin"] = margin
    if isinstance(computed, str):
        return SweepRow(axis_values, out, computed)
    if computed is None:
        return SweepRow(axis_values, out, "unstable")
    out.update(computed)
    return SweepRow(axis_values, out, "ok")


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate the grid; row order is the row-major product of axis values."""
    grid = [c.ravel() for c in np.meshgrid(*(a.values() for a in config.axes), indexing="ij")]
    points = list(zip(*(c.tolist() for c in grid)))
    quantities = tuple(config.quantities)

    m, decay, n_th, errors = models.beam_blocks(config.model, {
        **_DEFAULTS[config.model], **config.fixed,
        **{a.name: c for a, c in zip(config.axes, grid)}})
    valid = np.delete(np.arange(len(points)), list(errors))
    blocks, stable, margin, failures = scattering.BeamBlocks.gate(m, decay, n_th)
    computed: dict[int, dict[str, float] | str] = {
        i: f"failed: {message}" for i, message in errors.items()}
    # an unstable point has no entry: its row says so
    computed.update((valid[j].item(), f"failed: {exc}") for j, exc in failures.items())
    # jobs = 0: the CPUs this process may run on
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    jobs = min(config.jobs if config.jobs > 0 else cores, stable.size)
    payloads = [(quantities, config.tol, blocks.take(c))
                for c in np.array_split(np.arange(stable.size), max(jobs, 1)) if c.size]
    if jobs <= 1 or stable.size < 4:
        results = [_eval_chunk(p) for p in payloads]
    else:
        # imported here: only a pooled sweep needs it, and it is a fifth of
        # the package's import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_eval_chunk, payloads))
    computed.update(zip(valid[stable].tolist(), (c for chunk in results for c in chunk)))
    margin_of = dict(zip(valid.tolist(), margin.tolist()))
    rows = [_eval_point(pt, quantities, margin_of.get(i), computed.get(i))
            for i, pt in enumerate(points)]
    return SweepResult(config=config, rows=rows)
