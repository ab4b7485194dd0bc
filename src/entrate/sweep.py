"""Deterministic parameter sweeps over 1-d or 2-d grids.

A sweep builds the drift of every grid point, gates all of them on one
stacked eigen-solve (models.stability_batch), and computes the stable
points' quantities in contiguous chunks, one chunk per worker of a process
pool when jobs != 1: each chunk gets its rate fields from one batched
rates.entanglement_rates call (the problem axis), then its pair rates and
spectrum peaks point by point. A batched rate equals the one-point rate bit
for bit, so the rows, emitted strictly in grid order, are byte-stable
whatever the worker count and however the grid is split into sweeps.
Unstable points are flagged in the status column rather than aborting the
sweep, and so are points whose parameters are invalid or whose computation
fails.
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
from .errors import EntrateError

AXIS_NAMES = ("delta", "Delta", "n_th", "Gamma", "g")
QUANTITIES = ("stability_margin", "E_max", "gamma_E", "fwhm", "pair_rate", "spectrum")

#: Column units, appended as a " [kappa]" suffix where dimensionful.
_KAPPA_COLUMNS = {"delta", "Delta", "Gamma", "g", "stability_margin", "gamma_E",
                  "fwhm", "pair_rate", "spectrum_peak_omega", "omega"}

CSV_SCHEMA_LINE = "# schema=1"
#: Values for the parameters a model requires and a sweep config leaves out.
_DEFAULTS = {"full": {"g": 1.0, "Gamma": 1e-3}, "effective": {"g": 1.0, "delta": 10.0}}


#: Fixed 17-significant-digit float formatting of the number cells of CSV
#: output, byte-stable.
FLOAT_FORMAT = "%.17g"
format_float = FLOAT_FORMAT.__mod__

#: Rows formatted and written at a time: the writer holds the text of one
#: block, never the whole table's.
_BLOCK_ROWS = 2048
#: JSON's tokens for the floats that float.__repr__ writes as nan and +-inf.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_table(fh: IO[str], header: list[str],
                rows: Sequence[Sequence[float | str]], fmt: str = "csv") -> None:
    """Write rows under header (at least one column) as CSV or as JSON.
    Each column holds strings or numbers, told apart by the first row.

    CSV: the schema line, the header through csv.writer, then one line per
    row: numbers as format_float writes them, strings quoted as csv.writer
    quotes them. JSON: byte for byte what json.dump(..., indent=2,
    default=float) writes for a list of one object per row, non-finite
    floats as its NaN, Infinity and -Infinity tokens, and "[]" for no rows.

    Both stream: every block of _BLOCK_ROWS rows is formatted column by
    column, joined by one row template (one C-level % per row) and written
    at once, so neither a dict per row nor the whole text is ever built."""
    if fmt == "json":
        if not rows:
            fh.write("[]\n")
            return
        # as in dict(zip(header, row)): a repeated key keeps its first place
        # and its last column
        keys = {key: i for i, key in enumerate(header)}
        template = "\n  {" + ",".join(
            "\n    " + json.encoder.encode_basestring_ascii(key).replace("%", "%%") + ": %s"
            for key in keys) + "\n  }"

        def cells(block):
            cols = list(zip(*block))
            return zip(*(_json_column(cols[i]) for i in keys.values()))
        lead, sep, tail = "[", ",", "\n]\n"
    else:
        fh.write(CSV_SCHEMA_LINE + "\n")
        csv.writer(fh, lineterminator="\n").writerow(header)
        if not rows:
            return
        text = [isinstance(c, str) for c in rows[0]]
        template = ",".join("%s" if t else FLOAT_FORMAT for t in text) + "\n"
        # csv.writer quotes a row of one empty field, and no other empty field
        quote = _csv_cell if len(text) > 1 else lambda s: _csv_cell(s) or '""'

        def cells(block):
            return zip(*(map(quote, col) if t else col for t, col in zip(text, zip(*block))))
        lead = sep = tail = ""
    for i in range(0, len(rows), _BLOCK_ROWS):
        fh.write(lead if i == 0 else sep)
        fh.write(sep.join(map(template.__mod__, cells(rows[i:i + _BLOCK_ROWS]))))
    fh.write(tail)


def _csv_cell(s: str) -> str:
    """A string cell as csv.writer writes it with "\\n" line ends: quoted
    when it holds a comma, a quote (doubled) or a newline."""
    if '"' in s:
        return '"' + s.replace('"', '""') + '"'
    return '"' + s + '"' if "," in s or "\n" in s else s


def _json_column(col: Sequence) -> list[str]:
    """A column's cells as json.dump(..., default=float) writes them: a
    column of floats through float.__repr__ and the non-finite tokens,
    any other cell by cell through json.dumps."""
    try:
        cells = list(map(float.__repr__, col))
    except TypeError:       # strings, ints or other numbers
        return [json.dumps(c, default=float) for c in col]
    if not _JSON_NONFINITE.keys().isdisjoint(cells):
        cells = [_JSON_NONFINITE.get(c, c) for c in cells]
    return cells


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
            return cls(model=doc["model"], fixed=dict(doc.get("fixed", {})),
                       axes=axes, quantities=list(doc["quantities"]),
                       tol=doc.get("tol", 1e-6), jobs=doc.get("jobs", 0))
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
        """Header and one row per grid point: axis values, quantities (NaN
        where unavailable) and the status."""
        quantities = self.columns()[len(self.config.axes):]
        return self.header() + ["status"], [
            [*row.axis_values, *(row.values.get(c, math.nan) for c in quantities), row.status]
            for row in self.rows]

    def write_csv(self, fh: IO[str]) -> None:
        """The table as CSV (a failure status with commas is quoted)."""
        write_table(fh, *self.table())

    def grid_shape(self) -> tuple[int, ...]:
        return tuple(a.steps for a in self.config.axes)

    def value_grid(self, quantity: str) -> np.ndarray:
        """Quantity as an array shaped like the grid (NaN where unavailable)."""
        vals = np.array([row.values.get(quantity, math.nan) for row in self.rows])
        return vals.reshape(self.grid_shape())


def _eval_chunk(payload: tuple[tuple[str, ...], float,
                               list[tuple[models.DriftMatrix, float, models.StabilityReport]]],
                ) -> list[dict[str, float] | str]:
    """The quantities of a contiguous chunk of stable points, each given as
    (drift, n_th, stability report): the rate fields from one batched rate
    call, then pair rate and spectrum peak per point. A point whose
    computation fails gets its `failed: ...` status instead."""
    quantities, tol, points = payload
    drifts, n_ths, reports = zip(*points)
    rate_fields = [q for q in ("E_max", "gamma_E", "fwhm") if q in quantities]
    results = (rates.entanglement_rates(drifts, n_ths, tol, reports=reports)
               if rate_fields else [None] * len(points))
    out: list[dict[str, float] | str] = []
    for (drift, n_th, rep), rr in zip(points, results):
        try:
            if isinstance(rr, Exception):
                raise rr
            values = {q: getattr(rr, q) for q in rate_fields}
            if "pair_rate" in quantities:
                values["pair_rate"] = scattering._pair_rate(drift)
            if "spectrum" in quantities:
                values["spectrum_peak_omega"], values["spectrum_peak"] = rates.spectrum_peak(
                    drift, n_th, rep.eigenvalues)
            out.append(values)
        except EntrateError as exc:
            out.append(f"failed: {exc}")
    return out


def _eval_point(axis_values: tuple[float, ...], quantities: tuple[str, ...],
                rep: models.StabilityReport | None,
                computed: dict[str, float] | str | None) -> SweepRow:
    """One grid point's row from its stability report (None for invalid
    parameters) and what its chunk computed: its quantities, or a failure
    status (also that of invalid parameters)."""
    out: dict[str, float] = {}
    if rep is not None and "stability_margin" in quantities:
        out["stability_margin"] = rep.max_real_part
    if isinstance(computed, str):
        return SweepRow(axis_values, out, computed)
    if not rep.stable:
        return SweepRow(axis_values, out, "unstable")
    out.update(computed)
    return SweepRow(axis_values, out, "ok")


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate the grid; row order is the row-major product of axis values."""
    axis_values = [a.values() for a in config.axes]
    axis_names = tuple(a.name for a in config.axes)
    points: list[tuple[float, ...]] = []
    if len(axis_values) == 1:
        points = [(float(x),) for x in axis_values[0]]
    else:
        points = [(float(x), float(y)) for x in axis_values[0] for y in axis_values[1]]
    quantities = tuple(config.quantities)

    computed: dict[int, dict[str, float] | str] = {}
    valid: dict[int, tuple[models.DriftMatrix, float]] = {}
    params = {**_DEFAULTS[config.model], **config.fixed}
    for i, pt in enumerate(points):
        params.update(zip(axis_names, pt))
        try:
            valid[i] = models.build_drift(config.model, params)
        except ValueError as exc:
            computed[i] = f"failed: {exc}"
    reports = dict(zip(valid, models.stability_batch([v[0] for v in valid.values()])))

    todo = [i for i in valid if reports[i].stable]
    jobs = min(config.jobs if config.jobs > 0 else (os.cpu_count() or 1), len(todo))
    payloads = [(quantities, config.tol, [(*valid[i], reports[i]) for i in chunk])
                for chunk in np.array_split(todo, max(jobs, 1)) if chunk.size]
    if jobs <= 1 or len(todo) < 4:
        chunks = [_eval_chunk(p) for p in payloads]
    else:
        # imported here: only a pooled sweep needs it, and it is a fifth of
        # the package's import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_eval_chunk, payloads))
    computed.update(zip(todo, (c for chunk in chunks for c in chunk)))
    rows = [_eval_point(pt, quantities, reports.get(i), computed.get(i))
            for i, pt in enumerate(points)]
    return SweepResult(config=config, rows=rows)
