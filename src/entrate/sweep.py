"""Deterministic parameter sweeps over 1-d or 2-d grids.

Grid points are pure computations, evaluated by a process pool when
jobs != 1 and emitted strictly in grid order, so the output is byte-stable
regardless of the worker count. Unstable points are flagged in the status
column rather than aborting the sweep, and so are points whose parameters
are invalid.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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


#: Fixed 17-significant-digit float formatting for byte-stable output; a C
#: method, so mapping it over a column makes no Python call per cell.
format_float = "%.17g".__mod__


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
    # formatted a column at a time: per-cell Python calls would dominate
    # the time of a 20k-row table
    out.writerows(zip(*(col if isinstance(col[0], str) else map(format_float, col)
                        for col in zip(*rows))))


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
        if self.steps < 2:
            raise ValueError("axis needs steps >= 2")
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
    output: str | None = None

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
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if "pair_rate" in self.quantities and self.model != "effective":
            raise ValueError("pair_rate is defined for the effective model only")
        if self.model == "effective" and any(a.name in ("Gamma", "n_th") for a in self.axes):
            raise ValueError("the effective model has no Gamma or n_th axis")

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        try:
            axes = [SweepAxis(**ax) for ax in doc["axes"]]
            return cls(model=doc["model"], fixed=dict(doc.get("fixed", {})),
                       axes=axes, quantities=list(doc["quantities"]),
                       tol=float(doc.get("tol", 1e-6)),
                       jobs=int(doc.get("jobs", 0)),
                       output=doc.get("output"))
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


def _build_params(model: str, fields: dict[str, float]):
    if model == "full":
        return models.FullModelParams(
            g=fields.get("g", 1.0), Gamma=fields.get("Gamma", 1e-3),
            kappa=fields.get("kappa", 1.0), Delta=fields.get("Delta", 0.0),
            delta=fields.get("delta", 0.0), n_th=fields.get("n_th", 0.0))
    return models.EffectiveModelParams(
        g=fields.get("g", 1.0), delta=fields.get("delta", 10.0),
        kappa=fields.get("kappa", 1.0), Delta=fields.get("Delta", 0.0))


def _eval_point(payload: tuple[str, dict[str, float], tuple[float, ...],
                               tuple[str, ...], tuple[str, ...], float]) -> SweepRow:
    model, fixed, axis_values, axis_names, quantities, tol = payload
    fields = dict(fixed)
    fields.update(zip(axis_names, axis_values))
    out: dict[str, float] = {}
    try:
        params = _build_params(model, fields)
    except ValueError as exc:
        return SweepRow(axis_values, out, f"failed: {exc}")
    try:
        drift = (models.drift_full(params) if model == "full"
                 else models.drift_effective(params))
        rep = models.stability(drift)
        if "stability_margin" in quantities:
            out["stability_margin"] = rep.max_real_part
        if not rep.stable:
            return SweepRow(axis_values, out, "unstable")
        n_th = fields.get("n_th", 0.0) if model == "full" else 0.0
        rate_fields = [q for q in ("E_max", "gamma_E", "fwhm") if q in quantities]
        if rate_fields:
            rr = rates.entanglement_rate(drift, n_th=n_th, tol=tol)
            out.update({q: getattr(rr, q) for q in rate_fields})
        if "pair_rate" in quantities:
            out["pair_rate"] = scattering.pair_rate_numeric(params)
        if "spectrum" in quantities:
            peak_w, peak_v = _spectrum_peak(drift, n_th)
            out["spectrum_peak"] = peak_v
            out["spectrum_peak_omega"] = peak_w
        return SweepRow(axis_values, out, "ok")
    except EntrateError as exc:
        return SweepRow(axis_values, out, f"failed: {exc}")


def _spectrum_peak(drift, n_th: float) -> tuple[float, float]:
    """Location and height of the maximum of the beam-1 output spectrum
    on the resonance-seeded probe grid of rates."""
    omegas = rates._probe_points(drift)
    optical, mechanical = scattering.spectrum_parts(drift, omegas, n_th)
    k = int(np.argmax(optical + mechanical))
    return float(omegas[k]), float(optical[k] + mechanical[k])


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate the grid; row order is the row-major product of axis values."""
    axis_values = [a.values() for a in config.axes]
    axis_names = tuple(a.name for a in config.axes)
    points: list[tuple[float, ...]] = []
    if len(axis_values) == 1:
        points = [(float(x),) for x in axis_values[0]]
    else:
        points = [(float(x), float(y)) for x in axis_values[0] for y in axis_values[1]]

    payloads = [(config.model, config.fixed, pt, axis_names,
                 tuple(config.quantities), config.tol) for pt in points]
    jobs = config.jobs if config.jobs > 0 else (os.cpu_count() or 1)
    if jobs == 1 or len(payloads) < 4:
        rows = [_eval_point(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_eval_point, payloads, chunksize=4))
    return SweepResult(config=config, rows=rows)
