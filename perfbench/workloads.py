"""The benchmark's three workloads.

Each workload makes its inputs from the seed, runs closed-loop passes with
one caller (the next call starts when the previous one returns) against the
public API of ``entrate``, and checks a pass's outputs afterwards, outside
the timed region, against the extended-precision reference in ``oracle``
and against the program's output contracts.

A pass returns per-call wall times and comparable outputs.  ``check``
turns the outputs into operations for the ``Ledger``: each operation is
attempted once and fails for zero or more reasons.
"""

from __future__ import annotations

import csv
import io
import json
import bisect
import math
import os
import random
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import mpmath as mp
import numpy as np

import oracle

TOL = 1e-6                      # entanglement_rate tolerance on Gamma_E
EPS = float(np.finfo(float).eps)
# E must match the reference to six significant digits ...
E_RTOL, E_ATOL = 1e-6, 1e-9
# ... and a miss larger than this multiple of eps * n+ n- / q (the float64
# cancellation of q = n+ n- - |xi|^2) is not explained by that cancellation;
# measured misses stay below 7 of these units
CANCEL_UNITS = 64
SPEC_RTOL, SPEC_ATOL = 1e-9, 1e-12   # beam-1 output spectrum vs reference
MARGIN_RTOL, MARGIN_ATOL = 1e-9, 1e-12
REASONS = ("raised", "tol_miss", "oracle_mismatch", "output_mismatch")


class Ledger:
    """Attempted and failed operations, failures by reason, and the errors
    that make a run incorrect (a broken output contract, an exception
    outside the package's own error types, a deviation from the reference
    that float64 cancellation cannot explain, outputs that change between
    passes or under tracing)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_reason = Counter({r: 0 for r in REASONS})
        self.errors: list[str] = []
        self.examples: list[str] = []

    def op(self, reasons=(), detail: str = "") -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.by_reason.update(set(reasons))
            if len(self.examples) < 12:
                self.examples.append(f"{'+'.join(sorted(set(reasons)))}: {detail}")

    def error(self, msg: str) -> None:
        self.errors.append(msg)


@dataclass
class Op:
    """One checked operation: its failure reasons and a description.
    `every_pass` is false for an operation that only the first pass makes."""
    detail: str
    reasons: set = field(default_factory=set)
    every_pass: bool = True


@dataclass
class Pass:
    wall: float                                   # the whole pass
    walls: dict[str, list[tuple[float, float]]]   # (start, end) per call, by kind
    outputs: object                               # compared across passes by repr
    extra: object = None                          # kept for the checks only
    digest: str = ""                              # of repr(outputs)


PROBE_PERIOD_S = 0.5
PROBE_REF_S = 4e-3      # the probe's time on the reference machine, unloaded


class Meter:
    """Times program calls and probes the machine's speed next to them.

    The machine may be shared: on the 2-vCPU VM this benchmark was built
    on, the same code runs up to 1.8x slower for stretches of seconds to a
    minute, so raw wall times of two runs differ by 20-30 % at the quartiles.
    A fixed probe that does not use the program (stacked 6x6 complex
    inverses and a Python loop, ~4 ms) runs before and after calls, at most
    every PROBE_PERIOD_S.  `ref_s` rescales a call's wall time by
    PROBE_REF_S / (mean probe time around the call): the call's time at the
    reference speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 6, 6)) + 1j * rng.standard_normal((64, 6, 6))
        self.probes: list[tuple[float, float]] = []     # (time taken, probe seconds)

    def _probe(self) -> None:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(20):
                np.linalg.inv(self._a)
                sum(range(2000))
            times.append(time.perf_counter() - t0)
        self.probes.append((time.perf_counter(), statistics.median(times)))

    def _maybe_probe(self) -> None:
        if not self.probes or time.perf_counter() - self.probes[-1][0] >= PROBE_PERIOD_S:
            self._probe()

    def run(self, walls: list, fn, *args, tracer=None, label: str = ""):
        """fn(*args), timed into walls (inside a span when tracing)."""
        self._maybe_probe()
        t0 = time.perf_counter()
        if tracer is None:
            result = fn(*args)
        else:
            with tracer.span("bench.op", label=label):
                result = fn(*args)
        walls.append((t0, time.perf_counter()))
        self._maybe_probe()
        return result

    def ref_s(self, span: tuple[float, float]) -> float:
        """Wall time of a call at the reference speed."""
        t0, t1 = span
        times = [t for t, _ in self.probes]
        before = self.probes[max(bisect.bisect_right(times, t0) - 1, 0)][1]
        after = self.probes[min(bisect.bisect_left(times, t1), len(times) - 1)][1]
        return (t1 - t0) * PROBE_REF_S / (0.5 * (before + after))


def wall(span: tuple[float, float]) -> float:
    return span[1] - span[0]


def call(fn, *args):
    """Run one program call: (result, None) or (None, failure text).

    A documented package error is an outcome to count; anything else is a
    program crash, reported with its traceback.  The last argument is the
    package's base error type."""
    *args, errors_type = args
    try:
        return fn(*args), None
    except errors_type as exc:
        return None, f"{type(exc).__name__}: {exc}"
    except Exception:  # noqa: BLE001 - a crash must not stop the accounting
        return None, "CRASH " + traceback.format_exc(limit=4)


def check_e(op: Op, errors: list, value: float, model: str, p: dict,
            omega: float, what: str) -> oracle.Point:
    """Compare one E value with the reference; mark op and errors."""
    ref = oracle.point(model, p, omega)
    dev = abs(value - ref.E) if math.isfinite(value) else math.inf
    tight = E_ATOL + E_RTOL * ref.E
    if dev > tight:
        op.reasons.add("oracle_mismatch")
        if dev > max(tight, CANCEL_UNITS * EPS * ref.cancel):
            errors.append(f"{what}: E={value!r} vs reference {ref.E!r} at omega={omega!r} "
                          f"exceeds the float64 cancellation bound")
    return ref


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """The highest whole percentile with at least ten samples beyond it
    (the maximum when there are ten samples or fewer), its value and n."""
    n = len(values)
    p = max(0, math.floor(100 * (1 - 10 / n))) if n > 10 else 100
    return p, float(np.percentile(values, p)), n


def per_call(meter: Meter, passes: list["Pass"], kind: str) -> list[float]:
    """Per call of this kind, the median over passes of its reference time."""
    return [statistics.median(map(meter.ref_s, spans))
            for spans in zip(*(ps.walls[kind] for ps in passes))]


def _log(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _lhs(rng: random.Random, n: int, dims: int) -> list[tuple[float, ...]]:
    """Latin-hypercube sample: every dimension hits each of n strata once,
    so the spread of inputs (and of their cost) barely depends on the seed."""
    cols = []
    for _ in range(dims):
        perm = list(range(n))
        rng.shuffle(perm)
        cols.append([(k + rng.random()) / n for k in perm])
    return list(zip(*cols))


def margin(model: str, p: dict) -> float:
    """Largest drift eigenvalue real part, from the benchmark's own drift."""
    with mp.workdps(20):
        m, _ = oracle.drift(model, p)
        a = np.array(m.tolist(), dtype=complex)
    return float(np.max(np.linalg.eigvals(a).real))


def _edge(model: str, p: dict, key: str, stable: float, unstable: float) -> float:
    """Stable-side end of the stability boundary in p[key], by bisection."""
    for _ in range(60):
        mid = 0.5 * (stable + unstable)
        if margin(model, {**p, key: mid}) < 0:
            stable = mid
        else:
            unstable = mid
    return stable


# -- rate_points ---------------------------------------------------------------

ANCHOR = ("anchor", "full", {"g": 5.0, "Gamma": 1e-3, "delta": 0.0, "Delta": 0.0, "n_th": 0.0})
N_GENERIC, N_HIGH_C, N_NEAR = 48, 8, 8


def _generic(rng: random.Random, n: int) -> list[tuple[str, str, dict]]:
    out = []
    half = n // 2
    for u in _lhs(rng, half, 5):
        while True:
            gamma = _log(u[1], 1e-3, 0.3)
            p = {"g": math.sqrt(_log(u[0], 1.0, 3e4) * gamma), "Gamma": gamma,
                 "delta": -15 + 30 * u[2], "Delta": -1.5 + 3 * u[3],
                 "n_th": 0.0 if u[4] < 0.5 else _log(2 * u[4] - 1, 1.0, 1e3)}
            if margin("full", p) < 0:
                break
            u = tuple(rng.random() for _ in range(5))
        out.append(("generic", "full", p))
    for u in _lhs(rng, n - half, 4):
        while True:
            p = {"g": 0.5 + 5.5 * u[0], "delta": (2 + 28 * u[1]) * (1 if u[2] < 0.5 else -1),
                 "Delta": -1 + 2 * u[3]}
            if margin("effective", p) < 0:
                break
            u = tuple(rng.random() for _ in range(4))
        out.append(("generic", "effective", p))
    return out


def _high_c(n: int) -> list[tuple[str, str, dict]]:
    """Near double resonance: C in 3e3..1e5, |delta| <= 0.05, Delta in the
    stable part of |Delta| <= 0.005 (an interval around 0 that narrows like
    C^-1/2).

    A fixed grid, not a seeded draw: above C ~ 2.4e4 each such point either
    raises at once or spends ~2 s refining float64 noise, which of the two
    is erratic in the inputs, so a seeded draw would make the run time a
    lottery between seeds.  log C is evenly spaced; (delta, Delta) follow
    the R2 low-discrepancy sequence."""
    a1, a2 = 1 / 1.32471795724475, 1 / 1.32471795724475 ** 2
    out = []
    for k in range(n):
        gamma = 1e-3
        p = {"g": math.sqrt(_log((k + 0.5) / n, 3e3, 1e5) * gamma), "Gamma": gamma,
             "delta": -0.05 + 0.1 * ((0.5 + k * a1) % 1), "Delta": 0.0, "n_th": 0.0}
        if margin("full", p) >= 0:
            raise RuntimeError(f"high-C input unstable at Delta=0: {p}")
        ends = [d if margin("full", {**p, "Delta": d}) < 0 else _edge("full", p, "Delta", 0.0, d)
                for d in (-0.005, 0.005)]
        out.append(("high_c", "full",
                    {**p, "Delta": ends[0] + (ends[1] - ends[0]) * ((0.5 + k * a2) % 1)}))
    return out


def _near_boundary(rng: random.Random, n: int) -> list[tuple[str, str, dict]]:
    """Within 1e-5..1e-1 (in Delta) of the optical instability boundary at
    g=5, delta=10, on both edges of the unstable Delta band, both models."""
    g, delta = 5.0, 10.0
    b = g * g / (2 * delta)
    root = math.sqrt(b * b - 1.0)
    eff_edges = ((-b + root) / 2, (-b - root) / 2)          # inner, outer
    full_p = {"g": g, "Gamma": 1e-3, "delta": delta, "Delta": 0.0, "n_th": 0.0}
    full_edges = (_edge("full", full_p, "Delta", -0.1, -0.5),
                  _edge("full", full_p, "Delta", -1.5, -0.5))
    out = []
    for k, u in enumerate(_lhs(rng, n, 2)):
        model = "full" if k % 2 == 0 else "effective"
        edges = full_edges if model == "full" else eff_edges
        d = _log(u[0], 1e-5, 1e-1)
        Delta = edges[0] + d if u[1] < 0.5 else edges[1] - d
        p = {**full_p, "Delta": Delta} if model == "full" else {"g": g, "delta": delta, "Delta": Delta}
        out.append(("near_boundary", model, p))
    return out


def rate_point_set(seed: int) -> list[tuple[str, str, dict]]:
    """The anchor, then the generic, high-C and near-boundary strata in a
    seeded order."""
    rng = random.Random(seed)
    pts = _generic(rng, N_GENERIC) + _high_c(N_HIGH_C) + _near_boundary(rng, N_NEAR)
    rng.shuffle(pts)
    return [ANCHOR] + pts


class RatePoints:
    name = "rate_points"

    def __init__(self, et, seed: int, workdir: Path):
        self.et = et
        self.meter = Meter()
        self.points = rate_point_set(seed)

    def _rate(self, model: str, p: dict):
        models, rates = self.et.models, self.et.rates
        if model == "full":
            d = models.drift_full(models.FullModelParams(**p))
            return rates.entanglement_rate(d, n_th=p["n_th"], tol=TOL)
        d = models.drift_effective(models.EffectiveModelParams(**p))
        return rates.entanglement_rate(d, n_th=0.0, tol=TOL)

    def run_pass(self, tracer=None, pooled: bool = True) -> Pass:
        walls, outputs = [], []
        start = time.perf_counter()
        for stratum, model, p in self.points:
            rr, err = self.meter.run(walls, call, self._rate, model, p, self.et.EntrateError,
                                     tracer=tracer, label=stratum)
            outputs.append(err if rr is None else
                           (rr.gamma_E, rr.E_max, rr.omega_max, rr.fwhm,
                            rr.quadrature_error, rr.secondary_peaks))
        return Pass(time.perf_counter() - start, {"rate": walls}, outputs)

    def check(self, ps: Pass) -> tuple[list[Op], list[str]]:
        ops, errors = [], []
        for (stratum, model, p), out in zip(self.points, ps.outputs):
            op = Op(f"{stratum} {model} {p}")
            if isinstance(out, str):
                op.reasons.add("raised")
                op.detail += f" -> {out.splitlines()[0]}"
                if out.startswith("CRASH"):
                    errors.append(f"{op.detail}\n{out}")
            else:
                gamma_e, e_max, omega_max, width, qerr, _ = out
                if not all(map(math.isfinite, (gamma_e, e_max, omega_max, width, qerr))):
                    op.reasons.add("output_mismatch")
                else:
                    if qerr > TOL:
                        op.reasons.add("tol_miss")
                    check_e(op, errors, e_max, model, p, omega_max, f"rate {op.detail}")
            ops.append(op)
        return ops, errors

    def metrics(self, passes: list[Pass]) -> tuple[dict, dict]:
        best = per_call(self.meter, passes, "rate")
        e2e = {"items_per_s": len(best) / sum(best), "op_s": statistics.median(best)}
        report = {"rates_per_s": (e2e["items_per_s"], "1/ref_s"),
                  "rate_s.p50": (e2e["op_s"], "ref_s")}
        p, value, n = tail_percentile(best)
        report[f"rate_s.tail (p{p}, n={n})"] = (value, "ref_s")
        by_stratum: dict[str, list[float]] = {}
        for (stratum, _, _), w in zip(self.points, best):
            by_stratum.setdefault(stratum, []).append(w)
        for stratum, ws in by_stratum.items():
            report[f"rate_s.p50[{stratum}] (n={len(ws)})"] = (statistics.median(ws), "ref_s")
        return e2e, report


# -- rate_map ------------------------------------------------------------------

MAP_STEPS, MAP_STRIPS = 25, 5
MAP_MARGIN_SAMPLE, MAP_RATE_SAMPLE = 16, 6


class RateMap:
    """The 25x25 map at jobs=1 as five 5x25 strips along delta (same grid
    values, so their rows concatenate to the full map's CSV), then the full
    map in one sweep at jobs=nproc.  Strips of 1-5 s keep each timed call
    short next to the machine's speed swings (see Meter)."""

    name = "rate_map"

    def __init__(self, et, seed: int, workdir: Path):
        self.et = et
        self.meter = Meter()
        self.rng = random.Random(seed)
        self.nproc = len(os.sched_getaffinity(0))
        deltas = np.linspace(-15.0, 15.0, MAP_STEPS)
        k = MAP_STEPS // MAP_STRIPS
        self.strips = [(float(deltas[i]), float(deltas[i + k - 1]), k)
                       for i in range(0, MAP_STEPS, k)]

    def _sweep(self, jobs: int, delta=(-15.0, 15.0, MAP_STEPS)) -> tuple[str, list]:
        sweep = self.et.sweep
        config = sweep.SweepConfig(
            model="full", fixed={"g": 5.0, "Gamma": 1e-3, "n_th": 0.0},
            axes=[sweep.SweepAxis("delta", *delta),
                  sweep.SweepAxis("Delta", -1.5, 1.5, MAP_STEPS)],
            quantities=["gamma_E", "E_max", "fwhm", "stability_margin"],
            tol=TOL, jobs=jobs)
        result = sweep.run_sweep(config)
        buf = io.StringIO()
        result.write_csv(buf)
        return buf.getvalue(), result.rows

    def run_pass(self, tracer=None, pooled: bool = True) -> Pass:
        walls: dict[str, list[float]] = {"strip": [], "pooled": []}
        texts, rows = [], []
        start = time.perf_counter()
        for strip in self.strips:
            text, strip_rows = self.meter.run(walls["strip"], self._sweep, 1, strip,
                                              tracer=tracer, label="strip")
            texts.append(text)
            rows += strip_rows
        # one CSV: the first strip's schema and header lines, then all rows
        serial = "".join([*texts[0].splitlines(True)[:2],
                          *(line for t in texts for line in t.splitlines(True)[2:])])
        pooled_csv = None
        if pooled:
            pooled_csv = self.meter.run(walls["pooled"], self._sweep, self.nproc)[0]
        return Pass(time.perf_counter() - start, walls, serial, extra=(rows, pooled_csv))

    def check(self, ps: Pass) -> tuple[list[Op], list[str]]:
        ops, errors = [], []
        rows, pooled_csv = ps.extra
        row_ops = []
        for row in rows:
            op = Op(f"map point delta={row.axis_values[0]:g} Delta={row.axis_values[1]:g}")
            if row.status.startswith("failed"):
                op.reasons.add("raised")
                op.detail += f" -> {row.status}"
            elif row.status == "ok" and not all(map(math.isfinite, row.values.values())):
                op.reasons.add("output_mismatch")
            elif row.status not in ("ok", "unstable"):
                op.reasons.add("output_mismatch")
                errors.append(f"{op.detail}: unknown status {row.status!r}")
            row_ops.append(op)

        def params(row) -> dict:
            return {"g": 5.0, "Gamma": 1e-3, "n_th": 0.0,
                    "delta": row.axis_values[0], "Delta": row.axis_values[1]}

        for k in self.rng.sample(range(len(rows)), MAP_MARGIN_SAMPLE):
            ref = oracle.stability_margin("full", params(rows[k]))
            got = rows[k].values.get("stability_margin", math.nan)
            if not oracle.agrees(got, ref, MARGIN_RTOL, MARGIN_ATOL):
                row_ops[k].reasons.add("oracle_mismatch")
                errors.append(f"{row_ops[k].detail}: stability margin {got!r} vs {ref!r}")
        ok = [k for k, row in enumerate(rows) if row.status == "ok"]
        for k in self.rng.sample(ok, min(MAP_RATE_SAMPLE, len(ok))):
            p = params(rows[k])
            models = self.et.models
            rr, err = call(lambda: self.et.rates.entanglement_rate(
                models.drift_full(models.FullModelParams(**p)), n_th=0.0, tol=TOL),
                self.et.EntrateError)
            vals = rows[k].values
            if rr is None:
                row_ops[k].reasons.add("output_mismatch")
                errors.append(f"{row_ops[k].detail}: ok in the sweep, but "
                              f"entanglement_rate fails: {err}")
                continue
            if not (abs(vals["gamma_E"] - rr.gamma_E) <= rr.quadrature_error + TOL
                    and oracle.agrees(vals["E_max"], rr.E_max, 1e-6, 1e-12)
                    and oracle.agrees(vals["fwhm"], rr.fwhm, 1e-6, 1e-12)):
                row_ops[k].reasons.add("output_mismatch")
                errors.append(f"{row_ops[k].detail}: sweep row {vals} differs from "
                              f"entanglement_rate {rr}")
            check_e(row_ops[k], errors, vals["E_max"], "full", p, rr.omega_max,
                    row_ops[k].detail)
        ops += row_ops
        # the pooled sweep computed the same points: same outcomes, if its
        # output is byte-identical (checked next)
        ops.append(csv_round_trip(ps.outputs, len(rows), errors, "rate map CSV (jobs=1)"))
        if pooled_csv is not None:
            ops += [Op(o.detail + " (pooled)", set(o.reasons), False) for o in row_ops]
            same = Op("jobs=1 and jobs=nproc CSV byte-identical", every_pass=False)
            if ps.outputs != pooled_csv:
                same.reasons.add("output_mismatch")
                errors.append(same.detail + ": they differ")
            ops.append(same)
            ops.append(csv_round_trip(pooled_csv, len(rows), errors, "rate map CSV (pooled)"))
            ops[-1].every_pass = False
        return ops, errors

    def metrics(self, passes: list[Pass]) -> tuple[dict, dict]:
        n = MAP_STEPS * MAP_STEPS
        strips = per_call(self.meter, passes, "strip")
        # raw seconds: the single-threaded probe does not track two workers
        pooled = statistics.median(wall(w) for ps in passes for w in ps.walls["pooled"])
        # the strips differ 5x in cost (their median is the one holding the
        # resonant point), so a strip's typical time is their mean
        e2e = {"items_per_s": n / sum(strips), "op_s": statistics.mean(strips)}
        report = {"map_pts_per_s.serial": (e2e["items_per_s"], "1/ref_s"),
                  f"map_pts_per_s.parallel (jobs={self.nproc})": (n / pooled, "1/s"),
                  "strip_s.mean": (e2e["op_s"], "ref_s")}
        for (lo, hi, _), w in zip(self.strips, strips):
            report[f"strip_s[delta {lo:g}..{hi:g}]"] = (w, "ref_s")
        return e2e, report


def csv_round_trip(text: str, n_rows: int, errors: list, what: str) -> Op:
    """CSV contract: schema comment, then header and rows of one width that
    csv.reader splits back, numeric cells parsing as floats."""
    op = Op(f"{what} round-trips through csv.reader")
    lines = text.splitlines()
    problem = None
    if not lines or not lines[0].startswith("# schema="):
        problem = "missing schema comment"
    else:
        table = list(csv.reader(lines[1:]))
        width = len(table[0]) if table else 0
        if len(table) != n_rows + 1:
            problem = f"{len(table) - 1} rows, expected {n_rows}"
        elif any(len(r) != width for r in table):
            problem = "column count varies"
        else:
            numeric = [i for i, h in enumerate(table[0]) if h != "status"]
            try:
                for r in table[1:]:
                    for i in numeric:
                        float(r[i])
            except ValueError as exc:
                problem = f"non-numeric cell: {exc}"
    if problem:
        op.reasons.add("output_mismatch")
        errors.append(f"{op.detail}: {problem}")
    return op


# -- spectrum ------------------------------------------------------------------

SPEC_STEPS = 20001
SPEC_SAMPLE = 12
# the entanglement calls take ~0.2 s: repeating them gives their median
# enough samples in a run
ENT_REPEATS = 3
SPEC_POINT = {"g": 5.0, "Gamma": 1e-3, "delta": 10.0, "Delta": 0.0, "n_th": 50.0}
EFF_POINT = {"g": 5.0, "delta": 10.0, "Delta": -0.2}


class Spectrum:
    name = "spectrum"

    def __init__(self, et, seed: int, workdir: Path):
        self.et = et
        self.meter = Meter()
        self.rng = random.Random(seed)
        steps = ["--omega-steps", str(SPEC_STEPS)]
        spec = ["spectrum", "--delta", "10", "--nth", "50",
                "--omega-min", "-3", "--omega-max", "13", *steps]
        # (name, argv, model, params)
        self.calls = [
            ("spectrum_csv", spec, "full", SPEC_POINT),
            ("spectrum_json", [*spec, "--format", "json"], "full", SPEC_POINT),
            ("entanglement_full", ["entanglement", *steps], "full", ANCHOR[2]),
            ("entanglement_effective", ["entanglement", "--model", "effective", "--g", "5",
                                        "--delta", "10", "--Delta", "-0.2", *steps],
             "effective", EFF_POINT),
        ]
        self.paths = {name: workdir / f"{name}.out" for name, *_ in self.calls}

    def run_pass(self, tracer=None, pooled: bool = True) -> Pass:
        walls: dict[str, list[float]] = {name: [] for name, *_ in self.calls}
        outputs = {}
        start = time.perf_counter()
        for name, argv, *_ in self.calls:
            args = [*argv, "--output", str(self.paths[name])]
            for _ in range(ENT_REPEATS if name.startswith("entanglement") else 1):
                rc, err = self.meter.run(walls[name], call, self.et.cli.main, args,
                                         self.et.EntrateError, tracer=tracer, label=name)
            outputs[name] = (rc, err, self.paths[name].read_text(encoding="utf-8")
                             if rc == 0 else "")
        return Pass(time.perf_counter() - start, walls, outputs)

    def check(self, ps: Pass) -> tuple[list[Op], list[str]]:
        ops, errors = [], []
        tables = {}
        for name, argv, model, p in self.calls:
            rc, err, text = ps.outputs[name]
            op = Op(f"cli {' '.join(argv[:1])} {name}")
            if rc != 0:
                op.reasons.add("raised")
                op.detail += f" -> exit {rc} {err or ''}"
                if err and err.startswith("CRASH"):
                    errors.append(f"{op.detail}")
                ops.append(op)
                continue
            if name.endswith("json"):
                parse = Op(f"{name} output parses as JSON")
                try:
                    doc = json.loads(text)
                    header = list(doc[0])
                    table = [[float(r[h]) for h in header] for r in doc]
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    parse.reasons.add("output_mismatch")
                    errors.append(f"{parse.detail}: {exc}")
                    table = None
                ops.append(parse)
            else:
                ops.append(csv_round_trip(text, SPEC_STEPS, errors, name))
                rows = list(csv.reader(text.splitlines()[1:]))
                header, table = rows[0], None
                try:
                    table = [[float(c) for c in r] for r in rows[1:]]
                except ValueError:
                    op.reasons.add("output_mismatch")
            if table is None or len(table) != SPEC_STEPS:
                op.reasons.add("output_mismatch")
                ops.append(op)
                continue
            tables[name] = table
            col = {h: i for i, h in enumerate(header)}
            for k in sorted(self.rng.sample(range(SPEC_STEPS), SPEC_SAMPLE)):
                row = table[k]
                omega = row[col["omega [kappa]"]]
                ref = check_e(op, errors, row[col["E"]], model, p, omega, f"{name} row {k}")
                if "total" in col and not oracle.agrees(row[col["total"]], ref.spectrum,
                                                        SPEC_RTOL, SPEC_ATOL):
                    op.reasons.add("oracle_mismatch")
            ops.append(op)
        if "spectrum_csv" in tables:
            ops.append(self._sum_rule(tables["spectrum_csv"], errors))
        if {"spectrum_csv", "spectrum_json"} <= tables.keys():
            same = Op("spectrum JSON rows equal CSV rows")
            if tables["spectrum_csv"] != tables["spectrum_json"]:
                same.reasons.add("output_mismatch")
                errors.append(same.detail + ": they differ")
            ops.append(same)
        return ops, errors

    @staticmethod
    def _sum_rule(table: list[list[float]], errors: list) -> Op:
        """total = optical + mechanical on every row, to a few ulps."""
        op = Op("spectrum total = optical + mechanical")
        bad = [r for r in table if abs(r[1] - (r[2] + r[3])) > 4 * EPS * (abs(r[2]) + abs(r[3]))]
        if bad:
            op.reasons.add("output_mismatch")
            errors.append(f"{op.detail}: {len(bad)} rows break it, e.g. {bad[0]}")
        return op

    def metrics(self, passes: list[Pass]) -> tuple[dict, dict]:
        best = {name: statistics.median(self.meter.ref_s(w) for ps in passes
                                        for w in ps.walls[name])
                for name in self.paths}
        e2e = {"items_per_s": SPEC_STEPS * len(best) / sum(best.values()),
               "op_s": best["entanglement_full"] + best["entanglement_effective"]}
        report = {"spectrum_pts_per_s": (e2e["items_per_s"], "1/ref_s"),
                  "entanglement_pair_s": (e2e["op_s"], "ref_s")}
        for name, w in best.items():
            report[f"call_s[{name}]"] = (w, "ref_s")
        return e2e, report


WORKLOADS = {w.name: w for w in (RatePoints, RateMap, Spectrum)}
