"""Spans and counts recorded from outside the program.

The package binds functions across modules with ``from ... import``, so a
function is patched in the namespace of every module that calls it, and a
module attribute that other modules reach as ``module.name`` is patched on
the module itself.  Each wrapped call becomes a span (name, start, end,
parent); kernel calls also add their frequency-point count to every open
ancestor span, so per-layer counts can be read off any span afterwards.
Everything stays in memory until ``write``.  ``restore`` (or leaving the
``with`` block) puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    # kernel calls (and their frequency points) made inside this span; a
    # kernel span does not count itself
    kernel_calls: int = 0
    kernel_points: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._history: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx].end = self.clock()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        idx = self.open(name, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def add_kernel(self, points: int) -> None:
        """Credit one kernel call of `points` frequencies to every open span."""
        for i in self._stack:
            self.spans[i].kernel_calls += 1
            self.spans[i].kernel_points += points

    # -- patching ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             before: Callable[..., dict] | None = None,
             after: Callable[[Any], dict] | None = None) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        before(*args, **kwargs) and after(result) return extra span attributes.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, **(before(*args, **kwargs) if before else {}))
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.spans[idx].attrs["raised"] = type(exc).__name__
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                tracer.spans[idx].attrs.update(after(result))
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        self._history.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every name ever patched holds its original again."""
        return all(getattr(owner, attr) is original for owner, attr, original in self._history)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the part covered by its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "kernel_calls": s.kernel_calls,
                                     "kernel_points": s.kernel_points,
                                     **s.attrs}) + "\n")


def _caller_name(depth: int) -> str:
    return sys._getframe(depth).f_code.co_name


def instrument(tracer: Tracer, entrate) -> None:
    """Patch the layers of `entrate` (the imported package) into `tracer`."""
    # quadutil's functions are reached only through the rates and
    # scattering namespaces, so quadutil itself needs no patch
    models, scattering, rates, sweep, cli = (
        entrate.models, entrate.scattering, entrate.rates, entrate.sweep, entrate.cli)

    def kernel_before(d, omegas, *args, **kwargs):
        n = int(np.size(omegas))
        tracer.add_kernel(n)
        # stacked A, A^-1 and S at +-omega, complex128
        return {"points": n, "bytes": 3 * 2 * n * d.dim * d.dim * 16}

    def bisect_before(f_batch, lo, hi, **kwargs):
        # called from rates._positive_intervals or from the nested
        # crossing() of rates._fwhm_by_bisection; frames: _caller_name,
        # bisect_before, wrapper, caller
        return {"caller": "fwhm" if _caller_name(3) == "crossing" else "interval"}

    def rate_after(rr):
        return {"quadrature_error": rr.quadrature_error}

    def point_after(row):
        return {"status": row.status}

    for mod in (rates, scattering):
        tracer.wrap(mod, "correlator_batch", "scattering.kernel", before=kernel_before)
        tracer.wrap(mod, "stability", "models.stability")
        tracer.wrap(mod, "adaptive_gk", "quadutil.gk")
    tracer.wrap(models, "stability", "models.stability")
    tracer.wrap(models, "drift_full", "models.drift")
    tracer.wrap(models, "drift_effective", "models.drift")
    tracer.wrap(rates, "bisect_all", "quadutil.bisect", before=bisect_before)
    tracer.wrap(rates, "entanglement_rate", "rates.entanglement_rate", after=rate_after)
    tracer.wrap(rates, "_positive_intervals", "rates.interval_search")
    for attr in ("minimize_scalar", "_fwhm_by_bisection", "_count_local_maxima"):
        tracer.wrap(rates, attr, "rates.peak_search")
    tracer.wrap(scattering, "output_spectrum", "scattering.output_spectrum")
    tracer.wrap(sweep, "run_sweep", "sweep.run_sweep")
    tracer.wrap(sweep, "_eval_point", "sweep.point", after=point_after)
    tracer.wrap(sweep.SweepResult, "write_csv", "sweep.write_csv")
    tracer.wrap(cli, "main", "cli.main")
