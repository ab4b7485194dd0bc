"""The one-problem Gauss-Kronrod call and the batched grid-zoom minimizer:
references for the tests, built on entrate.quadutil. adaptive_gk is the
quadrature that the filter averages of entrate.wannier are checked
against; minimize_batch is the zoom of the sampled peak reference
(peak_reference.refined_peaks).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from entrate.quadutil import adaptive_gk_batch

#: The 17 zoom points across a bracket, in units of its 16th.
_ZOOM_STEPS = np.arange(17.0)


def adaptive_gk(f_batch: Callable[[np.ndarray], np.ndarray],
                a: float, b: float, *,
                epsabs: float,
                initial_points: Sequence[float] = ()) -> tuple[float, float]:
    """Integrate f over [a, b] to absolute tolerance epsabs: the one-problem
    call of adaptive_gk_batch. initial_points seeds interior panel
    boundaries (e.g. known resonance positions) so that narrow features are
    bracketed from the start.

    Returns (value, error_estimate); raises QuadratureError when the panel
    budget is exhausted.
    """
    if not (b > a):
        raise ValueError("integration interval must have b > a")
    edges = np.array(sorted({float(a), float(b),
                             *(float(p) for p in initial_points if a < p < b)}))
    (value,), (error,), (failure,) = adaptive_gk_batch(
        lambda x, _: f_batch(x), [edges], epsabs)
    if failure is not None:
        raise failure
    return float(value), float(error)


def minimize_batch(f_batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   lo: np.ndarray, hi: np.ndarray, *,
                   xtol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, f(x)) at the best sample of problem p's f on [lo[p], hi[p]] for
    every p, by grid zooming: each step evaluates 17 points across the
    bracket of every problem still open, all in one call f_batch(x, pid),
    and keeps the two cells around the problem's smallest sample, shrinking
    its bracket 8x, until the bracket is within its xtol (so x is within
    xtol of a unimodal minimum)."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), lo.shape)
    best_x, best_f = lo.copy(), np.full(lo.shape, math.inf)
    ids = np.arange(lo.size)                 # the open problems
    for _ in range(100):     # ends on xtol long before; guards xtol below one ulp
        width = hi - lo
        # np.linspace(lo, hi, 17) per bracket, flattened row by row
        x = (_ZOOM_STEPS * (width / 16.0)[:, None] + lo[:, None])
        x[:, -1] = hi
        x = x.ravel()
        f = np.asarray(f_batch(x, np.repeat(ids, 17)), dtype=float)
        k = f.reshape(-1, 17).argmin(axis=1)
        best = 17 * np.arange(ids.size) + k     # flat index of each row's best sample
        better = f[best] < best_f[ids]
        best_x[ids[better]], best_f[ids[better]] = x[best[better]], f[best[better]]
        wide = width > xtol[ids]
        if not wide.any():
            break
        lo, hi = x[(best - (k > 0))[wide]], x[(best + (k < 16))[wide]]
        ids = ids[wide]
    return best_x, best_f


def minimize_scalar(f_batch: Callable[[np.ndarray], np.ndarray],
                    lo: float, hi: float, *, xtol: float) -> tuple[float, float]:
    """(x, f(x)) at the best sample of f on [lo, hi]: the one-problem call
    of minimize_batch."""
    x, f = minimize_batch(lambda w, _: f_batch(w), [lo], [hi], xtol=xtol)
    return float(x[0]), float(f[0])
