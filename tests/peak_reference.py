"""Sampled peak search, the reference for the stationary-point peaks of
entrate.rates: a scan of rates.frequency_grid, then a grid zoom
(quadutil.minimize_batch) between the neighbours of the best sample.
"""

from __future__ import annotations

import numpy as np

from entrate.quadutil import minimize_batch


def refined_peaks(e_batch, grids: list[np.ndarray], values: list[np.ndarray],
                  xtol: float) -> tuple[np.ndarray, np.ndarray]:
    """(omega_max, E_max) per problem: the largest sample of its E on its
    sorted grid, refined between that sample's neighbours to
    xtol * max(1, |omega|) by one batched zoom (e_batch(w, pid) evaluates
    problem pid[i] at w[i]); the sample itself when the refinement finds
    nothing higher."""
    ks = [int(np.argmax(v)) for v in values]
    x_s = np.array([g[k] for g, k in zip(grids, ks)])
    f_s = np.array([v[k] for v, k in zip(values, ks)])
    x, f = minimize_batch(lambda w, pid: -e_batch(w, pid),
                          [g[max(k - 1, 0)] for g, k in zip(grids, ks)],
                          [g[min(k + 1, g.size - 1)] for g, k in zip(grids, ks)],
                          xtol=xtol * np.maximum(1.0, np.abs(x_s)))
    keep = -f < f_s
    return np.where(keep, x_s, x), np.where(keep, f_s, -f)
