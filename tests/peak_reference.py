"""References for the peaks of entrate.rates: the sampled peak search for
its stationary-point peaks (a scan of rates.frequency_grid, then a grid
zoom, quad_reference.minimize_batch, between the neighbours of the best
sample), and the one-row peak count for its batched count.
"""

from __future__ import annotations

import numpy as np

from quad_reference import minimize_batch


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


def count_local_maxima(y: np.ndarray, e_max: float) -> int:
    """Peak count with a prominence floor of 1% of the dominant peak, so the
    float-level jitter of strongly squeezed points does not register. A
    peak is an interior strict maximum once plateaus are collapsed; its
    prominence is its height above the higher of the lowest samples on each
    side, searched outward until a higher sample or the border."""
    if y.size < 3:
        return 1 if np.any(y > 0) else 0
    floor = max(1e-9, 1e-2 * e_max)
    z = y[np.concatenate(([True], y[1:] != y[:-1]))]
    count = 0
    for p in np.flatnonzero((z[1:-1] > z[:-2]) & (z[1:-1] > z[2:])) + 1:
        higher = np.flatnonzero(z > z[p])
        lo = higher[higher < p].max(initial=-1) + 1
        hi = higher[higher > p].min(initial=z.size)
        count += z[p] - max(z[lo:p].min(), z[p + 1:hi].min()) >= floor
    return max(int(count), 1)


def candidate_peak_count(e: np.ndarray, e_max: float) -> int:
    """count_local_maxima of one problem's peak candidates e (sorted by
    omega), one at a time: E = 0 at both ends of the line, and a candidate
    within 4 ulp of the one before it lies on the same flat top."""
    e = e[np.concatenate(([True], np.abs(np.diff(e)) > 4.0 * np.spacing(e[1:])))]
    return count_local_maxima(np.concatenate(([0.0], e, [0.0])), e_max)
