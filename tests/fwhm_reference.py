"""Bisection reference for the FWHM of E[omega], independent of the
crossing polynomial that entrate.rates solves.

Each flank is bisected on E - E_max/2, in omega towards the nearest probe
of grid_reference.frequency_grid below half maximum or, on a flank with none, in
theta with omega = omega_max + tan(theta) towards theta = +-pi/2
(omega = +-inf), where E = 0.
"""

from __future__ import annotations

import math

import numpy as np

from entrate.models import DriftMatrix
from entrate.quadutil import bisect_all
from entrate.rates import spectral_density_batch
from grid_reference import frequency_grid


def fwhm_by_bisection(d: DriftMatrix, n_th: float, omega_max: float, e_max: float,
                      xtol: float = 1e-9) -> float:
    """Half-maximum width of the peak at (omega_max, e_max), each flank
    bisected to xtol."""
    def e_batch(w):
        return spectral_density_batch(d, np.asarray(w, dtype=float), n_th)

    grid = frequency_grid(d)
    grid_vals = e_batch(grid)
    half = 0.5 * e_max

    def crossing(direction: int) -> float:
        outside = grid[(direction * (grid - omega_max) > 0) & (grid_vals < half)]
        if outside.size:
            hi = outside.min() if direction > 0 else outside.max()
            return float(bisect_all(lambda w: e_batch(w) - half,
                                    np.array([min(omega_max, hi)]),
                                    np.array([max(omega_max, hi)]), xtol=xtol)[0])
        end = direction * 0.5 * math.pi
        theta = bisect_all(lambda t: e_batch(omega_max + np.tan(t)) - half,
                           np.array([min(0.0, end)]), np.array([max(0.0, end)]),
                           xtol=4.0 * np.finfo(float).eps)[0]
        return omega_max + math.tan(theta)

    return crossing(+1) - crossing(-1)
