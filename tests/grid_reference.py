"""A dense resonance-seeded frequency grid for the tests' sampled
references (scans, quad cells, bisection brackets): 241 evenly spaced
points plus fixed offsets around each beam-block resonance. The runtime
has no such grid; its one resonance mesh is rates._panel_omegas."""

from __future__ import annotations

import numpy as np

from entrate.models import DriftMatrix
from entrate.rates import _resonances

#: Grid points around each resonance, in linewidths.
GRID_OFFSETS = np.array([0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0,
                         5.0, -5.0, 10.0, -10.0, 25.0, -25.0, 50.0, -50.0,
                         100.0, -100.0])


def frequency_grid(d: DriftMatrix) -> np.ndarray:
    """Sorted frequency grid seeded at the beam-block resonances of d:
    per-resonance offsets scaled by the local linewidth plus a coarse
    global grid over [-span, span]."""
    centers, widths = _resonances(np.linalg.eigvals(d.m), d.decay.max())
    span = float(np.max(np.abs(centers)) + 20.0 * np.max(d.decay) + 1.0)
    out = np.unique(np.concatenate([np.linspace(-span, span, 241),
                                    (centers[:, None] + widths[:, None]
                                     * GRID_OFFSETS).ravel()]))
    out = out[(out >= -span) & (out <= span)]
    # a point within round-off of its neighbour would make an empty cell
    return out[np.r_[True, np.diff(out) > 1e-12 * span]]
