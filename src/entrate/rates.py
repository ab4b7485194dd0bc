"""Spectral density of entanglement E[omega] and the total entanglement rate.

E[omega] = max(0, -ln(2 eta_minus(omega))) is the log-negativity of the
output mode pair at (omega, -omega); it is double-sided in omega. The rate
Gamma_E = int domega/2pi E[omega] is reported in units of kappa, i.e. nats
of entanglement per 1/kappa of time.

Gamma_E is integrated over the whole frequency line on one compact angle:
omega = s tan(theta) with s = max(decay) maps the line onto (-pi/2, pi/2),
and the integrand E(s tan theta) s / cos^2(theta) stays bounded at the ends
because E falls off like |omega|^-3 (full model) or |omega|^-2 (effective
model). One scan of a grid seeded at the drift resonance frequencies (so
narrow near-instability peaks are never missed) finds the E > 0 region:
sign changes of 1 - 2 eta_minus between probes are bisected, and a region
still positive at the outermost probe runs to theta = +-pi/2. The probes,
mapped to theta, seed the quadrature panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import UnstableSystemError
from .models import DriftMatrix, stability
from .quadutil import adaptive_gk, bisect_all, minimize_scalar
from .scattering import correlator_batch

_PEAK_OFFSETS = np.array([0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0,
                          5.0, -5.0, 10.0, -10.0, 25.0, -25.0, 50.0, -50.0,
                          100.0, -100.0])


def two_eta_minus_batch(d: DriftMatrix, omegas: np.ndarray,
                        n_th: float = 0.0) -> np.ndarray:
    """Un-clipped 2*eta_minus = 4q / (n_plus + n_minus + root) over a
    frequency grid, root = sqrt((n_plus - n_minus)^2 + 4|xi|^2).

    q = n_plus n_minus - |xi|^2 comes from correlator_batch as a sum of
    non-negative terms, and the denominator adds non-negative terms, so the
    result is exact to float64 round-off at any cooperativity.
    """
    n_plus, n_minus, xi, q = correlator_batch(d, omegas, n_th)
    root = np.hypot(n_plus - n_minus, 2.0 * np.abs(xi))
    return 4.0 * q / (n_plus + n_minus + root)


def spectral_density_batch(d: DriftMatrix, omegas: np.ndarray,
                           n_th: float = 0.0) -> np.ndarray:
    """E[omega] over a frequency grid; no stability check."""
    return np.maximum(0.0, -np.log(two_eta_minus_batch(d, omegas, n_th)))


def spectral_density(d: DriftMatrix, omega: float, n_th: float = 0.0) -> float:
    """Spectral density of entanglement at one frequency."""
    rep = stability(d)
    if not rep.stable:
        raise UnstableSystemError(rep.max_real_part)
    return float(spectral_density_batch(d, np.array([omega]), n_th)[0])


def symmetrized_density(d: DriftMatrix, omega: float, n_th: float = 0.0) -> float:
    """One-sided density E_N[omega] = E[omega] + E[-omega], omega > 0."""
    if omega <= 0:
        raise ValueError("the symmetrized density is defined for omega > 0")
    rep = stability(d)
    if not rep.stable:
        raise UnstableSystemError(rep.max_real_part)
    vals = spectral_density_batch(d, np.array([omega, -omega]), n_th)
    return float(vals.sum())


@dataclass
class EntanglementSpectrum:
    """Sampled E[omega] curve. When built by sample_spectrum it keeps a
    batched evaluator (array of omegas -> array of E) so that peak
    statistics can be refined beyond the sampling grid; synthetic spectra
    are interpolated linearly instead."""

    omegas: np.ndarray
    values: np.ndarray
    evaluator: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.omegas = np.asarray(self.omegas, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.omegas.shape != self.values.shape or self.omegas.ndim != 1:
            raise ValueError("omegas and values must be 1-d arrays of equal length")
        if np.any(np.diff(self.omegas) <= 0):
            raise ValueError("samples must be sorted by omega")
        if np.any(self.values < 0):
            raise ValueError("spectral densities must be non-negative")


def sample_spectrum(d: DriftMatrix, n_th: float, omegas: np.ndarray) -> EntanglementSpectrum:
    """Evaluate E over a frequency grid, returning a refinable spectrum."""
    rep = stability(d)
    if not rep.stable:
        raise UnstableSystemError(rep.max_real_part)
    omegas = np.sort(np.asarray(omegas, dtype=float))
    vals = spectral_density_batch(d, omegas, n_th)
    return EntanglementSpectrum(
        omegas, vals,
        evaluator=lambda w: spectral_density_batch(d, np.asarray(w, dtype=float), n_th))


@dataclass(frozen=True)
class RateResult:
    """Entanglement rate plus peak statistics of the E[omega] curve."""

    gamma_E: float
    E_max: float
    omega_max: float
    fwhm: float
    quadrature_error: float
    secondary_peaks: int


def frequency_grid(d: DriftMatrix) -> np.ndarray:
    """Sorted frequency grid seeded at the drift resonances: per-resonance
    offsets scaled by the local linewidth plus a coarse global grid. The
    one grid of the package: it seeds the Gamma_E scan, the sweep's
    spectrum peak and the filter averages of wannier."""
    eigs = np.linalg.eigvals(d.m)
    centers = np.concatenate([-eigs.imag, [0.0]])
    widths = np.concatenate([np.maximum(np.abs(eigs.real), 1e-12), [np.max(d.decay)]])
    span = float(np.max(np.abs(centers)) + 20.0 * np.max(d.decay) + 1.0)
    pts = [np.linspace(-span, span, 241)]
    for c, wdt in zip(centers, widths):
        pts.append(c + wdt * _PEAK_OFFSETS)
    out = np.unique(np.concatenate(pts))
    return out[(out >= -span) & (out <= span)]


def _positive_intervals(d: DriftMatrix, n_th: float,
                        ) -> tuple[list[tuple[float, float]], np.ndarray, np.ndarray]:
    """The E > 0 region of the whole line, where 1 - 2 eta_minus > 0, from
    one scan of frequency_grid: (intervals, probes, E at the probes). Edges
    between probes are bisected; a region still positive at the outermost
    probe runs to -inf or +inf."""
    probes = frequency_grid(d)
    probe_e = spectral_density_batch(d, probes, n_th)
    pos = probe_e > 0
    if not np.any(pos):
        return [], probes, probe_e

    # bisect sign changes between adjacent probes
    flips = np.nonzero(np.diff(pos.astype(int)) != 0)[0]
    lo, hi = probes[flips], probes[flips + 1]
    edges = (bisect_all(lambda w: 1.0 - two_eta_minus_batch(d, w, n_th), lo, hi,
                        xtol=1e-11 * max(1.0, probes[-1])) if flips.size else np.array([]))

    # assemble intervals from the sign pattern
    boundaries = (([-math.inf] if pos[0] else []) + edges.tolist()
                  + ([math.inf] if pos[-1] else []))
    intervals = [(a, b) for a, b in zip(boundaries[::2], boundaries[1::2]) if b > a]
    return intervals, probes, probe_e


def entanglement_rate(d: DriftMatrix, n_th: float = 0.0, tol: float = 1e-6) -> RateResult:
    """Gamma_E = int domega/2pi E[omega] over the whole line by adaptive
    quadrature in theta (module docstring) to absolute tolerance tol (in
    kappa units), plus E_max, its location, and the FWHM of the dominant
    peak."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    rep = stability(d)
    if not rep.stable:
        raise UnstableSystemError(rep.max_real_part)

    def e_batch(w):
        return spectral_density_batch(d, np.asarray(w, dtype=float), n_th)

    intervals, probes, probe_e = _positive_intervals(d, n_th)
    if not intervals:
        return RateResult(0.0, 0.0, 0.0, 0.0, 0.0, 0)

    scale = float(np.max(d.decay))

    def integrand(theta):
        t = np.tan(theta)
        return e_batch(scale * t) * (scale * (1.0 + t * t))

    # panel edges seeded with the whole probe grid, resonances included: the
    # scan already resolved the spectral structure, refinement only polishes.
    # Half of tol * 2 pi is the budget, shared in proportion to the angles.
    spans = np.arctan(np.array(intervals) / scale)
    shares = (spans[:, 1] - spans[:, 0]) / np.sum(spans[:, 1] - spans[:, 0])
    parts = [adaptive_gk(integrand, a, b, epsabs=math.pi * tol * share,
                         initial_points=np.arctan(probes / scale))
             for (a, b), share in zip(spans, shares)]
    total, err = (math.fsum(x) for x in zip(*parts))

    # peak statistics from the probe set
    mask = probe_e > 0
    cand, cand_e = probes[mask], probe_e[mask]
    omega_max, e_max = _refined_peak(e_batch, cand, cand_e, xtol=1e-10)
    width = _fwhm_by_bisection(e_batch, probes, probe_e, omega_max, e_max)
    n_secondary = _count_local_maxima(cand, cand_e, e_max) - 1
    return RateResult(gamma_E=total / (2.0 * math.pi), E_max=e_max,
                      omega_max=omega_max, fwhm=width,
                      quadrature_error=err / (2.0 * math.pi),
                      secondary_peaks=max(n_secondary, 0))


def _refined_peak(e_batch, grid: np.ndarray, vals: np.ndarray,
                  xtol: float) -> tuple[float, float]:
    """(omega_max, E_max): the largest sample of E on the sorted grid,
    refined between that sample's neighbours to xtol * max(1, |omega|);
    the sample itself when the refinement finds nothing higher."""
    k = int(np.argmax(vals))
    x, f = minimize_scalar(lambda w: -e_batch(w),
                           grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)],
                           xtol=xtol * max(1.0, abs(grid[k])))
    if -f < vals[k]:
        return float(grid[k]), float(vals[k])
    return x, -f


def _count_local_maxima(x: np.ndarray, y: np.ndarray, e_max: float) -> int:
    """Peak count with a prominence floor of 1% of the dominant peak, so the
    float-level jitter of strongly squeezed points does not register. A
    peak is an interior strict maximum once plateaus are collapsed; its
    prominence is its height above the higher of the lowest samples on each
    side, searched outward until a higher sample or the border."""
    if y.size < 3:
        return 1 if np.any(y > 0) else 0
    floor = max(1e-9, 1e-2 * e_max)
    z = y[np.r_[True, y[1:] != y[:-1]]]
    count = 0
    for p in np.flatnonzero((z[1:-1] > z[:-2]) & (z[1:-1] > z[2:])) + 1:
        higher = np.flatnonzero(z > z[p])
        lo = higher[higher < p].max(initial=-1) + 1
        hi = higher[higher > p].min(initial=z.size)
        count += z[p] - max(z[lo:p].min(), z[p + 1:hi].min()) >= floor
    return max(int(count), 1)


def _fwhm_by_bisection(e_batch, grid: np.ndarray, grid_vals: np.ndarray,
                       omega_max: float, e_max: float, xtol: float = 1e-9) -> float:
    """Half-maximum width of the dominant peak, bisected on both flanks:
    in omega towards the nearest sample below half maximum or, on a flank
    with none, in theta with omega = omega_max + tan(theta) towards
    theta = +-pi/2 (omega = +-inf), where E = 0."""
    if e_max <= 0:
        return 0.0
    half = 0.5 * e_max

    def crossing(direction: int) -> float:
        outside = grid[(direction * (grid - omega_max) > 0) & (grid_vals < half)]
        if outside.size:
            hi = outside.min() if direction > 0 else outside.max()
            return float(bisect_all(lambda w: e_batch(w) - half,
                                    np.array([min(omega_max, hi)]),
                                    np.array([max(omega_max, hi)]), xtol=xtol)[0])
        # theta to a few ulp of pi/2: omega - omega_max = tan(theta) then
        # carries a relative error of about 1e-15 max(tan, 1/tan)
        end = direction * 0.5 * math.pi
        theta = bisect_all(lambda t: e_batch(omega_max + np.tan(t)) - half,
                           np.array([min(0.0, end)]), np.array([max(0.0, end)]),
                           xtol=4.0 * np.finfo(float).eps)[0]
        return omega_max + math.tan(theta)

    return crossing(+1) - crossing(-1)


def fwhm(spectrum: EntanglementSpectrum, xtol: float = 1e-6) -> float:
    """Full width at half maximum of the dominant peak of a spectrum.

    With an evaluator the flanks are bisected on the underlying function
    (tolerance xtol, in kappa units); otherwise the sampled curve is
    interpolated linearly.
    """
    vals = spectrum.values
    if np.all(vals <= 0):
        raise ValueError("spectrum has no peak (all values are zero)")
    if spectrum.evaluator is not None:
        omega_max, e_max = _refined_peak(spectrum.evaluator, spectrum.omegas, vals, xtol)
        return _fwhm_by_bisection(spectrum.evaluator, spectrum.omegas, vals,
                                  omega_max, e_max, xtol=xtol)

    k = int(np.argmax(vals))
    half = 0.5 * float(vals[k])

    def interp_cross(direction: int) -> float:
        idx = range(k, vals.size - 1) if direction > 0 else range(k - 1, -1, -1)
        for i in idx:
            y0, y1 = vals[i], vals[i + 1]
            x0, x1 = spectrum.omegas[i], spectrum.omegas[i + 1]
            if (y0 - half) * (y1 - half) <= 0.0:
                if y1 == y0:
                    return float(x1)
                return float(x0 + (half - y0) * (x1 - x0) / (y1 - y0))
        raise ValueError("spectrum does not fall below half maximum on one flank")

    return interp_cross(+1) - interp_cross(-1)


def to_nats_per_second(gamma_e_kappa_units: float, kappa_hz: float) -> float:
    """Convert a rate in kappa units to nats per second, given kappa in 1/s."""
    return gamma_e_kappa_units * kappa_hz
