"""Spectral density of entanglement E[omega] and the total entanglement rate.

E[omega] = max(0, -ln(2 eta_minus(omega))) is the log-negativity of the
output mode pair at (omega, -omega); it is double-sided in omega. The rate
Gamma_E = int domega/2pi E[omega] is reported in units of kappa, i.e. nats
of entanglement per 1/kappa of time.

E from the excesses. 2 eta_minus and 2 eta_plus are the two roots x of

    x^2 - 2 (n_plus + n_minus) x + 4 q = 0,

and 2 eta_plus = n_plus + n_minus + root >= 1, root = sqrt((n_plus -
n_minus)^2 + 4|xi|^2). In the excesses nu = n - 1/2 and q - 1/4 that
scattering.correlator_batch returns, 2 eta_minus = 4q / (1 + nu_plus +
nu_minus + root), so

    E = log1p(N / 4q),   N = nu_plus + nu_minus + root - 4 (q - 1/4),

which equals -log1p(-x) with x = N / (1 + nu_plus + nu_minus + root) and
keeps every digit at both ends: E >> 1 near an instability, and E ~ 1e-17
far out on a tail, where n_plus + n_minus rounds to 1.

E > 0 on the whole line. x = 1 lies between the two roots, i.e. E > 0,
exactly when the quadratic is negative there:
2 (nu_plus + nu_minus) - 4 (q - 1/4) > 0. With s = S(omega) on the beam
block and the n_th weights of scattering's correlators,

    nu_plus + nu_minus - 2 (q - 1/4) = |s_+-|^2 + |s_-+|^2
        + n_th (|s_+b|^2 - |s_b+|^2) + (n_th + 1) (|s_-b|^2 - |s_b-|^2).

The beam block is reciprocal, m^T = J m J with J = diag(1, -1[, 1]): the
couplings a+ <-> b are equal both ways, those a-^dag <-> b and
a+ <-> a-^dag opposite. So (m + i omega)^-1 is reciprocal too and
|s_ij| = |s_ji|: both brackets vanish, and
with t = i omega, A(t) = adj(m + t) and s_ij = sqrt(d_i d_j) A_ij / det(m + t)
off the diagonal (d the decay rates),

    K = 2 (nu_plus + nu_minus - 2 (q - 1/4)) |det(m + t)|^2
      = 2 kappa_+ kappa_- (|A_+-|^2 + |A_-+|^2).

A_+- = -t m_+- + adj(m)_+- on the 3x3 block of the full model and -m_+-
on the 2x2 block of the effective model. The full model does not couple a+
to a-^dag directly (m_+- = 0), so A_+- = m_+b m_b- there, and K is a
constant in both models: K = kappa^2 g^4 / 4 (full) or
kappa^2 g^4 / (4 delta^2) (effective). So E > 0 at every frequency when
g > 0 and E = 0 everywhere when g = 0; a probe scan tells the two apart.

Crossings as polynomial roots. A(t) = t^2 I + t (tr m I - m) + adj m
(k = 3) or t I + adj m (k = 2), and det(m + t) is the characteristic
polynomial t^3 + t^2 tr m + t tr adj m + det m (or t^2 + t tr m + det m).
So in y = omega / s, s = max |eig m| + max decay, the quantities
D = |det|^2, V = (nu_plus + nu_minus) D and K are real polynomials, of
degree 2k, 2k - 2 and 2k - 2. Multiplying the quadratic at x = c by D,
2 eta_minus = c holds exactly where

    P_c = u^2 D + 2 u V - K = 0,   u = 1 - c,

and for c < 1 every real root is a crossing of 2 eta_minus, because the
other root is 2 eta_plus >= 1 > c. The FWHM flanks are the real roots
nearest omega_max at c = e^(-E_max / 2), polished by a few batched secant
steps on the kernel.

The integral. Gamma_E is integrated over the whole frequency line on one
compact angle: omega = s' tan(theta) with s' = max(decay) maps the line
onto (-pi/2, pi/2), and the integrand E(s' tan theta) s' / cos^2(theta)
stays bounded at the ends because E falls off like |omega|^-3 (full model)
or |omega|^-2 (effective model). The Gauss-Kronrod panels start at the
drift resonances and at +-1 and +-5 linewidths around each; one scan of a
grid seeded at the same resonances (so narrow near-instability peaks are
never missed) finds E_max and the secondary peaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, UnstableSystemError
from .models import PAIRING_DEFECT_TOL, DriftMatrix, stability
from .quadutil import adaptive_gk, minimize_scalar
# unused here, but the benchmark tracer wraps rates.bisect_all
from .quadutil import bisect_all  # noqa: F401
from .scattering import correlator_batch

_PEAK_OFFSETS = np.array([0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0,
                          5.0, -5.0, 10.0, -10.0, 25.0, -25.0, 50.0, -50.0,
                          100.0, -100.0])
#: Gauss-Kronrod panel edges around each resonance, in linewidths.
_SEED_OFFSETS = np.array([0.0, 1.0, -1.0, 5.0, -5.0])
#: Batched secant steps that polish the FWHM flanks on the kernel.
_POLISH_STEPS = 3
#: Sign pattern J of the reciprocity m^T = J m J of the beam block.
_RECIPROCITY_SIGNS = np.array([1.0, -1.0, 1.0])


def spectral_density_batch(d: DriftMatrix, omegas: np.ndarray,
                           n_th: float = 0.0) -> np.ndarray:
    """E[omega] over a frequency grid, log1p(N / 4q) from the excesses
    (module docstring); no stability check."""
    nu_plus, nu_minus, xi, q_excess = correlator_batch(d, omegas, n_th)
    root = np.hypot(nu_plus - nu_minus, 2.0 * np.abs(xi))
    gap = nu_plus + nu_minus + root - 4.0 * q_excess
    return np.log1p(np.maximum(gap, 0.0) / (1.0 + 4.0 * q_excess))


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
    """Sampled E[omega] curve. When built by sample_spectrum it keeps the
    drift and n_th it was sampled from, so that peak statistics can be
    computed beyond the sampling grid; synthetic spectra are interpolated
    linearly instead."""

    omegas: np.ndarray
    values: np.ndarray
    drift: DriftMatrix | None = field(default=None, repr=False)
    n_th: float = 0.0

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
    return EntanglementSpectrum(omegas, spectral_density_batch(d, omegas, n_th),
                                drift=d, n_th=n_th)


@dataclass(frozen=True)
class RateResult:
    """Entanglement rate plus peak statistics of the E[omega] curve."""

    gamma_E: float
    E_max: float
    omega_max: float
    fwhm: float
    quadrature_error: float
    secondary_peaks: int


def _resonances(d: DriftMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(centres, linewidths) of the drift resonances, -Im and |Re| of its
    eigenvalues, plus omega = 0 with the largest decay rate as its width."""
    eigs = np.linalg.eigvals(d.m)
    return (np.concatenate([-eigs.imag, [0.0]]),
            np.concatenate([np.maximum(np.abs(eigs.real), 1e-12), [np.max(d.decay)]]))


def _around(centers: np.ndarray, widths: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each centre plus its width times every offset."""
    return (centers[:, None] + widths[:, None] * offsets).ravel()


def _grid(d: DriftMatrix, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    span = float(np.max(np.abs(centers)) + 20.0 * np.max(d.decay) + 1.0)
    out = np.unique(np.concatenate([np.linspace(-span, span, 241),
                                    _around(centers, widths, _PEAK_OFFSETS)]))
    out = out[(out >= -span) & (out <= span)]
    # a probe within round-off of its neighbour would let the peak search
    # bracket the maximum by the pair on one side
    return out[np.r_[True, np.diff(out) > 1e-12 * span]]


def frequency_grid(d: DriftMatrix) -> np.ndarray:
    """Sorted frequency grid seeded at the drift resonances: per-resonance
    offsets scaled by the local linewidth plus a coarse global grid. The
    one grid of the package: it is the Gamma_E probe scan, the sweep's
    spectrum peak and the filter averages of wannier."""
    return _grid(d, *_resonances(d))


def _require_reciprocal(m: np.ndarray) -> None:
    """Raise ValueError unless the beam block obeys m^T = J m J, which the
    whole-line E > 0 region and the crossing polynomial rest on."""
    j = _RECIPROCITY_SIGNS[:m.shape[0]]
    if np.max(np.abs(m.T - np.outer(j, j) * m)) > PAIRING_DEFECT_TOL * max(
            1.0, float(np.max(np.abs(m)))):
        raise ValueError("beam block is not reciprocal (m^T != J m J, "
                         f"J = diag{tuple(j)})")


def _beam_polynomials(d: DriftMatrix, n_th: float,
                      ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(s, D, V, K) of the module docstring: the scale s and the real
    coefficients, highest power first, of D, V and K in y = omega / s."""
    m, decay = d.beam_block
    _require_reciprocal(m)
    k = m.shape[0]
    tr = np.trace(m)
    if k == 3:
        cof = np.cross(m[[1, 2, 0]], m[[2, 0, 1]])      # cofactor rows
        adj = cof.T
        adj_t = np.stack([np.eye(3), tr * np.eye(3) - m, adj])
        char = np.array([1.0, tr, np.trace(adj), np.sum(m[0] * cof[0])])
    else:
        adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
        adj_t = np.stack([np.eye(2), adj])
        char = np.array([1.0, tr, m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]])
    s = float(np.max(np.abs(np.linalg.eigvals(m))) + np.max(decay))
    powers = (1j * s) ** np.arange(k, -1, -1)           # t^j = (i s y)^j

    def abs2(p: np.ndarray) -> np.ndarray:
        return np.convolve(p, p.conj()).real           # |p(y)|^2, real y

    a2 = [[abs2(powers[1:] * adj_t[:, i, j]) for j in range(k)] for i in range(k)]
    pair = decay[0] * decay[1] * (a2[0][1] + a2[1][0])
    v = pair + (decay[2] * (n_th * decay[0] * a2[0][2] + (n_th + 1.0) * decay[1] * a2[1][2])
                if k == 3 else 0.0)
    return s, abs2(powers * char), v, 2.0 * pair


def _crossings(d: DriftMatrix, n_th: float, level: float) -> np.ndarray:
    """Sorted frequencies where E = level > 0, i.e. 2 eta_minus = c =
    e^-level: the real roots of P_c (module docstring), unpolished."""
    s, d_poly, v_poly, k_poly = _beam_polynomials(d, n_th)
    u = -math.expm1(-level)
    p = u * u * d_poly
    p[2:] += 2.0 * u * v_poly - k_poly
    roots = np.roots(p)
    return np.sort(s * roots.real[np.abs(roots.imag) <= 1e-8 * np.abs(roots)])


def _fwhm(d: DriftMatrix, n_th: float, omega_max: float, e_max: float) -> float:
    """Half-maximum width of the dominant peak: the distance between the
    crossings of E = e_max / 2 nearest omega_max on either side, each
    polished by batched secant steps on the kernel (the point with the
    smallest |E - e_max / 2| seen is kept)."""
    if e_max <= 0:
        return 0.0
    half = 0.5 * e_max
    roots = _crossings(d, n_th, half)
    left, right = roots[roots < omega_max], roots[roots > omega_max]
    if not (left.size and right.size):
        raise QuadratureError(f"no half-maximum crossing on one side of omega_max={omega_max}")
    x1 = np.array([left[-1], right[0]])
    x0 = x1 + 1e-8 * (abs(x1) + 1.0)
    f = spectral_density_batch(d, np.concatenate([x0, x1]), n_th) - half
    f0, f1 = f[:2], f[2:]
    best, f_best = x1.copy(), np.abs(f1)
    for _ in range(_POLISH_STEPS):
        slope = f1 - f0
        step = np.divide(f1 * (x1 - x0), slope, out=np.zeros(2), where=slope != 0)
        if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps * np.abs(x1)):
            break
        x0, f0, x1 = x1, f1, x1 - step
        f1 = spectral_density_batch(d, x1, n_th) - half
        better = np.abs(f1) < f_best
        best[better], f_best[better] = x1[better], np.abs(f1[better])
    return float(best[1] - best[0])


# the benchmark tracer wraps this name; the flanks are polynomial roots now
_fwhm_by_bisection = _fwhm


def _positive_intervals(d: DriftMatrix, n_th: float, probes: np.ndarray,
                        ) -> tuple[list[tuple[float, float]], np.ndarray]:
    """The E > 0 region and E at the probes: the whole line when E > 0 at
    any probe, else nothing, since E > 0 wherever K > 0 and K does not
    depend on omega (module docstring)."""
    _require_reciprocal(d.beam_block[0])
    probe_e = spectral_density_batch(d, probes, n_th)
    return ([(-math.inf, math.inf)] if np.any(probe_e > 0) else []), probe_e


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

    centers, widths = _resonances(d)
    probes = _grid(d, centers, widths)
    intervals, probe_e = _positive_intervals(d, n_th, probes)
    if not intervals:
        return RateResult(0.0, 0.0, 0.0, 0.0, 0.0, 0)

    scale = float(np.max(d.decay))

    def integrand(theta):
        t = np.tan(theta)
        return e_batch(scale * t) * (scale * (1.0 + t * t))

    # E has all its structure at the resonances, so panels that start
    # there only need polishing; half of tol * 2 pi is the budget
    (lo, hi), = np.arctan(np.array(intervals) / scale)
    total, err = adaptive_gk(integrand, lo, hi, epsabs=math.pi * tol,
                             initial_points=np.arctan(
                                 _around(centers, widths, _SEED_OFFSETS) / scale))

    # peak statistics from the probe set
    mask = probe_e > 0
    cand, cand_e = probes[mask], probe_e[mask]
    omega_max, e_max = _refined_peak(e_batch, cand, cand_e, xtol=1e-10)
    width = _fwhm(d, n_th, omega_max, e_max)
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


def fwhm(spectrum: EntanglementSpectrum, xtol: float = 1e-6) -> float:
    """Full width at half maximum of the dominant peak of a spectrum.

    A spectrum from sample_spectrum carries its drift: the peak is refined
    on the underlying E to xtol (in kappa units) and the flanks are the
    exact half-maximum crossings that entanglement_rate uses. A synthetic
    spectrum is interpolated linearly.
    """
    vals = spectrum.values
    if np.all(vals <= 0):
        raise ValueError("spectrum has no peak (all values are zero)")
    if spectrum.drift is not None:
        d, n_th = spectrum.drift, spectrum.n_th
        omega_max, e_max = _refined_peak(lambda w: spectral_density_batch(d, w, n_th),
                                         spectrum.omegas, vals, xtol)
        return _fwhm(d, n_th, omega_max, e_max)

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
