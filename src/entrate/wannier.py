"""Wave-packet machinery: the Wannier time-frequency basis, its
coarse-graining kernel, and filtered two-mode entanglement.

The basis lives on a grid with time slots of length tau and frequency slots
of width delta_omega = 2 pi / tau. In frequency space a basis function is a
boxcar of width delta_omega carrying a linear phase e^{i omega t_n}; in time
it is the sinc wave packet f_m(t - t_n).

Coarse-graining by an integer factor M merges M time slots and splits each
frequency slot into M sub-slots indexed by l; the overlap between old and
new bases is the kernel K below, which depends on the new frequency index
only through l. Beam 2 transforms with the conjugate kernel, which is why a
constant cross-correlator is exactly preserved up to the kernel tail.

filtered_entanglement computes the log-negativity E_N^tau of one filtered
mode pair (beam 1 at +omega, beam 2 at -omega, equal filter time tau). Two
filter shapes are supported:

* "wannier": boxcar frequency window of full width 2 pi / tau -- the wave
  packet pair of the Wannier construction. Compact support makes
  E_N^tau -> E[omega] converge fast enough for percent-level agreement by
  tau*kappa ~ 1e4 at moderate linewidths.
* "lorentzian": causal exponential filters with Lorentzian weight
  L(x) = (1/(pi tau)) / (x^2 + 1/tau^2). Same limit, but the heavy 1/x^2
  weight tails make the approach to a large E[omega] only logarithmic in
  tau; offered because the filtered-covariance construction is usually
  stated with these filters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnstableSystemError
from .gaussian import CorrelatorTriple, log_negativity_two_mode
from .models import DriftMatrix, stability
from .quadutil import adaptive_gk, geometric_ladder
from .scattering import correlator_batch, resonance_frequencies

DEFAULT_CUTOFF = 100_000


@dataclass(frozen=True)
class WannierGrid:
    """Time-frequency grid of the wave-packet basis: slot length tau,
    coarse-graining factor M, frequency refinement index l in [0, M)."""

    tau: float
    M: int = 1
    l: int = 0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.M < 1:
            raise ValueError("M must be a positive integer")
        if not 0 <= self.l < self.M:
            raise ValueError("l must lie in [0, M)")

    @property
    def delta_omega(self) -> float:
        return 2.0 * math.pi / self.tau


@dataclass(frozen=True)
class FilterSpec:
    """Center frequency and filter time (inverse bandwidth) of one filtered
    output mode."""

    omega_center: float
    tau: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")


def wannier_kernel(M: int, l: int, k: int) -> complex:
    """Overlap between a coarse-grained basis function (factor M, frequency
    refinement l) and an original one displaced by k time slots.

    K(0) = 1/sqrt(M); for k != 0,
    K(k) = sqrt(M) (e^{i 2 pi k / M} - 1)/(2 pi i k) (-1)^k e^{i 2 pi l k / M}.
    M = 1 is the identity (K(0) = 1, all other overlaps vanish).
    """
    if M < 1:
        raise ValueError("M must be a positive integer")
    if not 0 <= l < M:
        raise ValueError(f"l must lie in [0, M), got l={l}, M={M}")
    if k == 0:
        return complex(1.0 / math.sqrt(M))
    r = k % M  # exact phase reduction: e^{i 2 pi k / M} depends on k mod M
    if r == 0:
        return 0j
    phase = 2.0 * math.pi * r / M
    val = (math.sqrt(M) * (np.exp(1j * phase) - 1.0) / (2j * math.pi * k)
           * (-1.0) ** (k % 2) * np.exp(1j * (2.0 * math.pi * ((l * r) % M) / M)))
    return complex(val)


def wannier_kernel_array(M: int, l: int, ks: np.ndarray) -> np.ndarray:
    """Vectorized kernel over integer displacements."""
    ks = np.asarray(ks, dtype=np.int64)
    out = np.zeros(ks.shape, dtype=complex)
    out[ks == 0] = 1.0 / math.sqrt(M)
    nz = (ks != 0) & (ks % M != 0)
    knz = ks[nz]
    phase = 2.0 * math.pi * (knz % M) / M
    out[nz] = (math.sqrt(M) * (np.exp(1j * phase) - 1.0) / (2j * math.pi * knz)
               * np.where(knz % 2 == 0, 1.0, -1.0)
               * np.exp(2j * math.pi * ((l * knz) % M) / M))
    return out


def kernel_normalization(M: int, l: int, cutoff: int = DEFAULT_CUTOFF) -> float:
    """Partial normalization sum over |k| <= cutoff of |K(k)|^2; the full sum
    is exactly 1."""
    ks = np.arange(-cutoff, cutoff + 1)
    return float(np.sum(np.abs(wannier_kernel_array(M, l, ks)) ** 2))


def kernel_tail_bound(M: int, cutoff: int) -> float:
    """Analytic bound on the normalization tail: |K(k)|^2 <= M/(pi^2 k^2)
    gives sum_{|k|>cutoff} |K|^2 <= 2 M / (pi^2 cutoff)."""
    return 2.0 * M / (math.pi ** 2 * cutoff)


def coarse_grained_correlator(c: complex, M: int, l: int,
                              cutoff: int = DEFAULT_CUTOFF) -> complex:
    """Cross-beam correlator after coarse-graining, for uncorrelated slots
    carrying the constant correlator c: sum_k K(k) conj(K(k)) c (beam 2
    transforms with the conjugate kernel). Equals c up to the kernel tail."""
    ks = np.arange(-cutoff, cutoff + 1)
    kern = wannier_kernel_array(M, l, ks)
    return complex(np.sum(kern * np.conj(kern)) * c)


def sinc_wavepacket(m: int, tau: float, t: np.ndarray) -> np.ndarray:
    """Time-domain Wannier packet f_m(t) = e^{-i omega_m t}
    sin(delta_omega t / 2) / (delta_omega t / 2) / sqrt(tau) for slot n = 0;
    slot n is f_m(t - n tau)."""
    t = np.asarray(t, dtype=float)
    dw = 2.0 * math.pi / tau
    return np.exp(-1j * (m * dw) * t) * np.sinc(t / tau) / math.sqrt(tau)


def discrete_wannier_basis(n_slots: int, m_values: np.ndarray | None = None,
                           oversample: int = 16, tau: float = 1.0,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal realization of the wave-packet basis on a periodic
    discrete time grid (n_slots slots, `oversample` samples per slot).

    Each basis function is reconstructed by inverse FFT of its boxcar
    spectrum. Returns (t, basis) with basis[j, i, :] the packet at frequency
    slot m_values[j] and time slot i; rows are orthonormal under the
    discrete inner product dt * sum conj(f) g.
    """
    if m_values is None:
        m_values = np.arange(-2, 3)
    m_values = np.asarray(m_values, dtype=int)
    n = n_slots * oversample
    dt = tau / oversample
    t = np.arange(n) * dt
    freqs = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    dw = 2.0 * math.pi / tau

    if np.max(np.abs(m_values)) >= oversample // 2:
        raise ValueError("frequency slots exceed the Nyquist range of the grid")

    basis = np.empty((m_values.size, n_slots, n), dtype=complex)
    for j, m in enumerate(m_values):
        box = (freqs >= (m - 0.5) * dw) & (freqs < (m + 0.5) * dw)
        for i in range(n_slots):
            spec = np.zeros(n, dtype=complex)
            spec[box] = np.exp(1j * freqs[box] * (i * tau)) / math.sqrt(dw)
            # unitary convention: f(t) = int F(w) e^{-iwt} dw / sqrt(2 pi)
            basis[j, i] = np.fft.fft(spec) * (freqs[1] - freqs[0]) / math.sqrt(2.0 * math.pi)
    return t, basis


def _lorentzian_weight(x: np.ndarray, tau: float) -> np.ndarray:
    a = 1.0 / tau
    return (a / math.pi) / (x * x + a * a)


def filtered_entanglement(d: DriftMatrix, n_th: float,
                          spec1: FilterSpec, spec2: FilterSpec,
                          shape: str = "wannier",
                          epsrel: float = 1e-13) -> float:
    """Log-negativity E_N^tau between one filtered mode of each beam.

    The filters must share tau and sit at opposite centers (beam 1 at
    +omega, beam 2 at -omega); then all three output correlators are
    averages of the correlator spectra n_plus(nu), n_minus(nu), xi(nu)
    against a single normalized window centered at spec1.omega_center
    (boxcar of width 2 pi/tau for "wannier", Lorentzian of half-width 1/tau
    for "lorentzian"), and E_N^tau -> E[omega] as tau -> infinity.
    """
    if spec1.tau != spec2.tau:
        raise ValueError("both filters must share the same tau")
    if spec2.omega_center != -spec1.omega_center:
        raise ValueError("filters must sit at opposite centers (+omega, -omega)")
    if shape not in ("wannier", "lorentzian"):
        raise ValueError(f"unknown filter shape {shape!r}")
    rep = stability(d)
    if not rep.stable:
        raise UnstableSystemError(rep.max_real_part)

    tau = spec1.tau
    wc = spec1.omega_center
    res = resonance_frequencies(d)
    widths = np.maximum(np.abs(np.linalg.eigvals(d.m).real), 1e-9)

    def parts_batch(nu: np.ndarray) -> np.ndarray:
        n_plus, n_minus, xi, _ = correlator_batch(d, nu, n_th)
        return np.stack([n_plus - 0.5, n_minus - 0.5, xi.real, xi.imag])

    span0 = float(np.max(np.abs(res))) + 10.0 * float(np.max(d.decay))
    feature_pts: set[float] = set()
    for r, wd in zip(res, widths):
        feature_pts |= geometric_ladder(r, wd, span0)

    if shape == "wannier":
        dw = 2.0 * math.pi / tau
        a, b = wc - dw / 2.0, wc + dw / 2.0

        def weight_batch(nu: np.ndarray) -> np.ndarray:
            return np.full(nu.shape, 1.0 / dw)
    else:
        # truncation window: the integrand falls off at least like nu^-4
        # (weight ~ nu^-2, spectra ~ nu^-2), so the edge carries ~ f(W) W / 3
        w = max(4.0 * float(np.max(np.abs(res))) + 10.0, 20.0 / tau,
                abs(wc) + 10.0, 50.0)
        scale0 = float(np.abs(parts_batch(np.array([wc]))).max()) + 1.0
        for _ in range(30):
            edge = float((np.abs(parts_batch(np.array([-w, w])))
                          * _lorentzian_weight(np.array([-w - wc, w - wc]), tau)
                          ).max()) * w / 3.0
            if edge <= epsrel * scale0:
                break
            w *= 2.0
        a, b = -w, w
        feature_pts |= geometric_ladder(wc, 1.0 / tau, w)

        def weight_batch(nu: np.ndarray) -> np.ndarray:
            return _lorentzian_weight(nu - wc, tau)

    pts = sorted(x for x in feature_pts if a < x < b)
    probe = np.unique(np.clip(np.array([a, wc, b, *pts]), a, b))
    s_scale = float(np.max(np.abs(parts_batch(probe)))) + 1e-12

    vals = []
    for i in range(4):
        def fb(nu: np.ndarray, i=i) -> np.ndarray:
            return parts_batch(nu)[i] * weight_batch(nu)

        # the weight mass is 1, so epsrel * s_scale is an absolute target at
        # the requested relative level even for the odd components that
        # integrate to ~0
        vals.append(adaptive_gk(fb, a, b, epsabs=epsrel * s_scale,
                                initial_points=pts)[0])

    triple = CorrelatorTriple(0.5 + vals[0], 0.5 + vals[1], vals[2] + 1j * vals[3])
    return log_negativity_two_mode(triple)
