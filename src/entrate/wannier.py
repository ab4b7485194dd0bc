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

Both averages are integrals over a finite angle with constant weight:
nu = omega + theta/tau maps the boxcar onto theta in [-pi, pi], and
nu = omega + tan(theta)/tau maps the whole Lorentzian line onto
(-pi/2, pi/2) with weight exactly 1/pi, so no frequency window is cut off.
The four averages (n_plus, n_minus, Re xi, Im xi) run as four problems of
one batched Gauss-Kronrod loop, all starting on the frequency edges of the
rate's panels (rates._panel_omegas: ladders graded towards each beam-block
resonance and omega = 0) mapped to theta and clipped to its angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import DriftMatrix
from .quadutil import adaptive_gk_batch
from .rates import _panel_omegas, log_negativity
from .scattering import BeamBlocks, _triple

DEFAULT_CUTOFF = 100_000

#: Relative accuracy of each filter average. The filter weight has unit
#: mass, so EPSREL times the largest spectrum value is an absolute target
#: that also holds for the odd components that average to about 0.
EPSREL = 1e-13


@dataclass(frozen=True)
class FilterSpec:
    """Center frequency and filter time (inverse bandwidth) of one filtered
    output mode."""

    omega_center: float
    tau: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got tau={self.tau}")
        if not math.isfinite(self.omega_center):
            raise ValueError(f"omega_center must be finite, got omega_center={self.omega_center}")


def _check_kernel_args(M: int, l: int = 0, cutoff: int = 1) -> None:
    """Raise ValueError unless M >= 1, 0 <= l < M and cutoff >= 1."""
    if M < 1:
        raise ValueError(f"M must be a positive integer, got M={M}")
    if not 0 <= l < M:
        raise ValueError(f"l must lie in [0, M), got l={l}, M={M}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be a positive integer, got cutoff={cutoff}")


def wannier_kernel(M: int, l: int, k: int) -> complex:
    """Overlap between a coarse-grained basis function (factor M, frequency
    refinement l) and an original one displaced by k time slots; one
    element of wannier_kernel_array."""
    return complex(wannier_kernel_array(M, l, np.array([k]))[0])


def wannier_kernel_array(M: int, l: int, ks: np.ndarray) -> np.ndarray:
    """Kernel over integer displacements k.

    K(0) = 1/sqrt(M); for k != 0,
    K(k) = sqrt(M) (e^{i 2 pi k / M} - 1)/(2 pi i k) (-1)^k e^{i 2 pi l k / M},
    with the phases reduced exactly mod M (so K(k) = 0 when M divides k).
    M = 1 is the identity (K(0) = 1, all other overlaps vanish).
    """
    _check_kernel_args(M, l)
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
    is exactly 1. l enters K only through a unit-modulus phase, so the sum
    is the same for every l and is taken at l = 0."""
    _check_kernel_args(M, l, cutoff)
    ks = np.arange(-cutoff, cutoff + 1)
    return float(np.sum(np.abs(wannier_kernel_array(M, 0, ks)) ** 2))


def kernel_tail_bound(M: int, cutoff: int) -> float:
    """Analytic bound on the normalization tail: |K(k)|^2 <= M/(pi^2 k^2)
    gives sum_{|k|>cutoff} |K|^2 <= 2 M / (pi^2 cutoff)."""
    _check_kernel_args(M, cutoff=cutoff)
    return 2.0 * M / (math.pi ** 2 * cutoff)


def filtered_entanglement(d: DriftMatrix, n_th: float,
                          spec1: FilterSpec, spec2: FilterSpec,
                          shape: str = "wannier") -> float:
    """Log-negativity E_N^tau between one filtered mode of each beam.

    The filters must share tau and sit at opposite centers (beam 1 at
    +omega, beam 2 at -omega); then all three output correlators are
    averages of the correlator spectra n_plus(nu), n_minus(nu), xi(nu)
    against a single normalized window centered at spec1.omega_center
    (boxcar of width 2 pi/tau for "wannier", Lorentzian of half-width 1/tau
    for "lorentzian"), and E_N^tau -> E[omega] as tau -> infinity. Each
    average is computed over the finite angle of the module docstring.
    """
    if spec1.tau != spec2.tau:
        raise ValueError("both filters must share the same tau")
    if spec2.omega_center != -spec1.omega_center:
        raise ValueError("filters must sit at opposite centers (+omega, -omega)")
    if shape not in ("wannier", "lorentzian"):
        raise ValueError(f"unknown filter shape {shape!r}")

    tau = spec1.tau
    wc = spec1.omega_center
    # nu = wc + warp(theta) / tau with theta in [-half, half], weight 1 / (2 half)
    if shape == "wannier":
        half, warp, unwarp = math.pi, np.positive, np.positive
    else:
        half, warp, unwarp = 0.5 * math.pi, np.tan, np.arctan
    blocks = BeamBlocks.of(d, n_th)

    def parts(theta: np.ndarray) -> np.ndarray:
        nu_plus, nu_minus, xi, _ = _triple(blocks, wc + warp(theta) / tau)
        return np.stack([nu_plus, nu_minus, xi.real, xi.imag])

    # the rate's resonance-graded edges (rates._panel_omegas), in theta
    (omegas,) = _panel_omegas(blocks.eigenvalues, blocks.decay.max(axis=1))
    seeds = unwarp(tau * (omegas[np.isfinite(omegas)] - wc))
    seeds = seeds[np.abs(seeds) < half]
    s_scale = float(np.max(np.abs(parts(np.append(seeds, 0.0))))) + 1e-12
    edges = np.array(sorted({-half, half, *seeds.tolist()}))

    def integrand(theta: np.ndarray, pid: np.ndarray) -> np.ndarray:
        # the four averages share their edges, so a node of one is often a
        # node of the others: each distinct node is evaluated once
        nodes, where = np.unique(theta, return_inverse=True)
        return parts(nodes)[pid, where]

    vals, _, failures = adaptive_gk_batch(integrand, [edges] * 4, EPSREL * s_scale * 2.0 * half)
    for failure in filter(None, failures):
        raise failure
    nu_plus, nu_minus, xi_re, xi_im = (vals / (2.0 * half)).tolist()
    xi = complex(xi_re, xi_im)
    # q - 1/4 of the filtered pair from its averaged correlators: q is not
    # linear in them, so it is not the average of the kernel's q - 1/4
    q_excess = 0.5 * (nu_plus + nu_minus) + nu_plus * nu_minus - abs(xi) ** 2
    return float(log_negativity(nu_plus, nu_minus, xi, q_excess))
