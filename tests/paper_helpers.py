"""Formulas and conveniences from the paper that only the tests use: the
symmetrized density, the unit conversion of Gamma_E, the wave-packet grid
and coarse-grained correlator, the validity regime of the effective model,
the three-cell parameter mapping, and the comparison with the two- and
three-mode schemes. Also the excess-form log-negativity of a correlator
triple."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from entrate.closedforms import full_model_correlators_resonant
from entrate.gaussian import CorrelatorTriple
from entrate.models import DriftMatrix, EffectiveModelParams, FullModelParams
from entrate.rates import log_negativity, spectral_density_batch
from entrate.wannier import DEFAULT_CUTOFF, _check_kernel_args, kernel_normalization


def triple_log_negativity(t: CorrelatorTriple) -> float:
    """rates.log_negativity of a triple, its q - 1/4 formed in float64."""
    nu_plus, nu_minus = t.n_plus - 0.5, t.n_minus - 0.5
    q_excess = 0.5 * (nu_plus + nu_minus) + nu_plus * nu_minus - abs(t.xi) ** 2
    return float(log_negativity(nu_plus, nu_minus, t.xi, q_excess))


def symmetrized_density(d: DriftMatrix, omega: float, n_th: float = 0.0) -> float:
    """One-sided density E_N[omega] = E[omega] + E[-omega], omega > 0."""
    if omega <= 0:
        raise ValueError("the symmetrized density is defined for omega > 0")
    return float(spectral_density_batch(d, np.array([omega, -omega]), n_th).sum())


def to_nats_per_second(gamma_e_kappa_units: float, kappa_hz: float) -> float:
    return gamma_e_kappa_units * kappa_hz


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
        _check_kernel_args(self.M, self.l)

    @property
    def delta_omega(self) -> float:
        return 2.0 * math.pi / self.tau


def coarse_grained_correlator(c: complex, M: int, l: int,
                              cutoff: int = DEFAULT_CUTOFF) -> complex:
    """Cross-beam correlator c of uncorrelated slots after coarse-graining:
    sum_k K(k) conj(K(k)) c, c times the kernel normalization."""
    return c * kernel_normalization(M, l, cutoff)


def in_validity_regime(p: EffectiveModelParams, factor: float = 5.0) -> bool:
    """|delta| exceeds kappa, g and |Delta| by `factor`: the regime in which
    the adiabatic elimination behind the effective model is controlled."""
    big = abs(p.delta)
    return big >= factor * max(p.kappa, p.g) and big >= factor * abs(p.Delta)


@dataclass(frozen=True)
class CellParams:
    """Tunneling rates K1, K2, bare single-photon coupling g0 and coherent
    amplitude alpha of the driven centre normal mode of three cells."""

    K1: float
    K2: float
    g0: float
    alpha: complex

    def __post_init__(self):
        if self.K1 ** 2 + self.K2 ** 2 <= 0:
            raise ValueError("at least one tunneling rate must be nonzero")


@dataclass(frozen=True)
class CellMapping:
    params: FullModelParams
    J: float
    g0_eff: float


def map_cell_params(c: CellParams, kappa: float, Gamma: float, Omega: float,
                    n_th: float, Delta: float = 0.0) -> CellMapping:
    """J = sqrt(K1^2 + K2^2), g0_eff = g0 K1 K2 / J^2, g = 2 g0_eff |alpha|
    and delta = Omega - J."""
    ksq = c.K1 ** 2 + c.K2 ** 2
    g0_eff = c.g0 * c.K1 * c.K2 / ksq
    params = FullModelParams(g=2.0 * abs(g0_eff) * abs(c.alpha), Gamma=Gamma, kappa=kappa,
                             Delta=Delta, delta=Omega - math.sqrt(ksq), n_th=n_th)
    return CellMapping(params=params, J=math.sqrt(ksq), g0_eff=g0_eff)


def two_mode_scheme_correlators(g: float, kappa: float, Gamma: float,
                                Omega: float, n_th: float) -> CorrelatorTriple:
    """Stokes/anti-Stokes filtered correlators of the one-cavity scheme at
    resonant drive, valid for Omega >> Gamma."""
    lor = Omega ** 2 + (kappa / 2.0) ** 2
    hg = Gamma / 2.0
    coherent = kappa ** 2 * g ** 4 / (lor ** 2 * hg ** 2)
    thermal = kappa * g ** 2 / (lor * hg)
    return CorrelatorTriple(coherent + 2.0 * n_th * thermal + 0.5,
                            coherent + 2.0 * (n_th + 1.0) * thermal + 0.5,
                            complex(-coherent - (2.0 * n_th + 1.0) * thermal))


@dataclass(frozen=True)
class EnhancementFactors:
    vs_two_mode: float
    vs_three_mode: float


def enhancement_factors(Omega: float, kappa: float, delta: float) -> EnhancementFactors:
    """Omega^4 / (delta^2 + (kappa/2)^2)^2 over the two-mode scheme and
    (2 Omega / kappa)^4 over three-mode schemes."""
    if Omega <= 0 or kappa <= 0:
        raise ValueError("Omega and kappa must be positive")
    return EnhancementFactors(vs_two_mode=Omega ** 4 / (delta ** 2 + (kappa / 2.0) ** 2) ** 2,
                              vs_three_mode=(2.0 * Omega / kappa) ** 4)


@dataclass(frozen=True)
class ComparisonResult:
    our_coherent_intensity: float
    two_mode_coherent_intensity: float
    enhancement_vs_two_mode: float
    enhancement_vs_three_mode: float
    Omega: float


def compare_schemes(g: float, kappa: float, Gamma: float, Omega: float,
                    delta: float) -> ComparisonResult:
    """Coherent sideband intensities of both schemes at omega = delta and
    matched g, with the nominal large-Omega enhancement factors."""
    ours = full_model_correlators_resonant(g, kappa, Gamma, delta, 0.0, delta)
    two = two_mode_scheme_correlators(g, kappa, Gamma, Omega, 0.0)
    factors = enhancement_factors(Omega, kappa, delta)
    return ComparisonResult(ours.n_plus - 0.5, two.n_plus - 0.5, factors.vs_two_mode,
                            factors.vs_three_mode, Omega)
