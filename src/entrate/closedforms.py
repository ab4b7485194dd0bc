"""Closed-form reference expressions for the resonant full model, the
effective optical model, and the two-/three-mode comparison schemes.

These are independent of the frequency-domain numerical pipeline and serve
as its oracle suite. Everything here is an explicit rational/algebraic
formula in the model rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import CorrelatorTriple


def eta_minus_resonant(C: float, n_th: float) -> float:
    """Smaller partial-transpose symplectic eigenvalue of the resonant
    (Delta = delta = 0) output state at omega = 0, as a function of the
    cooperativity C = g^2/(kappa*Gamma) and the thermal occupation.

    The textbook form 4C(C + n_th + 1/2) + 1/2 - 2C sqrt(1 + 4(C + n_th + 1/2)^2)
    is a catastrophic cancellation (about 10 digits lost at C ~ 2.5e4), so the
    value is computed from the conjugate-multiplied equivalent

        eta = (4 C m + 1/4) / (4 C P + 1/2 + 2 C sqrt(1 + 4 P^2)),

    with m = n_th + 1/2 and P = C + m, which is exact in real arithmetic and
    stable in floating point.
    """
    if C < 0:
        raise ValueError("cooperativity must be non-negative")
    if n_th < 0:
        raise ValueError("n_th must be non-negative")
    m = n_th + 0.5
    P = C + m
    return (4.0 * C * m + 0.25) / (4.0 * C * P + 0.5 + 2.0 * C * math.sqrt(1.0 + 4.0 * P * P))


def pair_rate_closed(g: float, kappa: float, delta: float, Delta: float = 0.0) -> float:
    """Photon pair creation rate of the effective optical model,
    (g^2/4delta)^2 (kappa/2) / [(kappa/2)^2 + (Delta + g^2/2delta) Delta].

    Diverges at the optical stability boundary; raises on the unstable side
    where the denominator is non-positive.
    """
    if delta == 0:
        raise ValueError("delta must be nonzero")
    gp = g ** 2 / (4.0 * delta)
    den = (kappa / 2.0) ** 2 + (Delta + 2.0 * gp) * Delta
    if den <= 0:
        raise ValueError(
            f"denominator {den:.3g} <= 0: parameters at or beyond the stability boundary")
    return gp ** 2 * (kappa / 2.0) / den


def full_model_correlators_resonant(g: float, kappa: float, Gamma: float,
                                    delta: float, n_th: float,
                                    omega: float) -> CorrelatorTriple:
    """Output correlators of the full model at resonant drive (Delta = 0).

    All three share the resonance denominators
    D1 = [(delta - omega)^2 + (Gamma/2)^2] (omega^2 + (kappa/2)^2) and
    D2 = D1 (omega^2 + (kappa/2)^2). At omega = delta = 0 this reduces to
    n+ = 4 C n_th + 4 C^2 + 1/2, n- = n+ + 4C, xi = -4C(C + n_th + 1/2).
    """
    lor_m = (delta - omega) ** 2 + (Gamma / 2.0) ** 2
    lor_o = omega ** 2 + (kappa / 2.0) ** 2
    d1 = lor_m * lor_o
    d2 = d1 * lor_o
    g2 = (g / 2.0) ** 2
    g4 = g2 * g2
    coherent = kappa ** 2 * g4 / d2
    n_plus = kappa * Gamma * n_th * g2 / d1 + coherent + 0.5
    n_minus = kappa * Gamma * (n_th + 1.0) * g2 / d1 + coherent + 0.5
    xi = (-coherent
          + (-kappa * Gamma * (n_th + 0.5) * g2 + 1j * (delta - omega) * kappa * g2) / d1)
    return CorrelatorTriple(n_plus, n_minus, xi)


def two_mode_scheme_correlators(g: float, kappa: float, Gamma: float,
                                Omega: float, n_th: float) -> CorrelatorTriple:
    """Stokes/anti-Stokes filtered correlators of the single-cavity
    (one optical + one mechanical mode) scheme at resonant drive, valid for
    Omega >> Gamma."""
    lor = Omega ** 2 + (kappa / 2.0) ** 2
    hg = Gamma / 2.0
    coherent = kappa ** 2 * g ** 4 / (lor ** 2 * hg ** 2)
    thermal = kappa * g ** 2 / (lor * hg)
    n_plus = coherent + 2.0 * n_th * thermal + 0.5
    n_minus = coherent + 2.0 * (n_th + 1.0) * thermal + 0.5
    xi = -coherent - (2.0 * n_th + 1.0) * thermal
    return CorrelatorTriple(n_plus, n_minus, complex(xi))


@dataclass(frozen=True)
class EnhancementFactors:
    vs_two_mode: float
    vs_three_mode: float


def enhancement_factors(Omega: float, kappa: float, delta: float) -> EnhancementFactors:
    """Intensity enhancement of the entangled output of the triply resonant
    scheme over the earlier schemes, at fixed input laser power and Delta = 0:
    Omega^4/(delta^2 + (kappa/2)^2)^2 over the two-mode scheme and
    (2 Omega/kappa)^4 over three-mode schemes (off-resonant drives).
    """
    if Omega <= 0 or kappa <= 0:
        raise ValueError("Omega and kappa must be positive")
    vs_two = Omega ** 4 / (delta ** 2 + (kappa / 2.0) ** 2) ** 2
    vs_three = (2.0 * Omega / kappa) ** 4
    return EnhancementFactors(vs_two_mode=vs_two, vs_three_mode=vs_three)


@dataclass(frozen=True)
class ComparisonResult:
    """Side-by-side coherent (n_th-independent) sideband intensities of this
    scheme and the two-mode scheme at matched g, plus the nominal
    large-Omega enhancement factors."""

    our_coherent_intensity: float
    two_mode_coherent_intensity: float
    enhancement_vs_two_mode: float
    enhancement_vs_three_mode: float
    Omega: float


def compare_schemes(g: float, kappa: float, Gamma: float, Omega: float,
                    delta: float) -> ComparisonResult:
    """Assemble the scheme comparison at the sideband frequency omega = delta.

    The coherent intensities come from the respective printed correlator
    formulas; the enhancement factors are the nominal large-Omega ratios
    (they absorb the different coupling normalizations of the two schemes,
    so they do not literally equal the intensity ratio at matched g).
    """
    ours = full_model_correlators_resonant(g, kappa, Gamma, delta, 0.0, delta)
    two = two_mode_scheme_correlators(g, kappa, Gamma, Omega, 0.0)
    factors = enhancement_factors(Omega, kappa, delta)
    return ComparisonResult(
        our_coherent_intensity=ours.n_plus - 0.5,
        two_mode_coherent_intensity=two.n_plus - 0.5,
        enhancement_vs_two_mode=factors.vs_two_mode,
        enhancement_vs_three_mode=factors.vs_three_mode,
        Omega=Omega,
    )
