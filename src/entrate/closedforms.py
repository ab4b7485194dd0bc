"""Closed-form reference expressions for the resonant full model and the
effective optical model.

These are independent of the frequency-domain numerical pipeline and serve
as its oracle suite. Everything here is an explicit rational/algebraic
formula in the model rates.
"""

from __future__ import annotations

import math

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
