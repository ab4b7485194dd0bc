"""Frequency-domain solution of the Langevin equations.

Fourier convention a(omega) = int a(t) e^{i omega t} dt, under which the
Langevin system dA/dt = m A - sqrt(D) A_in gives

    A_out(omega) = S(omega) A_in(omega),
    S(omega) = I + D^{1/2} (m + i omega I)^{-1} D^{1/2},

with D = diag(decay). The drift of both models splits into two conjugate
blocks: the beam block (a+, a-^dag[, b]) and its partner
(a+^dag, a-[, b^dag]), and S(-omega) on the partner block is the complex
conjugate of S(+omega) on the beam block. The output-pair correlators
therefore need one solve of the 3x3 (full) or 2x2 (effective) beam block
at +omega. With s = S(omega) on that block, rows and columns indexed
+ (a+), - (a-^dag), b, vacuum optical inputs and a thermal mechanical
input of occupation n_th:

    n_plus  = 1/2 + |s_+-|^2 + n_th |s_+b|^2
    n_minus = 1/2 + |s_-+|^2 + (n_th + 1) |s_-b|^2
    xi      = s_++ conj(s_-+) + (n_th + 1) s_+b conj(s_-b)

The pair covariance has the Gram form G = X diag(1/2, 1/2, n_th + 1/2) X^dag
over the rows X = (s_+, s_-). Cauchy-Binet writes q = det G =
n_plus n_minus - |xi|^2 as a weighted sum of squared 2x2 minors of X, and
the Bogoliubov inverse S^-1 = K S^dag K (K = diag(1, -1, 1)) with Jacobi's
complementary-minor identity turns each minor into an entry of the
mechanical output row; that row's flux relation
|s_b+|^2 - |s_b-|^2 + |s_bb|^2 = 1 then leaves

    q = 1/4 + (n_th |s_b+|^2 + (n_th + 1) |s_b-|^2) / 2,

a sum of non-negative terms, and exactly 1/4 for the effective model. The
log-negativity built on q therefore loses no digits to cancellation.

The photon pair rate of the effective model needs no quadrature. On its
2x2 beam block n_plus - 1/2 = |s_+-|^2 = kappa_+ kappa_- |R_+-|^2 with
R = (m + i omega)^-1, the Fourier transform of the impulse response
e^{m t} e_-. Parseval turns int domega/2pi |R_+-|^2 into the entry P_++ of
the Gramian P = int_0^inf e^{m t} e_- e_-^T e^{m^dag t} dt, which solves
the Lyapunov equation m P + P m^dag + e_- e_-^T = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import UnstableSystemError
from .gaussian import CorrelatorTriple
from .models import DriftMatrix, EffectiveModelParams, drift_effective, stability
# unused here, but the benchmark tracer wraps scattering.adaptive_gk
from .quadutil import adaptive_gk


@dataclass(frozen=True)
class ScatteringMatrix:
    """Frequency-tagged linear map from input to output operators."""

    omega: float
    s: NDArray[np.complex128]

    def __post_init__(self):
        s = np.array(self.s, dtype=complex)
        s.flags.writeable = False
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "omega", float(self.omega))

    @property
    def dim(self) -> int:
        return self.s.shape[0]

    def flux_relation_defect(self) -> float:
        """Max-norm violation of the Bogoliubov relation S K S^dag = K with
        K = diag(+1, -1, ...), which encodes commutator preservation."""
        k_sig = np.diag([1.0, -1.0] * (self.dim // 2))
        return float(np.max(np.abs(self.s @ k_sig @ self.s.conj().T - k_sig)))


@dataclass(frozen=True)
class SpectrumPoint:
    """Output intensity spectrum of beam 1 at one frequency, split into the
    contributions of the optical and mechanical input channels (the input
    baths are uncorrelated, so the two parts add up to the total)."""

    omega: float
    total: float
    optical_part: float
    mechanical_part: float


def _require_stable(d: DriftMatrix) -> None:
    rep = stability(d)
    if not rep.stable:
        raise UnstableSystemError(rep.max_real_part)


def _stacked_s(m: np.ndarray, decay: np.ndarray,
               omegas: np.ndarray) -> NDArray[np.complex128]:
    """I + D^{1/2} (m + i omega I)^{-1} D^{1/2} for every omega, stacked.

    A singular response matrix means the system sits at an instability
    threshold for one of the frequencies.
    """
    eye = np.eye(m.shape[0])
    try:
        inv = np.linalg.inv(m + 1j * omegas[:, None, None] * eye)
    except np.linalg.LinAlgError as exc:
        raise UnstableSystemError(
            float(np.max(np.linalg.eigvals(m).real)),
            "singular response matrix: system at an instability threshold "
            f"for a requested frequency ({exc})") from exc
    sq = np.sqrt(decay)
    return eye + np.outer(sq, sq) * inv


def scattering_matrices(d: DriftMatrix, omegas: np.ndarray) -> NDArray[np.complex128]:
    """Stacked scattering matrices S(omega_k), shape (len(omegas), dim, dim).

    Vectorized over frequencies through a stacked matrix inverse.
    """
    return _stacked_s(d.m, d.decay, np.atleast_1d(np.asarray(omegas, dtype=float)))


def scattering_matrix(d: DriftMatrix, omega: float) -> ScatteringMatrix:
    """S(omega) = I + D^{1/2} (m + i omega I)^{-1} D^{1/2}."""
    return ScatteringMatrix(omega, scattering_matrices(d, np.array([omega]))[0])


def input_noise_matrix(dim: int, n_th: float = 0.0) -> NDArray[np.float64]:
    """Delta-function coefficient matrix C of the input correlations in the
    doubled ordering, <A_in(omega) A_in^T(omega')> = 2 pi delta(omega + omega') C;
    mechanical channels exist only for dim = 6."""
    if dim not in (4, 6):
        raise ValueError("expected a 4- or 6-dimensional doubled basis")
    c = np.zeros((dim, dim))
    c[0, 1] = 1.0
    c[2, 3] = 1.0
    if dim == 6:
        c[4, 5] = n_th + 1.0
        c[5, 4] = n_th
    return c


def beam_block_scattering(d: DriftMatrix, omegas: np.ndarray) -> NDArray[np.complex128]:
    """S(omega_k) restricted to the beam block (a+, a-^dag[, b]) of
    d.beam_block, stacked as (len(omegas), k, k) with k = 3 (full model)
    or 2 (effective model)."""
    m, decay = d.beam_block
    return _stacked_s(m, decay, np.atleast_1d(np.asarray(omegas, dtype=float)))


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real ** 2 + z.imag ** 2


def correlator_batch(d: DriftMatrix, omegas: np.ndarray, n_th: float = 0.0,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(nu_plus, nu_minus, xi, q - 1/4) arrays over a frequency grid: the
    excesses nu = n - 1/2 of the occupations over vacuum and of
    q = n_plus n_minus - |xi|^2 over its vacuum value, each a sum of
    non-negative terms (see the module docstring), so none of them is
    rounded against the vacuum's 1/2 or 1/4. No stability check (meant for
    integrators that have already verified it)."""
    s = beam_block_scattering(d, omegas)
    s_p, s_m = s[:, 0], s[:, 1]
    nu_plus = _abs2(s_p[:, 1])
    nu_minus = _abs2(s_m[:, 0])
    xi = s_p[:, 0] * s_m[:, 0].conj()
    if s.shape[1] == 2:
        return nu_plus, nu_minus, xi, np.zeros(nu_plus.shape)
    s_b = s[:, 2]
    nu_plus += n_th * _abs2(s_p[:, 2])
    nu_minus += (n_th + 1.0) * _abs2(s_m[:, 2])
    xi += (n_th + 1.0) * s_p[:, 2] * s_m[:, 2].conj()
    q_excess = 0.5 * (n_th * _abs2(s_b[:, 0]) + (n_th + 1.0) * _abs2(s_b[:, 1]))
    return nu_plus, nu_minus, xi, q_excess


def output_correlators(d: DriftMatrix, omega: float, n_th: float = 0.0) -> CorrelatorTriple:
    """Correlator triple of the output beams at (omega, -omega)."""
    _require_stable(d)
    nu_plus, nu_minus, xi, _ = correlator_batch(d, np.array([omega]), n_th)
    return CorrelatorTriple(0.5 + float(nu_plus[0]), 0.5 + float(nu_minus[0]), complex(xi[0]))


def intra_beam_correlator(d: DriftMatrix, omega: float, n_th: float = 0.0,
                          beam: int = 1) -> complex:
    """<a_out(omega) a_out(-omega)> within one beam, (S(omega) C S^T(-omega))
    at the (a+, a+) or (a-, a-) entry; vanishes identically for these
    models -- no intra-beam squeezing."""
    row = 0 if beam == 1 else 2
    s_all = scattering_matrices(d, np.array([omega, -omega]))
    c = input_noise_matrix(d.dim, n_th)
    return complex(s_all[0, row, :] @ c @ s_all[1, row, :])


def spectrum_parts(d: DriftMatrix, omegas: np.ndarray, n_th: float = 0.0,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(optical, mechanical) parts of the beam-1 output intensity spectrum
    over a frequency grid, from one stacked solve of the beam block: the
    optical part |s_+-|^2 comes from the vacuum input of beam 2, the
    mechanical part n_th |s_+b|^2 from the thermal mechanical input (zero
    for the effective model). No stability check."""
    s_p = beam_block_scattering(d, omegas)[:, 0]
    optical = _abs2(s_p[:, 1])
    return optical, (n_th * _abs2(s_p[:, 2]) if s_p.shape[1] == 3
                     else np.zeros_like(optical))


def output_spectrum(d: DriftMatrix, omega: float, n_th: float = 0.0) -> SpectrumPoint:
    """Channel-resolved output intensity spectrum of beam 1 at one
    frequency, total = n_plus(omega) - 1/2: spectrum_parts at one point,
    after a stability check."""
    _require_stable(d)
    optical, mechanical = np.concatenate(spectrum_parts(d, np.array([omega]), n_th)).tolist()
    return SpectrumPoint(omega=float(omega), total=optical + mechanical,
                         optical_part=optical, mechanical_part=mechanical)


def pair_rate_numeric(p: EffectiveModelParams) -> float:
    """Photon pair creation rate int domega/2pi (n_plus(omega) - 1/2) of the
    effective optical model, exactly: kappa_+ kappa_- P_++ from the Gramian
    of the module docstring, with the Lyapunov equation solved as the
    linear system (m (x) I + I (x) conj(m)) vec P = -vec(e_- e_-^T)."""
    d = drift_effective(p)
    _require_stable(d)
    m, decay = d.beam_block
    eye = np.eye(2)
    rhs = np.array([0.0, 0.0, 0.0, -1.0])      # -vec(e_- e_-^T), row-major
    try:
        gram = np.linalg.solve(np.kron(m, eye) + np.kron(eye, m.conj()), rhs)
    except np.linalg.LinAlgError as exc:
        raise UnstableSystemError(
            float(np.max(np.linalg.eigvals(m).real)),
            f"singular Lyapunov system: system at an instability threshold ({exc})") from exc
    return float(decay[0] * decay[1] * gram[0].real)
