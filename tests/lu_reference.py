"""Float64 reference for the scattering matrix in the doubled basis, by LU
inversion, independent of the beam-block kernel that entrate.scattering
evaluates from polynomial coefficients.

S(omega) = I + D^1/2 (m + i omega I)^-1 D^1/2 over all operators
(a+, a+^dag, a-, a-^dag[, b, b^dag]), and the within-beam correlator
<a_out(omega) a_out(-omega)> = (S(omega) C S^T(-omega)) from the input
noise coefficients C.
"""

from __future__ import annotations

import numpy as np

from entrate.models import DriftMatrix


def scattering_matrices(d: DriftMatrix, omegas) -> np.ndarray:
    """S(omega_k) stacked, shape (len(omegas), dim, dim)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    eye = np.eye(d.dim)
    sq = np.sqrt(d.decay)
    return eye + np.outer(sq, sq) * np.linalg.inv(d.m + 1j * omegas[:, None, None] * eye)


def scattering_matrix(d: DriftMatrix, omega: float) -> np.ndarray:
    return scattering_matrices(d, [omega])[0]


def input_noise_matrix(dim: int, n_th: float = 0.0) -> np.ndarray:
    """Delta-function coefficients C of the input correlations,
    <A_in(omega) A_in^T(omega')> = 2 pi delta(omega + omega') C: vacuum
    optical inputs and, for dim = 6, a thermal mechanical input."""
    c = np.zeros((dim, dim))
    c[0, 1] = c[2, 3] = 1.0
    if dim == 6:
        c[4, 5], c[5, 4] = n_th + 1.0, n_th
    return c


def intra_beam_correlator(d: DriftMatrix, omega: float, n_th: float = 0.0,
                          beam: int = 1) -> complex:
    """<a_out(omega) a_out(-omega)> of beam 1 (a+) or beam 2 (a-)."""
    row = 0 if beam == 1 else 2
    s = scattering_matrices(d, [omega, -omega])
    return complex(s[0, row] @ input_noise_matrix(d.dim, n_th) @ s[1, row])
