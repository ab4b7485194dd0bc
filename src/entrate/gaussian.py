"""Covariance matrices and logarithmic negativity for Gaussian states.

Conventions used throughout the package:

* vacuum normalization 1/2, i.e. the vacuum covariance matrix is I/2;
* quadrature ordering (x1, p1, x2, p2, ...) with x = (a + a^dag)/sqrt(2),
  p = (a - a^dag)/(i*sqrt(2));
* natural logarithm in the logarithmic negativity, so a two-mode squeezed
  vacuum with squeezing parameter r carries E = 2r;
* partial transposition of "beam 2" modes is the sign flip of their p
  quadratures, a diagonal matrix in this ordering.

The log-negativity of one mode pair, from the excesses of its correlator
triple over vacuum, is rates.log_negativity; log_negativity_general here
is its reference and covers any number of modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import UnphysicalStateError

VACUUM = 0.5
#: Absolute slack allowed below the vacuum floor of symplectic eigenvalues.
PHYSICALITY_TOL = 1e-9
#: Tolerance for pairing the conjugate eigenvalues of i*J*V.
PAIRING_TOL = 1e-10


@dataclass(frozen=True)
class CorrelatorTriple:
    """The three numbers fixing the joint Gaussian state of a (omega, -omega)
    mode pair with purely inter-beam correlations.

    n_plus and n_minus are symmetrized occupations (vacuum floor 1/2); xi is
    the cross-correlator <A1 A2> between the two beams.
    """

    n_plus: float
    n_minus: float
    xi: complex

    def __post_init__(self):
        object.__setattr__(self, "n_plus", float(self.n_plus))
        object.__setattr__(self, "n_minus", float(self.n_minus))
        object.__setattr__(self, "xi", complex(self.xi))
        if not (math.isfinite(self.n_plus) and math.isfinite(self.n_minus)
                and math.isfinite(self.xi.real) and math.isfinite(self.xi.imag)):
            raise ValueError("correlator triple must be finite")

@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric covariance matrix in quadrature ordering, together
    with the assignment of each mode to beam 1 or beam 2."""

    entries: NDArray[np.float64]
    mode_partition: tuple[int, ...]

    def __post_init__(self):
        v = np.array(self.entries, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] % 2:
            raise ValueError(f"covariance matrix must be square with even dim, got {v.shape}")
        scale = max(1.0, float(np.max(np.abs(v))))
        if np.max(np.abs(v - v.T)) > 1e-10 * scale:
            raise ValueError("covariance matrix is not symmetric")
        v = 0.5 * (v + v.T)
        v.flags.writeable = False
        object.__setattr__(self, "entries", v)
        part = tuple(int(b) for b in self.mode_partition)
        if len(part) != v.shape[0] // 2 or any(b not in (1, 2) for b in part):
            raise ValueError("mode_partition must assign each mode to beam 1 or 2")
        object.__setattr__(self, "mode_partition", part)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Block-diagonal symplectic form with 2x2 blocks [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def covariance_from_correlators(t: CorrelatorTriple) -> CovarianceMatrix:
    """4x4 covariance matrix of the two filtered output modes.

    Diagonal blocks n_plus*I and n_minus*I; the off-diagonal block is built
    from Re(xi) and Im(xi), encoding a two-mode-squeezing correlation.
    """
    re, im = t.xi.real, t.xi.imag
    v = np.array([
        [t.n_plus, 0.0, re, im],
        [0.0, t.n_plus, im, -re],
        [re, im, t.n_minus, 0.0],
        [im, -re, 0.0, t.n_minus],
    ])
    return CovarianceMatrix(v, (1, 2))


def _as_matrix(v: CovarianceMatrix | np.ndarray) -> np.ndarray:
    if isinstance(v, CovarianceMatrix):
        return v.entries
    arr = np.asarray(v, dtype=float)
    scale = max(1.0, float(np.max(np.abs(arr)))) if arr.size else 1.0
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2:
        raise ValueError("expected a square even-dimensional matrix")
    if np.max(np.abs(arr - arr.T)) > 1e-10 * scale:
        raise ValueError("covariance matrix is not symmetric")
    return arr


def symplectic_spectrum(v: CovarianceMatrix | np.ndarray) -> NDArray[np.float64]:
    """Symplectic eigenvalues of a covariance matrix, sorted ascending.

    Computed as the moduli of the eigenvalues of i*J*V, which come in
    conjugate pairs; the pairs are averaged and checked against
    PAIRING_TOL (scaled by the matrix norm).
    """
    m = _as_matrix(v)
    n_modes = m.shape[0] // 2
    j_form = symplectic_form(n_modes)
    vals = np.abs(np.linalg.eigvals(1j * j_form @ m))
    vals.sort()
    scale = max(1.0, float(np.max(vals)))
    pairs = vals.reshape(n_modes, 2)
    if np.max(np.abs(pairs[:, 1] - pairs[:, 0])) > PAIRING_TOL * scale * 100:
        raise UnphysicalStateError(
            f"could not pair conjugate eigenvalues of i*J*V: {vals}")
    return pairs.mean(axis=1)


def partial_transpose_signs(mode_partition: tuple[int, ...]) -> NDArray[np.float64]:
    """Diagonal of the partial-transposition matrix: -1 on p quadratures of
    beam-2 modes, +1 elsewhere."""
    signs = np.ones(2 * len(mode_partition))
    for k, beam in enumerate(mode_partition):
        if beam == 2:
            signs[2 * k + 1] = -1.0
    return signs


def log_negativity_general(v: CovarianceMatrix | np.ndarray,
                           partition: tuple[int, ...] | None = None) -> float:
    """Logarithmic negativity from the symplectic spectrum of the partially
    transposed covariance matrix; works for any even dimension.

    Additive over decoupled mode pairs. Raises UnphysicalStateError if V
    itself violates the uncertainty bound beyond tolerance.
    """
    m = _as_matrix(v)
    if partition is None:
        if isinstance(v, CovarianceMatrix):
            partition = v.mode_partition
        else:
            raise ValueError("partition is required for a bare ndarray")
    if len(partition) != m.shape[0] // 2:
        raise ValueError("partition length must equal the number of modes")

    scale = max(1.0, float(np.max(np.abs(m))))
    nu = symplectic_spectrum(m)
    if nu.min() < VACUUM - PHYSICALITY_TOL * scale:
        raise UnphysicalStateError(
            f"covariance matrix violates the uncertainty bound: min nu = {nu.min():.12g}")

    signs = partial_transpose_signs(tuple(partition))
    vt = signs[:, None] * m * signs[None, :]
    nu_t = symplectic_spectrum(vt)
    total = -sum(math.log(2.0 * x) for x in nu_t if x < VACUUM)
    return max(0.0, total)
