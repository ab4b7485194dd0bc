"""Parameter sets and drift matrices for the linear bosonic network models.

Two models are provided: the "full" model with two localized optical modes
coupled to one mechanical mode (6 doubled operators), and the "effective"
purely optical model obtained after adiabatic elimination of the mechanics
(4 doubled operators).

All rates are expressed in units of the optical intensity decay rate kappa,
which is stored explicitly so that dimensional output remains possible.
The operator ordering is fixed to (a+, a+^dag, a-, a-^dag[, b, b^dag]);
the Langevin system reads dA/dt = m A - sqrt(decay) A_in per channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

FULL_ORDERING = ("a_plus", "a_plus_dag", "a_minus", "a_minus_dag", "b", "b_dag")
EFFECTIVE_ORDERING = FULL_ORDERING[:4]
#: Beam block of the drift: a+, a-^dag and (full model only) b.
BEAM_BLOCK = ("a_plus", "a_minus_dag", "b")

#: Eigenvalue real parts below minus this (in kappa units) count as stable;
#: within this of zero a point is marginal.
STABILITY_TOL = 1e-9
#: Constructor tolerance on the (op, op^dag) pairing structure of drift matrices.
PAIRING_DEFECT_TOL = 1e-12


def _require_finite(params) -> None:
    """Raise ValueError naming the first field of a parameter set that is
    not a finite number."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class FullModelParams:
    """Rates of the full optomechanical model, in units of kappa.

    g is the linearized coupling, Gamma the mechanical damping, Delta the
    laser detuning, delta the frequency mismatch between the mechanical
    frequency and the optical mode spacing, n_th the mechanical bath
    occupation.
    """

    g: float
    Gamma: float
    kappa: float = 1.0
    Delta: float = 0.0
    delta: float = 0.0
    n_th: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.Gamma <= 0:
            raise ValueError("Gamma must be positive")
        if self.g < 0:
            raise ValueError("g must be non-negative")
        if self.n_th < 0:
            raise ValueError("n_th must be non-negative")

    @property
    def cooperativity(self) -> float:
        return self.g ** 2 / (self.kappa * self.Gamma)


@dataclass(frozen=True)
class EffectiveModelParams:
    """Rates of the effective optical model (mechanics eliminated)."""

    g: float
    delta: float
    kappa: float = 1.0
    Delta: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.g < 0:
            raise ValueError("g must be non-negative")
        if self.delta == 0:
            raise ValueError("delta must be nonzero (the pair coupling is g^2/4delta)")

@dataclass(frozen=True)
class DriftMatrix:
    """Generator of the linear Langevin dynamics in the doubled operator
    basis, plus per-channel decay rates.

    Rows/columns pair up as (op, op^dag); the constructor enforces the
    conjugation symmetry m = P conj(m) P with P the partner swap.
    """

    m: NDArray[np.complex128]
    decay: NDArray[np.float64]
    ordering: tuple[str, ...]

    def __post_init__(self):
        m = np.array(self.m, dtype=complex)
        decay = np.array(self.decay, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"drift matrix must be square with even dim, got {m.shape}")
        if decay.shape != (m.shape[0],):
            raise ValueError("decay must hold one rate per operator row")
        if np.any(decay < 0):
            raise ValueError("decay rates must be non-negative")
        if len(self.ordering) != m.shape[0]:
            raise ValueError("ordering must label every operator row")
        scale = max(1.0, float(np.max(np.abs(m))))
        if pairing_defect(m) > PAIRING_DEFECT_TOL * scale:
            raise ValueError("drift matrix breaks the (op, op^dag) pairing structure")
        m.flags.writeable = False
        decay.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "decay", decay)
        object.__setattr__(self, "ordering", tuple(self.ordering))

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    @cached_property
    def beam_block(self) -> tuple[NDArray[np.complex128], NDArray[np.float64]]:
        """(m, decay) restricted to the beam block (a+, a-^dag[, b]).

        m splits into this block and its conjugate partner
        (a+^dag, a-[, b^dag]). The block comes from the operator labels,
        not from the sparsity of m, which loses the mechanical channel at
        g = 0. Raises ValueError when m couples the block to its partner.
        """
        idx = [self.ordering.index(name) for name in BEAM_BLOCK[:self.dim // 2]]
        partner = [i for i in range(self.dim) if i not in idx]
        # the pairing symmetry mirrors partner -> block couplings onto these
        if np.any(self.m[np.ix_(idx, partner)]):
            raise ValueError("drift matrix couples the beam block "
                             f"{BEAM_BLOCK[:len(idx)]} to its conjugate partner")
        return self.m[np.ix_(idx, idx)], self.decay[idx]


def pairing_defect(m: np.ndarray) -> float:
    """Max-norm violation of m = P conj(m) P, where P swaps each operator
    with its daggered partner (rows and columns 2i <-> 2i+1)."""
    m = np.asarray(m)
    n = m.shape[0]
    perm = np.arange(n).reshape(-1, 2)[:, ::-1].ravel()
    return float(np.max(np.abs(m - np.conj(m)[perm][:, perm])))


def drift_full(p: FullModelParams) -> DriftMatrix:
    """6x6 drift matrix of the full model.

    Encodes da+/dt = i Delta a+ + i(g/2) b - (kappa/2) a+ - sqrt(kappa) a+_in
    and its partners; the mechanical rows carry -i delta and couple to
    (a+, a-^dag) with i g/2.
    """
    hg = 0.5j * p.g
    ka = 1j * p.Delta - p.kappa / 2
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0] = ka;            m[0, 4] = hg
    m[1, 1] = np.conj(ka);   m[1, 5] = -hg
    m[2, 2] = ka;            m[2, 5] = hg
    m[3, 3] = np.conj(ka);   m[3, 4] = -hg
    m[4, 4] = -1j * p.delta - p.Gamma / 2
    m[4, 0] = hg;            m[4, 3] = hg
    m[5, 5] = 1j * p.delta - p.Gamma / 2
    m[5, 1] = -hg;           m[5, 2] = -hg
    decay = np.array([p.kappa] * 4 + [p.Gamma] * 2)
    return DriftMatrix(m, decay, FULL_ORDERING)


def drift_effective(p: EffectiveModelParams) -> DriftMatrix:
    """4x4 drift matrix of the effective optical model: diagonal
    +-i(Delta + g^2/4delta) - kappa/2 with anti-diagonal pair couplings
    +-i g^2/4delta."""
    gp = p.g ** 2 / (4.0 * p.delta)
    dg = 1j * (p.Delta + gp) - p.kappa / 2
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = dg;          m[0, 3] = 1j * gp
    m[1, 1] = np.conj(dg); m[1, 2] = -1j * gp
    m[2, 2] = dg;          m[2, 1] = 1j * gp
    m[3, 3] = np.conj(dg); m[3, 0] = -1j * gp
    return DriftMatrix(m, np.full(4, float(p.kappa)), EFFECTIVE_ORDERING)


#: The parameter names of either model: the fields of their parameter sets.
PARAMETER_NAMES = frozenset(f.name for cls in (FullModelParams, EffectiveModelParams)
                            for f in fields(cls))


def build_drift(model: str, params: dict[str, float]) -> tuple[DriftMatrix, float]:
    """(drift, n_th) of model "full" or "effective" at the parameters named
    as the fields of FullModelParams or EffectiveModelParams; names that
    only the other model has are ignored, and n_th is 0 for the effective
    model. Raises ValueError for invalid parameters."""
    cls = FullModelParams if model == "full" else EffectiveModelParams
    # __match_args__: the field names, in the order of the constructor
    p = cls(**{k: params[k] for k in cls.__match_args__ if k in params})
    return (drift_full(p), p.n_th) if cls is FullModelParams else (drift_effective(p), 0.0)


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    max_real_part: float
    marginal: bool
    #: The drift eigenvalues behind the verdict; the rate path reads its
    #: resonance grid and frequency scale off them instead of solving again.
    eigenvalues: NDArray[np.complex128] = field(repr=False, compare=False)


def _verdict(eigenvalues: np.ndarray) -> StabilityReport:
    max_re = float(np.max(eigenvalues.real))
    return StabilityReport(stable=max_re < -STABILITY_TOL, max_real_part=max_re,
                           marginal=abs(max_re) <= STABILITY_TOL, eigenvalues=eigenvalues)


def stability(d: DriftMatrix) -> StabilityReport:
    """Numerical stability verdict from the drift eigenvalues.

    stable means max Re(eig) < -STABILITY_TOL; points with
    |max Re(eig)| <= STABILITY_TOL are flagged marginal and are not stable,
    so every gate that asks for a stable drift rejects a point on the
    instability boundary.
    """
    return _verdict(np.linalg.eigvals(d.m))


def stability_batch(drifts: Sequence[DriftMatrix]) -> list[StabilityReport]:
    """stability() of each drift from one stacked eigen-solve; the drifts
    must share their dimension. LAPACK solves the stacked matrices one by
    one, so each report equals stability() of its drift bit for bit."""
    if not drifts:
        return []
    if len({d.dim for d in drifts}) != 1:
        raise ValueError("a stacked stability solve needs drifts of one model")
    return [_verdict(e) for e in np.linalg.eigvals(np.stack([d.m for d in drifts]))]


def stability_boundary_effective(g: float, kappa: float, delta: float) -> tuple[float, ...]:
    """Real detunings Delta solving (Delta + g^2/2delta) Delta + (kappa/2)^2 = 0,
    sorted ascending; empty when the discriminant is negative (always
    optically stable)."""
    if delta == 0:
        raise ValueError("delta must be nonzero")
    b = g ** 2 / (2.0 * delta)
    disc = b * b - kappa * kappa
    if disc < 0:
        return ()
    # stable quadratic formula, avoids cancellation for |b| >> kappa
    r1 = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    r2 = (kappa / 2.0) ** 2 / r1
    return tuple(sorted((r1, r2)))
