"""Parameter sets, beam blocks and drift matrices of the linear bosonic
network models.

Two models are provided: the "full" model with two localized optical modes
coupled to one mechanical mode (6 doubled operators), and the "effective"
purely optical model obtained after adiabatic elimination of the mechanics
(4 doubled operators).

All rates are expressed in units of the optical intensity decay rate kappa,
which is stored explicitly so that dimensional output remains possible.
The operator ordering is fixed to (a+, a+^dag, a-, a-^dag[, b, b^dag]);
the Langevin system reads dA/dt = m A - sqrt(decay) A_in per channel.

The drift splits into the beam block (a+, a-^dag[, b]), which emits the
two entangled beams, and its partner (a+^dag, a-[, b^dag]), the block's
complex conjugate. Each model is written once, as the builder of its k x k
beam block on parameter arrays (beam_blocks); drift_full and
drift_effective are its case of one point with the partner placed by the
ordering. The drift's eigenvalues are the block's and their conjugates, so
stability is decided from the block's k eigenvalues: stability_gate solves
a stack of beam blocks at once and gives the eigenvalues and verdicts as
arrays, for the package's one gate (scattering.BeamBlocks.gate);
stability is its report on one drift. Every eigen-solve of the package's
rate path goes through eigvals.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import cache, cached_property
from typing import Mapping, Sequence

import numpy as np
from numpy.linalg import LinAlgError
# the stacked LAPACK gufunc that np.linalg.eigvals wraps
from numpy.linalg._umath_linalg import eigvals as _geev
from numpy.typing import ArrayLike, NDArray

FULL_ORDERING = ("a_plus", "a_plus_dag", "a_minus", "a_minus_dag", "b", "b_dag")
EFFECTIVE_ORDERING = FULL_ORDERING[:4]
#: Beam block of the drift: a+, a-^dag and (full model only) b.
BEAM_BLOCK = ("a_plus", "a_minus_dag", "b")

#: Eigenvalue real parts below minus this (in kappa units) count as stable;
#: within this of zero a point is marginal.
STABILITY_TOL = 1e-9
#: Constructor tolerance on the (op, op^dag) pairing structure of drift matrices.
PAIRING_DEFECT_TOL = 1e-12


def _check(params) -> None:
    """Raise the ValueError of the first check a parameter set fails."""
    for name in type(params).__match_args__:      # the field names
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, test, message in _CHECKS[type(params)]:
        if not test(getattr(params, name)):
            raise ValueError(message)


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
        _check(self)

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
        _check(self)


#: What each parameter set requires of its finite fields, in the order
#: checked: (field, test, message). The tests hold for valid values, on
#: numbers and on arrays alike.
_CHECKS = {
    FullModelParams: (("kappa", lambda x: x > 0, "kappa must be positive"),
                      ("Gamma", lambda x: x > 0, "Gamma must be positive"),
                      ("g", lambda x: x >= 0, "g must be non-negative"),
                      ("n_th", lambda x: x >= 0, "n_th must be non-negative")),
    EffectiveModelParams: (("kappa", lambda x: x > 0, "kappa must be positive"),
                           ("g", lambda x: x >= 0, "g must be non-negative"),
                           ("delta", lambda x: x != 0,
                            "delta must be nonzero (the pair coupling is g^2/4delta)")),
}
_MODELS = {"full": FullModelParams, "effective": EffectiveModelParams}
#: The parameter names of either model: the fields of their parameter sets.
PARAMETER_NAMES = frozenset(f.name for cls in _MODELS.values() for f in fields(cls))


def n_th_errors(n_th: Sequence[float]) -> dict[int, str]:
    """FullModelParams's ValueError message for each bath occupation of
    n_th that is not a finite number >= 0, by index: the check of every
    n_th that enters the kernel apart from a parameter set."""
    errors = {}
    for i, x in enumerate(n_th):
        if not 0.0 <= x < math.inf:
            try:
                FullModelParams(g=0.0, Gamma=1.0, n_th=x)
            except ValueError as exc:
                errors[i] = str(exc)
    return errors


def _errors(cls, columns: Mapping[str, NDArray]) -> dict[int, str]:
    """The ValueError message of the parameter set cls at each invalid
    point of its parameter columns, by point index."""
    ok = np.logical_and.reduce([np.isfinite(c) for c in columns.values()]
                               + [test(columns[name]) for name, test, _ in _CHECKS[cls]])
    errors = {}
    for i in np.flatnonzero(~ok).tolist():
        try:
            cls(**{name: float(c[i]) for name, c in columns.items()})
        except ValueError as exc:
            errors[i] = str(exc)
    return errors


def _block_full(g, Gamma, kappa, Delta, delta, n_th):
    """Beam block of the full model: da+/dt = (i Delta - kappa/2) a+ +
    i(g/2) b - sqrt(kappa) a+_in, a-^dag with the conjugate detuning and
    -i(g/2) b, and b with -i delta - Gamma/2 and i(g/2) (a+ + a-^dag)."""
    hg = 0.5j * g
    ka = 1j * Delta - kappa / 2
    m = np.zeros((g.size, 3, 3), dtype=complex)
    m[:, 0, 0] = ka;            m[:, 0, 2] = hg
    m[:, 1, 1] = np.conj(ka);   m[:, 1, 2] = -hg
    m[:, 2, 0] = hg;            m[:, 2, 1] = hg
    m[:, 2, 2] = -1j * delta - Gamma / 2
    return m, np.array([kappa, kappa, Gamma]).T, n_th


def _block_effective(g, delta, kappa, Delta):
    """Beam block of the effective model: diagonal +-i(Delta + g^2/4delta)
    - kappa/2 with the pair couplings +-i g^2/4delta off it; n_th = 0."""
    gp = g ** 2 / (4.0 * delta)
    dg = 1j * (Delta + gp) - kappa / 2
    m = np.empty((g.size, 2, 2), dtype=complex)
    m[:, 0, 0] = dg;            m[:, 0, 1] = 1j * gp
    m[:, 1, 0] = -1j * gp;      m[:, 1, 1] = np.conj(dg)
    return m, np.array([kappa, kappa]).T, np.zeros(g.size)


_BUILDERS = {"full": _block_full, "effective": _block_effective}


def beam_blocks(model: str, params: Mapping[str, ArrayLike],
                ) -> tuple[NDArray[np.complex128], NDArray[np.float64], NDArray[np.float64],
                           dict[int, str]]:
    """The beam blocks (a+, a-^dag[, b]) of model "full" or "effective" at
    the P points of params: the fields of its parameter set as numbers or
    arrays that broadcast, the points in C order (defaults where left out;
    the other model's names are ignored). Returns m (V, k, k), decay (V, k)
    and n_th (V,) of the V valid points in order, and the ValueError
    message of each invalid point by index."""
    cls = _MODELS[model]
    cols = dict(zip(cls.__match_args__, (c.ravel() for c in np.broadcast_arrays(*(
        np.asarray(params[f.name] if f.default is MISSING
                   else params.get(f.name, f.default), dtype=float)
        for f in fields(cls))))))
    errors = _errors(cls, cols)
    valid = np.delete(np.arange(cols["g"].size), list(errors))
    return (*_BUILDERS[model](**{name: c[valid] for name, c in cols.items()}), errors)


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
        if (decay < 0).any():
            raise ValueError("decay rates must be non-negative")
        if len(self.ordering) != m.shape[0]:
            raise ValueError("ordering must label every operator row")
        scale = max(1.0, float(np.abs(m).max()))
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
    n = len(m) // 2
    # [i, a, j, b]: row 2i + a, column 2j + b; the swap reverses a and b
    v = np.asarray(m).reshape(n, 2, n, 2)
    return float(np.abs(v - np.conj(v[:, ::-1, :, ::-1])).max())


@cache
def _placement(ordering: tuple[str, ...], k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where _doubled puts a k x k beam block in a drift of ordering: the
    flat places of the block's entries, those of their partners, and for
    each row of the drift the block operator it or its partner is."""
    idx = np.array([ordering.index(name) for name in BEAM_BLOCK[:k]])
    rows = np.empty(len(ordering), dtype=np.intp)
    rows[idx] = rows[idx ^ 1] = np.arange(k)
    n = len(ordering)
    return idx[:, None] * n + idx, (idx[:, None] ^ 1) * n + (idx ^ 1), rows


def _doubled(model: str, p, ordering: tuple[str, ...]) -> DriftMatrix:
    """The drift at p: the model's beam block (its builder at one point) at
    the block's operators of ordering, and the block's complex conjugate at
    their partners (rows and columns 2i <-> 2i + 1). The drift keeps the
    block as built, so beam_block does not extract it again, and is built
    without __post_init__'s checks, which hold by construction: the
    partner is the block's conjugate, so the pairing defect is exactly 0."""
    # each parameter as an array of one point
    point = np.array(list(vars(p).values()), dtype=float)[:, None]
    m, decay, _ = _BUILDERS[model](**dict(zip(vars(p), point)))
    block, rates = m[0], decay[0]
    entries, partners, rows = _placement(ordering, len(block))
    full = np.zeros((len(ordering),) * 2, dtype=complex)
    full.put(entries, block)
    full.put(partners, block.conj())
    decays = rates.take(rows)
    full.flags.writeable = decays.flags.writeable = False
    d = DriftMatrix.__new__(DriftMatrix)
    for name, value in (("m", full), ("decay", decays), ("ordering", ordering),
                        ("beam_block", (block, rates))):   # the cached_property's slot
        object.__setattr__(d, name, value)
    return d


def drift_full(p: FullModelParams) -> DriftMatrix:
    """6x6 drift matrix of the full model: its beam block at p and the
    conjugate partner."""
    return _doubled("full", p, FULL_ORDERING)


def drift_effective(p: EffectiveModelParams) -> DriftMatrix:
    """4x4 drift matrix of the effective optical model: its beam block at p
    and the conjugate partner."""
    return _doubled("effective", p, EFFECTIVE_ORDERING)


def build_drift(model: str, params: dict[str, float]) -> tuple[DriftMatrix, float]:
    """(drift, n_th) of model "full" or "effective" at the parameters named
    as the fields of FullModelParams or EffectiveModelParams; names that
    only the other model has are ignored, and n_th is 0 for the effective
    model. Raises ValueError for invalid parameters."""
    cls = _MODELS[model]
    # __match_args__: the field names, in the order of the constructor
    p = cls(**{k: params[k] for k in cls.__match_args__ if k in params})
    return (drift_full(p), p.n_th) if cls is FullModelParams else (drift_effective(p), 0.0)


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    max_real_part: float
    marginal: bool


def stability(d: DriftMatrix) -> StabilityReport:
    """Numerical stability verdict from the eigenvalues of d's beam block
    (the drift's others are their conjugates, of the same real parts).

    stable means max Re(eig) < -STABILITY_TOL; points with
    |max Re(eig)| <= STABILITY_TOL are flagged marginal and are not stable,
    so every gate that asks for a stable drift rejects a point on the
    instability boundary. Raises ValueError when d couples the beam block
    to its partner. The verdict of stability_gate on the block alone.
    """
    _, (margin,), (stable,) = stability_gate(d.beam_block[0][None])
    return StabilityReport(stable=bool(stable), max_real_part=float(margin),
                           marginal=bool(abs(margin) <= STABILITY_TOL))


def stability_gate(m: NDArray[np.complex128],
                   ) -> tuple[NDArray[np.complex128], NDArray[np.float64], NDArray[np.bool_]]:
    """The eigenvalues (P, k) of the stacked beam blocks m (P, k, k) from
    one stacked eigen-solve, with each block's margin max Re(eig) (P,) and
    its verdict stable, margin < -STABILITY_TOL (P,). A block within
    STABILITY_TOL of the boundary is marginal: not stable. LAPACK solves
    the stacked matrices one by one, so a block's verdict does not depend
    on the others. Raises LinAlgError when a block has a non-finite entry."""
    eigenvalues = eigvals(m)
    margin = np.maximum.reduce(eigenvalues.real, axis=-1)
    return eigenvalues, margin, margin < -STABILITY_TOL


def _not_converged(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def eigvals(a: NDArray) -> NDArray[np.complex128]:
    """The complex eigenvalues of each matrix of the stack a (..., n, n),
    real or complex, as np.linalg.eigvals finds them (the same LAPACK
    gufunc, bit for bit) without its wrapper's work on the array's type,
    and complex even where they are all real. Keeps its two checks: raises
    LinAlgError on a non-finite entry, and when a solve does not converge."""
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise LinAlgError("Array must not contain infs or NaNs")
    # the gufunc flags a solve that did not converge as an invalid operation
    with np.errstate(call=_not_converged, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _geev(a, signature="D->D" if a.dtype.kind == "c" else "d->D")


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
