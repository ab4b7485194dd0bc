"""Parameter sets, beam blocks and drift matrices of the linear bosonic
network models.

Two models are provided: the "full" model with two localized optical modes
coupled to one mechanical mode, and the "effective" purely optical model
obtained after adiabatic elimination of the mechanics.

All rates are expressed in units of the optical intensity decay rate kappa,
which is stored explicitly so that dimensional output remains possible.
The Langevin system of the beam operators (a+, a-^dag[, b]), which emit the
two entangled beams, reads dA/dt = m A - sqrt(decay) A_in per channel; that
of their partners (a+^dag, a-[, b^dag]) is its complex conjugate, and the
two do not couple. So a drift is the k x k beam block m (k = 3 full, 2
effective) with its k decay rates. Each model is written once, as the
builder of its beam block on parameter arrays (beam_blocks); drift_full and
drift_effective are its case of one point. The eigenvalues of the partner
block are the conjugates of the beam block's, so stability is decided from
the block's k eigenvalues: stability_gate solves a stack of beam blocks at
once and gives the eigenvalues and verdicts as arrays, for the package's
one gate (scattering.BeamBlocks.gate); stability is its report on one
drift. Every eigen-solve of the package's rate path goes through eigvals.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Mapping

import numpy as np
from numpy.linalg import LinAlgError
# the stacked LAPACK gufunc that np.linalg.eigvals wraps
from numpy.linalg._umath_linalg import eigvals as _geev
from numpy.typing import ArrayLike, NDArray

#: Eigenvalue real parts below minus this (in kappa units) count as stable;
#: within this of zero a point is marginal.
STABILITY_TOL = 1e-9


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
    - kappa/2 with the pair couplings +-i g^2/4delta off it; n_th = 0. An
    overflowing g^2/4delta gives a non-finite block, which the gate fails."""
    m = np.empty((g.size, 2, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        gp = g ** 2 / (4.0 * delta)
        dg = 1j * (Delta + gp) - kappa / 2
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
    """The drift of the beam operators (a+, a-^dag[, b]): the k x k beam
    block m of the Langevin dynamics (k = 3 full, 2 effective) and the decay
    rate of each of its channels. The partner operators' drift is the
    complex conjugate of m."""

    m: NDArray[np.complex128]
    decay: NDArray[np.float64]

    def __post_init__(self):
        m = np.array(self.m, dtype=complex)
        decay = np.array(self.decay, dtype=float)
        if m.shape not in ((2, 2), (3, 3)) or decay.shape != m.shape[:1]:
            raise ValueError("a drift is a 2x2 or 3x3 beam block with one decay rate per "
                             f"row, got m of shape {m.shape} and decay of shape {decay.shape}")
        # (NaN fails both comparisons)
        if np.count_nonzero((0 <= decay) & (decay < np.inf)) < decay.size:
            raise ValueError("decay rates must be finite and non-negative")
        m.flags.writeable = decay.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "decay", decay)

    # the benchmark tracer reads it
    @property
    def dim(self) -> int:
        """k, the number of beam operators."""
        return len(self.m)


def _drift(model: str, p) -> DriftMatrix:
    """The drift at p: the model's beam-block builder at one point."""
    # each parameter as an array of one point
    point = np.array(list(vars(p).values()), dtype=float)[:, None]
    m, decay, _ = _BUILDERS[model](**dict(zip(vars(p), point)))
    # the builder's rows have the checked shapes and dtypes: skip the copies
    # of __post_init__, whose cost every timed rate would carry
    d = DriftMatrix.__new__(DriftMatrix)
    for name, value in (("m", m[0]), ("decay", decay[0])):
        value.flags.writeable = False
        object.__setattr__(d, name, value)
    return d


def drift_full(p: FullModelParams) -> DriftMatrix:
    """3x3 beam block of the full model at p."""
    return _drift("full", p)


def drift_effective(p: EffectiveModelParams) -> DriftMatrix:
    """2x2 beam block of the effective optical model at p."""
    return _drift("effective", p)


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
    (the partner block's are their conjugates, of the same real parts).

    stable means max Re(eig) < -STABILITY_TOL; points with
    |max Re(eig)| <= STABILITY_TOL are flagged marginal and are not stable,
    so every gate that asks for a stable drift rejects a point on the
    instability boundary. The verdict of stability_gate on the block alone.
    Raises LinAlgError when the block has a non-finite entry.
    """
    _, (margin,), (stable,) = stability_gate(d.m[None])
    if np.isnan(margin):
        raise LinAlgError("Array must not contain infs or NaNs")
    return StabilityReport(stable=bool(stable), max_real_part=float(margin),
                           marginal=bool(abs(margin) <= STABILITY_TOL))


def stability_gate(m: NDArray[np.complex128],
                   ) -> tuple[NDArray[np.complex128], NDArray[np.float64], NDArray[np.bool_]]:
    """The eigenvalues (P, k) of the stacked beam blocks m (P, k, k) from
    one stacked eigen-solve, with each block's margin max Re(eig) (P,) and
    its verdict stable, margin < -STABILITY_TOL (P,). A block within
    STABILITY_TOL of the boundary is marginal: not stable. LAPACK solves
    the stacked matrices one by one, so a block's verdict does not depend
    on the others. A block with a non-finite entry has NaN eigenvalues and
    margin (eigvals), and is not stable."""
    eigenvalues = eigvals(m)
    margin = np.maximum.reduce(eigenvalues.real, axis=-1)
    return eigenvalues, margin, margin < -STABILITY_TOL


def _not_converged(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def eigvals(a: NDArray) -> NDArray[np.complex128]:
    """The complex eigenvalues of each matrix of the stack a (..., n, n),
    real or complex, as np.linalg.eigvals finds them (the same LAPACK
    gufunc, bit for bit) without its wrapper's work on the array's type,
    and complex even where they are all real. A matrix with a non-finite
    entry is not solved: its eigenvalues are NaN, and the other matrices'
    are those of their own solves. Raises LinAlgError when a solve does not
    converge."""
    finite, bad = np.isfinite(a), None
    # (count_nonzero is the cheapest "all" of a small array)
    if np.count_nonzero(finite) < a.size:
        bad = ~np.logical_and.reduce(finite, axis=(-2, -1))
        a = np.where(bad[..., None, None], 0, a)
    # the gufunc flags a solve that did not converge as an invalid operation
    with np.errstate(call=_not_converged, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        eigenvalues = _geev(a, signature="D->D" if a.dtype.kind == "c" else "d->D")
    if bad is not None:
        eigenvalues[bad] = np.nan
    return eigenvalues


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
