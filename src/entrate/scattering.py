"""Frequency-domain solution of the Langevin equations.

Fourier convention a(omega) = int a(t) e^{i omega t} dt, under which the
Langevin system dA/dt = m A - sqrt(D) A_in gives

    A_out(omega) = S(omega) A_in(omega),
    S(omega) = I + D^{1/2} (m + i omega I)^{-1} D^{1/2},

with D = diag(decay). The drift of both models splits into two conjugate
blocks: the beam block (a+, a-^dag[, b]) and its partner
(a+^dag, a-[, b^dag]), and S(-omega) on the partner block is the complex
conjugate of S(+omega) on the beam block. The output-pair correlators
therefore need only the 3x3 (full) or 2x2 (effective) beam block at
+omega. With s = S(omega) on that block, rows and columns indexed
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

The adjugate kernel. No matrix is inverted: with t = i omega and
R = (m + t)^-1 = A(t) / det(m + t) on the k x k beam block,

    A(t) = t^2 I + t (tr m I - m) + adj m   (k = 3),   t I + adj m   (k = 2),
    det(m + t) = t^3 + t^2 tr m + t tr adj m + det m   (or t^2 + t tr m + det m),

so s_ij = sqrt(d_i d_j) A_ij / det off the diagonal and
s_++ = (det + kappa_+ A_++) / det (d the decay rates). The correlators need
seven entries of A (s_+-, s_-+, s_++ and, full model only, s_+b, s_-b,
s_b+, s_b-), each a polynomial of degree <= k - 1 in t evaluated by
Horner's rule, plus det; every term above is then a product of these over
|det|^2. Next to the instability boundary det m is small against its
terms, so it is computed exactly from the float entries and rounded once;
E then matches a 50-digit evaluation to a few ulp there, where a float64
det m (or an LU solve) loses the ratio of terms to det in digits.
BeamBlocks holds the coefficients of P beam blocks of one model side by
side (the problem axis): the kernel takes one frequency array with a
problem id per point, gathers each point's coefficients and is
elementwise from there on, so a point's value does not depend on which
other points or problems share the call. rates builds its crossing
polynomials from the same coefficients.

The photon pair rate of the effective model needs no quadrature. On its
2x2 beam block n_plus - 1/2 = |s_+-|^2 = kappa_+ kappa_- |R_+-|^2 with
R = (m + i omega)^-1, the Fourier transform of the impulse response
e^{m t} e_-. Parseval turns int domega/2pi |R_+-|^2 into the entry P_++ of
the Gramian P = int_0^inf e^{m t} e_- e_-^T e^{m^dag t} dt, which solves
the Lyapunov equation m P + P m^dag + e_- e_-^T = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import UnstableSystemError
from .gaussian import CorrelatorTriple
from .models import (DriftMatrix, EffectiveModelParams, StabilityReport, drift_effective,
                     stability)
# unused here, but the benchmark tracer wraps scattering.adaptive_gk
from .quadutil import adaptive_gk_batch as adaptive_gk  # noqa: F401


@dataclass(frozen=True)
class SpectrumPoint:
    """Output intensity spectrum of beam 1 at one frequency, split into the
    contributions of the optical and mechanical input channels (the input
    baths are uncorrelated, so the two parts add up to the total)."""

    omega: float
    total: float
    optical_part: float
    mechanical_part: float


def _require_stable(d: DriftMatrix) -> StabilityReport:
    """d's stability report; raises UnstableSystemError unless d is stable."""
    rep = stability(d)
    if not rep.stable:
        raise UnstableSystemError(rep.max_real_part)
    return rep


def _permutation_terms(k: int) -> list[tuple[int, list[int]]]:
    """(sign, flat indices of the entries) of every term of a k x k det."""
    terms = []
    for p in itertools.permutations(range(k)):
        odd = sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k)) % 2
        terms.append((-1 if odd else 1, [i * k + p[i] for i in range(k)]))
    return terms


_DET_TERMS = {k: _permutation_terms(k) for k in (2, 3)}


def _det(m: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """det of each k x k matrix of the stack (P, k, k), correctly rounded.

    Next to the instability boundary det m is small against its terms:
    1e-4 from the edge a float64 sum of rounded products loses a factor of
    5e3 to cancellation. Here every entry of a matrix is an integer
    multiple of 2^low (low <= 0, the last place of its finest entry), the
    det of those integers is expanded exactly, and one correctly rounded
    integer division by 2^(-k low) gives the result."""
    k = m.shape[1]
    x = m.reshape(len(m), -1).view(float)       # real and imaginary parts
    # x = f 2^e with 1/2 <= |f| < 1: the integer f 2^53 times 2^(e - 53)
    f, e = np.frexp(x)
    e -= 53
    low = np.min(e, axis=1, where=x != 0, initial=0)
    shift = np.where(x != 0, e - low[:, None], 0)
    out = []
    for mant, sh, lo in zip(np.ldexp(f, 53).astype(np.int64).tolist(), shift.tolist(),
                            low.tolist()):
        v = [a << b for a, b in zip(mant, sh)]
        re = im = 0
        for sign, idx in _DET_TERMS[k]:
            pr, pi = v[2 * idx[0]], v[2 * idx[0] + 1]
            for i in idx[1:]:
                c, d = v[2 * i], v[2 * i + 1]
                pr, pi = pr * c - pi * d, pr * d + pi * c
            re, im = re + sign * pr, im + sign * pi
        scale = 1 << (-k * lo)
        out.append(complex(re / scale, im / scale))
    return np.array(out, dtype=complex)


#: Block entries (row, column) of A that the correlators use, with
#: + = 0, - = 1, b = 2: the first three for the effective model, all seven
#: for the full model; (0, 0) is the diagonal one.
_ENTRIES = ((0, 1), (1, 0), (0, 0), (0, 2), (1, 2), (2, 0), (2, 1))
#: Cyclic successor of each index of a 3x3 block.
_NEXT = np.array([1, 2, 0])


@dataclass(frozen=True)
class BeamBlocks:
    """Beam blocks of P drifts of one model, stacked along a problem axis,
    with the polynomial coefficients of the adjugate kernel (module
    docstring): adj[p, j] multiplies t^(k-1-j) in A(t) and char[p, j]
    multiplies t^(k-j) in det(m + t)."""

    m: NDArray[np.complex128]        # (P, k, k)
    decay: NDArray[np.float64]       # (P, k)
    n_th: NDArray[np.float64]        # (P,)
    adj: NDArray[np.complex128]      # (P, k, k, k)
    char: NDArray[np.complex128]     # (P, k + 1)

    @classmethod
    def of(cls, drifts: Sequence[DriftMatrix], n_ths: Sequence[float]) -> "BeamBlocks":
        """The beam blocks of the drifts; raises ValueError when a drift
        couples its block to the partner or the drifts mix the models."""
        m, decay = zip(*(d.beam_block for d in drifts))
        if len({b.shape for b in m}) != 1:
            raise ValueError("a batch of beam blocks needs drifts of one model")
        return cls.stack(np.stack(m), np.stack(decay), np.asarray(n_ths, dtype=float))

    @classmethod
    def stack(cls, m: NDArray[np.complex128], decay: NDArray[np.float64],
              n_th: NDArray[np.float64]) -> "BeamBlocks":
        """The stacked beam blocks m (P, k, k) with their decays (P, k) and
        n_th (P,), as models.beam_blocks builds them."""
        k = m.shape[1]
        eye = np.broadcast_to(np.eye(k), m.shape)
        ones = np.ones(m.shape[0])
        if k == 3:
            tr = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
            # cofactor rows: row i is the cross product of rows i + 1 and i + 2
            a, b = m[:, _NEXT], m[:, _NEXT[_NEXT]]
            cof = a[..., _NEXT] * b[..., _NEXT[_NEXT]] - a[..., _NEXT[_NEXT]] * b[..., _NEXT]
            adj_m = cof.transpose(0, 2, 1)
            adj = np.stack([eye, tr[:, None, None] * eye - m, adj_m], axis=1)
            char = np.stack([ones, tr, adj_m[:, 0, 0] + adj_m[:, 1, 1] + adj_m[:, 2, 2],
                             _det(m)], axis=1)
        else:
            adj_m = np.stack([np.stack([m[:, 1, 1], -m[:, 0, 1]], axis=1),
                              np.stack([-m[:, 1, 0], m[:, 0, 0]], axis=1)], axis=1)
            adj = np.stack([eye, adj_m], axis=1)
            char = np.stack([ones, m[:, 0, 0] + m[:, 1, 1], _det(m)], axis=1)
        return cls(m, decay, n_th, adj, char)

    @property
    def k(self) -> int:
        return self.m.shape[1]

    def __len__(self) -> int:
        return self.m.shape[0]

    def take(self, idx: np.ndarray) -> "BeamBlocks":
        """The sub-batch of the problems idx."""
        return BeamBlocks(self.m[idx], self.decay[idx], self.n_th[idx], self.adj[idx],
                          self.char[idx])

    @cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel's inputs with one column per problem: the k - 1
        coefficients below the leading t^(k-1) of every entry of _ENTRIES,
        shape (k - 1, entries, P), the k below the leading t^k of det,
        (k, P), and the real channel weights."""
        k = self.k
        rows, cols = zip(*_ENTRIES[:3 if k == 2 else 7])
        entries = self.adj[:, 1:, rows, cols].transpose(1, 2, 0)
        kp, km = self.decay[:, 0], self.decay[:, 1]
        weights = [kp * km, kp, np.sqrt(kp * km)]
        if k == 3:
            gam, n = self.decay[:, 2], self.n_th
            weights += [n * kp * gam, (n + 1.0) * km * gam, (n + 1.0) * gam,
                        0.5 * n * gam * kp, 0.5 * (n + 1.0) * gam * km]
        return np.ascontiguousarray(entries), self.char[:, 1:].T.copy(), np.array(weights)


#: Points per kernel pass: its temporaries stay in cache and its memory
#: does not grow with the batch.
_CHUNK = 1024
#: 1 for the diagonal entry of _ENTRIES, whose leading coefficient is 1.
_MONIC = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _kernel(blocks: BeamBlocks, omegas: np.ndarray, pid: np.ndarray | None = None,
            ) -> tuple[np.ndarray, ...]:
    """(optical, mechanical, nu_minus, xi, q - 1/4) at each frequency, point
    i belonging to problem pid[i] (pid may be left out for a batch of one):
    the excesses nu = n - 1/2 of the occupations over vacuum and of
    q = n_plus n_minus - |xi|^2 over its vacuum value, each a sum of
    non-negative terms (module docstring), with nu_plus = optical +
    mechanical, the two parts being |s_+-|^2 and n_th |s_+b|^2. The points
    go through in passes of _CHUNK; each point's inputs are gathered by its
    problem id and every operation after that is elementwise, so a point's
    values do not depend on the rest of the call. No stability check."""
    entries, char, weights = blocks.table

    def one_pass(w: np.ndarray, p: np.ndarray | None) -> tuple[np.ndarray, ...]:
        # its temporaries are freed before the next pass starts
        def at(c: np.ndarray) -> np.ndarray:
            # one coefficient (row) per point, gathered as it is needed so
            # that only one gathered coefficient is alive at a time
            return c[..., p] if len(blocks) > 1 else c

        t = 1j * w
        # Horner's rule at t = i omega, all entries of A at once, then det
        a = at(entries[0]) + _MONIC[:len(entries[0]), None] * t
        for c in entries[1:]:
            a *= t
            a += at(c)
        det = at(char[0]) + t
        for c in char[1:]:
            det *= t
            det += at(c)
        wt = at(weights)
        det2 = _abs2(det)
        if not np.all(det2 > 0):
            raise UnstableSystemError(
                float(np.max(np.linalg.eigvals(blocks.m).real)),
                "singular response matrix: system at an instability threshold "
                "for a requested frequency")
        inv = 1.0 / det2
        a2 = _abs2(a)
        kpm, kp, rpm = wt[:3]
        # s_++ conj(s_-+) |det|^2 / sqrt(kappa_+ kappa_-), s_++ = (det + kappa_+ A_++) / det
        xi = (det + kp * a[2]) * a[1].conj()
        optical = kpm * a2[0] * inv
        if len(a) == 3:
            zero = np.zeros_like(optical)
            return optical, zero, kpm * a2[1] * inv, xi * (rpm * inv), zero
        w_pb, w_mb, w_x, q_bp, q_bm = wt[3:]
        xi = xi + w_x * (a[3] * a[4].conj())
        return (optical, w_pb * a2[3] * inv, (kpm * a2[1] + w_mb * a2[4]) * inv,
                xi * (rpm * inv), (q_bp * a2[5] + q_bm * a2[6]) * inv)

    omegas = np.ascontiguousarray(omegas, dtype=float).ravel()
    out = [one_pass(omegas[i:i + _CHUNK], None if pid is None else pid[i:i + _CHUNK])
           for i in range(0, max(omegas.size, 1), _CHUNK)]
    return out[0] if len(out) == 1 else tuple(np.concatenate(c) for c in zip(*out))


def correlator_batch(d: DriftMatrix, omegas: np.ndarray, n_th: float = 0.0,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(nu_plus, nu_minus, xi, q - 1/4) arrays over a frequency grid, from
    the kernel for one problem (see _kernel). No stability check (meant for
    integrators that have already verified it)."""
    optical, mechanical, nu_minus, xi, q_excess = _kernel(BeamBlocks.of([d], [n_th]), omegas)
    return optical + mechanical, nu_minus, xi, q_excess


def output_correlators(d: DriftMatrix, omega: float, n_th: float = 0.0) -> CorrelatorTriple:
    """Correlator triple of the output beams at (omega, -omega)."""
    _require_stable(d)
    nu_plus, nu_minus, xi, _ = correlator_batch(d, np.array([omega]), n_th)
    return CorrelatorTriple(0.5 + float(nu_plus[0]), 0.5 + float(nu_minus[0]), complex(xi[0]))


def spectrum_parts(d: DriftMatrix, omegas: np.ndarray, n_th: float = 0.0,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(optical, mechanical) parts of the beam-1 output intensity spectrum
    over a frequency grid, from the adjugate kernel: the optical part
    |s_+-|^2 comes from the vacuum input of beam 2, the mechanical part
    n_th |s_+b|^2 from the thermal mechanical input (zero for the effective
    model). No stability check."""
    return _kernel(BeamBlocks.of([d], [n_th]), omegas)[:2]


# only tests call it; it stays bound because the benchmark tracer wraps it
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
    return _pair_rate(*d.beam_block)


def _pair_rate(m: NDArray[np.complex128], decay: NDArray[np.float64]) -> float:
    """pair_rate_numeric of an effective-model beam block m (2 x 2) with
    its decays, no stability check."""
    eye = np.eye(2)
    rhs = np.array([0.0, 0.0, 0.0, -1.0])      # -vec(e_- e_-^T), row-major
    try:
        gram = np.linalg.solve(np.kron(m, eye) + np.kron(eye, m.conj()), rhs)
    except np.linalg.LinAlgError as exc:
        raise UnstableSystemError(
            float(np.max(np.linalg.eigvals(m).real)),
            f"singular Lyapunov system: system at an instability threshold ({exc})") from exc
    return float(decay[0] * decay[1] * gram[0].real)
