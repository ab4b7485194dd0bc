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

a sum of non-negative terms, and exactly 1/4 for the effective model.

The Gram form of E. The beam block is reciprocal (see rates), so
|s_ij| = |s_ji|, and on the adjugate A(t) below, with
D = |det(m + i omega)|^2, the pair constant K = 4 kappa_+ kappa_- |A_+-|^2
(A_+- is a constant in both models) and the thermal weight

    T = Gamma (n_th kappa_+ |A_+b|^2 + (n_th + 1) kappa_- |A_-b|^2)

(T = 0 for the effective model), the excesses over vacuum are

    nu_plus + nu_minus = (K/2 + T) / D,    q - 1/4 = T / (2D),
    (nu_plus - nu_minus)^2 + 4 |xi|^2 = (nu_plus + nu_minus)^2 + K / D,

the last from q = n_plus n_minus - |xi|^2 and the first two. E (rates)
and the beam-1 spectrum, K / 4D from the optical input and
n_th kappa_+ Gamma |A_+b|^2 / D from the mechanical one, thus need det,
A_+b and A_-b only (_gram); nu_minus and xi themselves (_kernel) only
the callers that use them.

The adjugate kernel. No matrix is inverted: with t = i omega and
R = (m + t)^-1 = A(t) / det(m + t) on the k x k beam block,

    A(t) = t^2 I + t (tr m I - m) + adj m   (k = 3),   t I + adj m   (k = 2),
    det(m + t) = t^3 + t^2 tr m + t tr adj m + det m   (or t^2 + t tr m + det m),

so s_ij = sqrt(d_i d_j) A_ij / det off the diagonal and
s_++ = (det + kappa_+ A_++) / det (d the decay rates). The correlators need
seven entries of A (s_+-, s_-+, s_++ and, full model only, s_+b, s_-b,
s_b+, s_b-), the Gram form two (A_+b and A_-b, full model only), each a
polynomial of degree <= k - 1 in t evaluated by Horner's rule in one pass
with det; every term above is then a product of these over |det|^2. Next
to the instability boundary det m is small against its
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


#: Block entries (row, column) of A besides det, with + = 0, - = 1, b = 2:
#: the correlators use the first three (effective model) or all seven
#: (full model), the Gram form only A_+b and A_-b (full model).
_ENTRIES = ((0, 1), (1, 0), (0, 0), (0, 2), (1, 2), (2, 0), (2, 1))
#: adj(m)_ji = m_i'j' m_i''j'' - m_i'j'' m_i''j' of a 3x3 block, i' the cyclic
#: successor of i: factor f of term [j, i] is m[_COF_ROWS[f, 0, i], _COF_COLS[f, j, 0]].
_NEXT = np.array([1, 2, 0])
_COF_ROWS = np.array([_NEXT, _NEXT[_NEXT]] * 2)[:, None, :]
_COF_COLS = np.array([_NEXT, _NEXT[_NEXT], _NEXT[_NEXT], _NEXT])[:, :, None]


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
        n, k = m.shape[:2]
        eye = np.eye(k)
        adj = np.empty((n, k, k, k), dtype=complex)
        char = np.empty((n, k + 1), dtype=complex)
        adj[:, 0], char[:, 0], adj_m = eye, 1.0, adj[:, -1]
        if k == 3:
            tr = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
            f = m[:, _COF_ROWS, _COF_COLS]
            np.subtract(f[:, 0] * f[:, 1], f[:, 2] * f[:, 3], out=adj_m)
            adj[:, 1] = tr[:, None, None] * eye - m
            char[:, 2] = adj_m[:, 0, 0] + adj_m[:, 1, 1] + adj_m[:, 2, 2]
        else:
            tr = m[:, 0, 0] + m[:, 1, 1]
            adj_m[:, 0, 0], adj_m[:, 0, 1] = m[:, 1, 1], -m[:, 0, 1]
            adj_m[:, 1, 0], adj_m[:, 1, 1] = -m[:, 1, 0], m[:, 0, 0]
        char[:, 1] = tr
        char[:, -1] = _det(m)
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

    def _table(self, entries: Sequence[tuple[int, int]], weights: list[np.ndarray],
               ) -> tuple[np.ndarray, np.ndarray]:
        """A kernel form's inputs, one column per problem: coef[j, 0]
        multiplies t^(k-j) in det(m + t) and coef[j, 1 + e] multiplies
        t^(k-j) in A(t) at entries[e], shape (k + 1, 1 + entries, P), and
        the real channel weights, (weights, P)."""
        coef = np.zeros((self.k + 1, 1 + len(entries), len(self)), dtype=complex)
        coef[:, 0] = self.char.T
        if entries:
            rows, cols = zip(*entries)
            coef[1:, 1:] = self.adj[:, :, rows, cols].transpose(1, 2, 0)
        return coef, np.array(weights)

    @cached_property
    def correlator_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The inputs of the correlator form (_correlators)."""
        kp, km = self.decay[:, 0], self.decay[:, 1]
        weights = [kp * km, kp, np.sqrt(kp * km)]
        if self.k == 2:
            return self._table(_ENTRIES[:3], weights)
        gam, n = self.decay[:, 2], self.n_th
        weights += [n * kp * gam, (n + 1.0) * km * gam, (n + 1.0) * gam,
                    0.5 * n * gam * kp, 0.5 * (n + 1.0) * gam * km]
        return self._table(_ENTRIES, weights)

    @cached_property
    def gram_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The inputs of the Gram form (_gram): det, the pair constant
        K = 4 kappa_+ kappa_- |A_+-|^2 (A_+- = adj(m)_+-, since the full
        model has m_+- = 0) and, on the full model, A_+b and A_-b with
        their thermal weights n_th kappa_+ Gamma and (n_th + 1) kappa_- Gamma."""
        kp, km = self.decay[:, 0], self.decay[:, 1]
        k_pair = 4.0 * kp * km * _abs2(self.adj[:, -1, 0, 1])
        if self.k == 2:
            return self._table((), [k_pair])
        gam, n = self.decay[:, 2], self.n_th
        return self._table(_ENTRIES[3:5], [k_pair, n * kp * gam, (n + 1.0) * km * gam])


#: Points per kernel pass: its temporaries stay in cache and its memory
#: does not grow with the batch.
_CHUNK = 1024


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _passes(blocks: BeamBlocks, omegas: np.ndarray, pid: np.ndarray | None,
            table: tuple[np.ndarray, np.ndarray], finish):
    """finish(h, |det|^2, weights) at each frequency, point i belonging to
    problem pid[i] (pid may be left out for a batch of one): h holds
    det(m + i omega) in row 0 and the table's entries of A
    (BeamBlocks._table) in the rows after it, by Horner's rule, and weights
    the table's weights of each point. The points go through in passes of
    _CHUNK; each point's inputs are gathered by its problem id and every
    operation after that is elementwise, so a point's values do not depend
    on the rest of the call. Raises UnstableSystemError at a root of det;
    no other stability check."""
    coef, weights = table
    gather = len(blocks) > 1

    def one_pass(w: np.ndarray, p: np.ndarray | None):
        # its temporaries are freed before the next pass starts
        def at(c: np.ndarray) -> np.ndarray:
            # one coefficient (row) per point, gathered as it is needed so
            # that only one gathered coefficient is alive at a time
            return c.take(p, axis=-1) if gather else c

        t = 1j * w
        # Horner's rule at t = i omega, det and the entries at once
        h = at(coef[0]) * t
        for c in coef[1:-1]:
            h += at(c)
            h *= t
        h += at(coef[-1])
        det2 = _abs2(h[0])
        if not (det2 > 0).all():
            raise UnstableSystemError(
                float(np.max(np.linalg.eigvals(blocks.m).real)),
                "singular response matrix: system at an instability threshold "
                "for a requested frequency")
        return finish(h, det2, at(weights))

    omegas = np.ascontiguousarray(omegas, dtype=float).ravel()
    out = [one_pass(omegas[i:i + _CHUNK], None if pid is None else pid[i:i + _CHUNK])
           for i in range(0, max(omegas.size, 1), _CHUNK)]
    if len(out) == 1:
        return out[0]
    if isinstance(out[0], tuple):
        return tuple(np.concatenate(c) for c in zip(*out))
    return np.concatenate(out)


def _correlators(h: np.ndarray, det2: np.ndarray, wt: np.ndarray) -> tuple[np.ndarray, ...]:
    """(nu_plus, nu_minus, xi, q - 1/4) of a correlator-table pass: the
    excesses nu = n - 1/2 of the occupations over vacuum and of
    q = n_plus n_minus - |xi|^2 over its vacuum value, each a sum of
    non-negative terms (module docstring)."""
    det, a = h[0], h[1:]
    inv = 1.0 / det2
    a2 = _abs2(a)
    kpm, kp, rpm = wt[:3]
    # s_++ conj(s_-+) |det|^2 / sqrt(kappa_+ kappa_-), s_++ = (det + kappa_+ A_++) / det
    xi = (det + kp * a[2]) * a[1].conj()
    optical = kpm * a2[0] * inv
    if len(a) == 3:
        return optical, kpm * a2[1] * inv, xi * (rpm * inv), np.zeros_like(optical)
    w_pb, w_mb, w_x, q_bp, q_bm = wt[3:]
    xi = xi + w_x * (a[3] * a[4].conj())
    return (optical + w_pb * a2[3] * inv, (kpm * a2[1] + w_mb * a2[4]) * inv,
            xi * (rpm * inv), (q_bp * a2[5] + q_bm * a2[6]) * inv)


def _kernel(blocks: BeamBlocks, omegas: np.ndarray, pid: np.ndarray | None = None,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(nu_plus, nu_minus, xi, q - 1/4) at each frequency of problem pid[i]
    (_correlators over the passes of _passes): the full correlator output,
    for callers that need nu_minus or xi themselves."""
    return _passes(blocks, omegas, pid, blocks.correlator_table, _correlators)


def _gram(blocks: BeamBlocks, omegas: np.ndarray, finish, pid: np.ndarray | None = None):
    """finish(D, K, T, M) at each frequency of problem pid[i], from the Gram
    form (module docstring): D = |det(m + i omega)|^2, the pair constant K,
    T = Gamma (n_th kappa_+ |A_+b|^2 + (n_th + 1) kappa_- |A_-b|^2) and the
    mechanical part of the spectrum times D, M = n_th kappa_+ Gamma
    |A_+b|^2; T = M = 0 on the effective model. One Horner pass evaluates
    det, A_+b and A_-b only. Needs a reciprocal block (|A_b+-| = |A_+-b|)
    for E; no stability check."""
    def terms(h: np.ndarray, det2: np.ndarray, wt: np.ndarray):
        if len(h) == 1:
            return finish(det2, wt[0], 0.0, 0.0)
        a2 = _abs2(h[1:])
        mechanical = wt[1] * a2[0]
        return finish(det2, wt[0], mechanical + wt[2] * a2[1], mechanical)

    return _passes(blocks, omegas, pid, blocks.gram_table, terms)


def _spectrum(d2: np.ndarray, k_pair: np.ndarray, thermal, mechanical,
              ) -> tuple[np.ndarray, np.ndarray]:
    """(optical, mechanical) parts of the beam-1 spectrum from the Gram
    terms (_gram): kappa_+ kappa_- |A_+-|^2 / D = K / 4D and M / D."""
    return 0.25 * k_pair / d2, mechanical / d2


def correlator_batch(d: DriftMatrix, omegas: np.ndarray, n_th: float = 0.0,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(nu_plus, nu_minus, xi, q - 1/4) arrays over a frequency grid, from
    the kernel for one problem (see _kernel). No stability check (meant for
    integrators that have already verified it)."""
    return _kernel(BeamBlocks.of([d], [n_th]), omegas)


def output_correlators(d: DriftMatrix, omega: float, n_th: float = 0.0) -> CorrelatorTriple:
    """Correlator triple of the output beams at (omega, -omega)."""
    _require_stable(d)
    nu_plus, nu_minus, xi, _ = correlator_batch(d, np.array([omega]), n_th)
    return CorrelatorTriple(0.5 + float(nu_plus[0]), 0.5 + float(nu_minus[0]), complex(xi[0]))


def spectrum_parts(d: DriftMatrix, omegas: np.ndarray, n_th: float = 0.0,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(optical, mechanical) parts of the beam-1 output intensity spectrum
    over a frequency grid, from the Gram form: the optical part
    |s_+-|^2 comes from the vacuum input of beam 2, the mechanical part
    n_th |s_+b|^2 from the thermal mechanical input (zero for the effective
    model). No stability check."""
    return _gram(BeamBlocks.of([d], [n_th]), omegas, _spectrum)


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
