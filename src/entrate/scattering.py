"""Frequency-domain solution of the Langevin equations.

Fourier convention a(omega) = int a(t) e^{i omega t} dt, under which the
Langevin system dA/dt = m A - sqrt(D) A_in gives

    A_out(omega) = S(omega) A_in(omega),
    S(omega) = I + D^{1/2} (m + i omega I)^{-1} D^{1/2},

with D = diag(decay), for the beam operators (a+, a-^dag[, b]) and for
their partners (a+^dag, a-[, b^dag]) alike. A drift (models.DriftMatrix)
is the beam block: the partners' block is its complex conjugate, and
S(-omega) on it is the complex conjugate of S(+omega) on the beam block.
The output-pair correlators therefore need only the 3x3 (full) or 2x2
(effective) beam block at +omega. With s = S(omega) on that block, rows
and columns indexed + (a+), - (a-^dag), b, vacuum optical inputs and a
thermal mechanical input of occupation n_th:

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

a sum of non-negative terms, and exactly 1/4 for the effective model. On a
reciprocal block (below) |s_b+| = |s_+b| and |s_b-| = |s_-b|, so q takes
no entry of the mechanical row: q - 1/4 = T / (2D) below.

The Gram form. BeamBlocks.of checks the structure that the models have
(rates): the beam block is reciprocal, m^T = J m J with J = diag(1, -1[, 1]),
so |s_ij| = |s_ji|; and a+ does not couple to a-^dag directly (m_+- = 0 on
the 3x3 block), so the entries A_+- and A_-+ of the adjugate A(t) below
are constants. With D = |det(m + i omega)|^2, the pair constant
K = 4 kappa_+ kappa_- |A_+-|^2 and the thermal weight

    T = Gamma (n_th kappa_+ |A_+b|^2 + (n_th + 1) kappa_- |A_-b|^2)

(T = 0 for the effective model), the excesses over vacuum are

    nu_plus  = (K/4 + n_th kappa_+ Gamma |A_+b|^2) / D,
    nu_minus = (K/4 + (n_th + 1) kappa_- Gamma |A_-b|^2) / D,
    q - 1/4  = T / (2D),
    (nu_plus - nu_minus)^2 + 4 |xi|^2 = (nu_plus + nu_minus)^2 + K / D,

the last from q = n_plus n_minus - |xi|^2 and the others, and

    xi D / sqrt(kappa_+ kappa_-) = (det + kappa_+ A_++) conj(A_-+)
                                   + (n_th + 1) Gamma A_+b conj(A_-b).

E (rates) and the beam-1 spectrum, K / 4D from the optical input and
n_th kappa_+ Gamma |A_+b|^2 / D from the mechanical one, thus need det,
A_+b and A_-b only (_gram); the correlator triple (_triple) A_++ too.

The adjugate kernel. No matrix is inverted: with t = i omega and
R = (m + t)^-1 = A(t) / det(m + t) on the k x k beam block,

    A(t) = t^2 I + t (tr m I - m) + adj m   (k = 3),   t I + adj m   (k = 2),
    det(m + t) = t^3 + t^2 tr m + t tr adj m + det m   (or t^2 + t tr m + det m),

so s_ij = sqrt(d_i d_j) A_ij / det off the diagonal and
s_++ = (det + kappa_+ A_++) / det (d the decay rates). The Gram form needs
two entries of A (A_+b and A_-b, full model only), the triple A_++ as well,
each a polynomial of degree <= k - 1 in t evaluated by Horner's rule in one
pass with det; every term above is then a product of these over |det|^2. Next
to the instability boundary det m is small against its
terms, so it is computed exactly from the float entries and rounded once;
E then matches a 50-digit evaluation to a few ulp there, where a float64
det m (or an LU solve) loses the ratio of terms to det in digits.
BeamBlocks holds P beam blocks of one model side by side (the problem
axis), with their eigenvalues and kernel coefficients: the kernel takes
one frequency array with a problem id per point, gathers each point's
coefficients and is elementwise from there on, so a point's value does
not depend on which other points or problems share the call. rates builds
its crossing polynomials from the same coefficients, its panels from the
eigenvalues; every batch passes BeamBlocks.gate, the package's one gate.

The photon pair rate of the effective model needs no quadrature. On its
2x2 beam block n_plus - 1/2 = |s_+-|^2 = kappa_+ kappa_- |R_+-|^2 with
R = (m + i omega)^-1, the Fourier transform of the impulse response
e^{m t} e_-. Parseval turns int domega/2pi |R_+-|^2 into the entry P_++ of
the Gramian P = int_0^inf e^{m t} e_- e_-^T e^{m^dag t} dt, which solves
the Lyapunov equation m P + P m^dag + e_- e_-^T = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError
from numpy.typing import ArrayLike, NDArray

from .errors import UnstableSystemError
from .gaussian import CorrelatorTriple
from .models import (DriftMatrix, EffectiveModelParams, FullModelParams, drift_effective,
                     eigvals, stability_gate)
# unused here, but the benchmark tracer wraps these names in scattering
from .models import stability  # noqa: F401
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


def _det(m: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """det of each k x k matrix of the stack (P, k, k), correctly rounded.

    Next to the instability boundary det m is small against its terms:
    1e-4 from the edge a float64 sum of rounded products loses a factor of
    5e3 to cancellation. Here every entry of a matrix is an integer
    multiple of 1/2^j (2^j the largest denominator of its real and
    imaginary parts), the det of those integers is expanded exactly, and
    one correctly rounded integer division by 2^(k j) gives the result."""
    k = m.shape[1]
    out = []
    # the real and imaginary parts of each matrix as exact fractions
    for x in m.reshape(len(m), -1).view(float).tolist():
        nums, dens = zip(*[a.as_integer_ratio() for a in x])
        den = max(dens)
        re, im = _gaussian_det(k, [a * (den // b) for a, b in zip(nums, dens)])
        scale = den ** k
        out.append(complex(re / scale, im / scale))
    return np.array(out, dtype=complex)


def _gaussian_det(k: int, v: list[int]) -> tuple[int, int]:
    """(re, im) of the det of the k x k matrix (k = 2 or 3) of Gaussian
    integers whose real and imaginary parts v lists row by row, entry by
    entry: a d - b c, or along the first row of [[a, b, c], [d, e, f],
    [g, h, i]], a (e i - f h) - b (d i - f g) + c (d h - e g)."""
    if k == 2:
        ar, ai, br, bi, cr, ci, dr, di = v
        return ar * dr - ai * di - (br * cr - bi * ci), ar * di + ai * dr - (br * ci + bi * cr)
    ar, ai, br, bi, cr, ci, dr, di, er, ei, fr, fi, gr, gi, hr, hi, ir, ii = v
    ur, ui = er * ir - ei * ii - (fr * hr - fi * hi), er * ii + ei * ir - (fr * hi + fi * hr)
    vr, vi = dr * ir - di * ii - (fr * gr - fi * gi), dr * ii + di * ir - (fr * gi + fi * gr)
    wr, wi = dr * hr - di * hi - (er * gr - ei * gi), dr * hi + di * hr - (er * gi + ei * gr)
    return (ar * ur - ai * ui - (br * vr - bi * vi) + cr * wr - ci * wi,
            ar * ui + ai * ur - (br * vi + bi * vr) + cr * wi + ci * wr)


#: Block entries (row, column) of A besides det, with + = 0, - = 1, b = 2:
#: the Gram form uses A_+b and A_-b (full model only), the correlator triple
#: A_++ too.
_ENTRIES = ((0, 0), (0, 2), (1, 2))
#: adj(m)_ji = m_i'j' m_i''j'' - m_i'j'' m_i''j' of a 3x3 block, i' the cyclic
#: successor of i: factor f of term [j, i] is m[_COF_ROWS[f, 0, i], _COF_COLS[f, j, 0]].
_NEXT = np.array([1, 2, 0])
_COF_ROWS = np.array([_NEXT, _NEXT[_NEXT]] * 2)[:, None, :]
_COF_COLS = np.array([_NEXT, _NEXT[_NEXT], _NEXT[_NEXT], _NEXT])[:, :, None]
_COF = 3 * _COF_ROWS + _COF_COLS           # flat places in m
#: The flat places in a k x k matrix of the entries (row, column).
_flat_entries = cache(lambda k, entries: np.array([k * i + j for i, j in entries]))
_EYE = {k: np.eye(k) for k in (2, 3)}
#: Sign pattern J of the reciprocity m^T = J m J of the beam block, and
#: J_i J_j, the signs of J m J.
_RECIPROCITY_SIGNS = (1.0, -1.0, 1.0)
_RECIPROCITY = np.outer(_RECIPROCITY_SIGNS, _RECIPROCITY_SIGNS)
#: Tolerance of the structure checks of BeamBlocks.of, relative to a block's
#: largest entry.
_STRUCTURE_TOL = 1e-12


@dataclass(frozen=True)
class BeamBlocks:
    """Beam blocks of P drifts of one model, stacked along a problem axis,
    with their eigenvalues (gate) and, computed on first use, the kernel
    coefficients (module docstring): adj[p, j] multiplies t^(k-1-j) in A(t)
    and char[p, j] t^(k-j) in det(m + t). The constructor checks nothing."""

    m: NDArray[np.complex128]        # (P, k, k)
    decay: NDArray[np.float64]       # (P, k)
    n_th: NDArray[np.float64]        # (P,)
    eigenvalues: NDArray[np.complex128]  # (P, k)

    @classmethod
    def gate(cls, m: NDArray[np.complex128], decay: NDArray[np.float64], n_th: NDArray[np.float64],
             ) -> tuple["BeamBlocks", NDArray[np.intp], NDArray[np.float64], dict[int, Exception]]:
        """Of the stacked beam blocks m (P, k, k), decays (P, k) and n_th (P,),
        whose n_th the caller has checked: the batch that passes, with the
        eigenvalues of one stacked solve (models.stability_gate), its places
        among the P, each margin max Re(eig) (P,) and the LinAlgError of each
        block with a non-finite entry by place: such a block has NaN
        eigenvalues and margin (models.eigvals), and does not pass."""
        eigenvalues, margin, stable = stability_gate(m)
        if np.count_nonzero(stable) == stable.size:
            return cls(m, decay, n_th, eigenvalues), np.arange(len(m)), margin, {}
        failures: dict[int, Exception] = {
            i: LinAlgError("Array must not contain infs or NaNs")
            for i in np.flatnonzero(np.isnan(margin)).tolist()}
        passed = np.flatnonzero(stable)
        blocks = cls(m[passed], decay[passed], n_th[passed], eigenvalues[passed])
        return blocks, passed, margin, failures

    @classmethod
    def of(cls, d: DriftMatrix, n_th: float) -> "BeamBlocks":
        """d's beam block with n_th, gated as a batch of one: raises the
        ValueError of an n_th that is not a finite number >= 0 (FullModelParams's
        message), the LinAlgError of a non-finite entry, the
        UnstableSystemError, carrying the margin, of a block that is not
        stable, or the ValueError of a block without the structure that the
        Gram form rests on (module docstring), each to _STRUCTURE_TOL of its
        largest entry: reciprocity, m^T = J m J, and on a 3x3 block no
        direct a+ <-> a-^dag coupling, m_+- = 0, which makes A_+- and A_-+
        constants."""
        if not 0.0 <= n_th < np.inf:
            # raises the parameter set's ValueError
            FullModelParams(g=0.0, Gamma=1.0, n_th=n_th)
        blocks, _, margin, failures = cls.gate(d.m[None], d.decay[None], np.array([float(n_th)]))
        if failures:
            raise failures[0]
        if not len(blocks):
            raise UnstableSystemError(margin[0])
        (m,), k = blocks.m, blocks.k
        defect = m.T - _RECIPROCITY[:k, :k] * m
        # the blocks the models build have this structure exactly: no scale is needed
        if np.count_nonzero(defect) or k == 3 and m[0, 1]:
            tol = _STRUCTURE_TOL * max(np.abs(m).max(), 1.0)
            if np.abs(defect).max() > tol:
                raise ValueError("beam block is not reciprocal (m^T != J m J, "
                                 f"J = diag{_RECIPROCITY_SIGNS[:k]})")
            if k == 3 and abs(m[0, 1]) > tol:
                raise ValueError("beam block couples a+ to a-^dag directly (m_+- != 0)")
        return blocks

    @property
    def k(self) -> int:
        return self.m.shape[1]

    def __len__(self) -> int:
        return self.m.shape[0]

    @cached_property
    def _coefficients(self) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
        m = self.m
        n, k = m.shape[:2]
        eye = _EYE[k]
        adj = np.empty((n, k, k, k), dtype=complex)
        char = np.empty((n, k + 1), dtype=complex)
        adj[:, 0], char[:, 0], adj_m = eye, 1.0, adj[:, -1]
        if k == 3:
            tr = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
            f = m.reshape(n, -1).take(_COF, axis=1)
            np.subtract(f[:, 0] * f[:, 1], f[:, 2] * f[:, 3], out=adj_m)
            np.subtract(tr[:, None, None] * eye, m, out=adj[:, 1])
            char[:, 2] = adj_m[:, 0, 0] + adj_m[:, 1, 1] + adj_m[:, 2, 2]
        else:
            tr = m[:, 0, 0] + m[:, 1, 1]
            adj_m[:, 0, 0], adj_m[:, 0, 1] = m[:, 1, 1], -m[:, 0, 1]
            adj_m[:, 1, 0], adj_m[:, 1, 1] = -m[:, 1, 0], m[:, 0, 0]
        char[:, 1] = tr
        char[:, -1] = _det(m)
        return adj, char

    adj = property(lambda self: self._coefficients[0])
    char = property(lambda self: self._coefficients[1])

    def take(self, idx: np.ndarray) -> "BeamBlocks":
        """The sub-batch of the problems idx, with any coefficients computed."""
        part = BeamBlocks(self.m[idx], self.decay[idx], self.n_th[idx], self.eigenvalues[idx])
        if "_coefficients" in self.__dict__:
            part.__dict__["_coefficients"] = tuple(c[idx] for c in self._coefficients)
        return part

    def _table(self, entries: Sequence[tuple[int, int]], weights: ArrayLike,
               ) -> tuple[np.ndarray, np.ndarray]:
        """A kernel form's inputs, one column per problem: coef[j, 0]
        multiplies t^(k-j) in det(m + t) and coef[j, 1 + e] multiplies
        t^(k-j) in A(t) at entries[e], shape (k + 1, 1 + entries, P), and
        the real channel weights, (weights, P)."""
        k = self.k
        coef = np.zeros((k + 1, 1 + len(entries), len(self)), dtype=complex)
        coef[:, 0] = self.char.T
        if entries:
            adj = self.adj.reshape(len(self), k, k * k)
            coef[1:, 1:] = adj.take(_flat_entries(k, entries), axis=2).transpose(1, 2, 0)
        return coef, np.asarray(weights)

    @cached_property
    def gram_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The inputs of the Gram form (_gram): det, the pair constant
        K = 4 kappa_+ kappa_- |A_+-|^2 (A_+- = adj(m)_+-, since the full
        model has m_+- = 0) and, on the full model, A_+b and A_-b with
        their thermal weights n_th kappa_+ Gamma and (n_th + 1) kappa_- Gamma."""
        kp, km = self.decay[:, 0], self.decay[:, 1]
        weights = np.empty((3 if self.k == 3 else 1, len(self)))
        np.multiply(4.0 * kp * km, _abs2(self.adj[:, -1, 0, 1]), out=weights[0])
        if self.k == 2:
            return self._table((), weights)
        gam, n = self.decay[:, 2], self.n_th
        np.multiply(n * kp, gam, out=weights[1])
        np.multiply((n + 1.0) * km, gam, out=weights[2])
        return self._table(_ENTRIES[1:], weights)

    @cached_property
    def triple_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The inputs of the correlator triple (_triple): det, A_++ and, on
        the full model, A_+b and A_-b, with the complex weights K, kappa_+,
        sqrt(kappa_+ kappa_-), conj(A_-+) (A_-+ = adj(m)_-+, a constant like
        A_+-) and, on the full model, the thermal weights of the Gram form
        and (n_th + 1) Gamma."""
        kp, km = self.decay[:, 0], self.decay[:, 1]
        gram = self.gram_table[1]
        weights = [gram[0], kp, np.sqrt(kp * km), self.adj[:, -1, 1, 0].conj()]
        if self.k == 2:
            return self._table(_ENTRIES[:1], weights)
        return self._table(_ENTRIES, [*weights, *gram[1:], (self.n_th + 1.0) * self.decay[:, 2]])


#: Points per kernel pass: its temporaries stay in cache and its memory
#: does not grow with the batch.
_CHUNK = 1024


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _passes(blocks: BeamBlocks, omegas: np.ndarray, pid: np.ndarray | None,
            table: tuple[np.ndarray, np.ndarray], finish):
    """finish(h, |h|^2, weights) at each frequency, point i belonging to
    problem pid[i] (problem 0 where pid is left out): h holds
    det(m + i omega) in row 0 and the table's entries of A
    (BeamBlocks._table) in the rows after it, by Horner's rule, and weights
    the table's weights of each point. The points go through in passes of
    _CHUNK; each point's inputs are gathered by its problem id and every
    operation after that is elementwise on arrays of the pass's length, so
    a point's values do not depend on the rest of the call. Raises
    UnstableSystemError at a root of det, which no block that passed the
    gate has on the real line."""
    coef, weights = table
    omegas = np.ascontiguousarray(omegas, dtype=float).ravel()
    if pid is None:
        pid = np.zeros(omegas.size, dtype=np.intp)

    def one_pass(w: np.ndarray, p: np.ndarray):
        # its temporaries, the gathered coefficients too, are freed before
        # the next pass starts
        t = 1j * w
        c = coef.take(p, axis=-1)
        # Horner's rule at t = i omega, det and the entries at once
        h = c[0] * t
        for row in c[1:-1]:
            h += row
            h *= t
        h += c[-1]
        h2 = _abs2(h)
        if not np.minimum.reduce(h2[0], initial=np.inf) > 0:
            raise UnstableSystemError(
                float(np.max(blocks.eigenvalues.real)),
                "singular response matrix: system at an instability threshold "
                "for a requested frequency")
        return finish(h, h2, weights.take(p, axis=-1))

    out = [one_pass(omegas[i:i + _CHUNK], pid[i:i + _CHUNK])
           for i in range(0, max(omegas.size, 1), _CHUNK)]
    if len(out) == 1:
        return out[0]
    if isinstance(out[0], tuple):
        return tuple(np.concatenate(c) for c in zip(*out))
    return np.concatenate(out)


def _triple(blocks: BeamBlocks, omegas: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(nu_plus, nu_minus, xi, q - 1/4) at each frequency of the one problem
    of blocks, from the Gram form plus the row A_++ (module docstring): the
    excesses nu = n - 1/2 of the occupations over vacuum and of
    q = n_plus n_minus - |xi|^2 over its vacuum value, each a sum of
    non-negative terms, and xi."""
    def terms(h: np.ndarray, h2: np.ndarray, wt: np.ndarray):
        inv = 1.0 / h2[0]
        k_pair, kp, rpm, _, *thermal = wt.real
        optical = 0.25 * k_pair
        # s_++ conj(s_-+) |det|^2 / sqrt(kappa_+ kappa_-), s_++ = (det + kappa_+ A_++) / det
        xi = (h[0] + kp * h[1]) * wt[3]
        if len(h) == 2:
            return optical * inv, optical * inv, xi * (rpm * inv), np.zeros_like(inv)
        w_pb, w_mb, w_x = thermal
        mechanical, minus = w_pb * h2[2], w_mb * h2[3]
        xi += w_x * (h[2] * h[3].conj())
        return (optical * inv + mechanical * inv, (optical + minus) * inv,
                xi * (rpm * inv), 0.5 * (mechanical + minus) * inv)

    return _passes(blocks, omegas, None, blocks.triple_table, terms)


def _gram(blocks: BeamBlocks, omegas: np.ndarray, finish, pid: np.ndarray | None = None):
    """finish(D, K, T, M) at each frequency of problem pid[i], from the Gram
    form (module docstring): D = |det(m + i omega)|^2, the pair constant K,
    T = Gamma (n_th kappa_+ |A_+b|^2 + (n_th + 1) kappa_- |A_-b|^2) and the
    mechanical part of the spectrum times D, M = n_th kappa_+ Gamma
    |A_+b|^2; T = M = 0 on the effective model. One Horner pass evaluates
    det, A_+b and A_-b only. Needs a reciprocal block (|A_b+-| = |A_+-b|)
    for E."""
    def terms(h: np.ndarray, h2: np.ndarray, wt: np.ndarray):
        if len(h) == 1:
            return finish(h2[0], wt[0], 0.0, 0.0)
        mechanical = wt[1] * h2[1]
        return finish(h2[0], wt[0], mechanical + wt[2] * h2[2], mechanical)

    return _passes(blocks, omegas, pid, blocks.gram_table, terms)


def _spectrum(d2: np.ndarray, k_pair: np.ndarray, thermal, mechanical,
              ) -> tuple[np.ndarray, np.ndarray]:
    """(optical, mechanical) parts of the beam-1 spectrum from the Gram
    terms (_gram): kappa_+ kappa_- |A_+-|^2 / D = K / 4D and M / D."""
    return 0.25 * k_pair / d2, mechanical / d2


def correlator_batch(d: DriftMatrix, omegas: np.ndarray, n_th: float = 0.0,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(nu_plus, nu_minus, xi, q - 1/4) arrays over a frequency grid, from
    one Horner pass of the Gram form plus A_++ (see _triple), d gated by
    BeamBlocks.of."""
    return _triple(BeamBlocks.of(d, n_th), omegas)


def output_correlators(d: DriftMatrix, omega: float, n_th: float = 0.0) -> CorrelatorTriple:
    """Correlator triple of the output beams at (omega, -omega)."""
    nu_plus, nu_minus, xi, _ = correlator_batch(d, np.array([omega]), n_th)
    return CorrelatorTriple(0.5 + float(nu_plus[0]), 0.5 + float(nu_minus[0]), complex(xi[0]))


def spectrum_parts(d: DriftMatrix, omegas: np.ndarray, n_th: float = 0.0,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(optical, mechanical) parts of the beam-1 output intensity spectrum
    over a frequency grid, from the Gram form: the optical part
    |s_+-|^2 comes from the vacuum input of beam 2, the mechanical part
    n_th |s_+b|^2 from the thermal mechanical input (zero for the effective
    model), d gated by BeamBlocks.of."""
    return _gram(BeamBlocks.of(d, n_th), omegas, _spectrum)


# only tests call it; it stays bound because the benchmark tracer wraps it
def output_spectrum(d: DriftMatrix, omega: float, n_th: float = 0.0) -> SpectrumPoint:
    """Channel-resolved output intensity spectrum of beam 1 at one
    frequency, total = n_plus(omega) - 1/2: spectrum_parts at one point."""
    optical, mechanical = np.concatenate(spectrum_parts(d, np.array([omega]), n_th)).tolist()
    return SpectrumPoint(omega=float(omega), total=optical + mechanical,
                         optical_part=optical, mechanical_part=mechanical)


def pair_rate_numeric(p: EffectiveModelParams) -> float:
    """Photon pair creation rate int domega/2pi (n_plus(omega) - 1/2) of the
    effective optical model, exactly: kappa_+ kappa_- P_++ from the Gramian
    of the module docstring, with the Lyapunov equation solved as the
    linear system (m (x) I + I (x) conj(m)) vec P = -vec(e_- e_-^T)."""
    blocks = BeamBlocks.of(drift_effective(p), 0.0)
    return float(_pair_rate(blocks.m, blocks.decay)[0])


def _pair_rate(m: NDArray[np.complex128], decay: NDArray[np.float64]) -> NDArray[np.float64]:
    """pair_rate_numeric of each effective-model beam block of the stack m
    (P, 2, 2) with its decays (P, 2), from one stacked solve, for blocks
    that passed the gate. LAPACK solves the stacked systems one by one, so
    each rate equals that of its block alone bit for bit."""
    eye = np.eye(2)
    rhs = np.array([0.0, 0.0, 0.0, -1.0])      # -vec(e_- e_-^T), row-major
    try:
        # np.kron of a stack is the stack of the blocks' products
        gram = np.linalg.solve(np.kron(m, eye) + np.kron(eye, m.conj()), rhs)
    except np.linalg.LinAlgError as exc:
        raise UnstableSystemError(
            float(np.max(eigvals(m).real)),
            f"singular Lyapunov system: system at an instability threshold ({exc})") from exc
    return decay[:, 0] * decay[:, 1] * gram[:, 0].real
