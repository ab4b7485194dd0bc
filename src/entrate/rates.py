"""Spectral density of entanglement E[omega] and the total entanglement rate.

E[omega] = max(0, -ln(2 eta_minus(omega))) is the log-negativity of the
output mode pair at (omega, -omega); it is double-sided in omega. The rate
Gamma_E = int domega/2pi E[omega] is reported in units of kappa, i.e. nats
of entanglement per 1/kappa of time; Gamma_E kappa, with kappa in 1/s, is
in nats per second.

E from the Gram form. 2 eta_minus and 2 eta_plus are the two roots x of

    x^2 - 2 (n_plus + n_minus) x + 4 q = 0,

and 2 eta_plus = n_plus + n_minus + root >= 1, root = sqrt((n_plus -
n_minus)^2 + 4|xi|^2). In the excesses nu = n - 1/2 and q - 1/4 that
scattering.correlator_batch returns, 2 eta_minus = 4q / (1 + nu_plus +
nu_minus + root), so

    E = log1p(N / 4q),   N = nu_plus + nu_minus + root - 4 (q - 1/4),

which equals -log1p(-x) with x = N / (1 + nu_plus + nu_minus + root) and
keeps every digit at both ends: E >> 1 near an instability, and E ~ 1e-17
far out on a tail, where n_plus + n_minus rounds to 1. log_negativity
evaluates it from a correlator triple (the filter averages of wannier).
But N is a difference, and it cancels where the thermal terms dominate
(38,155 ulp of E at g = 0.6, Gamma = 0.02, delta = 3.9, Delta = -0.4,
n_th = 1e4, omega = 3.95). The Gram form of scattering writes each excess
over D = |det(m + i omega)|^2 with the constant K below and a thermal
weight T >= 0, so that with S = K/2 + T, N D = K/2 - T + sqrt(S^2 + K D)
and

    E = log1p(K (1 + D / (S + sqrt(S^2 + K D))) / (D + 2T)),

every term non-negative (_gram_density): the E of the rate path and of
spectral_density. It rests on the reciprocity below, which both check.
What is left is the Horner pass for det, which cancels terms of size
|omega|^k down to |det| at a narrow resonance away from omega = 0 (up to
7e-14 relative in E there).

E > 0 on the whole line. x = 1 lies between the two roots, i.e. E > 0,
exactly when the quadratic is negative there:
2 (nu_plus + nu_minus) - 4 (q - 1/4) > 0. With s = S(omega) on the beam
block and the n_th weights of scattering's correlators,

    nu_plus + nu_minus - 2 (q - 1/4) = |s_+-|^2 + |s_-+|^2
        + n_th (|s_+b|^2 - |s_b+|^2) + (n_th + 1) (|s_-b|^2 - |s_b-|^2).

The beam block is reciprocal, m^T = J m J with J = diag(1, -1[, 1]): the
couplings a+ <-> b are equal both ways, those a-^dag <-> b and
a+ <-> a-^dag opposite. So (m + i omega)^-1 is reciprocal too and
|s_ij| = |s_ji|: both brackets vanish, and
with t = i omega, A(t) = adj(m + t) and s_ij = sqrt(d_i d_j) A_ij / det(m + t)
off the diagonal (d the decay rates),

    K = 2 (nu_plus + nu_minus - 2 (q - 1/4)) |det(m + t)|^2
      = 2 kappa_+ kappa_- (|A_+-|^2 + |A_-+|^2) = 4 kappa_+ kappa_- |A_+-|^2.

A_+- = -t m_+- + adj(m)_+- on the 3x3 block of the full model and -m_+-
on the 2x2 block of the effective model. The full model does not couple a+
to a-^dag directly (m_+- = 0), so A_+- = m_+b m_b- there, and K is a
constant in both models: K = kappa^2 g^4 / 4 (full) or
kappa^2 g^4 / (4 delta^2) (effective). So E > 0 at every frequency when
g > 0 and E = 0 everywhere when g = 0; the constant K tells the two apart.

Crossings as polynomial roots. A(t) = t^2 I + t (tr m I - m) + adj m
(k = 3) or t I + adj m (k = 2), and det(m + t) is the characteristic
polynomial t^3 + t^2 tr m + t tr adj m + det m (or t^2 + t tr m + det m);
the kernel evaluates S from the same coefficients (scattering.BeamBlocks).
So in y = omega / s, s = max |eig m| + max decay, the quantities
D = |det|^2, V = (nu_plus + nu_minus) D = K/2 + T and K are real
polynomials, of degree 2k, 2k - 4 and 0 (A_+- and A_-+ are constants,
A_+b and A_-b linear), from the coefficients of the Gram form.
Multiplying the quadratic at x = c by D, 2 eta_minus = c holds exactly
where

    P_c = u^2 D + 2 u V - K = 0,   u = 1 - c,

and for c < 1 every real root is a crossing of 2 eta_minus, because the
other root is 2 eta_plus >= 1 > c. The FWHM flanks are the real roots
nearest omega_max at c = e^(-E_max / 2), polished by a few batched secant
steps on the kernel, which start at the roots for the polynomials' E_max,
measured in the peaks' pass below (afresh where omega_max is outside them
or that E_max is off the kernel's).

Peaks as polynomial roots. u = 1 - e^-E solves P_u = 0 at every y and
rises with E, so E is stationary where u' = -(u^2 D' + 2 u V') / (2 (u D
+ V)) vanishes, i.e. at u = -2 V' / D'. Putting that u back into P_u = 0
gives every stationary point of E among the real roots of

    R = 4 V'^2 D - 4 V V' D' - K D'^2,

of degree 4k - 2: 10 (full model; the terms with V reach degree 8) or 6
(effective model, where V is a constant and R = -K D'^2, so its
candidates are the three roots of D', each taken once). R also vanishes
where 2 eta_plus, the other root of P_u, is stationary. The real part of
every root is a candidate, and E is evaluated there. E > 0 falls to 0 at
both ends of the line and is monotonic between its stationary points, so
among the candidates sorted by omega, with E = 0 at both ends, every
local maximum of E is a candidate and a candidate that is no stationary
point of E is no strict local maximum: the peak count runs on that list,
by prominence with ties broken by position (_count_local_maxima: of equal
values the leftmost is the higher). So two equal mirror peaks count once
unless the dip between them reaches the prominence floor. Newton steps on u'
polish the candidates without the kernel: u = K / (V + sqrt(V^2 + K D))
solves P_u = 0, and u' and u'' follow by implicit differentiation from D,
V and their first two derivatives. A step longer than a thousandth of s
is not taken: it starts from a candidate that is no stationary point of
E. Newton steps may carry such a candidate onto a peak, which is why the
count uses the candidates as found. No kernel is needed up to here: the
quadrature's first kernel pass, on its start mesh, also measures E at the
candidates as found, the polished ones and their mirrors; E_max is the
best polished one, and of two mirror peaks equal to 4 ulp, omega_max is
the one at omega >= 0. The beam-1 output spectrum nu_plus = N / D,
N = kappa_+ kappa_- |A_+-|^2 + n_th kappa_+ gamma |A_+b|^2, peaks at a real
root of N' D - N D', found, polished on N and D and measured the same way.

The integral. Gamma_E is integrated over the whole frequency line on one
compact angle: omega = s' tan(theta) with s' = max(decay) maps the line
onto (-pi/2, pi/2), and the integrand E(s' tan theta) s' / cos^2(theta)
stays bounded at the ends because E falls off like |omega|^-3 (full
model) or |omega|^-2 (effective model). The Gauss-Kronrod panels start
on a mesh graded geometrically towards the resonance centres, omega = 0
and the beam-block resonances (omega = -Im of its k eigenvalues; the
conjugates of the partner block resonate in S at -omega, never at
+omega). Each centre gets edges at its linewidth times 4^j either side,
out to the half-way point to the next centre, or to two spans beyond the
outermost, and an edge there (_panel_omegas; the filter averages of
wannier start on the same edges). Around a narrow mechanical resonance E
has a skirt many linewidths wide (FWHM 0.044 for a linewidth of 5e-4 at
g = 5, Gamma = 1e-3, delta = -15), and worst-first refinement from a few
fixed edges reaches that scale one bisection per sweep; the
graded mesh starts on every scale at once (as QUADPACK does towards a
singular point, Piessens et al. 1983). Centres closer than a linewidth
merge into the narrowest.

The problem axis. _rates computes the rates of P stable beam blocks of one
model (the batch scattering.BeamBlocks.gate passes, with its eigenvalues:
entanglement_rates gates its drifts, a sweep its grid) together: the
polynomials D, V and K of every problem (computed once, for the peaks and
the flanks), the peak and crossing polynomials and their roots (stacked
eigen-solves of the companion matrices), one Gauss-Kronrod loop whose
panels carry a problem id and whose first kernel pass measures the peaks
and the flank starts too, and one FWHM polish, each step batched kernel
passes over all problems. Every decision is taken per problem from that
problem's numbers, and the kernel and the polynomial steps are
elementwise, so a result does not depend on the batch it was computed in:
entanglement_rate is the call with P = 1, and a sweep's rows equal it bit
for bit. spectrum_peak runs on the same axis, one kernel pass per degree of
N' D - N D'.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import QuadratureError
from .models import PAIRING_DEFECT_TOL, DriftMatrix, eigvals
# unused here, but the benchmark tracer wraps these names in rates
from .models import stability  # noqa: F401
from .quadutil import adaptive_gk_batch
from .quadutil import adaptive_gk_batch as adaptive_gk, bisect_all  # noqa: F401
from .scattering import BeamBlocks, _gram, _spectrum
from .scattering import correlator_batch  # noqa: F401

#: Ratio of consecutive Gauss-Kronrod panel edges going out from a resonance.
_GRADING = 4.0
#: Reach of the edges beyond the outermost resonances, in units of the span
#: max |centre| + max decay.
_OUTER_REACH = 2.0
#: The edges on one side of a resonance in linewidths, the centre first,
#: and the signs of the two sides.
_RUNGS = np.concatenate([[0.0], _GRADING ** np.arange(64)])
_SIDES = np.array([-1.0, 1.0])
#: j < i at [i, j], for the k + 1 <= 4 resonance centres of a beam block.
_EARLIER = np.tri(4, k=-1, dtype=bool)
#: Batched secant steps that polish the FWHM flanks on the kernel, and the
#: offsets of their two starts from a flank x, times |x| + 1.
_POLISH_STEPS = 3
_SECANT_STARTS = np.array([[1e-8], [0.0]])
#: Relative difference between the polynomials' E_max and the kernel's up to
#: which the flank starts at half the former are kept: a level off by that
#: fraction moves a flank by about half of it times the width, less than the
#: roots' own error.
_LEVEL_TOL = 1e-6
#: n - 1, ..., 1: the powers of the coefficients, highest first, of a
#: polynomial of n coefficients, less the constant.
_exponents = functools.cache(lambda n: np.arange(n - 1, 0, -1))
#: [0, i, j]: j < i, and j > i, for n values.
_BEFORE = functools.cache(lambda n: (np.tri(n, k=-1, dtype=bool)[None],
                                     ~np.tri(n, dtype=bool)[None]))
#: Newton steps of the peak polish on the beam polynomials.
_NEWTON_STEPS = 2
#: Longest Newton step of the peak polish, in units of s.
_NEWTON_REACH = 1e-3
#: The step below which a Newton or secant step is not taken, relative.
_EPS4 = 4.0 * np.finfo(float).eps
#: Sign pattern J of the reciprocity m^T = J m J of the beam block, and
#: J_i J_j, the signs of J m J.
_RECIPROCITY_SIGNS = np.array([1.0, -1.0, 1.0])
_RECIPROCITY = np.outer(_RECIPROCITY_SIGNS, _RECIPROCITY_SIGNS)
#: Floor of the one denominator of _gram_density that vanishes (where K = 0).
_TINY = np.finfo(float).tiny


def log_negativity(nu_plus: np.ndarray, nu_minus: np.ndarray, xi: np.ndarray,
                   q_excess: np.ndarray) -> np.ndarray:
    """Log-negativity of the two-mode state of a correlator triple, from its
    excesses over vacuum: nu = n - 1/2 of both occupations, the
    cross-correlator xi and q_excess = n_plus n_minus - |xi|^2 - 1/4.
    E = log1p(N / 4q) (module docstring), 0 for a separable state;
    elementwise, with no physicality check."""
    root = np.hypot(nu_plus - nu_minus, 2.0 * np.hypot(xi.real, xi.imag))
    gap = nu_plus + nu_minus + root - 4.0 * q_excess
    return np.log1p(np.maximum(gap, 0.0) / (1.0 + 4.0 * q_excess))


def _gram_density(d2: np.ndarray, k_pair: np.ndarray, thermal, _mechanical) -> np.ndarray:
    """E from the Gram terms of scattering._gram (module docstring): every
    term is non-negative, and E = +0.0 where K = 0."""
    s = 0.5 * k_pair + thermal
    # K / (S + sqrt(S^2 + K D)) <= 2
    r = k_pair / np.maximum(s + np.sqrt(s * s + k_pair * d2), _TINY)
    return np.log1p((k_pair + r * d2) / (d2 + 2.0 * thermal))


def _density(blocks: BeamBlocks, omegas: np.ndarray, pid: np.ndarray) -> np.ndarray:
    """E at omegas[i] for problem pid[i] of the batch (reciprocal blocks)."""
    return _gram(blocks, omegas, _gram_density, pid)


def _reciprocal_blocks(d: DriftMatrix, n_th: float) -> BeamBlocks:
    """The beam block of d as a batch of one; raises ValueError unless it
    is reciprocal (_reciprocal)."""
    blocks = BeamBlocks.of([d], [n_th])
    if not _reciprocal(blocks.m)[0]:
        raise _not_reciprocal(blocks.k)
    return blocks


def spectral_density_batch(d: DriftMatrix, omegas: np.ndarray,
                           n_th: float = 0.0) -> np.ndarray:
    """E[omega] over a frequency grid from the Gram form (module
    docstring); raises the gate's failure (BeamBlocks.of) where d is not
    stable, and ValueError when its beam block is not reciprocal."""
    return _gram(_reciprocal_blocks(d, n_th), omegas, _gram_density)


def spectrum_and_density(d: DriftMatrix, omegas: np.ndarray, n_th: float = 0.0,
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(optical, mechanical, E) over a frequency grid from one kernel pass:
    scattering.spectrum_parts and spectral_density_batch at once, equal to
    them bit for bit; raises as spectral_density_batch does."""
    return _gram(_reciprocal_blocks(d, n_th), omegas,
                 lambda *terms: (*_spectrum(*terms), _gram_density(*terms)))


def spectral_density(d: DriftMatrix, omega: float, n_th: float = 0.0) -> float:
    """Spectral density of entanglement at one frequency."""
    return float(spectral_density_batch(d, np.array([omega]), n_th)[0])


@dataclass(frozen=True)
class RateResult:
    """Entanglement rate plus peak statistics of the E[omega] curve."""

    gamma_E: float
    E_max: float
    omega_max: float
    fwhm: float
    quadrature_error: float
    secondary_peaks: int


#: The rate of a drift whose pair constant K is 0: E = 0 on the whole line.
_NO_ENTANGLEMENT = RateResult(0.0, 0.0, 0.0, 0.0, 0.0, 0)


def _resonances(eigenvalues: np.ndarray, decay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(centres, linewidths) of the beam-block resonances, -Im and |Re| of
    its eigenvalues, plus omega = 0 with the largest decay rate as width,
    along the last axis of the eigenvalues and decays."""
    shape = (*eigenvalues.shape[:-1], eigenvalues.shape[-1] + 1)
    centres, widths = np.empty(shape), np.empty(shape)
    np.negative(eigenvalues.imag, out=centres[..., :-1])
    centres[..., -1] = 0.0
    np.maximum(np.abs(eigenvalues.real), 1e-12, out=widths[..., :-1])
    widths[..., -1] = np.maximum.reduce(decay, axis=-1)
    return centres, widths


def _scale(eigenvalues: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """Frequency scale s of the crossing polynomials, one per row of the
    beam-block eigenvalues and decays: max |eig| + max decay."""
    return np.maximum.reduce(np.abs(eigenvalues), axis=-1) + np.maximum.reduce(decay, axis=-1)


def _panel_omegas(eigenvalues: np.ndarray, decay: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The resonance-graded frequency edges of every problem p, from its
    block eigenvalues (P, k), decays and span scale[p]: one row per
    problem, unsorted, NaN where a ladder has no rung. Each resonance
    centre (_resonances) gets edges at its linewidth times _GRADING^j
    either side, out to the half-way point to the neighbouring centre, or
    to _OUTER_REACH times (max |centre| + scale[p]) on the outer sides, and
    an edge there. Coincident centres merge: a centre within the linewidth
    of a narrower one (or of an earlier one as narrow) gives way to it.
    Elementwise along the problem axis, so a row does not depend on the
    batch."""
    c, w = _resonances(eigenvalues, decay)
    outer = _OUTER_REACH * (np.maximum.reduce(np.abs(c), axis=1) + scale)
    m = c.shape[1]
    # [p, i, j]: centre j is narrower than centre i, or as narrow and earlier
    w_i, w_j = w[:, :, None], w[:, None, :]
    narrower = np.where(_EARLIER[:m, :m], w_j <= w_i, w_j < w_i)
    merged = narrower & (np.abs(c[:, None, :] - c[:, :, None]) <= w_j)
    c[np.logical_or.reduce(merged, axis=2)] = np.nan
    # signed by the side, [p, side, i]: each centre, the nearest remaining
    # centre on that side, and the half-way point to it (the same float from
    # both centres) or, with none, the outer reach
    sc = _SIDES[:, None] * c[:, None, :]
    ahead = np.where(sc[:, :, None, :] > sc[..., None], sc[:, :, None, :], np.inf)
    ahead = np.minimum.reduce(ahead, axis=3)
    limit = np.minimum(0.5 * (sc + ahead), sc + outer[:, None, None])
    reach = np.maximum.reduce(outer, axis=None) / np.minimum.reduce(w, axis=None)
    rungs = w[:, None, :, None] * _RUNGS[:2 + int(math.log(reach, _GRADING))]
    ladder = np.where(rungs < (limit - sc)[..., None], sc[..., None] + rungs, np.nan)
    omega = np.concatenate([ladder, limit[..., None]], axis=3) * _SIDES[:, None, None]
    return omega.reshape(len(c), -1)


def _panel_edges(eigenvalues: np.ndarray, decay: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Starting Gauss-Kronrod edges of Gamma_E in theta = arctan(omega /
    scale[p]): the edges of _panel_omegas, one row per problem, ascending
    from -pi/2 to pi/2 and NaN-padded at the end (repeated edges make no
    panel in quadutil.adaptive_gk_batch)."""
    omega = _panel_omegas(eigenvalues, decay, scale)
    edges = np.empty((len(omega), omega.shape[1] + 2))
    edges[:, :2] = -0.5 * math.pi, 0.5 * math.pi
    # + 0.0 makes -0.0 a 0.0: equal edges of two signs sort in either order
    np.arctan(omega / scale[:, None] + 0.0, out=edges[:, 2:])
    edges.sort(axis=1)
    return edges


def _reciprocal(m: np.ndarray) -> np.ndarray:
    """Whether each beam block of the stack m (P, k, k) obeys m^T = J m J
    (to PAIRING_DEFECT_TOL of its largest entry), which the whole-line
    E > 0 region and the crossing polynomial rest on."""
    k = m.shape[-1]
    defect = np.maximum.reduce(np.abs(m.transpose(0, 2, 1) - _RECIPROCITY[:k, :k] * m),
                               axis=(1, 2))
    scale = np.fmax(np.maximum.reduce(np.abs(m), axis=(1, 2)), 1.0)
    return ~(defect > PAIRING_DEFECT_TOL * scale)


def _not_reciprocal(k: int) -> ValueError:
    return ValueError("beam block is not reciprocal (m^T != J m J, "
                      f"J = diag{tuple(_RECIPROCITY_SIGNS[:k])})")


@functools.cache
def _anti_diagonals(na: int, nb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables [m, t] into the coefficients of a (na) and of b (nb):
    term t of anti-diagonal m of their outer product is a[m - j] b[j], j
    ascending, and a mask of the terms within the anti-diagonal."""
    m, t = np.ogrid[:na + nb - 1, :min(na, nb)]
    j = np.maximum(m - na + 1, 0) + t
    inside = (j < nb) & (j <= m)
    return np.where(inside, m - j, 0), np.where(inside, j, 0), inside.astype(float)


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the products of the polynomials along the last axes
    of a and b (highest power first, the other axes broadcast): the
    anti-diagonal sums of their outer products, summed in order."""
    ia, ib, inside = _anti_diagonals(a.shape[-1], b.shape[-1])
    return np.add.accumulate(a.take(ia, axis=-1) * b.take(ib, axis=-1) * inside, axis=-1)[..., -1]


def _beam_polynomials(blocks: BeamBlocks, s: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(D, V, K, N) of the module docstring: the real coefficients of D, V
    and N, highest power first, in y = omega / s[p], one row per problem,
    from the coefficients of the kernel's Gram form (V and N with the
    leading zeros of 2k - 1 coefficients), and the constant K per
    problem."""
    k = blocks.k
    coef, weights = blocks.gram_table
    # t^j = (i s y)^j times det [, A_+b, A_-b] (degree k - 1, with a leading
    # zero), all of them |.|^2 at once
    p = (1j * s[:, None]) ** np.arange(k, -1, -1)
    p = p[:, None] * coef.transpose(2, 1, 0)
    sq = _polymul(p.conj(), p).real
    k_pair = weights[0]
    v = np.zeros((s.size, 2 * k - 1))
    v[:, -1] = 0.5 * k_pair
    n_plus = 0.5 * v
    if k == 3:
        mechanical = weights[1][:, None] * sq[:, 1, 2:]  # |A_+b|^2, degree 2k - 2
        v += mechanical + weights[2][:, None] * sq[:, 2, 2:]
        n_plus += mechanical
    return sq[:, 0], v, k_pair, n_plus


def _derivatives(polys: Sequence[np.ndarray]) -> np.ndarray:
    """[derivative, polynomial, p, :]: the coefficients of polys (a row per
    problem each) and of their first two derivatives, in one length."""
    n = max(p.shape[-1] for p in polys)
    table = np.zeros((3, len(polys), len(polys[0]), n))
    for i, p in enumerate(polys):
        table[0, i, :, n - p.shape[-1]:] = p
    np.multiply(table[0, ..., :-1], _exponents(n), out=table[1, ..., 1:])
    np.multiply(table[1, ..., 1:-1], _exponents(n - 1), out=table[2, ..., 2:])
    return table


def _newton(table: np.ndarray, y: np.ndarray, step) -> tuple[np.ndarray, object]:
    """The candidates y[p, :] (in units of s[p]) after at most _NEWTON_STEPS
    Newton steps, and the aux of the last: step(values) gives (the step,
    aux) from the polynomials of the _derivatives table, their first and
    their second derivatives at y, all from one Horner loop. A step not
    finite or longer than _NEWTON_REACH is not taken, and a candidate stops
    once its step is below 4 ulp or was not taken. The caller ignores the
    floating-point errors of the steps not taken."""
    # [power, polynomial, p, candidate], repeated to y's shape: an operation
    # on arrays of one shape takes less time than a broadcast one
    table = table.reshape(-1, *table.shape[2:]).transpose(2, 0, 1)[..., None].repeat(
        y.shape[1], axis=3)
    y, active, at = y.copy(), np.ones(y.shape, dtype=bool), np.empty(table.shape[1:])
    for _ in range(_NEWTON_STEPS):
        at[...] = y
        values = table[0] * at
        for c in table[1:-1]:
            values += c
            values *= at
        values += table[-1]
        dy, aux = step(values)
        size = np.abs(dy)
        active &= (size <= _NEWTON_REACH) & (size > _EPS4 * np.abs(y))
        if not np.logical_or.reduce(active, axis=None):
            break
        np.subtract(y, dy, out=y, where=active)
    return y, aux


def _roots(p: np.ndarray) -> np.ndarray:
    """Complex roots of the polynomial of every row of p (nonzero leading
    coefficient), from one stacked eigen-solve of the companion matrices
    (the matrix np.roots builds)."""
    n = p.shape[1] - 1
    companion = np.zeros((len(p), n, n))
    companion[:, 0] = -p[:, 1:] / p[:, :1]
    companion.reshape(len(p), -1)[:, n::n + 1] = 1.0     # the subdiagonal
    return eigvals(companion)


def _crossings(polys: tuple[np.ndarray, ...], s: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Frequencies where E = levels[p] > 0 for each problem p, i.e.
    2 eta_minus = c = e^-level: the real roots of P_c (module docstring)
    built from the problems' _beam_polynomials, unpolished; NaN in place of
    a complex root."""
    d_poly, v_poly, k_poly = polys[:3]
    u = -np.expm1(-levels)[:, None]
    p = u * u * d_poly
    p[:, 2:] += 2.0 * u * v_poly
    p[:, -1] -= k_poly
    roots = _roots(p)
    re, im2 = roots.real, roots.imag ** 2
    return np.where(im2 <= 1e-16 * (re ** 2 + im2), s[:, None] * re, np.nan)


def _secant_starts(roots: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """The secant starts of _fwhms [p, centre, point, side] at the roots x
    (P, n) nearest the centres (P, m) on either side: x + 1e-8 (|x| + 1),
    then x; NaN where there is no root."""
    r, c = roots[:, None, :], centres[..., None]
    x = np.empty((*centres.shape, 1, 2))
    np.fmax.reduce(np.where(r < c, r, np.nan), axis=2, out=x[..., 0, 0])
    np.fmin.reduce(np.where(r > c, r, np.nan), axis=2, out=x[..., 0, 1])
    return x + _SECANT_STARTS * (np.abs(x) + 1.0)


def _fwhms(blocks: BeamBlocks, s: np.ndarray, polys: tuple[np.ndarray, ...],
           omega_max: np.ndarray, e_max: np.ndarray,
           starts: tuple[np.ndarray, np.ndarray] | None = None,
           ) -> tuple[np.ndarray, list[QuadratureError | None]]:
    """Half-maximum width of the dominant peak of each problem (e_max > 0):
    the distance between the crossings of E = e_max / 2 nearest omega_max
    on either side, each polished by batched secant steps on the kernel
    (the point with the smallest |E - e_max / 2| seen is kept), from the
    starts [p, point, side] and E there of _stationary, or where those are
    NaN (or not given) afresh. A problem with no crossing on one side gets
    a QuadratureError and a NaN width."""
    half = 0.5 * e_max
    x, e = starts or (np.full((len(e_max), 2, 2), np.nan), np.full((len(e_max), 2, 2), np.nan))
    fresh = np.isnan(x[:, 0, 0]).nonzero()[0]
    if fresh.size:
        x[fresh] = _secant_starts(_crossings(tuple(p[fresh] for p in polys[:3]), s[fresh],
                                             half[fresh]), omega_max[fresh, None])[:, 0]
        fresh = fresh[~np.isnan(x[fresh]).any(axis=(1, 2))]
        e[fresh] = _density(blocks, x[fresh].ravel(), np.repeat(fresh, 4)).reshape(-1, 2, 2)
    found = ~np.logical_or.reduce(np.isnan(x.reshape(len(x), -1)), axis=1)
    failures = [None if ok else QuadratureError(
        f"no half-maximum crossing on one side of omega_max={w}")
        for ok, w in zip(found.tolist(), omega_max.tolist())]
    idx = found.nonzero()[0]
    widths = np.full(len(e_max), np.nan)
    x, f = x.take(idx, axis=0), e.take(idx, axis=0) - half.take(idx)[:, None, None]
    (x0, x1), (f0, f1) = x.transpose(1, 0, 2), f.transpose(1, 0, 2)
    best, f_best = x1.copy(), np.abs(f1)
    # a problem that stops keeps its state, so it stops again
    for _ in range(_POLISH_STEPS):
        slope = f1 - f0
        step = np.divide(f1 * (x1 - x0), slope, out=np.zeros(slope.shape), where=slope != 0)
        moving = np.logical_or.reduce(~(np.abs(step) <= _EPS4 * np.abs(x1)), axis=1).nonzero()[0]
        if not moving.size:
            break
        if moving.size == idx.size:
            moving = slice(None)
        x0[moving], f0[moving] = x1[moving], f1[moving]
        x1[moving] -= step[moving]
        pid = idx[moving].repeat(2)
        f1[moving] = (_density(blocks, x1[moving].ravel(), pid) - half[pid]).reshape(-1, 2)
        size = np.abs(f1)
        better = size < f_best
        best, f_best = np.where(better, x1, best), np.where(better, size, f_best)
    widths[idx] = best[:, 1] - best[:, 0]
    return widths, failures


def _peak(s: np.ndarray, y: np.ndarray, f: np.ndarray, f_mirror: np.ndarray,
          ) -> tuple[np.ndarray, np.ndarray]:
    """(omega, f) of the best of the candidates y[p, :] (in units of s[p])
    of each problem: the largest f, and of two mirror peaks equal to 4 ulp
    the one at omega >= 0 (f_mirror is f at -omega)."""
    rows = np.arange(s.size)
    best = f.argmax(axis=1)
    omega, top, mirror = s * y[rows, best], f[rows, best], f_mirror[rows, best]
    tie = (omega < 0) & (mirror >= top - 4.0 * np.spacing(top))
    return np.where(tie, -omega, omega), np.where(tie, mirror, top)


def _stationary(s: np.ndarray, polys: tuple[np.ndarray, ...], k: int):
    """The peaks of each problem (K > 0, module docstring) around a kernel pass
    that the caller makes at w: the real parts of the roots of R, the same
    after Newton steps on the polynomials and mirrored, and the starts of
    _fwhms at the crossings of P_c for half the polynomials' E_max around
    their omega_max or its mirror; peaks(E at w) gives E at the first sorted
    by omega, (omega_max, E_max) of the best of the second, and the starts
    that hold the kernel's omega_max, with E there."""
    d, v, k_pair = polys[:3]
    # D, W = 2V and their first two derivatives: R's and the Newton steps'
    table = _derivatives([d, 2.0 * v])
    if k == 2:
        # V is a constant, so R = -K D'^2 has the roots of D', each twice
        y0 = _roots(table[1, 0, :, 1:]).real
    else:
        # R = W'^2 D - W W' D' - K D'^2 (4 V'^2 D - 4 V V' D' exactly) from two
        # stacked products; V has degree 2k - 4, so R has 4k - 2: the leading zeros go
        flat = table.reshape(-1, *table.shape[2:])     # D, W, D', W', D'', W''
        first = _polymul(flat.take((3, 1, 2), axis=0), flat.take((3, 3, 2), axis=0))
        r = _polymul(first[:2], flat[:3:2])[..., -(4 * k - 1):]
        r[0] -= r[1]
        r[0] -= k_pair[:, None] * first[2, :, -(4 * k - 1):]
        y0 = _roots(r[0]).real
    rows, n = np.arange(s.size), y0.shape[1]
    k2, k4 = (2.0 * k_pair[:, None]).repeat(n, axis=1), (4.0 * k_pair[:, None]).repeat(n, axis=1)

    def step(values):
        # u' / u'' from P_u = 0 with W = 2V: a = u D' + W', q = -u' =
        # u a / (2uD + W), u' / u'' = u a / (2 (D q - a - u D') q + u (u D'' + W''))
        dy, wy, dy1, wy1, dy2, wy2 = values
        u = k2 / (wy + np.sqrt(wy * wy + k4 * dy))
        ud1 = u * dy1
        a = ud1 + wy1
        ua = u * a
        ud = u * dy
        q = ua / (ud + ud + wy)
        return ua / (2.0 * (dy * q - (a + ud1)) * q + u * (u * dy2 + wy2)), u

    with np.errstate(divide="ignore", invalid="ignore"):
        y, u = _newton(table, y0, step)
        guess = u.argmax(axis=1)
        e_guess = -np.log1p(-u[rows, guess])
    # where u rounds to 1 the polynomials cannot tell E_max: any level serves
    x = _secant_starts(_crossings(polys, s, np.where(np.isfinite(e_guess), 0.5 * e_guess, 1.0)),
                       (s * y[rows, guess])[:, None] * _SIDES)
    sy = s[:, None] * y
    # a point in the pass must be finite: 0 stands in for a missing crossing
    w = np.concatenate([s[:, None] * y0, sy, -sy,
                        np.where(np.isnan(x), 0.0, x).reshape(s.size, -1)], axis=1)

    def peaks(e: np.ndarray):
        found = e[rows[:, None], y0.argsort(axis=1, kind="stable")]
        omega_max, e_max = _peak(s, y, e[:, n:2 * n], e[:, 2 * n:3 * n])
        # the starts around omega_max, if it lies between them and their
        # level is half the kernel's E_max to _LEVEL_TOL
        inside = (x[:, :, 1, 0] < omega_max[:, None]) & (omega_max[:, None] < x[:, :, 1, 1])
        c = inside.argmax(axis=1)
        starts, e_starts = x[rows, c], e[:, 3 * n:].reshape(x.shape)[rows, c]
        starts[~inside[rows, c] | ~(np.abs(e_guess - e_max) <= _LEVEL_TOL * e_max)] = np.nan
        return found, omega_max, e_max, (starts, e_starts)

    return w, peaks


# the benchmark tracer wraps these names; the peaks and the flanks are
# polynomial roots now
_fwhm_by_bisection = _fwhms
_positive_intervals = minimize_scalar = _stationary


def spectrum_peak(blocks: BeamBlocks) -> tuple[np.ndarray, np.ndarray]:
    """(omega, height) of the maximum of the beam-1 output spectrum
    nu_plus = N / D (module docstring) of each block: the best real root of
    N' D - N D' after Newton steps on the polynomials, measured on the
    kernel in one pass with the mirrors; (0, 0) where the spectrum vanishes
    (g = 0). N' D - N D' keeps its exact leading zeros (N has degree 2k - 4,
    or 0 without the thermal input), so the rows go through in groups of
    one degree, a kernel pass each; elementwise along the problem axis, so
    a row does not depend on the batch."""
    s = _scale(blocks.eigenvalues, blocks.decay)
    dp, _, _, n = _beam_polynomials(blocks, s)
    table = _derivatives([n, dp])
    r = _polymul(table[1, 0], table[0, 1]) - _polymul(table[0, 0], table[1, 1])
    # the leading zeros of each row: the place of its leading coefficient
    lead = np.logical_and.accumulate(r == 0, axis=1).sum(axis=1)
    omega, height = np.zeros(len(blocks)), np.zeros(len(blocks))

    def step(values):
        # Newton on N' D - N D', whose derivative is N'' D - N D''
        ny, dy, ny1, dy1, ny2, dy2 = values
        return (ny1 * dy - ny * dy1) / (ny2 * dy - ny * dy2), None

    # a constant (or zero) row has no root
    for first in sorted(set(lead[lead < r.shape[1] - 1].tolist())):
        idx = (lead == first).nonzero()[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            y, _ = _newton(table[:, :, idx], _roots(r[idx, first:]).real, step)
        w = s[idx, None] * y
        f = _gram(blocks, np.concatenate([w, -w], axis=1).ravel(),
                  lambda *g: np.add(*_spectrum(*g)), idx.repeat(2 * y.shape[1]))
        omega[idx], height[idx] = _peak(s[idx], y, *np.split(f.reshape(idx.size, -1), 2, axis=1))
    return omega, height


def _check_tol(tol: float) -> None:
    """Raise ValueError unless tol is a finite positive number."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol}")


def entanglement_rates(drifts: Sequence[DriftMatrix], n_ths: Sequence[float],
                       tol: float = 1e-6) -> list[RateResult | Exception]:
    """entanglement_rate of every drift (all of one model) in one batched
    computation (module docstring); each result equals entanglement_rate of
    its drift alone bit for bit. A problem that fails gets its exception in
    its slot instead of a RateResult, and the others are unaffected: the
    failure of a drift that does not pass the gate
    (scattering.BeamBlocks.gate_drifts), the ValueError of a block that is
    not reciprocal, or a QuadratureError."""
    _check_tol(tol)
    drifts = list(drifts)
    blocks, places, failures = BeamBlocks.gate_drifts(drifts, n_ths)
    out: list[RateResult | Exception | None] = [failures.get(i) for i in range(len(drifts))]
    if not places:
        return out
    reciprocal = _reciprocal(blocks.m)
    if not np.logical_and.reduce(reciprocal):
        for j in (~reciprocal).nonzero()[0].tolist():
            out[places[j]] = _not_reciprocal(blocks.k)
        places = [i for i, good in zip(places, reciprocal.tolist()) if good]
        blocks = blocks.take(reciprocal.nonzero()[0])
    for i, result in zip(places, _rates(blocks, tol) if places else []):
        out[i] = result
    return out


def _rates(blocks: BeamBlocks, tol: float) -> list[RateResult | Exception]:
    """The batched rate of entanglement_rates for stable, reciprocal blocks."""
    s = _scale(blocks.eigenvalues, blocks.decay)
    polys = _beam_polynomials(blocks, s)
    out: list[RateResult | Exception] = [_NO_ENTANGLEMENT] * len(blocks)
    # E > 0 on the whole line where K > 0, E = 0 everywhere where K = 0
    pos = (polys[2] > 0).nonzero()[0]
    if not pos.size:
        return out
    if pos.size < len(blocks):
        blocks, s, polys = blocks.take(pos), s[pos], tuple(p[pos] for p in polys)

    # E has all its structure at the resonances, so panels that start
    # there only need polishing; half of tol * 2 pi is the budget
    scale = np.maximum.reduce(blocks.decay, axis=1)
    edges = _panel_edges(blocks.eigenvalues, blocks.decay, scale)
    w, peaks_at = _stationary(s, polys, blocks.k)
    at_w = []

    def integrand(theta: np.ndarray, pid: np.ndarray) -> np.ndarray:
        t, sc = np.tan(theta), scale[pid]
        if at_w:
            return _density(blocks, sc * t, pid) * (sc * (1.0 + t * t))
        # the first call, on the quadrature's first start nodes (all of them
        # for up to quadutil._PANELS_PER_CALL panels), measures w in its pass
        e = _density(blocks, np.concatenate([sc * t, w.ravel()]),
                     np.concatenate([pid, np.arange(pos.size).repeat(w.shape[1])]))
        at_w.append(e[t.size:].reshape(w.shape))
        return e[:t.size] * (sc * (1.0 + t * t))

    totals, errors, gk_failures = adaptive_gk_batch(integrand, edges,
                                                    np.full(pos.size, math.pi * tol))
    values, omega_max, e_max, starts = peaks_at(at_w[0])
    widths, fwhm_failures = _fwhms(blocks, s, polys, omega_max, e_max, starts)
    peaks = _count_local_maxima(values, e_max)
    for p, gk_failure, fwhm_failure, total, top, where, width, error, count in zip(
            pos.tolist(), gk_failures, fwhm_failures, totals.tolist(), e_max.tolist(),
            omega_max.tolist(), widths.tolist(), errors.tolist(), peaks.tolist()):
        out[p] = gk_failure or fwhm_failure or RateResult(
            gamma_E=total / (2.0 * math.pi), E_max=top, omega_max=where, fwhm=width,
            quadrature_error=error / (2.0 * math.pi), secondary_peaks=count - 1)
    return out


def entanglement_rate(d: DriftMatrix, n_th: float = 0.0, tol: float = 1e-6) -> RateResult:
    """Gamma_E = int domega/2pi E[omega] over the whole line by adaptive
    quadrature in theta (module docstring) to absolute tolerance tol (in
    kappa units), plus E_max, its location, and the FWHM of the dominant
    peak: entanglement_rates for one drift, its failure raised."""
    (result,) = entanglement_rates([d], [n_th], tol)
    if isinstance(result, Exception):
        raise result
    return result


def _count_local_maxima(values: np.ndarray, e_max: np.ndarray) -> np.ndarray:
    """Peak count of every row of peak candidates (E at the candidates of a
    problem, sorted by omega; module docstring), with E = 0 at both ends of
    the line and a prominence floor of 1% of the row's e_max, so the
    float-level jitter of strongly squeezed points does not register. A
    peak is a value above its left neighbour and not below its right one;
    its prominence is its height above the higher of the lowest values on
    each side, searched outward to the left until a value at least as high,
    to the right until a higher one, or the border. Of equal values the
    leftmost is the higher: of two equal peaks only the first can stand on
    its own, the other counts by its dip from it. At least 1 per row."""
    rows, n = values.shape
    # a row that never rises after it falls has one maximum, so one peak
    step = values[:, 1:] - values[:, :-1]
    if not (np.logical_or.accumulate(step < 0, axis=1)[:, :-1] & (step[:, 1:] > 0)).any():
        return np.ones(rows, dtype=int)
    y = np.zeros((rows, n + 2))
    y[:, 1:-1] = values
    # [row, i, j]: j lies before i (after it in after), y_i and y_j repeated
    # to that shape (as in _newton); left and right: the search from i
    # reaches value j, not past a value that stops it
    before, after = _BEFORE(n + 2)
    y_j = y[:, None, :].repeat(n + 2, axis=1)
    y_i = y_j.transpose(0, 2, 1).copy()
    left = before & ~np.logical_or.accumulate(((y_j >= y_i) & before)[..., ::-1], axis=2)[..., ::-1]
    right = after & ~np.logical_or.accumulate((y_j > y_i) & after, axis=2)
    # a value that is no peak has nothing on one side: its low is inf
    lows = np.maximum(np.minimum.reduce(y_j, axis=2, where=left, initial=np.inf),
                      np.minimum.reduce(y_j, axis=2, where=right, initial=np.inf))
    floor = np.maximum(1e-9, 1e-2 * e_max)[:, None]
    return np.maximum(np.add.reduce(y - lows >= floor, axis=1), 1)
