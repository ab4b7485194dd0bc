"""Spectral density of entanglement E[omega] and the total entanglement rate.

E[omega] = max(0, -ln(2 eta_minus(omega))) is the log-negativity of the
output mode pair at (omega, -omega); it is double-sided in omega. The rate
Gamma_E = int domega/2pi E[omega] is reported in units of kappa, i.e. nats
of entanglement per 1/kappa of time; Gamma_E kappa, with kappa in 1/s, is
in nats per second.

E from the Gram form. 2 eta_minus and 2 eta_plus are the two roots x of

    x^2 - 2 (n_plus + n_minus) x + 4 q = 0,

and 2 eta_plus = n_plus + n_minus + root >= 1, root = sqrt((n_plus -
n_minus)^2 + 4|xi|^2). In the excesses nu = n - 1/2 and q - 1/4 of a
correlator triple (scattering.correlator_batch, whose q - 1/4 = T / 2D
comes from the Gram form below, in the same pass as nu and xi),
2 eta_minus = 4q / (1 + nu_plus + nu_minus + root), so

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
spectral_density. It rests on the structure below, which
scattering.BeamBlocks.of checks for every single drift.
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
to a-^dag directly (m_+- = 0, which BeamBlocks.of requires of a 3x3
block), so A_+- = m_+b m_b- there, and K is a constant in both models:
K = kappa^2 g^4 / 4 (full) or kappa^2 g^4 / (4 delta^2) (effective). So
E > 0 at every frequency when g > 0 and E = 0 everywhere when g = 0; the
constant K tells the two apart.

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
or that E_max is off the kernel's). Every root of every polynomial here
comes from _roots, one rule per row: at huge n_th the leading coefficient
u^2 D of P_c is ~E_max below the others, and the crossings near the
frequency scale are the large roots of the reversed polynomial.

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

The problem axis. _rates computes the rates of P stable, reciprocal beam
blocks of one model together: a sweep's grid gated by
scattering.BeamBlocks.gate, or one drift gated as a batch of one by
BeamBlocks.of (entanglement_rate), which also checks its structure. It runs
in two stages, each quantity with its own failure. The Gamma_E stage
always runs: one Gauss-Kronrod loop whose panels carry a problem id. The
E-peak stage (E_max, omega_max and the FWHM) runs only for a caller that
asks for one of them, and the peak count only for one that asks for it
(entanglement_rate; a sweep has no such column): it builds the polynomials D, V and K of
every problem (once, for the peaks and the flanks), the peak and crossing
polynomials and their roots (stacked eigen-solves of the companion
matrices), has the quadrature's first kernel pass measure the peaks and
the flank starts too, and polishes the FWHMs, each step batched kernel
passes over all problems. Every decision is taken per problem from that
problem's numbers, and the kernel and the polynomial steps are
elementwise, so a result does not depend on the batch it was computed in:
a sweep's rows equal entanglement_rate bit for bit. A problem whose
polynomials overflow float64 (R has terms in n_th^2 and s^10: from
n_th ~ 2e154 at g = 5, Gamma = 1e-3, or from delta ~ 1e26 there) gets no
candidates from the stacked solve of R's roots, which would reject every
problem with it: its peak quantities fail with a QuadratureError that
names n_th and s, and its Gamma_E stands. A peak without a half-maximum
crossing on one side fails its FWHM alone. Each field comes back as a
float64 array over the batch, NaN where it fails, with its failures by
row. spectrum_peak runs on the same axis, one root solve and one kernel
pass for the whole batch, and returns its peaks so too, failing such a
problem, or one whose peak height overflows, in its own row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .errors import QuadratureError
from .models import DriftMatrix, eigvals
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
#: k, ..., 1, 0 as complex numbers: the powers of t in det(m + t) and A(t)
#: of a k x k block, highest first (complex, so that a power of a complex
#: base takes no cast).
_POWERS = {k: np.arange(k, -1, -1).astype(complex) for k in (2, 3)}
#: [0, i, j]: j < i, and j > i, for n values.
_BEFORE = functools.cache(lambda n: (np.tri(n, k=-1, dtype=bool)[None],
                                     ~np.tri(n, dtype=bool)[None]))
#: Rows of the flattened _derivatives table of D and W = 2V (D, W, D', W',
#: D'', W''): R's first stacked product multiplies W', W, D' by W', W', D'.
_R_FACTORS = np.array([3, 1, 2, 3, 3, 2])
#: Newton steps of the peak polish on the beam polynomials.
_NEWTON_STEPS = 2
#: Longest Newton step of the peak polish, in units of s.
_NEWTON_REACH = 1e-3
#: The step below which a Newton or secant step is not taken, relative.
_EPS4 = 4.0 * np.finfo(float).eps
#: Floor of the one denominator of _gram_density that vanishes (where K = 0).
_TINY = np.finfo(float).tiny
#: The Gamma_E quadrature integrates 2 pi Gamma_E.
_TWO_PI = 2.0 * math.pi


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


def spectral_density_batch(d: DriftMatrix, omegas: np.ndarray,
                           n_th: float = 0.0) -> np.ndarray:
    """E[omega] over a frequency grid from the Gram form (module
    docstring); raises the failures of BeamBlocks.of where d is not stable
    or its beam block lacks the structure the Gram form rests on."""
    blocks = BeamBlocks.of(d, n_th)
    with np.errstate(over="ignore"):    # S^2 of _gram_density at huge n_th: r = 0 is right
        return _gram(blocks, omegas, _gram_density)


def spectrum_and_density(d: DriftMatrix, omegas: np.ndarray, n_th: float = 0.0,
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(optical, mechanical, E) over a frequency grid from one kernel pass:
    scattering.spectrum_parts and spectral_density_batch at once, equal to
    them bit for bit; raises as spectral_density_batch does."""
    blocks = BeamBlocks.of(d, n_th)
    with np.errstate(over="ignore"):    # as in spectral_density_batch
        return _gram(blocks, omegas, lambda *terms: (*_spectrum(*terms), _gram_density(*terms)))


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


#: The fields of the E-peak stage of _rates; Gamma_E and quadrature_error
#: are the quadrature's.
_PEAK_FIELDS = frozenset({"E_max", "omega_max", "fwhm", "secondary_peaks"})


def _resonances(eigenvalues: np.ndarray, widest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(centres, linewidths) of the beam-block resonances, -Im and |Re| of
    its eigenvalues along their last axis, plus omega = 0 with the largest
    decay rate widest as width."""
    centres, widths = np.empty((2, *eigenvalues.shape[:-1], eigenvalues.shape[-1] + 1))
    np.negative(eigenvalues.imag, out=centres[..., :-1])
    centres[..., -1] = 0.0
    np.maximum(np.abs(eigenvalues.real), 1e-12, out=widths[..., :-1])
    widths[..., -1] = widest
    return centres, widths


def _scale(eigenvalues: np.ndarray, widest: np.ndarray) -> np.ndarray:
    """Frequency scale s of the crossing polynomials, one per row of the
    beam-block eigenvalues with its largest decay rate widest:
    max |eig| + max decay."""
    return np.maximum.reduce(np.abs(eigenvalues), axis=-1) + widest


def _panel_omegas(eigenvalues: np.ndarray, widest: np.ndarray) -> np.ndarray:
    """The resonance-graded frequency edges of every problem p, from its
    block eigenvalues (P, k) and its largest decay rate widest[p]: one row
    per problem, unsorted, NaN where a ladder has no rung. Each resonance
    centre (_resonances) gets edges at its linewidth times _GRADING^j
    either side, out to the half-way point to the neighbouring centre, or
    to _OUTER_REACH times (max |centre| + widest[p]) on the outer sides, and
    an edge there. Coincident centres merge: a centre within the linewidth
    of a narrower one (or of an earlier one as narrow) gives way to it.
    Elementwise along the problem axis, so a row does not depend on the
    batch."""
    c, w = _resonances(eigenvalues, widest)
    outer = _OUTER_REACH * (np.maximum.reduce(np.abs(c), axis=1) + widest)
    m = c.shape[1]
    # [p, i, j]: centre j ranks below centre i by width, then by place (it
    # is narrower, or as narrow and earlier), and lies within its own
    # linewidth of centre i
    rank = w.argsort(axis=1, kind="stable").argsort(axis=1)
    merged = rank[:, None, :] < rank[:, :, None]
    merged &= np.abs(c[:, None, :] - c[:, :, None]) <= w[:, None, :]
    c[np.logical_or.reduce(merged, axis=2)] = np.nan
    # signed by the side, [p, side, i]: each centre, the nearest remaining
    # centre on that side, and the half-way point to it (the same float from
    # both centres) or, with none, the outer reach
    sc = _SIDES[:, None] * c[:, None, :]
    sc_j = sc[:, :, None, :].repeat(m, axis=2)
    ahead = np.minimum.reduce(sc_j, axis=3, where=sc_j > sc[..., None], initial=np.inf)
    limit = np.minimum(0.5 * (sc + ahead), sc + outer[:, None, None])
    reach = np.maximum.reduce(outer, axis=None) / np.minimum.reduce(w, axis=None)
    rungs = w[:, None, :, None] * _RUNGS[:2 + int(math.log(reach, _GRADING))]
    # each side's ladder, then its limit, NaN where a rung is beyond it
    omega = np.empty((*sc.shape, rungs.shape[-1] + 1))
    omega.fill(np.nan)
    np.add(sc[..., None], rungs, out=omega[..., :-1], where=rungs < (limit - sc)[..., None])
    omega[..., -1] = limit
    omega *= _SIDES[:, None, None]
    return omega.reshape(len(c), -1)


def _panel_edges(eigenvalues: np.ndarray, widest: np.ndarray) -> np.ndarray:
    """Starting Gauss-Kronrod edges of Gamma_E in theta = arctan(omega /
    widest[p]): the edges of _panel_omegas, one row per problem, ascending
    from -pi/2 to pi/2 and NaN-padded at the end (repeated edges make no
    panel in quadutil.adaptive_gk_batch)."""
    omega = _panel_omegas(eigenvalues, widest)
    edges = np.empty((len(omega), omega.shape[1] + 2))
    edges[:, :2] = -0.5 * math.pi, 0.5 * math.pi
    # + 0.0 makes -0.0 a 0.0: equal edges of two signs sort in either order
    np.arctan(omega / widest[:, None] + 0.0, out=edges[:, 2:])
    edges.sort(axis=1)
    return edges


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
    p = (1j * s[:, None]) ** _POWERS[k]
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
    # [power][polynomial, p, candidate], repeated to y's shape: an operation
    # on arrays of one shape takes less time than a broadcast one (and a
    # list of the powers less than iterating over an array's rows each step)
    head, *middle, last = table.reshape(-1, *table.shape[2:]).transpose(2, 0, 1)[..., None].repeat(
        y.shape[1], axis=3)
    y, at = y.copy(), np.empty(head.shape)
    for i in range(_NEWTON_STEPS):
        at[...] = y
        values = head * at
        for c in middle:
            values += c
            values *= at
        values += last
        dy, aux = step(values)
        size = np.abs(dy)
        taken = size <= _NEWTON_REACH
        taken &= size > _EPS4 * np.abs(y)
        if i:
            taken &= active
        active = taken
        # a last step with none taken leaves y as it is
        if i + 1 < _NEWTON_STEPS and not np.count_nonzero(active):
            break
        np.subtract(y, dy, out=y, where=active)
    return y, aux


#: The subdiagonal of ones of an n x n companion matrix, as a stack of one.
_SUBDIAGONAL = functools.cache(lambda n: np.eye(n, k=-1)[None])


def _roots(p: np.ndarray) -> np.ndarray:
    """Complex roots of the polynomial of every row of p (n + 1 coefficients,
    highest power first), n per row, by one rule per row. Exact zeros at the
    end of a row are roots at exactly 0; exact zeros at its start are a lower
    degree, with NaN in place of the missing roots. The nonzero core between
    them is solved as it stands, or reversed, as core(1/y) y^degree, where its
    leading coefficient is at most _EPS4 times its largest and no larger than
    its last, and the roots inverted: the companion eigen-solve is backward
    stable relative to the size of the whole companion (Edelman & Murakami,
    Math. Comp. 1995), so it loses the roots far below the largest, which
    are the large roots of the reversed core. A root that the solve of the
    core as it stands returns as 0 is one below its resolution and stays 0;
    one that the reversed solve returns as 0 (or too small to invert) lies
    beyond float64 and is NaN. Every row goes through one stacked eigen-solve of n x n companion
    matrices (the matrix np.roots builds), so a row's roots do not depend on
    its batch. A row whose companion is not finite (its coefficients
    overflowed) gets NaN roots."""
    n = p.shape[1] - 1
    size = np.abs(p)
    top = np.maximum.reduce(size, axis=1)
    companion = _SUBDIAGONAL(n).repeat(len(p), axis=0)
    # a row whose first coefficient is above _EPS4 times its largest has no
    # exact zero at its start and does not flip: it is solved as it stands
    q, odd = p, not np.logical_and.reduce(size[:, 0] > _EPS4 * top)
    if odd:
        # the exact zeros at either end (none on a row of zeros, which flips)
        zero = size == 0
        lead, tail = zero.argmin(axis=1), zero[:, ::-1].argmin(axis=1)
        # the first and last coefficients of the core
        first, last = size.take(np.arange(0, size.size, n + 1) + [[0], [n]] + [lead, -tail])
        flip = (first <= _EPS4 * top) & (first <= last)
        # the core, reversed where it flips, then zeros (none on a row that
        # is not finite); the last lead rows of the companion are a zero
        # block of their own, which the solve isolates without touching the
        # rest
        i = np.arange(n + 1)
        at = np.where(flip[:, None], (n - tail)[:, None] - i, lead[:, None] + i)
        q = np.where(i <= np.where(top < np.inf, n - lead - tail, -1)[:, None],
                     np.take_along_axis(p, np.clip(at, 0, n), axis=1), 0.0)
        companion[:, i[1:-1], i[:-2]] = i[1:-1] < (n - lead)[:, None]
    # a row without a core gets a NaN companion (0 / 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(q[:, 1:], -q[:, :1], out=companion[:, 0])
        roots = eigvals(companion)
        if odd:
            # the zeros of the core's padding are missing roots, and so are
            # those of the reversed solve: a row solved as it stands keeps its
            # other zeros (roots the solve cannot tell from 0), a reversed one
            # as many as it ends with
            at_zero = roots == 0
            count = np.add.accumulate(at_zero, axis=1)
            at_zero &= count > np.where(flip, tail, count[:, -1] - lead)[:, None]
            roots[at_zero] = np.nan
            np.divide(1.0, roots, out=roots, where=flip[:, None] & (roots != 0))
            roots[np.isinf(roots)] = np.nan
    return roots


def _candidates(p: np.ndarray) -> np.ndarray:
    """The real parts of the roots of every row of p (_roots) as peak
    candidates, a missing root in a row replaced by the row's largest
    candidate (a repeated candidate adds no peak and changes no count); NaN
    on a row without any."""
    y = _roots(p).real
    np.copyto(y, np.fmax.reduce(y, axis=1)[:, None], where=np.isnan(y))
    return y


def _crossings(polys: tuple[np.ndarray, ...], s: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Frequencies where E = levels[p] > 0 for each problem p, i.e.
    2 eta_minus = c = e^-level: the real roots of P_c (module docstring)
    built from the problems' _beam_polynomials, unpolished; NaN in place of
    a complex or missing root (_roots). u^2 D falls with the level, so at
    huge n_th the crossings near the frequency scale are the large roots of
    the reversed P_c(1/y) y^(2k), as _roots finds them."""
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
    # [p, centre, root]
    r, c = roots[:, None, :].repeat(centres.shape[1], axis=1), centres[..., None]
    x = np.empty((*centres.shape, 1, 2))
    np.fmax.reduce(r, axis=2, where=r < c, initial=np.nan, out=x[..., 0, 0])
    np.fmin.reduce(r, axis=2, where=r > c, initial=np.nan, out=x[..., 0, 1])
    return x + _SECANT_STARTS * (np.abs(x) + 1.0)


def _fwhms(blocks: BeamBlocks, s: np.ndarray, polys: tuple[np.ndarray, ...],
           omega_max: np.ndarray, e_max: np.ndarray, starts: tuple[np.ndarray, np.ndarray],
           ) -> np.ndarray:
    """Half-maximum width of the dominant peak of each problem (e_max > 0):
    the distance between the crossings of E = e_max / 2 nearest omega_max
    on either side, each polished by batched secant steps on the kernel
    (the point with the smallest |E - e_max / 2| seen is kept), from the
    starts [p, point, side] and E there of _stationary, or where those are
    NaN afresh. A problem with no crossing on one side gets a NaN width."""
    half = 0.5 * e_max
    x, e = starts
    fresh = np.isnan(x[:, 0, 0]).nonzero()[0]
    if fresh.size:
        x[fresh] = _secant_starts(_crossings(tuple(p[fresh] for p in polys[:3]), s[fresh],
                                             half[fresh]), omega_max[fresh, None])[:, 0]
        fresh = fresh[~np.isnan(x[fresh]).any(axis=(1, 2))]
        e[fresh] = _density(blocks, x[fresh].ravel(), np.repeat(fresh, 4)).reshape(-1, 2, 2)
    # a start is NaN on both points or neither: NaN where a side has no crossing
    idx = (~np.isnan(x[:, 0, 0] - x[:, 0, 1])).nonzero()[0]
    x, f = x.take(idx, axis=0), e.take(idx, axis=0) - half.take(idx)[:, None, None]
    (x0, x1), (f0, f1) = x.transpose(1, 0, 2), f.transpose(1, 0, 2)
    best, f_best = x1.copy(), np.abs(f1)
    # a problem that stops keeps its state, so it stops again
    for _ in range(_POLISH_STEPS):
        slope = f1 - f0
        step = np.divide(f1 * (x1 - x0), slope, out=np.zeros(slope.shape), where=slope != 0)
        still = np.abs(step) <= _EPS4 * np.abs(x1)
        moving = (~(still[:, 0] & still[:, 1])).nonzero()[0]
        if not moving.size:
            break
        if moving.size == idx.size:
            moving = slice(None)
        x0[moving], f0[moving] = x1[moving], f1[moving]
        x1[moving] -= step[moving]
        pid = idx[moving].repeat(2)
        f1[moving] = (_density(blocks, x1[moving].ravel(), pid) - half.take(pid)).reshape(-1, 2)
        size = np.abs(f1)
        better = size < f_best
        np.copyto(best, x1, where=better)
        np.copyto(f_best, size, where=better)
    widths = np.full(omega_max.size, np.nan)
    widths[idx] = best[:, 1] - best[:, 0]
    return widths


def _peak(s: np.ndarray, y: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(omega, f) of the best of the candidates y[p, :] (in units of s[p])
    of each problem, from f[p] = (f at the candidates, f at their mirrors
    -omega): the largest f, and of two mirror peaks equal to 4 ulp the one
    at omega >= 0."""
    rows, n = np.arange(s.size), y.shape[1]
    best = f[:, :n].argmax(axis=1)
    omega, top, mirror = s * y[rows, best], f[rows, best], f[rows, best + n]
    tie = (omega < 0) & (mirror >= top - 4.0 * np.spacing(top))
    return np.where(tie, -omega, omega), np.where(tie, mirror, top)


def _stationary(blocks: BeamBlocks, s: np.ndarray):
    """The _beam_polynomials of each problem (K > 0, module docstring) in
    units of s, and its peaks around a kernel pass that the caller makes at
    w: the real parts of the roots of R, the same after Newton steps on the
    polynomials and mirrored, and the starts of _fwhms at the crossings of
    P_c for half the polynomials' E_max around their omega_max or its
    mirror; peaks(E at w) gives E at the first sorted by omega,
    (omega_max, E_max) of the best of the second, and the starts that hold
    the kernel's omega_max, with E there."""
    k = blocks.k
    # the floating-point errors of the steps not taken, and of a problem
    # whose polynomials overflow (NaN candidates, _roots), are ignored
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        polys = _beam_polynomials(blocks, s)
        d, v, k_pair = polys[:3]
        # D, W = 2V and their first two derivatives: R's and the Newton steps'
        table = _derivatives([d, 2.0 * v])
        if k == 2:
            # V is a constant, so R = -K D'^2 has the roots of D', each twice
            y0 = _candidates(table[1, 0, :, 1:])
        else:
            # R = W'^2 D - W W' D' - K D'^2 (4 V'^2 D - 4 V V' D' exactly) from two
            # stacked products; V has degree 2k - 4, so R has 4k - 2: the leading
            # zeros go
            flat = table.reshape(-1, *table.shape[2:])     # D, W, D', W', D'', W''
            pairs = flat.take(_R_FACTORS, axis=0)
            first = _polymul(pairs[:3], pairs[3:])         # W'^2, W W', D'^2
            r = _polymul(first[:2], flat[:3:2])[..., -(4 * k - 1):]
            r[0] -= r[1]
            r[0] -= k_pair[:, None] * first[2, :, -(4 * k - 1):]
            y0 = _candidates(r[0])
        n = y0.shape[1]
        k2 = (2.0 * k_pair[:, None]).repeat(n, axis=1)
        k4 = k2 + k2

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

        y, u = _newton(table, y0, step)
        # flat place of each problem's best candidate by the polynomials
        guess = np.arange(0, y.size, n) + u.argmax(axis=1)
        e_guess = -np.log1p(-u.take(guess))
    # where u rounds to 1 the polynomials cannot tell E_max: any level serves
    levels = np.where(np.isfinite(e_guess), 0.5 * e_guess, 1.0)
    x = _secant_starts(_crossings(polys, s, levels), (s * y.take(guess))[:, None] * _SIDES)
    # the candidates sorted by omega, the polished ones, their mirrors and
    # the flank starts; a point in the pass must be finite: 0 stands in for
    # a missing crossing, and for every point of a problem whose polynomials
    # overflow (its omega_max is NaN)
    sy = s[:, None] * y
    w = np.concatenate([s[:, None] * np.sort(y0, axis=1), sy, -sy, x.reshape(s.size, -1)], axis=1)
    w[np.isnan(w)] = 0.0
    # the starts as [p * centre, point, side], and the first centre of each p
    starts_of, first = x.reshape(-1, 2, 2), np.arange(0, 2 * s.size, 2)

    def peaks(e: np.ndarray):
        omega_max, e_max = _peak(s, y, e[:, n:3 * n])
        # the starts around omega_max, if it lies between them and their
        # level is half the kernel's E_max to _LEVEL_TOL
        inside = (x[:, :, 1, 0] < omega_max[:, None]) & (omega_max[:, None] < x[:, :, 1, 1])
        c = first + inside.argmax(axis=1)
        starts = starts_of.take(c, axis=0)
        e_starts = e[:, 3 * n:].reshape(starts_of.shape).take(c, axis=0)
        keep = inside.take(c)
        keep &= np.abs(e_guess - e_max) <= _LEVEL_TOL * e_max
        starts[~keep] = np.nan
        return e[:, :n], omega_max, e_max, (starts, e_starts)

    return polys, w, peaks


# the benchmark tracer wraps these names; the peaks and the flanks are
# polynomial roots now
_fwhm_by_bisection = _fwhms
_positive_intervals = minimize_scalar = _stationary


def spectrum_peak(blocks: BeamBlocks) -> tuple[np.ndarray, np.ndarray, dict[int, QuadratureError]]:
    """(omega, height) of the maximum of the beam-1 output spectrum
    nu_plus = N / D (module docstring) of each block: the best real root of
    N' D - N D' after Newton steps on the polynomials, measured on the
    kernel in one pass with the mirrors; (0, 0) where the spectrum vanishes
    (g = 0). N has degree 2k - 4, or 0 without the thermal input, so
    N' D - N D' has degree 4k - 5 at most, and its exact leading zeros are a
    lower degree to _roots: every row goes through one root solve, one
    Newton polish and one kernel pass, each elementwise along the problem
    axis, so a row does not depend on the batch. A problem whose polynomials
    overflow float64 has no candidates (_roots), and one whose height does
    (n_th ~ 1e304 at g = 5, Gamma = 1e-3) is not finite: either gets NaN and
    its QuadratureError in the failures by row, the third item."""
    s = _scale(blocks.eigenvalues, np.maximum.reduce(blocks.decay, axis=1))

    def step(values):
        # Newton on N' D - N D', whose derivative is N'' D - N D''
        ny, dy, ny1, dy1, ny2, dy2 = values
        return (ny1 * dy - ny * dy1) / (ny2 * dy - ny * dy2), None

    # an overflow gives NaN candidates below, so its floating-point errors
    # are ignored, as are those of the Newton steps not taken
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dp, _, _, n = _beam_polynomials(blocks, s)
        table = _derivatives([n, dp])
        r = _polymul(table[1, 0], table[0, 1]) - _polymul(table[0, 0], table[1, 1])
        y, _ = _newton(table, _candidates(r[:, 4 - 4 * blocks.k:]), step)
    omega, height = np.zeros(len(blocks)), np.zeros(len(blocks))
    idx = np.isfinite(y[:, 0]).nonzero()[0]
    if idx.size:
        w = s[idx, None] * y[idx]
        with np.errstate(over="ignore"):    # a height beyond float64 fails its row below
            f = _gram(blocks, np.concatenate([w, -w], axis=1).ravel(),
                      lambda *g: np.add(*_spectrum(*g)), idx.repeat(2 * y.shape[1]))
        omega[idx], height[idx] = _peak(s[idx], y[idx], f.reshape(idx.size, -1))
    # a row without candidates vanishes (N = 0) or its polynomials overflow
    unsolved = np.isnan(y[:, 0]) & np.logical_or.reduce(r != 0, axis=1)
    failed = (unsolved | ~np.isfinite(height)).nonzero()[0]
    omega[failed] = height[failed] = np.nan
    return omega, height, {p: _overflow("the polynomials of the spectrum overflow" if unsolved[p]
                                        else "the spectrum peak overflows", blocks.n_th[p], s[p])
                           for p in failed.tolist()}


def _overflow(what: str, n_th: float, s: float) -> QuadratureError:
    """The failure of a problem where what, a subject and its verb ("the
    polynomials of E overflow"), passes float64."""
    return QuadratureError(f"{what} float64 at n_th={n_th:g} and frequency scale s={s:g}")


def _rates(blocks: BeamBlocks, tol: float, names: Collection[str],
           ) -> tuple[dict[str, np.ndarray], dict[str, dict[int, QuadratureError]]]:
    """The RateResult fields of each stable, reciprocal block of the batch
    (module docstring), each with its own failure: (values, failures) by
    field in RateResult's order, a float64 array over the batch, NaN where
    the field fails, and the QuadratureError of the stage that gives it by
    row. Gamma_E and quadrature_error come from the quadrature, which always
    runs; E_max, omega_max and the FWHM from the E-peak stage, only where
    names (fields or sweep quantities) holds one of _PEAK_FIELDS; the peak
    count only where names holds secondary_peaks."""
    peaks = not _PEAK_FIELDS.isdisjoint(names)
    # the quadrature's fields, the E-peak stage's but the count where names
    # asks for one of them, and the count where it asks for the count
    values = {f: np.zeros(len(blocks)) for f in RateResult.__match_args__
              if f in names or f not in _PEAK_FIELDS or peaks and f != "secondary_peaks"}
    failures: dict[str, dict[int, QuadratureError]] = {f: {} for f in values}
    widest = np.maximum.reduce(blocks.decay, axis=1)
    # E > 0 on the whole line where K > 0, E = 0 everywhere where K = 0
    pos = (blocks.gram_table[1][0] > 0).nonzero()[0]
    if not pos.size:
        return values, failures
    if pos.size < len(blocks):
        blocks, widest = blocks.take(pos), widest[pos]
    # the points that the first kernel pass measures for the E-peak stage
    w = np.empty((pos.size, 0))
    if peaks:
        s = _scale(blocks.eigenvalues, widest)
        polys, w, peaks_at = _stationary(blocks, s)

    # E has all its structure at the resonances, so panels that start
    # there only need polishing; half of tol * 2 pi is the budget
    edges = _panel_edges(blocks.eigenvalues, widest)
    at_w = []

    def integrand(theta: np.ndarray, pid: np.ndarray) -> np.ndarray:
        t, sc = np.tan(theta), widest.take(pid)
        if at_w:
            return _density(blocks, sc * t, pid) * (sc * (1.0 + t * t))
        # the first call, on the quadrature's first start nodes (all of them
        # for up to quadutil._PANELS_PER_CALL panels), measures w in its pass
        e = _density(blocks, np.concatenate([sc * t, w.ravel()]),
                     np.concatenate([pid, np.arange(pos.size).repeat(w.shape[1])]))
        at_w.append(e[t.size:].reshape(w.shape))
        return e[:t.size] * (sc * (1.0 + t * t))

    with np.errstate(over="ignore"):    # as in spectral_density_batch
        totals, errors, gk_failures = adaptive_gk_batch(integrand, edges,
                                                        np.full(pos.size, math.pi * tol))
    # NaN where the quadrature fails
    values["gamma_E"][pos], values["quadrature_error"][pos] = totals / _TWO_PI, errors / _TWO_PI
    rows = pos.tolist()
    # one failure of the quadrature fails both of its fields
    failures["gamma_E"] = failures["quadrature_error"] = {
        p: QuadratureError(f.reason, f.value / _TWO_PI, f.error_estimate / _TWO_PI)
        for p, f in zip(rows, gk_failures) if f}
    if not peaks:
        return values, failures
    at, omega_max, e_max, starts = peaks_at(at_w[0])
    # a problem whose polynomials overflow has no peak candidates (_roots),
    # so no omega_max: a NaN E_max keeps it out of the flanks and the count
    overflow = np.isnan(omega_max)
    e_max[overflow] = np.nan
    peak = {"E_max": e_max, "omega_max": omega_max,
            "fwhm": _fwhms(blocks, s, polys, omega_max, e_max, starts)}
    if "secondary_peaks" in values:
        peak["secondary_peaks"] = _count_local_maxima(at, e_max) - 1.0
    failed = {rows[j]: _overflow("the polynomials of E overflow", blocks.n_th[j], s[j])
              for j in overflow.nonzero()[0].tolist()}
    for f, v in peak.items():
        v[overflow] = np.nan
        values[f][pos] = v
        failures[f].update(failed)
    for j in (np.isnan(peak["fwhm"]) & ~overflow).nonzero()[0].tolist():
        failures["fwhm"][rows[j]] = QuadratureError(
            f"no half-maximum crossing on one side of omega_max={omega_max[j].item()}")
    return values, failures


def entanglement_rate(d: DriftMatrix, n_th: float = 0.0, tol: float = 1e-6) -> RateResult:
    """Gamma_E = int domega/2pi E[omega] over the whole line by adaptive
    quadrature in theta (module docstring) to absolute tolerance tol (in
    kappa units), plus E_max, its location, and the FWHM of the dominant
    peak: _rates of d's block gated as a batch of one. Raises, in this
    order, the ValueError of a bad tol, the failures of BeamBlocks.of and
    the first QuadratureError of its fields (Gamma_E's first)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol}")
    values, failures = _rates(BeamBlocks.of(d, n_th), tol, _PEAK_FIELDS)
    for failed in filter(None, failures.values()):
        raise failed[0]
    *floats, count = (v.item() for v in values.values())
    return RateResult(*floats, int(count))


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
    rises = step[:, 1:] > 0
    rises &= np.logical_or.accumulate(step[:, :-1] < 0, axis=1)
    if not np.count_nonzero(rises):
        return np.ones(rows, dtype=int)
    y = np.zeros((rows, n + 2))
    y[:, 1:-1] = values
    # [row, i, j]: j lies before i (after it in after), y_i and y_j repeated
    # to that shape (as in _newton); left and right: the search from i
    # reaches value j, not past a value that stops it (a > b: a and not b)
    before, after = _BEFORE(n + 2)
    y_j = y[:, None, :].repeat(n + 2, axis=1)
    y_i = y[:, :, None].repeat(n + 2, axis=2)
    left = before > np.logical_or.accumulate(((y_j >= y_i) & before)[..., ::-1], axis=2)[..., ::-1]
    right = after > np.logical_or.accumulate((y_j > y_i) & after, axis=2)
    # a value that is no peak has nothing on one side: its low is inf
    lows = np.maximum(np.minimum.reduce(y_j, axis=2, where=left, initial=np.inf),
                      np.minimum.reduce(y_j, axis=2, where=right, initial=np.inf))
    floor = np.maximum(1e-9, 1e-2 * e_max)[:, None]
    return np.maximum(np.add.reduce(y - lows >= floor, axis=1), 1)
