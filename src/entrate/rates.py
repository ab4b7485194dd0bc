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
steps on the kernel.

Peaks as polynomial roots. u = 1 - e^-E solves P_u = 0 at every y and
rises with E, so E is stationary where u' = -(u^2 D' + 2 u V') / (2 (u D
+ V)) vanishes, i.e. at u = -2 V' / D'. Putting that u back into P_u = 0
gives every stationary point of E among the real roots of

    R = 4 V'^2 D - 4 V V' D' - K D'^2,

of degree 4k - 2: 10 (full model; the terms with V reach degree 8) or 6
(effective model, where V is a constant and R = -K D'^2). R also vanishes
where 2 eta_plus, the other root of P_u, is stationary. The real part of
every root is a candidate, and E is evaluated there. E > 0 falls to 0 at
both ends of the line and is monotonic between its stationary points, so
among the candidates sorted by omega, with E = 0 at both ends, every
local maximum of E is a candidate and a candidate that is no stationary
point of E is no strict local maximum: the peak count runs on that list,
less each candidate within 4 ulp of the one before it (two roots on one
flat top). E_max is the best candidate after Newton steps on u', each one
batched kernel pass for u and the polynomials for u' and u''. A step
longer than a thousandth of s is not taken: it starts from a candidate
that is no stationary point of E. Newton steps may carry such a candidate
onto a peak, which is why the count uses the candidates as found. Of two
mirror peaks equal to 4 ulp, omega_max is the one at omega >= 0. The
beam-1 output spectrum nu_plus = N / D,
N = kappa_+ kappa_- |A_+-|^2 + n_th kappa_+ gamma |A_+b|^2, peaks at a real
root of N' D - N D', found and polished the same way.

The integral. Gamma_E is integrated over the whole frequency line on one
compact angle: omega = s' tan(theta) with s' = max(decay) maps the line
onto (-pi/2, pi/2), and the integrand E(s' tan theta) s' / cos^2(theta)
stays bounded at the ends because E falls off like |omega|^-3 (full model)
or |omega|^-2 (effective model). The Gauss-Kronrod panels start at the
beam-block resonances (omega = -Im of its k eigenvalues; the conjugates
of the partner block resonate in S at -omega, never at +omega) and at +-1
and +-5 linewidths around each.

The problem axis. _rates computes the rates of P stable beam blocks of one
model (scattering.BeamBlocks with their eigenvalues: entanglement_rates
gates its drifts onto it, a sweep calls it on the blocks of its grid)
together: the polynomials D, V and K of every problem (computed
once, for the peaks and the flanks), the peak and crossing polynomials
and their roots (stacked eigen-solves of the companion matrices), one
Gauss-Kronrod loop whose panels carry a problem id, one peak polish and
one FWHM polish, each step batched kernel passes over all problems. Every
decision is taken per problem from that problem's numbers, and the kernel
is elementwise, so a result does not depend on the batch it was computed
in: entanglement_rate is the call with P = 1, and a sweep's rows equal it
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import QuadratureError, UnstableSystemError
from .models import PAIRING_DEFECT_TOL, DriftMatrix, StabilityReport, stability
from .quadutil import adaptive_gk_batch
# unused here, but the benchmark tracer wraps these names in rates
from .quadutil import adaptive_gk_batch as adaptive_gk, bisect_all  # noqa: F401
from .scattering import BeamBlocks, _gram, _require_stable, _spectrum
# unused here, but the benchmark tracer wraps it in rates
from .scattering import correlator_batch  # noqa: F401

#: Grid points around each resonance of frequency_grid, in linewidths.
_GRID_OFFSETS = np.array([0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0,
                          5.0, -5.0, 10.0, -10.0, 25.0, -25.0, 50.0, -50.0,
                          100.0, -100.0])
#: Gauss-Kronrod panel edges around each resonance, in linewidths.
_SEED_OFFSETS = np.array([0.0, 1.0, -1.0, 5.0, -5.0])
#: Batched secant steps that polish the FWHM flanks on the kernel, and
#: kernel passes of the Newton polish of the stationary points.
_POLISH_STEPS = 3
#: Longest Newton step of the stationary-point polish, in units of s.
_NEWTON_REACH = 1e-3
#: Sign pattern J of the reciprocity m^T = J m J of the beam block.
_RECIPROCITY_SIGNS = np.array([1.0, -1.0, 1.0])
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
    """The beam block of d as a batch of one, after _require_reciprocal."""
    _require_reciprocal(d.beam_block[0])
    return BeamBlocks.of([d], [n_th])


def spectral_density_batch(d: DriftMatrix, omegas: np.ndarray,
                           n_th: float = 0.0) -> np.ndarray:
    """E[omega] over a frequency grid from the Gram form (module
    docstring); raises ValueError when the beam block is not reciprocal,
    no stability check."""
    return _gram(_reciprocal_blocks(d, n_th), omegas, _gram_density)


def spectrum_and_density(d: DriftMatrix, omegas: np.ndarray, n_th: float = 0.0,
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(optical, mechanical, E) over a frequency grid from one kernel pass:
    scattering.spectrum_parts and spectral_density_batch at once, equal to
    them bit for bit; raises ValueError when the beam block is not
    reciprocal, no stability check."""
    return _gram(_reciprocal_blocks(d, n_th), omegas,
                 lambda *terms: (*_spectrum(*terms), _gram_density(*terms)))


def spectral_density(d: DriftMatrix, omega: float, n_th: float = 0.0) -> float:
    """Spectral density of entanglement at one frequency."""
    _require_stable(d)
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


def _resonances(eigenvalues: np.ndarray, decay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(centres, linewidths) of the beam-block resonances, -Im and |Re| of
    its eigenvalues, plus omega = 0 with the largest decay rate as width."""
    return (np.concatenate([-eigenvalues.imag, [0.0]]),
            np.concatenate([np.maximum(np.abs(eigenvalues.real), 1e-12), [np.max(decay)]]))


def _scale(eigenvalues: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """Frequency scale s of the crossing polynomials, one per row of the
    beam-block eigenvalues and decays: max |eig| + max decay."""
    return np.max(np.abs(eigenvalues), axis=-1) + np.max(decay, axis=-1)


def _around(centers: np.ndarray, widths: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each centre plus its width times every offset."""
    return (centers[:, None] + widths[:, None] * offsets).ravel()


def frequency_grid(d: DriftMatrix, eigenvalues: np.ndarray | None = None) -> np.ndarray:
    """Sorted frequency grid seeded at the beam-block resonances:
    per-resonance offsets scaled by the local linewidth plus a coarse
    global grid. It seeds the panels of the filter averages of wannier;
    the rate path needs no grid (its peaks and flanks are polynomial
    roots). eigenvalues, the beam-block eigenvalues of d when already
    known (StabilityReport.eigenvalues), saves the eigen-solve."""
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvals(d.beam_block[0])
    centers, widths = _resonances(eigenvalues, d.decay)
    span = float(np.max(np.abs(centers)) + 20.0 * np.max(d.decay) + 1.0)
    out = _sorted_unique(np.concatenate([np.linspace(-span, span, 241),
                                         _around(centers, widths, _GRID_OFFSETS)]))
    out = out[(out >= -span) & (out <= span)]
    # a point within round-off of its neighbour would make an empty panel
    return out[np.r_[True, np.diff(out) > 1e-12 * span]]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of a 1-d float array without NaN; np.unique would import
    numpy.ma on its first call."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _require_reciprocal(m: np.ndarray) -> None:
    """Raise ValueError unless the beam block obeys m^T = J m J, which the
    whole-line E > 0 region and the crossing polynomial rest on."""
    j = _RECIPROCITY_SIGNS[:m.shape[0]]
    if np.max(np.abs(m.T - np.outer(j, j) * m)) > PAIRING_DEFECT_TOL * max(
            1.0, float(np.max(np.abs(m)))):
        raise ValueError("beam block is not reciprocal (m^T != J m J, "
                         f"J = diag{tuple(j)})")


def _poly_abs2(p: np.ndarray) -> np.ndarray:
    """Coefficients of |p(y)|^2 for real y, for every polynomial along the
    last axis of p (highest power first): the anti-diagonal sums of the
    outer product of p with its conjugate."""
    n = p.shape[-1]
    i, j = np.divmod(np.arange(n * n), n)
    order = np.argsort(i + j, kind="stable")
    prod = (p[..., :, None] * p[..., None, :].conj()).real.reshape(*p.shape[:-1], n * n)
    return np.add.reduceat(prod[..., order], np.searchsorted((i + j)[order],
                                                             np.arange(2 * n - 1)), axis=-1)


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
    # zero), all squared at once
    powers = (1j * s[:, None]) ** np.arange(k, -1, -1)
    sq = _poly_abs2(powers[:, None] * coef.transpose(2, 1, 0))
    k_pair = weights[0]
    v = np.zeros((s.size, 2 * k - 1))
    v[:, -1] = 0.5 * k_pair
    n_plus = 0.5 * v
    if k == 3:
        mechanical = weights[1][:, None] * sq[:, 1, 2:]  # |A_+b|^2, degree 2k - 2
        v += mechanical + weights[2][:, None] * sq[:, 2, 2:]
        n_plus += mechanical
    return sq[:, 0], v, k_pair, n_plus


def _polyder(p: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative of every polynomial along the last axis."""
    return p[..., :-1] * np.arange(p.shape[-1] - 1, 0, -1)


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the products of the polynomials of a and b, row by row."""
    out = np.zeros((*a.shape[:-1], a.shape[-1] + b.shape[-1] - 1))
    for j in range(b.shape[-1]):
        out[..., j:j + a.shape[-1]] += a * b[..., j:j + 1]
    return out


def _polyval(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The polynomial of row p[i] at every y[i, :], by Horner's rule."""
    out = np.zeros(y.shape)
    for c in p.T:
        out = out * y + c[:, None]
    return out


def _roots(p: np.ndarray) -> np.ndarray:
    """Complex roots of the polynomial of every row of p (nonzero leading
    coefficient), from one stacked eigen-solve of the companion matrices
    (the matrix np.roots builds)."""
    n = p.shape[1] - 1
    companion = np.zeros((len(p), n, n))
    companion[:, 0] = -p[:, 1:] / p[:, :1]
    companion[:, 1:, :-1] = np.eye(n - 1)
    return np.linalg.eigvals(companion)


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
    real = roots.imag ** 2 <= 1e-16 * (roots.real ** 2 + roots.imag ** 2)
    return np.where(real, s[:, None] * roots.real, np.nan)


def _fwhms(blocks: BeamBlocks, s: np.ndarray, polys: tuple[np.ndarray, ...],
           omega_max: np.ndarray, e_max: np.ndarray,
           ) -> tuple[np.ndarray, list[QuadratureError | None]]:
    """Half-maximum width of the dominant peak of each problem (e_max > 0):
    the distance between the crossings of E = e_max / 2 nearest omega_max
    on either side, each polished by batched secant steps on the kernel
    (the point with the smallest |E - e_max / 2| seen is kept). A problem
    with no crossing on one side gets a QuadratureError and a NaN width."""
    half = 0.5 * e_max
    roots = _crossings(polys, s, half)
    left = np.max(np.where(roots < omega_max[:, None], roots, -np.inf), axis=1)
    right = np.min(np.where(roots > omega_max[:, None], roots, np.inf), axis=1)
    found = np.isfinite(left) & np.isfinite(right)
    failures = [None if ok else QuadratureError(
        f"no half-maximum crossing on one side of omega_max={w}")
        for ok, w in zip(found, omega_max)]
    widths = np.full(len(e_max), np.nan)
    idx = np.flatnonzero(found)

    def offset(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # E - half at the flanks x (n, 2) of the problems idx[rows]
        pid = np.repeat(idx[rows], 2)
        return (_density(blocks, x.ravel(), pid) - half[pid]).reshape(x.shape)

    x1 = np.stack([left[idx], right[idx]], axis=1)
    x0 = x1 + 1e-8 * (np.abs(x1) + 1.0)
    f0, f1 = np.split(offset(np.concatenate([x0, x1]),
                             np.tile(np.arange(idx.size), 2)), 2)
    best, f_best = x1.copy(), np.abs(f1)
    active = np.arange(idx.size)
    for _ in range(_POLISH_STEPS):
        slope = f1[active] - f0[active]
        step = np.divide(f1[active] * (x1[active] - x0[active]), slope,
                         out=np.zeros(slope.shape), where=slope != 0)
        moving = ~np.all(np.abs(step) <= 4.0 * np.finfo(float).eps * np.abs(x1[active]),
                         axis=1)
        active, step = active[moving], step[moving]
        if not active.size:
            break
        x0[active], f0[active] = x1[active], f1[active]
        x1[active] -= step
        f1[active] = offset(x1[active], active)
        better = np.abs(f1[active]) < f_best[active]
        best[active] = np.where(better, x1[active], best[active])
        f_best[active] = np.where(better, np.abs(f1[active]), f_best[active])
    widths[idx] = best[:, 1] - best[:, 0]
    return widths, failures


def _polish(value, s: np.ndarray, y: np.ndarray, newton_step,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates y[p, j] (in units of s[p]) for the stationary points of
    f = value(omega, pid) of problem p: f at all of them, sorted by omega
    per problem, and (omega, f) of the best of each problem after Newton
    steps, in at most _POLISH_STEPS kernel passes in all; of two
    mirror peaks equal to 4 ulp, the one at omega >= 0 (one more pass).
    newton_step(f, y) is the Newton step towards the stationary point of
    each candidate. A step that is not finite or longer than _NEWTON_REACH
    is not taken, and a candidate stops once its step is below 4 ulp or was
    not taken."""
    pid = np.broadcast_to(np.arange(s.size)[:, None], y.shape)
    f = value((s[:, None] * y).ravel(), pid.ravel()).reshape(y.shape)
    found = np.take_along_axis(f, np.argsort(y, axis=1, kind="stable"), axis=1)
    active = np.ones(y.shape, dtype=bool)
    for _ in range(_POLISH_STEPS - 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = newton_step(f, y)
        active &= ((np.abs(step) <= _NEWTON_REACH)
                   & (np.abs(step) > 4.0 * np.finfo(float).eps * np.abs(y)))
        if not active.any():
            break
        y = np.where(active, y - step, y)
        f[active] = value((s[:, None] * y)[active], pid[active])
    best = np.argmax(f, axis=1)
    rows = np.arange(s.size)
    omega_max, f_max = s * y[rows, best], f[rows, best]
    # of two mirror peaks equal to round-off, report the one at omega >= 0
    neg = np.flatnonzero(omega_max < 0)
    f_mirror = value(-omega_max[neg], neg)
    tie = f_mirror >= f_max[neg] - 4.0 * np.spacing(f_max[neg])
    omega_max[neg[tie]], f_max[neg[tie]] = -omega_max[neg[tie]], f_mirror[tie]
    return found, omega_max, f_max


def _stationary(blocks: BeamBlocks, s: np.ndarray, polys: tuple[np.ndarray, ...],
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The peak candidates of each problem (K > 0), by _polish: E at the
    real parts of the roots of R (module docstring), sorted by omega, and
    (omega_max, E_max) after Newton steps on u'."""
    d, v, k = polys[:3]
    d1, v1 = _polyder(d), _polyder(v)
    d2, v2 = _polyder(d1), _polyder(v1)
    # V has degree 2k - 4, so R has degree 4k - 2: the leading zeros go
    r = 4.0 * (_polymul(_polymul(v1, v1), d)
               - _polymul(_polymul(v, v1), d1))[:, -(4 * blocks.k - 1):]
    r -= k[:, None] * _polymul(d1, d1)

    def newton_step(e: np.ndarray, y: np.ndarray) -> np.ndarray:
        # u' / u'' by implicit differentiation of P_u = 0 in y
        u = -np.expm1(-e)
        dy, vy, dy1, vy1 = (_polyval(c, y) for c in (d, v, d1, v1))
        f_u = 2.0 * (u * dy + vy)
        du = -u * (u * dy1 + 2.0 * vy1) / f_u
        ddu = -(2.0 * dy * du * du + 4.0 * (u * dy1 + vy1) * du
                + u * (u * _polyval(d2, y) + 2.0 * _polyval(v2, y))) / f_u
        return du / ddu

    return _polish(lambda w, pid: _density(blocks, w, pid), s, _roots(r).real, newton_step)


# the benchmark tracer wraps these names; the peaks and the flanks are
# polynomial roots now
_fwhm_by_bisection = _fwhms
_positive_intervals = minimize_scalar = _stationary


def spectrum_peak(blocks: BeamBlocks, eigenvalues: np.ndarray | None = None,
                  ) -> tuple[float, float]:
    """(omega, height) of the maximum of the beam-1 output spectrum
    nu_plus = N / D (module docstring) of the one block of blocks: the best
    real root of N' D - N D', polished by Newton steps with nu_plus from the
    kernel; (0, 0) when the spectrum vanishes (g = 0). No stability check.
    eigenvalues, the block's when already known, saves the eigen-solve."""
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvals(blocks.m[0])
    s = _scale(eigenvalues[None], blocks.decay)
    dp, _, _, n = _beam_polynomials(blocks, s)
    d1, n1 = _polyder(dp), _polyder(n)
    # N has degree 2k - 4, or 0 without the thermal input: exact leading
    # zeros, trimmed
    r = np.trim_zeros((_polymul(n1, dp) - _polymul(n, d1))[0], "f")
    if r.size < 2:
        return 0.0, 0.0

    def newton_step(f: np.ndarray, y: np.ndarray) -> np.ndarray:
        # f' and f'' from N = f D
        dy, dy1 = _polyval(dp, y), _polyval(d1, y)
        df = (_polyval(n1, y) - f * dy1) / dy
        return df / ((_polyval(_polyder(n1), y) - 2.0 * df * dy1 - f * _polyval(_polyder(d1), y))
                     / dy)

    _, (omega,), (height,) = _polish(
        lambda w, pid: _gram(blocks, w, lambda *g: np.add(*_spectrum(*g)), pid), s,
        _roots(r[None]).real, newton_step)
    return float(omega), float(height)


def entanglement_rates(drifts: Sequence[DriftMatrix], n_ths: Sequence[float],
                       tol: float = 1e-6, *,
                       reports: Sequence[StabilityReport] | None = None,
                       ) -> list[RateResult | Exception]:
    """entanglement_rate of every drift (all of one model) in one batched
    computation (module docstring); each result equals entanglement_rate of
    its drift alone bit for bit. A problem that fails gets its exception in
    its slot instead of a RateResult (UnstableSystemError, QuadratureError,
    or the ValueError of a beam block that is not reciprocal), and the
    others are unaffected. reports, the drifts' stability reports from
    models.stability, saves their eigen-solves."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol}")
    drifts = list(drifts)
    n_ths = [float(n) for n in n_ths]
    reports = [None] * len(drifts) if reports is None else reports
    if not len(n_ths) == len(reports) == len(drifts):
        raise ValueError("one n_th and one stability report per drift are needed")
    out: list[RateResult | Exception | None] = [None] * len(drifts)
    live, eigenvalues = [], []
    for i, (d, rep) in enumerate(zip(drifts, reports)):
        try:
            rep = stability(d) if rep is None else rep
            if not rep.stable:
                raise UnstableSystemError(rep.max_real_part)
            _require_reciprocal(d.beam_block[0])
            live.append(i)
            eigenvalues.append(rep.eigenvalues)
        except (UnstableSystemError, ValueError) as exc:
            out[i] = exc
    if live:
        blocks = BeamBlocks.of([drifts[i] for i in live], [n_ths[i] for i in live])
        for i, result in zip(live, _rates(blocks, np.stack(eigenvalues), tol)):
            out[i] = result
    return out


def _rates(blocks: BeamBlocks, eigenvalues: np.ndarray, tol: float,
           ) -> list[RateResult | Exception]:
    """The batched rate of entanglement_rates for stable, reciprocal beam
    blocks with their eigenvalues (P, k)."""
    s = _scale(eigenvalues, blocks.decay)
    polys = _beam_polynomials(blocks, s)
    out: list[RateResult | Exception] = [RateResult(0.0, 0.0, 0.0, 0.0, 0.0, 0)] * len(blocks)
    # E > 0 on the whole line where K > 0, E = 0 everywhere where K = 0
    pos = np.flatnonzero(polys[2] > 0)
    if not pos.size:
        return out
    if pos.size < len(blocks):
        blocks, s, polys = blocks.take(pos), s[pos], tuple(p[pos] for p in polys)

    # E has all its structure at the resonances, so panels that start
    # there only need polishing; half of tol * 2 pi is the budget
    scale = np.max(blocks.decay, axis=1)
    edges = []
    for e, decay, sc in zip(eigenvalues[pos], blocks.decay, scale):
        seeds = np.arctan(_around(*_resonances(e, decay), _SEED_OFFSETS) / sc)
        edges.append(_sorted_unique(np.concatenate(
            [[-0.5 * math.pi, 0.5 * math.pi], seeds[np.abs(seeds) < 0.5 * math.pi]])))

    def integrand(theta: np.ndarray, pid: np.ndarray) -> np.ndarray:
        t, sc = np.tan(theta), scale[pid]
        return _density(blocks, sc * t, pid) * (sc * (1.0 + t * t))

    totals, errors, gk_failures = adaptive_gk_batch(integrand, edges,
                                                    np.full(pos.size, math.pi * tol))

    values, omega_max, e_max = _stationary(blocks, s, polys)
    widths, fwhm_failures = _fwhms(blocks, s, polys, omega_max, e_max)
    for i, p in enumerate(pos):
        failure = gk_failures[i] or fwhm_failures[i]
        # E = 0 at both ends of the line; a candidate within 4 ulp of the one
        # before it lies on the same flat top
        e = values[i]
        e = e[np.concatenate(([True], np.abs(np.diff(e)) > 4.0 * np.spacing(e[1:])))]
        peaks = _count_local_maxima(np.concatenate(([0.0], e, [0.0])), e_max[i])
        out[p] = failure or RateResult(
            gamma_E=float(totals[i]) / (2.0 * math.pi), E_max=float(e_max[i]),
            omega_max=float(omega_max[i]), fwhm=float(widths[i]),
            quadrature_error=float(errors[i]) / (2.0 * math.pi),
            secondary_peaks=max(peaks - 1, 0))
    return out


def entanglement_rate(d: DriftMatrix, n_th: float = 0.0, tol: float = 1e-6) -> RateResult:
    """Gamma_E = int domega/2pi E[omega] over the whole line by adaptive
    quadrature in theta (module docstring) to absolute tolerance tol (in
    kappa units), plus E_max, its location, and the FWHM of the dominant
    peak: entanglement_rates for one drift."""
    (result,) = entanglement_rates([d], [n_th], tol, reports=[stability(d)])
    if isinstance(result, Exception):
        raise result
    return result


def _count_local_maxima(y: np.ndarray, e_max: float) -> int:
    """Peak count with a prominence floor of 1% of the dominant peak, so the
    float-level jitter of strongly squeezed points does not register. A
    peak is an interior strict maximum once plateaus are collapsed; its
    prominence is its height above the higher of the lowest samples on each
    side, searched outward until a higher sample or the border."""
    if y.size < 3:
        return 1 if np.any(y > 0) else 0
    floor = max(1e-9, 1e-2 * e_max)
    z = y[np.concatenate(([True], y[1:] != y[:-1]))]
    count = 0
    for p in np.flatnonzero((z[1:-1] > z[:-2]) & (z[1:-1] > z[2:])) + 1:
        higher = np.flatnonzero(z > z[p])
        lo = higher[higher < p].max(initial=-1) + 1
        hi = higher[higher > p].min(initial=z.size)
        count += z[p] - max(z[lo:p].min(), z[p + 1:hi].min()) >= floor
    return max(int(count), 1)
