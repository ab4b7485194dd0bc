"""Spectral density of entanglement E[omega] and the total entanglement rate.

E[omega] = max(0, -ln(2 eta_minus(omega))) is the log-negativity of the
output mode pair at (omega, -omega); it is double-sided in omega. The rate
Gamma_E = int domega/2pi E[omega] is reported in units of kappa, i.e. nats
of entanglement per 1/kappa of time; Gamma_E kappa, with kappa in 1/s, is
in nats per second.

E from the excesses. 2 eta_minus and 2 eta_plus are the two roots x of

    x^2 - 2 (n_plus + n_minus) x + 4 q = 0,

and 2 eta_plus = n_plus + n_minus + root >= 1, root = sqrt((n_plus -
n_minus)^2 + 4|xi|^2). In the excesses nu = n - 1/2 and q - 1/4 that
scattering.correlator_batch returns, 2 eta_minus = 4q / (1 + nu_plus +
nu_minus + root), so

    E = log1p(N / 4q),   N = nu_plus + nu_minus + root - 4 (q - 1/4),

which equals -log1p(-x) with x = N / (1 + nu_plus + nu_minus + root) and
keeps every digit at both ends: E >> 1 near an instability, and E ~ 1e-17
far out on a tail, where n_plus + n_minus rounds to 1.

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
      = 2 kappa_+ kappa_- (|A_+-|^2 + |A_-+|^2).

A_+- = -t m_+- + adj(m)_+- on the 3x3 block of the full model and -m_+-
on the 2x2 block of the effective model. The full model does not couple a+
to a-^dag directly (m_+- = 0), so A_+- = m_+b m_b- there, and K is a
constant in both models: K = kappa^2 g^4 / 4 (full) or
kappa^2 g^4 / (4 delta^2) (effective). So E > 0 at every frequency when
g > 0 and E = 0 everywhere when g = 0; a probe scan tells the two apart.

Crossings as polynomial roots. A(t) = t^2 I + t (tr m I - m) + adj m
(k = 3) or t I + adj m (k = 2), and det(m + t) is the characteristic
polynomial t^3 + t^2 tr m + t tr adj m + det m (or t^2 + t tr m + det m);
the kernel evaluates S from the same coefficients (scattering.BeamBlocks).
So in y = omega / s, s = max |eig m| + max decay, the quantities
D = |det|^2, V = (nu_plus + nu_minus) D and K are real polynomials, of
degree 2k, 2k - 2 and 2k - 2. Multiplying the quadratic at x = c by D,
2 eta_minus = c holds exactly where

    P_c = u^2 D + 2 u V - K = 0,   u = 1 - c,

and for c < 1 every real root is a crossing of 2 eta_minus, because the
other root is 2 eta_plus >= 1 > c. The FWHM flanks are the real roots
nearest omega_max at c = e^(-E_max / 2), polished by a few batched secant
steps on the kernel.

The integral. Gamma_E is integrated over the whole frequency line on one
compact angle: omega = s' tan(theta) with s' = max(decay) maps the line
onto (-pi/2, pi/2), and the integrand E(s' tan theta) s' / cos^2(theta)
stays bounded at the ends because E falls off like |omega|^-3 (full model)
or |omega|^-2 (effective model). The Gauss-Kronrod panels start at the
drift resonances and at +-1 and +-5 linewidths around each; one scan of a
grid seeded at the same resonances (so narrow near-instability peaks are
never missed) finds E_max and the secondary peaks. When two mirror peaks
are equal to 4 ulp, omega_max is the one at omega >= 0.

The problem axis. entanglement_rates computes the rates of P drifts of one
model together: one probe scan (a few problems per kernel pass, so its
arrays stay bounded), the crossing polynomials and their roots (one
stacked eigen-solve of the companion matrices), one Gauss-Kronrod loop
whose panels carry a problem id, one peak zoom and one FWHM polish, each
step batched kernel passes over all problems. Every decision is taken per
problem from that problem's numbers, and the kernel is elementwise, so a
result does not depend on the batch it was computed in: entanglement_rate
is the call with P = 1, and a sweep's rows equal it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import QuadratureError, UnstableSystemError
from .models import (PAIRING_DEFECT_TOL, DriftMatrix, StabilityReport, stability,
                     stability_batch)
from .quadutil import adaptive_gk_batch, minimize_batch
# unused here, but the benchmark tracer wraps these names in rates
from .quadutil import adaptive_gk, bisect_all, minimize_scalar  # noqa: F401
from .scattering import BeamBlocks, _kernel, _require_stable, correlator_batch

_PEAK_OFFSETS = np.array([0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0,
                          5.0, -5.0, 10.0, -10.0, 25.0, -25.0, 50.0, -50.0,
                          100.0, -100.0])
#: Gauss-Kronrod panel edges around each resonance, in linewidths.
_SEED_OFFSETS = np.array([0.0, 1.0, -1.0, 5.0, -5.0])
#: Batched secant steps that polish the FWHM flanks on the kernel.
_POLISH_STEPS = 3
#: Problems per batched pass of the probe scan.
_SCAN_PROBLEMS = 8
#: Sign pattern J of the reciprocity m^T = J m J of the beam block.
_RECIPROCITY_SIGNS = np.array([1.0, -1.0, 1.0])


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


def _density(blocks: BeamBlocks, omegas: np.ndarray, pid: np.ndarray) -> np.ndarray:
    """E at omegas[i] for problem pid[i] of the batch."""
    optical, mechanical, nu_minus, xi, q_excess = _kernel(blocks, omegas, pid)
    return log_negativity(optical + mechanical, nu_minus, xi, q_excess)


def spectral_density_batch(d: DriftMatrix, omegas: np.ndarray,
                           n_th: float = 0.0) -> np.ndarray:
    """E[omega] over a frequency grid, log1p(N / 4q) from the excesses
    (module docstring); no stability check."""
    return log_negativity(*correlator_batch(d, omegas, n_th))


def spectrum_and_density(d: DriftMatrix, omegas: np.ndarray, n_th: float = 0.0,
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(optical, mechanical, E) over a frequency grid from one kernel pass:
    scattering.spectrum_parts and spectral_density_batch at once, equal to
    them bit for bit; no stability check."""
    optical, mechanical, nu_minus, xi, q_excess = _kernel(BeamBlocks.of([d], [n_th]), omegas)
    return optical, mechanical, log_negativity(optical + mechanical, nu_minus, xi, q_excess)


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
    """(centres, linewidths) of the drift resonances, -Im and |Re| of its
    eigenvalues, plus omega = 0 with the largest decay rate as its width."""
    return (np.concatenate([-eigenvalues.imag, [0.0]]),
            np.concatenate([np.maximum(np.abs(eigenvalues.real), 1e-12), [np.max(decay)]]))


def _scale(eigenvalues: np.ndarray, decay: np.ndarray) -> float:
    """Frequency scale s of the crossing polynomials: max |eig| + max decay."""
    return float(np.max(np.abs(eigenvalues)) + np.max(decay))


def _around(centers: np.ndarray, widths: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each centre plus its width times every offset."""
    return (centers[:, None] + widths[:, None] * offsets).ravel()


def _grid(d: DriftMatrix, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    span = float(np.max(np.abs(centers)) + 20.0 * np.max(d.decay) + 1.0)
    out = np.unique(np.concatenate([np.linspace(-span, span, 241),
                                    _around(centers, widths, _PEAK_OFFSETS)]))
    out = out[(out >= -span) & (out <= span)]
    # a probe within round-off of its neighbour would let the peak search
    # bracket the maximum by the pair on one side
    return out[np.r_[True, np.diff(out) > 1e-12 * span]]


def frequency_grid(d: DriftMatrix, eigenvalues: np.ndarray | None = None) -> np.ndarray:
    """Sorted frequency grid seeded at the drift resonances: per-resonance
    offsets scaled by the local linewidth plus a coarse global grid. The
    one grid of the package: it is the Gamma_E probe scan, the sweep's
    spectrum peak and the filter averages of wannier. eigenvalues, the
    eigenvalues of d.m when already known, saves the eigen-solve."""
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvals(d.m)
    return _grid(d, *_resonances(eigenvalues, d.decay))


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
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, V, K) of the module docstring: their real coefficients, highest
    power first, in y = omega / s[p], one row per problem, from the
    adjugate and characteristic-polynomial coefficients of the kernel."""
    k = blocks.k
    powers = (1j * s[:, None]) ** np.arange(k, -1, -1)   # t^j = (i s y)^j
    # det, then the entries A_+-, A_-+ [, A_+b, A_-b] (degree k - 1, with a
    # leading zero), all squared at once
    rows, cols = ((0, 1), (1, 0)) if k == 2 else ((0, 1, 0, 1), (1, 0, 2, 2))
    polys = np.zeros((s.size, 1 + len(rows), k + 1), dtype=complex)
    polys[:, 0] = powers * blocks.char
    polys[:, 1:, 1:] = powers[:, None, 1:] * blocks.adj[:, :, rows, cols].transpose(0, 2, 1)
    sq = _poly_abs2(polys)
    a2 = sq[:, 1:, 2:]                                  # |A_ij|^2, degree 2k - 2
    kp, km = blocks.decay[:, :1], blocks.decay[:, 1:2]
    pair = kp * km * (a2[:, 0] + a2[:, 1])
    v = pair
    if k == 3:
        n = blocks.n_th[:, None]
        v = pair + blocks.decay[:, 2:] * (n * kp * a2[:, 2] + (n + 1.0) * km * a2[:, 3])
    return sq[:, 0], v, 2.0 * pair


def _crossings(blocks: BeamBlocks, s: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Frequencies where E = levels[p] > 0 for each problem p, i.e.
    2 eta_minus = c = e^-level: the real roots of P_c (module docstring),
    unpolished, from one stacked eigen-solve of the companion matrices (the
    matrix np.roots builds); NaN in place of a complex root."""
    d_poly, v_poly, k_poly = _beam_polynomials(blocks, s)
    u = -np.expm1(-levels)[:, None]
    p = u * u * d_poly
    p[:, 2:] += 2.0 * u * v_poly - k_poly
    n = p.shape[1] - 1
    companion = np.zeros((len(p), n, n))
    companion[:, 0] = -p[:, 1:] / p[:, :1]
    companion[:, 1:, :-1] = np.eye(n - 1)
    roots = np.linalg.eigvals(companion)
    real = roots.imag ** 2 <= 1e-16 * (roots.real ** 2 + roots.imag ** 2)
    return np.where(real, s[:, None] * roots.real, np.nan)


def _fwhms(blocks: BeamBlocks, s: np.ndarray, omega_max: np.ndarray, e_max: np.ndarray,
           ) -> tuple[np.ndarray, list[QuadratureError | None]]:
    """Half-maximum width of the dominant peak of each problem (e_max > 0):
    the distance between the crossings of E = e_max / 2 nearest omega_max
    on either side, each polished by batched secant steps on the kernel
    (the point with the smallest |E - e_max / 2| seen is kept). A problem
    with no crossing on one side gets a QuadratureError and a NaN width."""
    half = 0.5 * e_max
    roots = _crossings(blocks, s, half)
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


# the benchmark tracer wraps this name; the flanks are polynomial roots now
_fwhm_by_bisection = _fwhms


def _positive_intervals(blocks: BeamBlocks, drifts: list[DriftMatrix],
                        resonances: list[tuple[np.ndarray, np.ndarray]],
                        ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(probes, E) of each problem at the probes of its resonance grid
    where E > 0. The problem's E > 0 region is the whole line when any probe
    is positive and empty otherwise, since E > 0 wherever K > 0 and K does
    not depend on omega (module docstring). _SCAN_PROBLEMS problems are
    scanned per batched pass, so the scan's arrays do not grow with the
    batch."""
    cand, cand_e = [], []
    for start in range(0, len(drifts), _SCAN_PROBLEMS):
        grids = [_grid(d, *r) for d, r in zip(drifts[start:start + _SCAN_PROBLEMS],
                                              resonances[start:start + _SCAN_PROBLEMS])]
        counts = [g.size for g in grids]
        e = _density(blocks, np.concatenate(grids),
                     np.repeat(np.arange(start, start + len(grids)), counts))
        for g, v in zip(grids, np.split(e, np.cumsum(counts)[:-1])):
            keep = v > 0
            cand.append(g[keep])
            cand_e.append(v[keep])
    return cand, cand_e


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
    models.stability or models.stability_batch, saves the eigen-solve."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol}")
    drifts = list(drifts)
    n_ths = [float(n) for n in n_ths]
    if reports is None:
        reports = stability_batch(drifts)
    if not len(n_ths) == len(reports) == len(drifts):
        raise ValueError("one n_th and one stability report per drift are needed")
    out: list[RateResult | Exception | None] = [None] * len(drifts)
    live = []
    for i, (d, rep) in enumerate(zip(drifts, reports)):
        try:
            if not rep.stable:
                raise UnstableSystemError(rep.max_real_part)
            _require_reciprocal(d.beam_block[0])
            live.append(i)
        except (UnstableSystemError, ValueError) as exc:
            out[i] = exc
    if live:
        results = _rates([drifts[i] for i in live], [n_ths[i] for i in live],
                         [reports[i].eigenvalues for i in live], tol)
        for i, result in zip(live, results):
            out[i] = result
    return out


def _rates(drifts: list[DriftMatrix], n_ths: list[float], eigenvalues: list[np.ndarray],
           tol: float) -> list[RateResult | Exception]:
    """The batched rate of entanglement_rates for stable, reciprocal drifts."""
    blocks = BeamBlocks.of(drifts, n_ths)
    resonances = [_resonances(e, d.decay) for e, d in zip(eigenvalues, drifts)]
    # the peak candidates: the probes with E > 0
    cand, cand_e = _positive_intervals(blocks, drifts, resonances)
    out: list[RateResult | Exception] = [RateResult(0.0, 0.0, 0.0, 0.0, 0.0, 0)] * len(drifts)
    pos = np.flatnonzero([c.size > 0 for c in cand])
    if not pos.size:
        return out
    if pos.size < len(blocks):
        blocks = blocks.take(pos)
        cand, cand_e = [cand[p] for p in pos], [cand_e[p] for p in pos]

    def e_batch(w: np.ndarray, pid: np.ndarray) -> np.ndarray:
        return _density(blocks, w, pid)

    # E has all its structure at the resonances, so panels that start
    # there only need polishing; half of tol * 2 pi is the budget
    scale = np.max(blocks.decay, axis=1)
    edges = []
    for p, sc in zip(pos, scale):
        seeds = np.arctan(_around(*resonances[p], _SEED_OFFSETS) / sc)
        edges.append(np.unique(np.concatenate(
            [[-0.5 * math.pi, 0.5 * math.pi], seeds[np.abs(seeds) < 0.5 * math.pi]])))

    def integrand(theta: np.ndarray, pid: np.ndarray) -> np.ndarray:
        t, sc = np.tan(theta), scale[pid]
        return e_batch(sc * t, pid) * (sc * (1.0 + t * t))

    totals, errors, gk_failures = adaptive_gk_batch(integrand, edges,
                                                    np.full(pos.size, math.pi * tol))

    # peak statistics from the probe set
    omega_max, e_max = _refined_peaks(e_batch, cand, cand_e, xtol=1e-10)
    # of two mirror peaks equal to round-off, report the one at omega >= 0
    neg = np.flatnonzero(omega_max < 0)
    e_mirror = e_batch(-omega_max[neg], neg)
    tie = e_mirror >= e_max[neg] - 4.0 * np.spacing(e_max[neg])
    omega_max[neg[tie]], e_max[neg[tie]] = -omega_max[neg[tie]], e_mirror[tie]
    widths, fwhm_failures = _fwhms(
        blocks, np.array([_scale(eigenvalues[p], drifts[p].decay) for p in pos]),
        omega_max, e_max)
    for i, p in enumerate(pos):
        failure = gk_failures[i] or fwhm_failures[i]
        out[p] = failure or RateResult(
            gamma_E=float(totals[i]) / (2.0 * math.pi), E_max=float(e_max[i]),
            omega_max=float(omega_max[i]), fwhm=float(widths[i]),
            quadrature_error=float(errors[i]) / (2.0 * math.pi),
            secondary_peaks=max(_count_local_maxima(cand[i], cand_e[i], e_max[i]) - 1, 0))
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


def _refined_peaks(e_batch, grids: list[np.ndarray], values: list[np.ndarray],
                   xtol: float) -> tuple[np.ndarray, np.ndarray]:
    """(omega_max, E_max) per problem: the largest sample of its E on its
    sorted grid, refined between that sample's neighbours to
    xtol * max(1, |omega|) by one batched zoom (e_batch(w, pid) evaluates
    problem pid[i] at w[i]); the sample itself when the refinement finds
    nothing higher."""
    ks = [int(np.argmax(v)) for v in values]
    x_s = np.array([g[k] for g, k in zip(grids, ks)])
    f_s = np.array([v[k] for v, k in zip(values, ks)])
    x, f = minimize_batch(lambda w, pid: -e_batch(w, pid),
                          [g[max(k - 1, 0)] for g, k in zip(grids, ks)],
                          [g[min(k + 1, g.size - 1)] for g, k in zip(grids, ks)],
                          xtol=xtol * np.maximum(1.0, np.abs(x_s)))
    keep = -f < f_s
    return np.where(keep, x_s, x), np.where(keep, f_s, -f)


def _count_local_maxima(x: np.ndarray, y: np.ndarray, e_max: float) -> int:
    """Peak count with a prominence floor of 1% of the dominant peak, so the
    float-level jitter of strongly squeezed points does not register. A
    peak is an interior strict maximum once plateaus are collapsed; its
    prominence is its height above the higher of the lowest samples on each
    side, searched outward until a higher sample or the border."""
    if y.size < 3:
        return 1 if np.any(y > 0) else 0
    floor = max(1e-9, 1e-2 * e_max)
    z = y[np.r_[True, y[1:] != y[:-1]]]
    count = 0
    for p in np.flatnonzero((z[1:-1] > z[:-2]) & (z[1:-1] > z[2:])) + 1:
        higher = np.flatnonzero(z > z[p])
        lo = higher[higher < p].max(initial=-1) + 1
        hi = higher[higher > p].min(initial=z.size)
        count += z[p] - max(z[lo:p].min(), z[p + 1:hi].min()) >= floor
    return max(int(count), 1)
