"""Oracle cross-check suite.

Every check pairs an output of the numerical pipeline with an independent
reference (closed forms, exact algebraic identities, or structural
invariants) and returns (measured, bound, detail): the measured deviation
against a fixed bound. A check passes iff measured <= bound, so NaN fails;
a check whose side condition fails measures inf. The CLI `verify`
subcommand runs all of them; the acceptance test module runs them one
criterion at a time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import closedforms, gaussian, models, quadutil, rates, scattering, sweep, wannier

KAPPA = 1.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    seconds: float
    detail: str = ""


def effective_scattering_oracle(g: float, kappa: float, delta: float,
                                Delta: float, omega: float) -> np.ndarray:
    """Closed-form effective-model scattering matrix on the beam block
    (a+, a-^dag), written out directly from the model rates (independent of
    the kernel's polynomial coefficients)."""
    gp = g ** 2 / (4.0 * delta)
    m11 = 1j * (Delta + gp) - kappa / 2.0
    m22 = -1j * (Delta + gp) - kappa / 2.0
    m12 = 1j * gp
    den = m12 ** 2 + (m11 + 1j * omega) * (m22 + 1j * omega)
    core = np.array([[m22 + 1j * omega, -m12], [m12, m11 + 1j * omega]])
    return np.eye(2) + kappa / den * core


def block_scattering(d: models.DriftMatrix, omegas: np.ndarray) -> np.ndarray:
    """S(omega) on the beam block, shape (len(omegas), k, k), evaluated from
    the kernel's own coefficients: S = I + D^1/2 A(t) D^1/2 / det(m + t) at
    t = i omega, with A(t) = sum_j adj[j] t^(k-1-j) and det(m + t) the
    characteristic polynomial char (scattering.BeamBlocks)."""
    blocks = scattering.BeamBlocks.of(d, 0.0)
    t = 1j * np.asarray(omegas, dtype=float)
    adj = np.tensordot(t[:, None] ** np.arange(blocks.k - 1, -1, -1), blocks.adj[0], 1)
    det = np.polyval(blocks.char[0], t)
    sq = np.sqrt(blocks.decay[0])
    return np.eye(blocks.k) + np.outer(sq, sq) * adj / det[:, None, None]


def _full_drift(g: float, Gamma: float, Delta: float, delta: float) -> models.DriftMatrix:
    return models.drift_full(models.FullModelParams(
        g=g, Gamma=Gamma, kappa=KAPPA, Delta=Delta, delta=delta))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- criterion 1 -------------------------------------------------------------

def check_resonant_closed_form() -> tuple[float, float, str]:
    """Full-model E[0] at Delta = delta = 0 vs the resonant closed form,
    relative 1e-9 over C x n_th, on the float64 path (its q = n+ n- - |xi|^2
    is a sum of non-negative terms, so no digits cancel at large C)."""
    tol = 1e-9
    gamma = 1e-3
    worst = 0.0
    details = []
    for c_target in (1.0, 1e3, 2.5e4):
        g = math.sqrt(c_target * KAPPA * gamma)
        c_val = g * g / (KAPPA * gamma)
        d = _full_drift(g, gamma, 0.0, 0.0)
        for n_th in (0.0, 50.0, 500.0):
            e_num = rates.spectral_density(d, 0.0, n_th)
            e_ref = -math.log(2.0 * closedforms.eta_minus_resonant(c_val, n_th))
            worst = max(worst, _rel(e_num, e_ref))
            if n_th in (0.0, 50.0) and c_target == 2.5e4:
                details.append(f"E(C=2.5e4,n_th={n_th:g})={e_num:.4f}")
    return worst, tol, "; ".join(details)


# -- criterion 2 -------------------------------------------------------------

def check_effective_scattering() -> tuple[float, float, str]:
    """Effective-model S(omega) on the beam block, from the kernel's
    polynomial coefficients, vs the closed form, entrywise, at 50 random
    stable parameter points."""
    tol = 1e-12
    rng = np.random.default_rng(20240901)
    worst = 0.0
    count = 0
    while count < 50:
        g = rng.uniform(0.1, 8.0)
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 50.0)
        big_delta = rng.uniform(-1.5, 1.5)
        omega = rng.uniform(-30.0, 30.0)
        p = models.EffectiveModelParams(g=g, delta=delta, kappa=KAPPA, Delta=big_delta)
        d = models.drift_effective(p)
        if not models.stability(d).stable:
            continue
        count += 1
        s_num = block_scattering(d, np.array([omega]))[0]
        s_ref = effective_scattering_oracle(g, KAPPA, delta, big_delta, omega)
        worst = max(worst, float(np.max(np.abs(s_num - s_ref))))
    return worst, tol, f"{count} stable points"


# -- criterion 3 -------------------------------------------------------------

def check_pair_rate() -> tuple[float, float, str]:
    tol = 1e-6
    cases = [(5.0, 10.0, 0.0), (5.0, 10.0, -0.2), (2.0, -8.0, 0.3), (5.0, 10.0, -0.24)]
    worst = 0.0
    for g, delta, big_delta in cases:
        p = models.EffectiveModelParams(g=g, delta=delta, kappa=KAPPA, Delta=big_delta)
        num = scattering.pair_rate_numeric(p)
        ref = closedforms.pair_rate_closed(g, KAPPA, delta, big_delta)
        worst = max(worst, _rel(num, ref))
    anchor = scattering.pair_rate_numeric(
        models.EffectiveModelParams(g=5.0, delta=10.0, kappa=KAPPA))
    worst = max(worst, _rel(anchor, 0.78125))
    return worst, tol, f"rate(5k,10k,0)={anchor:.9f}k"


# -- criterion 4 -------------------------------------------------------------

def check_stability_boundary() -> tuple[float, float, str]:
    """Eigenvalue scan of the effective model locates the analytic boundary
    roots at (g = 5k, delta = 10k) to 1e-3 kappa."""
    tol = 1e-3
    g, delta = 5.0, 10.0

    def margins(xs: np.ndarray) -> np.ndarray:
        m = models.beam_blocks("effective", {"g": g, "delta": delta, "kappa": KAPPA,
                                             "Delta": xs})[0]
        return models.stability_gate(m)[1]

    grid = np.linspace(-1.3, 0.1, 141)
    flips = np.nonzero(np.diff(np.sign(margins(grid))) != 0)[0]
    roots = sorted(quadutil.bisect_all(margins, grid[flips], grid[flips + 1],
                                       xtol=1e-15).tolist())
    expected = models.stability_boundary_effective(g, KAPPA, delta)
    near = models.stability(models.drift_effective(models.EffectiveModelParams(
        g=g, delta=delta, kappa=KAPPA, Delta=-0.2)))
    worst = (max(abs(r - e) for r, e in zip(roots, expected))
             if len(roots) == 2 and near.stable else math.inf)
    return worst, tol, (f"roots={roots}, expected={list(expected)}, "
                            f"Delta=-0.2k stable={near.stable}")


# -- criterion 5 -------------------------------------------------------------

def check_full_correlators() -> tuple[float, float, str]:
    """output_correlators vs the printed resonant-drive closed forms on a
    10 x 10 x 3 grid of (omega, delta, n_th)."""
    tol = 1e-9
    g, gamma = 5.0, 1e-3
    worst = 0.0
    for delta in np.linspace(-15.0, 15.0, 10):
        d = _full_drift(g, gamma, 0.0, delta)
        for omega in np.linspace(-20.0, 20.0, 10):
            for n_th in (0.0, 50.0, 500.0):
                got = scattering.output_correlators(d, omega, n_th)
                ref = closedforms.full_model_correlators_resonant(
                    g, KAPPA, gamma, delta, n_th, omega)
                worst = max(worst,
                            _rel(got.n_plus, ref.n_plus),
                            _rel(got.n_minus, ref.n_minus),
                            abs(got.xi - ref.xi) / max(abs(ref.xi), 1e-300))
    return worst, tol, "300 grid points"


# -- criterion 6 -------------------------------------------------------------

def _random_stable_sets(rng: np.random.Generator, n: int):
    out = []
    while len(out) < n:
        if rng.uniform() < 0.5:
            p = models.FullModelParams(
                g=rng.uniform(0.2, 6.0), Gamma=rng.uniform(1e-3, 0.2),
                kappa=KAPPA, Delta=rng.uniform(-1.5, 1.5),
                delta=rng.uniform(-15.0, 15.0), n_th=rng.uniform(0.0, 100.0))
            d = models.drift_full(p)
            n_th = p.n_th
        else:
            p = models.EffectiveModelParams(
                g=rng.uniform(0.2, 6.0), delta=rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 30.0),
                kappa=KAPPA, Delta=rng.uniform(-1.0, 1.0))
            d = models.drift_effective(p)
            n_th = 0.0
        if models.stability(d).stable:
            out.append((d, n_th))
    return out


def check_physics_invariants() -> tuple[float, float, str]:
    """Flux relation S K S^dag = K of the beam-block S, K = diag(1, -1[, 1])
    (1e-10); output covariances physical (nu >= 1/2 - 1e-9); E >= 0
    everywhere sampled. Measured value is the worst ratio
    deviation/tolerance. (No intra-beam squeezing holds by construction: a
    drift is the beam block, which does not couple to its partner.)"""
    rng = np.random.default_rng(7)
    sets = _random_stable_sets(rng, 20)
    flux_dev = nu_defect = 0.0
    e_min = float("inf")
    for d, n_th in sets:
        omegas = rng.uniform(-30.0, 30.0, size=20)
        s = block_scattering(d, omegas)
        k_sig = np.diag([1.0, -1.0, 1.0][:s.shape[1]])
        flux_dev = max(flux_dev, float(np.max(np.abs(
            s @ k_sig @ s.conj().transpose(0, 2, 1) - k_sig))))
        for w in omegas[:5]:
            t = scattering.output_correlators(d, float(w), n_th)
            v = gaussian.covariance_from_correlators(t)
            nu = gaussian.symplectic_spectrum(v)
            nu_defect = max(nu_defect, float(0.5 - nu.min()))
        e_vals = rates.spectral_density_batch(d, omegas, n_th)
        e_min = min(e_min, float(e_vals.min()))
    worst_ratio = max(flux_dev / 1e-10, nu_defect / 1e-9,
                      0.0 if e_min >= 0 else float("inf"))
    detail = f"flux={flux_dev:.2e} nu_defect={nu_defect:.2e} min E={e_min:.2e}"
    return worst_ratio, 1.0, detail


# -- criterion 7 -------------------------------------------------------------

def check_wannier_norm() -> tuple[float, float, str]:
    tol = 1e-4
    cutoff = wannier.DEFAULT_CUTOFF
    worst = 0.0
    for m_fac in (1, 2, 3, 8, 64):
        # one sum per M: it does not depend on the refinement index l
        gap = abs(1.0 - wannier.kernel_normalization(m_fac, 0, cutoff))
        worst = max(worst, gap)
        if gap > wannier.kernel_tail_bound(m_fac, cutoff):
            return math.inf, tol, f"tail bound violated at M={m_fac}: gap={gap:.3e}"
    identity = (wannier.wannier_kernel(1, 0, 0) == 1.0
                and wannier.wannier_kernel(1, 0, 5) == 0.0
                and wannier.wannier_kernel(1, 0, -3) == 0.0)
    return worst if identity else math.inf, tol, f"M=1 identity: {identity}"


# -- criterion 8 -------------------------------------------------------------

def check_filter_convergence() -> tuple[float, float, str]:
    """E_N^tau (Wannier wave-packet pair) vs E[0] at C = 1e3: strictly
    decreasing deviation over tau*kappa in {1e1..1e4}, final below 1%.

    The mechanical linewidth is a free parameter at fixed C; Gamma = 0.3k
    keeps the narrowest spectral feature wide enough that the finite-filter
    mixing error falls under 1% by tau*kappa = 1e4 (with Gamma << kappa the
    approach of E_N^tau to a large E[0] is only logarithmic in tau).
    """
    tol = 0.01
    gamma = 0.3
    g = math.sqrt(1e3 * KAPPA * gamma)
    d = _full_drift(g, gamma, 0.0, 0.0)
    e0 = rates.spectral_density(d, 0.0, 0.0)
    devs = []
    for tau in (10.0, 1e2, 1e3, 1e4):
        e_tau = wannier.filtered_entanglement(
            d, 0.0, wannier.FilterSpec(0.0, tau), wannier.FilterSpec(0.0, tau),
            shape="wannier")
        devs.append(abs(e_tau - e0))
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    final_rel = devs[-1] / e0
    detail = "devs/E0=" + ", ".join(f"{x / e0:.4g}" for x in devs)
    return final_rel if decreasing else math.inf, tol, detail


# -- criterion 9 -------------------------------------------------------------

def check_rate_map_argmax() -> tuple[float, float, str]:
    """Gamma_E argmax on a 25 x 25 (delta, Delta) grid at n_th = 0 lies
    within one grid cell of (0, 0)."""
    config = sweep.SweepConfig(
        model="full",
        fixed={"g": 5.0, "Gamma": 1e-3, "kappa": KAPPA, "n_th": 0.0},
        axes=[sweep.SweepAxis("delta", -15.0, 15.0, 25),
              sweep.SweepAxis("Delta", -1.5, 1.5, 25)],
        quantities=["gamma_E"], tol=1e-6)
    result = sweep.run_sweep(config)
    grid = result.value_grid("gamma_E")
    i, j = np.unravel_index(np.nanargmax(grid), grid.shape)
    delta_at = config.axes[0].values()[i]
    big_delta_at = config.axes[1].values()[j]
    # grid cells from (0, 0), which sits at index 12 of both axes: an exact integer
    off = max(abs(i - 12), abs(j - 12))
    return off, 1.0, (f"argmax at (delta={delta_at:.3g}, Delta={big_delta_at:.3g}), "
                      f"peak={np.nanmax(grid):.4g}k")


def check_rate_vs_boundary() -> tuple[float, float, str]:
    """Near the optical instability E_max is large but the rate stays below
    the doubly resonant one."""
    d_res = _full_drift(5.0, 1e-3, 0.0, 0.0)
    d_bnd = _full_drift(5.0, 1e-3, -0.24, 10.0)
    r_res = rates.entanglement_rate(d_res, n_th=0.0)
    r_bnd = rates.entanglement_rate(d_bnd, n_th=0.0)
    ratio = r_bnd.gamma_E / r_res.gamma_E
    detail = (f"rate(0,0)={r_res.gamma_E:.4g}k Emax={r_res.E_max:.3g}; "
              f"rate(-0.24k,10k)={r_bnd.gamma_E:.4g}k Emax={r_bnd.E_max:.3g}")
    return ratio, 1.0, detail


def check_spectrum_two_peaks() -> tuple[float, float, str]:
    """Output spectrum at (Delta=0, delta=10k, g=5k, Gamma=1e-3k, n_th=50):
    two peaks separated by delta; of the two, the one at omega ~ delta is
    the mechanically dominated one (it hosts the mechanical noise maximum
    and a mechanical fraction orders of magnitude above the optical peak's)."""
    delta, n_th = 10.0, 50.0
    d = _full_drift(5.0, 1e-3, 0.0, delta)
    # optical peak: scan around omega ~ 0; mechanical peak: around delta
    grid = np.concatenate([np.linspace(-2.0, 2.0, 801),
                           delta + np.linspace(-0.01, 0.01, 801)])
    optical, mechanical = scattering.spectrum_parts(d, grid, n_th)
    total = optical + mechanical
    k0 = int(np.argmax(total[:801]))
    kd = 801 + int(np.argmax(total[801:]))

    sep = float(grid[kd] - grid[k0])
    frac0 = mechanical[k0] / total[k0]
    fracd = mechanical[kd] / total[kd]
    mech_max_at = grid[int(np.argmax(mechanical))]
    shape = (abs(grid[kd] - delta) < 0.05
             and fracd > 10.0 * frac0
             and frac0 < 0.1
             and abs(mech_max_at - delta) < 0.05)
    detail = (f"separation={sep:.3f}k; mech fraction {fracd:.3f} at omega~delta "
              f"vs {frac0:.2e} at omega~0")
    return abs(sep - delta) if shape else math.inf, 0.5, detail


def check_temperature_slope() -> tuple[float, float, str]:
    """ln Gamma_E vs ln n_th slope over [1e2, 1e4] equals -1 +- 0.1
    (measured as |slope + 1|), with the 1/n_th prefactor proportional to the
    cooperativity.

    The 1/n_th law is the asymptotic (n_th >> C) behaviour; the check runs
    at C = 10, Gamma = 0.1k so the whole stated window lies in that regime
    (at C ~ 1e4 the same window sits in the logarithmic crossover and the
    local slope is much shallower).
    """
    gamma = 0.1
    n_vals = np.geomspace(1e2, 1e4, 7)
    slopes = {}
    tails = {}
    for c_val in (10.0, 100.0):
        d = _full_drift(math.sqrt(c_val * KAPPA * gamma), gamma, 0.0, 0.0)
        g_vals = [rates.entanglement_rate(d, n_th=float(n)).gamma_E for n in n_vals]
        slopes[c_val] = float(np.polyfit(np.log(n_vals), np.log(g_vals), 1)[0])
        tails[c_val] = g_vals[-1]
    slope = slopes[10.0]
    prefactor_ratio = tails[100.0] / tails[10.0]
    prefactor = abs(prefactor_ratio / 10.0 - 1.0) < 0.05
    return abs(slope + 1.0) if prefactor else math.inf, 0.1, (
        f"slope(C=10)={slope:.4f}, slope(C=100)={slopes[100.0]:.4f}, "
        f"prefactor ratio C=100/C=10 = {prefactor_ratio:.3f}")


def check_fwhm_exceeds_mechanical() -> tuple[float, float, str]:
    """FWHM of E[omega] at Delta = delta = 0 (C = 2.5e4) exceeds 100 Gamma;
    measured as 100 Gamma / FWHM against 1."""
    gamma = 1e-3
    d = _full_drift(5.0, gamma, 0.0, 0.0)
    rr = rates.entanglement_rate(d, n_th=0.0)
    ratio = rr.fwhm / gamma
    return 100.0 / ratio, 1.0, f"fwhm={rr.fwhm:.4g}k = {ratio:.0f} Gamma"


# -- criterion 10 ------------------------------------------------------------

def check_path_equivalence() -> tuple[float, float, str]:
    """Excess-form log-negativity (rates.log_negativity) vs the general
    symplectic path on 100 random physical triples (1e-10), and exact
    additivity on a block-diagonal 8x8 double pair."""
    tol = 1e-10
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        r = rng.uniform(0.0, 2.0)
        t1, t2 = rng.uniform(0.0, 3.0, size=2)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        # two-mode squeezed vacuum plus thermal noise: nu = sinh^2 r + t and
        # q - 1/4 without cancellation
        sh2 = math.sinh(r) ** 2
        xi = 0.5 * math.sinh(2 * r) * np.exp(1j * phi)
        fast = float(rates.log_negativity(sh2 + t1, sh2 + t2, xi,
                                          0.5 * (t1 + t2) + t1 * t2 + sh2 * (t1 + t2)))
        slow = gaussian.log_negativity_general(gaussian.covariance_from_correlators(
            gaussian.CorrelatorTriple(0.5 + sh2 + t1, 0.5 + sh2 + t2, xi)))
        worst = max(worst, abs(fast - slow))

    r = 1.0
    tmsv = gaussian.covariance_from_correlators(gaussian.CorrelatorTriple(
        0.5 * math.cosh(2 * r), 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)))
    v8 = np.zeros((8, 8))
    v8[:4, :4] = tmsv.entries
    v8[4:, 4:] = tmsv.entries
    e8 = gaussian.log_negativity_general(v8, partition=(1, 2, 1, 2))
    worst = max(worst, abs(e8 - 4.0 * r))
    return worst, tol, f"8x8 additivity E={e8:.12f}"


CHECKS: dict[str, Callable[[], tuple[float, float, str]]] = {
    "resonant_closed_form": check_resonant_closed_form,
    "effective_scattering": check_effective_scattering,
    "pair_rate": check_pair_rate,
    "stability_boundary": check_stability_boundary,
    "full_correlators": check_full_correlators,
    "physics_invariants": check_physics_invariants,
    "wannier_norm": check_wannier_norm,
    "filter_convergence": check_filter_convergence,
    "rate_map_argmax": check_rate_map_argmax,
    "rate_vs_boundary": check_rate_vs_boundary,
    "spectrum_two_peaks": check_spectrum_two_peaks,
    "temperature_slope": check_temperature_slope,
    "fwhm_exceeds_mechanical": check_fwhm_exceeds_mechanical,
    "path_equivalence": check_path_equivalence,
}


def run_checks(names: list[str] | None = None) -> list[CheckResult]:
    selected = names if names is not None else list(CHECKS)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {list(CHECKS)}")
    results = []
    for name in selected:
        start = time.perf_counter()
        try:
            measured, bound, detail = CHECKS[name]()
        except Exception as exc:  # a crashed check is a failed check
            measured, bound = math.nan, math.nan
            detail = f"raised {type(exc).__name__}: {exc}"
        # plain Python values: checks may return numpy scalars
        measured, bound = float(measured), float(bound)
        results.append(CheckResult(name=name, passed=measured <= bound, measured=measured,
                                   tolerance=bound, seconds=time.perf_counter() - start,
                                   detail=detail))
    return results
