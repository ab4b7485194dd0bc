"""Adaptive panel integration on a Gauss-Kronrod (7, 15) pair.

Built for integrands that are cheap to evaluate on whole arrays at once:
every refinement sweep batches the nodes of all pending panels into a single
call of the vectorized integrand. Results are deterministic; panels are
summed in left-to-right order with math.fsum.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

# 15-point Kronrod abscissae/weights with the embedded 7-point Gauss rule
# (standard QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full symmetric node set, ascending
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 nodes
_W_K = np.concatenate([_WGK[:-1], _WGK[::-1]])             # Kronrod weights
_W_G = np.zeros(15)
_W_G[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])       # Gauss weights on odd slots


def _panel_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Node matrix (n_panels, 15) for panels [a_i, b_i]."""
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    return mid + half * _NODES[None, :]


def adaptive_gk(f_batch: Callable[[np.ndarray], np.ndarray],
                a: float, b: float, *,
                epsabs: float,
                initial_points: Sequence[float] = (),
                max_panels: int = 20000,
                max_sweeps: int = 200) -> tuple[float, float]:
    """Integrate f over [a, b] to absolute tolerance epsabs.

    Worst-first refinement: every sweep splits the set of panels whose
    errors make up the bulk of the excess over epsabs, evaluating all the
    new halves in one batched call. initial_points seeds interior panel
    boundaries (e.g. known resonance positions) so that narrow features are
    bracketed from the start.

    Returns (value, error_estimate). Panels whose error is at round-off
    level are not split again; when only such panels remain, or after
    max_sweeps sweeps, the achieved estimate is returned even if it is
    above epsabs. Raises QuadratureError when the panel budget is
    exhausted.
    """
    if not (b > a):
        raise ValueError("integration interval must have b > a")
    edges = sorted({float(a), float(b), *(float(p) for p in initial_points if a < p < b)})

    def evaluate(lo: np.ndarray, hi: np.ndarray):
        nodes = _panel_nodes(lo, hi)
        vals = np.asarray(f_batch(nodes.ravel()), dtype=float).reshape(nodes.shape)
        half = 0.5 * (hi - lo)
        k15 = (vals * _W_K[None, :]).sum(axis=1) * half
        g7 = (vals * _W_G[None, :]).sum(axis=1) * half
        return k15, np.abs(k15 - g7)

    def at_round_off(val: np.ndarray, err: np.ndarray) -> np.ndarray:
        return err <= 1e-15 * np.abs(val) + 1e-300

    lo = np.array(edges[:-1])
    hi = np.array(edges[1:])
    val, err = evaluate(lo, hi)
    converged = at_round_off(val, err)

    for _ in range(max_sweeps):
        total_err = math.fsum(err.tolist())
        if total_err <= epsabs:
            break
        active = np.nonzero(~converged)[0]
        if active.size == 0:
            break
        if lo.size >= max_panels:
            raise QuadratureError("panel budget exhausted",
                                  value=math.fsum(val[np.argsort(lo)].tolist()),
                                  error_estimate=total_err)
        # split the smallest top-error subset covering most of the excess
        order = active[np.argsort(err[active])[::-1]]
        cum = np.cumsum(err[order])
        excess = total_err - epsabs
        n_split = int(np.searchsorted(cum, max(0.75 * excess, cum[0] * 0.5)) + 1)
        n_split = min(n_split, order.size, 512, max(1, max_panels - lo.size))
        chosen = order[:n_split]

        mid = 0.5 * (lo[chosen] + hi[chosen])
        new_lo = np.concatenate([lo[chosen], mid])
        new_hi = np.concatenate([mid, hi[chosen]])
        new_val, new_err = evaluate(new_lo, new_hi)
        keep = np.setdiff1d(np.arange(lo.size), chosen)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
        converged = np.concatenate([converged[keep], at_round_off(new_val, new_err)])

    order = np.argsort(lo)
    return math.fsum(val[order].tolist()), math.fsum(err[order].tolist())


def bisect_all(f_batch: Callable[[np.ndarray], np.ndarray],
               lo: np.ndarray, hi: np.ndarray, *,
               xtol: float, max_iter: int = 200) -> np.ndarray:
    """Vectorized bisection: one root of f per bracket [lo_i, hi_i].

    f(lo) and f(hi) must have opposite signs elementwise.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = np.asarray(f_batch(lo), dtype=float)
    fhi = np.asarray(f_batch(hi), dtype=float)
    if np.any(np.sign(flo) == np.sign(fhi)):
        raise ValueError("bisection brackets must straddle a sign change")
    for _ in range(max_iter):
        if np.max(hi - lo) <= xtol:
            break
        mid = 0.5 * (lo + hi)
        fm = np.asarray(f_batch(mid), dtype=float)
        same_as_lo = np.sign(fm) == np.sign(flo)
        lo = np.where(same_as_lo, mid, lo)
        flo = np.where(same_as_lo, fm, flo)
        hi = np.where(same_as_lo, hi, mid)
    return 0.5 * (lo + hi)


def minimize_scalar(f_batch: Callable[[np.ndarray], np.ndarray],
                    lo: float, hi: float, *, xtol: float) -> tuple[float, float]:
    """(x, f(x)) at the best sample of f on [lo, hi] by grid zooming: each
    step evaluates 17 points across the bracket in one batched call and
    keeps the two cells around the smallest sample, shrinking the bracket
    8x, until it is xtol wide (so x is within xtol of a unimodal minimum)."""
    best_x, best_f = float(lo), math.inf
    for _ in range(100):     # ends on xtol long before; guards xtol below one ulp
        x = np.linspace(lo, hi, 17)
        f = np.asarray(f_batch(x), dtype=float)
        k = int(np.argmin(f))
        if f[k] < best_f:
            best_x, best_f = float(x[k]), float(f[k])
        if hi - lo <= xtol:
            break
        lo, hi = x[max(k - 1, 0)], x[min(k + 1, x.size - 1)]
    return best_x, best_f
