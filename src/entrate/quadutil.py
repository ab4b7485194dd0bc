"""Adaptive panel integration on a Gauss-Kronrod (7, 15) pair, plus a
batched grid-zoom minimizer and a vectorized bisection.

Built for integrands that are cheap to evaluate on whole arrays at once,
over a problem axis: adaptive_gk_batch integrates P problems in one loop
whose panels carry a problem id, so every refinement sweep batches the
nodes of the pending panels of all problems into calls of the vectorized
integrand of up to _PANELS_PER_CALL panels each. Every decision (which
panels to split, when to stop, the panel budget) is made per problem from
that problem's panels alone, and its totals add its panels in the order of
their positions, so a problem's result does not depend on the other
problems in the batch.
adaptive_gk and minimize_scalar are the one-problem calls of the batched
loops. The rates path finds its peaks and half-maximum flanks as
polynomial roots, so the minimizer has no caller in the package: it is the
zoom of the tests' sampled peak reference, and minimize_scalar stays bound
in rates, where the benchmark tracer wraps it.
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
#: Panels whose nodes go into one integrand call: 960 nodes, within one
#: 1,024-point kernel chunk of the rate integrand, so the kernel never
#: splits a call; without this bound a sweep over a batch of problems
#: holds about 1 KB of node arrays per panel at once.
_PANELS_PER_CALL = 64
#: The 17 zoom points across a bracket, in units of its 16th.
_ZOOM_STEPS = np.arange(17.0)
_MAX_SWEEPS = 200        # refinement sweeps of adaptive_gk_batch
_MAX_BISECTIONS = 200    # halvings of bisect_all


def _panel_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Node matrix (n_panels, 15) for panels [a_i, b_i]."""
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    return mid + half * _NODES[None, :]


def _at_round_off(val: np.ndarray, err: np.ndarray) -> np.ndarray:
    return err <= 1e-15 * np.abs(val) + 1e-300


def adaptive_gk_batch(f_batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      edges: Sequence[np.ndarray], epsabs: np.ndarray, *,
                      max_panels: int = 20000,
                      ) -> tuple[np.ndarray, np.ndarray, list[QuadratureError | None]]:
    """Integrate P problems at once: problem p over [edges[p][0],
    edges[p][-1]], starting from the panels between its sorted, distinct
    edges, to absolute tolerance epsabs[p]. f_batch(x, pid) returns the
    integrand of problem pid[i] at x[i].

    Worst-first refinement, per problem: every sweep splits the smallest
    set of its panels, largest error first, whose errors cover most of the
    problem's excess over epsabs, and evaluates the new halves of all
    problems together, in calls of up to _PANELS_PER_CALL panels. Panels
    whose error is at round-off level are not split again; when only such
    panels remain, or after _MAX_SWEEPS sweeps, the achieved estimate stands
    even if it is above epsabs.

    Returns (values, errors, failures): failures[p] is a QuadratureError
    when problem p exhausted its panel budget (its value and error are then
    NaN), else None.
    """
    n_problems = len(edges)
    epsabs = np.broadcast_to(np.asarray(epsabs, dtype=float), (n_problems,))

    def evaluate(lo: np.ndarray, hi: np.ndarray, pid: np.ndarray):
        k15, g7 = np.empty(lo.size), np.empty(lo.size)
        # a bounded number of panels per call keeps the memory of a sweep
        # independent of the batch size
        for i in range(0, lo.size, _PANELS_PER_CALL):
            part = slice(i, i + _PANELS_PER_CALL)
            nodes = _panel_nodes(lo[part], hi[part])
            vals = np.asarray(f_batch(nodes.ravel(), np.repeat(pid[part], _NODES.size)),
                              dtype=float).reshape(nodes.shape)
            half = 0.5 * (hi[part] - lo[part])
            k15[part] = (vals * _W_K[None, :]).sum(axis=1) * half
            g7[part] = (vals * _W_G[None, :]).sum(axis=1) * half
        return k15, np.abs(k15 - g7)

    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    pid = np.repeat(np.arange(n_problems), [len(e) - 1 for e in edges])
    val, err = evaluate(lo, hi, pid)
    converged = _at_round_off(val, err)
    values, errors = np.full(n_problems, math.nan), np.full(n_problems, math.nan)
    failures: list[QuadratureError | None] = [None] * n_problems

    for sweep in range(_MAX_SWEEPS + 1):
        # per-problem totals over the panels sorted by position: the same
        # sum whatever else is in the batch
        order = np.lexsort((lo, pid))
        count = np.bincount(pid, minlength=n_problems)
        start = np.cumsum(count) - count
        ids = np.flatnonzero(count)
        total = np.add.reduceat(err[order], start[ids])
        n_active = np.bincount(pid[~converged], minlength=n_problems)[ids]
        done = (total <= epsabs[ids]) | (n_active == 0) | (sweep == _MAX_SWEEPS)
        broke = ~done & (count[ids] >= max_panels)
        if np.any(done | broke):
            val_sum = np.add.reduceat(val[order], start[ids])
            for j in np.flatnonzero(done | broke):
                p = ids[j]
                value = float(val_sum[j])
                if broke[j]:
                    failures[p] = QuadratureError("panel budget exhausted", value=value,
                                                  error_estimate=total[j])
                else:
                    values[p], errors[p] = value, total[j]
            going = np.zeros(n_problems, dtype=bool)
            going[ids[~(done | broke)]] = True
            if not going.any():
                break
            keep = going[pid]
            lo, hi, val, err, converged, pid = (
                a[keep] for a in (lo, hi, val, err, converged, pid))

        # per problem: its active panels largest error first (ties by
        # position), then the shortest prefix covering 3/4 of its excess
        act = np.flatnonzero(~converged)
        act = act[np.lexsort((lo[act], -err[act], pid[act]))]
        act_count = np.bincount(pid[act], minlength=n_problems)
        rows = np.flatnonzero(act_count)
        row = np.repeat(np.arange(rows.size), act_count[rows])
        rank = np.arange(act.size) - (np.cumsum(act_count) - act_count)[pid[act]]
        padded = np.zeros((rows.size, int(act_count.max())))
        padded[row, rank] = err[act]
        at = np.searchsorted(ids, rows)
        target = np.maximum(0.75 * (total[at] - epsabs[rows]), 0.5 * padded[:, 0])
        covering = (np.cumsum(padded, axis=1) < target[:, None]).sum(axis=1) + 1
        n_split = np.minimum(np.minimum(covering, act_count[rows]),
                             np.minimum(512, np.maximum(1, max_panels - count[rows])))
        chosen = act[rank < n_split[row]]

        mid = 0.5 * (lo[chosen] + hi[chosen])
        new_lo = np.concatenate([lo[chosen], mid])
        new_hi = np.concatenate([mid, hi[chosen]])
        new_pid = np.concatenate([pid[chosen], pid[chosen]])
        new_val, new_err = evaluate(new_lo, new_hi, new_pid)
        rest = np.ones(lo.size, dtype=bool)
        rest[chosen] = False
        lo = np.concatenate([lo[rest], new_lo])
        hi = np.concatenate([hi[rest], new_hi])
        pid = np.concatenate([pid[rest], new_pid])
        val = np.concatenate([val[rest], new_val])
        err = np.concatenate([err[rest], new_err])
        converged = np.concatenate([converged[rest], _at_round_off(new_val, new_err)])
    return values, errors, failures


def adaptive_gk(f_batch: Callable[[np.ndarray], np.ndarray],
                a: float, b: float, *,
                epsabs: float,
                initial_points: Sequence[float] = (),
                max_panels: int = 20000) -> tuple[float, float]:
    """Integrate f over [a, b] to absolute tolerance epsabs: the one-problem
    call of adaptive_gk_batch. initial_points seeds interior panel
    boundaries (e.g. known resonance positions) so that narrow features are
    bracketed from the start.

    Returns (value, error_estimate); raises QuadratureError when the panel
    budget is exhausted.
    """
    if not (b > a):
        raise ValueError("integration interval must have b > a")
    edges = np.array(sorted({float(a), float(b),
                             *(float(p) for p in initial_points if a < p < b)}))
    (value,), (error,), (failure,) = adaptive_gk_batch(
        lambda x, _: f_batch(x), [edges], epsabs, max_panels=max_panels)
    if failure is not None:
        raise failure
    return float(value), float(error)


def bisect_all(f_batch: Callable[[np.ndarray], np.ndarray],
               lo: np.ndarray, hi: np.ndarray, *,
               xtol: float) -> np.ndarray:
    """Vectorized bisection: one root of f per bracket [lo_i, hi_i].

    f(lo) and f(hi) must have opposite signs elementwise.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = np.asarray(f_batch(lo), dtype=float)
    fhi = np.asarray(f_batch(hi), dtype=float)
    if np.any(np.sign(flo) == np.sign(fhi)):
        raise ValueError("bisection brackets must straddle a sign change")
    for _ in range(_MAX_BISECTIONS):
        if np.max(hi - lo) <= xtol:
            break
        mid = 0.5 * (lo + hi)
        fm = np.asarray(f_batch(mid), dtype=float)
        same_as_lo = np.sign(fm) == np.sign(flo)
        lo = np.where(same_as_lo, mid, lo)
        flo = np.where(same_as_lo, fm, flo)
        hi = np.where(same_as_lo, hi, mid)
    return 0.5 * (lo + hi)


def minimize_batch(f_batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   lo: np.ndarray, hi: np.ndarray, *,
                   xtol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, f(x)) at the best sample of problem p's f on [lo[p], hi[p]] for
    every p, by grid zooming: each step evaluates 17 points across the
    bracket of every problem still open, all in one call f_batch(x, pid),
    and keeps the two cells around the problem's smallest sample, shrinking
    its bracket 8x, until the bracket is within its xtol (so x is within
    xtol of a unimodal minimum)."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), lo.shape)
    best_x, best_f = lo.copy(), np.full(lo.shape, math.inf)
    ids = np.arange(lo.size)                 # the open problems
    for _ in range(100):     # ends on xtol long before; guards xtol below one ulp
        width = hi - lo
        # np.linspace(lo, hi, 17) per bracket, flattened row by row
        x = (_ZOOM_STEPS * (width / 16.0)[:, None] + lo[:, None])
        x[:, -1] = hi
        x = x.ravel()
        f = np.asarray(f_batch(x, np.repeat(ids, 17)), dtype=float)
        k = f.reshape(-1, 17).argmin(axis=1)
        best = 17 * np.arange(ids.size) + k     # flat index of each row's best sample
        better = f[best] < best_f[ids]
        best_x[ids[better]], best_f[ids[better]] = x[best[better]], f[best[better]]
        wide = width > xtol[ids]
        if not wide.any():
            break
        lo, hi = x[(best - (k > 0))[wide]], x[(best + (k < 16))[wide]]
        ids = ids[wide]
    return best_x, best_f


def minimize_scalar(f_batch: Callable[[np.ndarray], np.ndarray],
                    lo: float, hi: float, *, xtol: float) -> tuple[float, float]:
    """(x, f(x)) at the best sample of f on [lo, hi]: the one-problem call
    of minimize_batch."""
    x, f = minimize_batch(lambda w, _: f_batch(w), [lo], [hi], xtol=xtol)
    return float(x[0]), float(f[0])
