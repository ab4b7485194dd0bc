"""Adaptive panel integration on a Gauss-Kronrod (7, 15) pair, and a
vectorized bisection.

Built for integrands that are cheap to evaluate on whole arrays at once,
over a problem axis: adaptive_gk_batch integrates P problems in one loop
whose panels carry a problem id, so every refinement sweep batches the
nodes of the pending panels of all problems into calls of the vectorized
integrand of up to _PANELS_PER_CALL panels each. Every decision (which
panels to split, when to stop, the panel budget) is made per problem from
that problem's panels alone, and its totals add its panels in the order of
their positions, so a problem's result does not depend on the other
problems in the batch.
"""

from __future__ import annotations

import math
from typing import Callable

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
_MAX_SWEEPS = 200        # refinement sweeps of adaptive_gk_batch
_MAX_BISECTIONS = 200    # halvings of bisect_all


def _at_round_off(val: np.ndarray, err: np.ndarray) -> np.ndarray:
    return err <= 1e-15 * np.abs(val) + 1e-300


def adaptive_gk_batch(f_batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      edges: np.ndarray, epsabs: np.ndarray, *,
                      max_panels: int = 20000,
                      ) -> tuple[np.ndarray, np.ndarray, list[QuadratureError | None]]:
    """Integrate P problems at once: problem p over its row edges[p] of a
    (P, n) array, ascending and NaN-padded at the end, starting from the
    panels between its consecutive distinct edges, to absolute tolerance
    epsabs[p]. f_batch(x, pid) returns the integrand of problem pid[i] at
    x[i].

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
    edges = np.asarray(edges, dtype=float)
    n_problems = len(edges)
    epsabs = np.broadcast_to(np.asarray(epsabs, dtype=float), (n_problems,))

    def evaluate(lo: np.ndarray, hi: np.ndarray, pid: np.ndarray):
        k15, g7 = np.empty(lo.size), np.empty(lo.size)
        # a bounded number of panels per call keeps the memory of a sweep
        # independent of the batch size
        for i in range(0, lo.size, _PANELS_PER_CALL):
            part = slice(i, i + _PANELS_PER_CALL)
            half = 0.5 * (hi[part] - lo[part])
            nodes = 0.5 * (lo[part] + hi[part])[:, None] + half[:, None] * _NODES[None, :]
            vals = np.asarray(f_batch(nodes.ravel(), np.repeat(pid[part], _NODES.size)),
                              dtype=float).reshape(nodes.shape)
            k15[part] = (vals * _W_K[None, :]).sum(axis=1) * half
            g7[part] = (vals * _W_G[None, :]).sum(axis=1) * half
        return k15, np.abs(k15 - g7)

    # repeated edges and the NaN padding make no panel
    panel = edges[:, 1:] > edges[:, :-1]
    pid = np.nonzero(panel)[0]
    lo, hi = edges[:, :-1][panel], edges[:, 1:][panel]
    val, err = evaluate(lo, hi, pid)
    converged = _at_round_off(val, err)
    values, errors = np.full(n_problems, math.nan), np.full(n_problems, math.nan)
    failures: list[QuadratureError | None] = [None] * n_problems

    for sweep in range(_MAX_SWEEPS + 1):
        # per-problem totals over the panels sorted by position: the same
        # sum whatever else is in the batch (the starting panels are in
        # that order)
        order = np.lexsort((lo, pid)) if sweep else slice(None)
        count = np.bincount(pid, minlength=n_problems)
        ids = count.nonzero()[0]
        start = (count.cumsum() - count)[ids]
        total = np.add.reduceat(err[order], start)
        # done too: a problem whose panels are all at round-off level
        done = ((total <= epsabs[ids]) | np.logical_and.reduceat(converged[order], start)
                | (sweep == _MAX_SWEEPS))
        broke = ~done & (count[ids] >= max_panels)
        stop = done | broke
        if stop.any():
            val_sum = np.add.reduceat(val[order], start)
            values[ids[done]], errors[ids[done]] = val_sum[done], total[done]
            for j in broke.nonzero()[0]:
                failures[ids[j]] = QuadratureError("panel budget exhausted",
                                                   value=float(val_sum[j]),
                                                   error_estimate=total[j])
            if stop.all():
                break
            going = np.zeros(n_problems, dtype=bool)
            going[ids[~stop]] = True
            keep = going[pid]
            lo, hi, val, err, converged, pid = (
                a[keep] for a in (lo, hi, val, err, converged, pid))

        # per problem: its active panels largest error first (ties by
        # position), then the shortest prefix covering 3/4 of its excess
        act = (~converged).nonzero()[0]
        act = act[np.lexsort((lo[act], -err[act], pid[act]))]
        act_count = np.bincount(pid[act], minlength=n_problems)
        rows = act_count.nonzero()[0]
        row = np.repeat(np.arange(rows.size), act_count[rows])
        rank = np.arange(act.size) - (act_count.cumsum() - act_count)[pid[act]]
        padded = np.zeros((rows.size, int(act_count.max())))
        padded[row, rank] = err[act]
        at = np.searchsorted(ids, rows)
        target = np.maximum(0.75 * (total[at] - epsabs[rows]), 0.5 * padded[:, 0])
        covering = (padded.cumsum(axis=1) < target[:, None]).sum(axis=1) + 1
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
