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
_W_KG = np.array([_W_K, _W_G])                              # both rules, [rule, node]
#: Panels whose nodes go into one integrand call: 960 nodes, within one
#: 1,024-point kernel chunk of the rate integrand, so the kernel never
#: splits a call; without this bound a sweep over a batch of problems
#: holds about 1 KB of node arrays per panel at once.
_PANELS_PER_CALL = 64
_MAX_SWEEPS = 200        # refinement sweeps of adaptive_gk_batch
_MAX_PANELS = 20000      # panel budget of each of its problems
_MAX_BISECTIONS = 200    # halvings of bisect_all


def _at_round_off(val: np.ndarray, err: np.ndarray) -> np.ndarray:
    return err <= 1e-15 * np.abs(val) + 1e-300


def adaptive_gk_batch(f_batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      edges: np.ndarray, epsabs: np.ndarray,
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
    when problem p exhausted its budget of _MAX_PANELS panels, else None;
    its value and error are NaN then, and when its edges make no panel.
    """
    edges = np.asarray(edges, dtype=float)
    n_problems = len(edges)
    epsabs = np.full(n_problems, epsabs, dtype=float)

    def evaluate(lo: np.ndarray, hi: np.ndarray, pid: np.ndarray):
        # [panel, K15 | G7]; a bounded number of panels per call keeps the
        # memory of a sweep independent of the batch size
        rules = []
        for i in range(0, lo.size, _PANELS_PER_CALL):
            part = slice(i, i + _PANELS_PER_CALL)
            half = 0.5 * (hi[part] - lo[part])
            nodes = 0.5 * (lo[part] + hi[part])[:, None] + half[:, None] * _NODES[None, :]
            vals = np.asarray(f_batch(nodes.ravel(), pid[part].repeat(_NODES.size)),
                              dtype=float).reshape(-1, 1, _NODES.size)
            rules.append(np.add.reduce(vals * _W_KG, axis=2) * half[:, None])
        kg = rules[0] if len(rules) == 1 else np.concatenate([np.empty((0, 2)), *rules])
        k15 = kg[:, 0]
        return k15, np.abs(k15 - kg[:, 1])

    # repeated edges and the NaN padding make no panel; the panels stay in
    # order, by problem and then by position, so a problem's totals add its
    # panels in the order of their positions, whatever else is in the batch
    panel = edges[:, 1:] > edges[:, :-1]
    pid = panel.nonzero()[0]
    lo, hi = edges[:, :-1][panel], edges[:, 1:][panel]
    val, err = evaluate(lo, hi, pid)
    values, errors = results = np.empty((2, n_problems))
    results.fill(math.nan)
    failures: list[QuadratureError | None] = [None] * n_problems
    # the problems with panels, their panel counts and their tolerances
    count = np.bincount(pid, minlength=n_problems)
    ids = count.nonzero()[0]
    if ids.size < n_problems:
        count, epsabs = count[ids], epsabs[ids]

    # nothing to refine, and no panel to split, where no problem has one
    for sweep in range(_MAX_SWEEPS + 1 if pid.size else 0):
        # the start of each problem's panels
        start = count.cumsum() - count
        total = np.add.reduceat(err, start)
        done = total <= epsabs
        if sweep == _MAX_SWEEPS:
            done[:] = True
        # (count_nonzero is the cheapest "all" of a small array)
        finished = np.count_nonzero(done) == done.size
        if not finished:
            # done too: a problem whose panels are all at round-off level
            converged = _at_round_off(val, err)
            done |= np.logical_and.reduceat(converged, start)
            finished = np.count_nonzero(done) == done.size
        if finished:
            values[ids], errors[ids] = np.add.reduceat(val, start), total
            break
        stop = done | (count >= _MAX_PANELS)
        if np.count_nonzero(stop):
            val_sum = np.add.reduceat(val, start)
            finished = ids[done]
            values[finished], errors[finished] = val_sum[done], total[done]
            for j in (stop & ~done).nonzero()[0]:
                failures[ids[j]] = QuadratureError("panel budget exhausted",
                                                   value=float(val_sum[j]),
                                                   error_estimate=total[j])
            if np.count_nonzero(stop) == stop.size:
                break
            going = ~stop
            keep = going.repeat(count)
            lo, hi, val, err, converged, pid = (
                a[keep] for a in (lo, hi, val, err, converged, pid))
            ids, count, total, epsabs = ids[going], count[going], total[going], epsabs[going]

        # per problem (each has an active panel, or it is done): its active
        # panels largest error first (a stable sort, so ties go by
        # position), then the shortest prefix covering 3/4 of its excess
        act = (~converged).nonzero()[0]
        act = act[np.lexsort((-err[act], pid[act]))]
        act_count = np.bincount(pid[act], minlength=n_problems)[ids]
        row = np.arange(ids.size).repeat(act_count)
        rank = np.arange(act.size) - (act_count.cumsum() - act_count)[row]
        padded = np.zeros((ids.size, int(act_count.max())))
        padded[row, rank] = err[act]
        target = np.maximum(0.75 * (total - epsabs), 0.5 * padded[:, 0])
        covering = np.add.reduce(padded.cumsum(axis=1) < target[:, None], axis=1) + 1
        n_split = np.minimum(np.minimum(covering, act_count),
                             np.minimum(512, np.maximum(1, _MAX_PANELS - count)))
        chosen = act[rank < n_split[row]]
        count = count + n_split

        mid = 0.5 * (lo[chosen] + hi[chosen])
        new_val, new_err = evaluate(np.concatenate([lo[chosen], mid]),
                                    np.concatenate([mid, hi[chosen]]),
                                    np.concatenate([pid[chosen], pid[chosen]]))
        # each chosen panel gives way to its two halves, in its place
        split = np.zeros(lo.size, dtype=np.intp)
        split[chosen] = 1
        idx = np.arange(lo.size).repeat(split + 1)
        first = chosen + (split.cumsum() - split)[chosen]
        halves = np.concatenate([first, first + 1])
        lo, hi, pid, val, err = (a[idx] for a in (lo, hi, pid, val, err))
        hi[first] = lo[first + 1] = mid
        val[halves], err[halves] = new_val, new_err
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
