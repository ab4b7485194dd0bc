"""References for the peaks of entrate.rates: the sampled peak search for
its stationary-point peaks (a scan of grid_reference.frequency_grid, then
a grid zoom, quad_reference.minimize_batch, between the neighbours of the
best sample); the Newton polish of the stationary points with u from the
kernel, a kernel pass per step, for its polish on the beam polynomials;
and two one-row peak counts for its batched count, a search per peak and
a hysteresis walk.
"""

from __future__ import annotations

import numpy as np

from entrate.rates import _density, _polyder, _polymul, _roots
from quad_reference import minimize_batch

#: Kernel passes of the Newton polish, the mirror check aside.
POLISH_PASSES = 3
#: Longest Newton step, in units of s.
NEWTON_REACH = 1e-3


def refined_peaks(e_batch, grids: list[np.ndarray], values: list[np.ndarray],
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


def count_local_maxima(y: np.ndarray, e_max: float) -> int:
    """Peak count with a prominence floor of 1% of the dominant peak, so the
    float-level jitter of strongly squeezed points does not register. A
    peak is an interior sample above its left neighbour and not below its
    right one; its prominence is its height above the higher of the lowest
    samples on each side, searched outward to the left until a sample at
    least as high, to the right until a higher one, or the border: of equal
    samples the leftmost is the higher."""
    if y.size < 3:
        return 1 if np.any(y > 0) else 0
    floor = max(1e-9, 1e-2 * e_max)
    count = 0
    for p in np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])) + 1:
        lo = np.flatnonzero(y[:p] >= y[p]).max(initial=-1) + 1
        hi = p + 1 + np.flatnonzero(y[p + 1:] > y[p]).min(initial=y.size - p - 1)
        count += y[p] - max(y[lo:p].min(), y[p + 1:hi].min()) >= floor
    return max(int(count), 1)


def hysteresis_count(y: np.ndarray, e_max: float) -> int:
    """count_local_maxima by a walk from left to right instead of a search
    per peak: a peak is counted each time the samples rise by the floor
    from the lowest one since the last peak (or the start) and then fall
    by the floor from the highest one since."""
    if y.size < 3:
        return 1 if np.any(y > 0) else 0
    floor = max(1e-9, 1e-2 * e_max)
    count, rising, low, high = 0, False, y[0], y[0]
    for v in y[1:]:
        if rising and v > high:
            high = v
        elif rising and high - v >= floor:
            count, rising, low = count + 1, False, v
        elif not rising and v < low:
            low = v
        elif not rising and v - low >= floor:
            rising, high = True, v
    return max(count, 1)


def candidate_peak_count(e: np.ndarray, e_max: float, count=count_local_maxima) -> int:
    """count (count_local_maxima by default) of one problem's peak
    candidates e (sorted by omega), one at a time, with E = 0 at both ends
    of the line."""
    return count(np.concatenate(([0.0], e, [0.0])), e_max)


def polyval(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The polynomial of row p[i] at every y[i, :], by Horner's rule."""
    out = np.zeros(y.shape)
    for c in p.T:
        out = out * y + c[:, None]
    return out


def polish(value, s: np.ndarray, y: np.ndarray, newton_step,
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates y[p, j] (in units of s[p]) for the stationary points of
    f = value(omega, pid) of problem p: f at all of them, sorted by omega
    per problem, and (omega, f) of the best of each problem after Newton
    steps, in at most POLISH_PASSES kernel passes in all; of two mirror
    peaks equal to 4 ulp, the one at omega >= 0 (one more pass).
    newton_step(f, y) is the Newton step towards the stationary point of
    each candidate. A step that is not finite or longer than NEWTON_REACH
    is not taken, and a candidate stops once its step is below 4 ulp or was
    not taken."""
    pid = np.broadcast_to(np.arange(s.size)[:, None], y.shape)
    f = value((s[:, None] * y).ravel(), pid.ravel()).reshape(y.shape)
    found = np.take_along_axis(f, np.argsort(y, axis=1, kind="stable"), axis=1)
    active = np.ones(y.shape, dtype=bool)
    for _ in range(POLISH_PASSES - 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = newton_step(f, y)
        active &= ((np.abs(step) <= NEWTON_REACH)
                   & (np.abs(step) > 4.0 * np.finfo(float).eps * np.abs(y)))
        if not active.any():
            break
        y = np.where(active, y - step, y)
        f[active] = value((s[:, None] * y)[active], pid[active])
    best = np.argmax(f, axis=1)
    rows = np.arange(s.size)
    omega_max, f_max = s * y[rows, best], f[rows, best]
    neg = np.flatnonzero(omega_max < 0)
    f_mirror = value(-omega_max[neg], neg)
    tie = f_mirror >= f_max[neg] - 4.0 * np.spacing(f_max[neg])
    omega_max[neg[tie]], f_max[neg[tie]] = -omega_max[neg[tie]], f_mirror[tie]
    return found, omega_max, f_max


def stationary_peaks(blocks, s: np.ndarray, polys: tuple[np.ndarray, ...],
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The peak candidates of each problem (K > 0) by polish: E at the real
    parts of the roots of R (entrate.rates docstring), sorted by omega, and
    (omega_max, E_max) after Newton steps on u' with u from the kernel."""
    d, v, k = polys[:3]
    d1, v1 = _polyder(d), _polyder(v)
    d2, v2 = _polyder(d1), _polyder(v1)
    r = 4.0 * (_polymul(_polymul(v1, v1), d)
               - _polymul(_polymul(v, v1), d1))[:, -(4 * blocks.k - 1):]
    r -= k[:, None] * _polymul(d1, d1)

    def newton_step(e: np.ndarray, y: np.ndarray) -> np.ndarray:
        # u' / u'' by implicit differentiation of P_u = 0 in y
        u = -np.expm1(-e)
        dy, vy, dy1, vy1 = (polyval(c, y) for c in (d, v, d1, v1))
        f_u = 2.0 * (u * dy + vy)
        du = -u * (u * dy1 + 2.0 * vy1) / f_u
        ddu = -(2.0 * dy * du * du + 4.0 * (u * dy1 + vy1) * du
                + u * (u * polyval(d2, y) + 2.0 * polyval(v2, y))) / f_u
        return du / ddu

    return polish(lambda w, pid: _density(blocks, w, pid), s, _roots(r).real, newton_step)
