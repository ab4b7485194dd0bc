"""Extended-precision reference for the output-pair correlators.

Evaluates the whole doubled-basis pipeline in mpmath: both 6x6 (or 4x4)
scattering matrices S(+omega) and S(-omega), the input noise coefficients
C, and W = S(omega) C S^T(-omega), then forms q = n_plus n_minus - |xi|^2
by direct subtraction, which 50 digits survive at any cooperativity the
tests use. Shares no code with the float64 block kernel it checks.
"""

from __future__ import annotations

import mpmath as mp

from entrate.models import DriftMatrix


def correlators_mp(d: DriftMatrix, omega: float, n_th: float = 0.0,
                   dps: int = 50) -> tuple[mp.mpf, mp.mpf, mp.mpc]:
    """(n_plus, n_minus, xi) of the output pair at (omega, -omega), computed
    at `dps` decimal digits from the float64 entries of d."""
    with mp.workdps(dps):
        n = d.dim
        sq = [mp.sqrt(mp.mpf(x)) for x in d.decay]

        def smat(w: mp.mpf) -> mp.matrix:
            a = mp.matrix(n)
            for i in range(n):
                for j in range(n):
                    a[i, j] = mp.mpc(d.m[i, j])
                a[i, i] += mp.mpc(0, 1) * w
            inv = a ** -1
            s = mp.matrix(n)
            for i in range(n):
                for j in range(n):
                    s[i, j] = sq[i] * inv[i, j] * sq[j]
                s[i, i] += 1
            return s

        w = mp.mpf(omega)
        sp = smat(w)
        sm = sp if omega == 0.0 else smat(-w)
        weights = {(0, 1): mp.mpf(1), (2, 3): mp.mpf(1)}
        if n == 6:
            weights[(4, 5)] = mp.mpf(n_th) + 1
            weights[(5, 4)] = mp.mpf(n_th)

        def went(sa: mp.matrix, sb: mp.matrix, r: int, c: int) -> mp.mpc:
            return mp.fsum(sa[r, j] * wt * sb[c, k] for (j, k), wt in weights.items())

        n_plus = mp.mpf(0.5) + went(sm, sp, 1, 0).real
        n_minus = mp.mpf(0.5) + went(sp, sm, 3, 2).real
        xi = went(sp, sm, 0, 2)
        return n_plus, n_minus, xi


def reference_point(d: DriftMatrix, omega: float, n_th: float = 0.0,
                    dps: int = 50) -> tuple[float, float]:
    """(q, E) at one frequency: q = n_plus n_minus - |xi|^2 and the
    log-negativity E = max(0, -ln 2 eta_minus), both rounded to float."""
    n_plus, n_minus, xi = correlators_mp(d, omega, n_th, dps)
    with mp.workdps(dps):
        xi_sq = xi.real ** 2 + xi.imag ** 2
        q = n_plus * n_minus - xi_sq
        root = mp.sqrt((n_plus - n_minus) ** 2 + 4 * xi_sq)
        two_eta = 4 * q / (n_plus + n_minus + root)
        return float(q), float(max(mp.mpf(0), -mp.log(two_eta)))
