"""Extended-precision references for the output-pair correlators and for
the Lorentzian-filtered entanglement.

correlators_mp evaluates the whole doubled-basis pipeline in mpmath: both
6x6 (or 4x4) scattering matrices S(+omega) and S(-omega), the input noise
coefficients C, and W = S(omega) C S^T(-omega), then forms
q = n_plus n_minus - |xi|^2 by direct subtraction, which 50 digits survive
at any cooperativity the tests use. Shares no code with the float64 block
kernel it checks. lorentzian_filtered_mp solves the filtered pair as a
Lyapunov equation instead of a frequency average.
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


def lorentzian_filtered_mp(d: DriftMatrix, n_th: float, omega_c: float, tau: float,
                           dps: int = 60) -> float:
    """E_N^tau of the Lorentzian filter pair (beam 1 at +omega_c, beam 2 at
    -omega_c, filter time tau) from a Lyapunov equation, at `dps` digits.

    The filter modes c_1 and c_2^dag obey dc/dt = (-1/tau - i omega_c) c +
    sqrt(2/tau) a_out and join the beam block X = (a+, a-^dag[, b]) in one
    linear system dY/dt = A Y + B xi. The stationary symmetrized covariance
    P solves A P + P A^dag + B W B^dag = 0 with W = diag(1/2, 1/2[, n_th + 1/2]),
    and its filter block holds (n_plus, n_minus, xi) of the filtered pair.
    Solved as one vectorized linear system; shares no code with the angle
    quadrature of wannier.filtered_entanglement.
    """
    m, decay = d.beam_block
    k = m.shape[0]
    n = k + 2
    with mp.workdps(dps):
        rate = mp.sqrt(2 / mp.mpf(tau))
        sq = [mp.sqrt(mp.mpf(x)) for x in decay]
        a = mp.matrix(n)
        b = mp.matrix(n, k)
        for i in range(k):
            for j in range(k):
                a[i, j] = mp.mpc(m[i, j])
            b[i, i] = -sq[i]
        for f in range(2):
            a[k + f, f] = rate * sq[f]
            a[k + f, k + f] = -1 / mp.mpf(tau) - mp.mpc(0, 1) * mp.mpf(omega_c)
            b[k + f, f] = rate
        w = [mp.mpf(0.5)] * 2 + [mp.mpf(n_th) + mp.mpf(0.5)] * (k - 2)
        noise = mp.matrix(n)
        for i in range(n):
            for j in range(n):
                noise[i, j] = mp.fsum(b[i, c] * w[c] * mp.conj(b[j, c]) for c in range(k))
        # row-major vec: vec(A P + P A^dag) = (A (x) I + I (x) conj(A)) vec P
        lhs = mp.matrix(n * n)
        rhs = mp.matrix(n * n, 1)
        for i in range(n):
            for j in range(n):
                row = i * n + j
                rhs[row] = -noise[i, j]
                for c in range(n):
                    lhs[row, c * n + j] += a[i, c]
                    lhs[row, i * n + c] += mp.conj(a[j, c])
        p = mp.lu_solve(lhs, rhs)
        n_plus = p[k * n + k].real
        n_minus = p[(k + 1) * n + k + 1].real
        xi = p[k * n + k + 1]
        xi_sq = xi.real ** 2 + xi.imag ** 2
        q = n_plus * n_minus - xi_sq
        root = mp.sqrt((n_plus - n_minus) ** 2 + 4 * xi_sq)
        two_eta = 4 * q / (n_plus + n_minus + root)
        return float(max(mp.mpf(0), -mp.log(two_eta)))


def squeezed_thermal_log_negativity_mp(r: float, t1: float, t2: float, phi: float,
                                       dps: int = 50) -> float:
    """Log-negativity of a two-mode squeezed vacuum (squeezing r, phase phi)
    with thermal noise t1, t2 added to its modes, by the general symplectic
    path at `dps` digits from the exact parameters: the smallest modulus
    eta of the eigenvalues of i J V^T, V^T the covariance matrix with the
    p quadrature of mode 2 flipped, and E = max(0, -ln 2 eta)."""
    with mp.workdps(dps):
        n1 = mp.cosh(2 * mp.mpf(r)) / 2 + mp.mpf(t1)
        n2 = mp.cosh(2 * mp.mpf(r)) / 2 + mp.mpf(t2)
        xi = mp.sinh(2 * mp.mpf(r)) / 2 * mp.expj(mp.mpf(phi))
        re, im = xi.real, xi.imag
        # quadrature ordering (x1, p1, x2, p2), p2 -> -p2
        vt = mp.matrix([[n1, 0, re, -im], [0, n1, im, re], [re, im, n2, 0],
                        [-im, re, 0, n2]])
        j = mp.matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        eta = min(abs(e) for e in mp.eig(mp.mpc(0, 1) * j * vt, left=False, right=False))
        return float(max(mp.mpf(0), -mp.log(2 * eta)))
