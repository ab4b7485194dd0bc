"""Extended-precision reference for E[omega], owned by the benchmark.

Builds the drift matrix of either model from its parameters and evaluates
the output-pair correlators and the log-negativity in mpmath, so that the
float64 cancellation in n_plus n_minus - |xi|^2 (about 2 log10 C digits) is
far below the working precision.  It shares no code with the program.

Conventions follow the program's documentation: doubled operator ordering
(a+, a+^dag, a-, a-^dag[, b, b^dag]), S(w) = I + D^1/2 (m + i w)^-1 D^1/2,
input noise C with vacuum optical inputs and a thermal mechanical input,
n_plus = 1/2 + W_21(-w), n_minus = 1/2 + W_43(w), xi = W_13(w) with
W(w) = S(w) C S^T(-w), and E = max(0, -ln 2 eta_minus).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath as mp

DPS = 50


def drift(model: str, p: dict) -> tuple[mp.matrix, list]:
    """(m, decay) of the full or effective model, as mpmath objects."""
    kappa = mp.mpf(p.get("kappa", 1.0))
    g = mp.mpf(p["g"])
    Delta = mp.mpf(p.get("Delta", 0.0))
    delta = mp.mpf(p.get("delta", 0.0))
    j = mp.mpc(0, 1)
    if model == "full":
        Gamma = mp.mpf(p["Gamma"])
        hg = j * g / 2
        ka = j * Delta - kappa / 2
        m = mp.matrix(6, 6)
        m[0, 0], m[0, 4] = ka, hg
        m[1, 1], m[1, 5] = mp.conj(ka), -hg
        m[2, 2], m[2, 5] = ka, hg
        m[3, 3], m[3, 4] = mp.conj(ka), -hg
        m[4, 4], m[4, 0], m[4, 3] = -j * delta - Gamma / 2, hg, hg
        m[5, 5], m[5, 1], m[5, 2] = j * delta - Gamma / 2, -hg, -hg
        return m, [kappa] * 4 + [Gamma] * 2
    gp = g * g / (4 * delta)
    dg = j * (Delta + gp) - kappa / 2
    m = mp.matrix(4, 4)
    m[0, 0], m[0, 3] = dg, j * gp
    m[1, 1], m[1, 2] = mp.conj(dg), -j * gp
    m[2, 2], m[2, 1] = dg, j * gp
    m[3, 3], m[3, 0] = mp.conj(dg), -j * gp
    return m, [kappa] * 4


def _smatrix(m: mp.matrix, decay: list, w) -> mp.matrix:
    n = m.rows
    a = m.copy()
    for i in range(n):
        a[i, i] += mp.mpc(0, 1) * w
    inv = a ** -1
    sq = [mp.sqrt(x) for x in decay]
    s = mp.matrix(n, n)
    for i in range(n):
        for k in range(n):
            s[i, k] = sq[i] * inv[i, k] * sq[k]
        s[i, i] += 1
    return s


def _noise(n: int, n_th) -> dict:
    """Nonzero entries of the input-noise matrix C."""
    c = {(0, 1): mp.mpf(1), (2, 3): mp.mpf(1)}
    if n == 6:
        c[(4, 5)] = mp.mpf(n_th) + 1
        c[(5, 4)] = mp.mpf(n_th)
    return c


def _w(c: dict, sa: mp.matrix, row_a: int, sb: mp.matrix, row_b: int):
    return mp.fsum(sa[row_a, j] * v * sb[row_b, k] for (j, k), v in c.items())


class Point(NamedTuple):
    E: float          # log-negativity E[omega]
    spectrum: float   # beam-1 output spectrum n_plus - 1/2
    cancel: float     # n_plus n_minus / q: the float64 cancellation factor of q


def point(model: str, p: dict, omega: float) -> Point:
    """Reference values at one frequency."""
    with mp.workdps(DPS):
        m, decay = drift(model, p)
        n_th = p.get("n_th", 0.0) if model == "full" else 0.0
        c = _noise(m.rows, n_th)
        w = mp.mpf(omega)
        sp = _smatrix(m, decay, w)
        sm = sp if omega == 0.0 else _smatrix(m, decay, -w)
        spec = mp.re(_w(c, sm, 1, sp, 0))
        n_plus = mp.mpf(0.5) + spec
        n_minus = mp.mpf(0.5) + mp.re(_w(c, sp, 3, sm, 2))
        xi = _w(c, sp, 0, sm, 2)
        q = n_plus * n_minus - abs(xi) ** 2
        if q <= 0:
            raise ValueError(f"oracle: non-positive q at {model} {p} w={omega}")
        two_eta = 4 * q / (n_plus + n_minus + mp.sqrt((n_plus - n_minus) ** 2 + 4 * abs(xi) ** 2))
        return Point(float(max(mp.mpf(0), -mp.log(two_eta))), float(spec),
                     float(n_plus * n_minus / q))


def stability_margin(model: str, p: dict) -> float:
    """Largest real part of the drift eigenvalues."""
    with mp.workdps(DPS):
        m, _ = drift(model, p)
        return float(max(mp.re(ev) for ev in mp.eig(m, left=False, right=False)))


def agrees(value: float, reference: float, rtol: float, atol: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= atol + rtol * abs(reference)
