"""The drift of either model in the doubled operator basis, written from
the Langevin equations independently of entrate.models.

Operators in the order (a+, a+^dag, a-, a-^dag[, b, b^dag]), each obeying
dA/dt = m A - sqrt(decay) A_in. The full model:

    da+/dt    = (i Delta - kappa/2) a+     + i(g/2) b
    da-/dt    = (i Delta - kappa/2) a-     + i(g/2) b^dag
    db/dt     = (-i delta - Gamma/2) b     + i(g/2) (a+ + a-^dag)

and the effective model, with G = g^2/4delta:

    da+/dt    = (i (Delta + G) - kappa/2) a+ + i G a-^dag
    da-/dt    = (i (Delta + G) - kappa/2) a- + i G a+^dag

each with the conjugate equation of the daggered operator. The runtime
keeps only the beam block (a+, a-^dag[, b]); BEAM and PARTNER index it and
its conjugate partner here, and lu_reference and mp_reference evaluate the
scattering matrix over all operators from this drift.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from entrate.models import EffectiveModelParams, FullModelParams

#: Places of the beam operators a+, a-^dag, b and of their partners
#: a+^dag, a-, b^dag; the effective model has the first two of each.
BEAM = (0, 3, 4)
PARTNER = (1, 2, 5)


class Doubled(NamedTuple):
    m: np.ndarray       # (2k, 2k)
    decay: np.ndarray   # (2k,)


def doubled_drift(p: FullModelParams | EffectiveModelParams) -> Doubled:
    """The drift over all operators of the model of p, and the decay rate
    of each operator's channel."""
    if isinstance(p, FullModelParams):
        m = np.zeros((6, 6), dtype=complex)
        optical, mechanical, hg = 1j * p.Delta - p.kappa / 2, -1j * p.delta - p.Gamma / 2, 0.5j * p.g
        for a, a_dag, b, b_dag in ((0, 1, 4, 5), (2, 3, 5, 4)):
            # a+ couples to b and a- to b^dag
            m[a, a], m[a, b] = optical, hg
            m[a_dag, a_dag], m[a_dag, b_dag] = np.conj(optical), np.conj(hg)
        m[4, 4], m[4, 0], m[4, 3] = mechanical, hg, hg
        m[5, 5], m[5, 1], m[5, 2] = np.conj(mechanical), np.conj(hg), np.conj(hg)
        return Doubled(m, np.array([p.kappa] * 4 + [p.Gamma] * 2))
    pair = p.g ** 2 / (4.0 * p.delta)
    optical = 1j * (p.Delta + pair) - p.kappa / 2
    m = np.diag([optical, np.conj(optical)] * 2)
    m[0, 3], m[2, 1] = 1j * pair, 1j * pair
    m[3, 0], m[1, 2] = -1j * pair, -1j * pair
    return Doubled(m, np.full(4, p.kappa))
