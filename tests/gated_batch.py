"""Many drifts' rates in one batch, the way a sweep computes its grid's:
the drifts' beam blocks stacked, gated by scattering.BeamBlocks.gate and
passed to rates._rates, the package's one batched rate."""

from __future__ import annotations

import numpy as np

from entrate.errors import UnstableSystemError
from entrate.rates import _PEAK_FIELDS, RateResult, _rates
from entrate.scattering import BeamBlocks


def gated(drifts, n_ths) -> tuple[BeamBlocks, list[int], dict[int, Exception]]:
    """BeamBlocks.gate on the stacked beam blocks of drifts (of one model)
    with n_ths, which it does not check: the batch that passes, the drifts'
    places in it and each other drift's failure by place, the gate's
    LinAlgError or the UnstableSystemError, carrying the margin, of a block
    that is not stable."""
    blocks, passed, margin, failures = BeamBlocks.gate(
        np.array([d.m for d in drifts]), np.array([d.decay for d in drifts]),
        np.array(n_ths, dtype=float))
    places = passed.tolist()
    return blocks, places, {i: failures.get(i) or UnstableSystemError(margin[i])
                            for i in range(len(drifts)) if i not in places}


def batch_rates(drifts, n_ths, tol: float = 1e-6) -> list:
    """The RateResult of each drift from one _rates call on the gated
    batch with every field, or in its slot its failure: the gate's, or the
    first QuadratureError of its fields, which entanglement_rate raises."""
    blocks, places, failures = gated(drifts, n_ths)
    out = [failures.get(i) for i in range(len(drifts))]
    if places:
        values, failed = _rates(blocks, tol, _PEAK_FIELDS)
        for j, i in enumerate(places):
            *floats, count = (v[j].item() for v in values.values())
            out[i] = (next((f[j] for f in failed.values() if j in f), None)
                      or RateResult(*floats, int(count)))
    return out
