"""Hypothesis strategies shared by the test modules."""

from __future__ import annotations

import math

from hypothesis import assume
from hypothesis import strategies as st

from entrate.models import (EffectiveModelParams, FullModelParams, drift_effective,
                            drift_full, stability)


def drift_of(p: FullModelParams | EffectiveModelParams):
    """The drift of the model of the parameter set p."""
    return drift_full(p) if isinstance(p, FullModelParams) else drift_effective(p)


@st.composite
def stable_points(draw):
    """(params, n_th) at a random strictly stable point of either model:
    full model with C up to 1e5 (near double resonance for half the draws),
    effective model across its usual parameter box."""
    if draw(st.booleans()):
        c = 10.0 ** draw(st.floats(0.0, 5.0))
        gamma = 10.0 ** draw(st.floats(-3.0, -0.5))
        # near double resonance |delta|, |Delta| shrink with the stable window
        scale = draw(st.sampled_from([1.0, 1e-3]))
        p = FullModelParams(g=math.sqrt(c * gamma), Gamma=gamma,
                            delta=scale * draw(st.floats(-15.0, 15.0)),
                            Delta=scale * draw(st.floats(-1.5, 1.5)),
                            n_th=draw(st.sampled_from([0.0, 1.0, 50.0, 1e3])))
        n_th = p.n_th
    else:
        p = EffectiveModelParams(
            g=draw(st.floats(0.5, 6.0)),
            delta=draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(2.0, 30.0)),
            Delta=draw(st.floats(-1.0, 1.0)))
        n_th = 0.0
    rep = stability(drift_of(p))
    assume(rep.stable and not rep.marginal)
    return p, n_th


def stable_drifts():
    """(drift, n_th) at the points of stable_points."""
    return stable_points().map(lambda point: (drift_of(point[0]), point[1]))
