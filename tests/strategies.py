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


#: The thermal occupations of the full-model points of stable_points.
_N_TH = st.sampled_from([0.0, 1.0, 50.0, 1e3])


@st.composite
def full_points(draw, n_th=_N_TH):
    """(params, n_th) at a random strictly stable point of the full model
    with C up to 1e5 (near double resonance for half the draws) and n_th
    drawn from the strategy n_th."""
    c = 10.0 ** draw(st.floats(0.0, 5.0))
    gamma = 10.0 ** draw(st.floats(-3.0, -0.5))
    # near double resonance |delta|, |Delta| shrink with the stable window
    scale = draw(st.sampled_from([1.0, 1e-3]))
    p = FullModelParams(g=math.sqrt(c * gamma), Gamma=gamma,
                        delta=scale * draw(st.floats(-15.0, 15.0)),
                        Delta=scale * draw(st.floats(-1.5, 1.5)), n_th=draw(n_th))
    rep = stability(drift_full(p))
    assume(rep.stable and not rep.marginal)
    return p, p.n_th


@st.composite
def stable_points(draw):
    """(params, n_th) at a random strictly stable point of either model:
    full_points, or the effective model across its usual parameter box."""
    if draw(st.booleans()):
        return draw(full_points())
    p = EffectiveModelParams(
        g=draw(st.floats(0.5, 6.0)),
        delta=draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(2.0, 30.0)),
        Delta=draw(st.floats(-1.0, 1.0)))
    rep = stability(drift_effective(p))
    assume(rep.stable and not rep.marginal)
    return p, 0.0


def stable_drifts():
    """(drift, n_th) at the points of stable_points."""
    return stable_points().map(lambda point: (drift_of(point[0]), point[1]))
