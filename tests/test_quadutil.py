import math

import numpy as np
import pytest

from entrate import quadutil
from entrate.errors import QuadratureError
from entrate.quadutil import adaptive_gk_batch
from quad_reference import adaptive_gk, minimize_batch, minimize_scalar


class Counted:
    """Batched function that records the size of every call."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, x):
        self.calls.append(np.size(x))
        return self.f(np.asarray(x))


class TestMinimizeScalar:
    def test_interior_minimum(self):
        x, fx = minimize_scalar(lambda w: np.abs(w - 0.3) + 1.0, -1.0, 2.0, xtol=1e-10)
        assert abs(x - 0.3) <= 1e-10
        assert fx == pytest.approx(1.0, abs=1e-10)

    def test_smooth_minimum(self):
        x, fx = minimize_scalar(lambda w: (w - np.e) ** 2 - 2.0, 0.0, 5.0, xtol=1e-10)
        # f is flat to round-off within ~1e-8 of the minimizer
        assert abs(x - np.e) <= 1e-7
        assert fx == pytest.approx(-2.0, abs=1e-14)

    @pytest.mark.parametrize("sign, end", [(1.0, 1.0), (-1.0, 2.0)])
    def test_minimum_at_a_bracket_end(self, sign, end):
        x, fx = minimize_scalar(lambda w: sign * w, 1.0, 2.0, xtol=1e-10)
        assert (x, fx) == (end, sign * end)

    def test_zero_width_bracket(self):
        f = Counted(lambda w: w - 1.0)
        assert minimize_scalar(f, 0.7, 0.7, xtol=1e-10) == (0.7, 0.7 - 1.0)
        assert len(f.calls) == 1

    def test_batched_calls_shrink_the_bracket(self):
        f = Counted(lambda w: np.abs(w))
        minimize_scalar(f, -1.0, 3.0, xtol=1e-9)
        # 17 points per call, bracket shrinks 8x or more per call
        assert set(f.calls) == {17}
        assert len(f.calls) <= 12


# three integrands of different difficulty, chosen by problem id
_INTEGRANDS = [lambda x: np.exp(-x * x), lambda x: 1.0 / (1e-6 + x * x),
               lambda x: np.sin(40.0 * x) ** 2]
# one row of edges per problem, NaN-padded at the end
_EDGES = np.array([[-3.0, 0.0, 3.0], [-1.0, 1.0, np.nan], [0.0, 0.5, 2.0]])
_EPS = np.array([1e-12, 1e-8, 1e-10])


def _by_problem(x, pid):
    out = np.empty_like(x)
    for p, f in enumerate(_INTEGRANDS):
        mask = pid == p
        out[mask] = f(x[mask])
    return out


class TestAdaptiveGkBatch:
    def test_values_and_errors_per_problem(self):
        values, errors, failures = adaptive_gk_batch(_by_problem, _EDGES, _EPS)
        exact = [math.sqrt(math.pi) * math.erf(3.0), 2e3 * math.atan(1e3),
                 1.0 - math.sin(160.0) / 160.0]
        assert failures == [None, None, None]
        assert np.all(errors <= _EPS)
        for v, e, ref in zip(values, errors, exact):
            assert abs(v - ref) <= e + 1e-13 * abs(ref)

    def test_problems_do_not_interact(self):
        values, errors, _ = adaptive_gk_batch(_by_problem, _EDGES, _EPS)
        for p, f in enumerate(_INTEGRANDS):
            alone = adaptive_gk_batch(lambda x, _, f=f: f(x), _EDGES[p:p + 1], _EPS[p:p + 1])
            assert (values[p], errors[p]) == (alone[0][0], alone[1][0])
        # the batch in another order gives the same numbers
        order = [2, 0, 1]
        shuffled = adaptive_gk_batch(lambda x, pid: _by_problem(x, np.array(order)[pid]),
                                     _EDGES[order], _EPS[order])
        assert list(shuffled[0]) == list(values[order])

    def test_panel_budget_fails_its_problem_only(self, monkeypatch):
        monkeypatch.setattr(quadutil, "_MAX_PANELS", 12)
        values, errors, failures = adaptive_gk_batch(_by_problem, _EDGES, _EPS)
        assert failures[0] is None and values[0] == pytest.approx(math.sqrt(math.pi)
                                                                  * math.erf(3.0))
        assert isinstance(failures[1], QuadratureError) and math.isnan(values[1])

    def test_sweep_budget_keeps_the_achieved_estimate(self, monkeypatch):
        # after _MAX_SWEEPS sweeps each problem keeps its estimate, above
        # epsabs or not, with no failure: one call for the starting panels
        # and one per sweep
        monkeypatch.setattr(quadutil, "_MAX_SWEEPS", 2)
        sizes = []
        values, errors, failures = adaptive_gk_batch(
            lambda x, pid: sizes.append(x.size) or _by_problem(x, pid), _EDGES, _EPS)
        exact = [math.sqrt(math.pi) * math.erf(3.0), 2e3 * math.atan(1e3),
                 1.0 - math.sin(160.0) / 160.0]
        assert failures == [None, None, None] and len(sizes) == 3
        assert np.all(np.isfinite(values)) and np.any(errors > _EPS)
        for v, e, ref in zip(values, errors, exact):
            assert abs(v - ref) <= e

    @pytest.mark.parametrize("max_panels, value, error, failure", [
        (2, 1329.7917786517603, 1106.101206349329, None),
        (1, math.nan, math.nan, "panel budget exhausted")],
        ids=["budget_on_the_last_sweep", "budget_before_it"])
    def test_stop_at_the_budget_edge(self, monkeypatch, max_panels, value, error, failure):
        # one sweep splits the one panel in two: a problem that reaches its
        # panel budget on the last sweep keeps its estimate, far above
        # epsabs, with no failure; one that holds it before fails
        monkeypatch.setattr(quadutil, "_MAX_SWEEPS", 1)
        monkeypatch.setattr(quadutil, "_MAX_PANELS", max_panels)
        values, errors, failures = adaptive_gk_batch(
            lambda x, pid: _INTEGRANDS[1](x), _EDGES[1:2], 1e-14)
        np.testing.assert_array_equal([values[0], errors[0]], [value, error])
        assert [f and f.reason for f in failures] == [failure]

    def test_scalar_call_raises_on_budget(self, monkeypatch):
        monkeypatch.setattr(quadutil, "_MAX_PANELS", 12)
        with pytest.raises(QuadratureError, match="panel budget"):
            adaptive_gk(_INTEGRANDS[1], -1.0, 1.0, epsabs=1e-8)

    @pytest.mark.parametrize("edges", [np.empty((0, 3)), [[0.3, 0.3, np.nan]],
                                       [[0.3, np.nan, np.nan], [1.0, 1.0, 1.0]]],
                             ids=["no_problem", "one_edge", "no_panels"])
    def test_problems_without_panels(self, edges):
        # a NaN value and error and no failure, as next to a problem with
        # panels, and no integrand call
        def never(x, pid):
            raise AssertionError("integrand called")

        values, errors, failures = adaptive_gk_batch(never, edges, 1e-8)
        assert failures == [None] * len(edges)
        assert np.isnan(values).all() and np.isnan(errors).all() and values.size == len(edges)


class TestMinimizeBatch:
    def test_problems_do_not_interact(self):
        def f(x, pid):
            return np.where(pid == 0, np.abs(x - 0.3) + 1.0, (x - np.e) ** 2)

        lo, hi, xtol = [-1.0, 0.0], [2.0, 5.0], np.array([1e-10, 1e-3])
        calls = Counted(lambda x: x)
        x, fx = minimize_batch(lambda w, pid: f(calls(w), pid), lo, hi, xtol=xtol)
        assert abs(x[0] - 0.3) <= 1e-10 and abs(x[1] - np.e) <= 1e-3
        for p in range(2):
            alone = minimize_batch(lambda w, _, p=p: f(w, np.full(w.shape, p)), lo[p:p + 1],
                                   hi[p:p + 1], xtol=xtol[p:p + 1])
            assert (x[p], fx[p]) == (alone[0][0], alone[1][0])
        # the looser problem leaves the batch once its bracket is xtol wide
        assert calls.calls[0] == 34 and calls.calls[-1] == 17
