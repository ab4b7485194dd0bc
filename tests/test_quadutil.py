import numpy as np
import pytest

from entrate.quadutil import minimize_scalar


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
