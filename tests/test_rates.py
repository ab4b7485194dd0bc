import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from entrate.closedforms import eta_minus_resonant
from entrate.errors import UnstableSystemError
from entrate.models import EffectiveModelParams, FullModelParams, drift_effective, drift_full
from entrate.rates import (EntanglementSpectrum, _count_local_maxima, _refined_peak,
                           entanglement_rate, fwhm, sample_spectrum, spectral_density,
                           symmetrized_density, to_nats_per_second)

KAPPA = 1.0


def full_drift(g=5.0, Gamma=1e-3, Delta=0.0, delta=0.0):
    return drift_full(FullModelParams(g=g, Gamma=Gamma, kappa=KAPPA,
                                      Delta=Delta, delta=delta))


class TestSpectralDensity:
    def test_zero_coupling(self):
        assert spectral_density(full_drift(g=0.0), 0.7, 50.0) == 0.0

    def test_resonant_values_match_closed_form(self):
        d = full_drift()
        # frozen oracle values of the resonant closed form at C = 2.5e4
        assert spectral_density(d, 0.0, 0.0) == pytest.approx(
            10.81979328442278, rel=1e-9)
        assert spectral_density(d, 0.0, 50.0) == pytest.approx(
            6.206675680806784, rel=1e-9)

    def test_float64_path_close_at_moderate_C(self):
        gamma = 1e-3
        g = math.sqrt(1e3 * KAPPA * gamma)
        d = full_drift(g=g, Gamma=gamma)
        e_ref = -math.log(2 * eta_minus_resonant(1e3, 0.0))
        assert spectral_density(d, 0.0, 0.0) == pytest.approx(e_ref, rel=1e-10)

    def test_vanishes_far_from_resonance(self):
        for (Delta, delta) in [(0.0, 10.0), (-0.2, 10.0), (0.0, 0.0)]:
            d = full_drift(Delta=Delta, delta=delta)
            assert spectral_density(d, 1e3, 50.0) < 1e-6
            assert spectral_density(d, -1e3, 50.0) < 1e-6

    def test_unstable_rejected(self):
        d = drift_effective(EffectiveModelParams(g=5.0, delta=10.0, Delta=-0.5))
        with pytest.raises(UnstableSystemError):
            spectral_density(d, 0.0)


class TestSymmetrizedDensity:
    def test_zero_coupling(self):
        assert symmetrized_density(full_drift(g=0.0), 1.0) == 0.0

    def test_equals_twice_single_side_at_symmetric_point(self):
        d = full_drift(g=1.0, Gamma=1e-3)
        for w in (0.3, 1.0, 2.5):
            e_sym = symmetrized_density(d, w)
            e = spectral_density(d, w)
            assert e_sym == pytest.approx(2 * e, abs=1e-10)

    def test_rejects_non_positive_omega(self):
        with pytest.raises(ValueError):
            symmetrized_density(full_drift(), 0.0)
        with pytest.raises(ValueError):
            symmetrized_density(full_drift(), -1.0)

    def test_one_sided_integral_equals_two_sided(self):
        # change of variables: int_0^inf E_N = int_-inf^inf E
        from scipy.integrate import quad
        gamma = 0.1
        d = full_drift(g=1.0, Gamma=gamma)
        rr = entanglement_rate(d, tol=1e-7)
        one_sided = quad(lambda w: symmetrized_density(d, w), 1e-9, 400.0,
                         limit=400, epsabs=1e-8)[0] / (2 * math.pi)
        assert one_sided == pytest.approx(rr.gamma_E, rel=1e-3)


class TestEntanglementRate:
    def test_zero_coupling(self):
        rr = entanglement_rate(full_drift(g=0.0))
        assert rr.gamma_E == 0.0 and rr.E_max == 0.0 and rr.fwhm == 0.0

    def test_reported_error_bounds_tolerance_change(self):
        d = full_drift(g=1.0, Gamma=1e-3)
        rr = entanglement_rate(d, tol=1e-6)
        rr_half = entanglement_rate(d, tol=5e-7)
        assert abs(rr.gamma_E - rr_half.gamma_E) <= rr.quadrature_error

    def test_temperature_monotonicity(self):
        d = full_drift()
        rates = [entanglement_rate(d, n_th=n).gamma_E for n in (0.0, 50.0, 500.0)]
        assert rates[0] >= rates[1] >= rates[2]
        assert rates[2] > 0

    def test_boundary_point_smaller_rate_than_resonant(self):
        r_res = entanglement_rate(full_drift())
        r_bnd = entanglement_rate(full_drift(Delta=-0.24, delta=10.0))
        assert r_bnd.gamma_E < r_res.gamma_E

    def test_unstable_rejected(self):
        d = drift_effective(EffectiveModelParams(g=5.0, delta=10.0, Delta=-0.5))
        with pytest.raises(UnstableSystemError):
            entanglement_rate(d)

    def test_invalid_tol_rejected(self):
        with pytest.raises(ValueError):
            entanglement_rate(full_drift(), tol=0.0)

    def test_resonant_anchor_peak_statistics(self):
        # E_max is the resonant closed form at C = 2.5e4; float64 cancellation
        # in q used to bias it to 10.906 and the FWHM to 1.690
        rr = entanglement_rate(full_drift(), tol=1e-6)
        assert rr.E_max == pytest.approx(10.81979328442278, rel=1e-9)
        assert rr.fwhm == pytest.approx(1.7047, abs=1e-3)
        assert rr.quadrature_error <= 1e-6

    def test_rate_at_stable_points_next_to_the_boundary(self):
        # effective model: stability margin 7.5e-5; full model: a 25x25
        # rate-map point with max Re(eig) = -4.9e-7
        for d in (drift_effective(EffectiveModelParams(g=5.0, delta=10.0, Delta=-0.2499)),
                  full_drift(Delta=-0.25, delta=10.0)):
            rr = entanglement_rate(d)
            assert rr.gamma_E > 0 and rr.E_max > 0
            assert rr.quadrature_error <= 1e-6

    def test_secondary_peak_counts(self):
        # off mechanical resonance the full model's E[omega] has an optical
        # and a mechanical peak; the effective model has one
        assert entanglement_rate(full_drift(delta=10.0)).secondary_peaks == 1
        d = drift_effective(EffectiveModelParams(g=5.0, delta=10.0, Delta=-0.2))
        assert entanglement_rate(d).secondary_peaks == 0

    def test_effective_model_rate_positive(self):
        d = drift_effective(EffectiveModelParams(g=5.0, delta=10.0))
        rr = entanglement_rate(d, tol=1e-5)
        assert rr.gamma_E > 0
        assert rr.E_max > 0 and rr.fwhm > 0


class TestFwhm:
    def test_triangular_spectrum(self):
        # peak 1 at 0, zeros at +-w: FWHM = w
        w = 0.8
        spec = EntanglementSpectrum(np.array([-w, 0.0, w]), np.array([0.0, 1.0, 0.0]))
        assert fwhm(spec) == pytest.approx(w, rel=1e-12)

    def test_all_zero_raises(self):
        spec = EntanglementSpectrum(np.array([-1.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            fwhm(spec)

    def test_resonant_width_far_exceeds_mechanical_linewidth(self):
        gamma = 1e-3
        rr = entanglement_rate(full_drift(Gamma=gamma))
        assert rr.fwhm > 100 * gamma

    def test_sampled_spectrum_with_evaluator(self):
        d = full_drift(g=1.0, Gamma=1e-3)
        spec = sample_spectrum(d, 0.0, np.linspace(-6.0, 6.0, 201))
        width = fwhm(spec)
        rr = entanglement_rate(d)
        assert width == pytest.approx(rr.fwhm, rel=1e-6)

    def test_width_varies_smoothly_with_mechanical_damping(self):
        # fixed C = 2.5e4, Gamma scanned over [1e-3, 5e-2]
        c = 2.5e4
        gammas = np.geomspace(1e-3, 5e-2, 5)
        widths = []
        for gamma in gammas:
            g = math.sqrt(c * KAPPA * gamma)
            widths.append(entanglement_rate(full_drift(g=g, Gamma=gamma)).fwhm)
        widths = np.array(widths)
        assert np.all(widths > 0)
        steps = np.abs(np.diff(np.log(widths)))
        assert np.all(steps < 1.5)  # no jumps on the log scale
        assert np.all(np.diff(widths) > 0) or np.all(np.diff(widths) < 0)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            EntanglementSpectrum(np.array([0.0, 1.0]), np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            EntanglementSpectrum(np.array([1.0, 0.0]), np.array([1.0, 0.5]))


class TestPeakCount:
    @staticmethod
    def scipy_count(y, e_max):
        if y.size < 3:
            return 1 if np.any(y > 0) else 0
        peaks, _ = find_peaks(y, prominence=max(1e-9, 1e-2 * e_max))
        return max(int(peaks.size), 1)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.one_of(st.lists(st.floats(0.0, 10.0), max_size=40),
                     # small integers: plateaus and equal-height shoulders
                     st.lists(st.integers(0, 3).map(float), max_size=40)),
           st.floats(0.0, 400.0))
    def test_matches_scipy_find_peaks(self, ys, e_max):
        y = np.array(ys, dtype=float)
        assert _count_local_maxima(np.arange(y.size), y, e_max) == self.scipy_count(y, e_max)

    def test_plateau_peak_and_border_plateau(self):
        y = np.array([0.0, 2.0, 2.0, 2.0, 0.0, 1.0, 1.0])
        assert _count_local_maxima(np.arange(7), y, 2.0) == 1


def test_refined_peak_keeps_a_sample_the_search_misses():
    # a spike narrower than the search grid over its neighbours' bracket
    def e(w):
        return np.where(np.abs(w - 1e-3) < 1e-7, 5.0, 1.0 - np.abs(w - 0.5))

    grid = np.array([0.0, 1e-3, 1.0])
    assert _refined_peak(e, grid, e(grid), xtol=1e-10) == (1e-3, 5.0)


def test_rate_unit_conversion():
    assert to_nats_per_second(0.5, 2e6) == pytest.approx(1e6)
