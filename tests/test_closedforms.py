import math

import pytest

from entrate.gaussian import covariance_from_correlators, symplectic_spectrum
from entrate.closedforms import (eta_minus_resonant, full_model_correlators_resonant,
                                 pair_rate_closed)
from paper_helpers import (compare_schemes, enhancement_factors, triple_log_negativity,
                           two_mode_scheme_correlators)

KAPPA = 1.0


def eta_minus_resonant_naive(C: float, n_th: float) -> float:
    """Direct evaluation of the resonant eta_minus expression; kept for
    cross-checking the stable form at moderate C."""
    P = C + n_th + 0.5
    return 4.0 * C * P + 0.5 - 2.0 * C * math.sqrt(1.0 + 4.0 * P * P)


class TestEtaMinusResonant:
    def test_weak_drive_limit(self):
        assert eta_minus_resonant(1e-12, 0.0) == pytest.approx(0.5, rel=1e-9)
        assert eta_minus_resonant(1e-12, 7.0) == pytest.approx(0.5, rel=1e-9)

    def test_frozen_values(self):
        assert eta_minus_resonant(2.5e4, 0.0) == pytest.approx(9.99985000100003e-06,
                                                               rel=1e-12)
        assert eta_minus_resonant(2.5e4, 50.0) == pytest.approx(1.0079639625941701e-3,
                                                                rel=1e-12)

    def test_series_cross_check_at_large_C(self):
        # leading order eta ~ (n_th + 1/2) / (2 (C + n_th + 1/2))
        for c, n_th in [(2.5e4, 0.0), (2.5e4, 50.0), (1e6, 3.0)]:
            approx = (n_th + 0.5) / (2.0 * (c + n_th + 0.5))
            assert eta_minus_resonant(c, n_th) == pytest.approx(approx, rel=1e-3)

    def test_naive_form_agrees_at_moderate_C(self):
        for c in (0.1, 1.0, 10.0, 50.0):
            for n_th in (0.0, 3.0, 50.0):
                assert eta_minus_resonant(c, n_th) == pytest.approx(
                    eta_minus_resonant_naive(c, n_th), rel=1e-9)

    def test_naive_form_loses_digits_at_large_C(self):
        # the conjugate-multiplied form exists precisely because of this
        c, n_th = 2.5e4, 0.0
        rel = abs(eta_minus_resonant_naive(c, n_th) - eta_minus_resonant(c, n_th)
                  ) / eta_minus_resonant(c, n_th)
        assert rel > 1e-8

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            eta_minus_resonant(-1.0, 0.0)
        with pytest.raises(ValueError):
            eta_minus_resonant(1.0, -1.0)


class TestPairRateClosed:
    def test_zero_coupling(self):
        assert pair_rate_closed(0.0, KAPPA, 10.0) == 0.0

    def test_reference_values(self):
        assert pair_rate_closed(5.0, KAPPA, 10.0, 0.0) == pytest.approx(0.78125)
        assert pair_rate_closed(5.0, KAPPA, 10.0, -0.2) == pytest.approx(4.8828125)

    def test_diverges_towards_boundary(self):
        vals = [pair_rate_closed(5.0, KAPPA, 10.0, dd) for dd in (-0.1, -0.2, -0.24)]
        assert vals[0] < vals[1] < vals[2]

    def test_rejects_unstable_side(self):
        with pytest.raises(ValueError):
            pair_rate_closed(5.0, KAPPA, 10.0, -0.5)
        with pytest.raises(ValueError):
            pair_rate_closed(5.0, KAPPA, 0.0, 0.0)


class TestFullModelResonantCorrelators:
    def test_vacuum_at_zero_coupling(self):
        t = full_model_correlators_resonant(0.0, KAPPA, 1e-3, 10.0, 50.0, 3.0)
        assert (t.n_plus, t.n_minus, t.xi) == (0.5, 0.5, 0.0)

    def test_reduction_at_zero_frequency(self):
        # omega = delta = 0 gives n+ = 4 C n_th + 4 C^2 + 1/2 etc.
        g, gamma = 5.0, 1e-3
        c = g * g / (KAPPA * gamma)
        for n_th in (0.0, 50.0):
            t = full_model_correlators_resonant(g, KAPPA, gamma, 0.0, n_th, 0.0)
            assert t.n_plus == pytest.approx(4 * c * n_th + 4 * c * c + 0.5, rel=1e-12)
            assert t.n_minus == pytest.approx(4 * c * (n_th + 1) + 4 * c * c + 0.5,
                                              rel=1e-12)
            assert t.xi == pytest.approx(-4 * c * (c + n_th + 0.5), rel=1e-12)

    def test_eta_matches_dedicated_form(self):
        # smaller PT symplectic eigenvalue equals the resonant eta expression.
        # The achievable agreement through float64 triples degrades with C as
        # ~eps*C^2/(n_th + 1/2) from the n+ n- - |xi|^2 cancellation, so the
        # tolerance is C-dependent; the exact algebraic identity is exercised
        # at 1e-9 grade by acceptance criterion 1 on the cancellation-free
        # float64 kernel.
        gamma = 1e-3
        for c, rel in ((1.0, 1e-12), (1e3, 1e-5), (2.5e4, 1e-2)):
            g = math.sqrt(c * KAPPA * gamma)
            c_val = g * g / (KAPPA * gamma)
            for n_th in (0.0, 50.0, 500.0):
                t = full_model_correlators_resonant(g, KAPPA, gamma, 0.0, n_th, 0.0)
                e = triple_log_negativity(t)
                e_ref = -math.log(2 * eta_minus_resonant(c_val, n_th))
                assert e == pytest.approx(e_ref, rel=rel)

    def test_mechanical_resonance_sits_at_delta(self):
        g, gamma, delta, n_th = 5.0, 1e-3, 10.0, 50.0
        at_delta = full_model_correlators_resonant(g, KAPPA, gamma, delta, n_th, delta)
        off = full_model_correlators_resonant(g, KAPPA, gamma, delta, n_th, delta + 0.5)
        assert at_delta.n_plus > 100 * off.n_plus


class TestTwoModeScheme:
    def test_vacuum_at_zero_coupling(self):
        t = two_mode_scheme_correlators(0.0, KAPPA, 1e-3, 100.0, 7.0)
        assert (t.n_plus, t.n_minus, t.xi) == (0.5, 0.5, 0.0)

    def test_spontaneous_emission_asymmetry(self):
        g, gamma, omega_m = 0.3, 1e-2, 100.0
        for n_th in (0.0, 10.0):
            t = two_mode_scheme_correlators(g, KAPPA, gamma, omega_m, n_th)
            expected = 2 * KAPPA * g ** 2 / ((omega_m ** 2 + 0.25) * (gamma / 2))
            assert t.n_minus - t.n_plus == pytest.approx(expected, rel=1e-12)

    def test_physical(self):
        t = two_mode_scheme_correlators(0.3, KAPPA, 1e-2, 100.0, 5.0)
        assert symplectic_spectrum(covariance_from_correlators(t)).min() >= 0.5
        assert triple_log_negativity(t) > 0


class TestEnhancementFactors:
    def test_factors_coincide_at_zero_mismatch(self):
        f = enhancement_factors(100.0, KAPPA, 0.0)
        assert f.vs_two_mode == pytest.approx(f.vs_three_mode, rel=1e-12)
        assert f.vs_three_mode == pytest.approx(1.6e9, rel=1e-12)

    def test_two_mode_factor_value(self):
        # Omega = 100k, delta = 10k: 1e8 / (100.25)^2
        f = enhancement_factors(100.0, KAPPA, 10.0)
        assert f.vs_two_mode == pytest.approx(9950.18687694728, rel=1e-12)

    def test_positive(self):
        f = enhancement_factors(30.0, KAPPA, 5.0)
        assert f.vs_two_mode > 0 and f.vs_three_mode > 0

    def test_compare_schemes_assembles(self):
        r = compare_schemes(g=0.3, kappa=KAPPA, Gamma=1e-2, Omega=100.0, delta=10.0)
        assert r.our_coherent_intensity > 0
        assert r.two_mode_coherent_intensity > 0
        assert r.enhancement_vs_two_mode == pytest.approx(9950.18687694728, rel=1e-12)
        assert r.enhancement_vs_three_mode == pytest.approx(1.6e9, rel=1e-12)
        assert r.Omega == 100.0
