import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrate.errors import UnphysicalStateError
from entrate.gaussian import (CorrelatorTriple, CovarianceMatrix,
                              covariance_from_correlators, log_negativity_general,
                              partial_transpose_signs, symplectic_form, symplectic_spectrum)
from entrate.rates import log_negativity
from mp_reference import squeezed_thermal_log_negativity_mp

COSH2 = math.cosh(2.0) / 2.0
SINH2 = math.sinh(2.0) / 2.0


def physical_triple(r, t1, t2, phi):
    """Two-mode squeezed vacuum plus local thermal noise: always physical."""
    return CorrelatorTriple(0.5 * math.cosh(2 * r) + t1,
                            0.5 * math.cosh(2 * r) + t2,
                            0.5 * math.sinh(2 * r) * complex(math.cos(phi), math.sin(phi)))


class TestCovarianceFromCorrelators:
    def test_vacuum(self):
        v = covariance_from_correlators(CorrelatorTriple(0.5, 0.5, 0.0))
        np.testing.assert_allclose(v.entries, 0.5 * np.eye(4), atol=0)

    def test_layout_matches_convention(self):
        t = CorrelatorTriple(1.0, 2.0, 0.25 + 0.5j)
        v = covariance_from_correlators(t).entries
        assert v[0, 0] == v[1, 1] == 1.0
        assert v[2, 2] == v[3, 3] == 2.0
        assert v[0, 2] == 0.25 and v[0, 3] == 0.5
        assert v[1, 2] == 0.5 and v[1, 3] == -0.25
        np.testing.assert_allclose(v, v.T, atol=0)

    def test_two_mode_squeezed_vacuum_is_pure(self):
        v = covariance_from_correlators(CorrelatorTriple(COSH2, COSH2, SINH2))
        np.testing.assert_allclose(symplectic_spectrum(v), [0.5, 0.5], atol=1e-12)

    def test_high_cooperativity_pt_eigenvalue_matches_closed_form(self):
        # general-path PT spectrum vs the resonant closed form; the absolute
        # eigensolver error is ~norm(V)*eps, so at n ~ 4e6 the small
        # eigenvalue carries a ~1e-9 absolute (~1e-5 relative) uncertainty
        from entrate.closedforms import (eta_minus_resonant,
                                         full_model_correlators_resonant)
        g, kappa, Gamma = 1.0, 1.0, 1e-3
        t = full_model_correlators_resonant(g, kappa, Gamma, 0.0, 0.0, 0.0)
        v = covariance_from_correlators(t)
        signs = partial_transpose_signs(v.mode_partition)
        vt = signs[:, None] * v.entries * signs[None, :]
        nu_min = symplectic_spectrum(vt).min()
        assert nu_min == pytest.approx(eta_minus_resonant(1e3, 0.0), rel=1e-4)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CorrelatorTriple(math.nan, 0.5, 0.0)
        with pytest.raises(ValueError):
            CorrelatorTriple(0.5, math.inf, 0.0)


class TestSymplecticSpectrum:
    def test_vacuum(self):
        np.testing.assert_allclose(symplectic_spectrum(0.5 * np.eye(4)), [0.5, 0.5])

    def test_decoupled_thermal_modes(self):
        np.testing.assert_allclose(symplectic_spectrum(np.diag([1.0, 1.0, 2.0, 2.0])),
                                   [1.0, 2.0], rtol=1e-12)

    def test_rejects_non_symmetric(self):
        v = 0.5 * np.eye(4)
        v[0, 1] = 0.3
        with pytest.raises(ValueError):
            symplectic_spectrum(v)

    def test_invariant_under_single_mode_phase_rotation(self):
        rng = np.random.default_rng(3)
        t = physical_triple(1.2, 0.7, 0.1, 0.9)
        v = covariance_from_correlators(t).entries
        for _ in range(5):
            theta = rng.uniform(0, 2 * math.pi)
            rot = np.eye(4)
            rot[:2, :2] = [[math.cos(theta), math.sin(theta)],
                           [-math.sin(theta), math.cos(theta)]]
            v_rot = rot @ v @ rot.T
            np.testing.assert_allclose(symplectic_spectrum(v_rot),
                                       symplectic_spectrum(v), atol=1e-10)

    def test_symplectic_form_properties(self):
        j = symplectic_form(3)
        np.testing.assert_allclose(j @ j, -np.eye(6), atol=0)
        np.testing.assert_allclose(j.T, -j, atol=0)


def excesses(r, t1, t2, phi):
    """(nu_plus, nu_minus, xi, q - 1/4) of physical_triple, without
    cancellation: nu = sinh^2 r + t, |xi|^2 = sinh^2 r (1 + sinh^2 r)."""
    sh2 = math.sinh(r) ** 2
    return (sh2 + t1, sh2 + t2, 0.5 * math.sinh(2 * r) * complex(math.cos(phi), math.sin(phi)),
            0.5 * (t1 + t2) + t1 * t2 + sh2 * (t1 + t2))


def excess_form(nu_plus, nu_minus, xi, q_excess):
    return float(log_negativity(nu_plus, nu_minus, xi, q_excess))


excess_sets = st.builds(excesses, st.floats(0.0, 2.0), st.floats(0.0, 3.0),
                        st.floats(0.0, 3.0), st.floats(0.0, 2.0 * math.pi))


class TestLogNegativityTwoMode:
    """rates.log_negativity, the excess form that the runtime uses."""

    def test_vacuum_is_zero(self):
        assert excess_form(0.0, 0.0, 0j, 0.0) == 0.0

    def test_two_mode_squeezed_value(self):
        # squeezing parameter r gives exactly 2r
        for r in (0.5, 1.0, 4.0, 8.0):
            assert excess_form(*excesses(r, 0.0, 0.0, 0.4)) == pytest.approx(2.0 * r, rel=1e-14)

    def test_high_cooperativity_value(self):
        # resonant output pair at C = 2.5e4, n_th = 0: nu_plus = 4C^2,
        # nu_minus = 4C + 4C^2, xi = -4C(C + 1/2) and q - 1/4 = 2C, the sum
        # that the kernel forms without cancellation
        c = 2.5e4
        e = excess_form(4 * c ** 2, 4 * c + 4 * c ** 2, complex(-4 * c * (c + 0.5)), 2 * c)
        assert e == pytest.approx(10.81979328442278, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(excess_sets)
    def test_non_negative_and_zero_iff_separable(self, ex):
        nu_plus, nu_minus, xi, _ = ex
        e = excess_form(*ex)
        assert e >= 0.0
        n_plus, n_minus = nu_plus + 0.5, nu_minus + 0.5
        two_eta = n_plus + n_minus - math.hypot(n_plus - n_minus, 2 * abs(xi))
        if two_eta >= 1.0 + 1e-12:
            assert e == 0.0
        elif two_eta <= 1.0 - 1e-12:
            assert e > 0.0

    @settings(max_examples=100, deadline=None)
    @given(excess_sets, st.floats(1.001, 1.5))
    def test_monotone_in_cross_correlator(self, ex, scale):
        nu_plus, nu_minus, xi, q_excess = ex
        q_bigger = q_excess - (scale ** 2 - 1.0) * abs(xi) ** 2
        # uncertainty relation of this state: q - 1/4 >= |nu_plus - nu_minus| / 2
        if q_bigger < 0.5 * abs(nu_plus - nu_minus):
            return
        assert excess_form(nu_plus, nu_minus, xi * scale, q_bigger) >= excess_form(*ex) - 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(0.0, 8.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
           st.floats(0.0, 2.0 * math.pi))
    def test_matches_general_path_with_strong_squeezing(self, r, t1, t2, phi):
        # the float64 general path loses digits as the covariance grows
        # like e^2r (off by 1e-2 at r = 8), so the reference is the general
        # path at 50 digits from the exact parameters
        assert abs(excess_form(*excesses(r, t1, t2, phi))
                   - squeezed_thermal_log_negativity_mp(r, t1, t2, phi)) <= 1e-10


class TestLogNegativityGeneral:
    def test_vacuum_eight_dim(self):
        assert log_negativity_general(0.5 * np.eye(8), partition=(1, 1, 2, 2)) == 0.0

    def test_matches_fast_path_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            params = (rng.uniform(0, 2), rng.uniform(0, 3), rng.uniform(0, 3),
                      rng.uniform(0, 2 * math.pi))
            fast = excess_form(*excesses(*params))
            slow = log_negativity_general(covariance_from_correlators(physical_triple(*params)))
            assert abs(fast - slow) < 1e-10

    def test_additive_over_decoupled_pairs(self):
        t = CorrelatorTriple(COSH2, COSH2, SINH2)
        v4 = covariance_from_correlators(t).entries
        v8 = np.zeros((8, 8))
        v8[:4, :4] = v4
        v8[4:, 4:] = v4
        e = log_negativity_general(v8, partition=(1, 2, 1, 2))
        assert e == pytest.approx(4.0, abs=1e-10)

    def test_rejects_unphysical(self):
        with pytest.raises(UnphysicalStateError):
            log_negativity_general(0.3 * np.eye(4), partition=(1, 2))
        # V has eigenvalues -0.5 and 1.5, yet the moduli of the eigenvalues
        # of iJV (0.866) clear the vacuum floor: no Cholesky factor, so
        # neither entry point gets as far as a spectrum
        v = covariance_from_correlators(CorrelatorTriple(0.5, 0.5, 1.0))
        for call in (lambda: log_negativity_general(v), lambda: symplectic_spectrum(v),
                     lambda: log_negativity_general(np.array(v.entries), (1, 2)),
                     lambda: symplectic_spectrum(np.array(v.entries))):
            with pytest.raises(UnphysicalStateError, match="not positive definite"):
                call()

    def test_strong_squeezing_with_thermal_noise(self):
        # r = 8 with 1e-3 thermal noise on one beam is a physical state: the
        # general path gives its E to ~1e-7 relative, the rounding of a
        # float64 V (|V| ~ 2e6) against eta_- ~ 5e-4
        sh2 = math.sinh(8.0) ** 2
        t = CorrelatorTriple(0.5 + sh2 + 1e-3, 0.5 + sh2, 0.5 * math.sinh(16.0))
        e = log_negativity_general(covariance_from_correlators(t))
        fast = excess_form(sh2 + 1e-3, sh2, complex(0.5 * math.sinh(16.0)), 0.5e-3 + 1e-3 * sh2)
        assert fast == pytest.approx(6.9076428, rel=1e-7)
        assert e == pytest.approx(fast, rel=1e-6)

    def test_partition_required_for_ndarray(self):
        with pytest.raises(ValueError):
            log_negativity_general(0.5 * np.eye(4))

    def test_covariance_matrix_validation(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(3), (1, 2))
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(4), (1, 3))
