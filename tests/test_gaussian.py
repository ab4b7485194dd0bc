import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrate.errors import UnphysicalStateError
from entrate.gaussian import (CorrelatorTriple, CovarianceMatrix,
                              covariance_from_correlators, log_negativity_general,
                              log_negativity_two_mode, partial_transpose_signs,
                              symplectic_form, symplectic_spectrum)

COSH2 = math.cosh(2.0) / 2.0
SINH2 = math.sinh(2.0) / 2.0


def physical_triple(r, t1, t2, phi):
    """Two-mode squeezed vacuum plus local thermal noise: always physical."""
    return CorrelatorTriple(0.5 * math.cosh(2 * r) + t1,
                            0.5 * math.cosh(2 * r) + t2,
                            0.5 * math.sinh(2 * r) * complex(math.cos(phi), math.sin(phi)))


triples = st.builds(physical_triple,
                    st.floats(0.0, 2.0), st.floats(0.0, 3.0),
                    st.floats(0.0, 3.0), st.floats(0.0, 2.0 * math.pi))


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


class TestLogNegativityTwoMode:
    def test_vacuum_is_zero(self):
        assert log_negativity_two_mode(CorrelatorTriple(0.5, 0.5, 0.0)) == 0.0

    def test_two_mode_squeezed_value(self):
        # squeezing parameter r gives exactly 2r
        t = CorrelatorTriple(COSH2, COSH2, SINH2)
        assert log_negativity_two_mode(t) == pytest.approx(2.0, rel=1e-12)

    def test_high_cooperativity_value(self):
        # triple of the resonant model at C = 2.5e4: frozen closed-form value.
        # A float64 triple of magnitude n determines E only to ~eps*n/(2 eta),
        # about 3e-4 here; the 1e-9-grade comparison (acceptance criterion 1)
        # goes through correlator_batch, whose q needs no subtraction.
        c = 2.5e4
        t = CorrelatorTriple(4 * c ** 2 + 0.5, 4 * c + 4 * c ** 2 + 0.5,
                             -4 * c * (c + 0.5))
        assert log_negativity_two_mode(t) == pytest.approx(10.81979328442278,
                                                           rel=1e-3)

    def test_unphysical_raises(self):
        with pytest.raises(UnphysicalStateError):
            log_negativity_two_mode(CorrelatorTriple(0.5, 0.5, 1.0))

    @settings(max_examples=150, deadline=None)
    @given(triples)
    def test_non_negative_and_zero_iff_separable(self, t):
        e = log_negativity_two_mode(t)
        assert e >= 0.0
        s = t.n_plus + t.n_minus
        two_eta = s - math.hypot(t.n_plus - t.n_minus, 2 * abs(t.xi))
        if two_eta >= 1.0 + 1e-12:
            assert e == 0.0
        elif two_eta <= 1.0 - 1e-12:
            assert e > 0.0

    @settings(max_examples=100, deadline=None)
    @given(triples, st.floats(1.001, 1.5))
    def test_monotone_in_cross_correlator(self, t, scale):
        bigger = CorrelatorTriple(t.n_plus, t.n_minus, t.xi * scale)
        if not bigger.is_physical():
            return
        assert (log_negativity_two_mode(bigger)
                >= log_negativity_two_mode(t) - 1e-12)


class TestLogNegativityGeneral:
    def test_vacuum_eight_dim(self):
        assert log_negativity_general(0.5 * np.eye(8), partition=(1, 1, 2, 2)) == 0.0

    def test_matches_fast_path_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = physical_triple(rng.uniform(0, 2), rng.uniform(0, 3),
                                rng.uniform(0, 3), rng.uniform(0, 2 * math.pi))
            fast = log_negativity_two_mode(t)
            slow = log_negativity_general(covariance_from_correlators(t))
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

    def test_partition_required_for_ndarray(self):
        with pytest.raises(ValueError):
            log_negativity_general(0.5 * np.eye(4))

    def test_covariance_matrix_validation(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(3), (1, 2))
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(4), (1, 3))
