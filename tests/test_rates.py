import math
import random
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from entrate.closedforms import eta_minus_resonant
from entrate.errors import QuadratureError, UnstableSystemError
from entrate.models import (DriftMatrix, EffectiveModelParams, FullModelParams, beam_blocks,
                            drift_effective, drift_full, stability, stability_gate)
from entrate import quadutil, rates, scattering
from entrate.quadutil import bisect_all
from entrate.rates import (_beam_polynomials, _count_local_maxima, _density, _fwhms,
                           _panel_edges, _roots, _scale, _stationary, entanglement_rate,
                           spectral_density, spectral_density_batch, spectrum_and_density,
                           spectrum_peak)
from entrate.scattering import BeamBlocks, correlator_batch, spectrum_parts
from entrate.sweep import SweepAxis, SweepConfig, run_sweep
from doubled_reference import BEAM, doubled_drift
from fwhm_reference import fwhm_by_bisection
from gated_batch import batch_rates, gated
from grid_reference import frequency_grid
from lu_reference import scattering_matrices
from mp_reference import correlators_mp, reference_point
from peak_reference import (candidate_peak_count, count_local_maxima, hysteresis_count,
                            r_polynomial, refined_peaks, stationary_peaks)
from paper_helpers import symmetrized_density, to_nats_per_second
from strategies import drift_of, full_points, stable_drifts, stable_points
import workloads

KAPPA = 1.0
_RATE_FIELDS = ("gamma_E", "E_max", "omega_max", "fwhm", "quadrature_error", "secondary_peaks")


def full_params(g=5.0, Gamma=1e-3, Delta=0.0, delta=0.0):
    return FullModelParams(g=g, Gamma=Gamma, kappa=KAPPA, Delta=Delta, delta=delta)


def full_drift(**kwargs):
    return drift_full(full_params(**kwargs))


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

    def test_one_pass_spectrum_equals_the_two_passes(self):
        # more points than one kernel chunk
        omegas = np.linspace(-3.0, 13.0, 2501)
        for d, n_th in [(full_drift(delta=10.0), 50.0),
                        (drift_effective(EffectiveModelParams(g=5.0, delta=10.0, Delta=-0.2)),
                         0.0)]:
            optical, mechanical, e = spectrum_and_density(d, omegas, n_th)
            parts = spectrum_parts(d, omegas, n_th)
            assert np.array_equal(optical, parts[0]) and np.array_equal(mechanical, parts[1])
            assert np.array_equal(e, spectral_density_batch(d, omegas, n_th))


class TestExcessForm:
    @pytest.mark.parametrize("g, delta, Delta", [(2.0, -8.0, 0.3), (5.0, 10.0, -0.2499),
                                                 (0.5, 30.0, 1.0)])
    def test_effective_e_is_twice_asinh_of_s_plus_minus(self, g, delta, Delta):
        # the effective output pair is a pure two-mode squeezed state, so
        # E = 2 asinh|s_+-| with no cancellation; formed from n+- with their
        # 1/2, E rounded to 0 beyond |omega| ~ 1e8. |s_+-| comes from an LU
        # solve of the doubled-basis S; 1e-4 from the boundary that solve is
        # off by up to 8e-15 in E, so there E is checked against the
        # 50-digit reference instead
        p = EffectiveModelParams(g=g, delta=delta, Delta=Delta)
        d, doubled = drift_effective(p), doubled_drift(p)
        w = np.geomspace(1e-3, 1e10, 80)
        w = np.concatenate([-w[::-1], [0.0], w])
        if Delta == -0.2499:
            exact = np.array([reference_point(doubled, x)[1] for x in w])
        else:
            plus, minus = BEAM[:2]
            s_pm = scattering_matrices(doubled, w)[:, plus, minus]
            exact = 2.0 * np.arcsinh(np.abs(s_pm))
        e = spectral_density_batch(d, w)
        assert np.all(e > 0)
        np.testing.assert_allclose(e, exact, rtol=1e-15, atol=0.0)


class TestWholeLineAndCrossings:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stable_points())
    def test_positive_everywhere_exact_identity_and_root_fwhm(self, point):
        p, n_th = point
        d = drift_of(p)
        probes = np.concatenate([frequency_grid(d), [-1e6, 1e6]])
        e = spectral_density_batch(d, probes, n_th)
        assert np.all(e > 0)
        # the same drift with every coupling removed: E = +0.0 everywhere
        uncoupled = DriftMatrix(np.diag(np.diag(d.m)), d.decay)
        e0 = spectral_density_batch(uncoupled, probes, n_th)
        assert np.all(e0 == 0) and not np.any(np.signbit(e0))

        # K |det|^-2 = 2 (nu+ + nu- - 2 (q - 1/4)), with K from the adjugate,
        # |det|^2 from the kernel's own characteristic polynomial and the
        # correlators from the 50-digit reference (the kernel's own triple
        # holds the identity by construction), at every 24th probe and both ends
        blocks = BeamBlocks.of(d, n_th)
        s = np.array([_scale(np.linalg.eigvals(d.m), d.decay.max())])
        polys = _beam_polynomials(blocks, s)
        sample = np.concatenate([probes[:-2:24], probes[-2:]])
        doubled = doubled_drift(p)
        nu_sum, rhs = [], []
        with mp.workdps(50):
            for w in sample:
                n_plus, n_minus, xi = correlators_mp(doubled, w, n_th)
                q_excess = n_plus * n_minus - (xi.real ** 2 + xi.imag ** 2) - mp.mpf(0.25)
                nu_sum.append(float(n_plus + n_minus - 1))
                rhs.append(float(2 * (n_plus + n_minus - 1 - 2 * q_excess)))
        det2 = np.abs(np.polyval(blocks.char[0], 1j * sample)) ** 2
        lhs = polys[2][0] / det2
        assert np.all(np.abs(lhs - np.array(rhs)) <= 1e-12 * np.array(nu_sum))

        # the sampled scan and zoom as the peak reference: the stationary
        # point is at least as high, up to the kernel's 1e-12 round-off at
        # both points
        (omega_max,), (e_max,) = refined_peaks(lambda w, _: spectral_density_batch(d, w, n_th),
                                               [probes[:-2]], [e[:-2]], xtol=1e-10)
        assert entanglement_rate(d, n_th).E_max >= e_max - 2e-12 * max(1.0, e_max)
        # NaN starts: the crossings are found afresh
        fresh = np.full((1, 2, 2), np.nan), np.full((1, 2, 2), np.nan)
        (width,) = _fwhms(blocks, s, polys, np.array([omega_max]), np.array([e_max]), fresh)
        assert np.isfinite(width)
        assert abs(width - fwhm_by_bisection(d, n_th, omega_max, e_max)) <= 2e-9

    def test_non_reciprocal_block_rejected(self):
        d = full_drift(delta=10.0)
        m = np.array(d.m)
        m[0, 2] *= 2.0             # a+ <- b no longer matches b <- a+
        bad = DriftMatrix(m, d.decay)
        # the Gram form of E rests on reciprocity, so every E path checks it
        for call in (lambda: entanglement_rate(bad), lambda: spectral_density(bad, 0.3),
                     lambda: spectral_density_batch(bad, np.array([0.0, 0.3])),
                     lambda: spectrum_and_density(bad, np.array([0.0, 0.3]))):
            with pytest.raises(ValueError, match="not reciprocal"):
                call()

    def test_non_reciprocal_message_prints_plain_signs(self):
        # J as plain floats, not numpy scalars' reprs, for both block sizes
        for d, signs in ((full_drift(delta=10.0), "1.0, -1.0, 1.0"),
                         (drift_effective(EffectiveModelParams(g=2.0, delta=-8.0, Delta=0.3)),
                          "1.0, -1.0")):
            m = np.array(d.m)
            m[0, -1] *= 2.0
            with pytest.raises(ValueError) as exc:
                spectral_density(DriftMatrix(m, d.decay), 0.3)
            assert str(exc.value) == f"beam block is not reciprocal (m^T != J m J, J = diag({signs}))"

    def test_no_overflow_warning_at_huge_n_th(self):
        # S^2 of the Gram density overflows at n_th = 1e200, where r = 0 is
        # right: no RuntimeWarning, and E stays finite and positive; so does
        # Gamma_E alone, whose quadrature needs no peak polynomials
        d, omegas = full_drift(), np.array([-15.0, 0.0, 15.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = spectral_density_batch(d, omegas, 1e200)
            *_, e_with_spectrum = spectrum_and_density(d, omegas, 1e200)
            e_at_zero = spectral_density(d, 0.0, 1e200)
            rate, failures = rates._rates(BeamBlocks.of(d, 1e200), 1e-6, ["gamma_E"])
        assert np.isfinite(e).all() and (e > 0).all()
        assert e.tobytes() == e_with_spectrum.tobytes() and e_at_zero == e[1]
        assert list(rate) == list(failures) == ["gamma_E", "quadrature_error"]
        assert failures == {"gamma_E": {}, "quadrature_error": {}}
        assert rate["gamma_E"][0] == pytest.approx(6.25e-197, rel=1e-12)


def _full_near_boundary(distance):
    # g = 5, delta = 10: Delta at `distance` inside the stable side of the
    # instability edge near Delta = -0.25
    def margin(deltas):
        return np.array([stability(full_drift(Delta=x, delta=10.0)).max_real_part
                         for x in deltas])
    edge = bisect_all(margin, np.array([-0.3]), np.array([-0.2]), xtol=1e-15)[0]
    return full_params(Delta=edge + distance, delta=10.0)


def _effective_near_boundary(distance):
    p = EffectiveModelParams(g=5.0, delta=10.0, Delta=-0.25 + distance)
    assert -1.1 * distance < stability(drift_effective(p)).max_real_part < 0
    return p


_HARD_POINTS = [
    lambda: full_params(),
    lambda: full_params(g=math.sqrt(3e3 * 1e-3), delta=0.02, Delta=-1e-3),
    lambda: _full_near_boundary(1e-4), lambda: _full_near_boundary(1e-5),
    lambda: _effective_near_boundary(1e-4), lambda: _effective_near_boundary(1e-5)]
_HARD_IDS = ["anchor", "C3e3", "full_1e-4", "full_1e-5", "effective_1e-4", "effective_1e-5"]


@pytest.mark.parametrize("make", _HARD_POINTS, ids=_HARD_IDS)
def test_rate_within_reported_error_of_tight_reference(make):
    d = drift_of(make())
    rr = entanglement_rate(d, tol=1e-6)
    ref = entanglement_rate(d, tol=1e-11)
    assert rr.quadrature_error <= 1e-6
    assert abs(rr.gamma_E - ref.gamma_E) <= rr.quadrature_error + 1e-6


@pytest.mark.parametrize("make", _HARD_POINTS, ids=_HARD_IDS)
def test_kernel_matches_extended_precision_at_hard_points(make):
    # the adjugate kernel against the 50-digit doubled-basis pipeline, at
    # the peak and on both flanks and tails; 1e-4 from the boundary this
    # needs det m exact (measured within 5e-16 of the reference)
    p = make()
    d = drift_of(p)
    omegas = np.array([0.0, entanglement_rate(d).omega_max, 0.3, -0.3, 1.0, -1.0,
                       4.0, -12.0, 100.0])
    for omega, e in zip(omegas, spectral_density_batch(d, omegas)):
        _, e_ref = reference_point(doubled_drift(p), omega)
        assert abs(e - e_ref) <= 1e-14 * e_ref


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


class TestKappaScaling:
    """Outputs are in the units of the rates given: scaling every rate,
    kappa and tol with it, by c scales every output rate and frequency by c
    and leaves E_max and the peak count as they are. c = 2 and 1/2 scale
    exactly in float64."""

    @staticmethod
    def scaled(c, model, rates_, n_th=0.0):
        p = {"full": FullModelParams, "effective": EffectiveModelParams}[model](
            kappa=c, **{name: value * c for name, value in rates_.items()})
        return p, entanglement_rate(drift_of(p), n_th=n_th, tol=1e-6 * c)

    @staticmethod
    def per_unit(c, rr):
        return [getattr(rr, f) if f in ("E_max", "secondary_peaks") else getattr(rr, f) / c
                for f in _RATE_FIELDS]

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_full_model(self, c):
        rates_ = {"g": 0.3, "Gamma": 0.1, "delta": 0.5, "Delta": -0.2}
        _, one = self.scaled(1.0, "full", rates_, n_th=2.0)
        _, rr = self.scaled(c, "full", rates_, n_th=2.0)
        assert one.omega_max != 0.0 and one.E_max > 0
        assert self.per_unit(c, rr) == self.per_unit(1.0, one)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_effective_model(self, c):
        rates_ = {"g": 2.0, "delta": -8.0, "Delta": 0.3}
        p1, one = self.scaled(1.0, "effective", rates_)
        p, rr = self.scaled(c, "effective", rates_)
        assert self.per_unit(c, rr) == self.per_unit(1.0, one)
        assert scattering.pair_rate_numeric(p) / c == scattering.pair_rate_numeric(p1)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_resonant_high_cooperativity_to_round_off(self, c):
        # at C = 2.5e4, delta = Delta = 0 the block has a nearly double
        # eigenvalue at -kappa/2 (split by ~sqrt(eps)), whose LAPACK solve
        # moves by ~1e-8 relative with the scale, and the panel edges with
        # it: Gamma_E is off by about one ulp and the error estimate by
        # ~5e-9 relative; the peak is exact
        rates_ = {"g": 5.0, "Gamma": 1e-3}
        _, one = self.scaled(1.0, "full", rates_, n_th=2.0)
        _, rr = self.scaled(c, "full", rates_, n_th=2.0)
        got, expected = self.per_unit(c, rr), self.per_unit(1.0, one)
        assert got[1:4] + got[5:] == expected[1:4] + expected[5:]
        assert got[0] == pytest.approx(expected[0], rel=1e-15, abs=0.0)
        assert got[4] == pytest.approx(expected[4], rel=1e-7)


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

    @pytest.mark.parametrize("Delta, secondary", [(0.1754, 0), (0.24, 1)])
    def test_equal_mirror_peaks_count_by_their_dip(self, Delta, secondary):
        # E is even in omega on the effective model: two equal peaks either
        # side of omega = 0, whose dip (E_max - E(0)) / E_max is 3.4e-10 at
        # Delta = 0.1754, under the 1% prominence floor, and above it at 0.24
        d = drift_effective(EffectiveModelParams(g=5.0, delta=10.0, Delta=Delta))
        rr = entanglement_rate(d)
        assert rr.omega_max > 0
        dip = (rr.E_max - spectral_density(d, 0.0)) / rr.E_max
        assert (dip >= 1e-2) == bool(secondary)
        assert rr.secondary_peaks == secondary

    @staticmethod
    def whole_line_reference(d, n_th=0.0):
        # scipy quad over every cell of the resonance grid plus both infinite
        # tails, on the same float64 E
        from scipy.integrate import quad

        def f(w):
            return float(spectral_density_batch(d, np.array([w]), n_th)[0])

        pts = frequency_grid(d)
        total = math.fsum(quad(f, a, b, epsabs=1e-15, epsrel=1e-14, limit=200)[0]
                          for a, b in zip(pts[:-1], pts[1:]))
        total += quad(f, pts[-1], np.inf, epsabs=1e-15, limit=400)[0]
        total += quad(f, -np.inf, pts[0], epsabs=1e-15, limit=400)[0]
        return total / (2 * math.pi)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("d, tol", [
        # a truncated window with a power-law tail estimate missed 1.4e-9 here,
        # 30x its reported error
        (drift_effective(EffectiveModelParams(g=2.0, delta=-8.0, Delta=0.3)), 1e-10),
        (full_drift(), 1e-6),
        (full_drift(delta=10.0), 1e-6)])
    def test_whole_line_integral_within_reported_error(self, d, tol):
        rr = entanglement_rate(d, tol=tol)
        assert rr.quadrature_error <= tol
        assert abs(rr.gamma_E - self.whole_line_reference(d)) <= rr.quadrature_error + 1e-12

    def test_effective_model_rate_positive(self):
        d = drift_effective(EffectiveModelParams(g=5.0, delta=10.0))
        rr = entanglement_rate(d, tol=1e-5)
        assert rr.gamma_E > 0
        assert rr.E_max > 0 and rr.fwhm > 0


class TestBatchedRates:
    """Many drifts' rates from one gate and one _rates call, as a sweep
    computes them (gated_batch), against entanglement_rate, the batch of
    one."""

    @staticmethod
    def drifts():
        # stable points of the full model, an unstable one and a g = 0 one
        out = [full_drift(), full_drift(delta=10.0), full_drift(Delta=-0.25, delta=10.0),
               full_drift(g=0.0), full_drift(Delta=-0.5, delta=10.0),
               full_drift(g=2.0, Gamma=0.1, Delta=0.7, delta=-3.0)]
        return out, [0.0, 50.0, 0.0, 0.0, 0.0, 1e3]

    def test_each_result_equals_the_single_rate_bit_for_bit(self):
        drifts, n_ths = self.drifts()
        batch = batch_rates(drifts, n_ths)
        for d, n, got in zip(drifts, n_ths, batch):
            if not stability(d).stable:
                assert isinstance(got, UnstableSystemError)
                continue
            assert got == entanglement_rate(d, n)
        # composition and order of the batch do not matter either, nor does
        # a batch longer than one pass of the probe scan
        order = [5, 2, 0, 1, 3] * 3
        assert batch_rates([drifts[i] for i in order],
                           [n_ths[i] for i in order]) == [batch[i] for i in order]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(stable_drifts(), min_size=1, max_size=5), st.randoms(use_true_random=False))
    @example([(full_drift(), 0.0), (full_drift(delta=10.0), 1e3), (full_drift(Delta=0.7), 1.0)],
             random.Random(1))
    @example([(drift_effective(EffectiveModelParams(g=2.0, delta=-8.0, Delta=0.3)), 0.0),
              (drift_effective(EffectiveModelParams(g=1.5, delta=10.0, Delta=0.6)), 0.0)],
             random.Random(2))
    def test_shuffled_batch_equals_single_rates(self, drift_nths, rnd):
        # the drifts of the first one's model, shuffled: each slot equals the
        # rate of its drift alone bit for bit, or raises what it holds
        batch = [x for x in drift_nths if len(x[0].m) == len(drift_nths[0][0].m)]
        rnd.shuffle(batch)
        for (d, n_th), got in zip(batch, batch_rates(*zip(*batch))):
            if isinstance(got, Exception):
                with pytest.raises(type(got), match=re.escape(str(got))):
                    entanglement_rate(d, n_th)
            else:
                assert repr(got) == repr(entanglement_rate(d, n_th))

    def test_density_across_kernel_passes_equals_point_by_point(self):
        # 2,500 points of four problems in one call cross two boundaries of
        # the kernel's 1,024-point passes
        drifts, n_ths = self.drifts()
        keep = [i for i, d in enumerate(drifts) if stability(d).stable]
        blocks, _, _ = gated([drifts[i] for i in keep], [n_ths[i] for i in keep])
        rng = np.random.default_rng(5)
        omegas = rng.uniform(-20.0, 20.0, 2500)
        pid = rng.integers(0, len(keep), 2500)
        got = _density(blocks, omegas, pid)
        one = [_density(blocks, omegas[i:i + 1], pid[i:i + 1])[0] for i in range(2500)]
        assert got.tobytes() == np.array(one).tobytes()

    @staticmethod
    def not_reciprocal():
        d = full_drift(delta=10.0)
        m = np.array(d.m)
        m[0, 2] *= 2.0             # not reciprocal
        return DriftMatrix(m, d.decay)

    @pytest.mark.parametrize("case", ["unstable", "not_reciprocal", "bad_n_th", "bad_tol"])
    def test_single_rate_raises_what_the_batch_reports(self, case):
        # the gated batch's slot for a drift the gate rejects; for the checks
        # of the point path alone, the parameter set's and the sweep
        # config's messages, and the reciprocity message
        d, n_th, tol = {"unstable": (full_drift(Delta=-0.5, delta=10.0), 0.0, 1e-6),
                        "not_reciprocal": (self.not_reciprocal(), 0.0, 1e-6),
                        "bad_n_th": (full_drift(), -0.4, 1e-6),
                        "bad_tol": (full_drift(), 0.0, 0.0)}[case]
        try:
            if case == "bad_n_th":
                FullModelParams(g=5.0, Gamma=1e-3, n_th=n_th)
            elif case == "bad_tol":
                SweepConfig(model="full", fixed={}, axes=[SweepAxis("delta", -1.0, 1.0, 2)],
                            quantities=["gamma_E"], tol=tol)
            elif case == "not_reciprocal":
                raise ValueError("beam block is not reciprocal (m^T != J m J, "
                                 f"J = diag{tuple(scattering._RECIPROCITY_SIGNS)})")
            (expected,) = batch_rates([d], [n_th], tol)
        except ValueError as exc:
            expected = exc
        assert isinstance(expected, (UnstableSystemError, ValueError))
        with pytest.raises(type(expected)) as got:
            entanglement_rate(d, n_th, tol)
        assert type(got.value) is type(expected) and str(got.value) == str(expected)

    @staticmethod
    def non_finite():
        d = full_drift()
        m = np.array(d.m)
        m[0, 2] = math.inf
        return DriftMatrix(m, d.decay)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_failing_slots_among_stable_drifts(self, tol):
        # an unstable drift, one with an infinite entry and one whose
        # polynomials overflow amid stable drifts: each failing slot holds
        # what its single call raises, each stable one its single rate
        drifts, n_ths = self.drifts()
        stable = [(d, n, False) for d, n in zip(drifts, n_ths) if stability(d).stable]
        failing = [(d, n, True) for d, n in (
            (full_drift(Delta=-0.5, delta=10.0), 0.0), (self.non_finite(), 0.0),
            (full_drift(), 1e200))]
        batch = stable[:2] + failing[:2] + stable[2:3] + failing[2:] + stable[3:]
        d_s, n_s, fails = zip(*batch)
        for d, n_th, fail, got in zip(d_s, n_s, fails, batch_rates(d_s, n_s, tol=tol)):
            assert isinstance(got, Exception) == fail
            if fail:
                with pytest.raises(type(got)) as single:
                    entanglement_rate(d, n_th, tol)
                assert type(single.value) is type(got) and str(single.value) == str(got)
            else:
                single = entanglement_rate(d, n_th, tol)
                assert [float(getattr(got, f)).hex() for f in _RATE_FIELDS] == [
                    float(getattr(single, f)).hex() for f in _RATE_FIELDS]

    @pytest.mark.parametrize("n_th", [-1.0, -0.4, -math.inf, math.inf, math.nan])
    def test_invalid_n_th_raises_the_parameter_set_error(self, n_th):
        # n_th is checked where it enters the kernel, with the message
        # FullModelParams gives, before any arithmetic on it
        with pytest.raises(ValueError) as params:
            FullModelParams(g=5.0, Gamma=1e-3, n_th=n_th)
        d = full_drift()
        calls = [lambda: entanglement_rate(d, n_th=n_th),
                 lambda: spectral_density(d, 0.3, n_th=n_th),
                 lambda: spectral_density_batch(d, np.array([0.3]), n_th),
                 lambda: correlator_batch(d, np.array([0.3]), n_th),
                 lambda: spectrum_parts(d, np.array([0.3]), n_th),
                 lambda: BeamBlocks.of(d, n_th)]
        for call in calls:
            with pytest.raises(ValueError) as got:
                call()
            assert type(got.value) is ValueError and str(got.value) == str(params.value)

    def test_overflowing_polynomials_fail_their_slot_only(self):
        # at n_th = 1e200 the coefficients of R overflow: that problem fails
        # with a QuadratureError before the stacked eigen-solve of the roots
        # (which would reject the whole batch), and without a RuntimeWarning
        d = full_drift()
        with pytest.raises(QuadratureError, match="overflow") as single:
            entanglement_rate(d, 1e200)
        good, bad, good2 = batch_rates([d, d, full_drift(delta=10.0)], [1.0, 1e200, 0.0])
        assert type(bad) is QuadratureError and str(bad) == str(single.value)
        assert good == entanglement_rate(d, 1.0)
        assert good2 == entanglement_rate(full_drift(delta=10.0))

    def test_failures_report_gamma_e_or_no_value(self, monkeypatch):
        # C = 1e8, n_th = 1e4: tol 1e-13 is below the round-off of
        # Gamma_E = 49.0, so the quadrature runs out of panels; its message
        # gives Gamma_E and its error, not the 2 pi Gamma_E it integrates
        d = full_drift(g=math.sqrt(1e7), Gamma=0.1)
        with pytest.raises(QuadratureError, match="panel budget exhausted") as exc:
            entanglement_rate(d, 1e4, tol=1e-13)
        tight = entanglement_rate(d, 1e4, tol=1e-12)
        assert exc.value.value == pytest.approx(tight.gamma_E, rel=1e-12)
        assert f"(value~{tight.gamma_E:.6g}, error~" in str(exc.value)
        assert 0 < exc.value.error_estimate < 1e-12
        # an overflow names n_th and the frequency scale s of the
        # polynomials, which overflow through n_th = 1e200 or through s ~
        # delta = 1e100 (no RuntimeWarning)
        for d, n_th, message in (
                (full_drift(), 1e200, "the polynomials of E overflow float64 at n_th=1e+200 "
                                      "and frequency scale s=1.5"),
                (full_drift(delta=1e100), 0.0, "the polynomials of E overflow float64 at "
                                               "n_th=0 and frequency scale s=1e+100")):
            with pytest.raises(QuadratureError) as exc:
                entanglement_rate(d, n_th)
            assert str(exc.value) == message
        # a root search that fails has no value to report: here no crossing
        # of P_c is real
        monkeypatch.setattr(rates, "_crossings",
                            lambda polys, s, levels: np.full((s.size, 1), np.nan))
        with pytest.raises(QuadratureError) as exc:
            entanglement_rate(full_drift(), 1.0)
        assert str(exc.value) == "no half-maximum crossing on one side of omega_max=0.0"


class TestPanelEdges:
    @staticmethod
    def edges(d):
        blocks = BeamBlocks.of(d, 0.0)
        (row,) = _panel_edges(blocks.eigenvalues, np.max(blocks.decay, axis=1))
        return row[np.isfinite(row)]

    def test_merged_centre_keeps_the_smallest_width(self):
        # at delta = Delta = 0 all four centres sit within 1e-7 of omega = 0,
        # with widths 5e-4 (mechanical), 0.5, 0.5 and 1: the merged centre
        # carries the ladder of the narrowest, 5e-4 * 4^j
        omega = np.tan(self.edges(full_drift()))
        inner = np.sort(np.abs(omega[np.abs(omega) < 1.0]))
        ladder = 5e-4 * 4.0 ** np.arange(5)
        for side in (omega[omega > 1e-9], -omega[omega < -1e-9]):
            first = np.sort(side)[:5]
            assert np.allclose(first, ladder, rtol=1e-9, atol=1e-12)
        assert inner[0] <= 1e-12

    def test_mechanical_ladder_stops_half_way_to_the_next_centre(self):
        # delta = -15: a mechanical centre at -15 (width 5e-4) and the merged
        # optical centre within 1e-8 of 0 (width 0.5); both ladders end at
        # the one half-way edge, -7.5
        omega = np.unique(np.tan(self.edges(full_drift(delta=-15.0))))
        between = omega[(omega > -15.0 + 1e-9) & (omega < -1e-6)]
        expected = np.concatenate([-15.0 + 5e-4 * 4.0 ** np.arange(7), [-7.5, -2.0, -0.5]])
        assert np.allclose(between, expected, rtol=1e-9, atol=1e-7)

    def test_each_row_equals_the_row_built_alone_bit_for_bit(self):
        # the stable points of the paper's 25 x 25 rate map
        drifts = [full_drift(delta=x, Delta=y) for x in np.linspace(-15.0, 15.0, 25)
                  for y in np.linspace(-1.5, 1.5, 25)]
        keep = [i for i, d in enumerate(drifts) if stability(d).stable]
        blocks, _, _ = gated([drifts[i] for i in keep], [0.0] * len(keep))
        eigenvalues = blocks.eigenvalues
        widest = np.max(blocks.decay, axis=1)
        batch = _panel_edges(eigenvalues, widest)
        for p in range(len(eigenvalues)):
            (alone,) = _panel_edges(eigenvalues[p:p + 1], widest[p:p + 1])
            row = batch[p]
            assert row[np.isfinite(row)].tobytes() == alone[np.isfinite(alone)].tobytes()
            assert np.all(np.isnan(row[np.isfinite(row).sum():]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(stable_drifts())
    # the map's outer strip: a mechanical resonance at omega = -15 whose E
    # skirt (FWHM 0.044) is 90 linewidths wide
    @example((full_drift(delta=-15.0), 0.0))
    @example((full_drift(), 0.0))
    def test_rate_within_tol_of_a_tight_rate(self, drift_nth):
        d, n_th = drift_nth
        rr = entanglement_rate(d, n_th, tol=1e-6)
        assert rr.quadrature_error <= 1e-6
        assert abs(rr.gamma_E - entanglement_rate(d, n_th, tol=1e-11).gamma_E) <= 1e-6


class TestCountedWork:
    def test_rate_map_gk_work(self, monkeypatch):
        # the paper's 25 x 25 map with the benchmark's quantities, as its five
        # 5 x 25 strips along delta; sweeps counted as the round-off checks
        # of adaptive_gk_batch after its first evaluation (one per sweep)
        work = {"points": 0, "problems": 0, "sweeps": 0}
        gk, at_round_off = rates.adaptive_gk_batch, quadutil._at_round_off

        def counted_gk(f_batch, edges, epsabs, **kwargs):
            def counted(x, pid):
                work["points"] += x.size
                return f_batch(x, pid)
            work["problems"] += len(epsabs)
            work["sweeps"] -= 1
            return gk(counted, edges, epsabs, **kwargs)

        def counted_round_off(val, err):
            work["sweeps"] += 1
            return at_round_off(val, err)

        monkeypatch.setattr(rates, "adaptive_gk_batch", counted_gk)
        monkeypatch.setattr(quadutil, "_at_round_off", counted_round_off)
        deltas = np.linspace(-15.0, 15.0, 25)
        for i in range(0, 25, 5):
            run_sweep(SweepConfig(
                model="full", fixed={"g": 5.0, "Gamma": 1e-3, "n_th": 0.0},
                axes=[SweepAxis("delta", float(deltas[i]), float(deltas[i + 4]), 5),
                      SweepAxis("Delta", -1.5, 1.5, 25)],
                quantities=["gamma_E", "E_max", "fwhm", "stability_margin"], tol=1e-6,
                jobs=1))
        assert work["problems"] == 143
        assert work["points"] / work["problems"] <= 500
        assert work["sweeps"] <= 30

    @staticmethod
    def count_passes(monkeypatch, name: str) -> list[int]:
        # the points of every kernel pass that rates makes through name
        passes, kernel = [], getattr(rates, name)

        def counted(blocks, omegas, *args):
            passes.append(len(omegas))
            return kernel(blocks, omegas, *args)

        monkeypatch.setattr(rates, name, counted)
        return passes

    def test_peaks_take_one_kernel_pass(self, monkeypatch):
        # a batch of one, then the 143 stable blocks of the paper's 25 x 25
        # map in one batch: the Gauss-Kronrod start mesh, the candidates, the
        # polished peaks, their mirrors and the flank starts all go through
        # the rate's first pass
        passes = self.count_passes(monkeypatch, "_density")
        d = full_drift()
        delta, Delta = (c.ravel() for c in np.meshgrid(np.linspace(-15.0, 15.0, 25),
                                                        np.linspace(-1.5, 1.5, 25)))
        m, decay, n_th, _ = beam_blocks("full", {"g": 5.0, "Gamma": 1e-3, "n_th": 0.0,
                                                 "delta": delta, "Delta": Delta})
        stable, places, _, _ = BeamBlocks.gate(m, decay, n_th)
        assert places.size == 143
        for blocks in (BeamBlocks.of(d, 0.0), stable):
            passes.clear()
            rates._rates(blocks, 1e-6, rates._PEAK_FIELDS)
            widest = blocks.decay.max(axis=1)
            s = _scale(blocks.eigenvalues, widest)
            _, w, _ = _stationary(blocks, s)
            edges = _panel_edges(blocks.eigenvalues, widest)
            # the start mesh in calls of up to 64 panels: one for the anchor
            panels = min(np.count_nonzero(edges[:, 1:] > edges[:, :-1]), 64)
            assert passes[0] == 15 * panels + w.size

    def test_spectrum_peak_takes_one_kernel_pass(self, monkeypatch):
        # one root solve and one kernel pass per call, whatever the degree of
        # N' D - N D' of its rows: 7 where n_th > 0, 5 where n_th = 0 (its
        # two missing roots repeat a candidate), and no candidate where g = 0
        # (it vanishes); the pass holds 7 candidates of each row with
        # candidates, and their mirrors
        passes = self.count_passes(monkeypatch, "_gram")
        solves, roots = [], rates._roots
        monkeypatch.setattr(rates, "_roots", lambda p: solves.append(len(p)) or roots(p))
        d = full_drift(delta=10.0)
        spectrum_peak(BeamBlocks.of(d, 50.0))
        assert (passes, solves) == ([2 * 7], [1])
        # Delta = 0.7 is unstable: the gate fails it, and the peaks of a
        # batch stacked without the gate still take one solve and one pass
        drifts = [d, full_drift(g=0.0), full_drift(delta=-3.0), full_drift(Delta=0.7),
                  full_drift(delta=5.0)]
        n_ths = [50.0, 50.0, 0.0, 10.0, 0.0]
        _, places, failures = gated(drifts, n_ths)
        assert places == [0, 1, 2, 4]
        assert failures[3].max_real_part == stability(drifts[3]).max_real_part > 0
        m, decay = np.array([d.m for d in drifts]), np.array([d.decay for d in drifts])
        spectrum_peak(BeamBlocks(m, decay, np.array(n_ths), stability_gate(m)[0]))
        assert (passes, solves) == ([2 * 7, 4 * 2 * 7], [1, 5])

    def test_anchor_rate_kernel_passes(self, monkeypatch):
        # the Gamma_E quadrature with the peaks, and the FWHM secant steps
        passes = self.count_passes(monkeypatch, "_density")
        entanglement_rate(full_drift())
        assert len(passes) <= 4

    def test_one_drift_rate_fixed_work(self, monkeypatch, solves):
        # the fixed work of a rate: three eigen-solves (the stability gate,
        # the roots of R and those of P_c), one exact det of the block and
        # at most two kernel passes at the anchor (the GK start with the
        # peaks, and a flank step), 1.73 on average over seed 1
        points = [(stratum, drift_full(FullModelParams(**p)), p["n_th"]) if model == "full"
                  else (stratum, drift_effective(EffectiveModelParams(**p)), 0.0)
                  for stratum, model, p in workloads.rate_point_set(1)]
        anchor = points[0]
        generic = next(pt for pt in points if pt[0] == "generic" and len(pt[1].m) == 3)
        effective = next(pt for pt in points if len(pt[1].m) == 2)
        high_c = next(pt for pt in points if pt[0] == "high_c")
        near_boundary = next(pt for pt in points if pt[0] == "near_boundary")
        dets, det = [], scattering._det
        monkeypatch.setattr(scattering, "_det", lambda m: dets.append(1) or det(m))
        passes = self.count_passes(monkeypatch, "_density")
        for stratum, d, n_th in (anchor, generic, effective, high_c, near_boundary):
            solves.clear(), dets.clear(), passes.clear()
            entanglement_rate(d, n_th)
            assert (len(solves), len(dets)) == (3, 1), stratum
            assert stratum != "anchor" or len(passes) <= 2
        passes.clear()
        for _, d, n_th in points:
            entanglement_rate(d, n_th)
        assert len(passes) <= 1.73 * len(points)


class TestMirrorPeaks:
    @pytest.mark.parametrize("d", [
        full_drift(), drift_effective(EffectiveModelParams(g=1.5, delta=10.0, Delta=0.6))],
        ids=["anchor", "effective_two_peaks"])
    def test_omega_max_of_mirror_peaks_is_not_negative(self, d):
        # E is even in omega here: the peak at -omega_max is as high to
        # round-off, and the reported one is the one at omega >= 0
        rr = entanglement_rate(d)
        assert rr.omega_max >= 0.0
        assert spectral_density(d, rr.omega_max) == rr.E_max
        assert abs(spectral_density(d, -rr.omega_max) - rr.E_max) <= 4 * np.spacing(rr.E_max)


class TestStationaryPeaks:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stable_drifts(), st.integers(0, 2 ** 32 - 1))
    # a narrow mechanical peak at omega = 11.46 whose root of R is 1e-4 of
    # the width off before the Newton steps
    @example((full_drift(g=0.1429134375696507, Gamma=0.0025324393440224603,
                         Delta=-0.4612045465808583, delta=11.460181182778033), 0.0), 0)
    # kernel E 1.6e-12 above the 50-digit value next to this peak at omega = 4
    @example((full_drift(g=math.sqrt(1e-3), Gamma=1e-3, Delta=1.0, delta=4.0), 1.0), 0)
    # a sample 5.4e-14 above E_max = 0.004 seen here in a full run, under a
    # trial bound of 5e-14 E_max
    @example((full_drift(g=0.0158, Gamma=1e-3, Delta=0.125, delta=5.0), 0.0), 0)
    def test_no_sample_exceeds_e_max(self, drift_nth, seed):
        # 2,000 random frequencies, half uniform over the resonance span and
        # half drawn around the resonances with their linewidths, and 100
        # at 1e-9 to 1e-2 widths either side of omega_max
        d, n_th = drift_nth
        rr = entanglement_rate(d, n_th)
        eig = np.linalg.eigvals(d.m)
        span = np.max(np.abs(eig.imag)) + 20.0 * np.max(d.decay) + 1.0
        rng = np.random.default_rng(seed)
        near = rng.integers(eig.size, size=1000)
        w = np.concatenate([rng.uniform(-span, span, 1000),
                            -eig.imag[near] + np.abs(eig.real[near]) * rng.standard_normal(1000),
                            rr.omega_max + rr.fwhm * np.geomspace(1e-9, 1e-2, 50),
                            rr.omega_max - rr.fwhm * np.geomspace(1e-9, 1e-2, 50)])
        # E carries the kernel's round-off, within 2e-13 E of the 50-digit
        # reference (test_scattering's TestBlockKernel) and far above 4 ulp
        # on a narrow resonance away from omega = 0, where the Horner pass
        # for det cancels (samples 5.4e-14 above E_max seen): a sample near
        # the top may have it and E_max not. A peak missed by 1e-5 of its
        # width already shows
        e = spectral_density_batch(d, w, n_th)
        assert np.max(e) <= rr.E_max + 2e-12 * max(1.0, rr.E_max)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stable_drifts())
    @example((full_drift(), 0.0))
    # 1e-4 in Delta from the optical instability at g = 5, delta = 10
    @example((drift_of(_effective_near_boundary(1e-4)), 0.0))
    # E_max 3 ulp below the reference at the mechanical resonance
    # omega = -13.714
    @example((full_drift(g=0.5882220509186006, Gamma=0.0030294391439698496,
                         delta=-13.715031269895197, Delta=-1.2316922824500818), 0.0))
    def test_polish_on_the_polynomials_against_the_kernel_newton(self, drift_nth):
        # the reference takes its Newton steps with u from the kernel, one
        # kernel pass per step. Both land within a few floats of the same
        # stationary point, where the kernel's E jitters by tens of ulp from
        # one float to the next (-44 to +76 ulp over 41 floats at g = 0.177,
        # Gamma = 1.46e-3, delta = 1.58, Delta = -0.948): E_max is held
        # against the lowest E within 16 floats of the reference's omega_max
        d, n_th = drift_nth
        rr = entanglement_rate(d, n_th)
        blocks = BeamBlocks.of(d, n_th)
        s = _scale(blocks.eigenvalues, blocks.decay.max(axis=1))
        found, (omega_ref,), (e_ref,) = stationary_peaks(blocks, s, _beam_polynomials(blocks, s))
        near = spectral_density_batch(d, omega_ref + np.arange(-16, 17) * np.spacing(omega_ref),
                                      n_th)
        assert rr.E_max >= min(e_ref, near.min()) - 4.0 * np.spacing(e_ref)
        assert spectral_density(d, rr.omega_max, n_th) == rr.E_max
        assert rr.secondary_peaks == _count_local_maxima(found, np.array([e_ref]))[0] - 1

    def test_flat_top_counts_once(self):
        # twin maxima 6.5e-9 either side of omega = 0 with a dip of one ulp
        # between them: one peak, not two
        d = drift_effective(EffectiveModelParams(g=3.2030170506501308, delta=-26.914100684300678,
                                                 Delta=-0.03103945095520999))
        assert entanglement_rate(d).secondary_peaks == 0

    @pytest.mark.parametrize("d, n_th", [
        (full_drift(delta=10.0), 50.0), (full_drift(delta=10.0), 0.0), (full_drift(), 0.0),
        (full_drift(g=2.0, Gamma=0.1, Delta=0.7, delta=-3.0), 1e3),
        (drift_effective(EffectiveModelParams(g=5.0, delta=10.0, Delta=-0.2)), 0.0),
        (drift_effective(EffectiveModelParams(g=1.5, delta=10.0, Delta=0.6)), 0.0)],
        ids=["two_peaks", "two_peaks_nth0", "anchor", "thermal", "effective",
             "effective_two_peaks"])
    def test_spectrum_peak_against_dense_sampling(self, d, n_th):
        (omega,), (height,), failures = spectrum_peak(BeamBlocks.of(d, n_th))
        assert not failures
        assert height == np.sum(spectrum_parts(d, np.array([omega]), n_th))

        def total(w):
            return np.add(*spectrum_parts(d, w, n_th))
        # a million-point scan, then 20,001 points across its best cell
        grid = frequency_grid(d)
        w = np.linspace(grid[0], grid[-1], 1_000_001)
        k = int(np.argmax(total(w)))
        fine = np.linspace(w[k - 1], w[k + 1], 20_001)
        best = total(fine).max()
        assert best <= height * (1.0 + 1e-13)
        assert height <= best * (1.0 + 1e-9)
        # of mirror twins the scan may find either; the one at omega >= 0
        # is reported
        at = fine[np.argmax(total(fine))]
        assert min(abs(omega - at), abs(omega + at)) <= 1e-3 * (w[1] - w[0])
        assert omega >= 0 or total(np.array([-omega]))[0] < height - 4.0 * np.spacing(height)

    @pytest.mark.parametrize("model", ["full", "effective"])
    def test_spectrum_peak_batch_equals_one_problem_calls(self, model):
        # rows of every degree of N' D - N D' in one batch, interleaved (the
        # full model's n_th > 0, n_th = 0 and g = 0): each row is the call
        # on its block alone, to the bit, and the g = 0 rows read (0, 0)
        if model == "full":
            # (g, Gamma, delta, Delta, n_th)
            points = [(5.0, 1e-3, 10.0, 0.0, 50.0), (0.0, 1e-3, 4.0, 0.0, 50.0),
                      (5.0, 1e-3, 0.0, 0.0, 0.0), (2.0, 0.1, -3.0, 0.7, 1e3),
                      (5.0, 1e-3, -6.0, 0.0, 0.0), (0.0, 1e-3, 0.0, 0.0, 0.0)]
            drifts = [full_drift(g=g, Gamma=gam, delta=delta, Delta=big)
                      for g, gam, delta, big, _ in points]
        else:
            # (g, delta, Delta, n_th)
            points = [(5.0, 10.0, -0.2, 0.0), (0.0, 10.0, 0.3, 0.0), (1.5, 10.0, 0.6, 0.0),
                      (3.0, 10.0, -1.0, 0.0)]
            drifts = [drift_effective(EffectiveModelParams(g=g, delta=delta, Delta=big))
                      for g, delta, big, _ in points]
        n_ths = [pt[-1] for pt in points]
        assert all(stability(d).stable for d in drifts)
        *batch, failures = spectrum_peak(gated(drifts, n_ths)[0])
        assert not failures
        for p, (d, n_th) in enumerate(zip(drifts, n_ths)):
            *alone, _ = spectrum_peak(BeamBlocks.of(d, n_th))
            assert [float(c[p]).hex() for c in batch] == [float(c[0]).hex() for c in alone]
        uncoupled = [pt[0] == 0.0 for pt in points]
        assert (batch[1] == 0).tolist() == uncoupled
        assert not batch[0][uncoupled].any()


class TestRoots:
    # one rule per row of rates._roots, each case in a row of 7 coefficients

    def test_trailing_zeros_are_roots_at_zero(self):
        (roots,) = _roots(np.array([[1.0, -6.0, 11.0, -6.0, 0.0, 0.0, 0.0]]))
        assert np.count_nonzero(roots == 0) == 3
        assert np.allclose(np.sort(roots[roots != 0].real), [1.0, 2.0, 3.0], rtol=1e-12, atol=0)

    def test_leading_zeros_are_missing_roots(self):
        row = np.array([0.0, 0.0, 2.0, -3.0, 0.5, 4.0, -1.0])
        (roots,) = _roots(row[None])
        assert np.isnan(roots).sum() == 2
        expected = np.sort_complex(np.roots(row[2:]))
        got = np.sort_complex(roots[~np.isnan(roots)])
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))

    def test_negligible_leading_coefficient_solves_reversed(self):
        # P_c at g = 5, Gamma = 1e-3, n_th = 1e50 in y = omega / s, s = 1.5:
        # the crossings +-0.5 are y = +-sqrt(78 / 703) to the rounding of the
        # coefficients; the forward solve gives them as 0. The other four,
        # of modulus ~2.5e23, come out of the reversed solve as 0: NaN
        row = np.array([1.8e-91, 0.0, 4.0e-92, 0.0, 703.0, 0.0, -78.0])
        assert np.all(np.roots(row)[-2:] == 0)
        (roots,) = _roots(row[None])
        assert np.isnan(roots).sum() == 4
        got = np.sort(roots[~np.isnan(roots)].real)
        expected = math.sqrt(78.0 / 703.0) * np.array([-1.0, 1.0])
        assert np.all(np.abs(got - expected) <= 1e-12 * abs(expected[1]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("place", [0, 3, 6])
    def test_overflowed_row_has_nan_roots(self, bad, place):
        p = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]])
        p[0, place] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(_roots(p)).all()

    def test_stacked_call_equals_one_row_calls(self):
        rows = np.array([[1.0, -6.0, 11.0, -6.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0, -6.0, 11.0, -6.0],
                         [1.8e-91, 0.0, 4.0e-92, 0.0, 703.0, 0.0, -78.0],
                         [math.inf, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                         [0.0, 0.0, 1e-20, 1.0, -3.0, 2.0, 0.0],
                         [0.0] * 7,
                         [0.0, 2.0, -3.0, 0.5, 4.0, -1.0, 3.0]])
        stacked = _roots(rows)
        assert stacked.shape == (7, 6)
        for i, row in enumerate(rows):
            assert stacked[i].tobytes() == _roots(row[None])[0].tobytes()


class TestFwhm:
    @pytest.mark.parametrize("distance", [1e-4, 1e-6, 1e-8])
    def test_width_next_to_the_boundary(self, distance):
        # E_max = 19.4, 28.7 and 37.9: the polynomials' E_max carries their
        # round-off over 1 - u = e^-E, and at 1e-8 u rounds to 1 (flank
        # starts at half of it gave a width of 1.79 there); where it is off
        # the flanks start afresh from the kernel's E_max
        d = drift_of(_effective_near_boundary(distance))
        rr = entanglement_rate(d)
        assert abs(rr.fwhm - fwhm_by_bisection(d, 0.0, rr.omega_max, rr.E_max)) <= 2e-9

    @pytest.mark.parametrize("n_th", [1e50, 1e100, 1e150])
    def test_width_at_huge_n_th(self, n_th):
        # E(+-0.5) = E(0) / 2 at g = 5, Gamma = 1e-3 from n_th ~ 1e10 on; the
        # leading coefficient u^2 D of P_c falls ~E_max below the others, and
        # the crossings +-0.5 come from its reversed polynomial
        assert abs(entanglement_rate(full_drift(), n_th).fwhm - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(full_points(n_th=st.floats(0.0, 150.0).map(lambda e: 10.0 ** e)))
    @example((FullModelParams(g=5.0, Gamma=1e-3, n_th=1e50), 1e50))
    # off resonance: a reversed solve's roots at 0, kept as 0, put a crossing
    # at omega = 0 (a width of -7.35e6 for 1.178)
    @example((FullModelParams(g=0.268, Gamma=0.0229, delta=-3.90, Delta=0.312, n_th=7.2e93),
              7.2e93))
    # there at 3.16e152, R reversed (its leading coefficient 1e-300 of its
    # largest, but above its constant) overflowed its companion: no peak
    @example((FullModelParams(g=0.268, Gamma=0.0229, delta=-3.90, Delta=0.312, n_th=3.16e152),
              3.16e152))
    @example((FullModelParams(g=5.0, Gamma=1e-3, n_th=1e150), 1e150))
    def test_width_against_bisection_at_every_n_th(self, point):
        # the crossings of P_c where its leading coefficient u^2 D is ~E_max
        # below the rest, up to n_th = 1e150 (log-uniform); the peak is the
        # highest E on the resonance-seeded grid too (off resonance, where R
        # is solved as it stands, the candidate at omega ~ 0 is a root the
        # solve gives as 0)
        p, n_th = point
        d = drift_full(p)
        try:
            rr = entanglement_rate(d, n_th)
        except QuadratureError as exc:
            # the peak quantities fail where the polynomials of E overflow
            # float64 (from n_th ~ 1e149 at s ~ 8, say), and only there
            blocks = BeamBlocks.of(d, n_th)
            s = _scale(blocks.eigenvalues, blocks.decay.max(axis=1))
            with np.errstate(over="ignore", invalid="ignore"):
                r = r_polynomial(3, _beam_polynomials(blocks, s))
            assert "overflow" in str(exc) and not np.isfinite(r).all()
            return
        assert spectral_density_batch(d, frequency_grid(d), n_th).max() <= rr.E_max * (1 + 2e-12)
        assert abs(rr.fwhm - fwhm_by_bisection(d, n_th, rr.omega_max, rr.E_max)) <= 2e-9

    def test_resonant_width_far_exceeds_mechanical_linewidth(self):
        gamma = 1e-3
        rr = entanglement_rate(full_drift(Gamma=gamma))
        assert rr.fwhm > 100 * gamma

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
        # scipy searches past a peak of equal height on both sides, so two
        # equal peaks both stand on their own there; the tie rule stops at
        # the left one. With the heights of scipy's peaks distinct the two
        # agree, and with a tie the tie rule counts no more
        y = np.array(ys, dtype=float)
        got = count_local_maxima(y, e_max)
        assert got == hysteresis_count(y, e_max)
        heights = y[find_peaks(y)[0]]
        if np.unique(heights).size == heights.size:
            assert got == self.scipy_count(y, e_max)
        else:
            assert got <= self.scipy_count(y, e_max)

    def test_plateau_peak_and_border_plateau(self):
        y = np.array([0.0, 2.0, 2.0, 2.0, 0.0, 1.0, 1.0])
        assert count_local_maxima(y, 2.0) == 1

    @staticmethod
    @st.composite
    def candidate_rows(draw):
        """Equal-length rows of candidate values: random heights, small
        integers (plateaus and exact ties), and runs within a few ulp."""
        n = draw(st.integers(1, 14))
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["floats", "integers", "ulps"]))
            if kind == "floats":
                row = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
            elif kind == "integers":
                row = draw(st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n))
            else:
                base = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 3.0]), min_size=n,
                                     max_size=n))
                ulps = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
                row = [b + u * np.spacing(b) for b, u in zip(base, ulps)]
            rows.append(row)
        e_max = draw(st.lists(st.floats(0.0, 12.0), min_size=len(rows), max_size=len(rows)))
        return np.array(rows), np.array(e_max)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(candidate_rows())
    # a unimodal row in one batch with a two-peak row; a plateau top; a twin
    # top whose second candidate is 2 ulp below the first; equal twin peaks
    # whose dip of 0.01 is under the floor of 0.03: one peak
    @example((np.array([[0.5, 1.0, 3.0, 2.0, 0.2], [0.5, 3.0, 1.0, 3.0, 0.2]]),
              np.array([3.0, 3.0])))
    @example((np.array([[0.5, 2.0, 2.0, 2.0, 1.0]]), np.array([2.0])))
    @example((np.array([[1.0, 3.0, 3.0 - 2.0 * np.spacing(3.0), 3.0, 1.0]]), np.array([3.0])))
    @example((np.array([[1.0, 3.0, 2.99, 3.0, 1.0]]), np.array([3.0])))
    def test_batched_count_equals_the_one_row_reference(self, rows_e_max):
        # the search per peak and the hysteresis walk share no code
        rows, e_max = rows_e_max
        got = _count_local_maxima(rows, e_max).tolist()
        assert got == [candidate_peak_count(r, e) for r, e in zip(rows, e_max)]
        assert got == [candidate_peak_count(r, e, hysteresis_count) for r, e in zip(rows, e_max)]

    def test_batched_count_on_rate_points_candidates(self, monkeypatch):
        # the candidate rows that the rates of the benchmark's rate_points
        # seeds 1-3 count peaks on
        seen = []

        def spy(values, e_max):
            seen.append((values.copy(), e_max.copy()))
            return _count_local_maxima(values, e_max)

        monkeypatch.setattr(rates, "_count_local_maxima", spy)
        for seed in (1, 2, 3):
            for _, model, p in workloads.rate_point_set(seed):
                if model == "full":
                    entanglement_rate(drift_full(FullModelParams(**p)), p["n_th"])
                else:
                    entanglement_rate(drift_effective(EffectiveModelParams(**p)))
        assert len(seen) >= 150
        for values, e_max in seen:
            got = _count_local_maxima(values, e_max).tolist()
            assert got == [candidate_peak_count(v, e) for v, e in zip(values, e_max)]
            assert got == [candidate_peak_count(v, e, hysteresis_count)
                           for v, e in zip(values, e_max)]
        # two or more peaks occur
        assert any(_count_local_maxima(v, e).max() > 1 for v, e in seen)


def test_refined_peak_keeps_a_sample_the_search_misses():
    # a spike narrower than the search grid over its neighbours' bracket
    def e(w):
        return np.where(np.abs(w - 1e-3) < 1e-7, 5.0, 1.0 - np.abs(w - 0.5))

    grid = np.array([0.0, 1e-3, 1.0])
    x, f = refined_peaks(lambda w, _: e(w), [grid], [e(grid)], xtol=1e-10)
    assert (x[0], f[0]) == (1e-3, 5.0)


def test_rate_unit_conversion():
    assert to_nats_per_second(0.5, 2e6) == pytest.approx(1e6)
