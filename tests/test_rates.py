import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from entrate.closedforms import eta_minus_resonant
from entrate.errors import UnstableSystemError
from entrate.models import (BEAM_BLOCK, DriftMatrix, EffectiveModelParams, FullModelParams,
                            beam_blocks, drift_effective, drift_full, stability,
                            stability_gate)
from entrate import quadutil, rates, scattering
from entrate.quadutil import bisect_all
from entrate.rates import (_beam_polynomials, _count_local_maxima, _density, _fwhms,
                           _panel_edges, _scale, _stationary, entanglement_rate,
                           entanglement_rates, spectral_density,
                           spectral_density_batch, spectrum_and_density, spectrum_peak)
from entrate.scattering import BeamBlocks, correlator_batch, spectrum_parts
from entrate.sweep import SweepAxis, SweepConfig, run_sweep
from fwhm_reference import fwhm_by_bisection
from grid_reference import frequency_grid
from lu_reference import scattering_matrices
from mp_reference import reference_point
from peak_reference import (candidate_peak_count, count_local_maxima, hysteresis_count,
                            refined_peaks, stationary_peaks)
from paper_helpers import symmetrized_density, to_nats_per_second
from strategies import stable_drifts
import workloads

KAPPA = 1.0
_RATE_FIELDS = ("gamma_E", "E_max", "omega_max", "fwhm", "quadrature_error", "secondary_peaks")


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
        d = drift_effective(EffectiveModelParams(g=g, delta=delta, Delta=Delta))
        w = np.geomspace(1e-3, 1e10, 80)
        w = np.concatenate([-w[::-1], [0.0], w])
        if Delta == -0.2499:
            exact = np.array([reference_point(d, x)[1] for x in w])
        else:
            plus, minus = (d.ordering.index(name) for name in BEAM_BLOCK[:2])
            s_pm = scattering_matrices(d, w)[:, plus, minus]
            exact = 2.0 * np.arcsinh(np.abs(s_pm))
        e = spectral_density_batch(d, w)
        assert np.all(e > 0)
        np.testing.assert_allclose(e, exact, rtol=1e-15, atol=0.0)


class TestWholeLineAndCrossings:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stable_drifts())
    def test_positive_everywhere_exact_identity_and_root_fwhm(self, drift_nth):
        d, n_th = drift_nth
        probes = np.concatenate([frequency_grid(d), [-1e6, 1e6]])
        e = spectral_density_batch(d, probes, n_th)
        assert np.all(e > 0)
        # the same drift with every coupling removed: E = +0.0 everywhere
        uncoupled = DriftMatrix(np.diag(np.diag(d.m)), d.decay, d.ordering)
        e0 = spectral_density_batch(uncoupled, probes, n_th)
        assert np.all(e0 == 0) and not np.any(np.signbit(e0))

        # K |det|^-2 = 2 (nu+ + nu- - 2 (q - 1/4)), with K from the adjugate
        # and |det|^2 from the kernel's own characteristic polynomial
        blocks = BeamBlocks.of([d], [n_th])
        s = np.array([_scale(np.linalg.eigvals(d.m), d.decay)])
        polys = _beam_polynomials(blocks, s)
        nu_plus, nu_minus, _, q_excess = correlator_batch(d, probes, n_th)
        det2 = np.abs(np.polyval(blocks.char[0], 1j * probes)) ** 2
        lhs = polys[2][0] / det2
        rhs = 2.0 * (nu_plus + nu_minus - 2.0 * q_excess)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * (nu_plus + nu_minus))

        # the sampled scan and zoom as the peak reference: the stationary
        # point is at least as high, up to the kernel's 1e-12 round-off at
        # both points
        (omega_max,), (e_max,) = refined_peaks(lambda w, _: spectral_density_batch(d, w, n_th),
                                               [probes[:-2]], [e[:-2]], xtol=1e-10)
        assert entanglement_rate(d, n_th).E_max >= e_max - 2e-12 * max(1.0, e_max)
        (width,), (failure,) = _fwhms(blocks, s, polys, np.array([omega_max]),
                                      np.array([e_max]))
        assert failure is None
        assert abs(width - fwhm_by_bisection(d, n_th, omega_max, e_max)) <= 2e-9

    def test_non_reciprocal_block_rejected(self):
        d = full_drift(delta=10.0)
        m = np.array(d.m)
        m[0, 4] *= 2.0             # a+ <- b no longer matches b <- a+
        m[1, 5] = np.conj(m[0, 4])
        bad = DriftMatrix(m, d.decay, d.ordering)
        # the Gram form of E rests on reciprocity, so every E path checks it
        for call in (lambda: entanglement_rate(bad), lambda: spectral_density(bad, 0.3),
                     lambda: spectral_density_batch(bad, np.array([0.0, 0.3])),
                     lambda: spectrum_and_density(bad, np.array([0.0, 0.3]))):
            with pytest.raises(ValueError, match="not reciprocal"):
                call()


def _full_near_boundary(distance):
    # g = 5, delta = 10: Delta at `distance` inside the stable side of the
    # instability edge near Delta = -0.25
    def margin(deltas):
        return np.array([stability(full_drift(Delta=x, delta=10.0)).max_real_part
                         for x in deltas])
    edge = bisect_all(margin, np.array([-0.3]), np.array([-0.2]), xtol=1e-15)[0]
    return full_drift(Delta=edge + distance, delta=10.0)


def _effective_near_boundary(distance):
    d = drift_effective(EffectiveModelParams(g=5.0, delta=10.0, Delta=-0.25 + distance))
    assert -1.1 * distance < stability(d).max_real_part < 0
    return d


_HARD_POINTS = [
    lambda: full_drift(),
    lambda: full_drift(g=math.sqrt(3e3 * 1e-3), delta=0.02, Delta=-1e-3),
    lambda: _full_near_boundary(1e-4), lambda: _full_near_boundary(1e-5),
    lambda: _effective_near_boundary(1e-4), lambda: _effective_near_boundary(1e-5)]
_HARD_IDS = ["anchor", "C3e3", "full_1e-4", "full_1e-5", "effective_1e-4", "effective_1e-5"]


@pytest.mark.parametrize("make", _HARD_POINTS, ids=_HARD_IDS)
def test_rate_within_reported_error_of_tight_reference(make):
    d = make()
    rr = entanglement_rate(d, tol=1e-6)
    ref = entanglement_rate(d, tol=1e-11)
    assert rr.quadrature_error <= 1e-6
    assert abs(rr.gamma_E - ref.gamma_E) <= rr.quadrature_error + 1e-6


@pytest.mark.parametrize("make", _HARD_POINTS, ids=_HARD_IDS)
def test_kernel_matches_extended_precision_at_hard_points(make):
    # the adjugate kernel against the 50-digit doubled-basis pipeline, at
    # the peak and on both flanks and tails; 1e-4 from the boundary this
    # needs det m exact (measured within 5e-16 of the reference)
    d = make()
    omegas = np.array([0.0, entanglement_rate(d).omega_max, 0.3, -0.3, 1.0, -1.0,
                       4.0, -12.0, 100.0])
    for omega, e in zip(omegas, spectral_density_batch(d, omegas)):
        _, e_ref = reference_point(d, omega)
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
    @staticmethod
    def drifts():
        # stable points of the full model, an unstable one and a g = 0 one
        out = [full_drift(), full_drift(delta=10.0), full_drift(Delta=-0.25, delta=10.0),
               full_drift(g=0.0), full_drift(Delta=-0.5, delta=10.0),
               full_drift(g=2.0, Gamma=0.1, Delta=0.7, delta=-3.0)]
        return out, [0.0, 50.0, 0.0, 0.0, 0.0, 1e3]

    def test_each_result_equals_the_single_rate_bit_for_bit(self):
        drifts, n_ths = self.drifts()
        batch = entanglement_rates(drifts, n_ths)
        for d, n, got in zip(drifts, n_ths, batch):
            if not stability(d).stable:
                assert isinstance(got, UnstableSystemError)
                continue
            assert got == entanglement_rate(d, n)
        # composition and order of the batch do not matter either, nor does
        # a batch longer than one pass of the probe scan
        order = [5, 2, 0, 1, 3] * 3
        assert entanglement_rates([drifts[i] for i in order],
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
        batch = [x for x in drift_nths if x[0].dim == drift_nths[0][0].dim]
        rnd.shuffle(batch)
        for (d, n_th), got in zip(batch, entanglement_rates(*zip(*batch))):
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
        blocks = BeamBlocks.of([drifts[i] for i in keep], [n_ths[i] for i in keep])
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
        m[0, 4] *= 2.0             # not reciprocal
        m[1, 5] = np.conj(m[0, 4])
        return DriftMatrix(m, d.decay, d.ordering)

    def test_a_failure_stays_in_its_slot(self):
        d = full_drift(delta=10.0)
        good, odd, good2 = entanglement_rates([d, self.not_reciprocal(), full_drift()],
                                              [0.0, 0.0, 0.0])
        assert isinstance(odd, ValueError) and "not reciprocal" in str(odd)
        assert good == entanglement_rate(d) and good2 == entanglement_rate(full_drift())

    @staticmethod
    def coupled():
        d = full_drift(delta=2.0)
        m = np.array(d.m)
        m[0, 1] = 0.25j                 # a+ -> a+^dag
        m[1, 0] = np.conj(m[0, 1])      # its partner, keeps the pairing structure
        return DriftMatrix(m, d.decay, d.ordering)

    @pytest.mark.parametrize("case", ["unstable", "not_reciprocal", "coupled", "bad_n_th",
                                      "bad_tol"])
    def test_single_rate_raises_what_the_batch_reports(self, case):
        # the slot's exception for a drift the gate rejects, the raised one
        # for a tol that no drift can meet
        d, n_th, tol = {"unstable": (full_drift(Delta=-0.5, delta=10.0), 0.0, 1e-6),
                        "not_reciprocal": (self.not_reciprocal(), 0.0, 1e-6),
                        "coupled": (self.coupled(), 0.0, 1e-6),
                        "bad_n_th": (full_drift(), -0.4, 1e-6),
                        "bad_tol": (full_drift(), 0.0, 0.0)}[case]
        try:
            (expected,) = entanglement_rates([d], [n_th], tol)
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
        m[0, 4] = m[1, 5] = math.inf
        with np.errstate(invalid="ignore"):     # its pairing defect is NaN
            return DriftMatrix(m, d.decay, d.ordering)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_failing_slots_among_stable_drifts(self, tol):
        # an unstable drift, one that is not reciprocal, one coupled to its
        # partner, one with an infinite entry and bad n_th amid stable
        # drifts: each failing slot holds what its single call raises, each
        # stable one its single rate
        drifts, n_ths = self.drifts()
        stable = [(d, n, False) for d, n in zip(drifts, n_ths) if stability(d).stable]
        failing = [(d, n, True) for d, n in (
            (full_drift(Delta=-0.5, delta=10.0), 0.0), (self.not_reciprocal(), 0.0),
            (self.coupled(), 0.0), (self.non_finite(), 0.0), (full_drift(), math.nan),
            (full_drift(), -1.0))]
        batch = stable[:2] + failing[:2] + stable[2:3] + failing[2:] + stable[3:]
        d_s, n_s, fails = zip(*batch)
        for d, n_th, fail, got in zip(d_s, n_s, fails, entanglement_rates(d_s, n_s, tol=tol)):
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
                 lambda: spectrum_parts(d, np.array([0.3]), n_th)]
        for call in calls:
            with pytest.raises(ValueError) as got:
                call()
            assert type(got.value) is ValueError and str(got.value) == str(params.value)
        (slot,) = entanglement_rates([d], [n_th])
        assert type(slot) is ValueError and str(slot) == str(params.value)

    def test_drifts_of_two_models_rejected(self):
        d_eff = drift_effective(EffectiveModelParams(g=5.0, delta=10.0, Delta=-0.2))
        with pytest.raises(ValueError, match="one model"):
            entanglement_rates([full_drift(), d_eff], [0.0, 0.0])


class TestPanelEdges:
    @staticmethod
    def edges(d):
        blocks = BeamBlocks.of([d], [0.0])
        (row,) = _panel_edges(blocks.eigenvalues, blocks.decay, np.max(blocks.decay, axis=1))
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
        blocks = BeamBlocks.of([drifts[i] for i in keep], [0.0] * len(keep))
        eigenvalues = blocks.eigenvalues
        scale = np.max(blocks.decay, axis=1)
        batch = _panel_edges(eigenvalues, blocks.decay, scale)
        for p in range(len(eigenvalues)):
            (alone,) = _panel_edges(eigenvalues[p:p + 1], blocks.decay[p:p + 1],
                                    scale[p:p + 1])
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
        for blocks in (BeamBlocks.of([d], [0.0]), stable):
            passes.clear()
            rates._rates(blocks, 1e-6)
            s = _scale(blocks.eigenvalues, blocks.decay)
            w, _ = _stationary(s, _beam_polynomials(blocks, s), blocks.k)
            edges = _panel_edges(blocks.eigenvalues, blocks.decay, blocks.decay.max(axis=1))
            # the start mesh in calls of up to 64 panels: one for the anchor
            panels = min(np.count_nonzero(edges[:, 1:] > edges[:, :-1]), 64)
            assert passes[0] == 15 * panels + w.size

    def test_spectrum_peak_takes_one_kernel_pass(self, monkeypatch):
        # one pass per degree of N' D - N D' in the batch: 7 where n_th > 0,
        # 5 where n_th = 0, and none where g = 0 (it vanishes); each pass
        # holds the roots of its rows and their mirrors
        passes = self.count_passes(monkeypatch, "_gram")
        d = full_drift(delta=10.0)
        spectrum_peak(BeamBlocks.of([d], [50.0]))
        assert passes == [2 * 7]
        # Delta = 0.7 is unstable: the gate rejects the batch, and the peaks
        # of a batch stacked without it still take one pass per degree
        drifts = [d, full_drift(g=0.0), full_drift(delta=-3.0), full_drift(Delta=0.7),
                  full_drift(delta=5.0)]
        n_ths = [50.0, 50.0, 0.0, 10.0, 0.0]
        with pytest.raises(UnstableSystemError) as exc:
            BeamBlocks.of(drifts, n_ths)
        assert exc.value.max_real_part == stability(drifts[3]).max_real_part > 0
        m, decay = (np.array(c) for c in zip(*(d.beam_block for d in drifts)))
        spectrum_peak(BeamBlocks(m, decay, np.array(n_ths), stability_gate(m)[0]))
        assert passes == [2 * 7, 2 * 2 * 7, 2 * 2 * 5]

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
        generic = next(pt for pt in points if pt[0] == "generic" and pt[1].dim == 6)
        effective = next(pt for pt in points if pt[1].dim == 4)
        dets, det = [], scattering._det
        monkeypatch.setattr(scattering, "_det", lambda m: dets.append(1) or det(m))
        passes = self.count_passes(monkeypatch, "_density")
        for stratum, d, n_th in (anchor, generic, effective):
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
    @example((_effective_near_boundary(1e-4), 0.0))
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
        blocks = BeamBlocks.of([d], [n_th])
        s = _scale(blocks.eigenvalues, blocks.decay)
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
        (omega,), (height,) = spectrum_peak(BeamBlocks.of([d], [n_th]))
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
        batch = spectrum_peak(BeamBlocks.of(drifts, n_ths))
        for p, (d, n_th) in enumerate(zip(drifts, n_ths)):
            alone = spectrum_peak(BeamBlocks.of([d], [n_th]))
            assert [float(c[p]).hex() for c in batch] == [float(c[0]).hex() for c in alone]
        uncoupled = [pt[0] == 0.0 for pt in points]
        assert (batch[1] == 0).tolist() == uncoupled
        assert not batch[0][uncoupled].any()


class TestFwhm:
    @pytest.mark.parametrize("distance", [1e-4, 1e-6, 1e-8])
    def test_width_next_to_the_boundary(self, distance):
        # E_max = 19.4, 28.7 and 37.9: the polynomials' E_max carries their
        # round-off over 1 - u = e^-E, and at 1e-8 u rounds to 1 (flank
        # starts at half of it gave a width of 1.79 there); where it is off
        # the flanks start afresh from the kernel's E_max
        d = _effective_near_boundary(distance)
        rr = entanglement_rate(d)
        assert abs(rr.fwhm - fwhm_by_bisection(d, 0.0, rr.omega_max, rr.E_max)) <= 2e-9

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
