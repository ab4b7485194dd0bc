import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from entrate.closedforms import eta_minus_resonant
from entrate.errors import UnstableSystemError
from entrate.models import (BEAM_BLOCK, DriftMatrix, EffectiveModelParams, FullModelParams,
                            drift_effective, drift_full, stability)
from entrate.quadutil import bisect_all
from entrate.rates import (_beam_polynomials, _count_local_maxima, _density, _fwhms,
                           _scale, entanglement_rate, entanglement_rates, frequency_grid,
                           spectral_density, spectral_density_batch, spectrum_and_density,
                           spectrum_peak)
from entrate.scattering import BeamBlocks, correlator_batch, spectrum_parts
from fwhm_reference import fwhm_by_bisection
from lu_reference import scattering_matrices
from mp_reference import reference_point
from peak_reference import refined_peaks
from paper_helpers import symmetrized_density, to_nats_per_second
from strategies import stable_drifts

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

    def test_a_failure_stays_in_its_slot(self):
        d = full_drift(delta=10.0)
        m = np.array(d.m)
        m[0, 4] *= 2.0             # not reciprocal
        m[1, 5] = np.conj(m[0, 4])
        bad = DriftMatrix(m, d.decay, d.ordering)
        good, odd, good2 = entanglement_rates([d, bad, full_drift()], [0.0, 0.0, 0.0])
        assert isinstance(odd, ValueError) and "not reciprocal" in str(odd)
        assert good == entanglement_rate(d) and good2 == entanglement_rate(full_drift())

    def test_drifts_of_two_models_rejected(self):
        d_eff = drift_effective(EffectiveModelParams(g=5.0, delta=10.0, Delta=-0.2))
        with pytest.raises(ValueError, match="one model"):
            entanglement_rates([full_drift(), d_eff], [0.0, 0.0])


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
        omega, height = spectrum_peak(BeamBlocks.of([d], [n_th]))
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


class TestFwhm:
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
        y = np.array(ys, dtype=float)
        assert _count_local_maxima(y, e_max) == self.scipy_count(y, e_max)

    def test_plateau_peak_and_border_plateau(self):
        y = np.array([0.0, 2.0, 2.0, 2.0, 0.0, 1.0, 1.0])
        assert _count_local_maxima(y, 2.0) == 1


def test_refined_peak_keeps_a_sample_the_search_misses():
    # a spike narrower than the search grid over its neighbours' bracket
    def e(w):
        return np.where(np.abs(w - 1e-3) < 1e-7, 5.0, 1.0 - np.abs(w - 0.5))

    grid = np.array([0.0, 1e-3, 1.0])
    x, f = refined_peaks(lambda w, _: e(w), [grid], [e(grid)], xtol=1e-10)
    assert (x[0], f[0]) == (1e-3, 5.0)


def test_rate_unit_conversion():
    assert to_nats_per_second(0.5, 2e6) == pytest.approx(1e6)
