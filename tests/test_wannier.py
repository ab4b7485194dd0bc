import math

import numpy as np
import pytest

from entrate import wannier
from entrate.models import EffectiveModelParams, FullModelParams, drift_effective, drift_full
from entrate.rates import _panel_omegas, log_negativity, spectral_density
from entrate.scattering import BeamBlocks, correlator_batch
from entrate.wannier import (DEFAULT_CUTOFF, EPSREL, FilterSpec, filtered_entanglement,
                             kernel_normalization, kernel_tail_bound, wannier_kernel,
                             wannier_kernel_array)
from mp_reference import lorentzian_filtered_mp
from quad_reference import adaptive_gk
from paper_helpers import WannierGrid, coarse_grained_correlator, triple_log_negativity

KAPPA = 1.0


def sinc_wavepacket(m: int, tau: float, t: np.ndarray) -> np.ndarray:
    """Time-domain Wannier packet f_m(t) = e^{-i omega_m t}
    sin(delta_omega t / 2) / (delta_omega t / 2) / sqrt(tau) for slot n = 0;
    slot n is f_m(t - n tau)."""
    t = np.asarray(t, dtype=float)
    dw = 2.0 * math.pi / tau
    return np.exp(-1j * (m * dw) * t) * np.sinc(t / tau) / math.sqrt(tau)


def discrete_wannier_basis(n_slots: int, m_values: np.ndarray | None = None,
                           oversample: int = 16, tau: float = 1.0,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal realization of the wave-packet basis on a periodic
    discrete time grid (n_slots slots, `oversample` samples per slot).

    Each basis function is reconstructed by inverse FFT of its boxcar
    spectrum. Returns (t, basis) with basis[j, i, :] the packet at frequency
    slot m_values[j] and time slot i; rows are orthonormal under the
    discrete inner product dt * sum conj(f) g.
    """
    if m_values is None:
        m_values = np.arange(-2, 3)
    m_values = np.asarray(m_values, dtype=int)
    n = n_slots * oversample
    dt = tau / oversample
    t = np.arange(n) * dt
    freqs = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    dw = 2.0 * math.pi / tau

    if np.max(np.abs(m_values)) >= oversample // 2:
        raise ValueError("frequency slots exceed the Nyquist range of the grid")

    basis = np.empty((m_values.size, n_slots, n), dtype=complex)
    for j, m in enumerate(m_values):
        box = (freqs >= (m - 0.5) * dw) & (freqs < (m + 0.5) * dw)
        for i in range(n_slots):
            spec = np.zeros(n, dtype=complex)
            spec[box] = np.exp(1j * freqs[box] * (i * tau)) / math.sqrt(dw)
            # unitary convention: f(t) = int F(w) e^{-iwt} dw / sqrt(2 pi)
            basis[j, i] = np.fft.fft(spec) * (freqs[1] - freqs[0]) / math.sqrt(2.0 * math.pi)
    return t, basis


def wannier_kernel_scalar(M: int, l: int, k: int) -> complex:
    """Element-by-element reference for wannier_kernel_array, with the
    phases reduced mod M on Python integers."""
    if k == 0:
        return complex(1.0 / math.sqrt(M))
    r = k % M
    if r == 0:
        return 0j
    phase = 2.0 * math.pi * r / M
    return complex(math.sqrt(M) * (np.exp(1j * phase) - 1.0) / (2j * math.pi * k)
                   * (-1.0) ** (k % 2) * np.exp(1j * (2.0 * math.pi * ((l * r) % M) / M)))


_GL_X, _GL_W = np.polynomial.legendre.leggauss(2048)


def overlap_numeric(M: int, l: int, k: int, tau: float = 1.0) -> complex:
    """Independent overlap oracle: direct quadrature of the frequency-space
    inner product between a coarse-grained boxcar basis function and an
    original one displaced by k time slots."""
    dw = 2 * math.pi / tau
    dwp = dw / M
    a = -dw / 2 + l * dwp
    b = a + dwp
    om = 0.5 * (b - a) * _GL_X + 0.5 * (a + b)
    integrand = np.exp(1j * om * k * tau) / math.sqrt(dw * dwp)
    return complex(np.sum(_GL_W * integrand) * 0.5 * (b - a))


class TestWannierKernel:
    def test_identity_coarse_graining(self):
        assert wannier_kernel(1, 0, 0) == 1.0
        for k in (1, -1, 5, 100):
            assert wannier_kernel(1, 0, k) == 0.0

    def test_reference_values_m2(self):
        assert wannier_kernel(2, 0, 0) == pytest.approx(1 / math.sqrt(2))
        for k in (2, 4, -6):
            assert wannier_kernel(2, 0, k) == 0.0
        for k in (1, -1, 3, -5):
            assert abs(wannier_kernel(2, 0, k)) ** 2 == pytest.approx(
                2.0 / (math.pi ** 2 * k ** 2), rel=1e-12)

    def test_matches_quadrature_oracle(self):
        for m_fac, l in [(1, 0), (2, 0), (2, 1), (3, 1), (8, 5)]:
            for k in range(-7, 8):
                ref = overlap_numeric(m_fac, l, k)
                got = wannier_kernel(m_fac, l, k)
                assert got == pytest.approx(ref, abs=1e-12), (m_fac, l, k)

    def test_oracle_is_tau_independent(self):
        for tau in (1.0, 2.5):
            assert overlap_numeric(3, 2, 4, tau=tau) == pytest.approx(
                wannier_kernel(3, 2, 4), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        ks = np.arange(-40, 41)
        for m_fac in (2, 3, 8, 64):
            for l in (0, m_fac - 1):
                vec = wannier_kernel_array(m_fac, l, ks)
                sca = np.array([wannier_kernel_scalar(m_fac, l, int(k)) for k in ks])
                np.testing.assert_allclose(vec, sca, atol=1e-15)
                assert wannier_kernel(m_fac, l, 7) == vec[ks == 7][0]

    def test_invalid_l_rejected(self):
        with pytest.raises(ValueError):
            wannier_kernel(4, 4, 1)
        with pytest.raises(ValueError):
            wannier_kernel(4, -1, 1)


class TestKernelNormalization:
    @pytest.mark.parametrize("m_fac", [1, 2, 3, 8, 64])
    def test_norm_within_tail_bound(self, m_fac):
        # |K(k)| does not depend on l, so one sum holds for every l
        ks = np.arange(-64, 65)
        size = np.abs(wannier_kernel_array(m_fac, 0, ks))
        for l in range(1, m_fac):
            np.testing.assert_allclose(np.abs(wannier_kernel_array(m_fac, l, ks)), size,
                                       rtol=1e-14, atol=1e-17)
        gap = abs(1.0 - kernel_normalization(m_fac, m_fac - 1, DEFAULT_CUTOFF))
        assert gap < 1e-4
        assert gap <= kernel_tail_bound(m_fac, DEFAULT_CUTOFF)

    @pytest.mark.parametrize("fn, args", [
        (kernel_normalization, (0, 0, 10)), (kernel_normalization, (2, 2, 10)),
        (kernel_normalization, (2, 0, 0)), (coarse_grained_correlator, (1.0, 2, 0, -1)),
        (kernel_tail_bound, (-3, 10)), (kernel_tail_bound, (2, 0)),
        (wannier_kernel, (0, 0, 1))])
    def test_invalid_arguments_rejected(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)

    def test_m2_analytic_sum(self):
        # K(0)^2 = 1/2 plus odd-k terms 2/(pi^2 k^2) summing to 1/2
        partial = kernel_normalization(2, 0, 100)
        odd_sum = sum(2.0 / (math.pi ** 2 * k ** 2)
                      for k in range(-99, 100) if k % 2)
        assert partial == pytest.approx(0.5 + odd_sum, rel=1e-12)


class TestCoarseGraining:
    def test_zero_correlator(self):
        assert coarse_grained_correlator(0.0, 4, 1) == 0.0

    def test_preserves_constant_correlator(self):
        c = 1.0 + 2.0j
        out = coarse_grained_correlator(c, 4, 1, DEFAULT_CUTOFF)
        assert abs(out / c - 1.0) < 1e-4
        # the sum is exactly c * kernel normalization
        assert out == pytest.approx(c * kernel_normalization(4, 1, DEFAULT_CUTOFF),
                                    rel=1e-12)

    def test_entanglement_invariant_under_coarse_graining(self):
        from entrate.gaussian import CorrelatorTriple
        t = CorrelatorTriple(0.5 * math.cosh(2.0), 0.5 * math.cosh(2.0),
                             0.5 * math.sinh(2.0) * np.exp(0.7j))
        e0 = triple_log_negativity(t)
        for m_fac, l in [(2, 1), (8, 3)]:
            s = kernel_normalization(m_fac, l, DEFAULT_CUTOFF)
            coarse = CorrelatorTriple(0.5 + s * (t.n_plus - 0.5),
                                      0.5 + s * (t.n_minus - 0.5),
                                      coarse_grained_correlator(t.xi, m_fac, l))
            assert triple_log_negativity(coarse) == pytest.approx(e0, abs=2e-4)


class TestDiscreteBasis:
    def test_orthonormal_on_periodic_grid(self):
        t, basis = discrete_wannier_basis(n_slots=8, m_values=np.arange(-2, 3),
                                          oversample=16)
        dt = t[1] - t[0]
        flat = basis.reshape(-1, basis.shape[-1])
        gram = dt * (flat.conj() @ flat.T)
        np.testing.assert_allclose(gram, np.eye(flat.shape[0]), atol=1e-8)

    def test_matches_continuum_sinc_in_window_center(self):
        n_slots, oversample = 64, 16
        t, basis = discrete_wannier_basis(n_slots=n_slots, m_values=np.array([1]),
                                          oversample=oversample)
        n_mid = n_slots // 2
        packet = basis[0, n_mid]
        expected = sinc_wavepacket(1, 1.0, t - n_mid * 1.0)
        mid = slice((n_mid - 3) * oversample, (n_mid + 3) * oversample)
        assert np.max(np.abs(packet[mid] - expected[mid])) < 0.02

    def test_nyquist_guard(self):
        with pytest.raises(ValueError):
            discrete_wannier_basis(n_slots=4, m_values=np.array([9]), oversample=16)


class TestWannierGrid:
    def test_delta_omega_derived_exactly(self):
        grid = WannierGrid(tau=0.5, M=4, l=2)
        assert grid.delta_omega * grid.tau == pytest.approx(2 * math.pi, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            WannierGrid(tau=-1.0)
        with pytest.raises(ValueError):
            WannierGrid(tau=1.0, M=2, l=2)


class TestFilteredEntanglement:
    def drift(self, gamma=0.3):
        g = math.sqrt(1e3 * KAPPA * gamma)
        return drift_full(FullModelParams(g=g, Gamma=gamma, kappa=KAPPA))

    def test_zero_coupling(self):
        d = drift_full(FullModelParams(g=0.0, Gamma=0.3, kappa=KAPPA))
        for tau in (10.0, 1e3):
            e = filtered_entanglement(d, 0.0, FilterSpec(0.0, tau),
                                      FilterSpec(0.0, tau))
            assert e == pytest.approx(0.0, abs=1e-9)

    def test_builds_its_beam_blocks_once(self, monkeypatch):
        built = []
        of = BeamBlocks.of.__func__
        monkeypatch.setattr(BeamBlocks, "of",
                            classmethod(lambda cls, *a: built.append(1) or of(cls, *a)))
        for shape in ("wannier", "lorentzian"):
            filtered_entanglement(self.drift(), 1.0, FilterSpec(0.5, 1e2),
                                  FilterSpec(-0.5, 1e2), shape)
        assert len(built) == 2

    @pytest.mark.parametrize("shape, tau, points", [
        ("wannier", 1e2, 16), ("wannier", 1e3, 16), ("wannier", 1e4, 16), ("lorentzian", 1e2, 1321)])
    def test_each_node_evaluated_once(self, monkeypatch, shape, tau, points):
        # the four averages share their panels: the kernel sees each node
        # once per call (the scale's seeds, then one call per GK sweep), 16
        # and 1,321 points where one evaluation per average took 61 and 3,046
        points_seen, triple = [], wannier._triple
        monkeypatch.setattr(wannier, "_triple",
                            lambda b, w: points_seen.append(w.size) or triple(b, w))
        d = drift_full(FullModelParams(g=5.0, Gamma=0.3, delta=1.0))
        filtered_entanglement(d, 0.0, FilterSpec(0.3, tau), FilterSpec(-0.3, tau), shape)
        assert sum(points_seen) == points

    @pytest.mark.parametrize("shape", ["wannier", "lorentzian"])
    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_equals_four_one_problem_averages(self, shape, omega):
        # the four component averages as separate one-problem integrals
        d, n_th, tau = self.drift(), 50.0, 1e2
        half, warp, unwarp = ((math.pi, np.positive, np.positive) if shape == "wannier"
                              else (0.5 * math.pi, np.tan, np.arctan))

        def parts(theta):
            nu_plus, nu_minus, xi, _ = correlator_batch(d, omega + warp(theta) / tau, n_th)
            return np.stack([nu_plus, nu_minus, xi.real, xi.imag])

        # the runtime's edges: the rate's resonance ladders in omega
        blocks = BeamBlocks.of(d, n_th)
        (omegas,) = _panel_omegas(blocks.eigenvalues, blocks.decay.max(axis=1))
        seeds = unwarp(tau * (omegas[np.isfinite(omegas)] - omega))
        seeds = seeds[np.abs(seeds) < half]
        s_scale = float(np.max(np.abs(parts(np.append(seeds, 0.0))))) + 1e-12
        vals = [adaptive_gk(lambda t, i=i: parts(t)[i], -half, half,
                            epsabs=EPSREL * s_scale * 2.0 * half,
                            initial_points=seeds)[0] / (2.0 * half) for i in range(4)]
        nu_plus, nu_minus, xi = vals[0], vals[1], complex(vals[2], vals[3])
        q_excess = 0.5 * (nu_plus + nu_minus) + nu_plus * nu_minus - abs(xi) ** 2
        assert filtered_entanglement(d, n_th, FilterSpec(omega, tau), FilterSpec(-omega, tau),
                                     shape) == float(log_negativity(nu_plus, nu_minus, xi,
                                                                    q_excess))

    def test_converges_to_spectral_density(self):
        d = self.drift()
        e0 = spectral_density(d, 0.0, 0.0)
        e_tau = filtered_entanglement(d, 0.0, FilterSpec(0.0, 1e3),
                                      FilterSpec(0.0, 1e3))
        assert abs(e_tau - e0) < 0.05 * e0

    def test_strictly_decreasing_deviation(self):
        d = self.drift()
        e0 = spectral_density(d, 0.0, 0.0)
        devs = [abs(filtered_entanglement(d, 0.0, FilterSpec(0.0, tau),
                                          FilterSpec(0.0, tau)) - e0)
                for tau in (10.0, 1e2, 1e3, 1e4)]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.01 * e0

    def test_lorentzian_shape_also_converges_monotonically(self):
        d = self.drift()
        e0 = spectral_density(d, 0.0, 0.0)
        devs = [abs(filtered_entanglement(d, 0.0, FilterSpec(0.0, tau),
                                          FilterSpec(0.0, tau),
                                          shape="lorentzian") - e0)
                for tau in (10.0, 1e2, 1e3)]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_lorentzian_large_tau_rate_is_one_over_tau(self):
        # in the small-deviation regime the Lorentzian filter converges like
        # 1/tau; fit the log-log slope over two decades
        d = self.drift(gamma=0.5)
        e0 = spectral_density(d, 0.0, 0.0)
        taus = np.array([1e4, 1e5, 1e6])
        devs = np.array([abs(filtered_entanglement(d, 0.0, FilterSpec(0.0, t),
                                                   FilterSpec(0.0, t),
                                                   shape="lorentzian") - e0)
                         for t in taus])
        slope = np.polyfit(np.log(taus), np.log(devs), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.3)

    def test_panel_budget_raises(self, monkeypatch):
        # an average that runs out of panels fails the call with its
        # QuadratureError, not a value short of its tolerance
        from entrate import quadutil
        from entrate.errors import QuadratureError
        monkeypatch.setattr(quadutil, "_MAX_PANELS", 8)
        d = drift_full(FullModelParams(g=5.0, Gamma=0.3, delta=1.0))
        with pytest.raises(QuadratureError, match="panel budget exhausted"):
            filtered_entanglement(d, 0.0, FilterSpec(0.3, 1e2), FilterSpec(-0.3, 1e2),
                                  "lorentzian")

    def test_mismatched_filters_rejected(self):
        d = self.drift()
        with pytest.raises(ValueError):
            filtered_entanglement(d, 0.0, FilterSpec(0.0, 10.0), FilterSpec(0.0, 20.0))
        with pytest.raises(ValueError):
            filtered_entanglement(d, 0.0, FilterSpec(1.0, 10.0), FilterSpec(2.0, 10.0))
        with pytest.raises(ValueError):
            filtered_entanglement(d, 0.0, FilterSpec(0.0, 10.0), FilterSpec(0.0, 10.0),
                                  shape="boxcar")

    @pytest.mark.parametrize("omega_center, tau, field", [
        (0.3, math.nan, "tau"), (math.nan, 1e2, "omega_center"),
        (math.inf, 1e2, "omega_center"), (-math.inf, 1e2, "omega_center")])
    def test_filter_spec_rejects_a_non_number(self, omega_center, tau, field):
        # the spec names its own field: a NaN tau or centre got past it to
        # the pair checks of filtered_entanglement, whose messages blamed
        # the pair, and an infinite centre on to the kernel, which warned
        # and called a stable drift singular
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FilterSpec(omega_center, tau)

    def test_off_center_filter_pair(self):
        # beam-1 filter at +omega, beam-2 at -omega, off the spectrum peak
        gamma = 0.3
        g = math.sqrt(1e3 * KAPPA * gamma)
        d = drift_full(FullModelParams(g=g, Gamma=gamma, kappa=KAPPA))
        w = 0.5
        e_ref = spectral_density(d, w, 0.0)
        e_tau = filtered_entanglement(d, 0.0, FilterSpec(w, 2e3),
                                      FilterSpec(-w, 2e3))
        assert abs(e_tau - e_ref) < 0.05 * e_ref


class TestLorentzianOracle:
    """The Lorentzian average against a 60-digit Lyapunov solve of the
    filtered pair. Both see the same float64 drift; the float64 average is
    limited by the cancellation in n_plus n_minus - |xi|^2 (about 1e-6)."""

    FULL = drift_full(FullModelParams(g=math.sqrt(300.0), Gamma=0.3, kappa=KAPPA))
    EFFECTIVE = drift_effective(EffectiveModelParams(g=5.0, delta=10.0, kappa=KAPPA,
                                                     Delta=-0.2))

    @pytest.mark.parametrize("model", ["full", "effective"])
    @pytest.mark.parametrize("tau", [10.0, 1e3, 1e5])
    def test_matches_lyapunov_solution(self, model, tau):
        d = self.FULL if model == "full" else self.EFFECTIVE
        e_tau = filtered_entanglement(d, 0.0, FilterSpec(0.0, tau), FilterSpec(0.0, tau),
                                      shape="lorentzian")
        assert abs(e_tau - lorentzian_filtered_mp(d, 0.0, 0.0, tau)) <= 1e-5

    def test_thermal_mechanics(self):
        d = drift_full(FullModelParams(g=math.sqrt(300.0), Gamma=0.3, kappa=KAPPA,
                                       n_th=50.0))
        e_tau = filtered_entanglement(d, 50.0, FilterSpec(0.0, 1e3), FilterSpec(0.0, 1e3),
                                      shape="lorentzian")
        assert abs(e_tau - lorentzian_filtered_mp(d, 50.0, 0.0, 1e3)) <= 1e-5

    def test_off_center_pair(self):
        e_tau = filtered_entanglement(self.FULL, 0.0, FilterSpec(0.5, 2e3),
                                      FilterSpec(-0.5, 2e3), shape="lorentzian")
        assert abs(e_tau - lorentzian_filtered_mp(self.FULL, 0.0, 0.5, 2e3)) <= 1e-5
