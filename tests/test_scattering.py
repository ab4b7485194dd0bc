import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrate.closedforms import full_model_correlators_resonant, pair_rate_closed
from entrate.errors import UnstableSystemError
from entrate.gaussian import covariance_from_correlators, symplectic_spectrum
from entrate.models import (DriftMatrix, EffectiveModelParams, FullModelParams, drift_effective,
                            drift_full, stability, stability_gate)
from entrate import cli, scattering
from entrate.rates import (_gram_density, entanglement_rate, spectral_density,
                           spectral_density_batch, spectrum_and_density)
from entrate.scattering import (BeamBlocks, _det, _gram, _pair_rate, _spectrum, _triple,
                                correlator_batch, output_correlators, output_spectrum,
                                pair_rate_numeric, spectrum_parts)
from entrate.verify import block_scattering, effective_scattering_oracle
from entrate.wannier import FilterSpec, filtered_entanglement
from doubled_reference import BEAM, doubled_drift
from gated_batch import gated
from lu_reference import (input_noise_matrix, intra_beam_correlator, scattering_matrices,
                          scattering_matrix)
from mp_reference import reference_point
from strategies import drift_of, stable_points

KAPPA = 1.0


def full_params(g=5.0, Gamma=1e-3, Delta=0.0, delta=0.0):
    return FullModelParams(g=g, Gamma=Gamma, kappa=KAPPA, Delta=Delta, delta=delta)


def eff_params(g=5.0, delta=10.0, Delta=0.0):
    return EffectiveModelParams(g=g, delta=delta, kappa=KAPPA, Delta=Delta)


def full_drift(**kwargs):
    return drift_full(full_params(**kwargs))


def eff_drift(**kwargs):
    return drift_effective(eff_params(**kwargs))


def beam_block(d):
    """The places of the beam operators of d in the doubled basis."""
    return list(BEAM[:len(d.m)])


class TestScatteringMatrix:
    """The beam-block S that verify evaluates from the kernel's polynomial
    coefficients, and the doubled-basis LU reference behind the block
    reduction."""

    def test_zero_coupling_is_pure_phase(self):
        for d in (eff_drift(g=0.0, Delta=0.4), full_drift(g=0.0, Delta=0.4, delta=3.0)):
            for s in block_scattering(d, np.array([-3.0, 0.0, 1.7])):
                np.testing.assert_allclose(np.abs(np.diag(s)), 1.0, atol=1e-12)
                assert np.all(s - np.diag(np.diag(s)) == 0)

    def test_identity_at_large_frequency(self):
        for d in (eff_drift(), full_drift(delta=10.0)):
            for s in block_scattering(d, np.array([1e6, -1e6])):
                assert np.max(np.abs(s - np.eye(len(s)))) < 1e-5

    def test_matches_effective_closed_form(self):
        d, doubled = eff_drift(), doubled_drift(eff_params())
        k_sig = np.diag([1.0, -1.0])
        for w in (0.0, 0.37, -2.2, 11.0):
            ref = effective_scattering_oracle(5.0, KAPPA, 10.0, 0.0, w)
            s = block_scattering(d, np.array([w]))[0]
            np.testing.assert_allclose(s, ref, atol=1e-12)
            np.testing.assert_allclose(scattering_matrix(doubled, w)[np.ix_(beam_block(d),
                                                                            beam_block(d))],
                                       ref, atol=1e-12)
            assert np.max(np.abs(s @ k_sig @ s.conj().T - k_sig)) < 1e-10

    def test_flux_relation(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 20:
            g = rng.uniform(0.2, 6.0)
            delta = rng.uniform(-15.0, 15.0)
            big = rng.uniform(-1.0, 1.0)
            p = full_params(g=g, Gamma=rng.uniform(1e-3, 0.2), Delta=big, delta=delta)
            d = drift_full(p)
            if not stability(d).stable:
                continue
            checked += 1
            omegas = rng.uniform(-30, 30, size=20)
            for s, k_sig in ((scattering_matrices(doubled_drift(p), omegas),
                              np.diag([1.0, -1.0] * 3)),
                             (block_scattering(d, omegas), np.diag([1.0, -1.0, 1.0]))):
                dev = np.max(np.abs(s @ k_sig @ s.conj().transpose(0, 2, 1) - k_sig))
                assert dev < 1e-10

    def test_conjugation_pairing_between_opposite_frequencies(self):
        # S(-omega) on the partner block is conj S(omega) on the beam block,
        # which the beam-block S equals: the block at +omega is all of S
        p = full_params(delta=10.0, Delta=-0.2)
        d, doubled = drift_full(p), doubled_drift(p)
        perm = [1, 0, 3, 2, 5, 4]
        block = beam_block(d)
        for w in (0.0, 1.3, -7.7):
            sp = scattering_matrix(doubled, w)
            sm = scattering_matrix(doubled, -w)
            np.testing.assert_allclose(sp, np.conj(sm)[np.ix_(perm, perm)],
                                       atol=1e-10)
            np.testing.assert_allclose(block_scattering(d, np.array([w]))[0],
                                       sp[np.ix_(block, block)], atol=1e-12)


class TestOutputCorrelators:
    def test_vacuum_at_zero_coupling(self):
        t = output_correlators(full_drift(g=0.0), 1.3, 50.0)
        assert t.n_plus == pytest.approx(0.5, abs=1e-14)
        assert t.n_minus == pytest.approx(0.5, abs=1e-14)
        assert abs(t.xi) < 1e-14

    def test_effective_occupation_equals_s14(self):
        d, doubled = eff_drift(), doubled_drift(eff_params())
        for w in (0.0, 0.7, -4.0):
            s = scattering_matrix(doubled, w)
            t = output_correlators(d, w)
            assert t.n_plus == pytest.approx(abs(s[0, 3]) ** 2 + 0.5, rel=1e-12)
            assert t.n_minus == pytest.approx(abs(s[0, 3]) ** 2 + 0.5, rel=1e-12)
            sm = scattering_matrix(doubled, -w)
            assert t.xi == pytest.approx(s[0, 0] * sm[0, 3], rel=1e-12)

    def test_matches_resonant_closed_form(self):
        g, gamma = 5.0, 1e-3
        for delta in (-6.0, 2.0, 10.0):
            d = full_drift(g=g, Gamma=gamma, delta=delta)
            for w in (-7.0, 0.5, 3.0, 12.0):
                for n_th in (0.0, 50.0):
                    got = output_correlators(d, w, n_th)
                    ref = full_model_correlators_resonant(g, KAPPA, gamma, delta,
                                                          n_th, w)
                    assert got.n_plus == pytest.approx(ref.n_plus, rel=1e-9)
                    assert got.n_minus == pytest.approx(ref.n_minus, rel=1e-9)
                    assert got.xi == pytest.approx(ref.xi, rel=1e-9)

    def test_unstable_rejected(self):
        d = eff_drift(Delta=-0.5)
        with pytest.raises(UnstableSystemError):
            output_correlators(d, 0.0)

    def test_no_intra_beam_squeezing(self):
        rng = np.random.default_rng(9)
        d = doubled_drift(full_params(delta=10.0, Delta=-0.2))
        for w in rng.uniform(-20, 20, size=10):
            assert abs(intra_beam_correlator(d, float(w), 50.0, beam=1)) <= 1e-12
            assert abs(intra_beam_correlator(d, float(w), 50.0, beam=2)) <= 1e-12

    def test_output_covariance_physical(self):
        d = full_drift(delta=10.0, Delta=-0.2)
        for w in (-12.0, -1.0, 0.0, 3.3, 10.0):
            t = output_correlators(d, w, 50.0)
            nu = symplectic_spectrum(covariance_from_correlators(t))
            assert nu.min() >= 0.5 - 1e-9

    def test_effective_model_agrees_with_full_in_adiabatic_regime(self):
        # delta = 50k >> kappa, g: relative deviation of n_plus(0) <= 5%
        g, delta = 5.0, 50.0
        for big in (-0.2, -0.1, 0.0, 0.1, 0.2):
            d_full = full_drift(g=g, Gamma=1e-3, Delta=big, delta=delta)
            d_eff = eff_drift(g=g, delta=delta, Delta=big)
            n_full = output_correlators(d_full, 0.0, 0.0).n_plus
            n_eff = output_correlators(d_eff, 0.0, 0.0).n_plus
            assert abs(n_full - n_eff) / n_full <= 0.05

    def test_input_noise_matrix_layout(self):
        c = input_noise_matrix(6, 3.0)
        assert c[0, 1] == 1.0 and c[2, 3] == 1.0
        assert c[4, 5] == 4.0 and c[5, 4] == 3.0
        assert np.count_nonzero(c) == 4
        c4 = input_noise_matrix(4, 99.0)
        assert np.count_nonzero(c4) == 2


class TestOutputSpectrum:
    def test_zero_coupling_is_dark(self):
        pt = output_spectrum(full_drift(g=0.0), 0.3, 50.0)
        assert pt.total == pytest.approx(0.0, abs=1e-14)

    def test_parts_add_to_total(self):
        d = full_drift(delta=10.0)
        for w in (-3.0, 0.0, 5.0, 9.9995, 10.0):
            pt = output_spectrum(d, w, 50.0)
            assert pt.total == pytest.approx(pt.optical_part + pt.mechanical_part,
                                             rel=1e-10)
            assert pt.optical_part >= 0 and pt.mechanical_part >= 0

    def test_total_equals_n_plus(self):
        d = full_drift(delta=10.0, Delta=-0.2)
        for w in (0.0, 2.0, 10.0):
            pt = output_spectrum(d, w, 50.0)
            t = output_correlators(d, w, 50.0)
            assert pt.total == pytest.approx(t.n_plus - 0.5, rel=1e-10)

    def test_two_peak_structure_fig4a(self):
        # off-resonant mechanics: optical peak near 0, mechanical peak at delta
        delta = 10.0
        d = full_drift(delta=delta)
        near_zero = output_spectrum(d, 0.9, 50.0)
        at_delta = output_spectrum(d, delta, 50.0)
        between = output_spectrum(d, 5.0, 50.0)
        assert near_zero.total > 10 * between.total
        assert at_delta.total > 100 * between.total
        assert at_delta.mechanical_part > 1e4 * near_zero.mechanical_part

    def test_merged_peak_at_double_resonance(self):
        # delta = 0: single peak at omega = 0 with mechanical linewidth
        gamma = 1e-3
        d = full_drift(Gamma=gamma, delta=0.0)
        s0 = output_spectrum(d, 0.0, 50.0).total
        s_half = output_spectrum(d, gamma / 2, 50.0).total
        s_far = output_spectrum(d, 50 * gamma, 50.0).total
        assert s_half == pytest.approx(s0 / 2, rel=0.05)
        assert s_far < 0.02 * s0

    def test_effective_model_has_no_mechanical_part(self):
        pt = output_spectrum(eff_drift(), 0.5)
        assert pt.mechanical_part == 0.0
        assert pt.total > 0


class TestPairRate:
    def test_zero_coupling(self):
        p = EffectiveModelParams(g=0.0, delta=10.0, kappa=KAPPA)
        assert pair_rate_numeric(p) == pytest.approx(0.0, abs=1e-12)

    def test_reference_value(self):
        p = EffectiveModelParams(g=5.0, delta=10.0, kappa=KAPPA)
        assert pair_rate_numeric(p) == pytest.approx(0.78125, rel=1e-14)

    def test_matches_closed_form(self):
        # the last two sit at stability margins 7.5e-5 and 7.5e-6 (rates 2.6e3, 2.6e4)
        for (g, delta, big) in [(5.0, 10.0, -0.2), (2.0, -8.0, 0.3), (1.0, 30.0, 0.0),
                                (5.0, 10.0, -0.2499), (5.0, 10.0, -0.24999)]:
            p = EffectiveModelParams(g=g, delta=delta, kappa=KAPPA, Delta=big)
            assert pair_rate_numeric(p) == pytest.approx(
                pair_rate_closed(g, KAPPA, delta, big), rel=1e-9)

    def test_stacked_rates_equal_one_point_rates(self):
        # one stacked solve; each rate is pair_rate_numeric of its point to
        # the bit, down to 1e-4 from the boundary at Delta = -0.25
        params = [EffectiveModelParams(g=g, delta=delta, kappa=KAPPA, Delta=big)
                  for g, delta, big in [(5.0, 10.0, -0.2), (2.0, -8.0, 0.3), (0.0, 10.0, 0.0),
                                        (5.0, 10.0, -0.2499), (1.0, 30.0, 0.0),
                                        (5.0, 10.0, 1.5)]]
        m = np.stack([drift_effective(p).m for p in params])
        decay = np.stack([drift_effective(p).decay for p in params])
        stacked = _pair_rate(m, decay)
        assert [x.hex() for x in stacked.tolist()] == [pair_rate_numeric(p).hex() for p in params]

    def test_grows_towards_boundary(self):
        base = pair_rate_numeric(EffectiveModelParams(g=5.0, delta=10.0, kappa=KAPPA))
        near = pair_rate_numeric(EffectiveModelParams(g=5.0, delta=10.0, kappa=KAPPA,
                                                      Delta=-0.24))
        assert near > 10 * base

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystemError):
            pair_rate_numeric(EffectiveModelParams(g=5.0, delta=10.0, kappa=KAPPA,
                                                   Delta=-0.5))
        # on the boundary itself the Gramian system is singular
        with pytest.raises(UnstableSystemError):
            pair_rate_numeric(EffectiveModelParams(g=5.0, delta=10.0, kappa=KAPPA,
                                                   Delta=-0.25))


# -- beam-block kernel against the extended-precision reference --------------

class TestBlockKernel:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(stable_points(), st.floats(-20.0, 20.0))
    # thermal: N = nu+ + nu- + root - 4 (q - 1/4) cancelled to 38,155 ulp of
    # E here; the Gram form is within 1 ulp
    @example((FullModelParams(g=0.6, Gamma=0.02, Delta=-0.4, delta=3.9, n_th=1e4), 1e4), 3.95)
    def test_exact_against_extended_precision(self, point, omega):
        p, n_th = point
        d, doubled = drift_of(p), doubled_drift(p)
        q = 0.25 + correlator_batch(d, np.array([omega]), n_th)[3]
        q_ref, e_ref = reference_point(doubled, omega, n_th)
        # q inherits the conditioning of the solve (~1e-12 relative at high
        # C); E does not, since the solve is backward stable and E is a
        # well-conditioned function of the drift
        assert q[0] > 0 and q[0] == pytest.approx(q_ref, rel=1e-9)
        # E from the Gram form is a sum of non-negative terms: measured
        # within 7 ulp of the reference off narrow resonances, and within
        # 7e-14 relative on one (omega = delta, Gamma = 1e-3), where the
        # Horner pass for det cancels
        e = spectral_density(d, omega, n_th)
        assert e >= 0.0
        assert abs(e - e_ref) <= 2e-13 * e_ref
        # the beam block's rows and columns of the doubled-basis LU S
        block = beam_block(d)
        s = scattering_matrix(doubled, omega)[np.ix_(block, block)]
        k_sig = np.diag([1.0, -1.0, 1.0][:s.shape[0]])
        scale = max(1.0, float(np.max(np.abs(s))) ** 2)
        assert np.max(np.abs(s @ k_sig @ s.conj().T - k_sig)) <= 1e-12 * scale

    @pytest.mark.parametrize("kernel, form", [
        (spectral_density_batch, lambda b, w: _gram(b, w, _gram_density)),
        (spectrum_parts, lambda b, w: _gram(b, w, _spectrum)),
        (correlator_batch, _triple)], ids=["spectral_density_batch", "spectrum_parts",
                                           "correlator_batch"])
    def test_singular_response_at_a_marginal_point(self, kernel, form):
        # g = 2, delta = 2, Delta = -0.5 sits on the boundary (max Re eig =
        # -2.5e-32): the gate rejects it, so the public kernel raises the
        # gate's error; a marginal block stacked without the gate reaches
        # the kernel, where det(m + i omega) vanishes at omega = 0, and the
        # error names the margin of the batch's eigenvalues
        d = eff_drift(g=2.0, delta=2.0, Delta=-0.5)
        margin = stability(d).max_real_part
        with pytest.raises(UnstableSystemError, match="system is unstable") as exc:
            kernel(d, np.array([1.0, 0.0]))
        assert exc.value.max_real_part == margin < 0
        m, decay = d.m[None], d.decay[None]
        blocks = BeamBlocks(m, decay, np.zeros(1), stability_gate(m)[0])
        with pytest.raises(UnstableSystemError, match="singular response matrix") as exc:
            form(blocks, np.array([1.0, 0.0]))
        assert exc.value.max_real_part == margin

    def test_batch_eigenvalues_are_the_gate_s(self):
        drifts = [full_drift(), full_drift(Delta=0.3, delta=-4.0), full_drift(g=0.0),
                  full_drift(Delta=-0.5, delta=10.0)]
        n_ths = [0.0, 5.0, 1.0, 0.0]
        m = np.array([d.m for d in drifts])
        eigenvalues, _, _ = stability_gate(m)
        # the second and the last drift are unstable: the gate keeps the
        # others with their eigenvalues, alone or stacked, and BeamBlocks.of
        # raises the error of a drift it rejects, with its margin
        batch, places, failures = gated(drifts, n_ths)
        assert places == [0, 2] and sorted(failures) == [1, 3]
        assert batch.eigenvalues.tobytes() == eigenvalues[places].tobytes()
        blocks, _, _ = gated([drifts[i] for i in places], [n_ths[i] for i in places])
        assert blocks.eigenvalues.tobytes() == eigenvalues[places].tobytes()
        for i in places:
            alone = BeamBlocks.of(drifts[i], n_ths[i])
            assert alone.eigenvalues.tobytes() == eigenvalues[i:i + 1].tobytes()
        for i in (1, 3):
            with pytest.raises(UnstableSystemError) as exc:
                BeamBlocks.of(drifts[i], n_ths[i])
            assert exc.value.max_real_part == failures[i].max_real_part
            assert exc.value.max_real_part == stability(drifts[i]).max_real_part > 0
        # a batch stacked without the gate keeps the rows it is given
        unstable = BeamBlocks(m, np.array([d.decay for d in drifts]),
                              np.array(n_ths), eigenvalues)
        idx = np.array([3, 0, 2])
        part = unstable.take(idx)
        assert part.eigenvalues.tobytes() == eigenvalues[idx].tobytes()
        assert part.m.tobytes() == unstable.m[idx].tobytes()

    def test_coefficients_on_first_use(self, monkeypatch):
        # adj and char are computed together when first read, once, and a
        # sub-batch keeps them if they are; each equals the whole batch's rows
        drifts = [full_drift(), full_drift(delta=-3.0), full_drift(g=0.0)]
        dets = []
        det = scattering._det
        monkeypatch.setattr(scattering, "_det", lambda m: dets.append(len(m)) or det(m))
        blocks, _, _ = gated(drifts, [0.0, 5.0, 1.0])
        idx = np.array([2, 0])
        assert "_coefficients" not in vars(blocks.take(idx)) and dets == []
        char = blocks.char
        assert dets == [3] and blocks.char is char and "_coefficients" in vars(blocks)
        part = blocks.take(idx)
        assert "_coefficients" in vars(part) and part.char.tobytes() == char[idx].tobytes()
        assert part.adj.tobytes() == blocks.adj[idx].tobytes()
        assert dets == [3]
        # computed on the sub-batch alone, the same bits
        alone, _, _ = gated([drifts[2], drifts[0]], [1.0, 0.0])
        assert alone.char.tobytes() == part.char.tobytes()
        assert alone.adj.tobytes() == part.adj.tobytes()


class TestExactDeterminant:
    @pytest.mark.parametrize("k", [2, 3])
    def test_correctly_rounded(self, k):
        # near-singular matrices (det ~ 1e-9 of its terms), entries spread
        # over many binades, a zero entry, a zero matrix, and entries at the
        # ends of the float range
        rng = np.random.default_rng(k)
        m = (rng.normal(size=(40, k, k)) * np.exp(3.0 * rng.normal(size=(40, k, k)))
             + 1j * rng.normal(size=(40, k, k)))
        m[:, -1, -1] -= (np.linalg.det(m) / np.linalg.det(m[:, :-1, :-1])) * (1 - 1e-9)
        m[0, 0, 1] = 0.0
        m[1] = 0.0
        m[2, 0, 0] += 1e-305j
        m[3] *= 1e100
        m[4, 1, 1] = 3e-320
        m[5] = 2.0 ** 60
        for got, block in zip(_det(m), m):
            with mp.workdps(400):
                ref = mp.det(mp.matrix([[mp.mpc(complex(z)) for z in row] for row in block]))
                assert got == complex(float(mp.re(ref)), float(mp.im(ref)))


class TestOneGate:
    """Every entry point gates its drifts through BeamBlocks.gate: one
    verdict per input and one eigen-solve per call."""

    @staticmethod
    def entry_points(d, n_th):
        spec = FilterSpec(0.3, 1e2), FilterSpec(-0.3, 1e2)
        return {
            "entanglement_rate": lambda: entanglement_rate(d, n_th),
            "spectral_density": lambda: spectral_density(d, 0.3, n_th),
            "spectral_density_batch": lambda: spectral_density_batch(d, np.array([0.3]), n_th),
            "spectrum_and_density": lambda: spectrum_and_density(d, np.array([0.3]), n_th),
            "output_correlators": lambda: output_correlators(d, 0.3, n_th),
            "correlator_batch": lambda: correlator_batch(d, np.array([0.3]), n_th),
            "spectrum_parts": lambda: spectrum_parts(d, np.array([0.3]), n_th),
            "output_spectrum": lambda: output_spectrum(d, 0.3, n_th),
            "filtered_entanglement": lambda: filtered_entanglement(d, n_th, *spec),
            "BeamBlocks.of": lambda: BeamBlocks.of(d, n_th),
        }

    def test_one_input_one_verdict(self):
        # an unstable drift with an invalid n_th: the n_th check comes
        # first at every entry point; then the unstable drift alone, a
        # drift with an infinite entry, and two stable drifts without the
        # structure the Gram form rests on: one not reciprocal, and one
        # whose a+ couples to a-^dag directly (m_+- != 0), where the E of
        # a constant K was off by 3x at omega = 0.5
        d = drift_full(FullModelParams(g=5.0, Gamma=1e-3, Delta=0.7))
        margin = stability(d).max_real_part
        assert margin > 0
        m = np.array(full_drift().m)
        m[0, 2] = np.inf
        non_finite = DriftMatrix(m, full_drift().decay)
        m = np.array(full_drift().m)
        m[0, 2] *= 2.0
        not_reciprocal = DriftMatrix(m, full_drift().decay)
        plain = drift_full(FullModelParams(g=0.3, Gamma=0.1, delta=0.5, Delta=-0.2))
        m = np.array(plain.m)
        m[0, 1], m[1, 0] = 0.05j, -0.05j
        direct = DriftMatrix(m, plain.decay)
        assert stability(not_reciprocal).stable and stability(direct).stable
        for drift, n_th, verdict in [
                (d, -1.0, ("ValueError", "n_th must be non-negative")),
                (d, 1.0, ("UnstableSystemError", str(UnstableSystemError(margin)))),
                (non_finite, 0.0, ("LinAlgError", "Array must not contain infs or NaNs")),
                (not_reciprocal, 1.0, ("ValueError", "beam block is not reciprocal "
                                       "(m^T != J m J, J = diag(1.0, -1.0, 1.0))")),
                (direct, 1.0, ("ValueError",
                               "beam block couples a+ to a-^dag directly (m_+- != 0)"))]:
            verdicts = {}
            for name, call in self.entry_points(drift, n_th).items():
                try:
                    result = call()
                except Exception as exc:
                    result = exc
                verdicts[name] = (type(result).__name__, str(result))
            assert set(verdicts.values()) == {verdict}, verdicts

    def test_gate_of_stable_unstable_and_non_finite_blocks(self):
        # one stack: the stable block passes with the eigenvalues of its
        # solve alone, the unstable one keeps its margin, and the one with
        # an infinite entry fails with a NaN margin
        stable, unstable = full_drift(), full_drift(Delta=0.7)
        m = np.array([stable.m, unstable.m, stable.m])
        m[2, 0, 2] = np.inf
        decay = np.array([stable.decay] * 3)
        blocks, passed, margin, failures = BeamBlocks.gate(m, decay, np.array([0.0, 1.0, 2.0]))
        alone, (stable_margin, unstable_margin), _ = stability_gate(m[:2])
        assert passed.tolist() == [0] and blocks.n_th.tolist() == [0.0]
        assert blocks.eigenvalues.tobytes() == stability_gate(m[:1])[0].tobytes()
        assert blocks.eigenvalues.tobytes() == alone[:1].tobytes()
        assert margin[:2].tolist() == [stable_margin, unstable_margin]
        assert stable_margin < 0 < unstable_margin and np.isnan(margin[2])
        assert {i: (type(e).__name__, str(e)) for i, e in failures.items()} == {
            2: ("LinAlgError", "Array must not contain infs or NaNs")}

    def test_one_eigen_solve_per_call(self, solves, tmp_path):
        # the gate's solve is the only one of a call without a rate (a rate
        # adds the roots of R and of P_c)
        d = full_drift(delta=10.0)
        calls = {name: call for name, call in self.entry_points(d, 2.0).items()
                 if not name.startswith("entanglement_rate")}
        calls["pair_rate_numeric"] = lambda: pair_rate_numeric(
            EffectiveModelParams(g=5.0, delta=10.0, Delta=0.3))
        for command in ("spectrum", "entanglement"):
            calls[f"cli {command}"] = lambda command=command: cli.main(
                [command, "--delta", "10", "--nth", "2", "--omega-steps", "11",
                 "--output", str(tmp_path / f"{command}.csv")])
        counts = {}
        for name, call in calls.items():
            solves.clear()
            call()
            counts[name] = [a.shape for a in solves]
        assert all(shapes in ([(1, 3, 3)], [(1, 2, 2)]) for shapes in counts.values()), counts
