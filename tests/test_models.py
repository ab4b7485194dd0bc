import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.optimize import linear_sum_assignment

from entrate import models
from entrate.models import (STABILITY_TOL, DriftMatrix, EffectiveModelParams, FullModelParams,
                            beam_blocks, drift_effective, drift_full, eigvals, pairing_defect,
                            stability, stability_boundary_effective, stability_gate)
from entrate.rates import entanglement_rate
from paper_helpers import CellParams, in_validity_regime, map_cell_params
from strategies import stable_drifts

KAPPA = 1.0


def full(g=5.0, Gamma=1e-3, Delta=0.0, delta=0.0, n_th=0.0):
    return FullModelParams(g=g, Gamma=Gamma, kappa=KAPPA, Delta=Delta,
                           delta=delta, n_th=n_th)


class TestDriftFull:
    def test_entries_match_equations_of_motion(self):
        g, Delta, delta, Gamma = 5.0, 0.3, 10.0, 1e-3
        m = drift_full(full(g=g, Delta=Delta, delta=delta, Gamma=Gamma)).m
        hg = 0.5j * g
        assert m[0, 4] == hg                       # a+ row, b column
        assert m[4, 3] == hg                       # b row, a-^dag column
        assert m[4, 0] == hg
        assert m[0, 0] == 1j * Delta - 0.5
        assert m[4, 4] == -1j * delta - Gamma / 2
        assert m[2, 5] == hg and m[3, 4] == -hg
        assert m[5, 1] == -hg and m[5, 2] == -hg

    def test_decoupled_limit(self):
        d = drift_full(full(g=0.0, Delta=0.7, delta=3.0))
        re = np.sort(np.linalg.eigvals(d.m).real)
        np.testing.assert_allclose(re, [-0.5] * 4 + [-5e-4] * 2, atol=1e-12)

    def test_fig4a_operating_point_stable(self):
        d = drift_full(full(Delta=0.0, delta=10.0))
        assert stability(d).stable

    def test_decay_vector(self):
        d = drift_full(full())
        np.testing.assert_allclose(d.decay, [1.0] * 4 + [1e-3] * 2)

    def test_pairing_structure_enforced(self):
        d = drift_full(full())
        assert pairing_defect(d.m) == 0.0
        broken = np.array(d.m)
        broken[0, 4] = -broken[0, 4]
        with pytest.raises(ValueError):
            DriftMatrix(broken, d.decay, d.ordering)

    def test_random_parameters_keep_pairing(self):
        # the model builders skip DriftMatrix's checks: each drift they
        # build holds them, the pairing exactly, and the public constructor
        # accepts it as it is
        rng = np.random.default_rng(5)
        for _ in range(20):
            for d in (drift_full(full(g=rng.uniform(0, 8), Gamma=rng.uniform(1e-3, 0.5),
                                      Delta=rng.uniform(-2, 2), delta=rng.uniform(-20, 20),
                                      n_th=rng.uniform(0, 10))),
                      drift_effective(EffectiveModelParams(
                          g=rng.uniform(0, 8), delta=rng.choice([-1, 1]) * rng.uniform(0.5, 30),
                          Delta=rng.uniform(-2, 2)))):
                assert pairing_defect(d.m) == 0.0
                public = DriftMatrix(d.m, d.decay, d.ordering)
                assert public.m.tobytes() == d.m.tobytes() and public.m.dtype == d.m.dtype
                assert public.decay.tobytes() == d.decay.tobytes()
                assert public.ordering == d.ordering and type(d.ordering) is tuple
                assert not d.m.flags.writeable and not d.decay.flags.writeable


class TestDriftEffective:
    def test_decoupled_limit(self):
        d = drift_effective(EffectiveModelParams(g=0.0, delta=10.0, Delta=0.4))
        expected = np.diag([1j * 0.4 - 0.5, -1j * 0.4 - 0.5,
                            1j * 0.4 - 0.5, -1j * 0.4 - 0.5])
        np.testing.assert_allclose(d.m, expected, atol=0)

    def test_pair_coupling_value(self):
        # g = 5k, delta = 10k: g^2/4delta = 0.625k
        d = drift_effective(EffectiveModelParams(g=5.0, delta=10.0))
        assert d.m[0, 3] == 0.625j
        assert d.m[0, 0] == 0.625j - 0.5

    def test_max_real_part_formula(self):
        # max Re eig = -kappa/2 + sqrt(max(0, -(g^2/2delta + Delta) Delta))
        for Delta in (-0.6, -0.3, -0.1, 0.2):
            p = EffectiveModelParams(g=5.0, delta=10.0, Delta=Delta)
            d = drift_effective(p)
            b = (p.g ** 2 / (2 * p.delta) + Delta) * Delta
            expected = -0.5 + math.sqrt(max(0.0, -b))
            assert stability(d).max_real_part == pytest.approx(expected, abs=1e-12)

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            EffectiveModelParams(g=5.0, delta=0.0)

    def test_validity_flag(self):
        assert in_validity_regime(EffectiveModelParams(g=5.0, delta=50.0))
        assert not in_validity_regime(EffectiveModelParams(g=5.0, delta=3.0))


class TestStability:
    def test_decoupled_margin(self):
        assert stability(drift_full(full(g=0.0))).max_real_part == pytest.approx(-5e-4)

    def test_near_instability_point_stable(self):
        d = drift_effective(EffectiveModelParams(g=5.0, delta=10.0, Delta=-0.2))
        assert stability(d).stable

    def test_inside_boundary_interval_unstable(self):
        d = drift_effective(EffectiveModelParams(g=5.0, delta=10.0, Delta=-0.5))
        assert not stability(d).stable

    def test_marginal_point_is_not_stable(self):
        # exactly on the boundary: max Re(eig) = -2.5e-32
        rep = stability(drift_effective(EffectiveModelParams(g=2.0, delta=2.0, Delta=-0.5)))
        assert rep.marginal and not rep.stable

    def test_blue_points_of_stability_diagram(self):
        for (Delta, delta) in [(0.0, 10.0), (-0.2, 10.0), (0.0, 0.0)]:
            assert stability(drift_full(full(Delta=Delta, delta=delta))).stable

    def test_agrees_with_boundary_on_grid(self):
        # effective verdict vs analytic boundary sign on a (delta, Delta) grid
        g = 5.0
        deltas = np.linspace(3.0, 20.0, 100)
        big = np.linspace(-1.5, 0.5, 100)
        cell = big[1] - big[0]
        for de in deltas:
            roots = stability_boundary_effective(g, KAPPA, de)
            for dd in big:
                verdict = stability(drift_effective(
                    EffectiveModelParams(g=g, delta=de, Delta=dd))).stable
                analytic = not roots or not (roots[0] < dd < roots[1])
                near_boundary = bool(roots) and min(abs(dd - r) for r in roots) <= cell
                if not near_boundary:
                    assert verdict == analytic, (de, dd)


def _box_drifts(seed, n):
    """n drifts of each model from the parameter box of stable_drifts, drawn
    by a seeded generator, stable or not."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        gamma = 10.0 ** rng.uniform(-3.0, -0.5)
        scale = rng.choice([1.0, 1e-3])
        out.append(drift_full(full(g=math.sqrt(10.0 ** rng.uniform(0.0, 5.0) * gamma),
                                   Gamma=gamma, delta=scale * rng.uniform(-15.0, 15.0),
                                   Delta=scale * rng.uniform(-1.5, 1.5))))
        out.append(drift_effective(EffectiveModelParams(
            g=rng.uniform(0.5, 6.0), delta=rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 30.0),
            Delta=rng.uniform(-1.0, 1.0))))
    return out


UNSTABLE = [d for dim in (4, 6) for d in
            [d for d in _box_drifts(7, 200) if d.dim == dim and not stability(d).stable][:12]]


def _check_block_against_doubled_drift(d):
    # the drift's 2k eigenvalues are the block's k and their conjugates,
    # and both eigen-solves are backward stable: each eigenvalue agrees to
    # round-off of m times its condition number (up to 1e4 near double
    # resonance at high C, where neither solve is the more accurate one)
    rep = stability(d)
    block = d.beam_block[0]
    (eigenvalues,), _, _ = stability_gate(block[None])
    values, right = np.linalg.eig(block)
    left = np.linalg.inv(right).conj().T
    cond = (np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
            / np.abs(np.sum(left.conj() * right, axis=0)))
    bound = 1e-14 * max(1.0, np.linalg.norm(d.m, 2)) * np.max(cond)
    doubled = np.linalg.eigvals(d.m)
    expected = np.concatenate([eigenvalues, eigenvalues.conj()])
    cost = np.abs(doubled[:, None] - expected[None, :])
    assert np.max(cost[linear_sum_assignment(cost)]) <= bound
    margin = float(np.max(doubled.real))
    assert abs(rep.max_real_part - margin) <= bound
    if min(abs(margin - STABILITY_TOL), abs(margin + STABILITY_TOL)) > bound:
        assert rep.stable == (margin < -STABILITY_TOL)
        assert rep.marginal == (abs(margin) <= STABILITY_TOL)


class TestBeamBlock:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(stable_drifts())
    # eigenvalues with condition number 1.1e4 near double resonance at
    # C = 9e4: the two solves differ by 5.6e-13 |m|
    @example((drift_full(full(g=62.54635382206832, Gamma=0.04368983708925621,
                              delta=0.012201932038553067, Delta=9.11823041278348e-06)), 0.0))
    def test_stable_block_eigenvalues_are_half_the_drift_spectrum(self, drift_nth):
        _check_block_against_doubled_drift(drift_nth[0])

    @pytest.mark.parametrize("d", UNSTABLE, ids=lambda d: f"k{d.dim // 2}")
    def test_unstable_block_eigenvalues_are_half_the_drift_spectrum(self, d):
        _check_block_against_doubled_drift(d)

    def test_unstable_points_of_both_models(self):
        assert {d.dim for d in UNSTABLE} == {4, 6} and len(UNSTABLE) == 24

    def test_stacked_blocks_equal_the_drift_blocks_bit_for_bit(self):
        # one call at P points, each block as drift_full builds it alone
        g, delta = np.meshgrid([0.0, 0.3, 5.0], [-7.0, 0.0, 10.0])
        params = {"g": g.ravel(), "Gamma": 1e-3, "Delta": -0.2, "delta": delta.ravel(),
                  "n_th": 3.0, "kappa": 1.0}
        m, decay, n_th, errors = beam_blocks("full", params)
        eigenvalues, _, _ = stability_gate(m)
        assert errors == {} and np.all(n_th == 3.0)
        for i in range(g.size):
            d = drift_full(full(g=g.flat[i], Delta=-0.2, delta=delta.flat[i]))
            block, rates = d.beam_block
            assert m[i].tobytes() == block.tobytes() and decay[i].tobytes() == rates.tobytes()
            assert eigenvalues[i].tobytes() == stability_gate(block[None])[0][0].tobytes()
        m, decay, n_th, errors = beam_blocks("effective", {"g": 5.0, "delta": [10.0, -4.0]})
        for i, delta in enumerate((10.0, -4.0)):
            block, rates = drift_effective(EffectiveModelParams(g=5.0, delta=delta)).beam_block
            assert m[i].tobytes() == block.tobytes() and decay[i].tobytes() == rates.tobytes()
        assert errors == {} and np.all(n_th == 0.0)

    @pytest.mark.parametrize("d, n_th", [
        (drift_full(full()), 0.0),
        (drift_full(full(g=2.0, Gamma=0.1, Delta=0.7, delta=-3.0, n_th=1e3)), 1e3),
        (drift_effective(EffectiveModelParams(g=2.0, delta=-8.0, Delta=0.3)), 0.0)],
        ids=["anchor", "full", "effective"])
    def test_handed_over_block_equals_the_extracted_block(self, d, n_th):
        # the model builders hand their block to the drift; the public
        # constructor extracts it from the operator labels
        public = DriftMatrix(d.m, d.decay, d.ordering)
        assert "beam_block" in vars(d) and "beam_block" not in vars(public)
        for got, extracted in zip(d.beam_block, public.beam_block):
            assert got.dtype == extracted.dtype and got.tobytes() == extracted.tobytes()
        fields = ("gamma_E", "E_max", "omega_max", "fwhm", "quadrature_error")
        handed, built = entanglement_rate(d, n_th), entanglement_rate(public, n_th)
        assert [float(getattr(handed, f)).hex() for f in fields] == [
            float(getattr(built, f)).hex() for f in fields]
        assert handed.secondary_peaks == built.secondary_peaks

    def test_public_drift_coupling_the_block_to_its_partner_raises(self):
        d = drift_full(full(delta=2.0))
        m = np.array(d.m)
        m[0, 1] = 0.25j                 # a+ -> a+^dag
        m[1, 0] = np.conj(m[0, 1])      # its partner, keeps the pairing structure
        coupled = DriftMatrix(m, d.decay, d.ordering)
        with pytest.raises(ValueError, match="conjugate partner"):
            coupled.beam_block
        with pytest.raises(ValueError, match="conjugate partner"):
            entanglement_rate(coupled)

    def test_invalid_points_carry_the_parameter_set_message(self):
        # the valid points keep their order; names of the other model are
        # ignored
        m, decay, _, errors = beam_blocks("full", {"g": [1.0, -1.0, math.nan, 1.0, 1.0, 2.0],
                                                   "Gamma": [1e-3, 1e-3, -1.0, 0.0, 1e-3, 0.5],
                                                   "n_th": [0.0, 0.0, 0.0, 0.0, -2.0, 0.0],
                                                   "bogus": 1.0})
        assert errors == {1: "g must be non-negative", 2: "g must be finite, got nan",
                          3: "Gamma must be positive", 4: "n_th must be non-negative"}
        assert m.shape == (2, 3, 3) and decay[:, 2].tolist() == [1e-3, 0.5]
        for i, message in errors.items():
            with pytest.raises(ValueError, match=f"^{message}$"):
                FullModelParams(g=[1.0, -1.0, math.nan, 1.0, 1.0][i],
                                Gamma=[1e-3, 1e-3, -1.0, 0.0, 1e-3][i],
                                n_th=[0.0, 0.0, 0.0, 0.0, -2.0][i])
        m, _, _, errors = beam_blocks("effective", {"g": 5.0, "delta": [1.0, 0.0], "Gamma": -1.0})
        assert errors == {1: "delta must be nonzero (the pair coupling is g^2/4delta)"}
        assert m.shape == (1, 2, 2)

    @pytest.mark.parametrize("model, params", [
        ("full", {"g": 5.0, "Gamma": 1e-3, "delta": np.linspace(-15.0, 15.0, 25)[None],
                  "Delta": np.linspace(-1.5, 1.5, 25)[:, None]}),
        ("full", {"g": np.array([[1.0], [-1.0], [2.0]]), "Gamma": [1e-3, 0.0, 0.5, 1e-3],
                  "n_th": np.array([[[0.0]], [[-2.0]]])}),
        ("effective", {"g": np.array([[1.0], [2.0]]), "delta": 10.0}),
        ("effective", {"g": np.array([[1.0], [2.0]]), "delta": [10.0, 0.0, -4.0]})],
        ids=["full_map", "full_invalid", "effective_column", "effective_invalid"])
    def test_broadcast_points_in_c_order(self, model, params):
        # arrays of any shape that broadcast: the points in C order, as the
        # raveled broadcast columns give them, bit for bit, and so are the
        # indices of the invalid points
        shape = np.broadcast_shapes(*(np.shape(v) for v in params.values()))
        raveled = {name: np.broadcast_to(v, shape).ravel() for name, v in params.items()}
        got, want = beam_blocks(model, params), beam_blocks(model, raveled)
        for a, b in zip(got[:3], want[:3]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got[3] == want[3]
        assert len(got[0]) + len(got[3]) == math.prod(shape)


class TestStabilityBoundary:
    def test_reference_roots(self):
        roots = stability_boundary_effective(5.0, KAPPA, 10.0)
        np.testing.assert_allclose(roots, [-1.0, -0.25], atol=1e-14)

    def test_inversion_symmetry(self):
        roots = stability_boundary_effective(5.0, KAPPA, -10.0)
        np.testing.assert_allclose(roots, [0.25, 1.0], atol=1e-14)

    def test_no_roots_for_weak_coupling(self):
        assert stability_boundary_effective(1.0, KAPPA, 10.0) == ()

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            stability_boundary_effective(5.0, KAPPA, 0.0)


class TestCellMapping:
    def test_symmetric_hopping(self):
        m = map_cell_params(CellParams(K1=2.0, K2=2.0, g0=0.3, alpha=4.0),
                            kappa=KAPPA, Gamma=1e-3, Omega=10.0, n_th=0.0)
        assert m.J == pytest.approx(2.0 * math.sqrt(2.0))
        assert m.g0_eff == pytest.approx(0.15)

    def test_decoupled_when_one_hop_vanishes(self):
        m = map_cell_params(CellParams(K1=3.0, K2=0.0, g0=1.0, alpha=2.0),
                            kappa=KAPPA, Gamma=1e-3, Omega=5.0, n_th=0.0)
        assert m.g0_eff == 0.0
        assert m.params.g == 0.0

    def test_reference_numbers(self):
        m = map_cell_params(CellParams(K1=3.0, K2=4.0, g0=1.0, alpha=10.0),
                            kappa=KAPPA, Gamma=1e-3, Omega=6.0, n_th=0.0)
        assert m.J == pytest.approx(5.0)
        assert m.g0_eff == pytest.approx(12.0 / 25.0)
        # linearized coupling g = 2 g0_eff |alpha|
        assert m.params.g == pytest.approx(9.6)
        assert m.params.delta == pytest.approx(1.0)

    def test_rejects_zero_hopping(self):
        with pytest.raises(ValueError):
            CellParams(K1=0.0, K2=0.0, g0=1.0, alpha=1.0)


class TestParamValidation:
    def test_full_model_invariants(self):
        with pytest.raises(ValueError):
            FullModelParams(g=-1.0, Gamma=1e-3)
        with pytest.raises(ValueError):
            FullModelParams(g=1.0, Gamma=0.0)
        with pytest.raises(ValueError):
            FullModelParams(g=1.0, Gamma=1e-3, n_th=-0.5)
        with pytest.raises(ValueError):
            FullModelParams(g=1.0, Gamma=1e-3, kappa=-1.0)

    @pytest.mark.parametrize("cls, base", [
        (FullModelParams, {"g": 1.0, "Gamma": 1e-3}),
        (EffectiveModelParams, {"g": 1.0, "delta": 10.0})])
    def test_non_finite_fields_rejected_by_name(self, cls, base):
        for name in cls.__dataclass_fields__:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    cls(**{**base, name: bad})

    def test_cooperativity(self):
        assert full(g=5.0, Gamma=1e-3).cooperativity == pytest.approx(2.5e4)


class TestEigvals:
    @staticmethod
    def companions(rng, n, count=40):
        # the companion matrices of random monic polynomials, as rates builds
        # them, and of polynomials with n real roots, whose eigenvalues
        # np.linalg.eigvals returns as a real array
        p = np.concatenate([np.ones((count, 1)), rng.standard_normal((count, n))], axis=1)
        real = np.array([np.poly(np.sort(rng.uniform(-3.0, 3.0, n))) for _ in range(count)])
        out = []
        for q in (p, real):
            c = np.zeros((count, n, n))
            c[:, 0] = -q[:, 1:] / q[:, :1]
            c.reshape(count, -1)[:, n::n + 1] = 1.0
            out.append(c)
        return out

    @pytest.mark.parametrize("k", [2, 3])
    def test_complex_blocks_equal_numpy(self, k):
        rng = np.random.default_rng(k)
        a = rng.standard_normal((200, k, k)) + 1j * rng.standard_normal((200, k, k))
        got = eigvals(a)
        assert got.dtype == complex and got.tobytes() == np.linalg.eigvals(a).tobytes()

    @pytest.mark.parametrize("n", [3, 4, 6, 10])
    def test_real_companions_equal_numpy(self, n):
        for c in self.companions(np.random.default_rng(n), n):
            got, expected = eigvals(c), np.linalg.eigvals(c)
            assert got.dtype == complex
            assert got.tobytes() == expected.astype(complex).tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_non_finite_entry_raises(self, bad, dtype):
        a = np.eye(3, dtype=dtype)[None].repeat(2, axis=0)
        a[1, 2, 0] = bad
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            eigvals(a)

    def test_solve_that_does_not_converge_raises(self, monkeypatch):
        # LAPACK reports a solve that did not converge by NaN eigenvalues
        # and the floating-point invalid flag; a stand-in gufunc raises the
        # flag the same way
        def not_converged(a, signature):
            return np.subtract(np.full(a.shape[:-1], np.inf), np.inf).astype(complex)

        monkeypatch.setattr(models, "_geev", not_converged)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            eigvals(np.eye(3)[None])
