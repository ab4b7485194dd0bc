import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.optimize import linear_sum_assignment

from entrate import models
from entrate.models import (STABILITY_TOL, DriftMatrix, EffectiveModelParams, FullModelParams,
                            beam_blocks, drift_effective, drift_full, eigvals, stability,
                            stability_boundary_effective, stability_gate)
from entrate.rates import entanglement_rate
from doubled_reference import BEAM, PARTNER, doubled_drift
from lu_reference import intra_beam_correlator
from paper_helpers import CellParams, in_validity_regime, map_cell_params
from strategies import drift_of, stable_points

KAPPA = 1.0


def full(g=5.0, Gamma=1e-3, Delta=0.0, delta=0.0, n_th=0.0):
    return FullModelParams(g=g, Gamma=Gamma, kappa=KAPPA, Delta=Delta,
                           delta=delta, n_th=n_th)


class TestDriftFull:
    def test_entries_match_equations_of_motion(self):
        g, Delta, delta, Gamma = 5.0, 0.3, 10.0, 1e-3
        m = drift_full(full(g=g, Delta=Delta, delta=delta, Gamma=Gamma)).m
        hg = 0.5j * g
        assert m[0, 2] == hg                       # a+ row, b column
        assert m[2, 1] == hg                       # b row, a-^dag column
        assert m[2, 0] == hg
        assert m[0, 0] == 1j * Delta - 0.5 and m[1, 1] == -1j * Delta - 0.5
        assert m[2, 2] == -1j * delta - Gamma / 2
        assert m[1, 2] == -hg                      # a-^dag row, b column
        assert m[0, 1] == 0 and m[1, 0] == 0

    def test_decoupled_limit(self):
        d = drift_full(full(g=0.0, Delta=0.7, delta=3.0))
        re = np.sort(np.linalg.eigvals(d.m).real)
        np.testing.assert_allclose(re, [-0.5] * 2 + [-5e-4], atol=1e-12)

    def test_fig4a_operating_point_stable(self):
        d = drift_full(full(Delta=0.0, delta=10.0))
        assert stability(d).stable

    def test_decay_vector(self):
        d = drift_full(full())
        np.testing.assert_allclose(d.decay, [1.0] * 2 + [1e-3])

    def test_random_parameters_keep_pairing(self):
        # stable or not, the drift is the doubled drift on the beam
        # operators, whose partners carry its conjugate and nothing else;
        # the public constructor takes it as it is, read-only
        rng = np.random.default_rng(5)
        for _ in range(20):
            for p in (full(g=rng.uniform(0, 8), Gamma=rng.uniform(1e-3, 0.5),
                           Delta=rng.uniform(-2, 2), delta=rng.uniform(-20, 20),
                           n_th=rng.uniform(0, 10)),
                      EffectiveModelParams(
                          g=rng.uniform(0, 8), delta=rng.choice([-1, 1]) * rng.uniform(0.5, 30),
                          Delta=rng.uniform(-2, 2))):
                d, doubled = drift_of(p), doubled_drift(p)
                beam, partner = BEAM[:len(d.m)], PARTNER[:len(d.m)]
                assert np.array_equal(doubled.m[np.ix_(beam, beam)], d.m)
                assert np.array_equal(doubled.m[np.ix_(partner, partner)], d.m.conj())
                assert np.array_equal(doubled.decay[list(beam)], d.decay)
                public = DriftMatrix(d.m, d.decay)
                assert public.m.tobytes() == d.m.tobytes() and public.m.dtype == d.m.dtype
                assert public.decay.tobytes() == d.decay.tobytes()
                assert not d.m.flags.writeable and not d.decay.flags.writeable

    def test_public_constructor_takes_a_beam_block(self):
        d = drift_full(full())
        m = np.array(d.m)
        DriftMatrix(m, d.decay)
        assert m.flags.writeable            # the drift holds a read-only copy
        for bad_m, bad_decay in ((np.eye(6), np.ones(6)), (np.eye(4), np.ones(4)),
                                 (d.m, d.decay[:2]), (d.m[:2], d.decay[:2].tolist() + [1.0])):
            with pytest.raises(ValueError, match="2x2 or 3x3 beam block"):
                DriftMatrix(bad_m, bad_decay)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_decay_outside_zero_to_inf_rejected(self, bad):
        # a NaN decay once gave a silent zero rate: K = NaN failed the K > 0
        # filter, so the drift was taken for g = 0
        d = drift_full(full())
        for i in range(3):
            decay = np.array(d.decay)
            decay[i] = bad
            with pytest.raises(ValueError, match="^decay rates must be finite and non-negative$"):
                DriftMatrix(d.m, decay)
        DriftMatrix(d.m, [0.0, 1.0, 1e-3])


class TestDriftEffective:
    def test_decoupled_limit(self):
        d = drift_effective(EffectiveModelParams(g=0.0, delta=10.0, Delta=0.4))
        expected = np.diag([1j * 0.4 - 0.5, -1j * 0.4 - 0.5])
        np.testing.assert_allclose(d.m, expected, atol=0)

    def test_pair_coupling_value(self):
        # g = 5k, delta = 10k: g^2/4delta = 0.625k
        d = drift_effective(EffectiveModelParams(g=5.0, delta=10.0))
        assert d.m[0, 1] == 0.625j and d.m[1, 0] == -0.625j
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

    def test_non_finite_block_raises(self):
        # eigvals gives the block NaN eigenvalues; the report has no verdict
        m = np.array(drift_full(full()).m)
        m[0, 2] = np.inf
        with pytest.raises(np.linalg.LinAlgError, match="Array must not contain infs or NaNs"):
            stability(DriftMatrix(m, [1.0, 1.0, 1e-3]))

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


def _box_points(seed, n):
    """n parameter sets of each model from the box of stable_points, drawn
    by a seeded generator, stable or not."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        gamma = 10.0 ** rng.uniform(-3.0, -0.5)
        scale = rng.choice([1.0, 1e-3])
        out.append(full(g=math.sqrt(10.0 ** rng.uniform(0.0, 5.0) * gamma),
                        Gamma=gamma, delta=scale * rng.uniform(-15.0, 15.0),
                        Delta=scale * rng.uniform(-1.5, 1.5)))
        out.append(EffectiveModelParams(
            g=rng.uniform(0.5, 6.0), delta=rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 30.0),
            Delta=rng.uniform(-1.0, 1.0)))
    return out


UNSTABLE = [p for k in (2, 3) for p in
            [p for p in _box_points(7, 200)
             if len(drift_of(p).m) == k and not stability(drift_of(p)).stable][:12]]


def _check_block_against_doubled_drift(p):
    # the doubled drift's 2k eigenvalues are the block's k and their
    # conjugates, and both eigen-solves are backward stable: each eigenvalue
    # agrees to round-off of m times its condition number (up to 1e4 near
    # double resonance at high C, where neither solve is the more accurate one)
    d = drift_of(p)
    rep = stability(d)
    (eigenvalues,), _, _ = stability_gate(d.m[None])
    values, right = np.linalg.eig(d.m)
    left = np.linalg.inv(right).conj().T
    cond = (np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
            / np.abs(np.sum(left.conj() * right, axis=0)))
    m = doubled_drift(p).m
    bound = 1e-14 * max(1.0, np.linalg.norm(m, 2)) * np.max(cond)
    doubled = np.linalg.eigvals(m)
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
    @given(stable_points())
    # eigenvalues with condition number 1.1e4 near double resonance at
    # C = 9e4: the two solves differ by 5.6e-13 |m|
    @example((full(g=62.54635382206832, Gamma=0.04368983708925621,
                   delta=0.012201932038553067, Delta=9.11823041278348e-06), 0.0))
    def test_stable_block_eigenvalues_are_half_the_drift_spectrum(self, point):
        _check_block_against_doubled_drift(point[0])

    @pytest.mark.parametrize("p", UNSTABLE, ids=lambda p: f"k{len(drift_of(p).m)}")
    def test_unstable_block_eigenvalues_are_half_the_drift_spectrum(self, p):
        _check_block_against_doubled_drift(p)

    def test_unstable_points_of_both_models(self):
        assert {len(drift_of(p).m) for p in UNSTABLE} == {2, 3} and len(UNSTABLE) == 24

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stable_points())
    def test_block_is_the_doubled_drift_on_the_beam_operators(self, point):
        # the independent doubled drift restricted to (a+, a-^dag[, b]) is
        # the block, which neither couples to the partners nor gives an
        # intra-beam correlator, and a one-point beam_blocks call builds it
        # bit for bit
        p, n_th = point
        d, doubled = drift_of(p), doubled_drift(p)
        beam, partner = BEAM[:len(d.m)], PARTNER[:len(d.m)]
        assert np.array_equal(doubled.m[np.ix_(beam, beam)], d.m)
        assert not np.any(doubled.m[np.ix_(beam, partner)])
        assert not np.any(doubled.m[np.ix_(partner, beam)])
        for omega in (-3.0, 0.0, 0.7, 11.0):
            for beam_no in (1, 2):
                assert intra_beam_correlator(doubled, omega, n_th, beam_no) == 0
        model = "full" if isinstance(p, FullModelParams) else "effective"
        m, decay, _, errors = beam_blocks(model, vars(p))
        assert errors == {}
        assert m[0].tobytes() == d.m.tobytes() and decay[0].tobytes() == d.decay.tobytes()

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
            assert m[i].tobytes() == d.m.tobytes() and decay[i].tobytes() == d.decay.tobytes()
            assert eigenvalues[i].tobytes() == stability_gate(d.m[None])[0][0].tobytes()
        m, decay, n_th, errors = beam_blocks("effective", {"g": 5.0, "delta": [10.0, -4.0]})
        for i, delta in enumerate((10.0, -4.0)):
            d = drift_effective(EffectiveModelParams(g=5.0, delta=delta))
            assert m[i].tobytes() == d.m.tobytes() and decay[i].tobytes() == d.decay.tobytes()
        assert errors == {} and np.all(n_th == 0.0)

    @pytest.mark.parametrize("p, n_th", [
        (full(), 0.0),
        (full(g=2.0, Gamma=0.1, Delta=0.7, delta=-3.0, n_th=1e3), 1e3),
        (EffectiveModelParams(g=2.0, delta=-8.0, Delta=0.3), 0.0)],
        ids=["anchor", "full", "effective"])
    def test_handed_over_block_equals_the_extracted_block(self, p, n_th):
        # the block the model builder hands over, and the one extracted from
        # the independent doubled drift by the operator places: the same
        # entries, and the same rate to the bit
        d, doubled = drift_of(p), doubled_drift(p)
        beam = list(BEAM[:len(d.m)])
        extracted = DriftMatrix(doubled.m[np.ix_(beam, beam)], doubled.decay[beam])
        assert np.array_equal(extracted.m, d.m) and np.array_equal(extracted.decay, d.decay)
        fields = ("gamma_E", "E_max", "omega_max", "fwhm", "quadrature_error")
        handed, built = entanglement_rate(d, n_th), entanglement_rate(extracted, n_th)
        assert [float(getattr(handed, f)).hex() for f in fields] == [
            float(getattr(built, f)).hex() for f in fields]
        assert handed.secondary_peaks == built.secondary_peaks

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
    def test_non_finite_matrix_has_nan_eigenvalues(self, bad, dtype):
        # a matrix with a non-finite entry is not solved and has NaN
        # eigenvalues; the others are np.linalg.eigvals's bit for bit, in
        # the stack and as one matrix alone
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 3, 3)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal((5, 3, 3))
        a[1, 2, 0] = a[4, 0, 1] = bad
        got = eigvals(a)
        assert got.dtype == complex and np.isnan(got[[1, 4]]).all()
        finite = [0, 2, 3]
        assert not np.isnan(got[finite]).any()
        assert got[finite].tobytes() == np.linalg.eigvals(a[finite]).astype(complex).tobytes()
        assert np.isnan(eigvals(a[1])).all()
        assert eigvals(a[0]).tobytes() == got[0].tobytes()

    def test_solve_that_does_not_converge_raises(self, monkeypatch):
        # LAPACK reports a solve that did not converge by NaN eigenvalues
        # and the floating-point invalid flag; a stand-in gufunc raises the
        # flag the same way
        def not_converged(a, signature):
            return np.subtract(np.full(a.shape[:-1], np.inf), np.inf).astype(complex)

        monkeypatch.setattr(models, "_geev", not_converged)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            eigvals(np.eye(3)[None])
