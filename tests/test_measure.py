import json

import numpy as np
import pytest
from numpy.polynomial import Legendre, Polynomial

from cvp import (
    DensityMeasure,
    ManifoldModel,
    WeightedMeasure,
    action,
    circle_uniform,
    density_action,
    kernel_potential,
    load_measure,
    measure_from_dict,
    measure_to_dict,
    octahedron,
    sample_uniform,
    volume_action,
)
from cvp.manifold import kernel_cross, zonal_d
from cvp.measure import _lagrangian_legendre_coeffs, _zonal_legendre_moments
from cvp.spectral import legendre_all

from conftest import brute_action, brute_potentials

E1 = np.array([1.0, 0.0, 0.0])


def ell_potential(model, m, xs):
    """ell(x) = sum_i w_i max(0, D(x, x_i)) at a batch of points."""
    return np.maximum(0.0, kernel_cross(model, xs, m.points)) @ m.weights


def uniform_density():
    """The volume measure as a density: 1 on the one band [-1, 1]."""
    return DensityMeasure([-1.0, 1.0], [1.0])


class TestWeightedMeasure:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightedMeasure(np.array([0.0, 1.0]), np.array([0.7, 0.2]))
        with pytest.raises(ValueError):
            WeightedMeasure(np.array([0.0, 1.0]), np.array([1.1, -0.1]))

    def test_pruned_drops_zero_weights(self):
        m = WeightedMeasure(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.0, 0.5]))
        assert m.support_size == 2
        assert len(m.pruned()) == 2


class TestAction:
    def test_octahedron_equals_nu0(self):
        model = ManifoldModel.sphere(1.2)
        assert action(model, octahedron()) == pytest.approx(2.9952, abs=1e-12)

    def test_single_point(self):
        model = ManifoldModel.sphere(1.7)
        m = WeightedMeasure(E1[None, :], np.array([1.0]))
        assert action(model, m) == pytest.approx(8 * 1.7**2, abs=1e-12)

    def test_circle_uniform_x4(self, circle13):
        val = 4 * 1.3**2 - 1.3**4
        assert action(circle13, circle_uniform(4)) == pytest.approx(val, abs=1e-12)
        assert val == pytest.approx(3.9039, abs=1e-10)

    @pytest.mark.parametrize(
        "model, n",
        [
            (ManifoldModel.circle(1.8), 7),
            (ManifoldModel.sphere(1.4), 6),
            (ManifoldModel.flag(3, 1.5), 5),
        ],
        ids=["circle", "sphere", "flag"],
    )
    def test_matches_scalar_oracle(self, model, n):
        pts = sample_uniform(model, n, seed=2)
        w = np.random.default_rng(3).random(n)
        w /= w.sum()
        m = WeightedMeasure(pts, w)
        assert action(model, m) == pytest.approx(brute_action(model, m), rel=1e-12)

    def test_consistency_with_potential(self, sphere12):
        pts = sample_uniform(sphere12, 9, seed=7)
        w = np.random.default_rng(1).random(9)
        w /= w.sum()
        m = WeightedMeasure(pts, w)
        s = action(sphere12, m)
        ells = ell_potential(sphere12, m, pts)
        assert s == pytest.approx(float(w @ ells), rel=1e-12)

    def test_permutation_invariance(self, circle13):
        pts = sample_uniform(circle13, 8, seed=5)
        w = np.random.default_rng(2).random(8)
        w /= w.sum()
        m = WeightedMeasure(pts, w)
        perm = np.random.default_rng(4).permutation(8)
        m2 = WeightedMeasure(pts[perm], w[perm])
        assert action(circle13, m2) == pytest.approx(action(circle13, m), rel=1e-10)

    def test_rotation_invariance(self, sphere12):
        pts = sample_uniform(sphere12, 8, seed=5)
        w = np.full(8, 1 / 8)
        q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((3, 3)))
        m = WeightedMeasure(pts, w)
        m2 = WeightedMeasure(pts @ q.T, w)
        assert action(sphere12, m2) == pytest.approx(action(sphere12, m), rel=1e-10)


class TestPotentials:
    def test_ell_on_octahedron_support(self):
        model = ManifoldModel.sphere(1.2)
        m = octahedron()
        assert ell_potential(model, m, E1)[0] == pytest.approx(2.9952, abs=1e-12)
        ell, dee = brute_potentials(model, m, E1)
        assert ell_potential(model, m, E1)[0] == pytest.approx(ell, rel=1e-12)
        assert kernel_potential(model, m, E1) == pytest.approx(dee, rel=1e-12)

    def test_delta_measure(self):
        model = ManifoldModel.circle(2.0)
        m = WeightedMeasure(np.array([0.4]), np.array([1.0]))
        assert ell_potential(model, m, 0.4)[0] == pytest.approx(32.0, abs=1e-12)
        assert kernel_potential(model, m, 0.4) == pytest.approx(32.0, abs=1e-12)

    @pytest.mark.parametrize("tau", [1.1, 1.9, 3.0])
    @pytest.mark.parametrize("m", [3, 4, 7])
    def test_circle_uniform_dee_constant(self, tau, m):
        # d is nu0 = 4 tau^2 - tau^4 everywhere, for every m >= 3
        model = ManifoldModel.circle(tau)
        meas = circle_uniform(m)
        xs = np.linspace(0, 2 * np.pi, 23)
        vals = kernel_potential(model, meas, xs)
        assert np.max(np.abs(vals - (4 * tau**2 - tau**4))) < 1e-10

    def test_octahedron_dee_constant_any_tau(self):
        model = ManifoldModel.sphere(1.9)
        m = octahedron()
        xs = sample_uniform(model, 200, seed=0)
        vals = kernel_potential(model, m, xs)
        nu0 = 4 * 1.9**2 - 4 / 3 * 1.9**4
        assert np.max(np.abs(vals - nu0)) < 1e-10


class TestQuadratureGrid:
    def test_kernel_integral_is_nu0(self):
        # D about the pole e3 at the points (sin(theta), 0, cos(theta)) of a
        # 200-node Gauss-Legendre rule in cos(theta), weights dc/2; nu0 is
        # rotation-invariant, so the pole stands for any point
        model = ManifoldModel.sphere(1.5)
        c, w = np.polynomial.legendre.leggauss(200)
        ring = np.column_stack([np.sqrt(1.0 - c**2), np.zeros_like(c), c])
        vals = kernel_cross(model, np.array([[0.0, 0.0, 1.0]]), ring)[0]
        assert (w / 2) @ vals == pytest.approx(2.25, abs=1e-8)


class TestDensityMeasure:
    def test_validation(self):
        bad = [
            ([-1.0, 1.0], [-1.0], "non-negative"),
            ([-1.0, 1.0], [2.0], "mass"),
            # the wrong value count
            ([-1.0, 0.0, 1.0], [1.0], "one value per band"),
            ([-1.0, 0.0, 1.0], [[1.0, 1.0]], "one value per band"),
            # edges not from -1 to 1
            ([-0.5, 0.5, 1.0], [1.0, 1.0], "rise strictly from -1 to 1"),
            ([-1.0, 0.0, 0.5], [1.0, 1.0], "rise strictly from -1 to 1"),
            ([-1.0], [], "rise strictly from -1 to 1"),
            # edges that do not rise
            ([-1.0, 0.5, 0.0, 1.0], [1.0, 1.0, 1.0], "rise strictly from -1 to 1"),
            ([-1.0, 0.0, 0.0, 1.0], [1.0, 5.0, 1.0], "rise strictly from -1 to 1"),
            ([-1.0, np.nan, 1.0], [1.0, 1.0], "rise strictly from -1 to 1"),
        ]
        for edges, values, message in bad:
            with pytest.raises(ValueError, match=message):
                DensityMeasure(edges, values)

    def test_non_finite_values_rejected(self):
        # a NaN passes the sign and mass tests: every comparison with it is false
        with pytest.raises(ValueError, match="finite"):
            DensityMeasure([-1.0, 0.0, 1.0], [1.0, np.nan])

    @pytest.mark.parametrize("tau", [1.0, 1.5, 2.0, 3.0])
    def test_uniform_matches_closed_form(self, tau):
        model = ManifoldModel.sphere(tau)
        dm = uniform_density()
        assert density_action(model, dm) == pytest.approx(
            4 - 4 / (3 * tau**2), abs=1e-6
        )

    def test_uniform_tau2_value(self):
        model = ManifoldModel.sphere(2.0)
        assert density_action(model, uniform_density()) == pytest.approx(
            11.0 / 3.0, abs=1e-6
        )

    def test_circle_uniform_matches_closed_form(self):
        # oracle: (1/pi) int_0^theta_max D(theta) by 64-node Gauss-Legendre
        x, w = np.polynomial.legendre.leggauss(64)
        for tau in (1.0, 1.3, 2.0, 3.0):
            model = ManifoldModel.circle(tau)
            tm = np.arccos(1.0 - 2.0 / tau**2)
            t = 0.5 * tm * (x + 1.0)
            c = np.cos(t)
            dvals = 2 * tau**2 * (1 + c) * (2 - tau**2 * (1 - c))
            want = 0.5 * tm * (w @ dvals) / np.pi
            assert volume_action(model) == pytest.approx(want, rel=1e-12)
            with pytest.raises(ValueError):
                density_action(model, uniform_density())

    def test_truncation_converged(self):
        model = ManifoldModel.sphere(1.7)
        dm = uniform_density()
        fl = _zonal_legendre_moments(dm, 240)
        a1 = float(_lagrangian_legendre_coeffs(model, 240) @ (fl * fl))
        a2 = density_action(model, dm)
        assert a1 == pytest.approx(a2, abs=1e-10)


def _gauss_lagrangian_coeffs(model, lmax):
    """c_l by Gauss-Legendre on [cos(theta_max), 1], exact for D * P_l."""
    ckink = max(-1.0, 1.0 - 2.0 / model.tau**2)
    x, w = np.polynomial.legendre.leggauss(lmax // 2 + 4)
    c = 0.5 * (1.0 - ckink) * x + 0.5 * (1.0 + ckink)
    w = 0.5 * (1.0 - ckink) * w
    ell = np.arange(lmax + 1)
    return (2 * ell + 1) / 2.0 * (legendre_all(lmax, c) @ (w * zonal_d(model.tau, c)))


class TestLagrangianCoeffs:
    """c_l of L = sum_l c_l P_l, in closed form above the kink."""

    TAUS = [1.0, 1.001, 1.2, 1.5, 2.0, 3.0, 10.0]

    @pytest.mark.parametrize("tau", TAUS)
    def test_matches_exact_polynomial_integration(self, tau):
        # (2l + 1)/2 times the integral of P_l D over [c_k, 1], integrated as a
        # Legendre series: D = 2 tau^2 (tau^2 c^2 + 2c + 2 - tau^2)
        model = ManifoldModel.sphere(tau)
        t2 = tau**2
        d = Polynomial([2 * t2 * (2 - t2), 4 * t2, 2 * t2 * t2]).convert(kind=Legendre)
        ckink = max(-1.0, 1.0 - 2.0 / t2)
        got = _lagrangian_legendre_coeffs(model, 60)
        for l in range(61):
            antiderivative = (Legendre.basis(l) * d).integ()
            ref = (2 * l + 1) / 2 * (antiderivative(1.0) - antiderivative(ckink))
            assert abs(got[l] - ref) <= 1e-13 * model.kernel_scale

    @pytest.mark.parametrize("tau", TAUS)
    def test_matches_gauss_form(self, tau):
        model = ManifoldModel.sphere(tau)
        got = _lagrangian_legendre_coeffs(model, 480)
        assert got.shape == (481,)
        assert np.max(np.abs(got - _gauss_lagrangian_coeffs(model, 480))) <= 1e-10 * model.kernel_scale

    def test_prefix_does_not_depend_on_lmax(self):
        model = ManifoldModel.sphere(1.3)
        assert np.array_equal(_lagrangian_legendre_coeffs(model, 7),
                              _lagrangian_legendre_coeffs(model, 480)[:8])


class TestSerialization:
    @pytest.mark.parametrize(
        "model, n",
        [
            (ManifoldModel.circle(1.4), 5),
            (ManifoldModel.sphere(2.2), 6),
            (ManifoldModel.flag(3, 1.6), 4),
        ],
        ids=["circle", "sphere", "flag"],
    )
    def test_round_trip_action_drift(self, model, n, tmp_path):
        pts = sample_uniform(model, n, seed=9)
        w = np.random.default_rng(5).random(n)
        w /= w.sum()
        m = WeightedMeasure(pts, w)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(measure_to_dict(model, m)))
        model2, m2 = load_measure(path)
        assert model2 == model
        assert abs(action(model2, m2) - action(model, m)) < 1e-12

    def test_dict_schema(self, circle13):
        m = circle_uniform(3)
        d = measure_to_dict(circle13, m)
        assert d["manifold"] == "circle"
        assert d["points"][1] == [2 * np.pi / 3]
        back_model, back = measure_from_dict(json.loads(json.dumps(d)))
        assert np.array_equal(back.points, m.points)

    def test_flag_dict_schema(self, flag32):
        pts = sample_uniform(flag32, 2, seed=3)
        m = WeightedMeasure(pts, np.array([0.5, 0.5]))
        d = measure_to_dict(flag32, m)
        assert d["f"] == 3
        assert len(d["points"][0]["u"]) == 3
        _, back = measure_from_dict(d)
        assert np.allclose(back.points, pts)


class TestVolumeAction:
    def test_sphere_formula(self):
        assert volume_action(ManifoldModel.sphere(1.0)) == pytest.approx(8 / 3)

    def test_flag_unsupported(self, flag32):
        with pytest.raises(ValueError):
            volume_action(flag32)
