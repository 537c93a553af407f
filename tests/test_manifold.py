import math
import tracemalloc

import numpy as np
import pytest

from cvp import (
    ManifoldModel,
    d_kernel,
    flag_point,
    lagrangian,
    sample_uniform,
    theta_max,
)
from cvp import manifold
from cvp.manifold import (
    TAU_MAX,
    _haar_flag_pairs,
    kernel_cross,
    kernel_matrix,
    validate_points,
    zonal_d,
)
from cvp.optimize import _distance_matrix

from conftest import dense_flag_kernel, dense_flag_matrix

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


class TestModelValidation:
    def test_circle_sphere_require_tau_ge_1(self):
        with pytest.raises(ValueError):
            ManifoldModel.circle(0.9)
        with pytest.raises(ValueError):
            ManifoldModel.sphere(0.0)

    def test_flag_requires_f_ge_3_and_tau_ge_1(self):
        with pytest.raises(ValueError):
            ManifoldModel.flag(2, 2.0)
        with pytest.raises(ValueError):
            ManifoldModel.flag(3, 0.9)
        assert ManifoldModel.flag(3, 1.0).f == 3

    @pytest.mark.parametrize("kind, f", [("circle", None), ("sphere", None), ("flag", 3)])
    def test_tau_capped(self, kind, f):
        # zonal_d's diagonal 8 tau^2 keeps a relative error near eps tau^2 / 2
        assert ManifoldModel(kind, TAU_MAX, f).tau == TAU_MAX
        for tau in (1.0001 * TAU_MAX, 1e10, 1e160, math.inf, math.nan):
            with pytest.raises(ValueError, match="tau must lie in"):
                ManifoldModel(kind, tau, f)
        diag = zonal_d(TAU_MAX, np.array([1.0]))[0]
        assert abs(diag - 8.0 * TAU_MAX**2) <= 1e-10 * 8.0 * TAU_MAX**2

    def test_f_rejected_off_flag(self):
        with pytest.raises(ValueError):
            ManifoldModel("sphere", 1.5, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ManifoldModel("torus", 1.5)


class TestDKernel:
    @pytest.mark.parametrize("tau", [1.0, 1.2, 2.0, 3.5])
    def test_diagonal_is_8_tau_sq(self, tau):
        model = ManifoldModel.sphere(tau)
        assert d_kernel(model, E1, E1) == pytest.approx(8 * tau**2, abs=1e-12)

    def test_antipodal_zero(self, sphere12):
        assert d_kernel(sphere12, E1, -E1) == pytest.approx(0.0, abs=1e-12)

    def test_lightcone_boundary_tau_sqrt2(self):
        model = ManifoldModel.sphere(np.sqrt(2))
        assert abs(d_kernel(model, E1, E2)) <= 1e-12 * model.kernel_scale

    def test_flag_same_point(self, flag32):
        e = np.eye(3, dtype=complex)
        x = flag_point(e[0], e[1])
        assert d_kernel(flag32, x, x) == pytest.approx(32.0, abs=1e-12)
        assert dense_flag_kernel(2.0, x, x) == pytest.approx(32.0, abs=1e-10)

    def test_mixed_manifold_rejected(self, sphere12, flag32):
        with pytest.raises(ValueError):
            d_kernel(sphere12, E1, np.zeros((2, 3), dtype=complex))
        with pytest.raises(ValueError):
            d_kernel(flag32, E1, E1)


class TestLagrangian:
    def test_clamps_spacelike(self):
        model = ManifoldModel.sphere(2.0)
        # theta = pi/2 > theta_max = pi/3, so D < 0 and L = 0
        assert d_kernel(model, E1, E2) < 0
        assert lagrangian(model, E1, E2) == 0.0

    @pytest.mark.parametrize("kind", ["circle", "sphere"])
    def test_diagonal(self, kind):
        model = ManifoldModel(kind, 1.7)
        x = 0.3 if kind == "circle" else E1
        assert lagrangian(model, x, x) == pytest.approx(8 * 1.7**2, rel=1e-14)

    def test_circle_tau1_antipodal(self):
        model = ManifoldModel.circle(1.0)
        assert lagrangian(model, 0.0, np.pi) == pytest.approx(0.0, abs=1e-12)


class TestThetaMax:
    def test_values(self):
        assert theta_max(ManifoldModel.circle(np.sqrt(2))) == pytest.approx(np.pi / 2, abs=1e-12)
        assert theta_max(ManifoldModel.circle(1.0)) == pytest.approx(np.pi, abs=1e-12)
        assert theta_max(ManifoldModel.sphere(2.0)) == pytest.approx(np.pi / 3, abs=1e-12)

    def test_flag_unsupported(self, flag32):
        with pytest.raises(ValueError):
            theta_max(flag32)


class TestCausalRelation:
    def test_examples(self):
        # timelike D > 0, spacelike D < 0, lightlike |D| <= 1e-12 * 8 tau^2
        m2 = ManifoldModel.sphere(2.0)
        x6 = np.array([np.cos(np.pi / 6), np.sin(np.pi / 6), 0.0])
        assert d_kernel(m2, E1, x6) > 1e-12 * m2.kernel_scale
        assert d_kernel(m2, E1, E2) < -1e-12 * m2.kernel_scale
        msq2 = ManifoldModel.sphere(np.sqrt(2))
        assert abs(d_kernel(msq2, E1, E2)) <= 1e-12 * msq2.kernel_scale


class TestSampling:
    def test_sphere_mean_small(self):
        model = ManifoldModel.sphere(1.5)
        pts = sample_uniform(model, 100_000, seed=3)
        assert np.linalg.norm(pts.mean(axis=0)) < 0.02

    def test_circle_range(self):
        model = ManifoldModel.circle(1.2)
        pts = sample_uniform(model, 4, seed=0)
        assert pts.shape == (4,)
        assert np.all((0 <= pts) & (pts < 2 * np.pi))

    def test_flag_invariants(self, flag32):
        pts = sample_uniform(flag32, 1, seed=5)
        validate_points(flag32, pts)

    def test_deterministic(self, sphere12):
        a = sample_uniform(sphere12, 10, seed=42)
        b = sample_uniform(sphere12, 10, seed=42)
        assert np.array_equal(a, b)

    def test_n_validation(self, sphere12):
        with pytest.raises(ValueError):
            sample_uniform(sphere12, 0, seed=0)


class TestKernelProperties:
    @pytest.mark.parametrize(
        "model",
        [
            ManifoldModel.circle(1.4),
            ManifoldModel.sphere(1.9),
            ManifoldModel.flag(3, 1.7),
        ],
        ids=["circle", "sphere", "flag"],
    )
    def test_symmetry_exact(self, model):
        xs = sample_uniform(model, 1000, seed=11)
        ys = sample_uniform(model, 1000, seed=12)
        for x, y in zip(xs, ys):
            assert d_kernel(model, x, y) == d_kernel(model, y, x)

    @pytest.mark.parametrize(
        "model", [ManifoldModel.circle(1.7), ManifoldModel.sphere(2.5)], ids=["circle", "sphere"])
    def test_zonal_scalar_is_the_cross_entry(self, model):
        # d_kernel reads kernel_matrix, whose symmetrization leaves a zonal
        # pair's value as kernel_cross gives it
        xs = sample_uniform(model, 200, seed=13)
        ys = sample_uniform(model, 200, seed=14)
        for x, y in zip(xs, ys):
            assert d_kernel(model, x, y) == kernel_cross(model, x, y)[0, 0]

    @pytest.mark.parametrize(
        "model",
        [
            ManifoldModel.circle(2.2),
            ManifoldModel.sphere(1.1),
            ManifoldModel.flag(4, 2.5),
        ],
        ids=["circle", "sphere", "flag"],
    )
    def test_diagonal_positive(self, model):
        xs = sample_uniform(model, 50, seed=4)
        scale = model.kernel_scale
        for x in xs:
            val = d_kernel(model, x, x)
            assert val > 0
            assert val == pytest.approx(scale, rel=1e-12)

    @pytest.mark.parametrize("f", [3, 4])
    def test_flag_reduction_matches_dense(self, f):
        model = ManifoldModel.flag(f, 1.8)
        xs = sample_uniform(model, 10, seed=21)
        ys = sample_uniform(model, 10, seed=22)
        for x in xs:
            for y in ys:
                fast = d_kernel(model, x, y)
                dense = dense_flag_kernel(1.8, x, y)
                assert fast == pytest.approx(dense, rel=1e-10, abs=1e-10)

    def test_sphere_rotation_invariance(self):
        model = ManifoldModel.sphere(1.6)
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        xs = sample_uniform(model, 40, seed=1)
        ys = sample_uniform(model, 40, seed=2)
        before = kernel_cross(model, xs, ys)
        after = kernel_cross(model, xs @ q.T, ys @ q.T)
        assert np.max(np.abs(after - before)) < 1e-10 * model.kernel_scale

    def test_flag_unitary_invariance(self, flag32):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(a)
        xs = sample_uniform(flag32, 30, seed=1)
        ys = sample_uniform(flag32, 30, seed=2)
        before = kernel_cross(flag32, xs, ys)
        rot = np.einsum("ij,nkj->nki", q, xs)
        rot2 = np.einsum("ij,nkj->nki", q, ys)
        after = kernel_cross(flag32, rot, rot2)
        assert np.max(np.abs(after - before)) < 1e-10 * flag32.kernel_scale

    def test_kernel_matrix_symmetrized(self, sphere12):
        pts = sample_uniform(sphere12, 20, seed=13)
        g = kernel_matrix(sphere12, pts)
        assert np.array_equal(g, g.T)


def flag_tol(tau):
    """Rounding of the flag kernel relative to its scale 8 tau^2.  Its tau^4
    terms cancel on near-coincident pairs, so beyond tau ~ 10 the error grows
    like eps tau^2: up to 1.3e-10 of the scale at TAU_MAX for the lift, and
    6e-11 for the dense oracle itself."""
    return 1e-12 + 4 * np.finfo(float).eps * tau**2


def assert_matches_dense(model, xs, ys):
    dense = np.array([[dense_flag_kernel(model.tau, x, y) for y in ys] for x in xs])
    tol = flag_tol(model.tau) * model.kernel_scale
    assert np.max(np.abs(kernel_cross(model, xs, ys) - dense)) <= tol
    for x, row in zip(xs, dense):
        assert max(abs(d_kernel(model, x, y) - d) for y, d in zip(ys, row)) <= tol


class TestStackedFlagTraces:
    """Tr(xy) and D = Tr((xy)^2) - Tr(xy)^2 / 2 on stacked batches, read off
    the real lift by ``kernel_cross``, ``d_kernel`` and the merge distance,
    against conftest's dense-matrix kernel."""

    @pytest.mark.parametrize("f", [3, 4, 5])
    @pytest.mark.parametrize("tau", [1.0, 1.7, 3.2, TAU_MAX])
    def test_batches(self, f, tau):
        model = ManifoldModel.flag(f, tau)
        scale, tol = model.kernel_scale, flag_tol(tau) * model.kernel_scale
        xs = sample_uniform(model, 12, seed=f)
        # random partners, coincident pairs and the swapped pairs (v, u),
        # which are lightlike at every tau: XY = (1 - tau^2)(uu* + vv*)
        swapped = xs[:, ::-1]
        ys = np.concatenate([sample_uniform(model, 6, seed=f + 1), xs[:4], swapped[4:8]])
        assert_matches_dense(model, xs, ys)
        assert np.max(np.abs(np.diag(kernel_cross(model, xs, xs)) - scale)) <= tol
        assert np.max(np.abs(np.diag(kernel_cross(model, xs, swapped)))) <= tol
        # the merge distance is the chord |X - Y| / (sqrt2 tau), so its square
        # gives back Tr(XY) = xi . eta
        chord_sq = (_distance_matrix(model, ys) * math.sqrt(2.0) * tau) ** 2
        mats = [dense_flag_matrix(tau, y) for y in ys]
        tr = np.array([[np.trace(a @ b).real for b in mats] for a in mats])
        assert np.max(np.abs(chord_sq - np.maximum(0.0, 2.0 * (2.0 + 2.0 * tau**2 - tr)))) <= tol

    @pytest.mark.parametrize("f", [3, 4, 5])
    def test_rows(self, f):
        # the annealer's shape, one point against the support, with lightlike
        # partners found by bisection on the dense kernel toward a spacelike point
        model = ManifoldModel.flag(f, 2.0)
        pts = sample_uniform(model, 16, seed=3)
        partners = []
        for x in pts[:4]:
            y = next(y for y in sample_uniform(model, 64, seed=4)
                     if dense_flag_kernel(2.0, x, y) < 0)

            def along(t):
                return flag_point((1 - t) * x[0] + t * y[0], (1 - t) * x[1] + t * y[1])

            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if dense_flag_kernel(2.0, x, along(mid)) > 0 else (lo, mid)
            partners.append(along(lo))
            assert abs(dense_flag_kernel(2.0, x, partners[-1])) <= 1e-12 * model.kernel_scale
        support = np.concatenate([pts, partners])
        for x in pts[:8]:
            assert_matches_dense(model, x[None], support)
            row = kernel_cross(model, x, support)
            assert np.array_equal(row, kernel_cross(model, x[None], support))

    @pytest.mark.parametrize("f", [3, 4, 5])
    def test_monte_carlo_columns(self, f):
        # Haar pairs in every other column of a wider array, a batch whose
        # last axis is strided: the lift reads it as contiguous complex128,
        # not through a real view of the strided array
        rng = np.random.Generator(np.random.SFC64(2))
        wide = np.zeros((40, 2, 2 * f), dtype=complex)
        wide[:, 0, ::2], wide[:, 1, ::2] = _haar_flag_pairs(rng, 40, f)
        strided = wide[..., ::2]
        assert_matches_dense(ManifoldModel.flag(f, 1.5), strided[:8], strided)

    @pytest.mark.parametrize("f", [3, 4, 5])
    def test_batch_features_stack_the_single_point_ones(self, f):
        # the batch's one bincount sums each point's bins in the single
        # point's order, so a batch is bitwise its points' features stacked
        model = ManifoldModel.flag(f, 1.7)
        xi = manifold._flag_xi(manifold._flag_lift(f, 1.7), sample_uniform(model, 16, seed=f))
        coupling = manifold._flag_coupling(f)
        single = np.stack([manifold._flag_features(coupling, x) for x in xi])
        assert np.array_equal(manifold._flag_features(coupling, xi), single)

    def test_large_f_builds_no_dense_coupling(self):
        # C has f^8 entries, 134 MB of doubles at f = 8, of which 27,504 are
        # nonzero: building C and the basis, a Gram and the merge distance
        # at f = 8 stay within a few MB
        model = ManifoldModel.flag(8, 1.5)
        pts = sample_uniform(model, 3, seed=0)
        manifold._flag_basis.cache_clear()
        manifold._flag_coupling.cache_clear()
        tracemalloc.start()
        try:
            kernel_matrix(model, pts)
            _distance_matrix(model, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert_matches_dense(model, pts, pts)

    @pytest.mark.parametrize("f", [3, 4, 5])
    def test_complex64_points(self, f):
        # complex64 points give the kernel of the values they hold
        model = ManifoldModel.flag(f, 1.5)
        xs = sample_uniform(model, 8, seed=f).astype(np.complex64)
        ys = sample_uniform(model, 5, seed=f + 1)
        dense = np.array([[dense_flag_kernel(1.5, x, y) for y in ys] for x in xs.astype(complex)])
        tol = flag_tol(1.5) * model.kernel_scale
        assert np.max(np.abs(kernel_cross(model, xs, ys) - dense)) <= tol
        assert np.max(np.abs(kernel_cross(model, ys, xs) - dense.T)) <= tol
        for x, row in zip(xs, dense):
            assert max(abs(d_kernel(model, x, y) - d) for y, d in zip(ys, row)) <= tol


class TestFlagPoint:
    def test_reorthonormalizes_drifted_pairs(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = flag_point(u, v)
        assert abs(np.vdot(p[0], p[0]) - 1) < 1e-12
        assert abs(np.vdot(p[1], p[1]) - 1) < 1e-12
        assert abs(np.vdot(p[0], p[1])) < 1e-12

    def test_rejects_collinear(self):
        e = np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            flag_point(e[0], 2.0 * e[0])
