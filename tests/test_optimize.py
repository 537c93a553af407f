import collections
import hashlib
import io
import math

import numpy as np
import pytest

from cvp import (
    AnnealSchedule,
    ManifoldModel,
    WeightedMeasure,
    action,
    anneal,
    circle_uniform,
    merge_clusters,
    octahedron,
    optimal_weights_info,
    sample_uniform,
    tau_scan,
    theta_max,
    write_scan_csv,
)
from cvp import manifold, nu0_monte_carlo, optimize
from cvp.exact import circle_chain_minimizer, circle_m0
from cvp.manifold import flag_point, kernel_cross, lagrangian_matrix
from cvp.optimize import (
    ScanRow,
    _distance_matrix,
    _qp_max_iter,
    _reduce_support,
    _simplex_qp,
)

from conftest import circle_chain_measure, pair_kernel, stqp_enumerate


def light(model, seed=0, **kw):
    return AnnealSchedule.light(model, seed=seed, **kw)


def make_state(model, pts):
    """An annealing state at pts with equal weights."""
    return optimize._AnnealState(optimize._Lift(model), pts, np.full(len(pts), 1.0 / len(pts)))


class TestSchedule:
    def test_default_values(self):
        model = ManifoldModel.sphere(1.5)
        s = AnnealSchedule.default(model)
        assert s.t_start == pytest.approx(model.kernel_scale)
        assert s.t_end == pytest.approx(1e-6 * model.kernel_scale)
        assert s.cooling == 0.97
        assert s.steps_per_temp == 200
        assert s.restarts == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(t_start=1.0, t_end=2.0)
        with pytest.raises(ValueError):
            AnnealSchedule(t_start=1.0, t_end=0.1, cooling=1.5)
        with pytest.raises(ValueError):
            AnnealSchedule(t_start=1.0, t_end=0.1, restarts=0)

    def test_step_cap(self):
        # cooling 0.999999999 asked for about 1.4e10 temperatures and never ended
        model = ManifoldModel.circle(3.0)
        default = AnnealSchedule.default(model)
        assert default.temperatures == 454  # 0.97^454 * 8 tau^2 is the first below t_end
        assert default.temperatures * 200 * 8 == 726_400
        with pytest.raises(ValueError, match="Metropolis steps"):
            AnnealSchedule.default(model, cooling=0.999999999)
        with pytest.raises(ValueError, match="Metropolis steps"):
            AnnealSchedule.default(model, steps_per_temp=10**6)
        cap = optimize.MAX_ANNEAL_STEPS
        at_cap = AnnealSchedule(t_start=2.0, t_end=1.0, cooling=0.5, steps_per_temp=cap,
                                restarts=1)
        assert at_cap.temperatures == 1
        with pytest.raises(ValueError, match="Metropolis steps"):
            AnnealSchedule(t_start=2.0, t_end=1.0, cooling=0.5, steps_per_temp=cap, restarts=2)

    @pytest.mark.parametrize("cooling", [0.5, 0.93, 0.95, 0.97, 0.999])
    def test_temperatures_match_the_cooling_loop(self, cooling):
        sched = AnnealSchedule.default(ManifoldModel.sphere(1.2), cooling=cooling)
        T, count = sched.t_start, 0
        while T > sched.t_end:
            T *= sched.cooling
            count += 1
        assert sched.temperatures == count

    @pytest.mark.parametrize("name", ["t_start", "t_end"])
    def test_non_finite_temperature_rejected(self, name):
        # with t_start = inf, T *= cooling stays inf and cooling never ends
        with pytest.raises(ValueError, match="need finite"):
            AnnealSchedule.default(ManifoldModel.circle(3.0), **{name: math.inf})


class TestOptimalWeights:
    def test_chain_weights_match_closed_form(self):
        tau = 3.0
        model = ManifoldModel.circle(tau)
        chain = circle_chain_minimizer(tau)
        w = optimal_weights_info(model, chain.measure.points).weights
        assert np.max(np.abs(w - chain.measure.weights)) < 1e-10

    def test_spacelike_points_uniform(self):
        model = ManifoldModel.sphere(2.5)  # theta_max < pi/2
        pts = np.vstack([np.eye(3), -np.eye(3)])
        w = optimal_weights_info(model, pts).weights
        assert np.max(np.abs(w - 1 / 6)) < 1e-12

    def test_coincident_points_degenerate(self):
        model = ManifoldModel.sphere(1.5)
        pts = np.array([[1.0, 0, 0], [1.0, 0, 0]])
        info = optimal_weights_info(model, pts)
        assert info.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(info.weights >= 0)
        assert info.action == pytest.approx(model.kernel_scale, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kkt_residual(self, seed):
        model = ManifoldModel.sphere(1.8)
        pts = sample_uniform(model, 12, seed=seed)
        info = optimal_weights_info(model, pts)
        assert info.kkt_residual < 1e-9

    def test_simplex_feasibility_exact(self):
        model = ManifoldModel.circle(2.4)
        pts = sample_uniform(model, 15, seed=4)
        w = optimal_weights_info(model, pts).weights
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)


def assert_kkt_point(G, sol, scale):
    """What every weight solve guarantees, checked against face enumeration."""
    best, _ = stqp_enumerate(G)
    assert np.all(sol.weights >= 0.0)
    assert abs(sol.weights.sum() - 1.0) <= 1e-15
    assert sol.kkt_residual <= 1e-10 * scale
    assert sol.action >= best - 1e-12 * scale
    assert sol.iterations < _qp_max_iter(len(G))


class TestSimplexQP:
    @pytest.mark.parametrize(
        "kind,tau,f",
        [("circle", 1.3, None), ("circle", 2.6, None), ("sphere", 1.2, None),
         ("sphere", 2.0, None), ("flag", 2.0, 3)],
    )
    def test_seeded_grams(self, kind, tau, f):
        model = ManifoldModel(kind, tau, f)
        for seed in range(9):
            pts = sample_uniform(model, 8 + seed % 3, seed=(31, seed))
            G = lagrangian_matrix(model, pts)
            assert_kkt_point(G, _simplex_qp(G), model.kernel_scale)

    def test_given_warm_free(self):
        model = ManifoldModel.sphere(2.0)
        rng = np.random.default_rng(5)
        for seed in range(6):
            G = lagrangian_matrix(model, sample_uniform(model, 10, seed=(37, seed)))
            _, w_best = stqp_enumerate(G)
            for warm in (w_best > 0.0, rng.random(10) < 0.5, np.arange(10) == seed):
                assert_kkt_point(G, _simplex_qp(G, warm), model.kernel_scale)

    @pytest.mark.parametrize("case", ["coincident", "single", "spacelike"])
    def test_degenerate_grams(self, case):
        if case == "coincident":
            model = ManifoldModel.sphere(1.5)
            pts = sample_uniform(model, 4, seed=3)
            pts = np.vstack([pts, pts[:2], pts[:1]])
        elif case == "single":
            model = ManifoldModel.circle(1.3)
            pts = np.array([0.7])
        else:
            model = ManifoldModel.sphere(2.5)  # theta_max < pi/2
            pts = octahedron().points
        G = lagrangian_matrix(model, pts)
        assert_kkt_point(G, _simplex_qp(G), model.kernel_scale)

    def test_kkt_residual_is_the_eager_formula(self):
        # the residual is computed when read, from the returned weights and
        # potential; it equals what the solver used to compute on return
        models = [ManifoldModel.circle(2.6), ManifoldModel.sphere(2.0), ManifoldModel.flag(3, 2.0)]
        grams = [lagrangian_matrix(model, sample_uniform(model, 9, seed=(41, k)))
                 for k, model in enumerate(models)]
        sphere = ManifoldModel.sphere(1.5)
        pts = sample_uniform(sphere, 4, seed=3)
        grams.append(lagrangian_matrix(sphere, np.vstack([pts, pts[:2]])))  # coincident points
        for G in grams:
            for warm in (None, np.arange(len(G)) % 2 == 0):
                sol = _simplex_qp(G, warm)
                w = sol.weights
                g = G @ w
                lam = float(w @ g)
                supp = w > 1e-14
                res_eq = float(np.max(np.abs(g[supp] - lam)))
                res_in = float(np.max(lam - g[~supp], initial=0.0))
                assert np.array_equal(sol.potential, g)
                assert sol.action == lam
                assert sol.kkt_residual == max(res_eq, res_in)


MERGE_MODELS = [ManifoldModel.circle(1.3), ManifoldModel.sphere(1.2), ManifoldModel.flag(3, 2.0)]


def near_copies(model, pts, scale, seed):
    """pts moved by about ``scale`` each, back on the manifold."""
    rng = np.random.default_rng(seed)
    noise = scale * rng.standard_normal(np.shape(pts))
    if model.kind == "circle":
        return (pts + noise) % (2 * np.pi)
    if model.kind == "sphere":
        moved = pts + noise
        return moved / np.linalg.norm(moved, axis=1, keepdims=True)
    noise = noise + 1j * scale * rng.standard_normal(np.shape(pts))
    return np.stack([flag_point(*(x + dx)) for x, dx in zip(pts, noise)])


class TestMergeClusters:
    @pytest.mark.parametrize("model", MERGE_MODELS, ids=lambda m: m.kind)
    def test_exact_duplicates_merge(self, model):
        # a point listed twice is 0 from its copy, not 1.5e-8 as through
        # arccos(e . e) or the flag's Tr(xy), so a tiny radius merges it
        pts = sample_uniform(model, 8, seed=1)
        m = WeightedMeasure(np.concatenate([pts, pts]), np.full(16, 1 / 16))
        res = merge_clusters(model, m, 1e-9)
        assert np.array_equal(res.measure.points, pts)
        assert np.array_equal(res.measure.weights, np.full(8, 1 / 8))
        assert res.action_delta_bound == 0.0
        assert abs(res.action_delta) <= 1e-12

    @pytest.mark.parametrize("model", MERGE_MODELS, ids=lambda m: m.kind)
    def test_merged_points_are_input_rows(self, model):
        # weight moves, points do not: each merged point is an input point
        # bit for bit, and the kept points are pairwise farther than radius
        radius = 1e-2
        pts = sample_uniform(model, 8, seed=2)
        rows = np.concatenate([pts, near_copies(model, pts, 1e-3, 3),
                               near_copies(model, pts[:4], 1e-3, 4)])
        w = np.random.default_rng(5).dirichlet(np.ones(len(rows)))
        m = WeightedMeasure(rows, w)
        res = merge_clusters(model, m, radius)
        assert len(res.measure) == 8
        for p in res.measure.points:
            assert any(np.array_equal(p, row) for row in rows)
        dist = _distance_matrix(model, res.measure.points)
        assert np.all(dist[~np.eye(8, dtype=bool)] > radius)
        assert abs(res.action_delta) <= res.action_delta_bound + 1e-12

    @pytest.mark.parametrize("pts, w, kept, kept_w", [
        # A - B - C with d(A, B), d(B, C) <= r < d(A, C), A heaviest: single
        # linkage would chain all three into one cluster 1.6 r wide
        ([0.0, 0.8, 1.6], [0.5, 0.2, 0.3], [0.0, 1.6], [0.7, 0.3]),
        # B is within r of A and of C and hands its weight to C, the heavier
        ([0.0, -0.8, 0.8], [0.2, 0.3, 0.5], [-0.8, 0.8], [0.3, 0.7]),
    ], ids=["chain", "heaviest-receives"])
    def test_weight_goes_to_heaviest_kept(self, circle13, pts, w, kept, kept_w):
        r = 0.05
        res = merge_clusters(circle13, WeightedMeasure(r * np.array(pts), np.array(w)), r)
        assert np.array_equal(res.measure.points, r * np.array(kept))
        assert np.allclose(res.measure.weights, kept_w, rtol=0, atol=1e-15)

    def test_doublets_merge_to_six(self):
        model = ManifoldModel.sphere(1.2)
        base = octahedron().points
        jit = np.array(
            [[1e-4, 0, 0], [0, 1e-4, 0], [0, 0, 1e-4]] * 2
        )
        doubled = np.vstack([base, base + np.roll(jit, 1, axis=1)])
        doubled /= np.linalg.norm(doubled, axis=1, keepdims=True)
        m = WeightedMeasure(doubled, np.full(12, 1 / 12))
        res = merge_clusters(model, m, 1e-3)
        assert len(res.measure) == 6
        assert np.max(np.abs(res.measure.weights - 1 / 6)) < 1e-12
        assert abs(res.action_delta) <= res.action_delta_bound + 1e-12

    def test_zero_radius_identity(self, circle13):
        m = circle_uniform(5)
        res = merge_clusters(circle13, m, 0.0)
        assert res.measure is m
        assert res.action_delta == 0.0

    def test_strict_threshold(self, circle13):
        radius = 0.05
        m = WeightedMeasure(np.array([0.0, 2 * radius]), np.array([0.5, 0.5]))
        res = merge_clusters(circle13, m, radius)
        assert len(res.measure) == 2

    def test_wraparound_distance(self, circle13):
        m = WeightedMeasure(np.array([0.01, 2 * np.pi - 0.01]), np.array([0.5, 0.5]))
        res = merge_clusters(circle13, m, 0.05)
        assert len(res.measure) == 1

    def test_flag_merge(self, flag32):
        pts = sample_uniform(flag32, 1, seed=0)
        x = pts[0]
        # same point with a rephased pair representation still merges
        y = np.stack([x[0] * np.exp(0.3j), x[1] * np.exp(-1.1j)])
        m = WeightedMeasure(np.stack([x, y]), np.array([0.5, 0.5]))
        res = merge_clusters(flag32, m, 1e-6)
        assert len(res.measure) == 1
        assert abs(res.action_delta) <= res.action_delta_bound + 1e-12

    def test_negative_radius(self, circle13):
        for radius in (-1.0, float("nan")):  # a NaN radius once merged nothing
            with pytest.raises(ValueError, match="radius must be >= 0"):
                merge_clusters(circle13, circle_uniform(3), radius)


LIFT_MODELS = [ManifoldModel(kind, tau) for kind in ("circle", "sphere")
               for tau in (1.0, 1.4, 3.0)] + [
    ManifoldModel.flag(f, tau) for f in (3, 4, 5) for tau in (1.0, 2.0, 3.2)]


def oracle_points(model):
    """(support, queries): random points, a coincident copy and a lightlike
    partner of the first point in both; the partner sits at
    c = 1 - 2/tau^2 on the circle and the sphere, and on the flag is found by
    bisection toward a spacelike point (at tau = 1, where no pair is
    spacelike, it is the swapped pair (v, u))."""
    pts = sample_uniform(model, 9, seed=(43, 1))
    x = pts[0]
    if model.kind == "circle":
        partner = (x + theta_max(model)) % (2.0 * np.pi)
    elif model.kind == "sphere":
        c = 1.0 - 2.0 / model.tau**2
        n = np.cross(x, [0.0, 0.0, 1.0])
        partner = c * x + np.sqrt(1.0 - c * c) * n / np.linalg.norm(n)
        partner /= np.linalg.norm(partner)
    else:
        spacelike = [y for y in sample_uniform(model, 64, seed=(43, 2))
                     if pair_kernel(model, x, y) < 0.0]
        if spacelike:
            y = spacelike[0]

            def along(t):
                return flag_point((1 - t) * x[0] + t * y[0], (1 - t) * x[1] + t * y[1])

            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2
                if pair_kernel(model, x, along(mid)) > 0.0:
                    lo = mid
                else:
                    hi = mid
            partner = along(lo)
        else:
            partner = flag_point(x[1], x[0])
    assert abs(pair_kernel(model, x, partner)) <= 1e-12 * model.kernel_scale
    pts = np.concatenate([pts, [x, partner]])
    queries = np.concatenate([pts[[0, 3, 9, 10]], sample_uniform(model, 4, seed=(43, 3))])
    return pts, queries


def assert_rows_match_oracles(model, pts, queries):
    """The state's kernel rows and probe potential against
    max(0, ``kernel_cross``) and conftest's ``pair_kernel``, before and after
    ``move`` (with the features of the last row and not)."""
    tol = 1e-12 * model.kernel_scale
    w = np.random.default_rng(8).random(len(pts))
    w /= w.sum()
    st = make_state(model, pts)
    for k, new in ((None, None), (4, queries[-1]), (5, queries[0])):
        if k is not None:
            priced = st.cost(k, new)  # move reuses this row's features
            if k == 5:
                priced = (priced[0].copy(), *priced[1:])
                st.l_row(queries[1])
            st.move(k, new, *priced)
            pts[k] = new
        for x in queries:
            oracle = [max(0.0, pair_kernel(model, x, y)) for y in pts]
            row = st.l_row(x)
            assert np.max(np.abs(row - np.maximum(0.0, kernel_cross(model, x, pts))[0])) <= tol
            assert np.max(np.abs(row - oracle)) <= tol
        ell = st.ell_on_probe(w)
        ell_cross = np.maximum(0.0, kernel_cross(model, st.lift.probe, pts)) @ w
        assert np.max(np.abs(ell - ell_cross)) <= tol
        for j in range(0, len(st.lift.probe), 16):
            oracle = sum(wi * max(0.0, pair_kernel(model, st.lift.probe[j], y))
                         for wi, y in zip(w, pts))
            assert abs(ell[j] - oracle) <= tol


class TestEngines:
    @pytest.mark.parametrize(
        "model",
        [ManifoldModel.circle(3.0), ManifoldModel.sphere(1.2), ManifoldModel.flag(3, 2.0)],
        ids=["circle", "sphere", "flag"],
    )
    def test_rows_match_lagrangian_cross(self, model):
        pts = sample_uniform(model, 9, seed=4)
        x, y = sample_uniform(model, 2, seed=5)
        w = np.random.default_rng(6).random(9)
        w /= w.sum()
        tol = 1e-12 * model.kernel_scale
        st = make_state(model, pts)
        assert np.max(np.abs(st.l_row(x) - np.maximum(0.0, kernel_cross(model, x, pts))[0])) <= tol
        ell = np.maximum(0.0, kernel_cross(model, st.lift.probe, pts)) @ w
        assert np.max(np.abs(st.ell_on_probe(w) - ell)) <= tol
        st.move(2, x, *st.cost(2, x))
        pts[2] = x
        assert np.array_equal(st.pts, pts)
        assert np.max(np.abs(st.l_row(y) - np.maximum(0.0, kernel_cross(model, y, pts))[0])) <= tol

    @pytest.mark.parametrize("model", LIFT_MODELS, ids=lambda m: f"{m.kind}{m.f or ''}-{m.tau}")
    def test_lifted_rows_match_the_oracles(self, model):
        assert_rows_match_oracles(model, *oracle_points(model))

    @pytest.mark.parametrize("mutation", ["drop-half", "swap-index", "zonal-cross-once"])
    def test_a_mutated_lift_fails_the_oracles(self, mutation, monkeypatch):
        if mutation == "zonal-cross-once":
            model = ManifoldModel.sphere(1.4)
            features = optimize._zonal_features
            monkeypatch.setattr(optimize, "_zonal_features",
                                lambda e, a, a2, b, c: features(e, a, a, b, c))
        else:
            # the one C, which kernel_cross reads too, so
            # the mutation must fail through conftest's pair_kernel
            model = ManifoldModel.flag(3, 2.0)
            flag_coupling = manifold._flag_coupling

            def mutated(f):
                # C dense from its nonzeros, mutated, and stored back whole
                rows, cols, vals = flag_coupling(f)
                K = f * f
                C = np.zeros((K * K, K * K))
                C[rows, cols] = vals
                half = 0.5 * np.einsum("km,ln->klmn", np.eye(K), np.eye(K)).reshape(K * K, K * K)
                if mutation == "drop-half":  # Re tr(H_k H_m H_l H_n)
                    C = C + half
                else:  # Re tr(H_k H_l H_m H_n) - delta_km delta_ln / 2: H_m and H_l swapped
                    trace = (C + half).reshape(K, K, K, K).transpose(0, 2, 1, 3)
                    C = trace.reshape(K * K, K * K) - half
                return (*np.indices(C.shape).reshape(2, -1), C.ravel())

            monkeypatch.setattr(manifold, "_flag_coupling", mutated)
            monkeypatch.setattr(optimize, "_flag_coupling", mutated)
        with pytest.raises(AssertionError):
            assert_rows_match_oracles(model, *oracle_points(model))

    @pytest.mark.parametrize("f", [3, 4, 5])
    def test_flag_jitter_is_exact(self, f):
        # the proposal against complex arithmetic with np.linalg.norm on the
        # same draws, read as interleaved (Re, Im) pairs of u, then of v, with
        # the second projection when the first removes over half of |v|^2;
        # the two normalize differently (np.vdot and a reciprocal against
        # np.linalg.norm and a division), so they agree to 4e-16, not bitwise
        model = ManifoldModel.flag(f, 2.0)
        lift = optimize._Lift(model)
        mine = optimize._BlockedRng(np.random.default_rng(1))
        ref = optimize._BlockedRng(np.random.default_rng(1))
        x = sample_uniform(model, 1, seed=3)[0]
        for k in range(600):
            scale = 10.0 ** -(k % 11)
            n = ref.normals(4 * f)
            u = x[0] + scale * (n[0 : 2 * f : 2] + 1j * n[1 : 2 * f : 2])
            v = x[1] + scale * (n[2 * f :: 2] + 1j * n[2 * f + 1 :: 2])
            u = u / np.linalg.norm(u)
            c = np.vdot(u, v)
            v = v - c * u
            if abs(c) > np.linalg.norm(v):
                v = v - np.vdot(u, v) * u
            v = v / np.linalg.norm(v)
            x = lift.jitter(x, scale, mine)
            assert np.max(np.abs(x - np.stack([u, v]))) <= 4e-16
            assert abs(np.linalg.norm(x[0]) - 1.0) <= 1e-15
            assert abs(np.linalg.norm(x[1]) - 1.0) <= 1e-15
            assert abs(np.vdot(x[0], x[1])) <= 1e-15

    def test_sphere_jitter_is_the_normalized_step(self):
        # the Python-float proposal against v / np.linalg.norm(v) on the same
        # draws, to 2 ulp of each coordinate
        model = ManifoldModel.sphere(1.2)
        lift = optimize._Lift(model)
        mine = optimize._BlockedRng(np.random.default_rng(2))
        ref = optimize._BlockedRng(np.random.default_rng(2))
        x = sample_uniform(model, 1, seed=3)[0]
        for k in range(600):
            scale = 10.0 ** -(k % 11)
            v = x + scale * ref.normals(3)
            expected = v / np.linalg.norm(v)
            x = np.array(lift.jitter(x, scale, mine))
            assert np.all(np.abs(x - expected) <= 2.0 * np.spacing(np.abs(expected)))


class TestBlockedRng:
    def test_draws_follow_the_generator_blocks(self):
        # uniforms and normals come from 16384-draw blocks in the order the
        # generator would give them, and a block is drawn only when needed
        rand = optimize._BlockedRng(np.random.default_rng(5))
        ref = np.random.default_rng(5)
        u0, n0 = ref.random(16384), ref.standard_normal(16384)
        assert [rand.uniform() for _ in range(16384)] == u0.tolist()
        assert np.array_equal(rand.normals(3), n0[:3])
        u1 = ref.random(16384)
        assert rand.uniform() == u1[0]
        rand.normals(16381)
        n1 = ref.standard_normal(16384)
        assert np.array_equal(rand.normals(2), n1[:2])
        assert [rand.uniform() for _ in range(16383)] == u1[1:].tolist()

    def test_normal_reads_the_normal_blocks(self):
        # normal() gives the generator's 16384-normal blocks, drawn after the
        # one uniform block, as Python floats and across block refills
        rand = optimize._BlockedRng(np.random.default_rng(9))
        ref = np.random.default_rng(9)
        ref.random(16384)
        blocks = np.concatenate([ref.standard_normal(16384) for _ in range(3)])
        got = [rand.normal() for _ in range(40000)]
        assert all(type(v) is float for v in got)
        assert got == blocks[:40000].tolist()


def watch_states(model, monkeypatch):
    """Capture the annealer's states and check, at every weight solve, that
    its Gram is the Lagrangian matrix of the current state's points, and, at
    every weight solve and every kernel row of a support point (refresh and
    consolidation), that its stored features are the lift of its points.
    After every load (at construction and of the best snapshot before the
    quench), the features, the Gram and the rows must be bitwise those of a
    state built at the new points.  Returns [worst Gram error, loads]."""
    states, worst = [], [0.0, 0]
    state, simplex_qp = optimize._AnnealState, optimize._simplex_qp
    tol = 1e-12 * model.kernel_scale

    def assert_fresh(st):
        assert np.max(np.abs(st.F - st.lift.stored(st.pts))) <= tol

    class Watched(state):
        def __init__(self, lift, pts, w):
            super().__init__(lift, pts, w)
            states.append(self)

        def l_row(self, x):
            if any(np.array_equal(x, p) for p in self.pts):
                assert_fresh(self)
            return super().l_row(x)

        def load(self, pts, w):
            super().load(pts, w)
            fresh = state(self.lift, pts, w)
            assert np.array_equal(self.pts, fresh.pts) and np.array_equal(self.F, fresh.F)
            assert np.array_equal(self.G, fresh.G)
            x = self.lift.probe[0]
            assert np.array_equal(super().l_row(x), fresh.l_row(x))
            worst[1] += 1

    def checked(G, warm_free=None):
        exact = lagrangian_matrix(model, states[-1].pts)
        worst[0] = max(worst[0], float(np.max(np.abs(G - exact))))
        assert_fresh(states[-1])
        return simplex_qp(G, warm_free)

    monkeypatch.setattr(optimize, "_AnnealState", Watched)
    monkeypatch.setattr(optimize, "_simplex_qp", checked)
    return worst


class TestLazyRows:
    @pytest.mark.parametrize(
        "model, m",
        [
            (ManifoldModel.circle(3.0), 14),
            (ManifoldModel.sphere(1.2), 12),
            (ManifoldModel.flag(3, 2.0), 16),
            (ManifoldModel.circle(1.7), 10),
        ],
        ids=["circle-3.0", "sphere-1.2", "flag-3-2.0", "circle-1.7"],
    )
    def test_every_weight_solve_sees_the_exact_gram(self, model, m, monkeypatch):
        # massless points defer their features and Gram rows; each weight
        # solve must still see the Lagrangian matrix of the state's current
        # points, and every row read must see their current features
        worst = watch_states(model, monkeypatch)
        anneal(model, m, light(model))
        assert worst[0] <= 1e-12 * model.kernel_scale
        # one load at construction and one before the quench per restart
        assert worst[1] == 2 * light(model).restarts

    def test_deferred_features_unwritten_fail_the_check(self, monkeypatch):
        # without the write before read, a row or a weight solve sees the
        # features of a massless point's old position
        model = ManifoldModel.flag(3, 2.0)
        watch_states(model, monkeypatch)
        monkeypatch.setattr(optimize._AnnealState, "sync", lambda self: None)
        with pytest.raises(AssertionError):
            anneal(model, 16, light(model))


class TestBuildCounts:
    @staticmethod
    def spy_builds(monkeypatch):
        counts = collections.Counter()

        def spy(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(optimize, "_Lift", spy("lift", optimize._Lift))
        monkeypatch.setattr(optimize, "anneal", spy("anneal", optimize.anneal))
        init = optimize._AnnealState.__init__
        monkeypatch.setattr(optimize._AnnealState, "__init__", spy("state", init))
        return counts

    @pytest.mark.parametrize(
        "model", [ManifoldModel.circle(3.0), ManifoldModel.flag(3, 2.0)], ids=["circle", "flag"])
    def test_maps_once_per_call_and_one_state_per_restart(self, model, monkeypatch):
        # the probe grid and its queries depend only on the model, the flag's
        # C only on f; the quench loads the best snapshot into its restart's
        # state instead of building one
        counts = self.spy_builds(monkeypatch)
        anneal(model, 6, light(model, steps_per_temp=5, restarts=2))
        assert (counts["lift"], counts["state"]) == (1, 2)

    def test_coupling_built_once_per_f(self):
        manifold._flag_coupling.cache_clear()
        for f in (3, 4):
            model = ManifoldModel.flag(f, 2.0)
            for _ in range(2):
                meas = anneal(model, 4, light(model, steps_per_temp=2, restarts=1))
                merge_clusters(model, meas, 0.5)
        # kernel_cross at f = 3 and 4; the Monte Carlo's closed form builds none
        nu0_monte_carlo(ManifoldModel.flag(3, 1.5), 100, seed=0)
        assert manifold._flag_coupling.cache_info().misses == 2

    def test_one_lift_per_anneal_call_in_a_scan(self, monkeypatch):
        # a cold run at each tau and a warm run from each neighbour, each
        # building its own lift
        counts = self.spy_builds(monkeypatch)
        tau_scan("circle", [1.7, 1.72], 6, steps_per_temp=5, restarts=2)
        assert (counts["anneal"], counts["lift"]) == (4, 4)


class TestAnnealPins:
    # sha256 of points.tobytes() + weights.tobytes() of anneal at
    # AnnealSchedule.light(model, seed, steps_per_temp=10); circle tau 3.0
    # m 8, sphere tau 1.2 m 6, flag f 3 tau 2.0 m 6.  Both circle seeds end
    # in the same measure.  The flag pins were recorded when the flag kernel
    # became the one real lift of ``manifold``: the engine's xi and its
    # resync Grams changed in the last bits, and both seeds then ended in
    # other measures of the same action 8 tau^2 / 6.
    PINS = {
        ("circle", 0): "d568683550ae0bb78b4b808c4a336fd6fcfcb59def8fa896ccc47d96f044acde",
        ("circle", 1): "d568683550ae0bb78b4b808c4a336fd6fcfcb59def8fa896ccc47d96f044acde",
        ("sphere", 0): "f34ebf6a19fe2f962312775faeab727a69b3894109f9e009f46bbc48fdb0ef40",
        ("sphere", 1): "f5052fe6e8badeb943fef9e92cdf181656ec749257fdfb4593f4cfc60bded73f",
        ("flag", 0): "293c6267d804059b3143828dea21c51fd2be5b78e8d4359a0a7934ea80ba16c2",
        ("flag", 1): "9481d665da30333d91e4fcbc005342714e0ac4e2a196f9c07d67565af7116b6a",
    }
    MODELS = {
        "circle": (ManifoldModel.circle(3.0), 8),
        "sphere": (ManifoldModel.sphere(1.2), 6),
        "flag": (ManifoldModel.flag(3, 2.0), 6),
    }

    @pytest.mark.parametrize("kind, seed", list(PINS), ids=lambda v: str(v))
    def test_output_bits(self, kind, seed):
        """The annealer's output bits are pinned: a refactor must keep them.
        Only a deliberate change of the search, such as a new random stream,
        listed in CHANGES.md with its reason and new pins, may move a pin."""
        model, m = self.MODELS[kind]
        out = anneal(model, m, light(model, seed, steps_per_temp=10))
        digest = hashlib.sha256(out.points.tobytes() + out.weights.tobytes()).hexdigest()
        assert digest == self.PINS[kind, seed]


class TestAnneal:
    def test_never_above_initial(self, circle13):
        # X_6 at tau=1.3 is already a minimizer; the annealer must match it
        init = circle_uniform(6)
        s0 = action(circle13, init)
        out = anneal(circle13, 6, light(circle13, steps_per_temp=20), init=init)
        assert action(circle13, out) <= s0 + 1e-12

    def test_deterministic(self, circle13):
        a = anneal(circle13, 5, light(circle13, steps_per_temp=10))
        b = anneal(circle13, 5, light(circle13, steps_per_temp=10))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_single_point(self, sphere12):
        m = anneal(sphere12, 1, light(sphere12, steps_per_temp=5))
        assert len(m) == 1
        assert action(sphere12, m) == pytest.approx(sphere12.kernel_scale)

    def test_circle_timelike_value(self, circle13):
        out = anneal(circle13, 6, light(circle13))
        nu0 = 4 * 1.3**2 - 1.3**4
        assert action(circle13, out) <= nu0 * 1.01

    def test_monotone_in_m_with_cascade(self):
        # best action is non-increasing in the number of available points
        for tau in (1.3, 3.0):
            model = ManifoldModel.circle(tau)
            prev = None
            actions = []
            for m in range(4, 15):
                sched = light(model, steps_per_temp=30)
                best = anneal(model, m, sched, init=prev)
                actions.append(action(model, best))
                prev = best
            diffs = np.diff(actions)
            assert np.all(diffs <= 1e-9), (tau, actions)

    def test_m_validation(self, circle13):
        with pytest.raises(ValueError):
            anneal(circle13, 0)


class TestReduceSupport:
    @pytest.fixture(scope="class")
    def chain(self):
        model = ManifoldModel.circle(3.0)
        return model, circle_chain_measure(model, circle_m0(3.0))

    def test_chain_kept_without_annealing(self, chain, monkeypatch):
        def no_anneal(*args, **kwargs):
            raise AssertionError("support reduction must not anneal")

        monkeypatch.setattr(optimize, "anneal", no_anneal)
        model, meas = chain
        out = _reduce_support(model, meas)
        assert out.support_size == 10
        assert action(model, out) == action(model, meas)

    def test_coincident_copy_dropped(self, chain):
        model, meas = chain
        pts = np.insert(meas.points, 3, meas.points[3])
        w = np.insert(meas.weights, 3, 0.5 * meas.weights[3])
        w[4] *= 0.5
        out = _reduce_support(model, WeightedMeasure(pts, w))
        S = action(model, meas)
        assert out.support_size == 10
        assert abs(action(model, out) - S) <= 1e-6 * S

    @pytest.mark.parametrize("kind,tau,m", [("circle", 1.3, 7), ("sphere", 1.2, 8)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_action_bound_and_support(self, kind, tau, m, seed):
        model = ManifoldModel(kind, tau)
        meas = anneal(model, m, light(model, seed=seed, steps_per_temp=15, restarts=1))
        S0 = action(model, meas)
        out = _reduce_support(model, meas)
        assert action(model, out) <= S0 * (1.0 + 1e-6)
        assert out.support_size <= meas.support_size


@pytest.fixture(scope="module")
def scan_rows():
    return tau_scan(
        "circle", [1.38, 1.40, 1.42, 1.44], m=8, seed=0, steps_per_temp=60
    )


class TestTauScan:

    def test_row_shape(self, scan_rows):
        rows = scan_rows
        assert [r.tau for r in rows] == [1.38, 1.40, 1.42, 1.44]
        assert all(r.m == 8 for r in rows)
        assert all(r.action > 0 for r in rows)

    def test_transition_bracketed(self, scan_rows):
        rows = scan_rows
        # support 4 -> 5 and the classification flip both happen at sqrt(2)
        sizes = [r.support_size_after_merge for r in rows]
        assert sizes[0] == 4 and sizes[1] == 4
        assert sizes[2] == 5 and sizes[3] == 5
        kinds = [r.classification for r in rows]
        assert kinds[1] == "generically_timelike"
        assert kinds[2] == "singular_candidate"

    def test_warm_start_not_worse_than_cold(self, scan_rows):
        rows = scan_rows
        for row in rows:
            model = ManifoldModel.circle(row.tau)
            cold = anneal(
                model, 8, AnnealSchedule.light(model, steps_per_temp=60, seed=0)
            )
            assert row.action <= action(model, cold) + 1e-9

    def test_el_residual_small(self, scan_rows):
        rows = scan_rows
        for row in rows:
            assert row.el_residual < 1e-2 * row.action

    def test_csv_format(self, scan_rows):
        rows = scan_rows
        buf = io.StringIO()
        write_scan_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "tau,m,action,support_size,classification,el_residual"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 1.38
        assert int(first[1]) == 8

    def test_empty_grid(self):
        assert tau_scan("circle", [], m=4) == []

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            tau_scan("circle", [1.4, 1.2], m=4)

    def test_scan_row_validation(self):
        with pytest.raises(ValueError):
            ScanRow(1.0, 4, -1.0, 3, "unclassified", 0.0)
