import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cvp import (
    Classification,
    ManifoldModel,
    WeightedMeasure,
    action,
    antipodal_obstruction,
    bounds_report,
    certify,
    flag_gt_threshold,
    gram_min_eigenvalue,
    gt_obstruction_conflict,
    lagrangian,
    load_packing,
    nu0_lower_bound,
    nu0_monte_carlo,
    octahedron,
    icosahedron,
    optimize_heat_params,
    sample_uniform,
    spectral_closed_form,
    tammes_upper_bound,
    theta_max,
    volume_action,
)
from cvp import analysis
from cvp.analysis import _MC_BLOCK, _heat_lmax, _nu0_samples
from cvp.exact import circle_chain_minimizer, circle_chain_points
from cvp.manifold import _haar_flag_pairs, kernel_cross, lagrangian_profile, zonal_d
from cvp.spectral import legendre_all

from conftest import dense_flag_kernel

E1 = np.array([1.0, 0.0, 0.0])


def kernel_eigenvalues_by_quadrature(model):
    """(nu0, nu1, nu2) by numerically integrating D against the eigenbasis.

    Guards the hard-coded closed forms: circle Fourier modes on a uniform
    grid (exact for trigonometric polynomials), sphere Legendre modes by
    Gauss-Legendre (exact for polynomials in cos theta).
    """
    tau = model.tau
    if model.kind == "circle":
        n = 4096
        t = 2.0 * np.pi * np.arange(n) / n
        d = zonal_d(tau, np.cos(t))
        return tuple(float(np.mean(d * np.cos(k * t))) for k in range(3))
    x, wq = np.polynomial.legendre.leggauss(64)
    vals = 0.5 * (legendre_all(2, x) @ (wq * zonal_d(tau, x)))
    return float(vals[0]), float(vals[1]), float(vals[2])


def heat_kernel(t, theta):
    """h_t(theta) = sum_l (2l+1) exp(-t l (l+1)) P_l(cos theta), with its
    own truncation: the series stops at the first l whose term bound
    (2l+1) exp(-t l (l+1)) is below 1e-12.  The reference for the heat
    search, which must reproduce these values bit for bit."""
    lmax = 0
    while (2 * lmax + 1) * math.exp(-t * lmax * (lmax + 1)) >= 1e-12:
        lmax += 1
    ell = np.arange(lmax + 1)
    coeffs = (2 * ell + 1) * np.exp(-t * ell * (ell + 1))
    vals = coeffs @ legendre_all(lmax, np.cos(np.atleast_1d(np.asarray(theta, dtype=float))))
    return float(vals[0]) if np.ndim(theta) == 0 else vals


class TestCertify:
    def test_octahedron_timelike_phase(self):
        model = ManifoldModel.sphere(1.2)
        rep = certify(model, octahedron())
        assert rep.classification is Classification.GENERICALLY_TIMELIKE
        assert rep.el_residual < 1e-10
        assert max(rep.moment_residuals) < 1e-12
        assert rep.action == pytest.approx(2.9952, abs=1e-12)
        assert not gt_obstruction_conflict(model, rep)

    def test_chain_is_singular_candidate(self):
        model = ManifoldModel.circle(3.0)
        chain = circle_chain_minimizer(3.0)
        rep = certify(model, chain.measure)
        assert rep.classification is Classification.SINGULAR_CANDIDATE
        assert rep.el_residual < 1e-9

    def test_delta_measure_not_minimal(self):
        model = ManifoldModel.sphere(2.0)
        m = WeightedMeasure(E1[None, :], np.array([1.0]))
        rep = certify(model, m)
        # ell vanishes at the antipode while the action is 8 tau^2
        assert rep.el_residual > 0.9 * model.kernel_scale

    def test_octahedron_above_transition(self):
        model = ManifoldModel.sphere(1.6)
        rep = certify(model, octahedron())
        assert rep.classification is Classification.SINGULAR_CANDIDATE
        assert antipodal_obstruction(model)
        assert not gt_obstruction_conflict(model, rep)

    def test_flag_moments_omitted(self, flag32):
        pts = sample_uniform(flag32, 4, seed=1)
        rep = certify(flag32, WeightedMeasure(pts, np.full(4, 0.25)))
        assert rep.moment_residuals == ()


class TestGramEigenvalue:
    def test_single_point(self):
        model = ManifoldModel.sphere(1.7)
        assert gram_min_eigenvalue(model, E1[None, :]) == pytest.approx(
            8 * 1.7**2, rel=1e-12
        )

    @pytest.mark.parametrize("tau", [2.6, 3.0])
    def test_minimizer_support_near_psd(self, tau):
        model = ManifoldModel.circle(tau)
        chain = circle_chain_minimizer(tau)
        val = gram_min_eigenvalue(model, chain.measure.points)
        assert val >= -1e-8 * model.kernel_scale

    @pytest.mark.parametrize("tau", [2.6, 3.0])
    def test_overlong_chain_infeasible(self, tau):
        # Gram of (x_1, x_{m0+1}, x_2) of a chain of length m0+1 has a
        # negative eigenvalue; analytic oracle: L(g)^2 + L(tm-g)^2 > L(0)^2
        model = ManifoldModel.circle(tau)
        chain = circle_chain_minimizer(tau)
        tm = theta_max(model)
        pts_long = circle_chain_points(tau, chain.m0 + 1)
        triple = pts_long[[0, chain.m0, 1]]
        l0 = model.kernel_scale
        lg = lagrangian(model, 0.0, chain.gamma)
        ld = lagrangian(model, 0.0, tm - chain.gamma)
        assert lg**2 + ld**2 > l0**2
        assert gram_min_eigenvalue(model, triple) < 0

    def test_size_limit(self):
        model = ManifoldModel.circle(1.5)
        with pytest.raises(ValueError):
            gram_min_eigenvalue(model, np.zeros(1001))


class TestSpectral:
    def test_closed_forms(self):
        assert spectral_closed_form(ManifoldModel.circle(math.sqrt(2))).nu0 == pytest.approx(4.0)
        assert spectral_closed_form(ManifoldModel.sphere(1.0)).nu0 == pytest.approx(8 / 3)
        flag = spectral_closed_form(ManifoldModel.flag(3, 1.0))
        assert flag.nu0 == pytest.approx(4 / 3)
        assert flag.nu1 is None and flag.nu2 is None

    @pytest.mark.parametrize("kind", ["circle", "sphere"])
    @pytest.mark.parametrize("tau", [1.0, 1.3, 2.0, 2.7])
    def test_quadrature_reproduces_closed_form(self, kind, tau):
        model = ManifoldModel(kind, tau)
        got = kernel_eigenvalues_by_quadrature(model)
        ref = spectral_closed_form(model)
        assert got[0] == pytest.approx(ref.nu0, abs=1e-8)
        assert got[1] == pytest.approx(ref.nu1, abs=1e-8)
        assert got[2] == pytest.approx(ref.nu2, abs=1e-8)

    def test_nu0_bound_validity(self):
        b = nu0_lower_bound(ManifoldModel.sphere(1.5))
        assert b.value == pytest.approx(2.25) and b.valid
        b = nu0_lower_bound(ManifoldModel.sphere(2.0))
        assert b.value == pytest.approx(-16 / 3) and not b.valid
        b = nu0_lower_bound(ManifoldModel.circle(1.9))
        assert b.value == pytest.approx(4 * 1.9**2 - 1.9**4) and b.valid
        assert b.value == pytest.approx(1.4079, abs=1e-10)
        assert not nu0_lower_bound(ManifoldModel.flag(3, 1.2)).valid


class TestObstructions:
    def test_antipodal_flips_at_sqrt2(self):
        assert antipodal_obstruction(ManifoldModel.sphere(1.5))
        assert not antipodal_obstruction(ManifoldModel.sphere(math.sqrt(2)))
        assert not antipodal_obstruction(ManifoldModel.circle(1.0))
        with pytest.raises(ValueError):
            antipodal_obstruction(ManifoldModel.flag(3, 1.5))

    def test_flag_threshold(self):
        t3 = flag_gt_threshold(3)
        assert t3 == pytest.approx(math.sqrt((9 + 4 * math.sqrt(6)) / 5), rel=1e-14)
        assert t3 == pytest.approx(1.9390, abs=1e-4)
        t4 = flag_gt_threshold(4)
        assert t4 == pytest.approx(math.sqrt((12 + 2 * math.sqrt(45)) / 6), rel=1e-14)
        assert t4 > t3
        with pytest.raises(ValueError):
            flag_gt_threshold(2)

    @pytest.mark.parametrize("f", [3.9, 3.0, "3", None])
    def test_flag_threshold_takes_integers_only(self, f):
        # 3.9 once gave f = 3's threshold
        with pytest.raises(ValueError, match=r"f must be an integer >= 3 \(got f="):
            flag_gt_threshold(f)


class TestHeatKernel:
    def test_large_t_limit(self):
        assert heat_kernel(50.0, 1.234) == pytest.approx(1.0, abs=1e-12)

    def test_integral_is_one(self):
        # 200-node Gauss-Legendre in cos(theta), weights dc/2
        c, w = np.polynomial.legendre.leggauss(200)
        vals = heat_kernel(0.1, np.arccos(c))
        assert (w / 2) @ vals == pytest.approx(1.0, abs=1e-8)

    def test_peak_at_zero(self):
        # brute-force partial sums as the oracle
        def brute(t, th, terms):
            from numpy.polynomial.legendre import legval
            total = 0.0
            for l in range(terms):
                c = np.zeros(l + 1)
                c[l] = 1.0
                total += (2 * l + 1) * math.exp(-t * l * (l + 1)) * legval(math.cos(th), c)
            return total

        assert heat_kernel(0.2, 0.0) > heat_kernel(0.2, math.pi)
        assert heat_kernel(0.2, 0.7) == pytest.approx(brute(0.2, 0.7, 40), abs=1e-10)

    def test_degree_cap(self):
        # 3e-5 needs 1,085 degrees, past the cap of 1,000; the error comes
        # before any Legendre table is built
        model = ManifoldModel.sphere(1.5)
        with pytest.raises(ValueError, match="needs more than 1000 Legendre degrees"):
            optimize_heat_params(model, [3e-5, 0.1, 1.0])


class TestHeatKernelBound:
    def test_construction_identities(self):
        model = ManifoldModel.sphere(2.0)
        hb = optimize_heat_params(model, [0.1, 0.3])
        assert hb is not None and (hb.t1, hb.t2) == (0.1, 0.3)
        tm = theta_max(model)
        k0 = hb.lam * (heat_kernel(0.1, 0.0) - hb.delta * heat_kernel(0.3, 0.0))
        ktm = hb.lam * (heat_kernel(0.1, tm) - hb.delta * heat_kernel(0.3, tm))
        assert k0 == pytest.approx(model.kernel_scale, rel=1e-12)
        assert ktm == pytest.approx(0.0, abs=1e-12)
        assert hb.dominated
        assert hb.s_k == pytest.approx(hb.lam * (1 - hb.delta), rel=1e-14)

    def test_spectral_coefficients_nonnegative(self):
        model = ManifoldModel.sphere(2.0)
        hb = optimize_heat_params(model, [0.1, 0.3])
        assert hb is not None
        ell = np.arange(101)
        coeffs = hb.lam * (
            np.exp(-hb.t1 * ell * (ell + 1)) - hb.delta * np.exp(-hb.t2 * ell * (ell + 1))
        )
        assert np.all(coeffs >= 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="on the sphere"):
            optimize_heat_params(ManifoldModel.circle(2.0), [0.1, 0.3])

    def test_grid_search(self):
        model = ManifoldModel.sphere(2.0)
        best = optimize_heat_params(model, np.geomspace(0.01, 2.0, 10))
        assert best is not None and best.dominated
        assert best.s_k > 0
        # S_K below the packing and volume upper bounds
        assert best.s_k <= tammes_upper_bound(model, icosahedron().points)
        assert best.s_k <= volume_action(model)

    def test_empty_grid(self):
        assert optimize_heat_params(ManifoldModel.sphere(2.0), []) is None

    def test_repeated_times_skipped(self):
        # 14 equal times, as `cvp bounds --t-min 2 --t-max 2` builds them:
        # no t1 < t2 pair exists, and no singular calibration may warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert optimize_heat_params(
                ManifoldModel.sphere(1.5), np.geomspace(2.0, 2.0, 14)
            ) is None

    @pytest.mark.parametrize("tau", [1.1, 1.3, 1.5, 1.7, 1.9, 2.1, 2.3, 2.5])
    def test_endpoints_match_scalar_heat_kernel(self, tau):
        # the two-point endpoint table gives the values of heat_kernel(t, 0.0)
        # and heat_kernel(t, theta_max) exactly: every bound the search
        # yields is the reference calibration bit for bit, and it yields
        # exactly the pairs that can dominate, 0 < delta < 1 and 0 < lambda < inf
        model = ManifoldModel.sphere(tau)
        t_grid = np.geomspace(0.01, 2.0, 14).tolist()
        pairs = list(itertools.combinations(t_grid, 2))
        theta = np.linspace(0.0, np.pi, 10000)
        lvals = lagrangian_profile(model, theta) + 1e-9
        tm = theta_max(model)
        heat = {t: (heat_kernel(t, 0.0), heat_kernel(t, tm), heat_kernel(t, theta)) for t in t_grid}
        refs = {(t1, t2): _reference_calibrated_bound(model, t1, t2, heat[t1], heat[t2], lvals)
                for t1, t2 in pairs}
        bounds = list(analysis._heat_bounds(model, pairs))
        for hb in bounds:
            assert hb == refs[hb.t1, hb.t2]
        assert sorted((hb.t1, hb.t2) for hb in bounds) == [
            pair for pair, ref in refs.items() if 0.0 < ref.delta < 1.0 and 0.0 < ref.lam < math.inf]

    @pytest.mark.parametrize("tau", [1.5, 2.0, 2.5])
    def test_single_pair_matches_search(self, tau):
        model = ManifoldModel.sphere(tau)
        best = optimize_heat_params(model, np.geomspace(0.01, 2.0, 14))
        assert best is not None
        assert optimize_heat_params(model, [best.t1, best.t2]) == best

    def test_weak_coupling_bound_vs_nu0(self):
        model = ManifoldModel.sphere(1.1)
        best = optimize_heat_params(model, np.geomspace(0.02, 2.0, 8))
        nu0 = nu0_lower_bound(model)
        assert nu0.valid
        if best is not None:
            # both lower bounds must sit below the exact minimum nu0
            assert best.s_k <= nu0.value + 1e-9

    @pytest.mark.parametrize("times", [[-1.0, 0.5], [0.0, 0.5], [math.nan, 0.5], [0.1, math.inf]])
    def test_bad_times_raise_value_error(self, times):
        # -1 once raised OverflowError in the truncation degree, and NaN gave None
        model = ManifoldModel.sphere(1.5)
        with pytest.raises(ValueError, match="finite and > 0"):
            optimize_heat_params(model, times)


def _reference_calibrated_bound(model, t1, t2, h1, h2, lvals, floor=-math.inf):
    """The calibration and grid check of every pair, as one function."""
    (h10, h1m, prof1), (h20, h2m, prof2) = h1, h2
    delta = h1m / h2m
    denom = h10 - delta * h20
    lam = model.kernel_scale / denom if denom != 0 else math.inf
    s_k = lam * (1.0 - delta)
    if s_k <= floor:
        return None
    kvals = lam * (prof1 - delta * prof2)
    dominated = bool(
        np.all(kvals <= lvals) and 0.0 < delta < 1.0 and 0.0 < lam < math.inf
    )
    return analysis.HeatKernelBound(t1, t2, delta, lam, s_k, dominated)


def _reference_heat_search(model, t_grid, check_grid=10000):
    """Exhaustive search: grid-check every pair whose S_K beats the best so
    far, in (t1, t2) order; returns (best, number of grid checks)."""
    t_grid = sorted({float(t) for t in t_grid})
    theta = np.linspace(0.0, np.pi, check_grid)
    lvals = lagrangian_profile(model, theta) + 1e-9
    tm = theta_max(model)
    heat = {t: (heat_kernel(t, 0.0), heat_kernel(t, tm), heat_kernel(t, theta)) for t in t_grid}
    best, checks = None, 0
    with np.errstate(invalid="ignore"):  # a singular calibration multiplies inf by 0
        for i, t1 in enumerate(t_grid):
            for t2 in t_grid[i + 1:]:
                floor = -math.inf if best is None else best.s_k
                hb = _reference_calibrated_bound(model, t1, t2, heat[t1], heat[t2], lvals, floor)
                checks += hb is not None
                if hb is not None and hb.dominated:
                    best = hb
    return best, checks


BENCH_TAUS = (1.1, 1.3, 1.5, 1.7, 1.9, 2.1, 2.3, 2.5)


def _random_heat_cases(n, seed=13):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        tau = float(rng.uniform(1.0, 3.0))
        t_min = float(np.exp(rng.uniform(np.log(0.005), np.log(1.0))))
        t_max = t_min * float(np.exp(rng.uniform(0.0, np.log(100.0))))
        yield tau, t_min, t_max, int(rng.integers(2, 17))


class TestHeatSearchOracle:
    """The best-first search against the exhaustive loop, which is kept here
    as the reference: the same HeatKernelBound, or None, on every grid."""

    @pytest.mark.parametrize("tau", BENCH_TAUS)
    @pytest.mark.parametrize("t_grid", [
        np.geomspace(0.01, 2.0, 14), np.geomspace(0.02, 2.0, 8), [0.1, 0.3],
        [0.3, 0.1, 0.3, 0.1, 0.3], [0.1, 0.2, 0.2, 0.5, 0.5, 2.0],
    ], ids=["default", "8-times", "2-times", "repeated-pair", "repeated"])
    def test_bench_taus(self, tau, t_grid):
        model = ManifoldModel.sphere(tau)
        assert optimize_heat_params(model, t_grid) == _reference_heat_search(model, t_grid)[0]

    def test_random_grids(self):
        found = 0
        for tau, t_min, t_max, count in _random_heat_cases(120):
            model = ManifoldModel.sphere(tau)
            t_grid = np.geomspace(t_min, t_max, count)
            ref, _ = _reference_heat_search(model, t_grid)
            assert optimize_heat_params(model, t_grid) == ref
            found += ref is not None
        assert 0 < found < 120  # both outcomes occur among the cases

    def test_no_dominated_pair(self):
        # two close large times: h_t is nearly flat, and K cannot reach L(0)
        # at 0 while staying below L near theta_max
        model = ManifoldModel.sphere(1.1)
        t_grid = [1.5, 1.6, 1.8]
        assert _reference_heat_search(model, t_grid) == (None, 3)
        assert optimize_heat_params(model, t_grid) is None

    def test_grid_checks_and_table_depth(self, monkeypatch):
        # the exhaustive loop checked 91, 78, 53, 42, 37, 32, 26 and 24 pairs,
        # on a table as deep as the smallest time, 0.01; the search checks the
        # pairs it yields up to the first dominated one, and a deeper time
        # extends the grid table, so each degree is computed once per call
        depths, degrees = [], []
        table = analysis.legendre_all

        def spy_table(lmax, x, below=None):
            if np.size(x) > 2:  # the grid, not the endpoint table
                depths.append(lmax)
                degrees.extend(range(0 if below is None else len(below), lmax + 1))
            return table(lmax, x, below=below)

        monkeypatch.setattr(analysis, "legendre_all", spy_table)
        t_grid = np.geomspace(0.01, 2.0, 14).tolist()
        pairs = list(itertools.combinations(t_grid, 2))
        counts, tables = [], []
        for tau in BENCH_TAUS:
            model = ManifoldModel.sphere(tau)
            checked = []
            for hb in analysis._heat_bounds(model, pairs):
                checked.append(hb)
                if hb.dominated:
                    break
            depths.clear()
            degrees.clear()
            best = optimize_heat_params(model, t_grid)
            counts.append(len(checked))
            assert checked[-1] == best
            on_grid = {t for hb in checked for t in (hb.t1, hb.t2)}
            assert max(depths) == max(_heat_lmax(t) for t in on_grid) < _heat_lmax(0.01)
            assert degrees == list(range(max(depths) + 1))
            tables.append(depths[:])
        assert counts == [11, 1, 1, 1, 1, 1, 1, 1]
        assert tables[0] == [5, 6, 7, 9, 11]  # tau = 1.1 extends its table four times


class TestTammes:
    def test_octahedron_tau2(self):
        model = ManifoldModel.sphere(2.0)
        assert tammes_upper_bound(model, octahedron().points) == pytest.approx(
            16 / 3, rel=1e-12
        )

    def test_all_spacelike_packing(self):
        model = ManifoldModel.sphere(2.5)  # theta_max ~ 0.81 < icosahedron angle
        val = tammes_upper_bound(model, icosahedron().points)
        assert val == pytest.approx(8 * 2.5**2 / 12, rel=1e-12)

    def test_single_point(self):
        model = ManifoldModel.sphere(1.4)
        assert tammes_upper_bound(model, E1[None, :]) == pytest.approx(
            model.kernel_scale, rel=1e-12
        )

    @pytest.mark.parametrize("packing, message", [
        ([[1.0, 0.0, 0.0], [0.0, 1.1, 0.0]], "unit vectors within 1e-6"),
        ([[1.0, 0.0]], "array of unit 3-vectors"),
        ([1.0, 0.0, 0.0], "array of unit 3-vectors"),
        ([[np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]], "unit vectors within 1e-6"),
        (np.empty((0, 3)), "non-empty array of unit 3-vectors"),  # once divided by 0 points
    ], ids=["non-unit", "two-coordinates", "one-point-unstacked", "nan", "empty"])
    def test_rejects_non_unit_points_and_wrong_shapes(self, packing, message):
        with pytest.raises(ValueError, match=message):
            tammes_upper_bound(ManifoldModel.sphere(1.4), packing)

    def test_packing_files_load(self):
        import importlib.resources as res

        base = res.files("cvp") / "data" / "packings"
        octf = load_packing(str(base / "octahedron.txt"))
        icof = load_packing(str(base / "icosahedron.txt"))
        assert octf.shape == (6, 3)
        assert icof.shape == (12, 3)
        assert np.allclose(np.linalg.norm(icof, axis=1), 1.0, atol=1e-12)

    def test_malformed_packing(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0 0.0\n")
        with pytest.raises(ValueError):
            load_packing(p)
        p.write_text("2.0 0.0 0.0\n")
        with pytest.raises(ValueError):
            load_packing(p)
        p.write_text("nan 0 0\n1 0 0\n0 1 0\n")
        with pytest.raises(ValueError):
            load_packing(p)
        p.write_text("# only comments\n")
        with pytest.raises(ValueError):
            load_packing(p)

    def test_comments_and_normalization(self, tmp_path):
        p = tmp_path / "ok.txt"
        p.write_text("# header\n1.0000001 0 0\n0 1 0  # trailing\n")
        pts = load_packing(p)
        assert pts.shape == (2, 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-15)


def sfc64(seed):
    return np.random.Generator(np.random.SFC64(seed))


def X0(f):
    """The fixed flag point x0 = (e1, e2) as a batch of one."""
    return np.eye(f, dtype=complex)[None, :2]


def gram_schmidt(z, y):
    """Flag pairs (k, 2, f) from two batches of complex vectors (k, f)."""
    u = z / np.linalg.norm(z, axis=1, keepdims=True)
    v = y - np.sum(u.conj() * y, axis=1, keepdims=True) * u
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.stack([u, v], axis=1)


def block_draws(rng, k, f):
    """One Monte Carlo block's draws of k samples, in stream order: (3, k)
    exponentials, (2, k) normals, Gamma(f - 2) and, for f >= 4,
    Gamma(f - 3), each drawn by its own call."""
    draws = [rng.standard_exponential((3, k)), rng.standard_normal((2, k)),
             rng.standard_gamma(f - 2, k)]
    return draws + [rng.standard_gamma(f - 3, k)] * (f > 3)


def representative_pairs(rng, k, f):
    """The k representative Haar pairs (k, 2, f) of one Monte Carlo block,
    written out here as an oracle: u = (|z_1|, |z_2|, |z_t|, 0, ...) / |z|
    and v = (gamma_1 f_1 + gamma_2 f_2 + s e_4) / |g|, where f_1, f_2 is
    Gram-Schmidt on P e_1, P e_2 with P = I - uu*."""
    (zz1, zz2, gg1), (p, q), zzt, *ss = block_draws(rng, k, f)
    u = np.zeros((k, f), dtype=complex)
    u[:, :3] = np.sqrt(np.stack([zz1, zz2, zzt], axis=1))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pe = np.eye(f)[:2] - u[:, :2, None].conj() * u[:, None, :]  # P e_1, P e_2 as rows
    frame = gram_schmidt(pe[:, 0], pe[:, 1])
    g = np.sqrt(2.0 * gg1)[:, None] * frame[:, 0] + (p + 1j * q)[:, None] * frame[:, 1]
    if ss:
        g[:, 3] = np.sqrt(2.0 * ss[0])
    return np.stack([u, g / np.linalg.norm(g, axis=1, keepdims=True)], axis=1)


def stream_pairs(seed, n, f):
    """The n representative pairs of ``_nu0_samples(f, tau, n, seed)``,
    block by block from one SFC64 stream."""
    rng = sfc64(seed)
    return np.concatenate([
        representative_pairs(rng, min(_MC_BLOCK, n - lo), f) for lo in range(0, n, _MC_BLOCK)
    ])


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    return float(np.max(np.abs(
        np.searchsorted(a, at, side="right") / len(a) - np.searchsorted(b, at, side="right") / len(b)
    )))


MC_PIN = "53d5ea1293dd75585f8a24888e4133ae3e1141119d2c432ceea6d4ac1bb3ea8c"


class TestMonteCarlo:
    @pytest.mark.parametrize("f,tau", [(3, 1.0), (3, 1.5), (4, 1.2)])
    def test_matches_closed_form(self, f, tau):
        model = ManifoldModel.flag(f, tau)
        mc = nu0_monte_carlo(model, 100_000, seed=2)
        exact = spectral_closed_form(model).nu0
        assert abs(mc.estimate - exact) <= 3 * mc.std_error

    @pytest.mark.parametrize("f,tau", [(3, 1.0), (4, 1.2), (5, 1.3)])
    def test_million_samples_match_closed_form(self, f, tau):
        model = ManifoldModel.flag(f, tau)
        mc = nu0_monte_carlo(model, 1_000_000, seed=1)
        exact = spectral_closed_form(model).nu0
        assert abs(mc.estimate - exact) <= 4 * mc.std_error

    def test_domain(self, flag32):
        with pytest.raises(ValueError):
            nu0_monte_carlo(flag32, 1, seed=0)
        with pytest.raises(ValueError):
            nu0_monte_carlo(ManifoldModel.sphere(1.5), 100, seed=0)

    @pytest.mark.parametrize("n", [2.5, 100_000.0, 1, 0, -3, True, "10", None])
    def test_sample_count_must_be_an_integer_of_at_least_two(self, flag32, n):
        with pytest.raises(ValueError, match=r"n must be an integer >= 2 \(got n="):
            nu0_monte_carlo(flag32, n, seed=0)

    def test_numpy_integer_sample_count(self, flag32):
        assert nu0_monte_carlo(flag32, np.int64(1000), seed=7) == nu0_monte_carlo(
            flag32, 1000, seed=7
        )

    @pytest.mark.parametrize("f", [3, 4, 5])
    def test_kernel_at_x0_invariances(self, f):
        # the four maps the sampler's reduction rests on leave D(x0, y)
        # unchanged on Haar pairs: phases of u, phases of v,
        # diag(e^{ia}, e^{ib}) on coordinates 1 and 2, a unitary of the tail
        model = ManifoldModel.flag(f, 1.3)
        rng = np.random.default_rng(f)
        ys = np.stack(_haar_flag_pairs(rng, 20, f), axis=1)
        base = kernel_cross(model, X0(f), ys)[0]
        phase = lambda: np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 20))[:, None]
        moved = {name: ys.copy() for name in ("u", "v", "coords", "tail")}
        moved["u"][:, 0] *= phase()
        moved["v"][:, 1] *= phase()
        moved["coords"][..., 0] *= phase()
        moved["coords"][..., 1] *= phase()
        tails = np.stack([random_unitary(rng, f - 2) for _ in ys])
        moved["tail"][..., 2:] = np.einsum("pab,pkb->pka", tails, ys[..., 2:])
        for name, y in moved.items():
            assert not np.allclose(y, ys), name
            got = kernel_cross(model, X0(f), y)[0]
            assert np.max(np.abs(got - base)) <= 1e-12 * model.kernel_scale, name
        # a unitary mixing coordinates 2 and 3 is not among them
        mixed = ys.copy()
        mixed[..., 1:3] = mixed[..., 1:3] @ random_unitary(rng, 2).T
        assert np.max(np.abs(kernel_cross(model, X0(f), mixed)[0] - base)) > 1e-3 * model.kernel_scale

    @pytest.mark.parametrize("f", [3, 4, 5])
    def test_block_closed_form_is_the_kernel_at_x0(self, f):
        # the sampler's closed form D = (A Y_11 - B Y_22)^2 / 2 + 2 A B |Y_12|^2,
        # A = 1 + tau, B = 1 - tau, Y = A uu* + B vv* on coordinates 1 and 2,
        # against the batch kernel at x0 on whole Haar pairs
        model = ManifoldModel.flag(f, 1.3)
        A, B = 1.0 + model.tau, 1.0 - model.tau
        ys = np.stack(_haar_flag_pairs(np.random.default_rng(f), 20, f), axis=1)
        u, v = ys[:, 0, :2], ys[:, 1, :2]
        Y = A * u[:, :, None] * u[:, None, :].conj() + B * v[:, :, None] * v[:, None, :].conj()
        y11, y22, y12 = Y[:, 0, 0].real, Y[:, 1, 1].real, Y[:, 0, 1]
        closed = 0.5 * (A * y11 - B * y22) ** 2 + 2 * A * B * np.abs(y12) ** 2
        want = kernel_cross(model, X0(f), ys)[0]
        assert np.max(np.abs(closed - want)) <= 1e-12 * model.kernel_scale

    @pytest.mark.parametrize("f", [3, 4])
    def test_matches_kernel_cross_reference(self, f):
        # the same SFC64 block's representative pairs, evaluated by the batch
        # kernel at x0 = (e1, e2)
        model = ManifoldModel.flag(f, 1.3)
        n, seed = 2000, 5
        vals = kernel_cross(model, X0(f), stream_pairs(seed, n, f))[0]
        mc = nu0_monte_carlo(model, n, seed)
        assert mc.estimate == pytest.approx(float(np.mean(vals)), rel=1e-12)
        assert mc.std_error == pytest.approx(
            float(np.std(vals, ddof=1) / math.sqrt(n)), rel=1e-12
        )

    @pytest.mark.parametrize("f", [3, 4])
    def test_blocks_match_kernel_cross_reference(self, f):
        # several blocks, the last one short, drawn in order from one stream
        model = ManifoldModel.flag(f, 1.3)
        n, seed = 2 * _MC_BLOCK + 17, 5
        rng = sfc64(seed)
        vals = np.concatenate([
            kernel_cross(model, X0(f), representative_pairs(rng, b, f))[0]
            for b in (_MC_BLOCK, _MC_BLOCK, 17)
        ])
        mc = nu0_monte_carlo(model, n, seed)
        assert mc.estimate == pytest.approx(float(np.mean(vals)), rel=1e-12)
        assert mc.std_error == pytest.approx(
            float(np.std(vals, ddof=1) / math.sqrt(n)), rel=1e-12
        )

    def test_out_draws_are_the_sized_draw_stream(self):
        # a block drawn into the reused flat buffer with out= reads its (3, k)
        # exponentials, (2, k) normals and its Gamma rows from the stream in
        # order, as the calls with sizes do, at f = 3 (one Gamma row) and
        # f = 4 (two); a short last block is a contiguous prefix of the buffer
        for f in (3, 4):
            a, b = sfc64(3), sfc64(3)
            width, size = f + 3, 100
            buf = np.empty(width * size)
            for k in (size, size, 37):
                block = buf[: width * k].reshape(width, k)
                a.standard_exponential(out=block[:3])
                a.standard_normal(out=block[3:5])
                a.standard_gamma(f - 2, out=block[5])
                if f > 3:
                    a.standard_gamma(f - 3, out=block[6])
                assert np.array_equal(block, np.vstack(block_draws(b, k, f)))

    @pytest.mark.parametrize("f", [3, 4, 5])
    def test_samples_match_dense_kernel(self, f):
        # each sample, not only the mean: D(x0, y) on the representative
        # pairs of the stream, against conftest's dense-matrix kernel
        model = ManifoldModel.flag(f, 1.3)
        n, seed = _MC_BLOCK + 500, 6
        got = _nu0_samples(f, 1.3, n, seed)
        want = np.array([dense_flag_kernel(1.3, X0(f)[0], y) for y in stream_pairs(seed, n, f)])
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-13 * model.kernel_scale

    @pytest.mark.parametrize("f", [3, 4, 5])
    def test_law_matches_the_full_haar_sampler(self, f):
        # the reduced draws against whole Haar pairs (4f normals each) through
        # kernel_cross in blocks: a two-sample Kolmogorov-Smirnov test at
        # level 1e-3
        model = ManifoldModel.flag(f, 1.3)
        n = 40_000
        rng = np.random.default_rng(f)
        full = np.concatenate([
            kernel_cross(model, X0(f), np.stack(_haar_flag_pairs(rng, 4000, f), axis=1))[0]
            for _ in range(n // 4000)
        ])
        reduced = _nu0_samples(f, 1.3, n, 11)
        critical = math.sqrt(-0.5 * math.log(0.5e-3)) * math.sqrt(2.0 / n)
        assert ks_distance(reduced, full) < critical
        # the test separates f from f + 1
        assert ks_distance(_nu0_samples(f + 1, 1.3, n, 11), full) > critical

    def test_stream_pin(self):
        # sha256 of (estimate, std_error) at flag(3, 1.3), n = 1000, seed 7,
        # recorded when each sample became the closed form
        # (A Y_11 - B Y_22)^2 / 2 + 2 A B |Y_12|^2 on u and v drawn in a real
        # frame of u-perp, read from the SFC64 stream as (3, k) exponentials,
        # (2, k) normals and Gamma rows per block and evaluated in place; a
        # change of generator, layout or kernel evaluation must say so and
        # record a new pin
        mc = nu0_monte_carlo(ManifoldModel.flag(3, 1.3), 1000, seed=7)
        digest = hashlib.sha256(np.array([mc.estimate, mc.std_error]).tobytes()).hexdigest()
        assert digest == MC_PIN

    def test_working_set(self):
        # blocked draws: one block plus 8 bytes per sample, not ~200
        tracemalloc.start()
        try:
            nu0_monte_carlo(ManifoldModel.flag(4, 1.2), 400_000, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_deterministic(self, flag32):
        a = nu0_monte_carlo(flag32, 1000, seed=7)
        b = nu0_monte_carlo(flag32, 1000, seed=7)
        assert a.estimate == b.estimate


class TestBoundsReport:
    def test_sandwich_at_moderate_coupling(self):
        model = ManifoldModel.sphere(1.5)
        rep = bounds_report(
            model,
            packings=[octahedron().points, icosahedron().points],
            t_grid=np.geomspace(0.02, 1.0, 8),
        )
        assert rep.nu0.value == pytest.approx(2.25) and rep.nu0.valid
        assert rep.volume_upper == pytest.approx(4 - 4 / (3 * 2.25), rel=1e-12)
        assert rep.sandwich_gap() >= -1e-9

    def test_bounds_touch_at_tau_one(self):
        model = ManifoldModel.sphere(1.0)
        rep = bounds_report(model, t_grid=[])
        assert rep.volume_upper == pytest.approx(rep.nu0.value, rel=1e-12)
        assert rep.volume_upper == pytest.approx(8 / 3, rel=1e-12)

    def test_requires_sphere(self, circle13):
        with pytest.raises(ValueError):
            bounds_report(circle13)


class TestHomogenizerMinimality:
    def test_annealed_never_below_volume_action_at_tau1(self):
        from cvp import AnnealSchedule, anneal

        model = ManifoldModel.sphere(1.0)
        meas = anneal(model, 8, AnnealSchedule.light(model, steps_per_temp=40))
        assert action(model, meas) >= volume_action(model) - 1e-6
