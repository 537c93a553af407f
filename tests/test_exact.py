import math
import tracemalloc

import numpy as np
import pytest

from cvp import (
    Classification,
    ManifoldModel,
    WeightedMeasure,
    action,
    certify,
    circle_chain_minimizer,
    circle_m0,
    circle_tau_m,
    circle_uniform,
    density_action,
    flag_negative_witness,
    gt_obstruction_conflict,
    icosahedron,
    lagrangian,
    octahedron,
    optimal_weights_info,
    spectral_closed_form,
    theta_max,
    three_band_density,
)
from cvp.exact import CIRCLE_TAU_D, circle_chain_points
from cvp.manifold import kernel_matrix

from conftest import band_gauss_rule, brute_action, circle_chain_measure, dense_flag_kernel


def chain_action_oracle(tau):
    """Independent evaluation of the minimal-action formula."""
    tm = math.acos(1 - 2 / tau**2)
    m0 = math.ceil(2 * math.pi / tm - 1e-9)
    gamma = 2 * math.pi - (m0 - 1) * tm
    l0 = 8 * tau**2
    c = math.cos(gamma)
    lg = max(0.0, 2 * tau**2 * (1 + c) * (2 - tau**2 * (1 - c)))
    return m0, gamma, l0 * (l0 + lg) / ((m0 - 2) * (l0 + lg) + 2 * l0)


class TestCircleCounts:
    def test_m0_values(self):
        assert circle_m0(math.sqrt(2)) == 4
        assert circle_m0(2.0) == 6
        assert circle_m0(3.0) == 10
        assert circle_m0(1.0) == 2  # theta_max = pi edge
        with pytest.raises(ValueError):
            circle_m0(0.5)

    def test_tau_m_values(self):
        assert circle_tau_m(4) == pytest.approx(math.sqrt(2), rel=1e-14)
        assert circle_tau_m(5) == pytest.approx(math.sqrt(2 + 2 / math.sqrt(5)), rel=1e-14)
        assert circle_tau_m(5) == pytest.approx(1.70130, abs=1e-5)
        assert circle_tau_m(6) == pytest.approx(2.0, rel=1e-14)
        with pytest.raises(ValueError):
            circle_tau_m(2)

    @pytest.mark.parametrize("call, name", [
        (lambda: circle_tau_m(4.5), "m"),
        (lambda: circle_tau_m(4.0), "m"),
        (lambda: flag_negative_witness(3.7, 2.0, 0.01), "f"),
        (lambda: flag_negative_witness("3", 2.0, 0.01), "f"),
    ], ids=["tau_m_fractional", "tau_m_float", "witness_fractional", "witness_string"])
    def test_counts_take_integers_only(self, call, name):
        # circle_tau_m(4.5) once gave tau_4, and a 3.7 witness had f = 3 points
        with pytest.raises(ValueError, match=rf"{name} must be an integer >= 3 \(got {name}="):
            call()

    def test_m0_consistent_at_jumps(self):
        # exactly at tau_m the smallest admissible count is m itself
        for m in (4, 5, 6, 9):
            assert circle_m0(circle_tau_m(m)) == m


class TestChainMinimizer:
    @pytest.mark.parametrize("tau", [2.6, 3.0, 4.0])
    def test_action_matches_oracle(self, tau):
        m0, gamma, lam = chain_action_oracle(tau)
        chain = circle_chain_minimizer(tau)
        assert chain.m0 == m0
        assert chain.gamma == pytest.approx(gamma, abs=1e-12)
        assert chain.action == pytest.approx(lam, abs=1e-12)
        model = ManifoldModel.circle(tau)
        assert action(model, chain.measure) == pytest.approx(lam, abs=1e-12)

    def test_tau3_value(self):
        assert circle_chain_minimizer(3.0).action == pytest.approx(7.9686, abs=1e-4)

    @pytest.mark.parametrize("tau", [2.6, 3.0, 4.0])
    def test_certified(self, tau):
        model = ManifoldModel.circle(tau)
        chain = circle_chain_minimizer(tau)
        rep = certify(model, chain.measure)
        assert rep.el_residual < 1e-9
        assert rep.action == pytest.approx(chain.action, abs=1e-12)
        assert rep.gram_min_eig >= -1e-8 * model.kernel_scale

    def test_collapse_at_jump_coupling(self):
        # tau = tau_13 > tau_d: the closing gap equals theta_max, the
        # weights become uniform and the action collapses to L(0)/m0
        tau = circle_tau_m(13)
        assert tau > CIRCLE_TAU_D
        chain = circle_chain_minimizer(tau)
        model = ManifoldModel.circle(tau)
        assert chain.m0 == 13
        assert chain.gamma == pytest.approx(theta_max(model), abs=1e-9)
        assert lagrangian(model, 0.0, chain.gamma) == pytest.approx(0.0, abs=1e-6)
        assert chain.action == pytest.approx(model.kernel_scale / 13, rel=1e-8)
        assert np.max(np.abs(chain.measure.weights - 1 / 13)) < 1e-9

    def test_refuses_below_hypothesis(self):
        with pytest.raises(ValueError, match="tau_d"):
            circle_chain_minimizer(2.0)
        forced = circle_chain_minimizer(2.0, force=True)
        assert forced.m0 == 6
        assert forced.action == pytest.approx(chain_action_oracle(2.0)[2], abs=1e-12)

    def test_forced_chain_not_minimal_below_tau_d(self):
        # at tau = 1.68 < tau_d, five points with gaps theta_max (three
        # times) and two halves of the rest beat the forced 5-chain
        tau = 1.68
        model = ManifoldModel.circle(tau)
        tm = theta_max(model)
        r = 2 * math.pi - 3 * tm
        pts = np.cumsum([0.0, tm, tm, tm, r / 2])
        other = WeightedMeasure(pts, optimal_weights_info(model, pts).weights)
        forced = circle_chain_minimizer(tau, force=True)
        a_other = brute_action(model, other)
        a_chain = brute_action(model, forced.measure)
        assert a_other == pytest.approx(4.660945, abs=1e-6)
        assert a_chain == pytest.approx(4.661388, abs=1e-6)
        assert a_other < a_chain - 1e-4

    def test_shorter_chains_lose(self):
        tau = 3.0
        model = ManifoldModel.circle(tau)
        chain = circle_chain_minimizer(tau)
        for n in range(3, chain.m0):
            pts = circle_chain_points(tau, n)
            m = circle_uniform(n)  # equal weights
            meas_action = action(model, m.__class__(pts, m.weights))
            assert meas_action == pytest.approx(model.kernel_scale / n, rel=1e-12)
            assert meas_action > chain.action

    def test_rotation_leaves_action_invariant(self):
        tau = 3.0
        model = ManifoldModel.circle(tau)
        chain = circle_chain_minimizer(tau)
        rotated = chain.measure.__class__(
            (chain.measure.points + 1.234) % (2 * np.pi), chain.measure.weights
        )
        assert action(model, rotated) == pytest.approx(chain.action, abs=1e-10)

    def test_exception_window(self):
        # between 1.61988 and tau_5 a chain of length 6 beats the 5-chain
        model = ManifoldModel.circle(1.65)
        a5 = action(model, circle_chain_measure(model, 5))
        a6 = action(model, circle_chain_measure(model, 6))
        assert a6 < a5
        model = ManifoldModel.circle(1.60)  # outside the window
        a5 = action(model, circle_chain_measure(model, 5))
        a6 = action(model, circle_chain_measure(model, 6))
        assert a5 <= a6


class TestCircleUniform:
    def test_single_point(self):
        m = circle_uniform(1)
        assert len(m) == 1 and m.weights[0] == 1.0

    def test_x6_at_tau2(self):
        model = ManifoldModel.circle(2.0)
        assert action(model, circle_uniform(6)) == pytest.approx(16 / 3, rel=1e-12)

    def test_x4_is_generically_timelike(self, circle13):
        rep = certify(circle13, circle_uniform(4))
        assert rep.classification is Classification.GENERICALLY_TIMELIKE
        assert rep.action == pytest.approx(4 * 1.3**2 - 1.3**4, abs=1e-12)
        assert rep.el_residual < 1e-10


class TestOctahedron:
    def test_timelike_phase_action(self):
        model = ManifoldModel.sphere(1.2)
        assert action(model, octahedron()) == pytest.approx(2.9952, abs=1e-12)

    def test_boundary_tau(self):
        model = ManifoldModel.sphere(math.sqrt(2))
        rep = certify(model, octahedron())
        assert rep.action == pytest.approx(8 / 3, abs=1e-12)
        assert rep.classification is Classification.GENERICALLY_TIMELIKE

    def test_above_transition_flagged(self):
        model = ManifoldModel.sphere(1.6)
        rep = certify(model, octahedron())
        assert rep.classification is not Classification.GENERICALLY_TIMELIKE
        from cvp import antipodal_obstruction

        assert antipodal_obstruction(model)
        assert not gt_obstruction_conflict(model, rep)

    def test_icosahedron_is_minimizer_at_small_tau(self):
        # icosahedron pairs sit at arccos(1/sqrt(5)) and its antipodes, all
        # non-spacelike only while theta_max exceeds ~116.6 deg (tau < 1.176)
        model = ManifoldModel.sphere(1.15)
        rep = certify(model, icosahedron())
        assert rep.classification is Classification.GENERICALLY_TIMELIKE
        assert rep.action == pytest.approx(spectral_closed_form(model).nu0, abs=1e-12)


class TestThreeBandDensity:
    def test_moments_by_band_arithmetic(self):
        # oracle: exact 1-d integrals of the piecewise-constant profile
        bands = [(0.8, 1.0, 5 / 3), (0.2, 0.4, 35 / 9), (-0.7, -0.5, 40 / 9)]
        mass = sum(0.5 * v * (b - a) for a, b, v in bands)
        mom1 = sum(0.25 * v * (b**2 - a**2) for a, b, v in bands)
        mom2 = sum(
            0.25 * v * (b**3 - a**3) - 0.25 * v * (b - a) for a, b, v in bands
        )
        assert mass == pytest.approx(1.0, abs=1e-15)
        assert mom1 == pytest.approx(0.0, abs=1e-15)
        assert mom2 == pytest.approx(0.0, abs=1e-15)
        cosn, cw, f = band_gauss_rule(three_band_density(), 40)
        assert cw @ f == pytest.approx(mass, abs=1e-12)
        assert cw @ (f * cosn) == pytest.approx(mom1, abs=1e-12)
        p2 = 0.5 * (3 * cosn**2 - 1)
        assert cw @ (f * p2) == pytest.approx(mom2, abs=1e-12)

    def test_action_is_nu0_in_validity_range(self):
        model = ManifoldModel.sphere(1.001)
        dm = three_band_density()
        nu0 = spectral_closed_form(model).nu0
        assert density_action(model, dm) == pytest.approx(nu0, abs=1e-6)

    def test_action_leaves_nu0_above_validity(self):
        # beyond ~1.00157 some support pairs turn spacelike and the
        # clamped action exceeds nu0
        model = ManifoldModel.sphere(1.05)
        dm = three_band_density()
        assert density_action(model, dm) > spectral_closed_form(model).nu0 + 1e-4

    def test_memory_is_the_cos_theta_rule(self):
        # the density and its action hold its seven band edges and the
        # Legendre tables, not a grid over the whole sphere
        tracemalloc.start()
        try:
            density_action(ManifoldModel.sphere(1.001), three_band_density())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestFlagWitness:
    def test_negative_determinant(self):
        w = flag_negative_witness(3, 2.0, 0.01)
        g = 0.5 * (-0.01 * 1.0 + 9.0) ** 2
        assert w.gram[0, 1] == pytest.approx(g, rel=1e-14)
        assert w.det == pytest.approx(32.0**2 - g**2, rel=1e-12)
        assert w.det < 0

    def test_matches_kernel_gram(self, flag32):
        w = flag_negative_witness(3, 2.0, 0.01)
        kernel_gram = kernel_matrix(flag32, w.points)
        assert np.max(np.abs(kernel_gram - w.gram)) < 1e-10
        dense = dense_flag_kernel(2.0, w.points[0], w.points[1])
        assert dense == pytest.approx(w.gram[0, 1], abs=1e-10)

    def test_large_eps_formula_only(self):
        w = flag_negative_witness(3, 2.0, 0.97)
        expected = 0.5 * (-0.97 * 1.0 + 9.0) ** 2
        assert w.gram[0, 1] == pytest.approx(expected, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            flag_negative_witness(2, 2.0, 0.01)
        with pytest.raises(ValueError):
            flag_negative_witness(3, 1.0, 0.01)
        with pytest.raises(ValueError):
            flag_negative_witness(3, 2.0, 0.0)
