"""Self-tests of the benchmark's oracles (they must not depend on cvp)."""

import itertools

import numpy as np
import pytest

import oracles


@pytest.mark.parametrize("tau", [2.6, 3.0])
def test_face_enumeration_matches_chain_closed_form(tau):
    pts, w, lam = oracles.chain(tau)
    assert len(pts) <= 10
    val, w_enum = oracles.stqp_enumerate(oracles.lagrangian_gram("circle", tau, pts))
    assert abs(val - lam) <= 1e-10 * lam
    assert np.max(np.abs(w_enum - w)) <= 1e-10


def test_face_enumeration_is_a_lower_bound_on_random_feasible_points():
    rng = np.random.default_rng(3)
    pts = oracles.sample("sphere", 8, rng)
    gram = oracles.lagrangian_gram("sphere", 2.0, pts)
    val, w = oracles.stqp_enumerate(gram)
    assert abs(w.sum() - 1.0) < 1e-12 and w.min() >= 0.0
    assert abs(w @ gram @ w - val) < 1e-12
    trial = rng.dirichlet(np.ones(8), size=2000)
    assert np.einsum("fi,ij,fj->f", trial, gram, trial).min() >= val - 1e-12


@pytest.mark.parametrize("tau", [2.6, 3.0, 4.0])
def test_el_gap_vanishes_on_chains(tau):
    pts, w, lam = oracles.chain(tau)
    gap, S = oracles.el_gap("circle", tau, pts, w)
    assert abs(S - lam) <= 1e-12 * lam
    assert gap <= 1e-10


def test_el_gap_vanishes_on_octahedron():
    pts, w = oracles.octahedron()
    gap, S = oracles.el_gap("sphere", 1.2, pts, w)
    assert abs(S - oracles.nu0("sphere", 1.2)) < 1e-12
    assert gap <= 1e-10


def test_el_gap_sees_a_perturbed_chain():
    pts, w, _ = oracles.chain(3.0)
    pts = pts.copy()
    pts[2] += 0.05
    gap, S = oracles.el_gap("circle", 3.0, pts, w)
    assert gap > 1e-3 * S


def test_dense_flag_kernel_properties():
    rng = np.random.default_rng(5)
    f, tau = 3, 2.0
    x = oracles.sample("flag", 6, rng, f)
    d = oracles.cross_d("flag", tau, x, x)
    assert np.max(np.abs(d - d.T)) < 1e-12
    # D(x, x) = 8 tau^2 on the flag manifold too
    assert np.allclose(np.diag(d), 8.0 * tau**2, atol=1e-12)
    # a global phase on u or v leaves the point, hence D, unchanged
    y = x * np.exp(1j * rng.uniform(0, 6.3, size=(6, 2, 1)))
    assert np.allclose(oracles.cross_d("flag", tau, y, x), d, atol=1e-12)


def test_scalar_action_matches_gram_form():
    rng = np.random.default_rng(9)
    for kind, tau, f in (("circle", 1.3, None), ("sphere", 1.2, None), ("flag", 2.0, 3)):
        pts = oracles.sample(kind, 5, rng, f)
        w = rng.dirichlet(np.ones(5))
        gram = oracles.lagrangian_gram(kind, tau, pts)
        assert abs(oracles.scalar_action(kind, tau, pts, w) - w @ gram @ w) < 1e-12 * 8 * tau**2


def test_closed_forms():
    # tau_m is where 2 pi / theta_max crosses m
    for m in (4, 5, 6):
        assert abs(2 * np.pi / oracles.theta_max(oracles.tau_m(m)) - m) < 1e-9
    # the octahedron action equals nu0 for tau <= sqrt 2
    pts, w = oracles.octahedron()
    for tau in (1.0, 1.2, 1.4):
        S = oracles.scalar_action("sphere", tau, pts, w)
        assert abs(S - oracles.nu0("sphere", tau)) < 1e-12
    # uniform 4 on the circle for tau <= sqrt 2
    pts, w = oracles.uniform_circle(4)
    assert abs(oracles.scalar_action("circle", 1.3, pts, w) - oracles.nu0("circle", 1.3)) < 1e-12


def test_face_enumeration_visits_every_face_once():
    n = 5
    faces = sum(len(list(itertools.combinations(range(n), k))) for k in range(1, n + 1))
    assert faces == 2**n - 1
    assert oracles.stqp_enumerate(np.eye(n))[0] == pytest.approx(1.0 / n)
