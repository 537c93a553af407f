import itertools
import math

import numpy as np
import pytest

from cvp import ManifoldModel, WeightedMeasure, optimal_weights_info
from cvp.exact import circle_chain_points


def dense_flag_matrix(tau, x):
    """The f x f matrix (1+tau) uu* + (1-tau) vv* of a flag point (u, v)."""
    return (1 + tau) * np.outer(x[0], x[0].conj()) + (1 - tau) * np.outer(x[1], x[1].conj())


def dense_flag_kernel(tau, x, y):
    """Independent oracle: D via dense f x f matrix arithmetic."""
    prod = dense_flag_matrix(tau, x) @ dense_flag_matrix(tau, y)
    return float((np.trace(prod @ prod) - 0.5 * np.trace(prod) ** 2).real)


def pair_kernel(model, x, y):
    """Independent oracle: D at one pair, from the paper's formulas rather
    than cvp's kernel code; the circle goes through cos(x - y), the sphere
    through the dot product, the flag through dense matrices."""
    tau = model.tau
    if model.kind == "flag":
        return dense_flag_kernel(tau, x, y)
    c = math.cos(float(x) - float(y)) if model.kind == "circle" else float(np.dot(x, y))
    return 2.0 * tau**2 * (1.0 + c) * (2.0 - tau**2 * (1.0 - c))


def brute_action(model, meas):
    """Independent oracle: the action by a scalar double loop."""
    total = 0.0
    for wi, xi in zip(meas.weights, meas.points):
        for wj, xj in zip(meas.weights, meas.points):
            total += wi * wj * max(0.0, pair_kernel(model, xi, xj))
    return total


def brute_potentials(model, meas, x):
    """(ell, d) at one point by scalar sums."""
    dees = [pair_kernel(model, x, p) for p in meas.points]
    ell = sum(w * max(0.0, d) for w, d in zip(meas.weights, dees))
    dee = sum(w * d for w, d in zip(meas.weights, dees))
    return ell, dee


def circle_chain_measure(model, k):
    """Chain of k circle points with gaps theta_max and KKT weights from the
    weight sub-solve (at tau = 3 they match the closed-form minimizer's to
    1e-10)."""
    pts = circle_chain_points(model.tau, k)
    return WeightedMeasure(pts, optimal_weights_info(model, pts).weights)


def band_gauss_rule(dm, order):
    """Independent quadrature for a banded zonal density: ``order``
    Gauss-Legendre nodes in cos(theta) per band, their weights dc/2 and the
    density's value at each node; exact per band for polynomials in
    cos(theta) of degree at most 2 order - 1."""
    x, w = np.polynomial.legendre.leggauss(order)
    lo, hi = dm.edges[:-1, None], dm.edges[1:, None]
    nodes = (0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel()
    weights = (0.25 * (hi - lo) * w).ravel()
    return nodes, weights, np.repeat(dm.values, order)


def stqp_enumerate(G):
    """Independent oracle: (value, weights) of the global minimum of
    w^T G w over the probability simplex, by enumerating the faces, n <= 12.

    A local minimum in the relative interior of a face solves that face's
    bordered KKT system with non-negative weights; a face whose system is
    singular attains its minimum on a smaller face.  Each candidate is
    evaluated directly, so the returned value is attained.
    """
    G = np.asarray(G, dtype=float)
    n = len(G)
    if not 1 <= n <= 12:
        raise ValueError("face enumeration needs 1 <= n <= 12")
    best_val, best_w = math.inf, None
    for k in range(1, n + 1):
        rhs = np.append(np.zeros(k), 1.0)
        for face in itertools.combinations(range(n), k):
            face = list(face)
            kkt = np.block([[G[np.ix_(face, face)], -np.ones((k, 1))],
                            [np.ones((1, k)), np.zeros((1, 1))]])
            try:
                wf = np.linalg.solve(kkt, rhs)[:k]
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(wf)) or wf.min() < -1e-12:
                continue
            w = np.zeros(n)
            w[face] = np.maximum(wf, 0.0)
            w /= w.sum()
            val = float(w @ G @ w)
            if val < best_val:
                best_val, best_w = val, w
    return best_val, best_w


@pytest.fixture(scope="session")
def circle13():
    return ManifoldModel.circle(1.3)


@pytest.fixture(scope="session")
def sphere12():
    return ManifoldModel.sphere(1.2)


@pytest.fixture(scope="session")
def flag32():
    return ManifoldModel.flag(3, 2.0)
