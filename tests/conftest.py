import math

import numpy as np
import pytest

from cvp import ManifoldModel


def dense_flag_kernel(tau, x, y):
    """Independent oracle: D via dense f x f matrix arithmetic."""
    xm = (1 + tau) * np.outer(x[0], x[0].conj()) + (1 - tau) * np.outer(x[1], x[1].conj())
    ym = (1 + tau) * np.outer(y[0], y[0].conj()) + (1 - tau) * np.outer(y[1], y[1].conj())
    prod = xm @ ym
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


@pytest.fixture(scope="session")
def circle13():
    return ManifoldModel.circle(1.3)


@pytest.fixture(scope="session")
def sphere12():
    return ManifoldModel.sphere(1.2)


@pytest.fixture(scope="session")
def flag32():
    return ManifoldModel.flag(3, 2.0)
