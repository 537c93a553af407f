"""Closed-form constructions, used both as verified outputs and as oracles.

Circle, tau > tau_d = sqrt(3 + sqrt(10)): the minimizer support is a chain
of m0 points with consecutive gaps exactly theta_max, where m0 is the
smallest integer with m0 >= 2 pi / theta_max.  Writing gamma = 2 pi -
(m0 - 1) theta_max for the closing gap, the optimal weights and the
minimal action are

    w_1 = w_m0 = lam / (L(0) + L(gamma)),   w_i = lam / L(0) otherwise,
    lam = L(0) (L(0) + L(gamma)) / ((m0-2)(L(0)+L(gamma)) + 2 L(0)),

with the action equal to lam.  The chain is proved minimal only above
tau_d.  Below it ``force`` builds the same chain without claiming that it
is minimal, and it is not always: at tau = 1.68 a five-point measure with
two half gaps has a smaller action.

Sphere: the octahedron (equal weights 1/6) realizes the minimal action
nu0 = 4 tau^2 - 4 tau^4 / 3 for tau <= sqrt(2); a three-band piecewise
density supported on spherical caps does the same for tau < 1.00157.

Flag manifold: an explicit two-point configuration whose Gram matrix has
negative determinant witnesses that the kernel operator against the Haar
measure fails to be positive semi-definite for every tau > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import TAU_MAX, ManifoldModel, flag_point, lagrangian, theta_max
from .measure import DensityMeasure, WeightedMeasure

CIRCLE_TAU_D = math.sqrt(3.0 + math.sqrt(10.0))

# ceiling guard: at the jump couplings 2 pi / theta_max is an exact integer
# and float noise must not push the ceiling up by one
_M0_GUARD = 1e-9


def circle_m0(tau: float) -> int:
    """Smallest integer n with n >= 2 pi / theta_max(tau).

    At tau = 1 the opening angle is pi and the value is 2.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    tm = theta_max(ManifoldModel.circle(tau))
    return int(math.ceil(2.0 * math.pi / tm - _M0_GUARD))


def circle_tau_m(m: int) -> float:
    """Coupling sqrt(2 / (1 - cos(2 pi / m))) at which m0 jumps to m."""
    m = int(m)
    if m < 3:
        raise ValueError("m must be >= 3")
    return math.sqrt(2.0 / (1.0 - math.cos(2.0 * math.pi / m)))


def circle_uniform(m: int) -> WeightedMeasure:
    """m equally spaced, equally weighted points on the circle."""
    if m < 1:
        raise ValueError("m must be >= 1")
    pts = 2.0 * np.pi * np.arange(m) / m
    return WeightedMeasure(pts, np.full(m, 1.0 / m))


@dataclass(frozen=True)
class ChainMinimizer:
    m0: int
    gamma: float
    measure: WeightedMeasure
    action: float


def circle_chain_points(tau: float, k: int) -> np.ndarray:
    """k points with consecutive angular gaps exactly theta_max."""
    tm = theta_max(ManifoldModel.circle(tau))
    return (tm * np.arange(k)) % (2.0 * np.pi)


def circle_chain_minimizer(tau: float, force: bool = False) -> ChainMinimizer:
    """The closed-form minimizer for tau > tau_d = sqrt(3 + sqrt(10)).

    Refuses below tau_d unless ``force`` is set, which builds the same
    chain and action without claiming that they are minimal: the chain is
    proved minimal only above tau_d, and below it a different measure can
    have a smaller action.
    """
    if not tau > CIRCLE_TAU_D and not force:
        raise ValueError(
            f"chain construction requires tau > tau_d = sqrt(3 + sqrt(10)) "
            f"~= {CIRCLE_TAU_D:.6f}; got tau = {tau} (pass force=True to override)"
        )
    model = ManifoldModel.circle(tau)
    tm = theta_max(model)
    m0 = circle_m0(tau)
    # gamma from the chain geometry, avoiding the arccos branch ambiguity
    gamma = 2.0 * math.pi - (m0 - 1) * tm
    l0 = model.kernel_scale
    lg = lagrangian(model, 0.0, gamma)
    lam = l0 * (l0 + lg) / ((m0 - 2) * (l0 + lg) + 2.0 * l0)
    w = np.full(m0, lam / l0)
    w[0] = w[-1] = lam / (l0 + lg)
    w = w / w.sum()  # renormalize away the closed form's last-digit drift
    measure = WeightedMeasure(circle_chain_points(tau, m0), w)
    return ChainMinimizer(m0=m0, gamma=gamma, measure=measure, action=lam)


def octahedron() -> WeightedMeasure:
    """+-e_1, +-e_2, +-e_3 with weights 1/6."""
    pts = np.vstack([np.eye(3), -np.eye(3)])
    return WeightedMeasure(pts, np.full(6, 1.0 / 6.0))


def icosahedron() -> WeightedMeasure:
    """The 12 icosahedron vertices with equal weights (Tammes optimum)."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    base = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            base += [(0.0, s1, s2 * phi), (s1, s2 * phi, 0.0), (s2 * phi, 0.0, s1)]
    pts = np.array(base)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return WeightedMeasure(pts, np.full(12, 1.0 / 12.0))


def three_band_density() -> DensityMeasure:
    """Zonal density supported on three spherical bands: the values 5/3,
    35/9 and 40/9 on the cos(theta) bands (0.8, 1], (0.2, 0.4) and
    (-0.7, -0.5), zero on the bands between them.

    Its total mass is 1 and its l = 1, 2 moments vanish, so for couplings
    small enough that the whole support is pairwise non-spacelike it is a
    generically timelike minimizer with action nu0.
    """
    return DensityMeasure(
        [-1.0, -0.7, -0.5, 0.2, 0.4, 0.8, 1.0],
        [0.0, 40.0 / 9.0, 0.0, 35.0 / 9.0, 0.0, 5.0 / 3.0],
    )


@dataclass(frozen=True)
class FlagWitness:
    points: np.ndarray
    gram: np.ndarray
    det: float


def flag_negative_witness(f: int, tau: float, eps: float) -> FlagWitness:
    """Two flag points whose L-Gram matrix has negative determinant.

    Built from u1 = e1, v1 = e2 and u2 = e1, v2 = sqrt(eps) e2 +
    sqrt(1-eps) e3; the off-diagonal entry is
    g = ((tau+1)^2 - eps (tau-1)^2)^2 / 2, which exceeds the diagonal
    8 tau^2 for small eps.
    """
    f = int(f)
    if f < 3:
        raise ValueError("f must be >= 3")
    if not 1 < tau <= TAU_MAX:
        raise ValueError(f"tau must lie in (1, {TAU_MAX:g}]")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    e = np.eye(f, dtype=complex)
    x1 = flag_point(e[0], e[1])
    x2 = flag_point(e[0], math.sqrt(eps) * e[1] + math.sqrt(1.0 - eps) * e[2])
    diag = 8.0 * tau**2
    g = 0.5 * (-eps * (tau - 1.0) ** 2 + (tau + 1.0) ** 2) ** 2
    gram = np.array([[diag, g], [g, diag]])
    return FlagWitness(
        points=np.stack([x1, x2]), gram=gram, det=float(diag * diag - g * g)
    )
