"""Independent oracles for checking cvp outputs.

Nothing here imports cvp.  The kernel, the closed forms, the weight
sub-problem and the Euler-Lagrange gap are re-derived from the formulas in
PAPER.md, so that a defect in the program cannot hide inside its own
checks:

* ``cross_d``: the kernel D; the flag kernel goes through dense f x f
  matrices instead of the program's 2 x 2 reduction;
* ``scalar_action``: the action as a scalar double loop;
* ``chain``, ``nu0``, ``tau_m``: the paper's closed forms;
* ``stqp_enumerate``: the global minimum of the weight sub-problem
  (a standard quadratic program) by enumerating the simplex faces;
* ``el_gap``: the Euler-Lagrange gap on a dense seeded sample.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

ORACLE_SEED = 918273  # fixed sample stream, independent of the workload seed
EL_SAMPLE = 20000


# ---------------------------------------------------------------------------
# kernel


def kernel_d(tau: float, c):
    """D on the circle and the sphere as a function of the cosine of the angle."""
    return 2.0 * tau**2 * (1.0 + c) * (2.0 - tau**2 * (1.0 - c))


def _flag_matrices(tau: float, pts) -> np.ndarray:
    """(1 + tau)|u><u| + (1 - tau)|v><v| for a batch of (u, v) pairs."""
    u, v = pts[:, 0, :], pts[:, 1, :]
    return (1.0 + tau) * np.einsum("ni,nj->nij", u, u.conj()) + (
        1.0 - tau
    ) * np.einsum("ni,nj->nij", v, v.conj())


def cross_d(kind: str, tau: float, xs, ys) -> np.ndarray:
    """Matrix D(x_i, y_j); flag via Tr((XY)^2) - Tr(XY)^2 / 2 on dense matrices."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    if kind == "circle":
        return kernel_d(tau, np.cos(xs[:, None] - ys[None, :]))
    if kind == "sphere":
        return kernel_d(tau, xs @ ys.T)
    p = np.einsum("aij,bjk->abik", _flag_matrices(tau, xs), _flag_matrices(tau, ys))
    tr = np.einsum("abii->ab", p)
    tr2 = np.einsum("abij,abji->ab", p, p)
    return (tr2 - 0.5 * tr * tr).real


def lagrangian_gram(kind: str, tau: float, pts) -> np.ndarray:
    g = np.maximum(0.0, cross_d(kind, tau, pts, pts))
    return (g + g.T) / 2.0


def _pair_d(kind: str, tau: float, x, y) -> float:
    if kind == "circle":
        return kernel_d(tau, math.cos(float(x) - float(y)))
    if kind == "sphere":
        return kernel_d(tau, float(np.dot(x, y)))
    return float(cross_d(kind, tau, x[None], y[None])[0, 0])


def scalar_action(kind: str, tau: float, pts, weights) -> float:
    """S = sum_ij w_i w_j max(0, D(x_i, x_j)) by a scalar double loop."""
    total = 0.0
    for wi, xi in zip(weights, pts):
        for wj, xj in zip(weights, pts):
            total += float(wi) * float(wj) * max(0.0, _pair_d(kind, tau, xi, xj))
    return total


# ---------------------------------------------------------------------------
# closed forms


def theta_max(tau: float) -> float:
    return math.acos(1.0 - 2.0 / tau**2)


def tau_m(m: int) -> float:
    """Coupling at which the circle chain length jumps from m to m + 1."""
    return math.sqrt(2.0 / (1.0 - math.cos(2.0 * math.pi / m)))


def nu0(kind: str, tau: float, f: int | None = None) -> float:
    """Constant eigenvalue of the kernel operator against the volume measure."""
    t2, t4 = tau**2, tau**4
    if kind == "circle":
        return 4.0 * t2 - t4
    if kind == "sphere":
        return 4.0 * t2 - 4.0 * t4 / 3.0
    return 2.0 * (3 * f + 6 * f * t2 - (2 + f) * t4 - 6) / (f * (f * f - 1))


def sphere_volume_action(tau: float) -> float:
    return 4.0 - 4.0 / (3.0 * tau**2)


def chain(tau: float):
    """Circle chain minimizer: (points, weights, action) in closed form.

    m0 points with gaps theta_max and closing gap gamma; the end points weigh
    lam / (L0 + L(gamma)), the others lam / L0, and the action is lam.
    """
    tm = theta_max(tau)
    m0 = int(math.ceil(2.0 * math.pi / tm - 1e-9))
    gamma = 2.0 * math.pi - (m0 - 1) * tm
    l0 = 8.0 * tau**2
    lg = max(0.0, kernel_d(tau, math.cos(gamma)))
    lam = l0 * (l0 + lg) / ((m0 - 2) * (l0 + lg) + 2.0 * l0)
    w = np.full(m0, lam / l0)
    w[0] = w[-1] = lam / (l0 + lg)
    return (tm * np.arange(m0)) % (2.0 * math.pi), w / w.sum(), lam


def octahedron():
    return np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 1.0 / 6.0)


def uniform_circle(m: int):
    return 2.0 * math.pi * np.arange(m) / m, np.full(m, 1.0 / m)


# ---------------------------------------------------------------------------
# sampling


def sample(kind: str, n: int, rng, f: int | None = None) -> np.ndarray:
    """Uniform (Haar) points: angles, unit vectors or orthonormal (u, v) pairs."""
    if kind == "circle":
        return rng.uniform(0.0, 2.0 * math.pi, n)
    if kind == "sphere":
        g = rng.standard_normal((n, 3))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    u = rng.standard_normal((n, f)) + 1j * rng.standard_normal((n, f))
    v = rng.standard_normal((n, f)) + 1j * rng.standard_normal((n, f))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v -= np.einsum("ij,ij->i", u.conj(), v)[:, None] * u
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.stack([u, v], axis=1)


# ---------------------------------------------------------------------------
# weight sub-problem


def stqp_enumerate(G) -> tuple[float, np.ndarray]:
    """Global minimum of w^T G w over the probability simplex, n <= 12.

    Every local minimum lies in the relative interior of some face, where
    it solves the face's bordered KKT system with positive weights; a face
    whose system is singular attains its minimum on a smaller face.  Each
    candidate is a feasible point whose value is evaluated directly, so the
    returned value is attained.
    """
    G = np.asarray(G, dtype=float)
    n = len(G)
    if not 1 <= n <= 12:
        raise ValueError("face enumeration needs 1 <= n <= 12")
    best_val, best_w = math.inf, None
    for k in range(1, n + 1):
        faces = np.array(list(itertools.combinations(range(n), k)))
        sub = G[faces[:, :, None], faces[:, None, :]]
        kkt = np.zeros((len(faces), k + 1, k + 1))
        kkt[:, :k, :k] = sub
        kkt[:, :k, k] = -1.0
        kkt[:, k, :k] = 1.0
        rhs = np.zeros((len(faces), k + 1, 1))
        rhs[:, k, 0] = 1.0
        try:
            w = np.linalg.solve(kkt, rhs)[:, :k, 0]
        except np.linalg.LinAlgError:
            w = (np.linalg.pinv(kkt) @ rhs)[:, :k, 0]
        ok = np.all(np.isfinite(w), axis=1) & np.all(w >= -1e-12, axis=1)
        if not ok.any():
            continue
        w = np.maximum(w[ok], 0.0)
        w /= w.sum(axis=1, keepdims=True)
        vals = np.einsum("fi,fij,fj->f", w, sub[ok], w)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_w = np.zeros(n)
            best_w[faces[ok][i]] = w[i]
    return best_val, best_w


# ---------------------------------------------------------------------------
# Euler-Lagrange gap


def el_gap(kind: str, tau: float, pts, weights, f: int | None = None) -> tuple[float, float]:
    """(gap, S): S - min ell over a dense seeded sample, plus the on-support spread.

    ell(x) = sum_i w_i L(x, x_i); a minimizer has ell = S on its support and
    ell >= S everywhere, so the gap is 0 there.  The sample is fixed
    (ORACLE_SEED), so the gap is a deterministic function of the measure.
    """
    pts = np.asarray(pts)
    w = np.asarray(weights, dtype=float)
    gram = lagrangian_gram(kind, tau, pts)
    S = float(w @ gram @ w)
    ell_supp = gram @ w
    supp = w > 0
    spread = float(np.max(np.abs(ell_supp[supp] - S)))
    probe = sample(kind, EL_SAMPLE, np.random.default_rng(ORACLE_SEED), f)
    ell_min = math.inf
    for lo in range(0, EL_SAMPLE, 4096):
        ell = np.maximum(0.0, cross_d(kind, tau, probe[lo:lo + 4096], pts)) @ w
        ell_min = min(ell_min, float(ell.min()))
    return max(0.0, S - ell_min) + spread, S
