"""Manifolds, point representations and the kernel pair (D, L).

Three model spaces are supported:

* ``circle``  -- points are angles in [0, 2*pi),
* ``sphere``  -- points are unit vectors in R^3,
* ``flag``    -- points of F^{1,2}(C^f), stored as an orthonormal pair
  (u, v) of complex f-vectors representing the rank-two Hermitian matrix
  (1+tau)|u><u| + (1-tau)|v><v|.

On the circle and the sphere the kernel is zonal: it depends on a pair
only through c = <x,y>,

    D(x, y) = 2 tau^2 (1 + c) (2 - tau^2 (1 - c)),

evaluated only by ``zonal_d``.  The circle is a great circle of the
sphere: ``unit_vectors`` embeds its angles in R^2, so both spaces share
every kernel routine and angles stay at the input/output boundary.  On
the flag manifold D(x, y) = Tr((xy)^2) - Tr(xy)^2 / 2, evaluated as
(xi (x) xi) . C (eta (x) eta) in the real lift: xi are the coordinates of
X = (1+tau) uu* + (1-tau) vv* in an orthonormal Hermitian basis
(``_flag_lift``) and C a sparse coupling fixed by f (``_flag_coupling``).
``kernel_cross``, the annealer (``optimize._Lift``) and the merge distance
(Tr(xy) = xi . eta) read it; only the flag Monte Carlo, whose first point
is always x0 = (e1, e2), reads D off a 2 x 2 block in closed form.  The
zonal D is likewise bilinear in x (x) x, x and 1.  The Lagrangian is the
positive part L = max(0, D); the sign of D defines the causal relation of
two points.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from operator import index

import numpy as np

# Orthonormality drift above which flag pairs are re-orthonormalized on
# construction.
_FLAG_DRIFT = 1e-12

# Largest coupling a model accepts.  The kernel's rounding error grows like
# eps tau^2 relative to D(x, x) = 8 tau^2 (``zonal_d`` forms tau^2 c + 2 - tau^2,
# and the flag lift's tau^4 terms cancel on near-coincident pairs): at
# tau = 1e3 about 1e-10 for the zonal kernel and up to 1.3e-10 on coincident
# flag pairs, while beyond 1/sqrt(eps) the zonal 2 is lost.
TAU_MAX = 1e3


def _integer_at_least(value, name: str, least: int) -> int:
    """value as an int (``operator.index``, so 3.7 is never truncated to 3)
    when it is an integer >= least; else a ValueError that names it."""
    try:
        count = index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        raise ValueError(f"{name} must be an integer >= {least} (got {name}={value!r})")
    return count


@dataclass(frozen=True)
class ManifoldModel:
    """A model space together with the coupling constant tau.

    ``kind`` is one of ``"circle"``, ``"sphere"``, ``"flag"``; ``f`` is the
    complex dimension for the flag manifold, an integer (``operator.index``),
    and must be None otherwise.  tau must be a real number, not a bool, in
    [1, TAU_MAX]; it is stored as a float.
    """

    kind: str
    tau: float
    f: int | None = None

    def __post_init__(self):
        if self.kind not in ("circle", "sphere", "flag"):
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        if self.kind == "flag":
            try:
                f = index(self.f)
            except TypeError:
                f = None
            if f is None or f < 3:
                raise ValueError(f"flag manifold requires f >= 3, an integer (got f={self.f!r})")
            # tau = 1 is the degenerate boundary where the kernel operator
            # against the Haar measure is PSD; it stays constructible
            object.__setattr__(self, "f", f)
        elif self.f is not None:
            raise ValueError(f"f is only meaningful for the flag manifold")
        if isinstance(self.tau, bool) or not isinstance(self.tau, numbers.Real):
            raise ValueError(f"tau must be a real number (got tau={self.tau!r})")
        object.__setattr__(self, "tau", float(self.tau))
        if not 1 <= self.tau <= TAU_MAX:
            raise ValueError(
                f"tau must lie in [1, {TAU_MAX:g}] (got {self.tau!r}): near it the "
                "kernel's rounding error reaches 1e-10 of its scale"
            )

    @classmethod
    def circle(cls, tau: float) -> "ManifoldModel":
        return cls("circle", tau)

    @classmethod
    def sphere(cls, tau: float) -> "ManifoldModel":
        return cls("sphere", tau)

    @classmethod
    def flag(cls, f: int, tau: float) -> "ManifoldModel":
        return cls("flag", tau, f)

    @property
    def kernel_scale(self) -> float:
        """D(x, x) = 8 tau^2, the natural scale of the kernel."""
        return 8.0 * self.tau**2


def theta_max(model: ManifoldModel) -> float:
    """Opening angle arccos(1 - 2/tau^2) of the lightcones (circle/sphere)."""
    if model.kind == "flag":
        raise ValueError("theta_max is not defined on the flag manifold")
    return float(np.arccos(1.0 - 2.0 / model.tau**2))


def flag_point(u, v) -> np.ndarray:
    """Build a flag point from two complex f-vectors.

    The pair is re-orthonormalized by Gram-Schmidt when its drift from
    orthonormality exceeds 1e-12, so invariants stay machine-checkable
    after perturbation moves.
    """
    u = np.asarray(u, dtype=complex).copy()
    v = np.asarray(v, dtype=complex).copy()
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError("u and v must be complex vectors of equal length")
    drift = max(
        abs(np.vdot(u, u).real - 1.0),
        abs(np.vdot(v, v).real - 1.0),
        abs(np.vdot(u, v)),
    )
    if drift > _FLAG_DRIFT:
        nu = np.linalg.norm(u)
        if nu == 0.0:
            raise ValueError("u must be nonzero")
        u /= nu
        v = v - np.vdot(u, v) * u
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            raise ValueError("u and v are (numerically) collinear")
        v /= nv
    return np.stack([u, v])


def validate_points(model: ManifoldModel, points: np.ndarray) -> np.ndarray:
    """Check an array of stacked points (finite coordinates) against the model's invariants."""
    points = np.asarray(points)
    if points.dtype.kind not in "iufc" or not np.all(np.isfinite(points)):
        raise ValueError(f"{model.kind} points must have finite numeric coordinates")
    if model.kind == "circle":
        if points.ndim != 1:
            raise ValueError("circle points must be a 1-d array of angles")
        return np.asarray(points, dtype=float)
    if model.kind == "sphere":
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("sphere points must have shape (n, 3)")
        norms = np.linalg.norm(points, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("sphere points must be unit vectors (1e-12)")
        return np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[1] != 2 or points.shape[2] != model.f:
        raise ValueError(f"flag points must have shape (n, 2, {model.f})")
    u, v = points[:, 0, :], points[:, 1, :]
    err = np.maximum(
        np.abs(np.einsum("ij,ij->i", u.conj(), u).real - 1.0),
        np.abs(np.einsum("ij,ij->i", v.conj(), v).real - 1.0),
    )
    err = np.maximum(err, np.abs(np.einsum("ij,ij->i", u.conj(), v)))
    if np.any(err > 1e-10):
        raise ValueError("flag points must be orthonormal pairs (1e-10)")
    return points


# array rank of one point: an angle, a 3-vector, a (u, v) pair of f-vectors
_POINT_NDIM = {"circle": 0, "sphere": 1, "flag": 2}


def is_single_point(model: ManifoldModel, x) -> bool:
    """True when x is one point of the model rather than a batch."""
    return np.ndim(x) == _POINT_NDIM[model.kind]


def _as_batch(model: ManifoldModel, x) -> np.ndarray:
    """Promote a single point to a batch of one."""
    x = np.asarray(x)
    return x[None, ...] if is_single_point(model, x) else x


def zonal_d(tau: float, c):
    """The circle/sphere kernel D as a function of c = <x, y>.

    D = 2 tau^2 (1 + c) (2 - tau^2 (1 - c)), evaluated in the order
    (1 + c) (tau^2 c + 2 - tau^2) 2 tau^2.
    """
    t2 = tau**2
    f = np.multiply(c, t2)
    f += 2.0 - t2
    out = np.add(c, 1.0)
    out *= f
    out *= 2.0 * t2
    return out


def unit_vectors(model: ManifoldModel, points) -> np.ndarray:
    """Circle/sphere points as unit vectors, the argument form of ``zonal_d``.

    Circle angles become (cos, sin) in R^2 along a new last axis; sphere
    points pass through unchanged.
    """
    if model.kind == "circle":
        a = np.asarray(points, dtype=float)
        return np.stack([np.cos(a), np.sin(a)], axis=-1)
    if model.kind == "sphere":
        return np.asarray(points, dtype=float)
    raise ValueError("the flag kernel is not zonal")


@functools.cache
def _flag_basis(f):
    """The orthonormal Hermitian basis H_k, k = a f + b: E_aa,
    (E_ab + E_ba)/sqrt2 (a < b) and i (E_ba - E_ab)/sqrt2 (a > b), as the
    pairs (i, j, s) and the units (k, h).  On the real view r of u, (Re, Im)
    interleaved, u* H_k u = r . R_k r, R_k = Re H_k (x) I_2 + Im H_k (x) J,
    is s[k] . (r_i * r_j) over the pairs i <= j where some R_k is nonzero.
    Position (a, b) carries the units k[a, b] with coefficients h[a, b]."""
    K, s, (a, b) = f * f, math.sqrt(0.5), np.indices((f, f))
    lo, hi, diag = np.minimum(a, b), np.maximum(a, b), a == b
    k = np.stack([lo * f + hi, hi * f + lo], -1)
    h = np.stack([np.where(diag, 0.5, s), np.where(diag, 0.5, 1j * s * np.sign(b - a))], -1)
    H = np.zeros((K, f, f), dtype=complex)
    H[k[..., 0], a, b] = h[..., 0]
    H[k[..., 1], a, b] += h[..., 1]
    R = np.multiply.outer(H.real, np.eye(2)) + np.multiply.outer(H.imag, [[0.0, -1.0], [1.0, 0.0]])
    R = R.transpose(0, 1, 3, 2, 4).reshape(K, 2 * f, 2 * f)
    S = np.triu(R) + np.triu(R, 1)  # r . R_k r = sum over i <= j of S_k,ij r_i r_j
    i, j = np.nonzero(S.any(0))
    return (i, j, S[:, i, j]), (k, h)


@functools.cache
def _flag_coupling(f):
    """C_{kl,mn} = Re tr(H_k H_m H_l H_n) - delta_km delta_ln / 2, symmetric in
    k <-> l, m <-> n and (kl) <-> (mn), as its nonzeros (rows, cols, vals) in
    row-major order, kl = k f^2 + l: 309 at f = 3, 3,465 at f = 5.  Summed
    over the chains (a, b)(b, c)(c, d)(d, a) of matrix units, 16 f^4 products."""
    K, (k, h) = f * f, _flag_basis(f)[1]
    # the pairs H_k at (a, b), H_m at (b, c) on axes (a, c, b, t1, t2), with
    # index part k K^3 + m K; the chain closes with the pair H_l at (c, d),
    # H_n at (d, a), whose index part l K^2 + n is the pair (c, a)'s over K
    kp = (k[:, None, :, :, None] * K**3 + k.transpose(1, 0, 2)[None, :, :, None, :] * K).reshape(f, f, -1)
    hp = (h[:, None, :, :, None] * h.transpose(1, 0, 2)[None, :, :, None, :]).reshape(f, f, -1)
    idx = kp[:, :, :, None] + (kp.transpose(1, 0, 2) // K)[:, :, None, :]
    val = (hp[:, :, :, None] * hp.transpose(1, 0, 2)[:, :, None, :]).real
    keys, at = np.unique(np.append(idx, np.arange(K * K) * (K * K + 1)), return_inverse=True)
    vals = np.bincount(at, np.append(val, np.full(K * K, -0.5)))
    keep = vals != 0.0  # the chains cancel on about half their entries
    return (*np.divmod(keys[keep], K * K), vals[keep])


def _flag_lift(f: int, tau: float):
    """The pairs (I, J, B^T) of the real lift at tau: xi_k = Re tr(H_k X),
    X = (1+tau) uu* + (1-tau) vv* = sum_k xi_k H_k, is (r_I * r_J) B^T on
    the real view r of (u, v), ``_flag_basis``'s pairs of u scaled by 1+tau
    and of v by 1-tau.  Exact for any pair (u, v); Tr(XY) = xi . eta."""
    i, j, s = _flag_basis(f)[0]
    n = 2 * f  # the real view of v follows that of u
    return (np.concatenate([i, i + n]), np.concatenate([j, j + n]),
            np.concatenate([(1.0 + tau) * s.T, (1.0 - tau) * s.T]))


def _flag_xi_real(pairs, r):
    """The lift's xi, (r_I * r_J) B^T, of the real view r (4f,) of one point,
    or of real views stacked as the columns of r (4f, n), as (n, f^2)."""
    I, J, BT = pairs
    return (r[I] * r[J]).T.dot(BT)


def _flag_xi(pairs, x):
    """The lift's xi of one point (2, f) or a batch (n, 2, f), read as
    contiguous complex128: the real view of complex64 or of a batch strided
    along its last axis would misread them."""
    r = np.ascontiguousarray(x, dtype=complex)
    return _flag_xi_real(pairs, r.reshape(r.shape[:-2] + (-1,)).view(float).T)


def _flag_outer(xi):
    """xi (x) xi of a batch of coordinates, flattened to (n, K^2)."""
    return (xi[:, :, None] * xi[:, None, :]).reshape(len(xi), -1)


def _flag_features(coupling, xi):
    """C (xi (x) xi) of coordinates (K,), or of each row of a batch (n, K),
    summing each row of C's nonzeros in order: no array of C's f^8 entries
    is formed.  A batch is one ``bincount`` with point p's bins offset by
    p K^2, so each point's sums run in the single point's order, bit for bit."""
    rows, cols, vals = coupling
    K2 = xi.shape[-1] ** 2
    if xi.ndim == 2:
        bins = rows + K2 * np.arange(len(xi))[:, None]
        terms = _flag_outer(xi).take(cols, 1)
        terms *= vals  # in place: a second array of this size measured slower
        return np.bincount(bins.ravel(), terms.ravel(), len(xi) * K2).reshape(-1, K2)
    return np.bincount(rows, np.multiply.outer(xi, xi).reshape(-1)[cols] * vals, K2)


def kernel_cross(model: ManifoldModel, xs, ys) -> np.ndarray:
    """Matrix D(x_i, y_j) for two batches of points."""
    xs = _as_batch(model, xs)
    ys = _as_batch(model, ys)
    if model.kind == "flag":
        pairs = _flag_lift(model.f, model.tau)
        eta = _flag_features(_flag_coupling(model.f), _flag_xi(pairs, ys))
        return _flag_outer(_flag_xi(pairs, xs)) @ eta.T
    return zonal_d(model.tau, unit_vectors(model, xs) @ unit_vectors(model, ys).T)


def kernel_matrix(model: ManifoldModel, points) -> np.ndarray:
    """Symmetric Gram matrix of D on one batch of points.

    Explicitly symmetrized so that downstream identities (eigensolves,
    the action/potential consistency check) hold exactly.
    """
    g = kernel_cross(model, points, points)
    return (g + g.T) / 2.0


def lagrangian_matrix(model: ManifoldModel, points) -> np.ndarray:
    return np.maximum(0.0, kernel_matrix(model, points))


def d_kernel(model: ManifoldModel, x, y) -> float:
    """The kernel D at a single pair of points.

    The off-diagonal entry of ``kernel_matrix`` on the pair, whose
    symmetrization makes swapping the arguments return the identical float.
    """
    if model.kind == "circle":
        x, y = float(x), float(y)
    else:
        x, y = np.asarray(x), np.asarray(y)
    if model.kind == "sphere":
        if x.shape != (3,) or y.shape != (3,) or np.iscomplexobj(x) or np.iscomplexobj(y):
            raise ValueError("sphere points must be real 3-vectors")
    elif model.kind == "flag":
        if x.shape != (2, model.f) or y.shape != (2, model.f):
            raise ValueError(f"flag points must have shape (2, {model.f})")
    return float(kernel_matrix(model, np.stack([x, y]))[0, 1])


def lagrangian(model: ManifoldModel, x, y) -> float:
    """L(x, y) = max(0, D(x, y))."""
    return max(0.0, d_kernel(model, x, y))


def lagrangian_profile(model: ManifoldModel, theta) -> np.ndarray:
    """L as a function of the angle between two circle/sphere points."""
    if model.kind == "flag":
        raise ValueError("the flag kernel is not a function of one angle")
    return np.maximum(0.0, zonal_d(model.tau, np.cos(np.asarray(theta, dtype=float))))


def _haar_flag_pairs(rng, n: int, f: int):
    """(u, v), each (n, f): two complex Gaussian vectors per pair, drawn in
    the order Re u, Im u, Re v, Im v, orthonormalized by Gram-Schmidt."""
    u = rng.standard_normal((n, f)) + 1j * rng.standard_normal((n, f))
    v = rng.standard_normal((n, f)) + 1j * rng.standard_normal((n, f))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v -= np.einsum("ij,ij->i", u.conj(), v)[:, None] * u
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return u, v


def sample_uniform(model: ManifoldModel, n: int, seed) -> np.ndarray:
    """n i.i.d. points from the uniform (Haar) measure, deterministic per seed.

    Circle angles are uniform; sphere points are normalized Gaussians; flag
    pairs are two complex Gaussian vectors orthonormalized by Gram-Schmidt,
    which gives the unitarily invariant measure on orthonormal pairs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if model.kind == "circle":
        return rng.uniform(0.0, 2.0 * np.pi, size=n)
    if model.kind == "sphere":
        g = rng.standard_normal((n, 3))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    return np.stack(_haar_flag_pairs(rng, n, model.f), axis=1)
