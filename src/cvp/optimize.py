"""Search for minimizing measures.

The optimizer anneals support-point positions with Metropolis moves while
keeping the weights near-optimal through periodic weight sub-solves of the
simplex-constrained (standard) quadratic program

    minimize  w^T G w   over  w >= 0, sum w = 1,      G_ij = L(x_i, x_j),

solved by a strict-descent active-set iteration on the bordered KKT system
of each face.  The Gram of the clamped kernel is indefinite away from
minimizers, so a sub-solve returns a KKT point, not a certified global
minimum of the program.  Proposal moves: geodesic jitter of one
point with scale tied to the temperature, weight transfer between two
points (occasionally consolidating a point into its strongest-coupled
neighbour, which forms clusters), and relocation of the lightest point to
the lowest value of the potential ell on a coarse probe grid, which
repairs Euler-Lagrange violations directly; every k-th accepted move
triggers a weight re-solve.  Cooling ends in a zero-temperature
quench with geometrically shrinking move scale.

Each restart keeps one annealing state (``_AnnealState``: the points and
their lifted features, G, g = G w, w, S and the best snapshot); cooling and
the quench are two loops over it, and the quench starts from the best
snapshot loaded into the same state.  One state serves all three kinds: D
is a bilinear form in lifted point features, so a kernel row is one
matrix-vector product and a clamp.  The feature maps and the probe grid
(``_Lift``) depend only on the model: each ``anneal`` call builds them once
for all its restarts.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# the LAPACK gufunc behind np.linalg.solve, whose checks cost more than the
# solve on small systems; a singular system gives NaNs
from numpy.linalg._umath_linalg import solve1 as _solve1

from . import analysis
from .exact import icosahedron, octahedron
from .manifold import (
    ManifoldModel,
    _flag_coupling,
    _flag_features,
    _flag_lift,
    _flag_outer,
    _flag_xi,
    lagrangian_matrix,
    sample_uniform,
    theta_max,
    unit_vectors,
    zonal_d,
)
from .measure import WeightedMeasure, action, probe_grid

_RESOLVE_EVERY = 50      # accepted moves between weight sub-solves
_RESYNC_EVERY = 4096     # accepted moves between full recomputations
_TIE_TOL = 1e-12
_REDUCE_RTOL = 1e-6      # action rise a support reduction may cause, relative
_MERGE_RADIUS = 1e-3     # merge radius of `cvp minimize` and of every scan row
# cap on a schedule's cooling steps (temperatures x steps x restarts); the
# default schedule takes about 7e5
MAX_ANNEAL_STEPS = 10**8


@dataclass(frozen=True)
class AnnealSchedule:
    """Cooling schedule; temperatures are absolute action scales."""

    t_start: float
    t_end: float
    cooling: float = 0.97
    steps_per_temp: int = 200
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and self.t_start > self.t_end > 0):
            raise ValueError("need finite t_start > t_end > 0")
        if not (0 < self.cooling < 1):
            raise ValueError("cooling must lie in (0, 1)")
        if self.steps_per_temp < 1 or self.restarts < 1:
            raise ValueError("steps_per_temp and restarts must be >= 1")
        steps = self.temperatures * self.steps_per_temp * self.restarts
        if steps > MAX_ANNEAL_STEPS:
            raise ValueError(
                f"the schedule asks for {steps:.3g} Metropolis steps ({self.temperatures} "
                f"temperatures x {self.steps_per_temp} steps x {self.restarts} restarts), "
                f"more than {MAX_ANNEAL_STEPS:.0e}"
            )

    @property
    def temperatures(self) -> int:
        """Temperatures that cooling visits: ceil(ln(t_start / t_end) / -ln(cooling))."""
        ratio = math.log(self.t_start) - math.log(self.t_end)  # ln(t_start / t_end), no overflow
        return math.ceil(ratio / -math.log(self.cooling))

    @classmethod
    def default(cls, model: ManifoldModel, seed: int = 0, **overrides) -> "AnnealSchedule":
        """t_start = 8 tau^2, t_end = 1e-6 * 8 tau^2, cooling 0.97."""
        scale = model.kernel_scale
        return cls(**{"t_start": scale, "t_end": 1e-6 * scale, "seed": seed, **overrides})

    @classmethod
    def light(cls, model: ManifoldModel, seed: int = 0, **overrides) -> "AnnealSchedule":
        """Shorter schedule for scans: cooling 0.93, 80 steps, 2 restarts."""
        light = {"cooling": 0.93, "steps_per_temp": 80, "restarts": 2}
        return cls.default(model, seed, **{**light, **overrides})


# ---------------------------------------------------------------------------
# weight sub-problem


@dataclass(frozen=True)
class WeightSolve:
    weights: np.ndarray
    action: float
    iterations: int
    potential: np.ndarray  # g = G w at the returned weights

    @property
    def kkt_residual(self) -> float:
        """Largest violation of the KKT conditions g_i = S on the support
        (w_i > 1e-14) and g_i >= S off it."""
        w, g, lam = self.weights, self.potential, self.action
        supp = w > 1e-14
        res_eq = float(np.max(np.abs(g[supp] - lam)))
        res_in = float(np.max(lam - g[~supp], initial=0.0))
        return max(res_eq, res_in)


def _qp_max_iter(n: int) -> int:
    """Iteration cap of ``_simplex_qp`` on an n-point Gram."""
    return 6 * n + 80


def _simplex_qp(G: np.ndarray, warm_free=None) -> WeightSolve:
    """Active-set solve of min w^T G w on the probability simplex.

    G may be indefinite, so the result is a KKT point, not a certified
    global minimum; ``kkt_residual`` says how far it is from one.  No step
    raises w^T G w.  Each iteration solves the bordered KKT system of the
    current face once and moves from w toward its solution w_F*, or away
    from it when the curvature along w_F* - w is negative, up to the face
    boundary; a singular face system (e.g. coincident points) moves
    downhill along a null vector, on which w^T G w is linear.  At a
    face-stationary point the most violated inactive index is released by
    the line-optimal step toward its vertex, until no violation exceeds
    1e-11 of max |G|.  ``warm_free`` seeds the starting face.
    """
    n = len(G)
    scale = float(abs(G).max()) or 1.0
    # every face's bordered KKT matrix is a submatrix of K; the border flag
    # free[n] stays set and face = free[:n] marks the current face
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = G
    K[:n, n] = -1.0
    K[n, :n] = 1.0
    unit = np.zeros(n + 1)
    unit[n] = 1.0
    free = np.ones(n + 1, dtype=bool)
    if warm_free is not None and warm_free.shape == (n,) and warm_free.any():
        free[:n] = warm_free
    face = free[:n]
    w = np.zeros(n)
    w[face] = 1.0 / face.sum()
    stationary = False
    for it in range(1, _qp_max_iter(n) + 1):
        if stationary:
            # release the most violated inactive index by the line-optimal
            # step toward its vertex
            g = G @ w
            S = float(w @ g)
            viol = np.where(face, -math.inf, S - g)
            j = int(viol.argmax())
            vj = viol.item(j)
            if vj <= 1e-11 * scale:
                break
            denom = S - 2.0 * g.item(j) + G.item(j, j)
            eps = min(1.0, vj / denom) if denom > 0.0 else 1.0
            w *= 1.0 - eps
            w[j] += eps
            if eps == 1.0:
                face[:] = False
            face[j] = True
            stationary = False
            continue
        sel = free.nonzero()[0]
        idx = sel[:-1]
        k = len(idx)
        KF = K.take(sel, 0).take(sel, 1)
        wf = w[idx]
        with np.errstate(all="ignore"):  # a singular face system gives NaNs
            w_star = _solve1(KF, unit[n - k :], signature="dd->d")[:k]
        p = w_star - wf
        a = float(KF[:k, :k].dot(p).dot(p))
        # along p = d the objective changes by a (t^2 - 2t), so for a >= 0
        # the step toward w_F* descends; along -d it changes by a (t^2 + 2t)
        if a >= 0.0:
            t = 1.0
        else:
            t, w_star = math.inf, None
            if a < 0.0:
                p = -p
            else:
                # singular face system (a is NaN): along the weight part of a null
                # vector z the objective is linear with slope 2 z[k]
                z = np.linalg.svd(KF)[2][-1]
                p = -z[:k] if z[k] > 0.0 else z[:k]
        # ratio test on at most a few dozen Python floats: the first index of
        # the smallest step wf / -p over p < 0 (inf when there is none)
        kmin, rmin = 0, math.inf
        for q, (pq, wq) in enumerate(zip(p.tolist(), wf.tolist())):
            if pq < 0.0:
                r = wq / -pq
                if r < rmin:
                    kmin, rmin = q, r
        if rmin < t:
            wf += rmin * p
            np.maximum(wf, 0.0, out=wf)
            wf[kmin] = 0.0
            w[idx] = wf
            face[idx[kmin]] = False
        else:
            np.maximum(w_star, 0.0, out=w_star)
            w[idx] = w_star
            stationary = True
    # exact simplex feasibility on the returned iterate (w >= 0 throughout)
    w /= w.sum()
    g = G @ w
    return WeightSolve(w, float(w @ g), it, g)


def optimal_weights_info(model: ManifoldModel, points) -> WeightSolve:
    """The weight solve at a KKT point of the action for fixed support
    points; the Gram may be indefinite, so it need not minimize the action."""
    return _simplex_qp(lagrangian_matrix(model, points))


# ---------------------------------------------------------------------------
# proposal helpers


# probe grid for the relocate move: size per kind, seed of the flag draw
_PROBE_SIZE = {"circle": 192, "sphere": 256, "flag": 96}
_PROBE_SEED = 7


def _float_slices(draw, block):
    """Slices of 1024 draws as Python floats: block's, then those of each
    next block ``draw(16384)``, drawn when a float past the last is asked for."""
    while True:
        for s in range(0, 16384, 1024):
            yield block[s : s + 1024].tolist()
        block = draw(16384)


class _BlockedRng:
    """Pre-drawn uniform/normal blocks; one Generator call per ~16k draws.

    ``uniform()`` returns the next uniform as a Python float.  Normals are
    read either as Python floats by ``normal()`` or as array slices by
    ``normals(k)``; both start on the normal block drawn after the first
    uniform block, so a kind reads through one of the two, never both (the
    circle through ``normal()``, the sphere and the flag through
    ``normals(k)``).  The floats are converted 1024 draws at a time, which
    keeps them small next to the block.
    """

    __slots__ = ("rng", "uniform", "normal", "_n", "_in")

    def __init__(self, rng):
        self.rng = rng
        first = rng.random(16384)
        self.uniform = itertools.chain.from_iterable(_float_slices(rng.random, first)).__next__
        self._n, self._in = rng.standard_normal(16384), 0
        self.normal = itertools.chain.from_iterable(
            _float_slices(rng.standard_normal, self._n)).__next__

    def normals(self, k: int):
        if self._in + k > self._n.shape[0]:
            self._n, self._in = self.rng.standard_normal(max(16384, k)), 0
        v = self._n[self._in : self._in + k]
        self._in += k
        return v


def _zonal_features(e, a, a2, b, c):
    """(a e_k^2, a2 e_k e_l for k < l, b e_k, c) from a unit 3-vector e of
    Python floats: with (a, a2, b, c) = (1, 1, 1, 1) the stored features,
    with (alpha, 2 alpha, beta, gamma) the query of D = alpha c^2 + beta c +
    gamma.  For a batch, e is three coordinate arrays and c an array."""
    x, y, z = e
    return [a * x * x, a * y * y, a * z * z, a2 * x * y, a2 * x * z, a2 * y * z,
            b * x, b * y, b * z, c]


class _Lift:
    """What the annealer needs of the model: the move proposal ``jitter`` and
    scale ``pos_scale``, the relocate move's probe grid with its queries
    ``q_probe``, and the kernel row closure; the restarts of one ``anneal``
    call share it.

    D(x, y) = q(x) . F(y) in lifted features.  ``one`` maps a point to the
    coordinates both are read from, ``store`` maps those to F, ``stored`` a
    batch of points to F in one batched lift, and ``row_fn(F, out)`` gives
    the row function, coordinates -> F q into ``out``.  On the circle and
    the sphere D is quadratic in c = <x, y>, with coefficients read off
    ``zonal_d`` at c = -1, 0, 1.  On the flag the coordinates are the
    manifold's lift xi and F = C (eta (x) eta), as in ``kernel_cross``; a
    row reads each stored feature as an f^2 x f^2 matrix M(y) and forms
    xi . M(y) xi, so the query's outer product xi (x) xi is never formed.
    """

    def __init__(self, model):
        self.model = model
        self.probe = probe_grid(model, _PROBE_SIZE[model.kind], _PROBE_SEED)
        if model.kind == "flag":
            self.pos_scale = 1.0
            one = functools.partial(_flag_xi, _flag_lift(model.f, model.tau))
            C, K = _flag_coupling(model.f), model.f**2
            self.store = functools.partial(_flag_features, C)
            self.stored = lambda xs: _flag_features(C, one(xs))
            self.q_probe = _flag_outer(one(self.probe))

            def row_fn(F, out):  # row_j = xi . M_j xi, M_j the stored feature as K x K
                F3, m = F.reshape(-1, K), len(F)
                return lambda xi: F3.dot(xi).reshape(m, K).dot(xi, out=out)

            def jitter(x, scale, rand):
                # x + scale * n with the normals read as interleaved (Re, Im)
                # pairs of u, then of v; Gram-Schmidt with np.vdot, which
                # projects twice when the first projection removes more than
                # half of |v|^2, so that <u, v> stays at rounding level
                # (Parlett's criterion)
                y = rand.normals(4 * model.f).view(complex).reshape(2, -1) * scale
                y += x
                u, v = y[0], y[1]
                u *= 1.0 / math.sqrt(np.vdot(u, u).real)
                c = np.vdot(u, v)
                v -= c * u
                vv = np.vdot(v, v).real
                if abs(c) ** 2 > vv:
                    v -= np.vdot(u, v) * u
                    vv = np.vdot(v, v).real
                v *= 1.0 / math.sqrt(vv)
                return y
        else:
            self.pos_scale = theta_max(model)
            dm, d0, dp = zonal_d(model.tau, np.array([-1.0, 0.0, 1.0])).tolist()
            a, b, c = 0.5 * (dp + dm) - d0, 0.5 * (dp - dm), d0
            a2 = 2.0 * a  # the query is (a, a2, b, c); a *args call per row costs more
            if model.kind == "circle":  # a great circle of the sphere
                one = lambda t: (math.cos(t), math.sin(t), 0.0)
                coords = lambda xs: np.array([one(t) for t in xs.tolist()]).T

                def jitter(x, scale, rand):  # Python floats: the doubles of np.float64
                    return (float(x) + scale * rand.normal()) % (2.0 * math.pi)
            else:
                one = lambda e: e if type(e) is tuple else e.tolist()
                coords = np.transpose

                def jitter(x, scale, rand):  # the normalized step on Python floats
                    x0, x1, x2 = x.tolist()
                    n0, n1, n2 = rand.normals(3).tolist()
                    v0, v1, v2 = x0 + scale * n0, x1 + scale * n1, x2 + scale * n2
                    r = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
                    return (v0 / r, v1 / r, v2 / r)

            def lift_all(xs, a, a2, b, c):  # one feature row per point of a batch
                return np.stack(_zonal_features(coords(xs), a, a2, b, np.full(len(xs), c)), 1)

            self.store = lambda e: _zonal_features(e, 1.0, 1.0, 1.0, 1.0)
            self.stored = lambda xs: lift_all(xs, 1.0, 1.0, 1.0, 1.0)
            self.q_probe = lift_all(self.probe, a, a2, b, c)

            def row_fn(F, out):
                q = np.empty(10)

                def row_of(e):
                    q[:] = _zonal_features(e, a, a2, b, c)
                    return F.dot(q, out=out)

                return row_of
        self.one, self.row_fn, self.jitter = one, row_fn, jitter


def _structured_start(model: ManifoldModel, m: int) -> np.ndarray:
    """Quasi-uniform start (packing-style seed): the octahedron or the
    icosahedron for 6 or 12 sphere points, else the probe grid."""
    if model.kind == "sphere" and m in (6, 12):
        return (octahedron() if m == 6 else icosahedron()).points
    return probe_grid(model, m, seed=11)


def _pad_measure(model: ManifoldModel, meas: WeightedMeasure, m: int, seed):
    """Pad (or trim) a warm-start measure to m points."""
    pts, w = meas.points, meas.weights
    if len(w) > m:
        order = np.sort(np.argsort(w)[::-1][:m])
        pts, w = pts[order], w[order]
        w = w / w.sum()
    elif len(w) < m:
        extra = sample_uniform(model, m - len(w), seed)
        pts = np.concatenate([pts, extra], axis=0)
        w = np.concatenate([w, np.zeros(m - len(w))])
    return pts, w


# ---------------------------------------------------------------------------
# the annealer


class _AnnealState:
    """One restart's annealing state, shared by cooling and the quench.

    It holds the points ``pts`` (angles on the circle) and their lifted
    features ``F``, the Gram G of the points, the weights w, g = G w and
    S = w . g (kept incrementally), the probe grid's argmin of ell (None
    once w or a weighted point moves), cooling's warm face (the support of
    the last weight solve) and the best snapshot [S, points, weights].  A
    kernel row ``l_row(x)`` is max(0, F q(x)), one matmul, and the
    potential on the probe grid max(0, Q F^T) w; both agree with
    ``kernel_cross`` to rounding.  ``l_row`` returns a buffer that the next
    call overwrites.

    A massless point's move leaves S unchanged and is always accepted;
    cooling only writes the point (``defer_point``), and its features and
    its row of G go stale (``deferred`` and ``stale``).  ``sync`` writes the
    features before a kernel row reads them, and ``refresh`` its row of G
    and entry of g before weight can move into it and before every weight
    solve; meanwhile it changes neither S, nor any weighted point's
    potential, nor the probe argmin.  ``load``, ``resolve`` and ``resync``
    replace w, g and G: a loop that keeps them in locals rebinds them after.
    """

    def __init__(self, lift, pts, w):
        self.lift, self.model = lift, lift.model
        self.diag = self.model.kernel_scale
        self._one, self._store = lift.one, lift.store
        self.deferred, self.stale = set(), set()
        self.warm = None
        self.load(pts, w)
        self.best = [self.S, self.pts.copy(), self.w.copy()]

    def load(self, pts, w):
        """Move every point and set the weights: F by the batched lift,
        then G, g and S from scratch."""
        kind = complex if self.model.kind == "flag" else float
        self.pts = np.array(pts, dtype=kind, copy=True)
        self.F = self.lift.stored(self.pts)
        self._zero = np.zeros(len(self.F))
        self._row_of = self.lift.row_fn(self.F, np.empty(len(self.F)))
        self._last = (None, None)
        self.deferred.clear()
        self.w = np.array(w, dtype=float, copy=True)
        self.probe_k = None
        self.resync()

    def l_row(self, x):
        p = self._one(x)
        self._last = (x, p)
        row = self._row_of(p)
        return np.maximum(self._zero, row, out=row)

    def ell_on_probe(self, w):
        d = self.lift.q_probe @ self.F.T
        np.maximum(0.0, d, out=d)
        return d @ w

    def defer_point(self, i, x):
        self.pts[i] = x
        self.deferred.add(i)
        self.stale.add(i)

    def sync(self):
        for i in self.deferred:
            self.F[i] = self._store(self._one(self.pts[i]))
        self.deferred.clear()

    def resync(self):
        """G, g and S recomputed from the points and weights."""
        self.sync()
        self.G = lagrangian_matrix(self.model, self.pts)
        self.g = self.G @ self.w
        self.S = float(self.w @ self.g)
        self.stale.clear()

    def snapshot(self):
        if self.S < self.best[0]:
            self.best = [self.S, self.pts.copy(), self.w.copy()]

    def relocate(self, scale, rand):
        """The lightest point and a proposal near the probe grid's ell minimum."""
        if self.probe_k is None:
            self.probe_k = int(self.ell_on_probe(self.w).argmin())
        return int(self.w.argmin()), self.lift.jitter(self.lift.probe[self.probe_k], scale, rand)

    def cost(self, i, x_new):
        """Point i's kernel row at x_new, its potential there and the move's dS."""
        row = self.l_row(x_new)
        row[i] = self.diag
        ell = float(row.dot(self.w))
        return row, ell, 2.0 * self.w.item(i) * (ell - self.g.item(i))

    def move(self, i, x_new, row, ell, dS):
        """Accept the move priced by ``cost``; the features of x_new are
        those of the last kernel row when it was read at x_new."""
        G, g, wi = self.G, self.g, self.w.item(i)
        change = row - G[i]
        self.pts[i] = x_new
        last, p = self._last
        self.F[i] = self._store(p if last is x_new else self._one(x_new))
        G[i, :] = row
        G[:, i] = row
        change *= wi
        g += change
        g[i] = ell
        self.S += dS
        if wi != 0.0:
            self.probe_k = None

    def transfer(self, i, j, delta, dS):
        """Accept moving weight delta from point i to point j."""
        G, w = self.G, self.w
        w[i] = w.item(i) - delta
        w[j] += delta
        self.g += delta * (G[j] - G[i])
        self.S += dS
        self.probe_k = None

    def refresh(self, idx):
        self.sync()
        for k in idx:
            row, self.g[k], _ = self.cost(k, self.pts[k])
            self.G[k, :] = row
            self.G[:, k] = row
        self.stale.difference_update(idx)

    def resolve(self, warm_free):
        """Re-solve the weights from the face warm_free; keep them unless S rises."""
        self.refresh(sorted(self.stale))
        sol = _simplex_qp(self.G, warm_free)
        self.warm = sol.weights > 1e-14
        if sol.action <= self.S:
            self.w, self.g, self.S = sol.weights, sol.potential, sol.action
            self.probe_k = None

    def exact_best(self):
        """The best of the snapshot and the end state, each at its action
        from a fresh Gram: the incremental S accumulates roundoff."""
        self.S = float(self.w @ lagrangian_matrix(self.model, self.pts) @ self.w)
        kept = self.best
        self.snapshot()
        if self.best is kept:  # the end state's Gram is not the best's
            _, pts, w = kept
            kept[0] = float(w @ lagrangian_matrix(self.model, pts) @ w)
        return self.best


def _cool(st: _AnnealState, sched: AnnealSchedule, rand):
    """Metropolis cooling from t_start to t_end with a weight re-solve every
    _RESOLVE_EVERY accepted moves and a resync every _RESYNC_EVERY."""
    stale, m = st.stale, len(st.w)
    pos_scale = st.lift.pos_scale
    uniform, exp, l_row, jitter_at = rand.uniform, math.exp, st.l_row, st.lift.jitter
    cost, move, transfer, defer_point = st.cost, st.move, st.transfer, st.defer_point
    w, g, G = st.w, st.g, st.G
    moves, next_resolve, next_resync = 0, _RESOLVE_EVERY, _RESYNC_EVERY
    T = sched.t_start
    while T > sched.t_end:
        # sqrt decay keeps collective rearrangements possible at low T
        jit_scale = pos_scale * math.sqrt(T / sched.t_start)
        for _ in range(sched.steps_per_temp):
            # scalars are read as Python floats: same doubles, cheaper arithmetic
            u = uniform()
            if u < 0.32:
                # weight transfer; occasionally consolidate a point into its
                # most strongly coupled neighbour (cluster formation)
                i = int(uniform() * m)
                wi = w.item(i)
                if wi <= 0.0:
                    continue
                if u < 0.28:
                    j = int(uniform() * m)
                    if i == j:
                        continue
                    delta = uniform() * wi
                else:
                    # G[i] is out of date in the columns of stale points
                    if stale:
                        st.sync()
                        row = l_row(st.pts[i])
                    else:
                        row = G[i]
                    gii = row[i]
                    row[i] = -math.inf  # argmax over j != i, then restored
                    j = int(row.argmax())
                    row[i] = gii
                    if row[j] <= 0.0:
                        continue
                    delta = wi
                if j in stale:
                    st.refresh((j,))
                dS = 2.0 * delta * (g.item(j) - g.item(i)) + delta * delta * (
                    G.item(i, i) - 2.0 * G.item(i, j) + G.item(j, j)
                )
                if dS <= 0.0 or uniform() < exp(-dS / T):
                    transfer(i, j, delta, dS)
                    moves += 1
            else:
                if u >= 0.95:
                    # relocate the lightest point onto the ell-minimum probe
                    i, x_new = st.relocate(0.02 * pos_scale, rand)
                else:
                    # geodesic jitter at the temperature-tied scale
                    i = int(uniform() * m)
                    x_new = jitter_at(st.pts[i], jit_scale, rand)
                if w.item(i) == 0.0:
                    defer_point(i, x_new)
                    moves += 1
                else:
                    row, ell, dS = cost(i, x_new)
                    if dS <= 0.0 or uniform() < exp(-dS / T):
                        move(i, x_new, row, ell, dS)
                        moves += 1
            if moves >= next_resolve:
                next_resolve = moves + _RESOLVE_EVERY
                st.resolve(st.warm)
                st.snapshot()
                w, g = st.w, st.g
            elif st.S < st.best[0]:
                st.snapshot()
            if moves >= next_resync:
                next_resync = moves + _RESYNC_EVERY
                st.resync()
                g, G = st.g, st.G
        T *= sched.cooling
    st.resolve(st.warm)
    st.snapshot()


def _quench(st: _AnnealState, rand):
    """Zero-temperature strict-descent refinement with geometrically
    shrinking move scale and a weight re-solve after every 120 steps."""
    m, jitter_at = len(st.w), st.lift.jitter
    pos_scale = st.lift.pos_scale
    qscale = 1e-2 * pos_scale
    while qscale > 1e-10 * pos_scale:
        for _ in range(120):
            relocate = rand.uniform() >= 0.9
            if not relocate:
                i = int(rand.uniform() * m)
                x_new = jitter_at(st.pts[i], qscale, rand)
                if st.w.item(i) == 0.0:
                    continue  # dS = 0 is not a strict descent
            else:
                i, x_new = st.relocate(qscale, rand)
            row, ell, dS = st.cost(i, x_new)
            # relocating a massless point leaves S unchanged; taking it down
            # the potential ell lets the next weight re-solve give it mass
            if dS < 0.0 or (relocate and st.w.item(i) == 0.0 and ell < st.g.item(i)):
                st.move(i, x_new, row, ell, dS)
        st.resolve(st.w > 1e-14)
        qscale *= 0.5


def _anneal_once(lift: _Lift, pts, w, sched: AnnealSchedule, rng):
    """One restart: cooling, then the quench from the best snapshot on the
    same state; returns the best [S, points, weights]."""
    st = _AnnealState(lift, pts, w)
    st.resolve(None)
    st.snapshot()
    if len(st.w) == 1:
        return st.best
    rand = _BlockedRng(rng)
    _cool(st, sched, rand)
    st.load(st.best[1], st.best[2])
    _quench(st, rand)
    return st.exact_best()


def anneal(
    model: ManifoldModel,
    m: int,
    sched: AnnealSchedule | None = None,
    init: WeightedMeasure | None = None,
) -> WeightedMeasure:
    """Simulated annealing over m weighted support points.

    Deterministic per schedule seed.  Restart 0 uses ``init`` when given
    (padded or trimmed to m points), the next restart a quasi-uniform
    structured configuration, the remaining restarts i.i.d. uniform draws.
    The returned action never exceeds that of any initial configuration;
    ties between restarts go to the lowest restart index.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if sched is None:
        sched = AnnealSchedule.default(model)
    lift = _Lift(model)
    results = []
    for r in range(sched.restarts):
        w = np.full(m, 1.0 / m)
        if init is not None and r == 0:
            pts, w = _pad_measure(model, init, m, seed=(sched.seed, r, 101))
        elif r == (0 if init is None else 1):
            pts = _structured_start(model, m)
        else:
            pts = sample_uniform(model, m, seed=(sched.seed, r))
        rng = np.random.default_rng((sched.seed, r, 7))
        results.append(_anneal_once(lift, pts, w, sched, rng))
    best_S = min(res[0] for res in results)
    # the lowest restart index wins ties
    _, pts, w = next(res for res in results if res[0] <= best_S + _TIE_TOL)
    return WeightedMeasure(pts, w / w.sum()).pruned()


# ---------------------------------------------------------------------------
# cluster merging


def _distance_matrix(model: ManifoldModel, pts) -> np.ndarray:
    """Pairwise geodesic angles (circle/sphere) or scaled chordal distances
    (flag), read off differences, so coincident points are 0 apart exactly."""
    if model.kind != "flag":
        e = unit_vectors(model, pts)
        chord = np.linalg.norm(e[:, None] - e[None], axis=-1)
        return 2.0 * np.arcsin(np.minimum(1.0, chord / 2.0))
    # flag: chordal Frobenius distance scaled to match small geodesic angles;
    # the lift's basis is orthonormal, so |X - Y| = |xi(x) - xi(y)|
    xi = _flag_xi(_flag_lift(model.f, model.tau), pts)
    return np.linalg.norm(xi[:, None] - xi[None], axis=-1) / (np.sqrt(2.0) * model.tau)


def kernel_lipschitz(model: ManifoldModel) -> float:
    """Bound on |dL/d(angle)| along geodesics (conservative on the flag)."""
    tau = model.tau
    if model.kind in ("circle", "sphere"):
        return 4.0 * tau**2 * (1.0 + tau**2)
    return 8.0 * np.sqrt(2.0) * tau * (1.0 + tau) ** 3


@dataclass(frozen=True)
class MergeResult:
    measure: WeightedMeasure
    action_delta: float
    action_delta_bound: float


def merge_clusters(model: ManifoldModel, m: WeightedMeasure, radius: float) -> MergeResult:
    """Merge support points within distance ``radius`` by moving weight.

    The points are visited by decreasing weight, the lower index first on a
    tie.  A point within ``radius`` of a point already kept hands its whole
    weight to the heaviest such point, the first kept in visit order;
    otherwise it is kept.  So every point of the merged measure is an input
    point bit for bit (after an anneal, a point the annealer optimized);
    kept points are pairwise farther apart than ``radius``; and no weight
    moves farther than ``radius``.  The merged measure is the kept points in
    input order; with no two points within ``radius``, or radius 0, it is
    ``m`` itself.  The reported bound 2 * Lip(L) * sum_i w_i dist(i,
    receiver of i) dominates the actual action change.
    """
    if not radius >= 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return MergeResult(m, 0.0, 0.0)
    dist = _distance_matrix(model, m.points)
    close = dist <= radius
    np.fill_diagonal(close, False)
    if not close.any():
        return MergeResult(m, 0.0, 0.0)
    receiver = np.arange(len(m))
    kept = []  # in visit order, so the first close one is the heaviest
    for i in np.argsort(-m.weights, kind="stable"):
        receiver[i] = next((k for k in kept if close[i, k]), i)
        if receiver[i] == i:
            kept.append(i)
    keep = receiver == np.arange(len(m))
    w = np.bincount(receiver, m.weights, minlength=len(m))[keep]
    merged = WeightedMeasure(m.points[keep], w / w.sum())
    delta = action(model, merged) - action(model, m)
    moved = float(m.weights @ dist[np.arange(len(m)), receiver])
    bound = 2.0 * kernel_lipschitz(model) * moved
    return MergeResult(merged, delta, bound)


# ---------------------------------------------------------------------------
# tau continuation scan


@dataclass(frozen=True)
class ScanRow:
    tau: float
    m: int
    action: float
    support_size_after_merge: int
    classification: str
    el_residual: float

    def __post_init__(self):
        if self.action < 0:
            raise ValueError("action must be non-negative")


def _reduce_support(model, meas):
    """Greedy support reduction by the weight QP at fixed positions.

    Each step re-solves the weights with each point left out in turn and
    drops the point whose re-solve has the lowest action, as long as that
    action is at most S + _REDUCE_RTOL * S0, where S0 is the input's action
    and S the lowest action met so far.  The result's action is therefore
    at most S0 (1 + _REDUCE_RTOL); positions never move.
    """
    current = meas.pruned()
    S = action(model, current)
    tol = _REDUCE_RTOL * max(S, 1e-30)
    while current.support_size > 1:
        pts = current.points
        drops = [np.arange(len(pts)) != i for i in range(len(pts))]
        sols = [_simplex_qp(lagrangian_matrix(model, pts[keep])) for keep in drops]
        i = min(range(len(sols)), key=lambda j: sols[j].action)  # first of ties
        if sols[i].action > S + tol:
            break
        current = WeightedMeasure(pts[drops[i]], sols[i].weights).pruned()
        S = min(S, sols[i].action)
    return current


def tau_scan(
    model_kind: str,
    tau_grid,
    m: int,
    f: int | None = None,
    seed: int = 0,
    cooling: float | None = None,
    steps_per_temp: int | None = None,
    restarts: int | None = None,
) -> list[ScanRow]:
    """One ScanRow per tau, warm-started continuation in both directions.

    At every tau the best of {cold run, warm run from the neighbouring tau}
    is kept, so the kept measure is never above the cold run; ties in action
    prefer the smaller support.  The kept measure is support-reduced by
    ``_reduce_support``, merged at radius 1e-3 and certified into its row,
    so the row's action may exceed the cold run's by up to 1e-6 S plus the
    bound that ``merge_clusters`` reports; rows are certified at the
    annealed tolerance 1e-2 on the common 2048-point test grid.  The anneals
    run ``AnnealSchedule.light`` with the schedule options given; warm runs
    use one restart.
    """
    tau_grid = [float(t) for t in tau_grid]
    if sorted(tau_grid) != tau_grid:
        raise ValueError("tau_grid must be ascending")
    if not tau_grid:
        return []

    given = {"cooling": cooling, "steps_per_temp": steps_per_temp, "restarts": restarts}
    given = {name: value for name, value in given.items() if value is not None}

    def make_sched(model, **warm):
        return AnnealSchedule.light(model, seed, **{**given, **warm})

    best: dict[float, WeightedMeasure] = {}
    for direction in (1, -1):
        prev = None
        for tau in tau_grid[::direction]:
            model = ManifoldModel(model_kind, tau, f)  # schedules before any anneal
            runs = [] if tau in best else [(make_sched(model), None)]
            if prev is not None:
                runs.append((make_sched(model, restarts=1), prev))
            cands = [best[tau]] if tau in best else []
            cands += [anneal(model, m, sched, init) for sched, init in runs]
            best[tau] = prev = min(cands, key=lambda c: (action(model, c), c.support_size))

    rows = []
    for tau in tau_grid:
        model = ManifoldModel(model_kind, tau, f)
        reduced = _reduce_support(model, best[tau])
        merged = merge_clusters(model, reduced, _MERGE_RADIUS).measure
        report = analysis.certify(model, merged, tol=analysis._ANNEALED_TOL)
        rows.append(ScanRow(tau=tau, m=m, action=report.action,
                            support_size_after_merge=merged.support_size,
                            classification=report.classification.value,
                            el_residual=report.el_residual))
    return rows


def write_scan_csv(rows: list[ScanRow], fh) -> None:
    """Write the rows to the text handle fh as CSV, columns
    tau,m,action,support_size,classification,el_residual."""
    writer = csv.writer(fh)
    writer.writerow(["tau", "m", "action", "support_size", "classification", "el_residual"])
    for r in rows:
        writer.writerow([repr(r.tau), r.m, repr(r.action), r.support_size_after_merge,
                         r.classification, repr(r.el_residual)])
