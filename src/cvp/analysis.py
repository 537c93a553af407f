"""Certification of candidate minimizers and action bounds.

A minimizer must satisfy the Euler-Lagrange condition (the potential ell
is constant on the support and nowhere smaller), and the Gram matrix of L
on any finite subset of its support must be positive semi-definite.  A
measure is classified generically timelike when no support pair is
spacelike and the signed potential d is globally constant.

Lower bounds: the constant eigenvalue nu_0 of the kernel operator against
the uniform measure (valid while that operator is positive semi-definite),
and a dominated difference of two heat kernels K <= L with positive
spectral coefficients, giving S_K = lambda (1 - delta).  Upper bounds:
actions of test measures (volume measure, equal-weight packings, the best
measure found by annealing).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .manifold import (
    ManifoldModel,
    _integer_at_least,
    kernel_cross,
    kernel_matrix,
    lagrangian_matrix,
    lagrangian_profile,
    theta_max,
)
from .measure import WeightedMeasure, action, probe_grid, volume_action
from .spectral import legendre_all, real_sphere_harmonics

_FLAG_TEST_SEED = 20240  # fixed stream for the deterministic flag test grid
_TEST_GRID = 2048  # points of the test grid every certificate checks ell and d on
_EXACT_TOL = 1e-6  # certify's tolerance for exact constructions
_ANNEALED_TOL = 1e-2  # certify's tolerance for annealed measures
_HEAT_TIMES = (0.01, 2.0, 14)  # default heat-time grid: geomspace(t_min, t_max, count)


class Classification(enum.Enum):
    GENERICALLY_TIMELIKE = "generically_timelike"
    SINGULAR_CANDIDATE = "singular_candidate"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class CertificateReport:
    action: float
    el_residual: float
    gram_min_eig: float
    classification: Classification
    moment_residuals: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "el_residual": self.el_residual,
            "gram_min_eig": self.gram_min_eig,
            "classification": self.classification.value,
            "moment_residuals": list(self.moment_residuals),
        }


def _moment_residuals(model: ManifoldModel, m: WeightedMeasure) -> tuple[float, ...]:
    """|integral of the closed-form eigenfunctions| against the measure.

    Circle: e^{i theta}, e^{2 i theta}; sphere: real harmonics for l = 1, 2.
    No closed-form basis is implemented on the flag manifold, so the tuple
    is empty there.
    """
    if model.kind == "circle":
        z = np.exp(1j * m.points)
        return (
            float(abs(np.sum(m.weights * z))),
            float(abs(np.sum(m.weights * z * z))),
        )
    if model.kind == "sphere":
        ylm = real_sphere_harmonics(m.points)
        return tuple(float(abs(v)) for v in ylm @ m.weights)
    return ()


def certify(
    model: ManifoldModel,
    m: WeightedMeasure,
    tol: float = _EXACT_TOL,
) -> CertificateReport:
    """Euler-Lagrange residual, Gram eigenvalue and causal classification.

    ell and d are checked on the deterministic 2048-point test grid of
    ``probe_grid``.  The classification uses the relative tolerance
    tol * 8 tau^2 on both the pairwise-sign condition and the constancy of
    d over that grid; use ~1e-6 for exact constructions and ~1e-2 for
    annealed measures.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0 (got {tol!r})")
    scale = model.kernel_scale
    w = m.weights
    kmat = kernel_matrix(model, m.points)
    gmat = np.maximum(0.0, kmat)
    S = float(w @ gmat @ w)
    ell_supp = gmat @ w
    supp = w > 0
    grid = probe_grid(model, _TEST_GRID, _FLAG_TEST_SEED)
    cross = kernel_cross(model, grid, m.points)
    ell_grid = np.maximum(0.0, cross) @ w
    d_grid = cross @ w
    el_residual = float(np.max(np.abs(ell_supp[supp] - S))) + max(
        0.0, S - float(np.min(ell_grid))
    )
    pairs_ok = bool(np.min(kmat) >= -tol * scale)
    d_const = bool(np.max(np.abs(d_grid - S)) <= tol * scale)
    if pairs_ok and d_const:
        cls = Classification.GENERICALLY_TIMELIKE
    elif not pairs_ok:
        cls = Classification.SINGULAR_CANDIDATE
    else:
        cls = Classification.UNCLASSIFIED
    eigs = np.linalg.eigvalsh(gmat)
    return CertificateReport(
        action=S,
        el_residual=el_residual,
        gram_min_eig=float(eigs[0]),
        classification=cls,
        moment_residuals=_moment_residuals(model, m),
    )


def gt_obstruction_conflict(model: ManifoldModel, report: CertificateReport) -> bool:
    """True when a generically-timelike certificate contradicts the
    antipodal obstruction (tau > sqrt 2), flagging an inconsistency."""
    if model.kind == "flag":
        return False
    return (
        report.classification is Classification.GENERICALLY_TIMELIKE
        and antipodal_obstruction(model)
    )


def gram_min_eigenvalue(model: ManifoldModel, points) -> float:
    """Smallest eigenvalue of (L(x_i, x_j))_ij by symmetric eigensolve."""
    n = len(points)
    if not 1 <= n <= 1000:
        raise ValueError("need 1 <= n <= 1000 points")
    return float(np.linalg.eigvalsh(lagrangian_matrix(model, points))[0])


# ---------------------------------------------------------------------------
# spectral closed forms


@dataclass(frozen=True)
class SpectralEigenvalues:
    nu0: float
    nu1: float | None
    nu2: float | None


def spectral_closed_form(model: ManifoldModel) -> SpectralEigenvalues:
    """Eigenvalues of the kernel operator against the uniform measure.

    Circle: (4 tau^2 - tau^4, 2 tau^2, tau^4 / 2); sphere:
    (4 tau^2 - 4 tau^4 / 3, 4 tau^2 / 3, 4 tau^4 / 15); flag: only the
    constant eigenvalue 2 (3f + 6 f tau^2 - (2+f) tau^4 - 6) / (f (f^2-1)).
    """
    t2 = model.tau**2
    t4 = t2 * t2
    if model.kind == "circle":
        return SpectralEigenvalues(4 * t2 - t4, 2 * t2, t4 / 2)
    if model.kind == "sphere":
        return SpectralEigenvalues(4 * t2 - 4 * t4 / 3, 4 * t2 / 3, 4 * t4 / 15)
    f = model.f
    nu0 = 2.0 * (3 * f + 6 * f * t2 - (2 + f) * t4 - 6) / (f * (f * f - 1))
    return SpectralEigenvalues(nu0, None, None)


@dataclass(frozen=True)
class Nu0Bound:
    value: float
    valid: bool


def nu0_lower_bound(model: ManifoldModel) -> Nu0Bound:
    """S_min >= nu0, valid while the kernel operator is PSD.

    Circle: tau <= 2; sphere: tau <= sqrt(3); flag: never valid (the
    operator has negative eigenvalues for every tau > 1).
    """
    nu0 = spectral_closed_form(model).nu0
    if model.kind == "circle":
        return Nu0Bound(nu0, model.tau <= 2.0)
    if model.kind == "sphere":
        return Nu0Bound(nu0, model.tau <= math.sqrt(3.0))
    return Nu0Bound(nu0, False)


def antipodal_obstruction(model: ManifoldModel) -> bool:
    """True iff tau > sqrt(2): the closed lightcone is a cap plus the
    antipode, with the two caps disjoint, so no generically timelike
    minimizer exists."""
    if model.kind == "flag":
        raise ValueError("the antipodal obstruction applies to circle/sphere")
    return model.tau > math.sqrt(2.0)


def flag_gt_threshold(f: int) -> float:
    """Coupling above which no generically timelike flag minimizer exists:
    tau* = sqrt((3f + 2 sqrt(3 (f^2 - 1))) / (2 + f))."""
    f = _integer_at_least(f, "f", 3)
    return math.sqrt((3 * f + 2 * math.sqrt(3 * (f * f - 1))) / (2 + f))


# ---------------------------------------------------------------------------
# heat-kernel lower bound


_HEAT_SERIES_TOL = 1e-12
_HEAT_MAX_DEGREE = 1_000  # deepest heat series summed; on the check grid its table is 80 MB
_HEAT_CHECK_GRID = 10_000  # angles over [0, pi] on which K <= L is checked


def _heat_lmax(t: float) -> int:
    """Truncation degree of h_t, for finite t > 0: the first l whose term
    bound (2l+1) exp(-t l (l+1)) is below 1e-12; ValueError past
    ``_HEAT_MAX_DEGREE``."""
    l = 0
    while (2 * l + 1) * math.exp(-t * l * (l + 1)) >= _HEAT_SERIES_TOL:
        l += 1
        if l > _HEAT_MAX_DEGREE:
            raise ValueError(
                f"the heat-kernel series at t = {t:g} needs more than {_HEAT_MAX_DEGREE} "
                "Legendre degrees; t too small"
            )
    return l


def _heat_coeffs(t: float) -> np.ndarray:
    """Legendre coefficients (2l+1) exp(-t l (l+1)) of the heat kernel h_t,
    l = 0 .. its truncation degree: h_t(theta) = sum_l c_l P_l(cos theta),
    whose double integral against the uniform measure is 1."""
    ell = np.arange(_heat_lmax(t) + 1)
    return (2 * ell + 1) * np.exp(-t * ell * (ell + 1))


@dataclass(frozen=True)
class HeatKernelBound:
    t1: float
    t2: float
    delta: float
    lam: float
    s_k: float
    dominated: bool

    def to_dict(self) -> dict:
        return {
            "t1": self.t1,
            "t2": self.t2,
            "delta": self.delta,
            "lambda": self.lam,
            "s_k": self.s_k,
            "dominated": self.dominated,
        }


def _heat_bounds(model: ManifoldModel, pairs):
    """Yield the ``HeatKernelBound`` of every pair (t1, t2) of ``pairs``
    that can dominate, best-first and grid-checked.

    Each pair is calibrated from endpoint values alone: K = lambda (h_t1 -
    delta h_t2) with K(0) = L(0) and K(theta_max) = 0, S_K = lambda (1 -
    delta), and lambda = inf when singular.  h_t at an angle is c @
    legendre_all(len(c) - 1, cos theta), c = ``_heat_coeffs(t)``.  The
    endpoints come from one two-point Legendre table whose columns are made
    contiguous, so they are that product at the single angle 0 or
    theta_max bit for bit.
    A pair can dominate when 0 < delta < 1 and 0 < lambda < inf; those come
    by decreasing S_K (a stable sort: ties keep the order of ``pairs``),
    ``dominated`` set when K <= L + 1e-9 on the ``_HEAT_CHECK_GRID`` =
    10,000 angles over [0, pi].  h_t on the grid is formed once per checked
    time, from one Legendre table only as deep as the deepest of those
    times, extended by ``legendre_all(..., below=)`` when a time needs more,
    so each degree is computed once per call; a row of the recurrence does
    not depend on where it stops, so the profiles are that product on the
    grid bit for bit.  The grid is not built before the first checked pair
    is asked for.
    """
    coeffs = {t: _heat_coeffs(t) for t in {t for pair in pairs for t in pair}}
    ends = legendre_all(max(map(len, coeffs.values()), default=1) - 1,
                        np.cos([0.0, theta_max(model)]))
    h0, hm = (np.ascontiguousarray(ends[:, j : j + 1]) for j in (0, 1))
    at_ends = {t: (float((c @ h0[: len(c)])[0]), float((c @ hm[: len(c)])[0]))
               for t, c in coeffs.items()}
    ranked = []
    for t1, t2 in pairs:
        (h10, h1m), (h20, h2m) = at_ends[t1], at_ends[t2]
        delta = h1m / h2m
        denom = h10 - delta * h20
        lam = model.kernel_scale / denom if denom != 0 else math.inf
        if 0.0 < delta < 1.0 and 0.0 < lam < math.inf:
            ranked.append((t1, t2, delta, lam, lam * (1.0 - delta)))
    ranked.sort(key=itemgetter(4), reverse=True)
    if ranked:
        theta = np.linspace(0.0, np.pi, _HEAT_CHECK_GRID)
        lvals = lagrangian_profile(model, theta) + 1e-9  # K <= L to 1e-9, added once
        x = np.cos(theta)
        table, prof = np.empty((0, _HEAT_CHECK_GRID)), {}
    for t1, t2, delta, lam, s_k in ranked:
        for t in (t1, t2):
            if t not in prof:
                c = coeffs[t]
                if len(c) > len(table):
                    table = legendre_all(len(c) - 1, x, below=table)
                prof[t] = c @ table[: len(c)]
        dominated = bool(np.all(lam * (prof[t1] - delta * prof[t2]) <= lvals))
        yield HeatKernelBound(t1, t2, delta, lam, s_k, dominated)


def optimize_heat_params(model: ManifoldModel, t_grid) -> HeatKernelBound | None:
    """The dominated (t1 < t2) pair of the grid times with the largest S_K,
    the first in (t1, t2) order on a tie; None when no pair is dominated.

    Repeated times are dropped; a time that is not finite and positive
    raises ValueError.  The first dominated bound of the best-first
    ``_heat_bounds`` is the pair, and the ``HeatKernelBound``, that checking
    every pair would pick; only the checked pairs' times reach the grid.
    """
    if model.kind != "sphere":
        raise ValueError("the heat-kernel bound is formulated on the sphere")
    t_grid = sorted({float(t) for t in t_grid})
    if not all(0.0 < t < math.inf for t in t_grid):
        raise ValueError("heat times must be finite and > 0")
    bounds = _heat_bounds(model, list(itertools.combinations(t_grid, 2)))
    return next((hb for hb in bounds if hb.dominated), None)


# ---------------------------------------------------------------------------
# upper bounds and packings


def _unit_rows(pts, what: str) -> np.ndarray:
    """pts normalized, when there is at least one row and each row is a
    3-vector within 1e-6 of unit norm."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ValueError(f"{what} must be a non-empty array of unit 3-vectors")
    norms = np.linalg.norm(pts, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-6):  # a NaN norm fails here too
        raise ValueError(f"{what} points must be unit vectors within 1e-6")
    return pts / norms[:, None]


def tammes_upper_bound(model: ManifoldModel, packing) -> float:
    """Action of the equal-weight measure on a packing (an upper bound for
    the minimal action; the caller minimizes over ingested packings)."""
    if model.kind != "sphere":
        raise ValueError("packing bounds are formulated on the sphere")
    pts = _unit_rows(packing, "packing")
    k = len(pts)
    return action(model, WeightedMeasure(pts, np.full(k, 1.0 / k)))


def load_packing(path) -> np.ndarray:
    """Parse a packing file: one point per line, three whitespace-separated
    coordinates; '#' starts a comment; points within 1e-6 of unit norm are
    normalized, anything else is rejected."""
    pts = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 coordinates")
            try:
                vec = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad coordinate") from exc
            pts.append(vec)
    return _unit_rows(pts, f"{path}:")


# ---------------------------------------------------------------------------
# flag-manifold Monte Carlo


_MC_BLOCK = 8192  # Haar samples per block of the flag Monte Carlo


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    std_error: float


def nu0_monte_carlo(model: ManifoldModel, n: int, seed) -> MonteCarloEstimate:
    """Sample mean of D(x, y) over n i.i.d. Haar pairs of flag points;
    n must be an integer >= 2, else ValueError.

    D is unitarily invariant, D(Ux, Uy) = D(x, y), so for independent Haar
    x and y, D(x, y) has the law of D(x0, y) at the fixed point
    x0 = (e1, e2).  A Haar point (u, v) is u uniform on the unit sphere of
    C^f and, given u, v uniform on the unit sphere of u-perp.  D(x0, .) and
    that law are both unchanged by the phases of u and of v, by
    diag(e^{ia}, e^{ib}) on coordinates 1 and 2 and by any unitary of the
    tail coordinates 3..f.  So each sample is the kernel at x0 on the
    representative pair

        u = (|z_1|, |z_2|, |z_t|, 0, ...) / |z|,
        v = (gamma_1 f_1 + gamma_2 f_2 + s e_4) / |g|,

    drawn with its exact law.  Here f_1, f_2 is the real orthonormal frame
    of span(P e_1, P e_2), P = I - uu*: f_1 = P e_1 / r_1 with
    r_1^2 = 1 - u_1^2, and f_2 the unit vector along
    P e_2 - <f_1, P e_2> f_1; e_4 spans the rest of u-perp up to a tail
    unitary.  |z_1|^2, |z_2|^2 and gamma_1^2 / 2 are standard
    exponentials, |z_t|^2 a standard Gamma(f - 2), gamma_2 = a + ib a
    complex normal (a, b standard normal), s^2 / 2 a standard
    Gamma(f - 3), absent at f = 3, and |g|^2 = gamma_1^2 + |gamma_2|^2 + s^2.
    v's phase makes gamma_1 real.  That is 6 draws per sample at f = 3 and
    7 at any f >= 4, two of them normals.

    In the frame, v_1 = gamma_1 r_1 / |g| and
    v_2 = (gamma_2 u_t - gamma_1 u_1 u_2) / (r_1 |g|), and X0 lives in the
    top-left 2 x 2 block, so with A = 1 + tau, B = 1 - tau and
    Y = A uu* + B vv* on coordinates 1 and 2 a sample is the closed form

        D = (A Y_11 - B Y_22)^2 / 2 + 2 A B |Y_12|^2,

    which agrees with the kernel at x0 on the representative pair to
    rounding, not bit for bit.  The draws come from ``SFC64(seed)``, so the
    estimate is deterministic per seed; the standard error comes from the
    sample variance.

    The samples are drawn in blocks of ``_MC_BLOCK`` = 8192 (the last one
    shorter) into a buffer allocated once per call, and evaluated in place.
    A block of k samples reads from the stream, in order: standard
    exponentials (3, k) for |z_1|^2, |z_2|^2, gamma_1^2 / 2; standard
    normals (2, k) for Re gamma_2, Im gamma_2; Gamma(f - 2) (k,) for
    |z_t|^2; and for f >= 4 Gamma(f - 3) (k,) for s^2 / 2.  The working set
    is one block and four work rows plus 8 bytes per sample.
    """
    if model.kind != "flag":
        raise ValueError("Monte Carlo nu0 is for the flag manifold")
    count = _integer_at_least(n, "n", 2)
    vals = _nu0_samples(model.f, model.tau, count, seed)
    return MonteCarloEstimate(
        float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(count))
    )


def _nu0_samples(f: int, tau: float, n: int, seed) -> np.ndarray:
    """The n samples D(x0, y) of ``nu0_monte_carlo``, in stream order.

    With zz = |z|^2, rr = zz r_1^2 = |z_2|^2 + |z_t|^2 (no cancellation as
    u_1 -> 1), m = zz u_1 u_2 = |z_1 z_2| and w = zz r_1 |g| v_2 =
    gamma_2 sqrt(|z_t|^2 zz) - gamma_1 m, the scaled block entries are

        zz (A Y_11 - B Y_22) = A (A |z_1|^2 - B |z_2|^2)
                               + (B / |g|^2) (A gamma_1^2 rr - B |w|^2 / rr),
        zz Y_12 = A m + (B / |g|^2) gamma_1 conj(w),

    and a sample is D = ((zz (A Y_11 - B Y_22))^2 / 2 + 2 A B |zz Y_12|^2) / zz^2.
    """
    A, B = 1.0 + tau, 1.0 - tau
    rng = np.random.Generator(np.random.SFC64(seed))
    size = min(n, _MC_BLOCK)
    width = 6 if f == 3 else 7  # draws per sample
    # flat, so that the short last block is a contiguous prefix too
    draws = np.empty(width * size)
    work = np.empty(4 * size)
    vals = np.empty(n)
    for lo in range(0, n, _MC_BLOCK):
        k = min(_MC_BLOCK, n - lo)
        block = draws[: width * k].reshape(width, k)
        rng.standard_exponential(out=block[:3])
        rng.standard_normal(out=block[3:5])
        rng.standard_gamma(f - 2, out=block[5])
        if f > 3:
            rng.standard_gamma(f - 3, out=block[6])
        # |z_1|^2, |z_2|^2, gamma_1^2 / 2, gamma_2 = p + iq, |z_t|^2; a row is
        # reused in place once its value is spent, and each comment names
        # what a line leaves in its row
        z1, z2, g1, p, q, zt = block[:6]
        m, rr, zz, x = work[: 4 * k].reshape(4, k)
        d = vals[lo : lo + k]
        g1 *= 2.0  # g1: gamma_1^2
        np.multiply(p, p, out=x)
        np.multiply(q, q, out=m)
        x += m
        x += g1
        if f > 3:
            block[6] *= 2.0
            x += block[6]  # x: |g|^2
        np.add(z2, zt, out=rr)
        np.add(rr, z1, out=zz)
        np.multiply(z1, z2, out=m)
        np.sqrt(m, out=m)  # m: |z_1 z_2| = zz u_1 u_2
        z1 *= A * A
        z2 *= A * B
        z1 -= z2  # z1: A (A |z_1|^2 - B |z_2|^2)
        zt *= zz
        np.sqrt(zt, out=zt)  # zt: sqrt(|z_t|^2 zz)
        np.multiply(zz, zz, out=d)  # d: zz^2
        np.sqrt(g1, out=z2)  # z2: gamma_1
        g1 *= rr
        g1 *= A  # g1: A gamma_1^2 rr
        p *= zt
        q *= zt
        np.multiply(z2, m, out=zt)
        p -= zt  # p, q: w
        np.multiply(p, p, out=zt)
        np.multiply(q, q, out=zz)
        zt += zz
        zt /= rr
        zt *= B
        g1 -= zt  # g1: A gamma_1^2 rr - B |w|^2 / rr
        np.divide(B, x, out=x)  # x: B / |g|^2
        g1 *= x
        z1 += g1  # z1: zz (A Y_11 - B Y_22)
        z2 *= x
        p *= z2
        q *= z2  # q: -Im zz Y_12
        m *= A
        m += p  # m: Re zz Y_12
        m *= m
        q *= q
        m += q
        m *= 2.0 * A * B
        z1 *= z1
        z1 *= 0.5
        z1 += m
        np.divide(z1, d, out=d)
    return vals


# ---------------------------------------------------------------------------
# assembled bounds report


@dataclass(frozen=True)
class BoundsReport:
    tau: float
    nu0: Nu0Bound
    heat: HeatKernelBound | None
    volume_upper: float
    tammes_upper: float | None
    best_found: float | None

    def lower_bounds(self) -> list[float]:
        out = []
        if self.nu0.valid:
            out.append(self.nu0.value)
        if self.heat is not None and self.heat.dominated:
            out.append(self.heat.s_k)
        return out

    def upper_bounds(self) -> list[float]:
        out = [self.volume_upper]
        if self.tammes_upper is not None:
            out.append(self.tammes_upper)
        if self.best_found is not None:
            out.append(self.best_found)
        return out

    def sandwich_gap(self) -> float:
        """min(upper) - max(lower); non-negative (to 1e-9) when consistent."""
        lowers = self.lower_bounds()
        if not lowers:
            return math.inf
        return min(self.upper_bounds()) - max(lowers)

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "nu0": {"value": self.nu0.value, "valid": self.nu0.valid},
            "heat_kernel": None if self.heat is None else self.heat.to_dict(),
            "volume_upper": self.volume_upper,
            "tammes_upper": self.tammes_upper,
            "best_found": self.best_found,
        }


def bounds_report(
    model: ManifoldModel,
    packings=(),
    best_found: float | None = None,
    t_grid=None,
) -> BoundsReport:
    """Assemble all closed-form bounds at one tau (sphere)."""
    if model.kind != "sphere":
        raise ValueError("bounds reports are formulated on the sphere")
    if t_grid is None:
        t_grid = np.geomspace(*_HEAT_TIMES)
    tammes = None
    for packing in packings:
        val = tammes_upper_bound(model, packing)
        tammes = val if tammes is None else min(tammes, val)
    return BoundsReport(
        tau=model.tau,
        nu0=nu0_lower_bound(model),
        heat=optimize_heat_params(model, t_grid),
        volume_upper=volume_action(model),
        tammes_upper=tammes,
        best_found=best_found,
    )
