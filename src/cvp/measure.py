"""Probability measures, the action functional and the potentials.

Two measure representations are used: ``WeightedMeasure`` (support points
with non-negative weights summing to one, the optimization variable) and
``DensityMeasure`` (a zonal sphere density against the homogenizer, one
value per cos(theta) band).  The action of a weighted measure is the
double sum

    S = sum_ij w_i w_j L(x_i, x_j),

including the diagonal terms.  The potentials are

    ell(x) = sum_i w_i L(x, x_i)      (clamped kernel)
    d(x)   = sum_i w_i D(x, x_i)      (signed kernel, no clamping).

Density actions are evaluated spectrally: the Lagrangian profile is
expanded in Legendre polynomials with coefficients integrated in closed
form up to the lightcone kink, so the double integral reduces to a rapidly
converging series in the zonal moments of the density.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .manifold import (
    ManifoldModel,
    is_single_point,
    kernel_cross,
    lagrangian_matrix,
    sample_uniform,
    theta_max,
    validate_points,
)
from .spectral import fibonacci_sphere, legendre_band_integrals

_WEIGHT_TOL = 1e-12
_DENSITY_TOL = 1e-8
_DENSITY_LMAX = 480  # Legendre degree at which density_action truncates its series


@dataclass(frozen=True, eq=False)
class WeightedMeasure:
    """Finitely supported probability measure: points plus weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", np.asarray(self.points))
        if w.ndim != 1 or len(w) != len(self.points):
            raise ValueError("weights must be 1-d and match the point count")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < -_WEIGHT_TOL):
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "weights", np.maximum(w, 0.0))

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def support_size(self) -> int:
        return int(np.sum(self.weights > _WEIGHT_TOL))

    def pruned(self) -> "WeightedMeasure":
        """Drop zero-weight points and renormalize."""
        keep = self.weights > _WEIGHT_TOL
        if keep.all():
            return self
        w = self.weights[keep]
        return WeightedMeasure(self.points[keep], w / w.sum())


def action(model: ManifoldModel, m: WeightedMeasure) -> float:
    """S = sum_ij w_i w_j L(x_i, x_j), diagonal included."""
    g = lagrangian_matrix(model, m.points)
    return float(m.weights @ g @ m.weights)


def kernel_potential(model: ManifoldModel, m: WeightedMeasure, x):
    """d(x) = sum_i w_i D(x, x_i), without clamping; vectorized over a
    batch of x."""
    vals = kernel_cross(model, x, m.points) @ m.weights
    return float(vals[0]) if is_single_point(model, x) else vals


def probe_grid(model: ManifoldModel, n: int, seed) -> np.ndarray:
    """A deterministic n-point grid: equispaced angles on the circle, the
    Fibonacci lattice on the sphere, seeded Haar draws on the flag."""
    if model.kind == "circle":
        return 2.0 * np.pi * np.arange(n) / n
    if model.kind == "sphere":
        return fibonacci_sphere(n)
    return sample_uniform(model, n, seed=seed)


# ---------------------------------------------------------------------------
# zonal densities


@dataclass(frozen=True, eq=False)
class DensityMeasure:
    """A non-negative zonal density on the sphere against the homogenizer,
    constant on each cos(theta) band: ``values[k]`` on
    [edges[k], edges[k + 1]].  The edges rise strictly from -1 to 1, and the
    mass sum_k values[k] (edges[k + 1] - edges[k]) / 2 is 1."""

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "values", v)
        rising = e.ndim == 1 and len(e) > 1 and np.all(e[1:] > e[:-1])
        if not rising or e[0] != -1.0 or e[-1] != 1.0:
            raise ValueError("band edges must rise strictly from -1 to 1")
        if v.shape != (len(e) - 1,):
            raise ValueError("values must hold one value per band")
        if not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite")
        if np.any(v < -_DENSITY_TOL):
            raise ValueError("density values must be non-negative")
        total = 0.5 * float(v @ (e[1:] - e[:-1]))
        if abs(total - 1.0) > _DENSITY_TOL:
            raise ValueError(f"density mass {total} is not 1 within 1e-8")


def volume_action(model: ManifoldModel) -> float:
    """Closed-form action of the normalized volume measure.

    Sphere: 4 - 4/(3 tau^2).  Circle: (1/pi) * int_0^theta_max D,
    integrated from the Fourier form of D.
    """
    tau = model.tau
    if model.kind == "sphere":
        return 4.0 - 4.0 / (3.0 * tau**2)
    if model.kind == "circle":
        tm = theta_max(model)
        return (
            (4 * tau**2 - tau**4) * tm
            + 4 * tau**2 * np.sin(tm)
            + 0.5 * tau**4 * np.sin(2 * tm)
        ) / np.pi
    raise ValueError("no closed-form volume action on the flag manifold")


def _times_c(moments: np.ndarray) -> np.ndarray:
    """int c f P_l, l = 0 .. n - 1, from m_l = int f P_l, l = 0 .. n, by
    c P_l = ((l + 1) P_{l+1} + l P_{l-1}) / (2l + 1)."""
    ell = np.arange(len(moments) - 1)
    below = np.concatenate(([0.0], moments[:-2]))  # m_{l-1}; l m_{l-1} vanishes at l = 0
    return ((ell + 1) * moments[1:] + ell * below) / (2 * ell + 1)


def _lagrangian_legendre_coeffs(model: ManifoldModel, lmax: int) -> np.ndarray:
    """c_l with L(theta_xy) = sum_l c_l P_l(cos theta_xy), l = 0 .. lmax.

    L vanishes below the kink c_k = cos(theta_max) and above it equals
    D = 2 tau^2 (tau^2 c^2 + 2c + 2 - tau^2), so
    c_l = (2l + 1) tau^2 (tau^2 int c^2 P_l + 2 int c P_l + (2 - tau^2) int P_l)
    over [c_k, 1], in closed form: the exact band integrals of P_l up to
    degree lmax + 2, multiplied by c twice through the three-term recurrence.
    """
    ckink = 1.0 - 2.0 / model.tau**2  # in [-1, 1) for tau in [1, TAU_MAX]
    t2 = model.tau**2
    p0 = legendre_band_integrals(lmax + 2, [ckink, 1.0])[0]
    p1 = _times_c(p0)
    p2 = _times_c(p1)
    n = lmax + 1
    ell = np.arange(n)
    return (2 * ell + 1) * t2 * (t2 * p2 + 2.0 * p1[:n] + (2.0 - t2) * p0[:n])


def _zonal_legendre_moments(dm: DensityMeasure, lmax: int) -> np.ndarray:
    """fhat_l = int f(x) P_l(cos theta_x) dmu, l = 0 .. lmax, exact from the
    band integrals of P_l."""
    bands = legendre_band_integrals(lmax, dm.edges)
    return sum(v * 0.5 * band for v, band in zip(dm.values, bands))


def density_action(model: ManifoldModel, dm: DensityMeasure) -> float:
    """Action of a banded zonal sphere density d(rho) = f d(mu) as
    sum_l c_l fhat_l^2 up to degree 480."""
    if model.kind != "sphere":
        raise ValueError("density measures are supported on the sphere only")
    cl = _lagrangian_legendre_coeffs(model, _DENSITY_LMAX)
    fl = _zonal_legendre_moments(dm, _DENSITY_LMAX)
    return float(cl @ (fl * fl))


# ---------------------------------------------------------------------------
# serialization (shared with the CLI)


def measure_to_dict(model: ManifoldModel, m: WeightedMeasure) -> dict:
    d = {"manifold": model.kind, "tau": model.tau, "weights": m.weights.tolist()}
    if model.kind == "circle":
        d["points"] = [[float(a)] for a in m.points]
    elif model.kind == "sphere":
        d["points"] = [[float(c) for c in p] for p in m.points]
    else:
        d["f"] = model.f
        d["points"] = [
            {
                "u": [[float(z.real), float(z.imag)] for z in p[0]],
                "v": [[float(z.real), float(z.imag)] for z in p[1]],
            }
            for p in m.points
        ]
    return d


def measure_from_dict(d: dict) -> tuple[ManifoldModel, WeightedMeasure]:
    """Parse a measure document; a malformed one raises ValueError."""
    kind = d.get("manifold") if isinstance(d, dict) else None
    keys = {"manifold", "tau", "points", "weights"} | ({"f"} if kind == "flag" else set())
    if not isinstance(d, dict) or set(d) != keys:
        raise ValueError(f"a measure document is a JSON object with the keys {sorted(keys)}")
    try:
        if kind == "flag":
            model = ManifoldModel.flag(d["f"], d["tau"])
            points = np.array(
                [[[complex(re, im) for re, im in p[key]] for key in "uv"] for p in d["points"]]
            )
        else:
            model = ManifoldModel(kind, float(d["tau"]))
            points = np.asarray(d["points"], dtype=float)
            width = 1 if kind == "circle" else 3
            if points.ndim != 2 or points.shape[1] != width:
                raise ValueError(f"{kind} points must be lists of {width} coordinates")
            points = points[:, 0] if kind == "circle" else points
        weights = np.asarray(d["weights"], dtype=float)
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed {kind} measure: {exc!r}") from exc
    return model, WeightedMeasure(validate_points(model, points), weights)


def load_measure(path) -> tuple[ManifoldModel, WeightedMeasure]:
    with open(path) as fh:
        return measure_from_dict(json.load(fh))
