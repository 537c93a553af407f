"""Legendre polynomials and band integrals, the Fibonacci sphere grid and
the real spherical harmonics, shared by the measure and analysis modules."""

from __future__ import annotations

import numpy as np

# up to this many points, legendre_all recurs per point on Python floats: five
# numpy calls per degree cost more than the arithmetic below about 16 points
_FEW_POINTS = 16


def legendre_all(lmax: int, x, below=None) -> np.ndarray:
    """P_0 .. P_lmax evaluated at x, shape (lmax+1,) + x.shape.

    Three-term recurrence P_{l+1} = ((2l+1) x P_l - l P_{l-1}) / (l+1);
    O(lmax * len(x)), stable on [-1, 1].  Each degree is written into its
    row in place, with one scratch row for l P_{l-1}, by the same
    element-wise operations in the same order as the out-of-place
    expression, so the table is bit for bit the same without four
    temporaries per degree.  At most ``_FEW_POINTS`` points recur one by
    one on Python floats, again by the same IEEE operations in the same
    order, so the bits are the same there too.  Every value depends only on
    its own x, so a point's column does not depend on which other points
    are evaluated.

    ``below``, if given, is an earlier table of this function at the same
    x with at most lmax + 1 rows: its rows are copied and the recurrence
    continues from its last two, so only the missing degrees are computed
    and the table is bit for bit the one built from degree 0.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((lmax + 1,) + x.shape)
    rows = out.reshape(lmax + 1, x.size)  # a view, so 0-d x also has writable rows
    xs = x.reshape(-1)
    done = 0 if below is None else len(below)
    if done:  # more rows than lmax + 1 do not broadcast: ValueError
        out[:done] = below
    else:
        rows[0] = 1.0
    if lmax == 0:
        return out
    if done < 2:
        rows[1] = xs
    first = max(done, 2) - 1  # the first l whose P_{l+1} is computed
    if xs.size <= _FEW_POINTS:
        starts = zip(xs.tolist(), rows[first - 1].tolist(), rows[first].tolist())
        for j, (xj, p0, p1) in enumerate(starts):
            col = []
            for l in range(first, lmax):
                p0, p1 = p1, (xj * (2 * l + 1) * p1 - p0 * l) / (l + 1)
                col.append(p1)
            rows[first + 1 :, j] = col
        return out
    scratch = np.empty_like(xs)
    for l in range(first, lmax):
        row = rows[l + 1]
        np.multiply(xs, 2 * l + 1, out=row)
        row *= rows[l]
        np.multiply(rows[l - 1], l, out=scratch)
        row -= scratch
        row /= l + 1
    return out


def legendre_band_integrals(lmax: int, edges) -> np.ndarray:
    """Exact integrals of P_l over each band [e_k, e_{k+1}] of ``edges``,
    l = 0 .. lmax, shape (len(edges) - 1, lmax + 1).

    Uses int_a^b P_l = ((P_{l+1}(b) - P_{l-1}(b)) - P_{l+1}(a)) + P_{l-1}(a),
    over 2l + 1, with one ``legendre_all`` table over all edges; a band's
    row equals the one computed from its two edges alone, bit for bit.
    """
    edges = np.asarray(edges, dtype=float)
    p = legendre_all(lmax + 1, edges)
    plus, minus = p[2:], p[:-2]  # P_{l+1}, P_{l-1} for l = 1 .. lmax
    out = np.empty((len(edges) - 1, lmax + 1))
    out[:, 0] = edges[1:] - edges[:-1]
    out[:, 1:] = (
        ((plus[:, 1:] - minus[:, 1:]) - plus[:, :-1]) + minus[:, :-1]
    ).T / np.arange(3, 2 * lmax + 2, 2)
    return out


def fibonacci_sphere(n: int) -> np.ndarray:
    """n quasi-uniform points on S^2 (golden-angle spiral)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def real_sphere_harmonics(points: np.ndarray) -> np.ndarray:
    """Real spherical harmonics for l = 1, 2, shape (8, n).

    They are orthonormal against the area measure dA: int Y_a Y_b dA =
    delta_ab.  Against the probability measure dmu = dA / (4 pi) their Gram
    is int Y_a Y_b dmu = delta_ab / (4 pi); only the vanishing of the
    integrals matters for moment residuals.
    """
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    c1 = np.sqrt(3.0 / (4.0 * np.pi))
    c2 = 0.5 * np.sqrt(15.0 / np.pi)
    c20 = 0.25 * np.sqrt(5.0 / np.pi)
    return np.stack(
        [
            c1 * x,
            c1 * y,
            c1 * z,
            c2 * x * y,
            c2 * y * z,
            c2 * x * z,
            0.5 * c2 * (x * x - y * y),
            c20 * (3.0 * z * z - 1.0),
        ]
    )
