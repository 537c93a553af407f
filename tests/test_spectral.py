import numpy as np
import pytest
from numpy.polynomial.legendre import Legendre

from cvp.spectral import legendre_all, legendre_band_integrals


def textbook_legendre(lmax, x):
    """P_0 .. P_lmax by the out-of-place three-term recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.empty((lmax + 1,) + x.shape)
    out[0] = 1.0
    if lmax > 0:
        out[1] = x
    for l in range(1, lmax):
        out[l + 1] = ((2 * l + 1) * x * out[l] - l * out[l - 1]) / (l + 1)
    return out


def textbook_band(lmax, a, b):
    """int_a^b P_l for l = 0 .. lmax, one band at a time."""
    p = textbook_legendre(lmax + 1, np.array([a, b]))
    out = np.empty(lmax + 1)
    out[0] = b - a
    for l in range(1, lmax + 1):
        out[l] = (p[l + 1, 1] - p[l - 1, 1] - p[l + 1, 0] + p[l - 1, 0]) / (2 * l + 1)
    return out


class TestLegendreAll:
    def test_matches_textbook_recurrence(self):
        x = np.linspace(-1.0, 1.0, 1001)
        assert np.array_equal(legendre_all(480, x), textbook_legendre(480, x))

    @pytest.mark.parametrize("shape", [(), (3, 4), (0,)])
    def test_shapes(self, shape):
        x = np.random.default_rng(0).uniform(-1, 1, shape)
        got = legendre_all(7, x)
        assert got.shape == (8,) + shape
        assert np.array_equal(got, textbook_legendre(7, x))

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 17, 64])
    def test_few_and_many_points_agree(self, n):
        # up to 16 points recur on Python floats, more on numpy rows; both
        # give the textbook bits, also at +-1, -0, NaN, inf and off [-1, 1]
        special = [1.0, -1.0, -0.0, np.nan, np.inf, 3.0, -1e200]
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        x[: min(n, len(special))] = special[:n]
        with np.errstate(all="ignore"):
            ref = textbook_legendre(480, x)
            got = legendre_all(480, x)
            single = [legendre_all(480, x[j : j + 1])[:, 0] for j in range(n)]
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.stack(single, axis=1), ref, equal_nan=True)

    @pytest.mark.parametrize("n", [1, 16, 17, 1001])
    @pytest.mark.parametrize("steps", [(0, 480), (1, 2, 3, 480), (5, 5, 6, 9, 11, 57)])
    def test_continued_table_is_the_full_one(self, n, steps):
        # extending a table from its last rows gives the bits of one built
        # from degree 0, on both recurrence paths; an empty table is none
        x = np.linspace(-1.0, 1.0, n)
        table = np.empty((0, n))
        for lmax in steps:
            table = legendre_all(lmax, x, below=table)
            assert np.array_equal(table, textbook_legendre(lmax, x))

    def test_continued_table_keeps_the_given_rows(self):
        # the rows given are copied, not recomputed: a marked row stays
        x = np.linspace(-1.0, 1.0, 20)
        below = legendre_all(4, x)
        below[2] = 7.0
        got = legendre_all(6, x, below=below)
        assert np.array_equal(got[:5], below)
        with pytest.raises(ValueError):
            legendre_all(3, x, below=below)

    @pytest.mark.parametrize("lmax", [0, 1, 2])
    def test_low_degrees(self, lmax):
        x = np.array([-0.5, 0.25])
        assert np.array_equal(legendre_all(lmax, x), textbook_legendre(lmax, x))


class TestBandIntegrals:
    def test_matches_per_band_evaluation(self):
        edges = np.sort(np.random.default_rng(1).uniform(-1.0, 1.0, 7))
        got = legendre_band_integrals(480, edges)
        assert got.shape == (6, 481)
        for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            assert np.array_equal(got[k], textbook_band(480, a, b))
            assert np.array_equal(got[k], legendre_band_integrals(480, [a, b])[0])

    @pytest.mark.parametrize("seed", [2, 3])
    def test_matches_polynomial_antiderivative(self, seed):
        edges = np.sort(np.random.default_rng(seed).uniform(-1.0, 1.0, 5))
        got = legendre_band_integrals(60, edges)
        for l in range(61):
            antiderivative = Legendre.basis(l).integ()
            want = antiderivative(edges[1:]) - antiderivative(edges[:-1])
            assert np.max(np.abs(got[:, l] - want)) <= 1e-13
