import math
from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbnrg import numerics
from sbnrg.numerics import (
    DivergenceFit,
    FitError,
    fit_divergence,
    sym_eig,
)


def random_symmetric(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(5))
        npt.assert_allclose(dec.eigenvalues, np.ones(5))

    def test_pauli_x(self):
        dec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        npt.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_residual_and_orthogonality_bounds(self):
        a = random_symmetric(50, seed=1234)
        dec = sym_eig(a)
        scale = np.abs(a).max()
        resid = np.abs(a @ dec.vectors - dec.vectors * dec.eigenvalues).max()
        assert resid <= 1e-10 * scale
        ortho = np.abs(dec.vectors.T @ dec.vectors - np.eye(50)).max()
        assert ortho <= 1e-10

    def test_deterministic(self):
        a = random_symmetric(30, seed=5)
        d1 = sym_eig(a)
        d2 = sym_eig(a)
        assert d1.eigenvalues.tobytes() == d2.eigenvalues.tobytes()
        assert d1.vectors.tobytes() == d2.vectors.tobytes()

    def test_symmetric_input_goes_to_eigh_as_is(self):
        # the output is LAPACK's on the caller's array, and no more
        a = random_symmetric(40, seed=21)
        w, v = np.linalg.eigh(a)
        dec = sym_eig(a)
        assert dec.eigenvalues.tobytes() == w.tobytes()
        assert dec.vectors.tobytes() == v.tobytes()

    def test_tolerated_asymmetry_stays_within_weyl_bound(self):
        # LAPACK reads the lower triangle; that matrix differs from the
        # symmetric part by e, so each eigenvalue moves by at most |e|_2
        # plus both solves' rounding
        n = 40
        sym = random_symmetric(n, seed=8)
        noise = np.random.default_rng(4).uniform(-1.0, 1.0, (n, n))
        a = sym + 0.25e-13 * np.abs(sym).max() * (noise - noise.T)
        d = a - a.T
        assert 0 < np.abs(d).max() <= 1.01e-13 * np.abs(a).max()
        part = 0.5 * (a + a.T)
        e = np.tril(a) + np.tril(a, -1).T - part
        rounding = 4 * n * np.finfo(float).eps * np.linalg.norm(part, 2)
        bound = np.linalg.norm(e, 2) + rounding
        shift = np.abs(sym_eig(a).eigenvalues - np.linalg.eigvalsh(part)).max()
        assert shift <= bound

    def test_rejects_nonfinite(self):
        # every non-finite value, on and off the diagonal
        for bad in (np.nan, np.inf, -np.inf):
            for where in ((1, 1), (0, 2)):
                a = np.eye(3)
                a[where] = bad
                with pytest.raises(ValueError, match="finite"):
                    sym_eig(a)

    def test_rejects_asymmetric(self):
        a = np.eye(3)
        a[0, 2] = 0.5
        with pytest.raises(ValueError, match="asymmetry"):
            sym_eig(a)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            sym_eig(np.zeros((2, 3)))

    def test_empty_matrix(self):
        # reaches eigh, which returns the empty pair
        dec = sym_eig(np.zeros((0, 0)))
        assert dec.eigenvalues.shape == (0,) and dec.vectors.shape == (0, 0)

    @given(st.integers(0, 500))
    def test_trace_preserved(self, seed):
        a = random_symmetric(8, seed)
        dec = sym_eig(a)
        assert abs(dec.eigenvalues.sum() - np.trace(a)) <= 1e-10 * max(
            abs(np.trace(a)), 1.0
        )

    def test_diagonal_shift(self):
        a = random_symmetric(10, seed=77)
        base = sym_eig(a).eigenvalues
        shifted = sym_eig(a + 3.5 * np.eye(10)).eigenvalues
        npt.assert_allclose(shifted, base + 3.5, atol=1e-12)

    def test_ascending(self):
        dec = sym_eig(random_symmetric(20, seed=3))
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def line_fit(x, y):
    """Reference: one least-squares line y = a + b x in Python floats, as
    (a, b, rss), or None where x is flat."""
    npts = len(x)
    sx = float(x.sum())
    sxx = float((x * x).sum())
    det = npts * sxx - sx * sx
    if det <= 1e-14 * max(npts * sxx, sx * sx, 1.0):
        return None
    sy = float(y.sum())
    sxy = float((x * y).sum())
    b = (npts * sxy - sx * sy) / det
    a = (sy - b * sx) / npts
    r = y - a - b * x
    return a, b, float(r @ r)


class TestFitDivergence:
    alphas = (0.5, 0.6, 0.7, 0.8)

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_rows_are_one_line_fits(self, seed):
        # the pole scan scores its whole grid in one call; each row keeps the
        # bits of a fit of that line alone, on which fit.json's bytes rest
        rng = np.random.default_rng(seed)
        alphas = np.sort(rng.uniform(0.1, 1.0, 4 + 2 * seed))
        ns = 3.0 + 2.0 / (1.3 - alphas) + rng.uniform(-0.3, 0.3, alphas.size)
        grid = alphas.max() + 2.0 * np.arange(1, 2001) / 2000
        x = np.vstack([1.0 / (grid[:, None] - alphas), np.ones(alphas.size)])
        a, b, rss = numerics._fit_line(x, ns)
        for i, row in enumerate(x):
            ref = line_fit(row, ns)
            if ref is None:
                assert rss[i] == math.inf
            else:
                assert (a[i], b[i], rss[i]) == ref

    def exact_points(self):
        return [(a, 2.0 + 3.0 / (1.0 - a)) for a in self.alphas]

    def test_recovers_generating_model(self):
        fit = fit_divergence(self.exact_points())
        # every field a Python float, alpha_c too, which grid arithmetic makes
        assert all(type(getattr(fit, f.name)) is float for f in fields(fit))
        assert abs(fit.alpha_c - 1.0) < 1e-6
        assert fit.rss < 1e-10
        assert abs(fit.a - 2.0) < 1e-5
        assert abs(fit.b - 3.0) < 1e-5

    def test_noisy_data_stays_near_pole(self):
        # fixed-seed +-0.5 uniform perturbation; value locked after first run
        rng = np.random.default_rng(20260823)
        pts = [
            (a, 2.0 + 3.0 / (1.0 - a) + rng.uniform(-0.5, 0.5))
            for a in self.alphas
        ]
        fit = fit_divergence(pts)
        assert abs(fit.alpha_c - 1.0) < 0.1
        assert abs(fit.alpha_c - 1.00338092292922) < 1e-10

    @given(st.floats(-40.0, 40.0))
    def test_offset_shift_only_moves_a(self, k):
        base = fit_divergence(self.exact_points())
        shifted = fit_divergence([(a, n + k) for a, n in self.exact_points()])
        assert abs(shifted.a - (base.a + k)) < 1e-6 * max(1.0, abs(k))
        assert abs(shifted.b - base.b) < 1e-8 * max(1.0, abs(base.b))
        assert abs(shifted.alpha_c - base.alpha_c) < 1e-8

    def test_pole_above_data(self):
        fit = fit_divergence(self.exact_points())
        assert fit.alpha_c > max(self.alphas)
        assert fit.b > 0

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_divergence(self.exact_points()[:3])

    def test_duplicate_alphas(self):
        pts = self.exact_points()
        pts[1] = (pts[0][0], pts[1][1])
        with pytest.raises(FitError):
            fit_divergence(pts)

    def test_flat_data_rejected(self):
        with pytest.raises(FitError):
            fit_divergence([(a, 5.0) for a in self.alphas])

    def test_pole_scan_without_a_valid_candidate(self):
        # alphas 1e-12 apart: 1 / (alpha_c - alpha) is flat to the line fit
        # at every grid pole, so the scan finds none to refine
        pts = [(0.5 + k * 1e-12, n) for k, n in enumerate((1.0, 2.0, 3.0, 5.0))]
        with pytest.raises(FitError, match="pole scan found no valid candidate"):
            fit_divergence(pts)

    def test_converging_data_rejected(self):
        # n falls towards a pole above the data: the best fit has b < 0
        pts = [(a, 10.0 - 3.0 / (1.2 - a)) for a in (0.5, 0.6, 0.7, 0.8)]
        with pytest.raises(FitError, match="b = -3.000e\\+00 is not positive"):
            fit_divergence(pts)

    def test_nonfinite_rejected(self):
        pts = self.exact_points()
        pts[2] = (pts[2][0], float("nan"))
        with pytest.raises(FitError):
            fit_divergence(pts)
        # a window once fell through to "pole scan found no valid candidate"
        for window in (math.nan, math.inf):
            with pytest.raises(FitError, match=f"window must be finite, not {window}"):
                fit_divergence(self.exact_points(), window=window)
        for window in (0.0, -1.0):
            with pytest.raises(FitError, match="search window must be positive"):
                fit_divergence(self.exact_points(), window=window)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        pts = [(a, 4.0 + 2.0 / (1.1 - a) + rng.uniform(-0.2, 0.2))
               for a in self.alphas]
        f1 = fit_divergence(pts)
        f2 = fit_divergence(pts)
        assert (f1.a, f1.b, f1.alpha_c, f1.rss) == (f2.a, f2.b, f2.alpha_c, f2.rss)

    def test_result_type(self):
        fit = fit_divergence(self.exact_points())
        assert isinstance(fit, DivergenceFit)


def test_tolerance_record_fields():
    assert numerics.SYMMETRY_RTOL == 1e-12
    assert numerics.FIT_WINDOW == 2.0
