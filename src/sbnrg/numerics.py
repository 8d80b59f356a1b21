"""Numerical kernels: symmetric eigensolver and divergence fit.

Everything here is deterministic for fixed inputs. The eigensolver
returns LAPACK's symmetric driver's output as it comes: its bits repeat
because BLAS is pinned to one thread and every caller builds its matrix
in a fixed order, and no output reads an eigenvector's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "DivergenceFit",
    "FitError",
    "sym_eig",
    "fit_divergence",
]

# Largest dense matrix dimension accepted: NrgConfig bounds n_s * n_b by
# it, and the test oracle its product-basis dimension. A float64 matrix
# of dimension 8192 takes 0.5 GiB, and the NRG's degeneracy extension can
# keep up to 2 n_s states, doubling its H. The largest NRG config in use
# (n_s = 300, n_b = 12) needs 3600.
MAX_DENSE_DIM = 8192
SYMMETRY_RTOL = 1e-12  # max relative asymmetry sym_eig accepts
FIT_MIN_POINTS = 4  # fewest (alpha, n_star) points fit_divergence accepts
FIT_WINDOW = 2.0  # default search window above max(alpha) for the pole
FIT_GRID_POINTS = 2000  # coarse grid size of the pole scan
FIT_GOLDEN_ITERS = 90  # fixed golden-section refinement count (determinism)


class FitError(RuntimeError):
    """Divergence fit could not locate a trustworthy pole."""


# eigh's result has named fields only from numpy 2.0; pyproject allows 1.22
@dataclass
class EigenDecomposition:
    """Eigenvalues in ascending order and the matching orthonormal vectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def sym_eig(a) -> EigenDecomposition:
    """Diagonalize a real symmetric matrix.

    a must be a square, finite array whose asymmetry is at most
    SYMMETRY_RTOL * max|a|. LAPACK gets a as it is and reads only its
    lower triangle, so an input symmetric only to that bound is
    diagonalized as its lower triangle mirrored; a caller that forms an
    operator product symmetrizes it first. Eigenvalues come back
    ascending with normalized eigenvectors, exactly as np.linalg.eigh
    gives them. Each eigenvector's sign is LAPACK's, and no output reads
    it: the NRG writes eigenvalues and diagonal elements v.O.v, and a sign
    flip is a change of basis that leaves both as they are.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("sym_eig requires a square 2-d array")
    scale = float(np.abs(a).max(initial=0.0))
    if not math.isfinite(scale):  # NaN or inf exactly when an entry is
        raise ValueError("sym_eig matrix entries must be finite")
    if scale > 0.0:
        d = a - a.T
        asym = max(float(d.max()), -float(d.min()))
        del d  # one n x n buffer fewer held through the solve
        if asym > SYMMETRY_RTOL * scale:
            raise ValueError(
                f"asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.1e} * max|A| = "
                f"{SYMMETRY_RTOL * scale:.3e}"
            )
    return EigenDecomposition(*np.linalg.eigh(a))


@dataclass
class DivergenceFit:
    """Least-squares fit of n(alpha) = a + b / (alpha_c - alpha)."""

    a: float
    b: float
    alpha_c: float
    rss: float


def _fit_line(x: np.ndarray, y: np.ndarray):
    """Least-squares lines y = a + b x along x's last axis: arrays (a, b, rss),
    with rss = inf where x is flat. Each line's sums and its rss dot product
    are those of a one-line fit, so a row scores the same alone or in a grid."""
    npts = x.shape[-1]
    sx = x.sum(axis=-1)
    sxx = (x * x).sum(axis=-1)
    det = npts * sxx - sx * sx
    flat = det <= 1e-14 * np.maximum(np.maximum(npts * sxx, sx * sx), 1.0)
    sy = y.sum()
    sxy = (x * y).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = (npts * sxy - sx * sy) / det
        a = (sy - b * sx) / npts
        r = y - a[..., None] - b[..., None] * x
    rss = (r[..., None, :] @ r[..., :, None])[..., 0, 0]
    return a, b, np.where(flat, np.inf, rss)


def fit_divergence(points, window: float | None = None) -> DivergenceFit:
    """Fit n_star(alpha) = a + b / (alpha_c - alpha) with alpha_c above the data.

    A coarse grid over (max(alpha), max(alpha) + window] followed by a
    fixed-count golden-section refinement keeps the result deterministic.
    Degenerate inputs (too few points, repeated alphas, flat or
    non-divergent data) raise FitError instead of returning a spurious
    pole.
    """
    pts = [(float(a), float(n)) for a, n in points]
    if len(pts) < FIT_MIN_POINTS:
        raise FitError(f"need at least {FIT_MIN_POINTS} points to fit a divergence")
    alphas = np.array([p[0] for p in pts])
    ns = np.array([p[1] for p in pts])
    if not (np.all(np.isfinite(alphas)) and np.all(np.isfinite(ns))):
        raise FitError("non-finite fit input")
    if len(set(alphas.tolist())) != len(alphas):  # np.unique's first call imports numpy.ma
        raise FitError("alpha values must be distinct")
    if float(ns.max() - ns.min()) == 0.0:
        raise FitError("n_star values are constant; no divergence to fit")
    window = FIT_WINDOW if window is None else float(window)
    if not math.isfinite(window):
        raise FitError(f"search window must be finite, not {window}")
    if window <= 0:
        raise FitError("search window must be positive")

    amax = float(alphas.max())
    m = FIT_GRID_POINTS

    def rss_at(ac: float) -> float:
        return float(_fit_line(1.0 / (ac - alphas), ns)[2])

    grid = amax + window * np.arange(1, m + 1) / m
    costs = _fit_line(1.0 / (grid[:, None] - alphas), ns)[2]
    best = int(np.argmin(costs))
    if not math.isfinite(costs[best]):
        raise FitError("degenerate data: pole scan found no valid candidate")

    lo = grid[best - 1] if best > 0 else amax + window / (2.0 * m)
    hi = grid[best + 1] if best < m - 1 else grid[best]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = rss_at(x1), rss_at(x2)
    for _ in range(FIT_GOLDEN_ITERS):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = rss_at(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = rss_at(x2)
    ac = x1 if f1 <= f2 else x2

    a, b, rss = (float(v) for v in _fit_line(1.0 / (ac - alphas), ns))
    if not math.isfinite(rss):
        raise FitError("pole refinement collapsed onto degenerate data")
    if b <= 0:
        raise FitError(f"fitted amplitude b = {b:.3e} is not positive; no divergence")
    if ac >= amax + 0.999 * window:
        raise FitError(
            f"pole estimate {ac:.4f} sits at the search-window edge; widen the window"
        )
    return DivergenceFit(a=a, b=b, alpha_c=float(ac), rss=rss)
