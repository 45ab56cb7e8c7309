"""Multilevel B-spline approximation update pass.

One sweep distributes current point residuals into coefficient corrections:
each point proposes the correction that would make the surface interpolate
it alone, and each B-spline blends proposals from the points in its support
with weights proportional to the (scaled) basis value there.  No linear
system is solved; repeated sweeps converge geometrically on fixed data.
"""
from __future__ import annotations

import numpy as np

from .evaluate import basis_matrix, evaluate
from .mesh import LRSurface

__all__ = ["mba_update", "mba_fit"]


def mba_update(surface: LRSurface, points: np.ndarray,
               residuals: np.ndarray | None = None, tau: float = 0.0,
               basis=None) -> dict:
    """Apply one correction sweep in place.

    ``residuals`` are z - F per point; recomputed with ``evaluate`` when
    omitted.  ``basis`` is ``basis_matrix(surface, x, y)`` of these points
    on the current mesh, when the caller already has it; it is built here
    when omitted.  B-splines whose support holds no point with
    |residual| > ``tau`` are left alone, as are B-splines with no data
    support at all.  Returns sweep stats.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 3 or len(pts) == 0:
        raise ValueError("points must be a nonempty (n, 3) array")
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    if residuals is None:
        residuals = z - evaluate(surface, x, y)
    r = np.asarray(residuals, dtype=float)
    if basis is None:
        basis = basis_matrix(surface, x, y)
    B, _ = basis
    rows = np.repeat(np.arange(len(pts)), np.diff(B.indptr))
    w, cols = B.data, B.indices
    w2 = w * w
    # per-point normalization; positive, since the scaled basis sums to one
    D = np.bincount(rows, weights=w2, minlength=len(pts))
    L = len(surface)
    num = np.bincount(cols, weights=w * w2 * (r / D)[rows], minlength=L)
    den = np.bincount(cols, weights=w2, minlength=L)
    max_abs_r = np.zeros(L)
    np.maximum.at(max_abs_r, cols, np.abs(r)[rows])
    active = (den > 0) & (max_abs_r > tau)
    delta = np.zeros(L)
    delta[active] = num[active] / den[active]
    surface.coeffs = surface.coeffs + delta
    return {
        "n_updated": int(active.sum()),
        "max_delta": float(np.abs(delta).max()) if L else 0.0,
    }


def mba_fit(surface: LRSurface, points: np.ndarray, sweeps: int = 5,
            tau: float = 0.0) -> list[dict]:
    """Run several sweeps, re-evaluating residuals each time."""
    stats = []
    for _ in range(sweeps):
        stats.append(mba_update(surface, points, tau=tau))
    return stats
