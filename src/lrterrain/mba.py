"""Multilevel B-spline approximation update pass.

One sweep distributes current point residuals into coefficient corrections:
each point proposes the correction that would make the surface interpolate
it alone, and each B-spline blends proposals from the points in its support
with weights proportional to the (scaled) basis value there.  No linear
system is solved; repeated sweeps converge geometrically on fixed data.

The sweep reads the points' basis values from the element layer a block
of points at a time (``evaluate._basis_blocks``) and sums each block's
share of every B-spline's numerator and denominator, so it never holds a
collocation matrix.  The out-of-tolerance gate is counted once per
element and scattered to the element's residents.
"""
from __future__ import annotations

import numpy as np

from .evaluate import _basis_blocks, _evaluate_at, _gather, check_points, eval_cache
from .mesh import LRSurface

__all__ = ["mba_update"]


def mba_update(surface: LRSurface, points: np.ndarray,
               residuals: np.ndarray | None = None, tau: float = 0.0,
               located=None) -> dict:
    """Apply one correction sweep in place.

    ``residuals`` are z - F per point, a finite (n,) array; computed here
    when omitted.  ``located`` is ``evaluate._gather`` of these points on
    the current mesh, when the caller already has it.  B-splines whose
    support holds no point with |residual| > ``tau`` are left alone, as
    are B-splines with no data support at all.  Returns sweep stats.
    """
    pts = check_points(points)
    cache = eval_cache(surface)
    if located is None:
        located = _gather(cache, pts[:, 0], pts[:, 1])
    if residuals is None:
        residuals = pts[:, 2] - _evaluate_at(cache, surface.coeffs, *located, 0)[:, 0]
    r = np.asarray(residuals, dtype=float)
    if r.shape != (len(pts),):
        raise ValueError(f"residuals must be a ({len(pts)},) array, one per point; "
                         f"got shape {r.shape}")
    bad = ~np.isfinite(r)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"residuals must be finite; row {k} is {r[k]}")
    L = len(surface)
    num, den = np.zeros(L), np.zeros(L)
    eid, tu, tv = located[:3]
    for a, b, counts, pair, w in _basis_blocks(cache, eid, tu, tv):
        rows = np.repeat(np.arange(b - a), counts)
        cols = cache.res[pair]
        w2 = w * w
        # per-point normalization; positive, since the scaled basis sums to one
        D = np.bincount(rows, weights=w2, minlength=b - a)
        num += np.bincount(cols, weights=w * w2 * (r[a:b] / D)[rows], minlength=L)
        den += np.bincount(cols, weights=w2, minlength=L)
    # the gate: a point out of tolerance counts toward every resident of
    # its element, so the counts are summed per element, then scattered
    n_big_el = np.bincount(eid, weights=np.abs(r) > tau, minlength=len(cache.bounds))
    n_big = np.bincount(cache.res, weights=n_big_el[cache.pair_element], minlength=L)
    active = (den > 0) & (n_big > 0)
    delta = np.zeros(L)
    delta[active] = num[active] / den[active]
    surface.coeffs = surface.coeffs + delta
    return {
        "n_updated": int(active.sum()),
        "max_delta": float(np.abs(delta).max()) if L else 0.0,
    }
