"""Surface evaluation, derivatives, and distance fields.

Each B-spline restricted to one element is a bivariate polynomial.  The
surface keeps one flat element layer (``eval_cache``): element bounds, the
element -> resident B-spline map in CSR form, and the monomial coefficients
of every (element, resident) pair in element-local coordinates, all built
in one batched pass.  It is stored on the surface and rebuilt when the
surface's version counter changes, so refinement invalidates it and a
coefficient update does not.  It is the one cache of the element
partition: the bounds are the array ``BoxMesh.elements`` returns.

Every point query goes through one gather: locate the element of each
point and take its local coordinates.  One domain rule decides which
points are inside for every query; a NaN or infinite coordinate is
outside, so ``evaluate`` and ``basis_matrix`` raise on it and
``distance_field`` reports it with status 2.  ``evaluate`` and
``distance_field`` then sum the coefficient-weighted tensors of only the
elements their points hit, so a query costs what its points touch, not
the size of the surface; ``basis_matrix`` instead keeps one entry per
(point, resident).
The fitting layers build on ``basis_matrix`` and the flat arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import LRSurface, _ranges, residents_of

__all__ = [
    "evaluate",
    "partition_of_unity",
    "distance_field",
    "eval_cache",
    "basis_matrix",
]

# pairs per batch of the tensor build; bounds its temporary arrays
_CHUNK = 1 << 14
# derivative (order in u, order in v) of each evaluate() output column
_COLUMNS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@dataclass
class _EvalCache:
    """Flat element layer of one surface version.

    Element e spans ``bounds[e]`` = (u_lo, u_hi, v_lo, v_hi) and holds the
    pairs k in ``offsets[e]:offsets[e + 1]``: B-spline ``res[k]``, whose
    scaled restriction to the element is sum_jl tensors[k, j, l] t^j s^l in
    local coordinates t, s in [0, 1].  ``pair_element[k]`` is e.
    """

    version: int
    cell_map: np.ndarray
    uc: np.ndarray
    vc: np.ndarray
    bounds: np.ndarray
    offsets: np.ndarray
    res: np.ndarray
    pair_element: np.ndarray
    tensors: np.ndarray


def _monomials(knots: np.ndarray, lo: np.ndarray, hi: np.ndarray, d: int) -> np.ndarray:
    """Monomial coefficients of univariate B-splines on intervals [lo, hi].

    ``knots`` is (n, d + 2); each interval lies inside one knot span.  The
    B-splines are evaluated by Cox-de Boor at d + 1 interior points of the
    interval, then mapped to coefficients in t = (x - lo) / (hi - lo) by a
    fixed inverse Vandermonde matrix.  Returns (n, d + 1), low order first.
    """
    t = (np.arange(d + 1) + 0.5) / (d + 1)
    x = (lo[:, None] + (hi - lo)[:, None] * t)[:, :, None]
    k = knots[:, None, :]
    N = ((k[..., :-1] <= x) & (x < k[..., 1:])).astype(float)
    for p in range(1, d + 1):
        left = k[..., p:-1] - k[..., :-p - 1]
        right = k[..., p + 1:] - k[..., 1:-p]
        N = (np.divide(x - k[..., :-p - 1], left, out=np.zeros(N[..., 1:].shape),
                       where=left > 0) * N[..., :-1]
             + np.divide(k[..., p + 1:] - x, right, out=np.zeros(N[..., 1:].shape),
                         where=right > 0) * N[..., 1:])
    return N[..., 0] @ np.linalg.inv(np.vander(t, increasing=True)).T


def eval_cache(surface: LRSurface) -> _EvalCache:
    """The surface's flat element layer; the same object until refinement."""
    cache = surface._eval_cache
    if cache is not None and cache.version == surface.version:
        return cache
    du, dv = surface.degrees
    bounds, offsets, res, cell_map, uc, vc = residents_of(surface)
    pair_element = np.repeat(np.arange(len(bounds)), np.diff(offsets))
    ku, kv, scaling = surface.axis_knots(0), surface.axis_knots(1), surface.scaling
    tensors = np.empty((len(res), du + 1, dv + 1))
    for start in range(0, len(res), _CHUNK):
        k = slice(start, start + _CHUNK)
        i, eb = res[k], bounds[pair_element[k]]
        pu = _monomials(ku[i], eb[:, 0], eb[:, 1], du)
        pv = _monomials(kv[i], eb[:, 2], eb[:, 3], dv)
        tensors[k] = scaling[i, None, None] * pu[:, :, None] * pv[:, None, :]
    cache = _EvalCache(surface.version, cell_map, uc, vc, bounds,
                       offsets, res, pair_element, tensors)
    surface._eval_cache = cache
    return cache


def _inside(cache: _EvalCache, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per point, whether it lies in the domain widened by 1e-9 of its
    extent on each side.  The one domain rule of every query; NaN and
    infinite coordinates are outside."""
    uc, vc = cache.uc, cache.vc
    eps_u = 1e-9 * (uc[-1] - uc[0])
    eps_v = 1e-9 * (vc[-1] - vc[0])
    return ((x >= uc[0] - eps_u) & (x <= uc[-1] + eps_u)
            & (y >= vc[0] - eps_v) & (y <= vc[-1] + eps_v))


def _locate(cache: _EvalCache, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element index per point; raises on points outside the domain."""
    uc, vc = cache.uc, cache.vc
    inside = _inside(cache, x, y)
    if not inside.all():
        k = int(np.argmin(inside))
        raise ValueError(
            f"point ({x[k]}, {y[k]}) outside surface domain "
            f"[{uc[0]}, {uc[-1]}] x [{vc[0]}, {vc[-1]}]")
    iu = np.clip(np.searchsorted(uc, x, side="right") - 1, 0, len(uc) - 2)
    iv = np.clip(np.searchsorted(vc, y, side="right") - 1, 0, len(vc) - 2)
    return cache.cell_map[iu, iv]


def _gather(cache: _EvalCache, x: np.ndarray, y: np.ndarray):
    """Point -> element gather: (element id, tu, tv, wu, wv) per point, with
    local coordinates tu, tv in [0, 1] and element widths wu, wv."""
    eid = _locate(cache, x, y)
    b = cache.bounds[eid]
    wu = b[:, 1] - b[:, 0]
    wv = b[:, 3] - b[:, 2]
    return eid, (x - b[:, 0]) / wu, (y - b[:, 2]) / wv, wu, wv


def _dpowers(t: np.ndarray, d: int, order: int, scale) -> np.ndarray:
    """Rows of d^order/dx^order of [1, t, t^2, ...] with t = (x-lo)*scale."""
    out = np.zeros((len(t), d + 1))
    for k in range(order, d + 1):
        f = 1.0
        for m in range(order):
            f *= (k - m)
        out[:, k] = f * (scale ** order) * t ** (k - order)
    return out


def _pair_values(cache: _EvalCache, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Every pair's tensor contracted with power rows U (in u) and V (in v):
    (n_pairs, len(U) * len(V)), the value at local grid point (a, b) in
    column a * len(V) + b."""
    vals = np.einsum("aj,kjl,bl->kab", U, cache.tensors, V, optimize=True)
    return vals.reshape(len(cache.res), -1)


def _evaluate_at(cache: _EvalCache, coeffs: np.ndarray, eid, tu, tv, wu, wv,
                 order: int) -> np.ndarray:
    """Evaluate gathered points; columns as in ``evaluate``.

    Only the elements the points hit get a polynomial tensor: the segment
    sum of coeffs[res] * T over that element's pairs, in the same order as
    over the whole layer.  Each point then gathers its element's tensor
    once and contracts it with its power rows in v, then in u.
    """
    du, dv = cache.tensors.shape[1] - 1, cache.tensors.shape[2] - 1
    cols = _COLUMNS[:{0: 1, 1: 3, 2: 6}[order]]
    if len(eid) == 0:
        return np.zeros((0, len(cols)))
    offsets = cache.offsets
    # the hit elements in increasing order, and each point's row among them
    hit, row = np.unique(eid, return_inverse=True)
    counts = offsets[hit + 1] - offsets[hit]
    pair = _ranges(offsets[hit], counts)
    P = np.add.reduceat(coeffs[cache.res[pair], None, None] * cache.tensors[pair],
                        np.cumsum(counts) - counts, axis=0)
    Pe = P[row]
    U = [_dpowers(tu, du, a, 1.0 / wu) for a in range(order + 1)]
    PV = [np.einsum("njk,nk->nj", Pe, _dpowers(tv, dv, b, 1.0 / wv))
          for b in range(order + 1)]
    out = np.empty((len(eid), len(cols)))
    for c, (a, b) in enumerate(cols):
        out[:, c] = np.einsum("nj,nj->n", U[a], PV[b])
    return out


def evaluate(surface: LRSurface, x, y, order: int = 0,
             coeffs: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the surface (and optionally derivatives) at points.

    ``x`` and ``y`` are scalars or arrays of one shape S, such as a
    meshgrid.  Order 0 returns shape S; order 1 returns S + (3,), columns
    F, Fu, Fv; order 2 returns S + (6,), columns F, Fu, Fv, Fuu, Fuv, Fvv
    (a scalar counts as shape (1,)).  Points outside the domain raise
    ValueError.  ``coeffs`` overrides the stored coefficients without
    touching the surface.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    cache = eval_cache(surface)
    out = _evaluate_at(cache, surface.coeffs if coeffs is None else coeffs,
                       *_gather(cache, x.ravel(), y.ravel()), order)
    if order == 0:
        return out[:, 0].reshape(x.shape)
    return out.reshape(x.shape + out.shape[1:])


def partition_of_unity(surface: LRSurface, x, y) -> np.ndarray:
    """Sum of scaled basis values at the points (1 everywhere when valid)."""
    return evaluate(surface, x, y, coeffs=np.ones(len(surface)))


def basis_matrix(surface: LRSurface, x, y):
    """Global sparse collocation matrix B with B[p, i] = s_i N_i(x_p, y_p).

    ``x`` and ``y`` are 1-D arrays of equal length.  Returns (B in CSR,
    element_id per point).
    """
    from scipy import sparse

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("basis_matrix needs 1-D x and y of equal length; "
                         f"got shapes {x.shape} and {y.shape}")
    cache = eval_cache(surface)
    eid, tu, tv, _, _ = _gather(cache, x, y)
    du, dv = surface.degrees
    # one entry per (point, resident of its element), grouped by point
    counts = np.diff(cache.offsets)[eid]
    pair = _ranges(cache.offsets[eid], counts)
    U, V = _dpowers(tu, du, 0, 1.0), _dpowers(tv, dv, 0, 1.0)
    vals = np.zeros(len(pair))
    # sum over monomials, never gathering a whole tensor per entry
    for j in range(du + 1):
        for k in range(dv + 1):
            vals += cache.tensors[:, j, k][pair] * np.repeat(U[:, j] * V[:, k], counts)
    indptr = np.zeros(len(x) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    B = sparse.csr_matrix((vals, cache.res[pair], indptr),
                          shape=(len(x), len(surface)))
    return B, eid


def distance_field(surface: LRSurface, points: np.ndarray, tau: float) -> dict:
    """Signed vertical residuals of points against the surface.

    ``points`` is (n, 3) columns x, y, z.  Residual r = z - F(x, y), so
    points above the surface are positive.  Points outside the domain get
    element_id -1 and NaN residual; they are reported, never dropped.

    Returns dict with residual (n,), element_id (n,), status int8 (n,)
    where 0 = within tolerance, 1 = above, -1 = below, 2 = outside domain.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 3:
        raise ValueError("points must be (n, 3)")
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    cache = eval_cache(surface)
    inside = _inside(cache, x, y)
    residual = np.full(len(pts), np.nan)
    element_id = np.full(len(pts), -1, dtype=np.int64)
    status = np.full(len(pts), 2, dtype=np.int8)
    if inside.any():
        located = _gather(cache, x[inside], y[inside])
        r = z[inside] - _evaluate_at(cache, surface.coeffs, *located, 0)[:, 0]
        residual[inside] = r
        element_id[inside] = located[0]
        s = np.zeros(len(r), dtype=np.int8)
        s[r > tau] = 1
        s[r < -tau] = -1
        status[inside] = s
    return {"residual": residual, "element_id": element_id, "status": status}
