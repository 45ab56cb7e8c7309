"""Surface evaluation, derivatives, and distance fields.

Each B-spline restricted to one element is a bivariate polynomial.  The
surface keeps one flat element layer (``eval_cache``): element bounds, the
element -> resident B-spline map in CSR form, and the monomial coefficients
of every (element, resident) pair in element-local coordinates.  It is
stored on the surface and rebuilt when the surface's version counter
changes, so refinement invalidates it and a coefficient update does not.
It is the one cache of the element partition: the bounds are the array
``BoxMesh.elements`` returns.

A pair's coefficients are scaling * pu (outer) pv, where pu is a univariate
piece: the B-spline's u-knot row restricted to the element's u-interval
(pv likewise in v).  Many pairs share a piece, since neighbouring
B-splines share knot rows and elements share intervals, so the build
keys every pair's piece per axis, runs Cox-de Boor once per distinct
piece, and forms the tensors by gather and outer product.  The arithmetic
is that of a build per pair, so the tensors are the same bit for bit.

Every point query goes through one gather: locate the element of each
point and take its local coordinates.  One domain rule decides which
points are inside for every query; a NaN or infinite coordinate is
outside, so ``evaluate`` and ``basis_matrix`` raise on it and
``distance_field`` reports it with status 2.  A point's element is the
``cell_map`` entry of its fine cell, and the layer holds a cell table per
axis to find that cell: ``_BUCKETS`` uniform buckets per fine cell, each
naming the cell that holds all of it, or marking that a fine coordinate
falls inside it.  Most points read their cell from the table; only those
in a marked bucket are settled by a binary search over the coordinates,
so the result is that search's for every point.  ``evaluate`` and
``distance_field`` then sum the coefficient-weighted tensors of only the
elements their points hit, so a query costs what its points touch, not
the size of the surface, and contract those sums with the points' power
rows a block of ``_BLOCK`` points at a time, so the per-point tensors and
rows never exceed one block.  ``_basis_blocks`` instead forms the basis value
of every (point, resident) pair, a bounded block of points at a time:
``basis_matrix`` stores them as a CSR matrix, and the correction sweep
(``mba``) sums them away block by block.  The least-squares layer reads
only the gather and the tensors, so no fit builds a collocation matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mesh import LRSurface, _ranges, residents_of

__all__ = [
    "evaluate",
    "partition_of_unity",
    "distance_field",
    "eval_cache",
    "basis_matrix",
]

# pieces or pairs per batch of the layer build; bounds its temporary arrays
_CHUNK = 1 << 14
# points per block of the contraction in _evaluate_at; bounds its temporaries
_BLOCK = 1 << 15
# uniform buckets per fine cell of an axis's cell table
_BUCKETS = 32
# derivative (order in u, order in v) of each evaluate() output column
_COLUMNS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


class _CellTable(NamedTuple):
    """Uniform buckets over one axis's fine coordinates.

    A value x falls in bucket ``bucket(x)``; ``cell[b]`` is the fine cell
    that holds every value of bucket b, or -1 when a coordinate falls in
    b, so that its values may lie in more than one cell.
    """

    lo: float
    scale: float
    cell: np.ndarray

    def bucket(self, x: np.ndarray) -> np.ndarray:
        """Bucket of each value: floor of its offset in bucket widths,
        clipped to the table; nondecreasing in x."""
        f = np.subtract(x, self.lo)
        f *= self.scale
        b = f.astype(np.intp)
        return np.clip(b, 0, len(self.cell) - 1, out=b)


def _cell_table(coords: np.ndarray) -> _CellTable:
    """The cell table of sorted fine coordinates.

    The bucket of a value does not decrease as the value grows, so a
    bucket that no coordinate falls in lies strictly between two
    consecutive coordinates: every value in it has the cell of the
    coordinates in earlier buckets.
    """
    n_buckets = _BUCKETS * (len(coords) - 1)
    table = _CellTable(float(coords[0]), n_buckets / float(coords[-1] - coords[0]),
                       np.empty(n_buckets, dtype=np.intp))
    held = table.bucket(coords)
    table.cell[:] = np.searchsorted(held, np.arange(n_buckets)) - 1
    table.cell[held] = -1
    return table


@dataclass
class _EvalCache:
    """Flat element layer of one surface version.

    Element e spans ``bounds[e]`` = (u_lo, u_hi, v_lo, v_hi) and holds the
    pairs k in ``offsets[e]:offsets[e + 1]``: B-spline ``res[k]``, whose
    scaled restriction to the element is sum_jl tensors[k, j, l] t^j s^l in
    local coordinates t, s in [0, 1].  ``pair_element[k]`` is e.  The rows
    of ``frame`` hold every element's u_lo, v_lo, u width and v width, each
    row contiguous, so that a gather reads only the located elements.
    ``tensors[k]`` is scaling[res[k]] * pu[:, None] * pv[None, :] for the
    pair's univariate pieces pu and pv (see ``_pieces``); the pieces
    themselves are not kept.  ``tables`` holds the cell table of the u
    and of the v coordinates (``_cell_table``).
    """

    version: int
    cell_map: np.ndarray
    uc: np.ndarray
    vc: np.ndarray
    tables: tuple[_CellTable, _CellTable]
    bounds: np.ndarray
    frame: np.ndarray
    offsets: np.ndarray
    res: np.ndarray
    pair_element: np.ndarray
    tensors: np.ndarray


def _monomials(knots: np.ndarray, lo: np.ndarray, hi: np.ndarray, d: int) -> np.ndarray:
    """Monomial coefficients of univariate pieces: B-splines on intervals.

    Row i is the B-spline with knot vector ``knots[i]`` (d + 2 knots)
    restricted to [lo[i], hi[i]], which lies inside one knot span.  The
    B-splines are evaluated by Cox-de Boor at d + 1 interior points of the
    interval, then mapped to coefficients in t = (x - lo) / (hi - lo) by a
    fixed inverse Vandermonde matrix.  Rows are independent, so a piece's
    coefficients do not depend on the batch it is computed in.  Returns
    (n, d + 1), low order first.
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


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """One id per distinct row of a 2-D array, equal rows sharing it."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.concatenate(([0], np.cumsum(new)))
    return ids


def _pieces(knots: np.ndarray, coords: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            res: np.ndarray, pair_element: np.ndarray, d: int):
    """The distinct univariate pieces of one axis, and each pair's piece.

    A pair's piece is its B-spline's knot row on this axis restricted to
    its element's interval [lo, hi]; equal rows on equal intervals are
    one piece.  Returns (P, inverse): P[q] holds the monomial coefficients
    of piece q, and pair k uses piece inverse[k].
    """
    ids = _row_ids(knots)
    n_ids, n_c = int(ids.max(initial=0)) + 1, len(coords)
    if n_ids * n_c * n_c >= 2 ** 63:
        raise OverflowError(f"{n_ids} knot rows over {n_c} coordinates "
                            "overflow the int64 piece key")
    # bounds are mesh coordinates, so the searches are exact
    lo_i, hi_i = np.searchsorted(coords, lo), np.searchsorted(coords, hi)
    key = (ids[res] * n_c + lo_i[pair_element]) * n_c + hi_i[pair_element]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    P = np.empty((len(first), d + 1))
    for start in range(0, len(first), _CHUNK):
        k = first[start:start + _CHUNK]
        e = pair_element[k]
        P[start:start + _CHUNK] = _monomials(knots[res[k]], lo[e], hi[e], d)
    return P, inverse


def eval_cache(surface: LRSurface) -> _EvalCache:
    """The surface's flat element layer; the same object until refinement."""
    cache = surface._eval_cache
    if cache is not None and cache.version == surface.version:
        return cache
    # drop the stale layer first, so it and the new one are never both held
    surface._eval_cache = cache = None
    du, dv = surface.degrees
    bounds, offsets, res, cell_map, uc, vc = residents_of(surface)
    pair_element = np.repeat(np.arange(len(bounds)), np.diff(offsets))
    pu, iu = _pieces(surface.axis_knots(0), uc, bounds[:, 0], bounds[:, 1],
                     res, pair_element, du)
    pv, iv = _pieces(surface.axis_knots(1), vc, bounds[:, 2], bounds[:, 3],
                     res, pair_element, dv)
    tensors = np.empty((len(res), du + 1, dv + 1))
    for start in range(0, len(res), _CHUNK):
        k = slice(start, start + _CHUNK)
        # (scaling * pu) * pv, the order of a per-pair build, by u-monomial
        su = np.take(pu, iu[k], axis=0)
        su *= surface.scaling[res[k], None]
        sv = np.take(pv, iv[k], axis=0)
        for j in range(du + 1):
            np.multiply(su[:, j, None], sv, out=tensors[k, j])
    cache = _EvalCache(surface.version, cell_map, uc, vc,
                       (_cell_table(uc), _cell_table(vc)), bounds,
                       np.stack([bounds[:, 0], bounds[:, 2], bounds[:, 1] - bounds[:, 0],
                                 bounds[:, 3] - bounds[:, 2]]),
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


def _cells(table: _CellTable, coords: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fine cell of each value: clip(searchsorted(coords, x, "right") - 1,
    0, len(coords) - 2), read from the cell table where it can be."""
    i = table.cell.take(table.bucket(x))
    k = np.flatnonzero(i < 0)
    i[k] = np.clip(np.searchsorted(coords, x[k], side="right") - 1, 0, len(coords) - 2)
    return i


def _locate(cache: _EvalCache, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element index per point; raises on points outside the domain."""
    uc, vc = cache.uc, cache.vc
    inside = _inside(cache, x, y)
    if not inside.all():
        k = int(np.argmin(inside))
        raise ValueError(
            f"point ({x[k]}, {y[k]}) outside surface domain "
            f"[{uc[0]}, {uc[-1]}] x [{vc[0]}, {vc[-1]}]")
    flat = _cells(cache.tables[0], uc, x)
    flat *= len(vc) - 1
    flat += _cells(cache.tables[1], vc, y)
    return cache.cell_map.ravel().take(flat)


def _gather(cache: _EvalCache, x: np.ndarray, y: np.ndarray):
    """Point -> element gather: (element id, tu, tv, wu, wv) per point, with
    local coordinates tu, tv in [0, 1] and element widths wu, wv."""
    eid = _locate(cache, x, y)
    lu, lv, wu, wv = (row.take(eid) for row in cache.frame)
    return eid, (x - lu) / wu, (y - lv) / wv, wu, wv


def _dpowers(t: np.ndarray, d: int, order: int, scale) -> np.ndarray:
    """Rows of d^order/dx^order of [1, t, t^2, ...] with t = (x-lo)*scale:
    column k is k!/(k - order)! * scale^order * t^(k - order), the power
    of t by running product."""
    out = np.zeros((len(t), d + 1))
    if order > d:
        return out
    s = scale ** order if order else 1.0
    out[:, order] = math.factorial(order) * s
    p = t
    for k in range(order + 1, d + 1):
        np.multiply(math.perm(k, order) * s, p, out=out[:, k])
        if k < d:
            p = p * t
    return out


def _evaluate_at(cache: _EvalCache, coeffs: np.ndarray, eid, tu, tv, wu, wv,
                 order: int) -> np.ndarray:
    """Evaluate gathered points; columns as in ``evaluate``.

    Only the elements the points hit get a polynomial tensor: the segment
    sum of coeffs[res] * T over that element's pairs, in the same order as
    over the whole layer.  Then, a block of ``_BLOCK`` points at a time,
    each point gathers its element's tensor once and contracts it with its
    power rows in v, then in u; a point's value does not depend on its
    block.
    """
    du, dv = cache.tensors.shape[1] - 1, cache.tensors.shape[2] - 1
    cols = _COLUMNS[:{0: 1, 1: 3, 2: 6}[order]]
    if len(eid) == 0:
        return np.zeros((0, len(cols)))
    offsets = cache.offsets
    # the hit elements in increasing order, and each point's row of P: a
    # position map written at the hit elements only, unless all are hit
    mark = np.zeros(len(offsets) - 1, dtype=bool)
    mark[eid] = True
    hit = np.flatnonzero(mark)
    row = eid
    if len(hit) < len(mark):
        row = np.empty(len(mark), dtype=np.intp)
        row[hit] = np.arange(len(hit))
        row = row.take(eid)
    counts = offsets[hit + 1] - offsets[hit]
    pair = _ranges(offsets[hit], counts)
    P = np.add.reduceat(coeffs[cache.res[pair], None, None] * cache.tensors[pair],
                        np.cumsum(counts) - counts, axis=0)
    out = np.empty((len(eid), len(cols)))
    for start in range(0, len(eid), _BLOCK):
        k = slice(start, start + _BLOCK)
        Pe = P.take(row[k], axis=0)
        su, sv = (1.0 / wu[k], 1.0 / wv[k]) if order else (1.0, 1.0)
        U = [_dpowers(tu[k], du, a, su) for a in range(order + 1)]
        PV = [np.einsum("njk,nk->nj", Pe, _dpowers(tv[k], dv, b, sv))
              for b in range(order + 1)]
        for c, (a, b) in enumerate(cols):
            np.einsum("nj,nj->n", U[a], PV[b], out=out[k, c])
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


def _basis_blocks(cache: _EvalCache, eid: np.ndarray, tu: np.ndarray, tv: np.ndarray):
    """Scaled basis values of gathered points, a block of points at a time.

    Yields (a, b, counts, pair, values) for the points a:b: point a + p
    has ``counts[p]`` entries, one per resident of its element, and the
    entries run point by point, ``pair`` naming the (element, resident)
    pair of each and ``values`` its scaled basis value.  A block holds
    about ``_CHUNK`` entries, so the tensor rows it reads stay in cache
    from one monomial to the next; each entry sums over monomials from
    zero, never gathering a whole tensor.
    """
    du, dv = cache.tensors.shape[1] - 1, cache.tensors.shape[2] - 1
    n_res = np.diff(cache.offsets)
    step = max(1, _CHUNK // ((du + 1) * (dv + 1)))
    for a in range(0, len(eid), step):
        b = min(a + step, len(eid))
        c = n_res[eid[a:b]]
        pair = _ranges(cache.offsets[eid[a:b]], c)
        U, V = _dpowers(tu[a:b], du, 0, 1.0), _dpowers(tv[a:b], dv, 0, 1.0)
        v = np.zeros(len(pair))
        for j in range(du + 1):
            for k in range(dv + 1):
                v += cache.tensors[:, j, k][pair] * np.repeat(U[:, j] * V[:, k], c)
        yield a, b, c, pair, v


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
    # one entry per (point, resident of its element), grouped by point
    indptr = np.zeros(len(x) + 1, dtype=np.int64)
    np.cumsum(np.diff(cache.offsets)[eid], out=indptr[1:])
    vals = np.empty(indptr[-1])
    cols = np.empty(indptr[-1], dtype=cache.res.dtype)
    for a, b, _, pair, v in _basis_blocks(cache, eid, tu, tv):
        vals[indptr[a]:indptr[b]] = v
        cols[indptr[a]:indptr[b]] = cache.res[pair]
    B = sparse.csr_matrix((vals, cols, indptr),
                          shape=(len(x), len(surface)))
    return B, eid


def check_points(points, what: str = "input") -> np.ndarray:
    """``points`` as a float array: x, y and z are its first three columns.

    The one input check of the fitting entry points.  Raises ValueError,
    naming ``what`` (the owner of the points), unless the array is 2-D
    with at least three columns and one row, and every x, y and z is
    finite; a non-finite row is named by its index.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 3:
        raise ValueError(f"{what} points must be a nonempty (n, 3) array; "
                         f"got shape {pts.shape}")
    if len(pts) == 0:
        raise ValueError(f"{what} has no points")
    # the whole-array test is an order of magnitude faster than the row
    # test, which runs only to name the first bad row
    if not np.isfinite(pts[:, :3]).all():
        k = int(np.argmax(~np.isfinite(pts[:, :3]).all(axis=1)))
        raise ValueError(f"{what} points must be finite; row {k} is {pts[k, :3].tolist()}")
    return pts


def bbox(xy: np.ndarray) -> tuple[float, float, float, float]:
    """xmin, xmax, ymin, ymax of points whose x and y are their first two
    columns."""
    return (float(xy[:, 0].min()), float(xy[:, 0].max()),
            float(xy[:, 1].min()), float(xy[:, 1].max()))


def in_rect(xy: np.ndarray, rect) -> np.ndarray:
    """Per point, whether it lies in the closed rectangle (xmin, xmax, ymin,
    ymax)."""
    return ((xy[:, 0] >= rect[0]) & (xy[:, 0] <= rect[1])
            & (xy[:, 1] >= rect[2]) & (xy[:, 1] <= rect[3]))


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
