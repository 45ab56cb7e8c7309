"""Slow, simple reference implementations of the library's array engines.

``split_worklist`` splits one B-spline at a time from a queue, scanning
the covered lines of its support in Python and weighting the products with
the scalar formulas of ``insert_knot_1d``; it reads the B-splines as
``ScaledBSpline`` objects and writes the surface's arrays back only at the
end.  ``element_scan`` grows each element cell by cell.  All are slow and
simple and share no code with the library's engines, and the tests
compare ``lrterrain.mesh._split_worklist``, ``lrterrain.mesh._split_weights``
and ``BoxMesh.elements`` against them.

``CoverOracle`` keeps the mesh coverage as the mesh once did: per line,
a sorted list of disjoint (lo, hi, mult) tuples, merged by maximum
multiplicity; the tests compare a mesh's ``segments`` and
``BoxMesh.cover_mult`` against it.  ``segments`` and ``support`` read a
mesh's coverage and a B-spline's support for the tests.

``eval_cache_per_pair`` builds the element layer as it was first built:
Cox-de Boor once per (element, resident) pair and axis, in batches of
pairs.  It shares the univariate kernel (``_monomials``) and the resident
search (``residents_of``) with ``lrterrain.evaluate.eval_cache``, which
computes each distinct univariate piece once; the tests compare the two
bit for bit.

``evaluate_at_all_elements`` is the point evaluation that builds the
polynomial of every element of the surface, whatever points are asked for,
and sums monomial by monomial, over power rows of its own (``powers``,
one float power per column); the tests compare
``lrterrain.evaluate._evaluate_at`` against it.

``independence_report`` is a sampled check that a surface's B-splines are
linearly independent: the rank of their Gram matrix on a grid of sample
points inside every element.

``smoothing_matrix_quadrature``, ``normal_equations_collocation`` and
``mba_delta_collocation`` are the fit's linear algebra as it was first
built: the smoothing matrix by Gauss-Legendre quadrature of every pair's
derivatives (``pair_values``), the normal equations from the collocation
matrices ``basis_matrix`` of the points and ghosts (B^T B, G^T G), and the
correction sweep from the CSR entries of B.  The tests compare the
library's per-element moment assembly and blocked sweep against them.

``pair_test_per_pair`` is the point-level deconfliction test of one
candidate sample against one accepted sample as it was first built: scalar
statistics (``np.mean``, ``np.std``), the criteria in Python floats and a
recursive call per sub-domain.  It takes the thresholds from
``lrterrain.deconflict`` and the reference's slopes from ``evaluate``, and
nothing else; the tests compare the library's pair tests in arrays
(``_test_pairs`` and its one-pair case) against it.
"""
import bisect
import math
import sys
from collections import deque

import numpy as np

from scipy import sparse

import lrterrain.deconflict
from lrterrain.evaluate import _CHUNK, _COLUMNS, _monomials, basis_matrix, eval_cache, evaluate
from lrterrain.least_squares import GHOST_WEIGHT, _smoothing_terms
from lrterrain.mesh import ScaledBSpline, Segment, residents_of

# the package attribute ``lrterrain.deconflict`` is the function
dc = sys.modules["lrterrain.deconflict"]


def segments(mesh):
    """The mesh's coverage as ``Segment`` tuples with coordinate values,
    one per row of ``BoxMesh.segment_rows``."""
    coords = [mesh.coords(0).tolist(), mesh.coords(1).tolist()]
    return [Segment(a, coords[a][p], coords[1 - a][lo], coords[1 - a][hi], m)
            for a, m, p, lo, hi in mesh.segment_rows().tolist()]


def support(b):
    """(u_lo, u_hi, v_lo, v_hi): the outer knots of a ``ScaledBSpline``."""
    ku, kv = b.knots
    return (ku[0], ku[-1], kv[0], kv[-1])


def powers(t, d, order, scale):
    """Rows of d^order/dx^order of [1, t, t^2, ...] with t = (x-lo)*scale,
    one float power t ** (k - order) per column k."""
    out = np.zeros((len(t), d + 1))
    for k in range(order, d + 1):
        f = 1.0
        for m in range(order):
            f *= (k - m)
        out[:, k] = f * (scale ** order) * t ** (k - order)
    return out


def insert_knot_1d(t, d, c):
    """Split one degree-``d`` B-spline knot vector at ``c``.

    Returns ((alpha1, t1), (alpha2, t2)) such that
    N_t = alpha1 * N_t1 + alpha2 * N_t2.
    """
    ext = sorted(t + (c,))
    t1 = tuple(ext[:-1])
    t2 = tuple(ext[1:])
    if c >= t[d]:
        a1 = 1.0
    else:
        a1 = (c - t[0]) / (t[d] - t[0])
    if c <= t[1]:
        a2 = 1.0
    else:
        a2 = (t[d + 1] - c) / (t[d + 1] - t[1])
    return (a1, t1), (a2, t2)


def _find_split(surface, b, covered):
    """First (axis, pos) where mesh coverage fully traverses the support
    at higher multiplicity than the B-spline's own knot vector carries."""
    mesh = surface.mesh
    for axis in (0, 1):
        kn = b.knots[axis]
        lo, hi = kn[0], kn[-1]
        other = b.knots[1 - axis]
        olo, ohi = other[0], other[-1]
        pos = covered[axis]
        for p in pos[bisect.bisect_right(pos, lo):bisect.bisect_left(pos, hi)]:
            have = kn.count(p)
            if have >= surface.degrees[axis] + 1:
                continue
            if mesh.cover_mult(axis, p, olo, ohi) > have:
                return axis, p
    return None


def split_worklist(surface) -> None:
    """Split every B-spline (transitively) that a mesh line now traverses.

    Every B-spline starts in the queue; products re-enter it.  Duplicate
    products merge by summing scaled contributions.
    """
    covered = [sorted({s.pos for s in segments(surface.mesh) if s.axis == axis})
               for axis in (0, 1)]
    bs = list(surface.bsplines)
    coeffs = list(surface.coeffs)
    index = {b.knots: i for i, b in enumerate(bs)}
    alive = [True] * len(bs)
    work = deque(range(len(bs)))
    while work:
        i = work.popleft()
        if not alive[i]:
            continue
        b = bs[i]
        hit = _find_split(surface, b, covered)
        if hit is None:
            continue
        axis, pos = hit
        (a1, t1), (a2, t2) = insert_knot_1d(b.knots[axis], surface.degrees[axis], pos)
        alive[i] = False
        del index[b.knots]
        for a, tk in ((a1, t1), (a2, t2)):
            knots = (tk, b.knots[1]) if axis == 0 else (b.knots[0], tk)
            s_new = b.scaling * a
            j = index.get(knots)
            if j is not None and alive[j]:
                ex = bs[j]
                tot = ex.scaling + s_new
                coeffs[j] = (ex.scaling * coeffs[j] + s_new * coeffs[i]) / tot
                bs[j] = ScaledBSpline(knots, tot)
            else:
                bs.append(ScaledBSpline(knots, s_new))
                coeffs.append(coeffs[i])
                alive.append(True)
                j = len(bs) - 1
                index[knots] = j
                work.append(j)
    order = sorted((k for k in range(len(bs)) if alive[k]), key=lambda k: bs[k].knots)
    surface.knots = np.array([bs[k].ku + bs[k].kv for k in order],
                             dtype=float).reshape(len(order), -1)
    surface.scaling = np.array([bs[k].scaling for k in order])
    surface.coeffs = np.array([coeffs[k] for k in order])


def element_scan(mesh):
    """Box partition by a cell scan: (rects, cell_map), numbered in the
    scan order of each element's lower-left cell; rects holds one
    (u_lo, u_hi, v_lo, v_hi) tuple per element."""
    uc = mesh.coords(0)
    vc = mesh.coords(1)
    nu, nv = len(uc) - 1, len(vc) - 1
    # vcut[i, j]: vertical edge at u=uc[i+1] between cells (i,j),(i+1,j)
    vcut = np.zeros((max(nu - 1, 0), nv), dtype=bool)
    ucut = np.zeros((nu, max(nv - 1, 0)), dtype=bool)
    for s in segments(mesh):
        if s.axis == 0:
            i = int(np.searchsorted(uc, s.pos))
            if 0 < i < nu:
                vcut[i - 1, np.searchsorted(vc, s.lo):np.searchsorted(vc, s.hi)] = True
        else:
            j = int(np.searchsorted(vc, s.pos))
            if 0 < j < nv:
                ucut[np.searchsorted(uc, s.lo):np.searchsorted(uc, s.hi), j - 1] = True
    cell_map = np.full((nu, nv), -1, dtype=np.int32)
    rects = []
    for j0 in range(nv):
        for i0 in range(nu):
            if cell_map[i0, j0] >= 0:
                continue
            i1 = i0
            while i1 + 1 < nu and not vcut[i1, j0]:
                i1 += 1
            j1 = j0
            while j1 + 1 < nv and not ucut[i0:i1 + 1, j1].any():
                j1 += 1
            cell_map[i0:i1 + 1, j0:j1 + 1] = len(rects)
            rects.append((float(uc[i0]), float(uc[i1 + 1]),
                          float(vc[j0]), float(vc[j1 + 1])))
    return rects, cell_map


def merge_cover(parts, new):
    """Merge intervals (lo, hi, mult) into a sorted, disjoint piece list,
    taking the pointwise maximum multiplicity."""
    items = parts + new
    cuts = sorted({x for a, b, _ in items for x in (a, b)})
    at = {c: k for k, c in enumerate(cuts)}
    mult = [0] * (len(cuts) - 1)
    for a, b, m in items:
        for k in range(at[a], at[b]):
            mult[k] = max(mult[k], m)
    out = []
    for a, b, m in zip(cuts[:-1], cuts[1:], mult):
        if m > 0:
            if out and out[-1][1] == a and out[-1][2] == m:
                out[-1] = (out[-1][0], b, m)
            else:
                out.append((a, b, m))
    return out


def min_mult(parts, lo, hi):
    """Minimal multiplicity of a piece list over [lo, hi]; 0 if any gap."""
    cur = lo
    m = 1 << 30
    for a, b, pm in parts:
        if b <= cur:
            continue
        if a > cur:
            return 0
        m = min(m, pm)
        cur = b
        if cur >= hi:
            return m
    return 0


class CoverOracle:
    """Mesh coverage as per-line tuple lists: ``cover[axis][pos]`` is the
    sorted list of disjoint (lo, hi, mult) pieces of one line."""

    def __init__(self, segments=()):
        self.cover = [{}, {}]
        for s in segments:
            self.add(s.axis, s.pos, s.lo, s.hi, s.mult)

    def add(self, axis, pos, lo, hi, mult):
        line = self.cover[axis]
        line[pos] = merge_cover(line.get(pos, []), [(lo, hi, mult)])

    def segments(self):
        return [Segment(axis, pos, lo, hi, m) for axis in (0, 1)
                for pos in sorted(self.cover[axis])
                for lo, hi, m in self.cover[axis][pos]]

    def cover_mult(self, axis, pos, lo, hi):
        return min_mult(self.cover[axis].get(pos, []), lo, hi)

    def transposed(self):
        out = CoverOracle()
        out.cover = self.cover[::-1]
        return out

    def restricted(self, domain, rect, degrees):
        """The coverage ``restrict`` leaves: lines of multiplicity degree + 1
        across the domain along the rectangle's edges, then every piece
        clipped to the rectangle."""
        full = CoverOracle(self.segments())
        for axis in (0, 1):
            for pos in rect[2 * axis:2 * axis + 2]:
                full.add(axis, pos, *domain[2 - 2 * axis:4 - 2 * axis], degrees[axis] + 1)
        out = CoverOracle()
        for s in full.segments():
            a_lo, a_hi = rect[2 * s.axis:2 * s.axis + 2]
            o_lo, o_hi = rect[2 - 2 * s.axis:4 - 2 * s.axis]
            lo, hi = max(s.lo, o_lo), min(s.hi, o_hi)
            if a_lo <= s.pos <= a_hi and lo < hi:
                out.add(s.axis, s.pos, lo, hi, s.mult)
        return out


def evaluate_at_all_elements(cache, coeffs, eid, tu, tv, wu, wv, order):
    """Gathered points evaluated as ``_evaluate_at`` does, from the segment
    sums of all elements and one strided gather per monomial."""
    du, dv = cache.tensors.shape[1] - 1, cache.tensors.shape[2] - 1
    P = np.add.reduceat(coeffs[cache.res, None, None] * cache.tensors,
                        cache.offsets[:-1], axis=0)
    U = [powers(tu, du, a, 1.0 / wu) for a in range(order + 1)]
    V = [powers(tv, dv, b, 1.0 / wv) for b in range(order + 1)]
    cols = _COLUMNS[:{0: 1, 1: 3, 2: 6}[order]]
    out = np.zeros((len(eid), len(cols)))
    for j in range(du + 1):
        for k in range(dv + 1):
            p = P[eid, j, k]
            for c, (a, b) in enumerate(cols):
                out[:, c] += p * U[a][:, j] * V[b][:, k]
    return out


def eval_cache_per_pair(surface):
    """(bounds, offsets, res, tensors) of the surface's element layer, with
    both univariate factors of every pair computed for that pair alone."""
    du, dv = surface.degrees
    bounds, offsets, res, _, _, _ = residents_of(surface)
    pair_element = np.repeat(np.arange(len(bounds)), np.diff(offsets))
    ku, kv, scaling = surface.axis_knots(0), surface.axis_knots(1), surface.scaling
    tensors = np.empty((len(res), du + 1, dv + 1))
    for start in range(0, len(res), _CHUNK):
        k = slice(start, start + _CHUNK)
        i, eb = res[k], bounds[pair_element[k]]
        pu = _monomials(ku[i], eb[:, 0], eb[:, 1], du)
        pv = _monomials(kv[i], eb[:, 2], eb[:, 3], dv)
        tensors[k] = scaling[i, None, None] * pu[:, :, None] * pv[:, None, :]
    return bounds, offsets, res, tensors


def independence_report(surface, samples_per_dir: int | None = None) -> dict:
    """Sampling-based linear independence diagnostic.

    Builds a collocation matrix on a dense per-element sample grid and
    checks its column rank through the Gram matrix spectrum.  This flags
    dependence reliably at desk scale but is not a structural proof.
    """
    du, dv = surface.degrees
    n = samples_per_dir or (max(du, dv) + 2)
    L = len(surface)
    if L > 4000:
        raise ValueError("independence diagnostic is limited to 4000 B-splines")
    cache = eval_cache(surface)
    t = np.linspace(0.0, 1.0, n + 2)[1:-1]
    B = pair_values(cache, powers(t, du, 0, 1.0), powers(t, dv, 0, 1.0))
    gram = np.zeros((L, L))
    for e in range(len(cache.bounds)):
        k = slice(cache.offsets[e], cache.offsets[e + 1])
        gram[np.ix_(cache.res[k], cache.res[k])] += B[k] @ B[k].T
    w = np.linalg.eigvalsh(gram)
    tol = max(w[-1], 1.0) * 1e-12 * L
    rank = int((w > tol).sum())
    cap = (du + 1) * (dv + 1)
    suspects = np.flatnonzero(np.diff(cache.offsets) > cap).tolist()
    return {
        "n_bsplines": L,
        "rank": rank,
        "full_rank": rank == L,
        "min_eigenvalue": float(w[0]),
        "suspect_elements": suspects,
    }


def pair_values(cache, U, V):
    """Every pair's tensor contracted with power rows U (in u) and V (in v):
    (n_pairs, len(U) * len(V)), the value at local grid point (a, b) in
    column a * len(V) + b."""
    vals = np.einsum("aj,kjl,bl->kab", U, cache.tensors, V, optimize=True)
    return vals.reshape(len(cache.res), -1)


def smoothing_matrix_quadrature(surface, weights):
    """The smoothing matrix S by Gauss-Legendre quadrature with degree + 1
    points per direction, exact for the piecewise-polynomial integrand."""
    du, dv = surface.degrees
    terms = _smoothing_terms(weights, surface.degrees)
    L = len(surface)
    if not terms:
        return sparse.csr_matrix((L, L))
    pairs = sorted({p for _, p, q in terms} | {q for _, p, q in terms})
    cache = eval_cache(surface)
    gx_u, gw_u = np.polynomial.legendre.leggauss(du + 1)
    gx_v, gw_v = np.polynomial.legendre.leggauss(dv + 1)
    tu, tv = 0.5 + 0.5 * gx_u, 0.5 + 0.5 * gx_v
    wu = cache.bounds[:, 1] - cache.bounds[:, 0]
    wv = cache.bounds[:, 3] - cache.bounds[:, 2]
    W = 0.25 * (wu * wv)[:, None] * np.outer(gw_u, gw_v).ravel()
    # D[(a, b)][k, q]: d^a_u d^b_v of pair k's scaled B-spline at Gauss point q
    pe = cache.pair_element
    D = {(a, b): pair_values(cache, powers(tu, du, a, 1.0), powers(tv, dv, b, 1.0))
         * ((1.0 / wu[pe]) ** a * (1.0 / wv[pe]) ** b)[:, None]
         for a, b in pairs}
    counts = np.diff(cache.offsets)
    rows, cols, vals = [], [], []
    for n_res in np.unique(counts):
        els = np.flatnonzero(counts == n_res)
        k = cache.offsets[els, None] + np.arange(n_res)
        Se = sum(c * (D[p][k] * W[els, None, :]) @ D[q][k].transpose(0, 2, 1)
                 for c, p, q in terms)
        res = cache.res[k]
        rows.append(np.repeat(res, n_res, axis=1).ravel())
        cols.append(np.tile(res, n_res).ravel())
        vals.append(Se.ravel())
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(L, L)).tocsr()


def normal_equations_collocation(surface, points, ghosts, alpha1, weights):
    """(A, b) of the penalized fit from collocation matrices:
    A = alpha1 S + alpha2 (B^T B + GHOST_WEIGHT G^T G) and
    b = alpha2 (B^T z + GHOST_WEIGHT G^T z_ghost), alpha2 = 1 - alpha1."""
    B, _ = basis_matrix(surface, points[:, 0], points[:, 1])
    BtB = B.T @ B
    Btz = B.T @ points[:, 2]
    if len(ghosts):
        G, _ = basis_matrix(surface, ghosts[:, 0], ghosts[:, 1])
        BtB = BtB + GHOST_WEIGHT * (G.T @ G)
        Btz = Btz + GHOST_WEIGHT * (G.T @ ghosts[:, 2])
    alpha2 = 1.0 - alpha1
    A = (alpha1 * smoothing_matrix_quadrature(surface, weights) + alpha2 * BtB).tocsc()
    return A, alpha2 * Btz


def mba_delta_collocation(surface, points, residuals, tau):
    """The coefficient change of one correction sweep, from the CSR
    entries of the points' collocation matrix."""
    B, _ = basis_matrix(surface, points[:, 0], points[:, 1])
    r = np.asarray(residuals, dtype=float)
    rows = np.repeat(np.arange(len(points)), np.diff(B.indptr))
    w, cols = B.data, B.indices
    w2 = w * w
    D = np.bincount(rows, weights=w2, minlength=len(points))
    L = len(surface)
    num = np.bincount(cols, weights=w * w2 * (r / D)[rows], minlength=L)
    den = np.bincount(cols, weights=w2, minlength=L)
    max_abs_r = np.zeros(L)
    np.maximum.at(max_abs_r, cols, np.abs(r)[rows])
    active = (den > 0) & (max_abs_r > tau)
    delta = np.zeros(L)
    delta[active] = num[active] / den[active]
    return delta


def _stats(xy, r):
    return {"n": len(r), "mean": float(r.mean()),
            "std": float(np.std(r, ddof=1)) if len(r) >= 2 else None,
            "lo": float(r.min()), "hi": float(r.max()),
            "bbox": (float(xy[:, 0].min()), float(xy[:, 0].max()),
                     float(xy[:, 1].min()), float(xy[:, 1].max()))}


def _box_area(b):
    return (b[1] - b[0]) * (b[3] - b[2])


def _box_cut(a, b):
    return (max(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), min(a[3], b[3]))


def _box_overlap(a, b):
    r = _box_cut(a, b)
    return max(r[1] - r[0], 0.0) * max(r[3] - r[2], 0.0)


def _inside(xy, r):
    return (xy[:, 0] >= r[0]) & (xy[:, 0] <= r[1]) & (xy[:, 1] >= r[2]) & (xy[:, 1] <= r[3])


def _pair_verdict(hi, cand, tau, data, reference, gap_scale):
    """(verdict, t) of two samples with point data, in scalars."""
    from scipy import special
    from scipy.spatial import cKDTree

    t = None
    if hi["std"] is not None and cand["std"] is not None:
        va, vb = hi["std"] ** 2 / hi["n"], cand["std"] ** 2 / cand["n"]
        t = (hi["mean"] - cand["mean"]) / math.sqrt(va + vb) if va + vb > 0 else math.inf
    overlap = _box_overlap(hi["bbox"], cand["bbox"])
    big = max(_box_area(hi["bbox"]), _box_area(cand["bbox"]))
    hi_xy, hi_r, cand_xy, cand_r = data
    if overlap <= 0.0:
        dist, idx = cKDTree(hi_xy).query(cand_xy, k=1)
        j = np.argsort(dist, kind="stable")[:dc.NEIGHBOR_PAIRS]
        dist, i = dist[j], idx[j]
        if dist[0] >= dc.KEEP_GAP_FACTOR * gap_scale:
            return dc.CONSISTENT, t
        allow = tau
        if reference is not None:
            mid = 0.5 * (hi_xy[i] + cand_xy[j])
            g = evaluate(reference, mid[:, 0], mid[:, 1], order=1)
            allow = tau + np.minimum(np.hypot(g[:, 1], g[:, 2]) * dist, dc.SLOPE_CAP * tau)
        bad = (np.abs(hi_r[i] - cand_r[j]) > allow).any()
        return (dc.NOT_CONSISTENT if bad else dc.CONSISTENT), t
    c1 = abs(hi["mean"] - cand["mean"]) <= tau * dc.MEAN_FACTOR
    m2, m3 = tau * dc.RANGE_FACTOR, tau * dc.WITHIN_FACTOR
    c2 = cand["lo"] >= hi["lo"] - m2 and cand["hi"] <= hi["hi"] + m2
    c3 = ((cand_r >= hi["lo"] - m3) & (cand_r <= hi["hi"] + m3)).mean() >= dc.WITHIN_FRACTION
    n = hi["n"] + cand["n"]
    mean = (hi["n"] * hi["mean"] + cand["n"] * cand["mean"]) / n
    m2sum = sum((s["n"] - 1) * s["std"] ** 2 for s in (hi, cand) if s["std"] is not None)
    m2sum += sum(s["n"] * (s["mean"] - mean) ** 2 for s in (hi, cand))
    stds = [s["std"] for s in (hi, cand) if s["std"] is not None]
    c4 = not stds or math.sqrt(m2sum / (n - 1)) <= dc.STD_GROWTH * max(stds)
    p = 1 - dc.STD_CONFIDENCE
    large = any(s["std"] * math.sqrt((s["n"] - 1) / (2 * special.gammaincinv((s["n"] - 1) / 2, p)))
                > dc.LARGE_STD_FACTOR * tau for s in (hi, cand) if s["std"] is not None)
    if c1 and c2 and c3 and c4:
        return (dc.INDETERMINATE if large else dc.CONSISTENT), t
    if large or (overlap / big if big > 0 else 0.0) < dc.SMALL_OVERLAP:
        return dc.INDETERMINATE, t
    if min(hi["n"], cand["n"]) < dc.MIN_DECIDE:
        return dc.INDETERMINATE, t
    return dc.NOT_CONSISTENT, t


def pair_test_per_pair(hi_xy, hi_r, cand_xy, cand_r, tau, rect, cover, reference=None,
                       depth=0, gap_scale=None):
    """(verdict, keep, pending, t) of ``pairwise_element_test``, one
    sub-domain call at a time."""
    from scipy.spatial import cKDTree

    if gap_scale is None:
        gap_scale = math.hypot(rect[1] - rect[0], rect[3] - rect[2])
    hi, cand = _stats(hi_xy, hi_r), _stats(cand_xy, cand_r)
    verdict, t = _pair_verdict(hi, cand, tau, (hi_xy, hi_r, cand_xy, cand_r), reference,
                               gap_scale)
    keep = np.ones(len(cand_r), dtype=bool)
    pending = np.zeros(len(cand_r), dtype=bool)
    if verdict == dc.CONSISTENT:
        return verdict, keep, pending, t
    if verdict == dc.NOT_CONSISTENT:
        return verdict, ~_inside(cand_xy, _box_cut(rect, cover)), pending, t
    rects = []
    if depth < dc.MAX_DEPTH:
        if cand["n"] <= 3:
            d, _ = cKDTree(hi_xy).query(cand_xy, k=min(4, len(hi_xy)))
            h = 2.0 * d.reshape(len(cand_xy), -1).max(axis=1)
            rects = [(x - w, x + w, y - w, y + w) for (x, y), w in zip(cand_xy, h)]
        elif (_box_overlap(hi["bbox"], cand["bbox"])
              < 0.8 * min(_box_area(hi["bbox"]), _box_area(cand["bbox"]))):
            rects = [_box_cut(hi["bbox"], cand["bbox"])]
        elif min(hi["n"], cand["n"]) >= 2 * dc.MIN_DECIDE:
            xm, ym = 0.5 * (rect[0] + rect[1]), 0.5 * (rect[2] + rect[3])
            rects = [(rect[0], xm, rect[2], ym), (xm, rect[1], rect[2], ym),
                     (rect[0], xm, ym, rect[3]), (xm, rect[1], ym, rect[3])]
    if not rects:
        return dc.INDETERMINATE, keep, ~pending, t
    examined = np.zeros(len(cand_r), dtype=bool)
    for sub in rects:
        fresh = _inside(cand_xy, sub) & ~examined
        examined |= fresh
        hi_in = _inside(hi_xy, sub)
        if fresh.any() and hi_in.any():
            _, k, p, _ = pair_test_per_pair(hi_xy[hi_in], hi_r[hi_in], cand_xy[fresh],
                                            cand_r[fresh], tau, sub, cover, reference,
                                            depth + 1, gap_scale)
            keep[np.flatnonzero(fresh)[~k]] = False
            pending[np.flatnonzero(fresh)[p]] = True
    verdict = (dc.INDETERMINATE if pending.any() else
               dc.NOT_CONSISTENT if not keep.all() else dc.CONSISTENT)
    return verdict, keep, pending, t
