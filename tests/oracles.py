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
multiplicity; the tests compare ``BoxMesh.segments`` and
``BoxMesh.cover_mult`` against it.

``evaluate_at_all_elements`` is the point evaluation that builds the
polynomial of every element of the surface, whatever points are asked for,
and sums monomial by monomial; it shares the power rows (``_dpowers``) with
``lrterrain.evaluate._evaluate_at``, which the tests compare against it.
"""
import bisect
from collections import deque

import numpy as np

from lrterrain.evaluate import _COLUMNS, _dpowers
from lrterrain.mesh import ScaledBSpline, Segment


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
    covered = [sorted({s.pos for s in surface.mesh.segments() if s.axis == axis})
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
    for s in mesh.segments():
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
    U = [_dpowers(tu, du, a, 1.0 / wu) for a in range(order + 1)]
    V = [_dpowers(tv, dv, b, 1.0 / wv) for b in range(order + 1)]
    cols = _COLUMNS[:{0: 1, 1: 3, 2: 6}[order]]
    out = np.zeros((len(eid), len(cols)))
    for j in range(du + 1):
        for k in range(dv + 1):
            p = P[eid, j, k]
            for c, (a, b) in enumerate(cols):
                out[:, c] += p * U[a][:, j] * V[b][:, k]
    return out
