"""Box-partition meshes and locally refined B-spline surfaces.

A surface is a collection of scaled B-splines, each defined by short local
knot vectors (degree + 2 knots per direction) over a rectangular domain.
The mesh is the set of axis-parallel knot-line segments; elements are the
maximal rectangles not crossed by any segment.  Refinement inserts segments
that span at least one B-spline support; a B-spline is split by univariate
knot insertion wherever a mesh line fully traverses its support at a
multiplicity its knot vector lacks, until no such line is left.

Refinement and the element partition work on whole arrays.  The split
engine turns the knots into integer index rows into the mesh coordinate
tables and runs one generation at a time: it finds the first traversing
line of every queued B-spline with lookups into per-line coverage, splits
all hits at once, merges products with equal knots (among themselves and
into live B-splines), and queues the products that are new.  The element
partition finds each fine cell's element by walking left to the nearest
cut, then down.  The partition is arrays only: element e is row e of an
(n, 4) bounds array and the cells it covers, with no object of its own.
"""
from __future__ import annotations

import bisect
import functools
import itertools
from operator import attrgetter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Segment",
    "BoxMesh",
    "ScaledBSpline",
    "LRSurface",
    "make_tensor_surface",
    "insert_segment",
    "insert_segments",
    "validate_surface",
    "independence_report",
    "restrict",
    "transpose",
]

# Relative snap tolerance: coordinates closer than this (relative to the
# domain extent) are considered the same mesh line.  Must stay well below
# half the minimal element width enforced by refinement (extent / 2**15).
SNAP_REL = 1e-9
# B-splines per slice of the split search; bounds its temporary arrays
_CHUNK = 1 << 15


@dataclass(frozen=True)
class Segment:
    """Axis-parallel knot line segment.

    axis 0 is a line of constant u (it adds u-knots when inserted); axis 1
    is a line of constant v.  ``pos`` is the coordinate on ``axis``, the
    interval [lo, hi] lives on the other axis.
    """

    axis: int
    pos: float
    lo: float
    hi: float
    mult: int = 1


def _merge_cover(parts: list[tuple[float, float, int]],
                 new: list[tuple[float, float, int]]) -> list[tuple[float, float, int]]:
    """Merge intervals (lo, hi, mult) into a sorted, disjoint piece list,
    taking the pointwise maximum multiplicity."""
    items = parts + new
    cuts = sorted({x for a, b, _ in items for x in (a, b)})
    at = {c: k for k, c in enumerate(cuts)}
    mult = [0] * (len(cuts) - 1)
    for a, b, m in items:
        for k in range(at[a], at[b]):
            mult[k] = max(mult[k], m)
    out: list[tuple[float, float, int]] = []
    for a, b, m in zip(cuts[:-1], cuts[1:], mult):
        if m > 0:
            if out and out[-1][1] == a and out[-1][2] == m:
                out[-1] = (out[-1][0], b, m)
            else:
                out.append((a, b, m))
    return out


def _min_mult(parts: list[tuple[float, float, int]], lo: float, hi: float) -> int:
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


class BoxMesh:
    """Mesh of axis-parallel segments over a rectangular domain.

    Coordinates are snapped to per-axis tables so equality tests on knot
    values are exact.  Coverage is stored per (axis, position) as disjoint
    intervals with multiplicities.
    """

    def __init__(self, domain: tuple[float, float, float, float]):
        umin, umax, vmin, vmax = map(float, domain)
        if not (umax > umin and vmax > vmin):
            raise ValueError("degenerate domain")
        self.domain = (umin, umax, vmin, vmax)
        self._coords: list[list[float]] = [[umin, umax], [vmin, vmax]]
        self._cover: list[dict[float, list[tuple[float, float, int]]]] = [{}, {}]
        self._cover_pos: list[list[float]] = [[], []]
        self.version = 0

    # -- coordinates -------------------------------------------------

    def extent(self, axis: int) -> float:
        lo, hi = self.domain[2 * axis], self.domain[2 * axis + 1]
        return hi - lo

    def snap(self, axis: int, value: float, insert: bool = False) -> float:
        """Return the table coordinate for ``value``; optionally add it."""
        coords = self._coords[axis]
        tol = SNAP_REL * self.extent(axis)
        i = bisect.bisect_left(coords, value)
        for j in (i - 1, i):
            if 0 <= j < len(coords) and abs(coords[j] - value) <= tol:
                return coords[j]
        if not insert:
            raise KeyError(f"coordinate {value!r} is not on a mesh line of axis {axis}")
        coords.insert(i, float(value))
        return float(value)

    def coords(self, axis: int) -> np.ndarray:
        return np.asarray(self._coords[axis])

    # -- coverage ----------------------------------------------------

    def add_cover(self, axis: int, pos: float,
                  parts: list[tuple[float, float, int]]) -> bool:
        """Merge intervals (lo, hi, mult) into the coverage of one line;
        returns True when the mesh actually changed."""
        cov = self._cover[axis]
        old = cov.get(pos, [])
        new = _merge_cover(old, parts)
        if new == old:
            return False
        cov[pos] = new
        if not old:
            bisect.insort(self._cover_pos[axis], pos)
        self.version += 1
        return True

    def cover_mult(self, axis: int, pos: float, lo: float, hi: float) -> int:
        """Minimal multiplicity of coverage over [lo, hi]; 0 if any gap."""
        return _min_mult(self._cover[axis].get(pos, []), lo, hi)

    def _pieces(self, axis: int):
        """Coverage of ``axis`` as index arrays (pos, lo, hi, mult), sorted by
        line, then by interval start.  ``pos`` indexes the axis's coordinate
        table, ``lo`` and ``hi`` the other axis's."""
        flat = [(p, lo, hi, m) for p in self._cover_pos[axis]
                for lo, hi, m in self._cover[axis][p]]
        a = np.array(flat, dtype=float).reshape(-1, 4)
        own, other = self.coords(axis), self.coords(1 - axis)
        return (np.searchsorted(own, a[:, 0]), np.searchsorted(other, a[:, 1]),
                np.searchsorted(other, a[:, 2]), a[:, 3].astype(np.int64))

    def segments(self) -> list[Segment]:
        out = []
        for axis in (0, 1):
            for pos in self._cover_pos[axis]:
                for lo, hi, m in self._cover[axis][pos]:
                    out.append(Segment(axis, pos, lo, hi, m))
        return out

    def copy(self) -> "BoxMesh":
        out = BoxMesh(self.domain)
        out._coords = [list(c) for c in self._coords]
        out._cover = [{p: list(parts) for p, parts in cov.items()} for cov in self._cover]
        out._cover_pos = [list(p) for p in self._cover_pos]
        return out

    # -- elements ----------------------------------------------------

    def elements(self):
        """Compute the box partition.

        Returns (bounds, cell_map, ucells, vcells) where ucells/vcells are
        the fine-grid cut coordinates, cell_map maps fine cells to element
        indices and bounds is the (n, 4) array of element rectangles
        (u_lo, u_hi, v_lo, v_hi).  Computed afresh on every call; the
        surface's ``evaluate.eval_cache`` is what keeps it.

        An element is found from any of its fine cells by walking left to the
        nearest cut, then down: that reaches its lower-left cell.  Elements
        are numbered in the scan order of those cells, by v, then by u (flat
        index j * nu + i).
        """
        uc = self.coords(0)
        vc = self.coords(1)
        nu, nv = len(uc) - 1, len(vc) - 1
        # left[i, j] / below[i, j]: the left / lower edge of fine cell (i, j)
        # lies on the domain boundary or on a segment
        left = np.zeros((nu, nv), dtype=bool)
        below = np.zeros((nu, nv), dtype=bool)
        left[0] = below[:, 0] = True
        for axis, cut, n in ((0, left, nu), (1, below, nv)):
            pos, lo, hi, _ = self._pieces(axis)
            inner = (pos > 0) & (pos < n)
            pos, lo, hi = pos[inner], lo[inner], hi[inner]
            line, cell = np.repeat(pos, hi - lo), _ranges(lo, hi - lo)
            cut[(line, cell) if axis == 0 else (cell, line)] = True
        i_left = np.where(left, np.arange(nu, dtype=np.int32)[:, None], 0)
        np.maximum.accumulate(i_left, axis=0, out=i_left)
        j_down = np.where(below, np.arange(nv, dtype=np.int32), 0)
        np.maximum.accumulate(j_down, axis=1, out=j_down)
        # flat index j * nu + i of each cell's lower-left cell
        anchor = np.take_along_axis(j_down, i_left, axis=0)
        anchor *= nu
        anchor += i_left
        del i_left, j_down
        is_anchor = np.zeros(nu * nv, dtype=bool)
        is_anchor[anchor] = True
        rank = np.cumsum(is_anchor, dtype=np.int32)
        rank -= 1
        cell_map = rank[anchor]
        del anchor, rank
        j0, i0 = np.divmod(np.flatnonzero(is_anchor), nu)
        # far ends: the nearest cut right of the anchor in its row, and above
        # it in its column
        right = np.flatnonzero(np.roll(left, -1, axis=0).T)
        i1 = right[np.searchsorted(right, j0 * nu + i0)] - j0 * nu
        up = np.flatnonzero(np.roll(below, -1, axis=1))
        j1 = up[np.searchsorted(up, i0 * nv + j0)] - i0 * nv
        bounds = np.column_stack([uc[i0], uc[i1 + 1], vc[j0], vc[j1 + 1]])
        return bounds, cell_map, uc, vc


@dataclass
class ScaledBSpline:
    """One B-spline with local knot vectors and a positive scaling factor.

    ``knots`` holds one tuple per direction, each of length degree + 2.
    The scaling keeps the collection a partition of unity; the elevation
    coefficient lives in the owning surface's coefficient array.
    """

    knots: tuple[tuple[float, ...], tuple[float, ...]]
    scaling: float = 1.0

    @property
    def ku(self) -> tuple[float, ...]:
        return self.knots[0]

    @property
    def kv(self) -> tuple[float, ...]:
        return self.knots[1]

    def support(self) -> tuple[float, float, float, float]:
        ku, kv = self.knots
        return (ku[0], ku[-1], kv[0], kv[-1])

    def key(self) -> tuple:
        return self.knots


class LRSurface:
    """Locally refined B-spline elevation surface F(u, v) = sum s_i P_i N_i.

    Evaluation is read-only and cache-backed; refinement and coefficient
    updates mutate the surface in place.  Refinement bumps ``version`` so
    the evaluation cache rebuilds; a coefficient update leaves it valid.
    Single-writer semantics: never refine while another part of the
    program holds evaluation state for the same surface.
    """

    def __init__(self, degrees: tuple[int, int], mesh: BoxMesh,
                 bsplines: list[ScaledBSpline], coeffs: np.ndarray,
                 units: tuple[str, str] = ("local-xy", "m")):
        self.degrees = (int(degrees[0]), int(degrees[1]))
        self.mesh = mesh
        self.bsplines = bsplines
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.units = units
        self.version = 0
        self._eval_cache = None  # flat element layer, see evaluate.eval_cache

    def __len__(self) -> int:
        return len(self.bsplines)

    @property
    def domain(self) -> tuple[float, float, float, float]:
        return self.mesh.domain

    def bump(self) -> None:
        self.version += 1

    def canonical_order(self) -> None:
        """Sort B-splines by knot vectors so output order is reproducible."""
        order = sorted(range(len(self.bsplines)), key=lambda i: self.bsplines[i].key())
        self.bsplines = [self.bsplines[i] for i in order]
        self.coeffs = self.coeffs[order]
        self.bump()

    def copy(self) -> "LRSurface":
        bs = [ScaledBSpline(b.knots, b.scaling) for b in self.bsplines]
        return LRSurface(self.degrees, self.mesh.copy(), bs, self.coeffs.copy(),
                         self.units)


def make_tensor_surface(domain: tuple[float, float, float, float],
                        degrees: tuple[int, int] = (2, 2),
                        grid: tuple[int, int] = (7, 7),
                        coeff: float = 0.0,
                        units: tuple[str, str] = ("local-xy", "m")) -> LRSurface:
    """Uniform tensor-product start space with ``grid`` coefficients per
    direction and clamped (open) boundary knots."""
    du, dv = degrees
    nu, nv = grid
    if nu < du + 1 or nv < dv + 1:
        raise ValueError("grid must provide at least degree+1 coefficients per direction")
    mesh = BoxMesh(domain)
    umin, umax, vmin, vmax = mesh.domain
    full: list[list[float]] = []
    for axis, (lo, hi, d, n) in enumerate(((umin, umax, du, nu), (vmin, vmax, dv, nv))):
        interior = list(np.linspace(lo, hi, n - d + 1)[1:-1])
        interior = [mesh.snap(axis, c, insert=True) for c in interior]
        full.append([lo] * (d + 1) + interior + [hi] * (d + 1))
    # boundary lines carry multiplicity degree+1, interior lines 1
    for axis, d in ((0, du), (1, dv)):
        o_lo = mesh.domain[2 * (1 - axis)]
        o_hi = mesh.domain[2 * (1 - axis) + 1]
        lo, hi = mesh.domain[2 * axis], mesh.domain[2 * axis + 1]
        mesh.add_cover(axis, lo, [(o_lo, o_hi, d + 1)])
        mesh.add_cover(axis, hi, [(o_lo, o_hi, d + 1)])
        for c in full[axis][d + 1:-(d + 1)]:
            mesh.add_cover(axis, c, [(o_lo, o_hi, 1)])
    bsplines = []
    for i in range(nu):
        ku = tuple(full[0][i:i + du + 2])
        for j in range(nv):
            kv = tuple(full[1][j:j + dv + 2])
            bsplines.append(ScaledBSpline((ku, kv), 1.0))
    coeffs = np.full(len(bsplines), float(coeff))
    return LRSurface(degrees, mesh, bsplines, coeffs, units)


# -- knot insertion ---------------------------------------------------


def _split_weights(t: np.ndarray, d: int, c: np.ndarray):
    """Weights (a1, a2) of degree-``d`` knot vectors split at ``c``.

    ``t`` is (n, d + 2) and ``c`` is (n,), with t[:, 0] < c < t[:, -1].  With
    t1 and t2 the first and the last d + 2 knots of t with c inserted,
    N_t = a1 * N_t1 + a2 * N_t2.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a1 = np.where(c >= t[:, d], 1.0, (c - t[:, 0]) / (t[:, d] - t[:, 0]))
        a2 = np.where(c <= t[:, 1], 1.0, (t[:, d + 1] - c) / (t[:, d + 1] - t[:, 1]))
    return a1, a2


def _knot_rows(surface: LRSurface) -> np.ndarray:
    """Per B-spline, its du + 2 u-knot and dv + 2 v-knot indices into the
    mesh coordinate tables, as one int32 row."""
    du, dv = surface.degrees
    knots = map(attrgetter("knots"), surface.bsplines)
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(knots))
    k = np.fromiter(flat, dtype=float).reshape(-1, du + dv + 4)
    rows = np.empty(k.shape, dtype=np.int32)
    rows[:, :du + 2] = np.searchsorted(surface.mesh.coords(0), k[:, :du + 2])
    rows[:, du + 2:] = np.searchsorted(surface.mesh.coords(1), k[:, du + 2:])
    return rows


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per knot row; keys compare like the rows do
    lexicographically, so sorting them gives the canonical order."""
    big = np.ascontiguousarray(rows, dtype=">u4")
    return big.view(np.dtype((np.void, 4 * big.shape[1]))).ravel()


def _line_cover(mesh: BoxMesh, axis: int, d: int):
    """Per-line coverage of ``axis`` for traversal queries.

    Returns (lines, keys, reach, n): the covered line positions, the piece
    keys pos * n + lo in increasing order (n is the size of the other
    coordinate table), and reach[t, k] for t = 0..d: the far end of the run
    of abutting pieces of one line, from piece k on, whose multiplicities
    all exceed t; -1 where piece k's own does not.
    """
    pos, lo, hi, mult = mesh._pieces(axis)
    n = len(mesh._coords[1 - axis])
    abut = (pos[1:] == pos[:-1]) & (lo[1:] == hi[:-1])
    idx = np.arange(len(pos))
    reach = np.empty((d + 1, len(pos)), dtype=np.int64)
    for t in range(d + 1):
        ok = mult > t
        stop = np.ones(len(pos), dtype=bool)
        stop[:-1] = ~(abut & ok[1:])
        last = np.minimum.accumulate(np.where(stop, idx, len(pos))[::-1])[::-1]
        reach[t] = np.where(ok, hi[last], -1)
    return np.unique(pos), pos * n + lo, reach, n


def _first_splits(rows: np.ndarray, cols, lines, degrees):
    """The first line that splits each row's B-spline, as (axis, pos).

    Scans the covered lines strictly inside the support, axis 0 before
    axis 1 and lower positions first, for one that fully traverses the
    support at a multiplicity above the row's own; ``pos`` is -1 where none
    does.  Works through the rows in slices of ``_CHUNK``, which bounds
    the (row, line) pair arrays.
    """
    axis = np.zeros(len(rows), dtype=np.int8)
    pos = np.full(len(rows), -1, dtype=np.int64)
    for base, ax in itertools.product(range(0, len(rows), _CHUNK), (0, 1)):
        todo = base + np.flatnonzero(pos[base:base + _CHUNK] < 0)
        kn, other = rows[todo][:, cols[ax]], rows[todo][:, cols[1 - ax]]
        covered, keys, reach, n = lines[ax]
        start = np.searchsorted(covered, kn[:, 0], side="right")
        count = np.maximum(np.searchsorted(covered, kn[:, -1]) - start, 0)
        b = np.repeat(np.arange(len(todo)), count)
        p = covered[_ranges(start, count)]
        have = sum(col[b] == p for col in kn.T)
        room = have <= degrees[ax]
        b, p, have = b[room], p[room], have[room]
        # the last piece starting at or before the support's low end
        q = p * n + other[b, 0]
        k = np.maximum(np.searchsorted(keys, q, side="right") - 1, 0)
        hit = ((keys[k] <= q) & (keys[k] >= p * n)
               & (reach[have, k] >= other[b, -1]))
        b, p = b[hit], p[hit]
        first = np.flatnonzero(np.diff(b, prepend=-1))
        pos[todo[b[first]]] = p[first]
        axis[todo[b[first]]] = ax
    return axis, pos


def _split_worklist(surface: LRSurface) -> None:
    """Split every B-spline (transitively) that a mesh line now traverses.

    Works on knot index rows, one generation at a time.  Generation 0 is
    every B-spline.  Each generation finds the first traversing line of
    every queued B-spline (``_first_splits``), splits all hits at once and
    merges the products that have equal knots: with each other, and into
    the live B-spline that already has those knots, by summing scaled
    contributions.  The products that are new form the next generation.
    The live B-splines are kept as sorted row keys, so the result comes out
    in canonical order; untouched B-splines keep their objects.
    """
    mesh = surface.mesh
    deg = surface.degrees
    cols = (slice(0, deg[0] + 2), slice(deg[0] + 2, None))
    coords = (mesh.coords(0), mesh.coords(1))
    lines = [_line_cover(mesh, ax, deg[ax]) for ax in (0, 1)]
    queue = _knot_rows(surface)
    chunks = [queue]
    n0 = len(queue)
    scal = np.fromiter(map(attrgetter("scaling"), surface.bsplines), dtype=float)
    coef = np.array(surface.coeffs, dtype=float)
    merged = np.zeros(n0, dtype=bool)
    # live B-splines: sorted row keys and the storage slot of each
    keys = _row_keys(queue)
    slot = np.argsort(keys, kind="stable")
    keys = keys[slot]
    at = np.empty(n0, dtype=np.int64)  # where each queued B-spline sits in keys
    at[slot] = np.arange(n0)
    base = 0  # storage slot of queue[0]
    while len(queue):
        axis, pos = _first_splits(queue, cols, lines, deg)
        hit = np.flatnonzero(pos >= 0)
        if not len(hit):
            break
        keys, slot = np.delete(keys, at[hit]), np.delete(slot, at[hit])
        rows, s, c = [], [], []
        for ax in (0, 1):
            h = hit[axis[hit] == ax]
            r, p = queue[h], pos[h]
            t = r[:, cols[ax]]
            a1, a2 = _split_weights(coords[ax][t], deg[ax], coords[ax][p])
            ext = np.sort(np.column_stack([t, p]), axis=1)
            for a, tk in ((a1, ext[:, :-1]), (a2, ext[:, 1:])):
                prod = r.copy()
                prod[:, cols[ax]] = tk
                rows.append(prod)
                s.append(scal[base + h] * a)
                c.append(coef[base + h])
        rows, s, c = np.concatenate(rows), np.concatenate(s), np.concatenate(c)
        pkey, first, group = np.unique(_row_keys(rows), return_index=True,
                                       return_inverse=True)
        tot, wsum = np.bincount(group, s), np.bincount(group, s * c)
        alone = np.bincount(group) == 1
        rows, c = rows[first], c[first]
        c[~alone] = wsum[~alone] / tot[~alone]
        # products that a live B-spline already has merge into it
        at = np.searchsorted(keys, pkey)
        live = at < len(keys)
        live[live] = keys[at[live]] == pkey[live]
        j = slot[at[live]]
        coef[j] = (scal[j] * coef[j] + wsum[live]) / (scal[j] + tot[live])
        scal[j] += tot[live]
        merged[j[j < n0]] = True
        new = ~live
        base = len(scal)
        at = at[new]
        keys = np.insert(keys, at, pkey[new])
        slot = np.insert(slot, at, base + np.arange(len(at)))
        at += np.arange(len(at))
        scal, coef = np.append(scal, tot[new]), np.append(coef, c[new])
        queue = rows[new]
        chunks.append(queue)
    rows = np.concatenate(chunks)
    reuse = slot < n0
    reuse[reuse] = ~merged[slot[reuse]]
    out = np.empty(len(slot), dtype=object)
    out[reuse] = np.fromiter(surface.bsplines, dtype=object)[slot[reuse]]
    out[~reuse] = _bsplines_from_rows(rows[slot[~reuse]], scal[slot[~reuse]], mesh, cols)
    surface.bsplines = out.tolist()
    surface.coeffs = coef[slot]


def _bsplines_from_rows(rows, scal, mesh: BoxMesh, cols) -> list[ScaledBSpline]:
    """ScaledBSpline objects for knot index rows and scalings.  Equal knot
    vectors share one tuple of the mesh's own coordinate values."""
    knots = []
    for ax in (0, 1):
        r = rows[:, cols[ax]]
        _, first, inv = np.unique(_row_keys(r), return_index=True, return_inverse=True)
        table = mesh._coords[ax]
        shared = [tuple(map(table.__getitem__, q)) for q in r[first].tolist()]
        knots.append(map(shared.__getitem__, inv.tolist()))
    return list(map(ScaledBSpline, zip(*knots), scal.tolist()))


def insert_segment(surface: LRSurface, seg: Segment) -> None:
    """Insert one knot-line segment and resolve all induced splits.

    The segment must be axis-parallel inside the domain, its endpoints must
    lie on existing mesh lines, and it must fully traverse at least one
    B-spline support (or be already contained in the mesh, a no-op).  A
    rejected segment leaves the surface unchanged.  Geometry is preserved
    exactly up to floating point.
    """
    mesh = surface.mesh
    axis = seg.axis
    if axis not in (0, 1):
        raise ValueError("segment axis must be 0 or 1")
    if not (mesh.domain[2 * axis] <= seg.pos <= mesh.domain[2 * axis + 1]):
        raise ValueError(f"segment position {seg.pos} outside domain axis {axis}")
    try:
        lo = mesh.snap(1 - axis, seg.lo)
        hi = mesh.snap(1 - axis, seg.hi)
    except KeyError as exc:
        raise ValueError(f"segment endpoints must lie on existing mesh lines: {exc}") from exc
    if not lo < hi:
        raise ValueError("segment has empty extent")
    try:
        pos = mesh.snap(axis, seg.pos)
    except KeyError:
        pos = float(seg.pos)
    # legality: after merging, the segment must traverse some support at a
    # multiplicity its knot vector does not yet carry, unless it is a no-op
    old = mesh._cover[axis].get(pos, [])
    new = _merge_cover(old, [(lo, hi, seg.mult)])
    if new == old:
        return
    for b in surface.bsplines:
        kn, other = b.knots[axis], b.knots[1 - axis]
        if kn[0] < pos < kn[-1] and _min_mult(new, other[0], other[-1]) > kn.count(pos):
            break
    else:
        raise ValueError("segment does not traverse any B-spline support")
    insert_segments(surface, [Segment(axis, pos, lo, hi, seg.mult)])


def insert_segments(surface: LRSurface, segments) -> None:
    """Batch insert: merge all coverage first, once per line, then one
    global split pass.

    Intended for refinement batches whose legality is known by construction
    (each segment spans the support of the B-spline that requested it).
    """
    mesh = surface.mesh
    snap = functools.cache(mesh.snap)  # segments share most coordinates
    lines: dict[tuple[int, float], list[tuple[float, float, int]]] = {}
    for seg in segments:
        pos = snap(seg.axis, seg.pos, True)
        lo = snap(1 - seg.axis, seg.lo)
        hi = snap(1 - seg.axis, seg.hi)
        lines.setdefault((seg.axis, pos), []).append((lo, hi, seg.mult))
    changed = [mesh.add_cover(axis, pos, parts) for (axis, pos), parts in lines.items()]
    if any(changed):
        _split_worklist(surface)
        surface.bump()


# -- queries -----------------------------------------------------------


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ranges [starts[k], starts[k] + counts[k]) as one array."""
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return shift + np.arange(len(shift))


def residents_of(surface: LRSurface):
    """Per element, the indices of B-splines whose support covers it.

    Returns (bounds, offsets, res, cell_map, uc, vc): the residents of
    element e are ``res[offsets[e]:offsets[e + 1]]``, in increasing order;
    the other arrays are those of ``BoxMesh.elements``.
    """
    bounds, cell_map, uc, vc = surface.mesh.elements()
    nu = len(uc) - 1
    # An element lies inside a support iff its lower-left fine cell does.
    # Elements are numbered in the scan order of those cells, column by
    # column, so the cells' flat indices j * nu + i increase with e.
    anchors = (np.searchsorted(vc, bounds[:, 2]) * nu
               + np.searchsorted(uc, bounds[:, 0]))
    sup = np.array([b.support() for b in surface.bsplines]).reshape(-1, 4)
    i0, i1 = np.searchsorted(uc, sup[:, 0]), np.searchsorted(uc, sup[:, 1])
    j0, j1 = np.searchsorted(vc, sup[:, 2]), np.searchsorted(vc, sup[:, 3])
    # one search per (B-spline, fine column of its support)
    bs = np.repeat(np.arange(len(sup)), j1 - j0)
    col = _ranges(j0, j1 - j0)
    first = np.searchsorted(anchors, col * nu + i0[bs])
    count = np.searchsorted(anchors, col * nu + i1[bs]) - first
    bs = np.repeat(bs, count)
    el = _ranges(first, count)
    order = np.argsort(el, kind="stable")
    offsets = np.zeros(len(bounds) + 1, dtype=np.int64)
    np.cumsum(np.bincount(el, minlength=len(bounds)), out=offsets[1:])
    return bounds, offsets, bs[order], cell_map, uc, vc


def validate_surface(surface: LRSurface, check_unity: bool = True) -> None:
    """Structural invariants; raises AssertionError with a diagnostic.

    Checks that every B-spline knot, line position and segment endpoint is
    a mesh coordinate (the file formats index the coordinate tables), that
    every knot lies on a segment traversing its support, that scaling
    factors are positive, that the element partition is consistent with the
    segment arrangement, and (optionally) partition of unity at random
    sample points.
    """
    mesh = surface.mesh
    du, dv = surface.degrees
    coords = [set(mesh._coords[0]), set(mesh._coords[1])]
    for s in mesh.segments():
        assert s.pos in coords[s.axis] and {s.lo, s.hi} <= coords[1 - s.axis], (
            f"segment {s} has an end or position that is not a mesh coordinate")
    for i, b in enumerate(surface.bsplines):
        assert b.scaling > 0, f"B-spline {i} has non-positive scaling"
        for axis, d in ((0, du), (1, dv)):
            kn = b.knots[axis]
            assert len(kn) == d + 2, f"B-spline {i} axis {axis} has wrong knot count"
            assert all(a <= b for a, b in zip(kn, kn[1:])) and kn[0] < kn[-1], (
                f"B-spline {i} axis {axis} knots are not nondecreasing over a "
                f"non-empty support")
            assert set(kn) <= coords[axis], (
                f"B-spline {i} axis {axis} has a knot that is not a mesh coordinate")
            other = b.knots[1 - axis]
            for pos in set(kn):
                m = mesh.cover_mult(axis, pos, other[0], other[-1])
                assert m >= kn.count(pos), (
                    f"B-spline {i} knot {pos} on axis {axis} not fully traversed")
    _, cell_map, uc, vc = mesh.elements()
    assert (cell_map >= 0).all(), "unassigned fine cells"
    # covered edges must separate elements, uncovered edges must not
    for i in range(len(uc) - 2):
        for j in range(len(vc) - 1):
            covered = mesh.cover_mult(0, uc[i + 1], vc[j], vc[j + 1]) > 0
            same = cell_map[i, j] == cell_map[i + 1, j]
            assert covered != same, f"edge inconsistency at u={uc[i+1]}, cell {j}"
    for i in range(len(uc) - 1):
        for j in range(len(vc) - 2):
            covered = mesh.cover_mult(1, vc[j + 1], uc[i], uc[i + 1]) > 0
            same = cell_map[i, j] == cell_map[i, j + 1]
            assert covered != same, f"edge inconsistency at v={vc[j+1]}, cell {i}"
    if check_unity:
        from .evaluate import partition_of_unity
        rng = np.random.default_rng(0)
        umin, umax, vmin, vmax = mesh.domain
        x = rng.uniform(umin, umax, 200)
        y = rng.uniform(vmin, vmax, 200)
        unity = partition_of_unity(surface, x, y)
        err = np.abs(unity - 1.0).max()
        assert err <= 1e-10, f"partition of unity violated: {err}"


def independence_report(surface: LRSurface, samples_per_dir: int | None = None) -> dict:
    """Sampling-based linear independence diagnostic.

    Builds a collocation matrix on a dense per-element sample grid and
    checks its column rank through the Gram matrix spectrum.  This flags
    dependence reliably at desk scale but is not a structural proof.
    """
    from .evaluate import _dpowers, _pair_values, eval_cache
    du, dv = surface.degrees
    n = samples_per_dir or (max(du, dv) + 2)
    L = len(surface.bsplines)
    if L > 4000:
        raise ValueError("independence diagnostic is limited to 4000 B-splines")
    cache = eval_cache(surface)
    t = np.linspace(0.0, 1.0, n + 2)[1:-1]
    B = _pair_values(cache, _dpowers(t, du, 0, 1.0), _dpowers(t, dv, 0, 1.0))
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


# -- restriction and transposition -------------------------------------


def restrict(surface: LRSurface, rect: tuple[float, float, float, float]) -> LRSurface:
    """Exact restriction of the surface to a sub-rectangle.

    Inserts full clamped knot lines (multiplicity degree+1) along the
    rectangle edges, then keeps the B-splines supported inside.  The
    restricted surface evaluates identically to the original on ``rect``.
    """
    out = surface.copy()
    umin, umax, vmin, vmax = out.mesh.domain
    r0 = (max(rect[0], umin), min(rect[1], umax), max(rect[2], vmin), min(rect[3], vmax))
    if not (r0[0] < r0[1] and r0[2] < r0[3]):
        raise ValueError("restriction rectangle is empty")
    # snap edges onto existing mesh lines so knot comparisons below are exact
    r = (out.mesh.snap(0, r0[0], insert=True), out.mesh.snap(0, r0[1], insert=True),
         out.mesh.snap(1, r0[2], insert=True), out.mesh.snap(1, r0[3], insert=True))
    du, dv = out.degrees
    segs = []
    for axis, d, lo, hi in ((0, du, r[0], r[1]), (1, dv, r[2], r[3])):
        o_lo = out.mesh.domain[2 * (1 - axis)]
        o_hi = out.mesh.domain[2 * (1 - axis) + 1]
        for pos in (lo, hi):
            segs.append(Segment(axis, pos, o_lo, o_hi, d + 1))
    insert_segments(out, segs)

    keep = [i for i, b in enumerate(out.bsplines)
            if b.ku[0] >= r[0] and b.ku[-1] <= r[1]
            and b.kv[0] >= r[2] and b.kv[-1] <= r[3]]
    bsplines = [out.bsplines[i] for i in keep]
    coeffs = out.coeffs[keep]

    mesh = BoxMesh(r)
    for axis in (0, 1):
        a_lo, a_hi = r[2 * axis], r[2 * axis + 1]
        o_lo, o_hi = r[2 * (1 - axis)], r[2 * (1 - axis) + 1]
        for c in out.mesh._coords[axis]:
            if a_lo <= c <= a_hi:
                mesh.snap(axis, c, insert=True)
        for pos, parts in out.mesh._cover[axis].items():
            if not (a_lo <= pos <= a_hi):
                continue
            for lo, hi, m in parts:
                lo2, hi2 = max(lo, o_lo), min(hi, o_hi)
                if lo2 < hi2:
                    mesh.add_cover(axis, pos, [(lo2, hi2, m)])
    res = LRSurface(out.degrees, mesh, bsplines, coeffs, out.units)
    res.canonical_order()
    return res


def transpose(surface: LRSurface) -> LRSurface:
    """Swap the two parameter directions (u, v) -> (v, u)."""
    mesh = surface.mesh.copy()
    d = mesh.domain
    mesh.domain = (d[2], d[3], d[0], d[1])
    for per_axis in (mesh._coords, mesh._cover, mesh._cover_pos):
        per_axis.reverse()
    bs = [ScaledBSpline((b.kv, b.ku), b.scaling) for b in surface.bsplines]
    out = LRSurface((surface.degrees[1], surface.degrees[0]), mesh, bs,
                    surface.coeffs.copy(), surface.units)
    out.canonical_order()
    return out
