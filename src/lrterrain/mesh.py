"""Box-partition meshes and locally refined B-spline surfaces.

A surface is a collection of scaled B-splines, each defined by short local
knot vectors (degree + 2 knots per direction) over a rectangular domain.
The mesh is a box partition whose edges carry multiplicities; elements are
the maximal rectangles no edge crosses.  Refinement inserts segments that
span at least one B-spline support; a B-spline is split by univariate knot
insertion wherever a mesh line fully traverses its support at a
multiplicity its knot vector lacks, until no such line is left.

The mesh stores the partition once, per axis as a grid of line
multiplicities over the fine cells of its coordinate tables.  Every reader
is a slice of it: the element cuts, the traversal runs of the split
engine, ``cover_mult``, and the segments, its run-length encoding.  The
surface stores its B-splines once, as arrays in canonical order: one row
of mesh coordinates per B-spline (its u-knots, then its v-knots) and one
scaling each.  Float rows never renumber when a coordinate is added, so
the mesh knows nothing of B-splines; the knot index rows the split engine
works on are one ``searchsorted`` away.  The engine inserts into every
queued B-spline all the lines that traverse it, on both axes at once, one
generation at a time, and merges children with equal knots.  The mesh
fixes the B-splines: ``replay`` rebuilds them from the mesh alone, which
is how the binary format stores a surface.  ``LRSurface.bsplines`` is a
read-only view that builds a ``ScaledBSpline`` for each element read.  The
element partition walks each fine cell left to the nearest cut, then down;
element e is row e of an (n, 4) bounds array, with no object of its own.
"""
from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
    "replay",
    "restrict",
    "transpose",
]

# Relative snap tolerance: coordinates closer than this (relative to the
# domain extent) are considered the same mesh line.  Must stay well below
# half the minimal element width enforced by refinement (extent / 2**15).
SNAP_REL = 1e-9
# B-splines per slice of the split search; bounds its temporary arrays
_CHUNK = 1 << 15


class Segment(NamedTuple):
    """Axis-parallel knot line segment, one (axis, pos, lo, hi, mult) row.

    axis 0 is a line of constant u (it adds u-knots when inserted); axis 1
    is a line of constant v.  ``pos`` is the coordinate on ``axis``, the
    interval [lo, hi] lives on the other axis.  A list of segments is a
    list of rows, which is what ``insert_segments`` takes.
    """

    axis: int
    pos: float
    lo: float
    hi: float
    mult: int = 1


def _snap(coords: np.ndarray, values: np.ndarray, tol: float) -> np.ndarray:
    """Per value, the coordinate within ``tol`` of it (the lower of two, as
    ``BoxMesh.snap_many``), NaN where there is none."""
    i = np.clip(np.searchsorted(coords, values), 1, len(coords) - 1)
    lo, hi = coords[i - 1], coords[i]
    return np.where(np.abs(values - lo) <= tol, lo,
                    np.where(np.abs(hi - values) <= tol, hi, np.nan))


def _split_columns(grid: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Column ``at - 1`` of ``grid`` for each entry of ``at``, zeros where
    that is outside the grid: the cells a coordinate inserted at ``at``
    splits."""
    j = at - 1
    inside = (j >= 0) & (j < grid.shape[1])
    out = np.zeros((grid.shape[0], len(at)), dtype=grid.dtype)
    out[:, inside] = grid[:, j[inside]]
    return out


def _runs(grid: np.ndarray):
    """Maximal runs of equal nonzero values along the rows of ``grid``.

    Returns (row, start, end, value) arrays, by row, then by start; a run
    covers columns start..end - 1.
    """
    pad = np.zeros((grid.shape[0], grid.shape[1] + 2), dtype=grid.dtype)
    pad[:, 1:-1] = grid
    row, j = np.nonzero(pad[:, 1:] != pad[:, :-1])
    value = pad[row, j + 1]
    k = np.flatnonzero(value)
    return row[k], j[k], j[k + 1], value[k]


class BoxMesh:
    """Box partition of a rectangular domain, with edge multiplicities.

    Coordinates are snapped to per-axis tables so equality tests on knot
    values are exact.  ``_mult[axis][i, j]`` (uint8) is the multiplicity
    of the line at coordinate i of ``axis`` over fine cell j of the other
    axis, the cell between its coordinates j and j + 1; 0 where no segment
    covers it.  Segments exist only as runs of this grid, so every segment
    end is a mesh coordinate.
    """

    def __init__(self, domain: tuple[float, float, float, float]):
        umin, umax, vmin, vmax = dom = tuple(map(float, domain))
        if not np.isfinite(dom).all():
            raise ValueError(f"domain {list(dom)} is not finite")
        if not (umax > umin and vmax > vmin):
            raise ValueError("degenerate domain")
        self.domain = (umin, umax, vmin, vmax)
        self._coords: list[list[float]] = [[umin, umax], [vmin, vmax]]
        self._mult = [np.zeros((2, 1), dtype=np.uint8) for _ in range(2)]

    # -- coordinates -------------------------------------------------

    def extent(self, axis: int) -> float:
        lo, hi = self.domain[2 * axis], self.domain[2 * axis + 1]
        return hi - lo

    def snap_many(self, queries) -> list[float]:
        """The table coordinate of each (axis, value) query, in order: the
        one within tolerance of value, else value, added to the table.

        A new coordinate is a line that carries nothing and splits one fine
        cell of every line of the other axis in two.  Later queries see it
        at once; the grids grow once per axis, after the last query.
        """
        added: tuple[list[float], list[float]] = ([], [])

        def find(axis: int, value: float) -> float:
            coords = self._coords[axis]
            tol = SNAP_REL * self.extent(axis)
            i = bisect.bisect_left(coords, value)
            for j in (i - 1, i):
                if 0 <= j < len(coords) and abs(coords[j] - value) <= tol:
                    return coords[j]
            coords.insert(i, float(value))
            added[axis].append(float(value))
            return float(value)

        try:
            return [find(axis, value) for axis, value in queries]
        finally:
            # a zero row on its axis, a copy of the split cell on the other
            # (zero outside the table); ``at``: where the old table gets it
            for axis in (a for a in (0, 1) if added[a]):
                new = np.sort(added[axis])
                at = np.searchsorted(self._coords[axis], new) - np.arange(len(new))
                self._mult[axis] = np.insert(self._mult[axis], at, 0, axis=0)
                other = self._mult[1 - axis]
                self._mult[1 - axis] = np.insert(other, at, _split_columns(other, at), axis=1)

    def coords(self, axis: int) -> np.ndarray:
        return np.asarray(self._coords[axis])

    # -- coverage ----------------------------------------------------

    def _merge(self, rows) -> bool:
        """Merge legal segment rows (axis, pos, lo, hi, mult), every value a
        mesh coordinate, into the grids by maximum multiplicity.  Returns
        True when a grid changed."""
        rec = np.asarray(rows, dtype=float).reshape(-1, 5)
        changed = False
        for axis in (0, 1):
            a = rec[rec[:, 0] == axis]
            own, other = self._coords[axis], self._coords[1 - axis]
            lo, hi = np.searchsorted(other, a[:, 2]), np.searchsorted(other, a[:, 3])
            cells = (np.repeat(np.searchsorted(own, a[:, 1]), hi - lo), _ranges(lo, hi - lo))
            mult = np.repeat(a[:, 4].astype(np.uint8), hi - lo)
            grid = self._mult[axis]
            if (grid[cells] < mult).any():
                np.maximum.at(grid, cells, mult)
                changed = True
        return changed

    def cover_mult(self, axis: int, pos: float, lo: float, hi: float) -> int:
        """Minimal multiplicity of the line at ``pos`` over [lo, hi]; 0 if
        any part of it is uncovered or ``pos`` is not a coordinate."""
        own, other = self._coords[axis], self._coords[1 - axis]
        i = bisect.bisect_left(own, pos)
        j0 = bisect.bisect_right(other, lo) - 1
        j1 = max(bisect.bisect_left(other, hi), j0 + 1)
        if i == len(own) or own[i] != pos or j0 < 0 or j1 >= len(other):
            return 0
        return int(self._mult[axis][i, j0:j1].min())

    def segment_rows(self) -> np.ndarray:
        """The grids as segments: maximal runs of equal multiplicity, by
        axis, by line, then by start.  One row (axis, mult, line, lo, hi)
        per segment, the last three indices into the coordinate tables."""
        return np.vstack([np.column_stack([np.full(len(line), axis), mult, line, lo, hi])
                          for axis in (0, 1)
                          for line, lo, hi, mult in [_runs(self._mult[axis])]])

    def copy(self) -> "BoxMesh":
        out = BoxMesh(self.domain)
        out._coords = [list(c) for c in self._coords]
        out._mult = [m.copy() for m in self._mult]
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
        uc, vc = self.coords(0), self.coords(1)
        nu, nv = len(uc) - 1, len(vc) - 1
        # left[i, j] / below[i, j]: the left / lower edge of fine cell (i, j)
        # lies on the domain boundary or on a segment
        left = self._mult[0][:-1] > 0
        below = (self._mult[1][:-1] > 0).T
        left[0] = below[:, 0] = True
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


@dataclass(frozen=True)
class ScaledBSpline:
    """One B-spline with local knot vectors and a positive scaling factor.

    ``knots`` holds one tuple per direction, each of length degree + 2.
    The scaling keeps the collection a partition of unity; the elevation
    coefficient lives in the owning surface's coefficient array.  A frozen
    copy of one row of the surface's arrays (see ``LRSurface.bsplines``).
    """

    knots: tuple[tuple[float, ...], tuple[float, ...]]
    scaling: float = 1.0

    @property
    def ku(self) -> tuple[float, ...]:
        return self.knots[0]

    @property
    def kv(self) -> tuple[float, ...]:
        return self.knots[1]


@dataclass(frozen=True)
class _BSplineView(Sequence):
    """Read-only sequence of a surface's B-splines: reading element i
    builds a ``ScaledBSpline`` from row i of the surface's arrays."""

    _surface: "LRSurface"

    def __len__(self) -> int:
        return len(self._surface.scaling)

    def __getitem__(self, i):
        s = self._surface
        ku, kv = (tuple(s.axis_knots(axis)[i].tolist()) for axis in (0, 1))
        return ScaledBSpline((ku, kv), float(s.scaling[i]))


class LRSurface:
    """Locally refined B-spline elevation surface F(u, v) = sum s_i P_i N_i.

    B-spline i is row i of three arrays in canonical order: ``knots``
    (n, du + dv + 4), its u-knots then its v-knots, all mesh coordinates;
    ``scaling`` and ``coeffs``.  ``bsplines`` is a read-only view.

    Evaluation is read-only and cache-backed; refinement and coefficient
    updates mutate the surface in place.  Refinement replaces ``knots`` and
    ``scaling`` and bumps ``version`` so the evaluation cache rebuilds; a
    coefficient update leaves it valid.  Single-writer semantics: never
    refine while another part of the program holds evaluation state for
    the same surface.
    """

    def __init__(self, degrees: tuple[int, int], mesh: BoxMesh,
                 knots: np.ndarray, scaling: np.ndarray, coeffs: np.ndarray,
                 units: tuple[str, str] = ("local-xy", "m")):
        self.degrees = (int(degrees[0]), int(degrees[1]))
        self.mesh = mesh
        self.knots = np.asarray(knots, dtype=float)
        self.scaling = np.asarray(scaling, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.units = units
        self.version = 0
        self._eval_cache = None  # flat element layer, see evaluate.eval_cache

    def __len__(self) -> int:
        return len(self.scaling)

    @property
    def bsplines(self) -> _BSplineView:
        return _BSplineView(self)

    @property
    def domain(self) -> tuple[float, float, float, float]:
        return self.mesh.domain

    def axis_knots(self, axis: int) -> np.ndarray:
        """The u-knot (axis 0) or v-knot (axis 1) columns of ``knots``."""
        du = self.degrees[0]
        return self.knots[:, :du + 2] if axis == 0 else self.knots[:, du + 2:]

    def bump(self) -> None:
        self.version += 1

    def canonical_order(self) -> None:
        """Sort B-splines by knot vectors so output order is reproducible."""
        order = np.lexsort(self.knots.T[::-1])
        self.knots, self.scaling, self.coeffs = (
            a[order] for a in (self.knots, self.scaling, self.coeffs))
        self.bump()

    def copy(self) -> "LRSurface":
        return LRSurface(self.degrees, self.mesh.copy(), self.knots.copy(),
                         self.scaling.copy(), self.coeffs.copy(), self.units)


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
        interior = mesh.snap_many((axis, c) for c in np.linspace(lo, hi, n - d + 1)[1:-1])
        full.append([lo] * (d + 1) + interior + [hi] * (d + 1))
    # full lines at the multiplicities of the global knot vectors
    mesh._merge([(axis, c, *mesh.domain[2 - 2 * axis:4 - 2 * axis], full[axis].count(c))
                 for axis in (0, 1) for c in set(full[axis])])
    # B-spline (i, j) has the i-th u-window and the j-th v-window
    ku, kv = (np.lib.stride_tricks.sliding_window_view(f, d + 2) for f, d in zip(full, degrees))
    knots = np.hstack([np.repeat(ku, nv, axis=0), np.tile(kv, (nu, 1))])
    return LRSurface(degrees, mesh, knots, np.ones(nu * nv), np.full(nu * nv, float(coeff)),
                     units)


def replay(mesh: BoxMesh, degrees: tuple[int, int]) -> LRSurface:
    """The LR B-splines of ``mesh``, with coefficients 0: the one-element
    tensor surface of ``degrees`` on the mesh's domain, split by every
    line of (a copy of) the mesh.

    An LR B-spline set is fixed by its mesh (Dokken, Lyche & Pettersen
    2013), so a surface that refinement built from a tensor surface, or
    restricted or transposed, has the knot rows of its mesh's replay, in
    the same canonical order, and its scalings up to rounding.  Raises
    ValueError when a side of the domain is not a line of multiplicity
    degree + 1 over its whole length, which every such mesh has.
    """
    for axis, d in enumerate(degrees):
        for side in (0, -1):
            if (mesh._mult[axis][side] != d + 1).any():
                raise ValueError(f"the domain side {'uv'[axis]} = {mesh._coords[axis][side]!r} "
                                 f"is not a line of multiplicity {d + 1} over its whole length")
    out = make_tensor_surface(mesh.domain, degrees, (degrees[0] + 1, degrees[1] + 1))
    out.mesh = mesh.copy()
    _split_worklist(out)
    return out


# -- knot insertion ---------------------------------------------------


def _split_weights(t: np.ndarray, d: int, c: np.ndarray):
    """Weights (a1, a2) of degree-``d`` knot vectors split at ``c``.

    ``t`` is (..., d + 2), knot vectors along its last axis, and ``c``
    broadcasts against t[..., 0], with t[..., 0] < c < t[..., -1].  With
    t1 and t2 the first and the last d + 2 knots of t with c inserted,
    N_t = a1 * N_t1 + a2 * N_t2.  Where c is not strictly inside the
    support and t holds fewer than d + 1 copies of c, the weights clipped
    to [0, 1] keep N_t whole: a1 = 1, a2 = 0 when c >= t[..., -1], and
    a1 = 0, a2 = 1 when c <= t[..., 0].
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a1 = np.where(c >= t[..., d], 1.0, (c - t[..., 0]) / (t[..., d] - t[..., 0]))
        a2 = np.where(c <= t[..., 1], 1.0, (t[..., d + 1] - c) / (t[..., d + 1] - t[..., 1]))
    return a1, a2


def _knot_rows(surface: LRSurface) -> np.ndarray:
    """Per B-spline, its du + 2 u-knot and dv + 2 v-knot indices into the
    mesh coordinate tables, as one int32 row."""
    return np.hstack([np.searchsorted(surface.mesh.coords(axis), surface.axis_knots(axis))
                      for axis in (0, 1)]).astype(np.int32)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per knot row; keys compare like the rows do
    lexicographically, so sorting them gives the canonical order."""
    big = np.ascontiguousarray(rows, dtype=">u4")
    return big.view(np.dtype((np.void, 4 * big.shape[1]))).ravel()


def _run_table(grid: np.ndarray, d: int):
    """Per t = 0..d, the maximal runs of fine cells over which a line of a
    multiplicity grid (lines by cells) is above t, as (keys, ends, nl, n):
    increasing keys (t * nl + line) * n + start and run ends, with nl lines
    and n - 1 cells."""
    nl, n = grid.shape[0], grid.shape[1] + 1
    # row t * nl + line of the stack holds the cells where line exceeds t
    row, start, end, _ = _runs((grid > np.arange(d + 1)[:, None, None]).reshape(-1, n - 1))
    return row * n + start, end, nl, n


def _traverses(table, t, line, lo, hi) -> np.ndarray:
    """Per query, whether ``line`` has multiplicity above ``t`` over the
    fine cells lo..hi - 1; ``table`` is the ``_run_table`` of its axis.
    The last run of the line above ``t`` that starts at or before lo must
    reach hi."""
    keys, ends, nl, n = table
    row = (t * nl + line) * n
    k = np.maximum(np.searchsorted(keys, row + lo, side="right") - 1, 0)
    return (keys[k] >= row) & (keys[k] <= row + lo) & (ends[k] >= hi)


def _lacking_lines(rows: np.ndarray, cols, tables, deg) -> list:
    """Every line that fully traverses a row's B-spline at a multiplicity
    its knots lack, on either axis.

    Scans the coordinates strictly inside the support on both axes; per
    axis returns (row, line, count) arrays, by row, then by line, where
    ``count`` is how many more copies of the line's coordinate the row's
    knots need to carry the line's multiplicity over the whole support.
    Works through the rows in slices of ``_CHUNK``, which bounds the
    (row, line) pair arrays.
    """
    out = []
    for ax in (0, 1):
        parts = []
        for base in range(0, len(rows), _CHUNK):
            blk = rows[base:base + _CHUNK]
            kn, other = blk[:, cols[ax]], blk[:, cols[1 - ax]]
            start = kn[:, 0] + 1
            count = np.maximum(kn[:, -1] - start, 0)
            b = np.repeat(np.arange(len(blk)), count)
            p = _ranges(start, count)
            have = sum(col[b] == p for col in kn.T)
            lo, hi = other[b, 0], other[b, -1]
            hit = np.flatnonzero(_traverses(tables[ax], have, p, lo, hi))
            b, p, have, lo, hi = b[hit], p[hit], have[hit], lo[hit], hi[hit]
            # one more copy for every multiplicity above have + 1 that the
            # line also keeps over the support
            add = np.ones(len(b), dtype=np.int64)
            go = np.flatnonzero(have + 1 <= deg[ax])
            while len(go):
                go = go[_traverses(tables[ax], have[go] + add[go], p[go], lo[go], hi[go])]
                add[go] += 1
                go = go[have[go] + add[go] <= deg[ax]]
            parts.append((base + b, p, add))
        out.append([np.concatenate(a) for a in zip(*parts)])
    return out


def _split_inputs(surface: LRSurface):
    """What ``_lacking_lines`` reads besides the knot rows: the u- and
    v-knot columns of a row, the run table of each axis, the degrees."""
    deg = surface.degrees
    return ((slice(0, deg[0] + 2), slice(deg[0] + 2, None)),
            [_run_table(surface.mesh._mult[ax], deg[ax]) for ax in (0, 1)], deg)


def _insert_knots(kn: np.ndarray, coords: np.ndarray, d: int, row, line, count):
    """Boehm insertion of several knots into each row's degree-``d`` B-spline.

    ``kn`` is (n, d + 2) knot index rows into ``coords``; row ``row[k]``
    gets ``count[k]`` copies of coordinate ``line[k]``, strictly inside its
    support, the copies of a row's lines in ascending order.  Returns
    (knots, alpha, per), padded to the most insertions m of a row: with
    per[r] insertions, row r's B-spline is the sum over j <= per[r] of
    alpha[r, j] times the B-spline on knots[r, j:j + d + 2]; knots is
    (n, d + 2 + m) and alpha (n, 1 + m).  One knot at a time splits every
    B-spline of the row's current refinement (``_split_weights``).
    """
    n = len(kn)
    per = np.bincount(row, count, minlength=n).astype(np.int64)
    m = int(per.max(initial=0))
    # the knots to insert, padded: row r's own are x[r, :per[r]], ascending
    x = np.zeros((n, m), dtype=kn.dtype)
    r = np.repeat(row, count)
    x[r, np.arange(len(r)) - np.repeat(np.cumsum(per) - per, per)] = np.repeat(line, count)
    knots = np.empty((n, d + 2 + m), dtype=kn.dtype)
    knots[:, :d + 2], knots[:, d + 2:] = kn, kn[:, -1:]
    alpha = np.zeros((n, 1 + m))
    alpha[:, 0] = 1.0
    # window j of a knot row is its columns j..j + d + 1
    win = np.arange(m)[:, None] + np.arange(d + 2)
    for s in range(m):
        # rows with more than s insertions hold s + 1 B-splines on d + 2 + s
        # knots; one more knot splits each at most once.  The new knot goes
        # into the row's padding slot, which no window reads yet.
        r = np.flatnonzero(per > s)
        k = knots[r, :d + 3 + s]
        k[:, -1] = x[r, s]
        a1, a2 = _split_weights(coords[k[:, win[:s + 1]]], d, coords[k[:, -1:]])
        np.clip(a1, 0.0, 1.0, out=a1)
        np.clip(a2, 0.0, 1.0, out=a2)
        # B-spline j of the row passes a1[j] of itself to child j and
        # a2[j] to child j + 1; the row's column s + 1 is still 0
        c = alpha[r, :s + 2]
        a2 *= c[:, :-1]
        c[:, :-1] *= a1
        c[:, 1:] += a2
        alpha[r, :s + 2] = c
        k.sort(axis=1)
        knots[r, :d + 3 + s] = k
    return knots, alpha, per


def _split_worklist(surface: LRSurface) -> None:
    """Split every B-spline (transitively) that a mesh line now traverses.

    Works on knot index rows, one generation at a time.  Generation 0 is
    every B-spline.  Each generation finds, for every queued B-spline, all
    lines that fully traverse it on either axis and the multiplicity each
    lacks there (``_lacking_lines``), inserts them into its two knot rows
    at once (``_insert_knots``) and forms the tensor children, weighted
    alpha_u * alpha_v.  Children with equal knots merge: with each other,
    and into the live B-spline that already has those knots, by summing
    scaled contributions.  The children that are new form the next
    generation: a line may traverse a child that it did not traverse the
    parent.  The live B-splines are kept as sorted row keys, so the result
    comes out in canonical order; it replaces the surface's arrays.
    """
    cols, tables, deg = _split_inputs(surface)
    coords = (surface.mesh.coords(0), surface.mesh.coords(1))
    queue = _knot_rows(surface)
    chunks = [queue]
    n0 = len(queue)
    scal = np.array(surface.scaling, dtype=float)
    coef = np.array(surface.coeffs, dtype=float)
    # live B-splines: sorted row keys and the storage slot of each
    keys = _row_keys(queue)
    slot = np.argsort(keys, kind="stable")
    keys = keys[slot]
    at = np.empty(n0, dtype=np.int64)  # where each queued B-spline sits in keys
    at[slot] = np.arange(n0)
    base = 0  # storage slot of queue[0]
    while len(queue):
        lines = _lacking_lines(queue, cols, tables, deg)
        hit = np.zeros(len(queue), dtype=bool)
        hit[lines[0][0]] = hit[lines[1][0]] = True
        hit = np.flatnonzero(hit)
        if not len(hit):
            break
        keys, slot = np.delete(keys, at[hit]), np.delete(slot, at[hit])
        (ku, au, nu), (kv, av, nv) = (
            _insert_knots(queue[hit][:, cols[ax]], coords[ax], deg[ax],
                          np.searchsorted(hit, row), line, count)
            for ax, (row, line, count) in enumerate(lines))
        # child (i, j) of a hit row: its i-th u-window and its j-th v-window
        nu, nv = nu + 1, nv + 1
        r = np.repeat(np.arange(len(hit)), nu * nv)
        i, j = np.divmod(_ranges(np.zeros(len(hit), dtype=np.int64), nu * nv), nv[r])
        rows = np.hstack([ku[r[:, None], i[:, None] + np.arange(deg[0] + 2)],
                          kv[r[:, None], j[:, None] + np.arange(deg[1] + 2)]])
        s = scal[base + hit][r] * au[r, i] * av[r, j]
        c = coef[base + hit][r]
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
        new = ~live
        base = len(scal)
        at = at[new]
        keys = np.insert(keys, at, pkey[new])
        slot = np.insert(slot, at, base + np.arange(len(at)))
        at += np.arange(len(at))
        scal, coef = np.append(scal, tot[new]), np.append(coef, c[new])
        queue = rows[new]
        chunks.append(queue)
    rows = np.concatenate(chunks)[slot]
    surface.knots = np.hstack([coords[ax][rows[:, cols[ax]]] for ax in (0, 1)])
    surface.scaling, surface.coeffs = scal[slot], coef[slot]


def _check_segments(mesh: BoxMesh, rows, degrees: tuple[int, int]) -> np.ndarray:
    """The one legality check of segment rows (axis, pos, lo, hi, mult),
    run before the mesh changes; the rules are those of ``insert_segments``.
    Raises ValueError naming the first bad row ("segment i"); returns a
    copy with lo and hi snapped to the coordinate tables.
    """
    rows = np.array(rows, dtype=float).reshape(-1, 5)
    out, (axis, pos, _, _, mult) = rows.copy(), rows.T
    a = (axis == 1).astype(np.int64)
    for ax in (0, 1):
        k = a == ax
        out[k, 2:4] = _snap(mesh.coords(1 - ax), rows[k, 2:4], SNAP_REL * mesh.extent(1 - ax))
    dom, top = np.reshape(mesh.domain, (2, 2))[a], np.array(degrees)[a] + 1
    faults = [
        (~np.isin(axis, (0, 1)), "axis {0:g} is not 0 or 1"),
        (~np.isfinite(rows).all(axis=1), "a value of {row} is not finite"),
        (~((dom[:, 0] <= pos) & (pos <= dom[:, 1])), "pos {1!r} is outside the domain"),
        (np.isnan(out[:, 2:4]).any(axis=1), "lo {2!r} or hi {3!r} is off the mesh lines"),
        (~(out[:, 2] < out[:, 3]), "empty extent, lo {2!r} is not below hi {3!r}"),
        (~((1 <= mult) & (mult <= top) & (mult == np.round(mult))),
         "multiplicity {4:g} of a line on axis {0:g} is not one of 1..{top}"),
    ]
    fault = _first_fault([(mask, lambda i, text=text: f"segment {i}: " + text.format(
        *rows[i].tolist(), row=rows[i].tolist(), top=top[i])) for mask, text in faults])
    if fault is not None:
        raise ValueError(fault)
    return out


def insert_segment(surface: LRSurface, seg: Segment) -> None:
    """Insert one knot-line segment and resolve all induced splits.

    ``seg`` is one (axis, pos, lo, hi, mult) row, such as a ``Segment``.
    Raises ValueError for a row ``insert_segments`` rejects, and for a
    segment that traverses no B-spline support at a multiplicity its knots
    lack, unless the mesh already holds it (a no-op).  Both are decided on
    a copy of the mesh by the split engine's own rules, so a rejected
    segment leaves the surface unchanged.  Geometry is preserved exactly up
    to floating point.
    """
    rows = _check_segments(surface.mesh, [seg], surface.degrees)
    trial = surface.copy()
    rows[:, 1] = trial.mesh.snap_many([(int(rows[0, 0]), rows[0, 1])])
    if not trial.mesh._merge(rows):
        return
    if not any(len(row) for row, _, _ in _lacking_lines(_knot_rows(trial), *_split_inputs(trial))):
        raise ValueError("segment does not traverse any B-spline support")
    insert_segments(surface, rows)


def insert_segments(surface: LRSurface, segments) -> None:
    """Batch insert: merge all segments into the mesh at once, then one
    global split pass.

    ``segments`` is an (n, 5) array of rows (axis, pos, lo, hi, mult), or
    what ``np.array`` turns into one, such as a list of ``Segment``.  Before
    the mesh changes, raises ValueError naming the first row that breaks a
    rule: axis 0 or 1; finite values; pos inside the domain; lo < hi, both
    coordinates of the other axis (to the snap tolerance); mult a whole
    number in 1..d + 1, d the degree of the axis.  Each pos is snapped to
    the coordinates in row order, and added when none is near
    (``snap_many``), so a later pos lands on an earlier new one.
    Traversal is not checked: each segment of a refinement batch spans the
    support of the B-spline that requested it.
    """
    mesh = surface.mesh
    rows = _check_segments(mesh, np.array(list(segments), float), surface.degrees)
    # each distinct (axis, pos) once, in the order of its first row
    key, first, back = np.unique(rows[:, :2], axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    key[order, 1] = mesh.snap_many((int(a), p) for a, p in key[order].tolist())
    rows[:, 1] = key[back.ravel(), 1]
    if mesh._merge(rows):
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
    # a support spans the fine cells from its first to its last knot
    i0, i1 = np.searchsorted(uc, surface.axis_knots(0)[:, [0, -1]]).T
    j0, j1 = np.searchsorted(vc, surface.axis_knots(1)[:, [0, -1]]).T
    # one search per (B-spline, fine column of its support)
    bs = np.repeat(np.arange(len(i0)), j1 - j0)
    col = _ranges(j0, j1 - j0)
    first = np.searchsorted(anchors, col * nu + i0[bs])
    count = np.searchsorted(anchors, col * nu + i1[bs]) - first
    bs = np.repeat(bs, count)
    el = _ranges(first, count)
    order = np.argsort(el, kind="stable")
    offsets = np.zeros(len(bounds) + 1, dtype=np.int64)
    np.cumsum(np.bincount(el, minlength=len(bounds)), out=offsets[1:])
    return bounds, offsets, bs[order], cell_map, uc, vc


def _first_fault(faults):
    """The message of the first fault of the lowest-numbered row, or None:
    ``faults`` lists (mask over the rows, message of row i) pairs in
    checking order."""
    bad = np.array([mask for mask, _ in faults]).reshape(len(faults), -1)
    if not bad.any():
        return None
    i = int(np.argmax(bad.any(axis=0)))
    return faults[int(np.argmax(bad[:, i]))][1](i)


def validate_surface(surface: LRSurface) -> None:
    """Structural invariants; raises AssertionError with a diagnostic.

    Checks that every line multiplicity is at most degree + 1, that every
    B-spline knot is a mesh coordinate (the file formats index the
    coordinate tables) on a line traversing its support, that no mesh line
    traverses a support at a multiplicity its knots lack (the set is
    complete: the split engine would split nothing), that scaling factors
    are positive, that the element partition is consistent with the mesh
    lines, and partition of unity at random sample points.  A faulty
    B-spline is named by its index; the lowest one is.
    """
    mesh = surface.mesh
    for axis, d in enumerate(surface.degrees):
        top = int(mesh._mult[axis].max())
        assert top <= d + 1, f"a line on axis {axis} has multiplicity {top} > degree + 1"
    assert surface.knots.shape == (len(surface), sum(surface.degrees) + 4), (
        f"B-spline knot rows have wrong knot count: {surface.knots.shape} at {surface.degrees}")
    faults = [(~(surface.scaling > 0), lambda i: f"B-spline {i} has non-positive scaling")]
    cols, tables, deg = _split_inputs(surface)
    for axis in (0, 1):
        own, other = mesh.coords(axis), mesh.coords(1 - axis)
        kn, across = surface.axis_knots(axis), surface.axis_knots(1 - axis)
        # cover_mult's cells j0..j1 - 1 of the support, none outside the
        # table; a knot off the coordinates or all knots equal fault earlier
        j0 = np.searchsorted(other, across[:, :1], side="right") - 1
        j1 = np.maximum(np.searchsorted(other, across[:, -1:]), j0 + 1)
        have = (kn[:, :, None] == kn[:, None, :]).sum(axis=2)
        covered = _traverses(tables[axis], have - 1, np.searchsorted(own, kn), j0, j1)
        faults += [
            ((np.diff(kn, axis=1) < 0).any(axis=1) | (kn[:, 0] >= kn[:, -1]),
             lambda i, axis=axis: f"B-spline {i} axis {axis} knots are not nondecreasing "
                                  f"over a non-empty support"),
            (~np.isin(kn, own).all(axis=1),
             lambda i, axis=axis: f"B-spline {i} axis {axis} has a knot that is not a "
                                  f"mesh coordinate"),
            (~covered.all(axis=1),
             lambda i, axis=axis, kn=kn, covered=covered:
             f"B-spline {i} knot {kn[i][~covered[i]][0]} on axis {axis} not fully traversed"),
        ]
    fault = _first_fault(faults)
    assert fault is None, fault
    for axis, (row, line, _) in enumerate(_lacking_lines(_knot_rows(surface), cols, tables, deg)):
        assert not len(row), (f"B-spline {row[0]} lacks the line {'uv'[axis]} = "
                              f"{mesh._coords[axis][line[0]]!r}, which traverses its support")
    _, cell_map, uc, vc = mesh.elements()
    assert (cell_map >= 0).all(), "unassigned fine cells"
    # covered edges must separate elements, uncovered edges must not
    for axis, cells in ((0, cell_map), (1, cell_map.T)):
        same = cells[:-1] == cells[1:]
        bad = np.argwhere((mesh._mult[axis][1:-1] > 0) == same)
        assert not len(bad), (f"edge inconsistency at {'uv'[axis]}="
                              f"{mesh._coords[axis][bad[0, 0] + 1]}, cell {bad[0, 1]}")
    from .evaluate import partition_of_unity
    rng = np.random.default_rng(0)
    umin, umax, vmin, vmax = mesh.domain
    x = rng.uniform(umin, umax, 200)
    y = rng.uniform(vmin, vmax, 200)
    unity = partition_of_unity(surface, x, y)
    err = np.abs(unity - 1.0).max()
    assert err <= 1e-10, f"partition of unity violated: {err}"


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
    r = tuple(out.mesh.snap_many((k // 2, v) for k, v in enumerate(r0)))
    axis = np.array([0, 0, 1, 1])
    insert_segments(out, np.column_stack([axis, r, np.reshape(out.mesh.domain, (2, 2))[1 - axis],
                                          np.array(out.degrees)[axis] + 1]))

    ku, kv = out.axis_knots(0), out.axis_knots(1)
    inside = (r[0] <= ku[:, 0]) & (ku[:, -1] <= r[1]) & (r[2] <= kv[:, 0]) & (kv[:, -1] <= r[3])

    # the lines and fine cells inside the rectangle
    mesh, old = BoxMesh(r), out.mesh
    keep = [slice(old._coords[a].index(r[2 * a]), old._coords[a].index(r[2 * a + 1]) + 1)
            for a in (0, 1)]
    mesh._coords = [old._coords[a][keep[a]] for a in (0, 1)]
    mesh._mult = [old._mult[a][keep[a], keep[1 - a].start:keep[1 - a].stop - 1].copy()
                  for a in (0, 1)]
    res = LRSurface(out.degrees, mesh, out.knots[inside], out.scaling[inside],
                    out.coeffs[inside], out.units)
    res.canonical_order()
    return res


def transpose(surface: LRSurface) -> LRSurface:
    """Swap the two parameter directions (u, v) -> (v, u)."""
    mesh = surface.mesh.copy()
    mesh.domain = mesh.domain[2:] + mesh.domain[:2]
    mesh._coords.reverse()
    mesh._mult.reverse()
    out = LRSurface((surface.degrees[1], surface.degrees[0]), mesh,
                    np.hstack([surface.axis_knots(1), surface.axis_knots(0)]),
                    surface.scaling.copy(), surface.coeffs.copy(), surface.units)
    out.canonical_order()
    return out
