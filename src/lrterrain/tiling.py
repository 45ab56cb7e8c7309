"""Tiled fitting of large point clouds and continuity stitching.

Very large inputs are split over a regular grid of tiles with a small
overlap.  Each tile is fitted independently on its overlap-expanded point
subset, then the surface is restricted to the non-overlapping core, so
adjacent surfaces meet along shared edges with very small discontinuities.
Stitching then makes the meeting exact: the boundary curves of two adjacent
surfaces are refined into one common spline space and their coefficients
set equal (C0); optionally the first derivative across the boundary is
equalized as well through a local two-row tensor-product strip (C1).

Grid stitching handles the four-tile corners: corner values are pinned
first, and the cross-derivative conditions that tie perpendicular edges
together at a corner are solved jointly as a small least-change system.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .adaptive import FitConfig, IterationReport, _finite, fit
from .mesh import SNAP_REL, LRSurface, _row_keys, insert_segments, restrict

__all__ = [
    "Tile",
    "TileFit",
    "make_tiles",
    "tile_index",
    "fit_tiles",
    "stitch_c0",
    "stitch_c1",
    "stitch_grid",
    "write_manifest",
    "read_manifest",
]


@dataclass(frozen=True)
class Tile:
    ix: int
    iy: int
    core: tuple[float, float, float, float]
    expanded: tuple[float, float, float, float]


@dataclass
class TileFit:
    tile: Tile
    surface: LRSurface | None
    reports: list[IterationReport] = field(default_factory=list)
    n_points: int = 0
    flags: dict = field(default_factory=dict)


def make_tiles(bbox, counts, overlap: float = 0.05) -> list[Tile]:
    """Regular grid of tiles over ``bbox``; the cores partition it exactly.

    Each core is grown by ``overlap`` times its own width on every side and
    clipped to the bbox.  Tiles are listed row-major: index = iy * nx + ix.
    """
    x0, x1, y0, y1 = map(float, bbox)
    nx, ny = int(counts[0]), int(counts[1])
    if nx < 1 or ny < 1:
        raise ValueError("tile counts must be >= 1")
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate bounding box")
    if overlap < 0:
        raise ValueError("overlap fraction must be >= 0")
    xe = np.linspace(x0, x1, nx + 1)
    ye = np.linspace(y0, y1, ny + 1)
    dx = (x1 - x0) / nx
    dy = (y1 - y0) / ny
    tiles = []
    for iy in range(ny):
        for ix in range(nx):
            core = (float(xe[ix]), float(xe[ix + 1]),
                    float(ye[iy]), float(ye[iy + 1]))
            exp = (max(x0, core[0] - overlap * dx),
                   min(x1, core[1] + overlap * dx),
                   max(y0, core[2] - overlap * dy),
                   min(y1, core[3] + overlap * dy))
            tiles.append(Tile(ix, iy, core, exp))
    return tiles


def tile_index(bbox, counts, x, y):
    """Core tile of each point by coordinate arithmetic alone.

    Returns integer arrays (ix, iy); points on the shared edge between two
    cores go to the higher tile, points on the bbox maximum to the last.
    """
    x0, x1, y0, y1 = map(float, bbox)
    nx, ny = int(counts[0]), int(counts[1])
    ix = np.floor((np.asarray(x, dtype=float) - x0) / (x1 - x0) * nx)
    iy = np.floor((np.asarray(y, dtype=float) - y0) / (y1 - y0) * ny)
    return (np.clip(ix, 0, nx - 1).astype(int),
            np.clip(iy, 0, ny - 1).astype(int))


def fit_tiles(points: np.ndarray, tiles: list[Tile],
              config: FitConfig = FitConfig()) -> list[TileFit]:
    """Independent adaptive fit per tile, restricted to the core afterwards.

    A tile whose expanded rectangle contains no points becomes a hole
    (surface None); its neighbors are unaffected.
    """
    pts = _finite(np.asarray(points, dtype=float))
    out = []
    for t in tiles:
        e = t.expanded
        sel = ((pts[:, 0] >= e[0]) & (pts[:, 0] <= e[1])
               & (pts[:, 1] >= e[2]) & (pts[:, 1] <= e[3]))
        sub = pts[sel]
        if len(sub) == 0:
            out.append(TileFit(t, None))
            continue
        surface, reports, flags = fit(sub, config, domain=e)
        out.append(TileFit(t, restrict(surface, t.core), reports,
                           int(len(sub)), flags))
    return out


# -- boundary spline spaces ---------------------------------------------
#
# A shared edge lies on a line of constant u (``ax`` 0, the lower surface on
# the left) or of constant v (``ax`` 1, the lower surface below).  A
# restricted tile surface is clamped: along each domain edge the B-splines
# carry the edge coordinate at full multiplicity degree+1 ("row 0", the only
# functions with a nonzero value on the edge) or at multiplicity degree
# ("row 1", the only additional ones with a nonzero first derivative there).
# The boundary curve is therefore the 1D spline whose coefficients are the
# row-0 coefficients, and stitching reduces to aligning the row knots along
# the edge on both sides into windows of one shared global knot vector.
# ``side`` 0 is the lower surface, whose edge is its upper domain bound.


def _edge_pos(surface: LRSurface, ax: int, side: int) -> float:
    return surface.domain[2 * ax + 1 - side]


def _edge_mult(surface: LRSurface, ax: int, side: int) -> np.ndarray:
    """Per B-spline, how often its knots across the edge hold the edge
    coordinate; the knots are mesh coordinates, so those are end knots."""
    return (surface.axis_knots(ax) == _edge_pos(surface, ax, side)).sum(axis=1)


def _trace_knots(surface: LRSurface, ax: int, side: int) -> list[tuple[float, int]]:
    """(position, multiplicity) pairs of the boundary curve's knot vector."""
    along = surface.axis_knots(1 - ax)[_edge_mult(surface, ax, side) == surface.degrees[ax] + 1]
    # every knot of a row function with its multiplicity in that row
    mult = (along[:, :, None] == along[:, None, :]).sum(axis=2)
    pos, at = np.unique(along, return_inverse=True)
    top = np.zeros(len(pos), dtype=np.int64)
    np.maximum.at(top, at.ravel(), mult.ravel())
    return list(zip(pos.tolist(), top.tolist()))


def _merge_trace(ta, tb, tol: float) -> list[tuple[float, int]]:
    """Union of two knot multisets, clustering positions within ``tol``."""
    out: list[tuple[float, int]] = []
    for p, m in sorted(ta + tb):
        if out and p - out[-1][0] <= tol:
            out[-1] = (out[-1][0], max(out[-1][1], m))
        else:
            out.append((p, m))
    return out


def _complete_edge(surface: LRSurface, ax: int, side: int,
                   target: list[tuple[float, int]], with_row1: bool) -> bool:
    """Insert segments across the edge so its rows align with ``target``.

    Returns True when anything was inserted.  Segments span only the strip
    (the support across the edge of the row function that needs the knot),
    so functions farther than two rows from the boundary are untouched.
    """
    d = surface.degrees[ax]
    tol = SNAP_REL * surface.mesh.extent(1 - ax)
    row = _edge_mult(surface, ax, side) >= (d if with_row1 else d + 1)
    across, along = surface.axis_knots(ax)[row], surface.axis_knots(1 - ax)[row]
    p, m = np.array(target, dtype=float).reshape(-1, 2).T
    # (row function, target knot) pairs, by function, then by knot
    have = (np.abs(along[:, :, None] - p) <= tol).sum(axis=1)
    need = (along[:, :1] + tol < p) & (p < along[:, -1:] - tol) & (have < m)
    b, k = np.nonzero(need)
    # (axis, pos, lo, hi, mult) rows; a row function's support across the edge ends on it
    segs = np.column_stack([np.full(len(b), 1 - ax), p[k], across[b, 0], across[b, -1], m[k]])
    if len(segs):
        insert_segments(surface, segs)
    return bool(len(segs))


def _edge_rows(surface: LRSurface, ax: int, side: int, with_row1: bool):
    """Edge rows in the order of their knot windows along the edge.

    Returns (row0, row1): row0[k] is the B-spline index carrying the k-th
    knot window of the boundary spline space, row1[k] (None unless
    ``with_row1``) the row-1 B-spline with the same window.  Raises when the
    edge is not a clean (two-row) tensor strip.
    """
    d = surface.degrees[ax]
    m = _edge_mult(surface, ax, side)
    along = surface.axis_knots(1 - ax)
    rows, keys = [], []
    for mult in (d + 1, d) if with_row1 else (d + 1,):
        r = np.flatnonzero(m == mult)
        key = _row_keys(np.searchsorted(surface.mesh.coords(1 - ax), along[r]))
        order = np.argsort(key, kind="stable")
        rows.append(r[order])
        keys.append(key[order])
        if (keys[-1][1:] == keys[-1][:-1]).any():
            raise RuntimeError("duplicate boundary window")
    w = along[rows[0]]
    if not (w[1:, :-1] == w[:-1, 1:]).all():
        raise RuntimeError("boundary windows do not chain")
    if not with_row1:
        return rows[0], None
    at = np.minimum(np.searchsorted(keys[1], keys[0]), len(keys[1]) - 1)
    if len(keys[0]) and (not len(keys[1]) or (keys[1][at] != keys[0]).any()):
        raise RuntimeError("boundary strip is not tensor-product")
    return rows[0], rows[1][at]


def _unify_edge(a: LRSurface, b: LRSurface, ax: int, with_row1: bool) -> bool:
    """One structure pass over a shared edge; True when knots were added."""
    tol = SNAP_REL * max(a.mesh.extent(1 - ax), b.mesh.extent(1 - ax))
    target = _merge_trace(_trace_knots(a, ax, 0), _trace_knots(b, ax, 1), tol)
    ca = _complete_edge(a, ax, 0, target, with_row1)
    cb = _complete_edge(b, ax, 1, target, with_row1)
    return ca or cb


def _gamma(surface: LRSurface, rows) -> np.ndarray:
    return surface.coeffs[rows] * surface.scaling[rows]


def _set_gamma(surface: LRSurface, rows, values) -> None:
    surface.coeffs[rows] = np.asarray(values) / surface.scaling[rows]


def _check_pair(a: LRSurface, b: LRSurface, ax: int) -> None:
    """Raise ValueError unless ``b`` continues ``a`` across a shared edge."""
    if a.degrees != b.degrees:
        raise ValueError("surfaces have different degrees")
    tol = SNAP_REL * max(a.mesh.extent(ax), b.mesh.extent(ax))
    if abs(b.domain[2 * ax] - a.domain[2 * ax + 1]) > tol:
        raise ValueError("surfaces do not share a boundary")
    o = 2 * (1 - ax)
    tv = SNAP_REL * max(a.mesh.extent(1 - ax), b.mesh.extent(1 - ax))
    if abs(a.domain[o] - b.domain[o]) > tv or abs(a.domain[o + 1] - b.domain[o + 1]) > tv:
        raise ValueError("shared boundary spans differ")


def _c0_edge(a: LRSurface, b: LRSurface, ax: int, weights) -> None:
    """Equalize the boundary curves; spaces must be settled already."""
    wa, wb = float(weights[0]), float(weights[1])
    r0a, _ = _edge_rows(a, ax, 0, False)
    r0b, _ = _edge_rows(b, ax, 1, False)
    if len(r0a) != len(r0b):
        raise RuntimeError("boundary spaces disagree after settling")
    g = (wa * _gamma(a, r0a) + wb * _gamma(b, r0b)) / (wa + wb)
    _set_gamma(a, r0a, g)
    _set_gamma(b, r0b, g)


def _row_factors(d: int, xs: float, side: int, k0, k1) -> tuple[float, float]:
    """Cross-edge derivative factors of a row-0 and a row-1 B-spline.

    ``k0``/``k1`` are their knot vectors across the edge at ``xs``; the
    derivative of the trace there is f0 * gamma0 + f1 * gamma1.
    """
    if side == 0:
        return d / (xs - k0[..., 0]), -d / (xs - k1[..., 1])
    return -d / (k0[..., -1] - xs), d / (k1[..., -2] - xs)


def _deriv_factors(surface: LRSurface, ax: int, side: int, row0, row1):
    """Per-window derivative weights of the two edge rows at the boundary."""
    kn = surface.axis_knots(ax)
    return _row_factors(surface.degrees[ax], _edge_pos(surface, ax, side), side,
                        kn[row0], kn[row1])


def _c1_edge(a: LRSurface, b: LRSurface, ax: int, weights,
             skip_lo: bool, skip_hi: bool) -> None:
    """Equalize the cross-boundary derivative on a settled, C0-equal edge.

    Row-0 coefficients stay fixed so the value match is preserved; the two
    row-1 coefficients absorb the correction.  ``skip_lo``/``skip_hi`` leave
    the two windows at that end untouched (they belong to a corner system).
    """
    wa, wb = float(weights[0]), float(weights[1])
    r0a, r1a = _edge_rows(a, ax, 0, True)
    r0b, r1b = _edge_rows(b, ax, 1, True)
    nk = len(r0a)
    if nk != len(r0b):
        raise RuntimeError("boundary spaces disagree after settling")
    fa0, fa1 = _deriv_factors(a, ax, 0, r0a, r1a)
    fb0, fb1 = _deriv_factors(b, ax, 1, r0b, r1b)
    g0a = _gamma(a, r0a)
    g0b = _gamma(b, r0b)
    da = fa0 * g0a + fa1 * _gamma(a, r1a)
    db = fb0 * g0b + fb1 * _gamma(b, r1b)
    d = (wa * da + wb * db) / (wa + wb)
    new_a = (d - fa0 * g0a) / fa1
    new_b = (d - fb0 * g0b) / fb1
    live = np.ones(nk, dtype=bool)
    if skip_lo:
        live[:2] = False
    if skip_hi:
        live[-2:] = False
    _set_gamma(a, np.asarray(r1a)[live], new_a[live])
    _set_gamma(b, np.asarray(r1b)[live], new_b[live])


# -- corners -------------------------------------------------------------
#
# Tile keys at a grid corner: A lower-left, B lower-right, C upper-left,
# D upper-right, with the (u, v) side of the corner each one lies on.

_CORNER_SIDES = {"A": (0, 0), "B": (1, 0), "C": (0, 1), "D": (1, 1)}


def _corner_block(surface: LRSurface, uside: int, vside: int) -> dict:
    """The 2x2 coefficient block of one tile at a grid corner.

    Slot names: g (value row both directions), V (u-row0, v-row1),
    H (u-row1, v-row0), Q (u-row1, v-row1).
    """
    du, dv = surface.degrees
    xs, ys = _edge_pos(surface, 0, uside), _edge_pos(surface, 1, vside)
    mu, mv = _edge_mult(surface, 0, uside), _edge_mult(surface, 1, vside)
    slots: dict[str, int] = {}
    for name, a, b in (("g", du + 1, dv + 1), ("V", du + 1, dv),
                       ("H", du, dv + 1), ("Q", du, dv)):
        hit = np.flatnonzero((mu == a) & (mv == b))
        if len(hit) > 1:
            raise RuntimeError("corner block is not tensor-product")
        slots.update({name: int(i) for i in hit})
    if len(slots) != 4:
        raise RuntimeError("corner block is incomplete")
    ku, kv = (surface.axis_knots(axis)[[slots[n] for n in "gVHQ"]] for axis in (0, 1))
    if (ku[0] != ku[1]).any() or (ku[2] != ku[3]).any():
        raise RuntimeError("corner block rows disagree in u")
    if (kv[0] != kv[2]).any() or (kv[1] != kv[3]).any():
        raise RuntimeError("corner block rows disagree in v")
    fu0, fu1 = _row_factors(du, xs, uside, ku[0], ku[2])
    fv0, fv1 = _row_factors(dv, ys, vside, kv[0], kv[1])
    return {"slots": slots, "fu0": fu0, "fu1": fu1, "fv0": fv0, "fv1": fv1}


def _corner_g(surface: LRSurface, uside: int, vside: int) -> int:
    """Index of the single B-spline that is nonzero at a tile corner."""
    du, dv = surface.degrees
    hit = np.flatnonzero((_edge_mult(surface, 0, uside) == du + 1)
                         & (_edge_mult(surface, 1, vside) == dv + 1))
    if len(hit) != 1:
        raise RuntimeError("corner value function is not unique" if len(hit)
                           else "no corner value function")
    return int(hit[0])


def _solve_corner(tiles: dict[str, LRSurface]) -> None:
    """Joint cross-derivative conditions of the four tiles meeting at a corner.

    Corner values g are assumed already equal; the remaining eight corner
    coefficients get the smallest change that makes both derivative
    directions continuous through the corner.  The system is consistent
    (constants solve it), so the residual is numerically zero.
    """
    blk = {t: _corner_block(tiles[t], *_CORNER_SIDES[t]) for t in tiles}

    def slot(t, name):
        return [blk[t]["slots"][name]]

    g = np.mean([_gamma(tiles[t], slot(t, "g"))[0] for t in tiles])
    # variables: V_b, V_t, H_l, H_r, Q_A, Q_B, Q_C, Q_D
    cur = np.array([_gamma(tiles[t], slot(t, name))[0] for t, name in (
        ("A", "V"), ("C", "V"), ("A", "H"), ("B", "H"),
        ("A", "Q"), ("B", "Q"), ("C", "Q"), ("D", "Q"))])
    A, B, C, D = (blk[t] for t in "ABCD")
    M = np.zeros((6, 8))
    r = np.zeros(6)
    # d/du match at the corner value row and both near-corner rows
    M[0, 2], M[0, 3] = A["fu1"], -B["fu1"]
    r[0] = (B["fu0"] - A["fu0"]) * g
    M[1, 0], M[1, 1] = A["fv1"], -C["fv1"]
    r[1] = (C["fv0"] - A["fv0"]) * g
    M[2, 0], M[2, 4], M[2, 5] = A["fu0"] - B["fu0"], A["fu1"], -B["fu1"]
    M[3, 1], M[3, 6], M[3, 7] = C["fu0"] - D["fu0"], C["fu1"], -D["fu1"]
    M[4, 2], M[4, 4], M[4, 6] = A["fv0"] - C["fv0"], A["fv1"], -C["fv1"]
    M[5, 3], M[5, 5], M[5, 7] = B["fv0"] - D["fv0"], B["fv1"], -D["fv1"]
    delta = np.linalg.lstsq(M, r - M @ cur, rcond=None)[0]
    x = cur + delta

    writes = (("A", "V", x[0]), ("B", "V", x[0]), ("C", "V", x[1]),
              ("D", "V", x[1]), ("A", "H", x[2]), ("C", "H", x[2]),
              ("B", "H", x[3]), ("D", "H", x[3]), ("A", "Q", x[4]),
              ("B", "Q", x[5]), ("C", "Q", x[6]), ("D", "Q", x[7]))
    for t, name, val in writes:
        _set_gamma(tiles[t], slot(t, name), [val])


# -- stitching -----------------------------------------------------------


def _stitch(surfaces, weights, nx: int, ny: int, c1: bool) -> list:
    """Stitch copies of an nx x ny row-major grid of surfaces (None: hole).

    Runs in phases: all structural refinement first (edge spaces settle
    jointly, since perpendicular edges interact at corners), then corner
    values, then boundary curves, then derivatives with per-corner joint
    systems.  ``weights`` are the per-surface averaging weights.
    """
    S = [s.copy() if s is not None else None for s in surfaces]

    def at(ix, iy):
        return iy * nx + ix

    # (lower index, upper index, axis, skip_lo, skip_hi); the skip flags
    # mark edge ends at an interior corner
    edges = [(at(ix, iy), at(ix + 1, iy), 0, iy > 0, iy < ny - 1)
             for iy in range(ny) for ix in range(nx - 1)]
    edges += [(at(ix, iy), at(ix, iy + 1), 1, ix > 0, ix < nx - 1)
              for iy in range(ny - 1) for ix in range(nx)]
    edges = [e for e in edges if S[e[0]] is not None and S[e[1]] is not None]
    for i, j, ax, _, _ in edges:
        _check_pair(S[i], S[j], ax)

    # phase 1: settle all edge spline spaces to a joint fixpoint
    for _ in range(64):
        changed = False
        for i, j, ax, _, _ in edges:
            changed |= _unify_edge(S[i], S[j], ax, c1)
        if not changed:
            break
    else:
        raise RuntimeError("edge spline spaces failed to settle")

    # phase 2: pin corner values across the tiles that meet there.  Later
    # edge averaging only preserves an already-agreed corner, so this must
    # cover partial corners at holes too; the joint derivative solve still
    # needs all four tiles.
    corners = []
    for cy in range(1, ny):
        for cx in range(1, nx):
            quad = {"A": at(cx - 1, cy - 1), "B": at(cx, cy - 1),
                    "C": at(cx - 1, cy), "D": at(cx, cy)}
            present = {t: i for t, i in quad.items() if S[i] is not None}
            if len(present) < 2:
                continue
            idx = {t: [_corner_g(S[i], *_CORNER_SIDES[t])] for t, i in present.items()}
            wsum = sum(weights[i] for i in present.values())
            g = sum(weights[i] * _gamma(S[i], idx[t])[0]
                    for t, i in present.items()) / wsum
            for t, i in present.items():
                _set_gamma(S[i], idx[t], [g])
            if len(present) == 4:
                corners.append(quad)

    # phase 3: boundary curves
    for i, j, ax, _, _ in edges:
        _c0_edge(S[i], S[j], ax, (weights[i], weights[j]))
    if c1:
        # phase 4: derivatives; corner windows are owned by the joint systems
        for i, j, ax, skip_lo, skip_hi in edges:
            _c1_edge(S[i], S[j], ax, (weights[i], weights[j]), skip_lo, skip_hi)
        for quad in corners:
            _solve_corner({t: S[i] for t, i in quad.items()})
    return S


def stitch_c0(a: LRSurface, b: LRSurface, axis: int = 0,
              weights=(1.0, 1.0)):
    """Make two adjacent surfaces agree along their shared boundary.

    axis 0: ``a`` left of ``b`` (a-umax == b-umin); axis 1: ``a`` below
    ``b``.  Boundary knot vectors are unified by local refinement, then the
    boundary coefficients are replaced by their ``weights``-weighted mean on
    both sides.  Returns the modified pair; the inputs are untouched.
    """
    nx, ny = (1, 2) if axis == 1 else (2, 1)
    return tuple(_stitch([a, b], weights, nx, ny, False))


def stitch_c1(a: LRSurface, b: LRSurface, axis: int = 0,
              weights=(1.0, 1.0)):
    """C0 stitch plus equal first derivatives across the boundary.

    Both sides are refined into a two-row tensor-product strip along the
    boundary; the value rows get the common boundary curve and the second
    rows are adjusted (least change) so the cross-boundary derivative is the
    weighted mean of the two sides'.  Returns the modified pair.
    """
    nx, ny = (1, 2) if axis == 1 else (2, 1)
    return tuple(_stitch([a, b], weights, nx, ny, True))


def stitch_grid(fits: list[TileFit], counts, c1: bool = False):
    """Stitch a whole tile grid; returns the list of stitched surfaces.

    Edges are stitched as in ``stitch_c1`` (or ``stitch_c0``), corner values
    are pinned first across the tiles that meet there, and the
    cross-derivative conditions that tie perpendicular edges together at a
    corner are solved jointly.  Averaging weights are the per-tile fit point
    counts.  Holes are skipped; their edges stay unstitched.
    """
    nx, ny = int(counts[0]), int(counts[1])
    if len(fits) != nx * ny:
        raise ValueError("tile list does not match grid counts")
    return _stitch([f.surface for f in fits], [max(f.n_points, 1) for f in fits],
                   nx, ny, c1)


# -- manifest ------------------------------------------------------------


def write_manifest(path, tiles: list[Tile], counts, overlap: float,
                   surface_paths: list[str | None],
                   fits: list[TileFit] | None = None) -> None:
    """Tile grid description with per-tile surface paths and fit reports."""
    entries = []
    for k, t in enumerate(tiles):
        e = {"ix": t.ix, "iy": t.iy, "core": list(t.core),
             "expanded": list(t.expanded), "surface": surface_paths[k]}
        if fits is not None:
            f = fits[k]
            e["n_points"] = f.n_points
            e["flags"] = dict(f.flags)
            e["report"] = [{"iteration": r.iteration,
                            "coefficients": r.n_coefficients,
                            "size_bytes": r.size_bytes, "max_dist": r.max_dist,
                            "avg_dist": r.avg_dist, "n_out": r.n_out}
                           for r in f.reports]
        entries.append(e)
    bbox = [tiles[0].core[0], tiles[-1].core[1], tiles[0].core[2], tiles[-1].core[3]]
    doc = {"bbox": bbox, "counts": [int(counts[0]), int(counts[1])],
           "overlap": overlap, "tiles": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_manifest(path) -> dict:
    """Tile grid description; ValueError when a key ``stitch`` reads is bad."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("manifest is not a JSON object")
    for key in ("bbox", "counts", "tiles", "overlap"):
        if key not in doc:
            raise ValueError(f"manifest is missing '{key}'")
    counts = doc["counts"]
    if not (isinstance(counts, list) and len(counts) == 2
            and all(type(c) is int and c >= 1 for c in counts)):
        raise ValueError(f"manifest counts must be two positive integers, not {counts!r}")
    nx, ny = counts
    tiles = doc["tiles"]
    if not isinstance(tiles, list) or len(tiles) != nx * ny:
        raise ValueError(f"manifest tiles must be a list of {nx}x{ny} entries")
    for k, t in enumerate(tiles):
        for key in ("ix", "iy", "core", "expanded", "surface"):
            if not isinstance(t, dict) or key not in t:
                raise ValueError(f"manifest tile {k} is missing '{key}'")
        if (t["ix"], t["iy"]) != (k % nx, k // nx):
            raise ValueError(f"manifest tile {k} is ({t['ix']}, {t['iy']}), "
                             f"not ({k % nx}, {k // nx}) of the row-major grid")
    doc["tiles"] = [dict(t) for t in tiles]
    return doc
