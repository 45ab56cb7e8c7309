"""Tiled fitting of large point clouds and continuity stitching.

Very large inputs are split over a regular grid of tiles with a small
overlap.  Each tile is fitted independently on its overlap-expanded point
subset, then the surface is restricted to the non-overlapping core, so
adjacent surfaces meet along shared edges with very small discontinuities.
The tile fits run in forked worker processes, one per CPU this process may
use; each fit is deterministic and sees only its own points, so the
surfaces are byte-identical to those of fitting the tiles one by one.
Stitching then makes the meeting exact: the boundary curves of two adjacent
surfaces are refined into one common spline space and their coefficients
set equal (C0); optionally the first derivative across the boundary is
equalized as well through a local two-row tensor-product strip (C1).

Grid stitching handles the corners of three or four tiles: corner values
are pinned first, and the cross-derivative conditions that tie
perpendicular edges together at such a corner are solved jointly as a
small least-change system.  A corner of two tiles that share an edge is
left to that edge, so a hole in the grid leaves no derivative gap.
"""
from __future__ import annotations

import json
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .adaptive import FitConfig, IterationReport, fit
from .evaluate import check_points, in_rect
from .formats import _names_path, _write_json
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
    if not (np.isfinite(overlap) and overlap >= 0):
        raise ValueError(f"overlap fraction must be a finite number >= 0; got {overlap!r}")
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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_tile(tile: Tile, sub: np.ndarray, config: FitConfig):
    """One tile's fit on its expanded subset, restricted to the core.

    Returns the TileFit and the warnings the fit issued as (message,
    category, filename, lineno) rows, for the caller to issue again.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        surface, reports, flags = fit(sub, config, domain=tile.expanded)
    tile_fit = TileFit(tile, restrict(surface, tile.core), reports, int(len(sub)), flags)
    return tile_fit, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def fit_tiles(points: np.ndarray, tiles: list[Tile],
              config: FitConfig = FitConfig()) -> list[TileFit]:
    """Independent adaptive fit per tile, restricted to the core afterwards.

    A tile whose expanded rectangle contains no points becomes a hole
    (surface None); its neighbors are unaffected.  The non-empty tiles are
    fitted in forked worker processes, one per CPU this process may use
    and at most one per tile; with one worker, where ``fork`` is not
    available, or while other threads run, they are fitted in this
    process.  Either way the results are the same, the fits' warnings are
    issued here in tile order, and an error in one tile is raised here
    after the tiles not yet started are cancelled.  Before it forks, this
    process imports what a tile fit would otherwise load lazily in each
    worker (``scipy.spatial``), so the workers start with it loaded.
    """
    pts = check_points(points)
    out = [TileFit(t, None) for t in tiles]
    jobs = []
    for k, t in enumerate(tiles):
        sel = in_rect(pts, t.expanded)
        if sel.any():
            jobs.append((k, t, pts[sel]))
    # imported here, so that importing the package does not load it
    import multiprocessing

    # fork, not spawn: a spawned worker imports numpy and scipy afresh, which
    # takes longer than the fits.  A fork copies only the calling thread, and
    # a lock another thread holds would stay held in the worker, so a process
    # running other threads fits its tiles itself.
    workers = min(len(jobs), _usable_cpus())
    pool = None
    if (workers > 1 and threading.active_count() == 1
            and "fork" in multiprocessing.get_all_start_methods()):
        from concurrent.futures import ProcessPoolExecutor

        # the tile fit imports scipy.spatial lazily (least_squares.idw_prior);
        # imported once here, before the fork, every worker inherits it
        # instead of importing it again on its first tile
        import scipy.spatial  # noqa: F401

        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        if pool is None:
            results = (_fit_tile(t, sub, config) for _, t, sub in jobs)
        else:
            futures = [pool.submit(_fit_tile, t, sub, config) for _, t, sub in jobs]
            results = (f.result() for f in futures)
        for (k, _, _), (tile_fit, caught) in zip(jobs, results):
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            out[k] = tile_fit
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
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
    ka, kb = a.axis_knots(ax), b.axis_knots(ax)
    fa0, fa1 = _row_factors(a.degrees[ax], _edge_pos(a, ax, 0), 0, ka[r0a], ka[r1a])
    fb0, fb1 = _row_factors(b.degrees[ax], _edge_pos(b, ax, 1), 1, kb[r0b], kb[r1b])
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
# the tile across the line of constant u, and across that of constant v
_ACROSS = {"A": ("B", "C"), "B": ("A", "D"), "C": ("D", "A"), "D": ("C", "B")}


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
    """Joint cross-derivative conditions of the three or four tiles at a corner.

    Corner values g are assumed already equal.  The unknowns are V_b (of A
    and B), V_t (C, D), H_l (A, C), H_r (B, D) and the Q of each tile; they
    get the smallest change that makes the derivative across every present
    edge continuous at its two windows nearest the corner.  The rows are
    the value-row condition of the first u-edge and of the first v-edge
    (the other of a pair repeats it), then the near-corner row of each
    u-edge and of each v-edge.  The system is consistent (constants solve
    it), so the residual is numerically zero.
    """
    blk = {t: _corner_block(s, *_CORNER_SIDES[t]) for t, s in tiles.items()}
    var = {"V": {"A": 0, "B": 0, "C": 1, "D": 1}, "H": {"A": 2, "C": 2, "B": 3, "D": 3},
           "Q": {"A": 4, "B": 5, "C": 6, "D": 7}}

    def gamma(t, name):
        return _gamma(tiles[t], [blk[t]["slots"][name]])[0]

    g = np.mean([gamma(t, "g") for t in tiles])
    # a shared unknown starts at the value of its first tile
    cur = np.zeros(8)
    for t in reversed(list(tiles)):
        for name in var:
            cur[var[name][t]] = gamma(t, name)

    def condition(a, b, d, value_row):
        """d/d``d`` equal across the edge of tiles a and b at one window."""
        f0, f1 = blk[a][f"f{d}0"], blk[a][f"f{d}1"]
        h0, h1 = blk[b][f"f{d}0"], blk[b][f"f{d}1"]
        row1, row0 = ("H", "V") if d == "u" else ("V", "H")
        m = np.zeros(8)
        if value_row:
            m[var[row1][a]], m[var[row1][b]] = f1, -h1
            return m, (h0 - f0) * g
        m[var[row0][a]], m[var["Q"][a]], m[var["Q"][b]] = f0 - h0, f1, -h1
        return m, 0.0

    u_edges = [(a, b) for a, b in (("A", "B"), ("C", "D")) if a in tiles and b in tiles]
    v_edges = [(a, b) for a, b in (("A", "C"), ("B", "D")) if a in tiles and b in tiles]
    M, r = map(np.array, zip(
        condition(*u_edges[0], "u", True), condition(*v_edges[0], "v", True),
        *(condition(a, b, "u", False) for a, b in u_edges),
        *(condition(a, b, "v", False) for a, b in v_edges)))
    x = cur + np.linalg.lstsq(M, r - M @ cur, rcond=None)[0]
    for t in tiles:
        for name in var:
            _set_gamma(tiles[t], [blk[t]["slots"][name]], [x[var[name][t]]])


# -- stitching -----------------------------------------------------------


def _stitch(surfaces, weights, nx: int, ny: int, c1: bool) -> list:
    """Stitch copies of an nx x ny row-major grid of surfaces (None: hole).

    Runs in phases: all structural refinement first (edge spaces settle
    jointly, since perpendicular edges interact at corners), then corner
    values, then boundary curves, then derivatives with per-corner joint
    systems.  ``weights`` are the per-surface averaging weights.

    Which corners get a joint system is decided once, from the tiles
    present: an interior corner of three or four tiles does, and it owns
    the two windows nearest it of every edge there.  At a corner of two
    tiles that share an edge, that edge's own derivative step matches
    them.
    """
    S = [s.copy() if s is not None else None for s in surfaces]

    def at(ix, iy):
        return iy * nx + ix

    # the tiles present around each interior corner (cx, cy)
    quads = {(cx, cy): {t: i for t, i in (("A", at(cx - 1, cy - 1)), ("B", at(cx, cy - 1)),
                                          ("C", at(cx - 1, cy)), ("D", at(cx, cy)))
                        if S[i] is not None}
             for cy in range(1, ny) for cx in range(1, nx)}
    joint = {c for c, quad in quads.items() if len(quad) >= 3}
    # (lower index, upper index, axis, skip_lo, skip_hi); the skip flags
    # mark edge ends at a corner with a joint system
    edges = [(at(ix, iy), at(ix + 1, iy), 0, (ix + 1, iy) in joint, (ix + 1, iy + 1) in joint)
             for iy in range(ny) for ix in range(nx - 1)]
    edges += [(at(ix, iy), at(ix, iy + 1), 1, (ix, iy + 1) in joint, (ix + 1, iy + 1) in joint)
              for iy in range(ny - 1) for ix in range(nx)]
    edges = [e for e in edges if S[e[0]] is not None and S[e[1]] is not None]
    for i, j, ax, _, _ in edges:
        _check_pair(S[i], S[j], ax)
    # (index, axis, side) of each side that faces the hole at a three-tile
    # corner: it needs the two-row strip of an edge for the corner block
    open_sides = dict.fromkeys(
        (i, ax, _CORNER_SIDES[t][ax]) for quad in quads.values() if c1 and len(quad) == 3
        for t, i in quad.items() for ax in (0, 1) if _ACROSS[t][ax] not in quad)

    # phase 1: settle all edge spline spaces to a joint fixpoint
    for _ in range(64):
        changed = False
        for i, j, ax, _, _ in edges:
            changed |= _unify_edge(S[i], S[j], ax, c1)
        for i, ax, side in open_sides:
            changed |= _complete_edge(S[i], ax, side, _trace_knots(S[i], ax, side), True)
        if not changed:
            break
    else:
        raise RuntimeError("edge spline spaces failed to settle")

    # phase 2: pin corner values across the tiles that meet there.  Later
    # edge averaging only preserves an already-agreed corner, so this
    # covers corners of two tiles too.
    for quad in quads.values():
        if len(quad) < 2:
            continue
        idx = {t: [_corner_g(S[i], *_CORNER_SIDES[t])] for t, i in quad.items()}
        wsum = sum(weights[i] for i in quad.values())
        g = sum(weights[i] * _gamma(S[i], idx[t])[0] for t, i in quad.items()) / wsum
        for t, i in quad.items():
            _set_gamma(S[i], idx[t], [g])

    # phase 3: boundary curves
    for i, j, ax, _, _ in edges:
        _c0_edge(S[i], S[j], ax, (weights[i], weights[j]))
    if c1:
        # phase 4: derivatives; corner windows are owned by the joint systems
        for i, j, ax, skip_lo, skip_hi in edges:
            _c1_edge(S[i], S[j], ax, (weights[i], weights[j]), skip_lo, skip_hi)
        for quad in quads.values():
            if len(quad) >= 3:
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
    corner of three or four tiles are solved jointly.  Averaging weights
    are the per-tile fit point counts.  Holes are skipped: an edge next to
    one stays unstitched, and every edge between two present tiles closes
    up to its corners.
    """
    nx, ny = int(counts[0]), int(counts[1])
    if len(fits) != nx * ny:
        raise ValueError("tile list does not match grid counts")
    return _stitch([f.surface for f in fits], [max(f.n_points, 1) for f in fits],
                   nx, ny, c1)


# -- manifest ------------------------------------------------------------


def write_manifest(path, counts, overlap: float,
                   surface_paths: list[str | None], fits: list[TileFit]) -> None:
    """Tile grid description with per-tile surface paths and fit reports;
    the tiles are those of ``fits``."""
    entries = [{"ix": f.tile.ix, "iy": f.tile.iy, "core": f.tile.core,
                "expanded": f.tile.expanded, "surface": p,
                "n_points": f.n_points, "flags": f.flags,
                "report": [{"iteration": r.iteration,
                            "coefficients": r.n_coefficients,
                            "size_bytes": r.size_bytes, "max_dist": r.max_dist,
                            "avg_dist": r.avg_dist, "n_out": r.n_out}
                           for r in f.reports]}
               for f, p in zip(fits, surface_paths)]
    first, last = fits[0].tile.core, fits[-1].tile.core
    bbox = [first[0], last[1], first[2], last[3]]
    _write_json(path, {"bbox": bbox, "counts": [int(counts[0]), int(counts[1])],
                       "overlap": overlap, "tiles": entries})


@_names_path
def read_manifest(path) -> dict:
    """Tile grid description; ValueError, naming ``path``, when the file
    is not JSON or a key ``stitch`` reads is bad."""
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
        n = t.get("n_points", 0)
        for key, holds, what in [
            *((key, isinstance(t[key], list) and len(t[key]) == 4
               and all(type(c) in (int, float) for c in t[key]), "four numbers")
              for key in ("core", "expanded")),
            ("surface", t["surface"] is None or isinstance(t["surface"], str), "a path or null"),
            ("n_points", type(n) is int and n >= 0, "a non-negative integer"),
        ]:
            if not holds:
                raise ValueError(f"manifest tile {k} '{key}' must be {what}, not {t.get(key)!r}")
    doc["tiles"] = [dict(t) for t in tiles]
    return doc
