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
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .adaptive import FitConfig, IterationReport, _finite, fit
from .mesh import (SNAP_REL, LRSurface, Segment, insert_segments, restrict,
                   transpose)

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
# A restricted tile surface is clamped: along each domain edge the B-splines
# carry the edge coordinate at full multiplicity degree+1 ("row 0", the only
# functions with a nonzero value on the edge) or at multiplicity degree
# ("row 1", the only additional ones with a nonzero first derivative there).
# The boundary curve is therefore the 1D spline whose coefficients are the
# row-0 coefficients, and stitching reduces to aligning the row v-knots of
# both sides into windows of one shared global knot vector.


def _edge_mult(kn: tuple[float, ...], pos: float, side: int) -> int:
    it = reversed(kn) if side == 0 else iter(kn)
    m = 0
    for t in it:
        if t != pos:
            break
        m += 1
    return m


def _trace_knots(surface: LRSurface, xs: float, side: int) -> list[tuple[float, int]]:
    """(position, multiplicity) pairs of the boundary curve's knot vector."""
    du = surface.degrees[0]
    mult: dict[float, int] = {}
    for b in surface.bsplines:
        if _edge_mult(b.ku, xs, side) != du + 1:
            continue
        for p, m in Counter(b.kv).items():
            if mult.get(p, 0) < m:
                mult[p] = m
    return sorted(mult.items())


def _merge_trace(ta, tb, tol: float) -> list[tuple[float, int]]:
    """Union of two knot multisets, clustering positions within ``tol``."""
    out: list[tuple[float, int]] = []
    ia = ib = 0
    while ia < len(ta) or ib < len(tb):
        if ib >= len(tb):
            p, m = ta[ia]; ia += 1
        elif ia >= len(ta):
            p, m = tb[ib]; ib += 1
        elif abs(ta[ia][0] - tb[ib][0]) <= tol:
            p = ta[ia][0]
            m = max(ta[ia][1], tb[ib][1])
            ia += 1; ib += 1
        elif ta[ia][0] < tb[ib][0]:
            p, m = ta[ia]; ia += 1
        else:
            p, m = tb[ib]; ib += 1
        out.append((p, m))
    return out


def _complete_edge(surface: LRSurface, xs: float, side: int,
                   target: list[tuple[float, int]], with_row1: bool) -> bool:
    """Insert v-knot segments so the edge rows align with ``target``.

    Returns True when anything was inserted.  Segments span only the strip
    (the u-support of the row function that needs the knot), so functions
    farther than two rows from the boundary are untouched.
    """
    du, dv = surface.degrees
    tol = SNAP_REL * surface.mesh.extent(1)
    min_mult = du if with_row1 else du + 1
    segs = []
    for b in surface.bsplines:
        if _edge_mult(b.ku, xs, side) < min_mult:
            continue
        kv = b.kv
        for p, m in target:
            if not (kv[0] + tol < p < kv[-1] - tol):
                continue
            have = sum(1 for t in kv if abs(t - p) <= tol)
            if have < m:
                u_lo = b.ku[0] if side == 0 else xs
                u_hi = xs if side == 0 else b.ku[-1]
                segs.append(Segment(1, p, u_lo, u_hi, m))
    if segs:
        insert_segments(surface, segs)
    return bool(segs)


def _edge_rows(surface: LRSurface, xs: float, side: int, with_row1: bool):
    """Edge rows as ladders of knot windows.

    Returns (windows, row0, row1) where windows[k] is the k-th v-knot window
    of the boundary spline space and row0/row1 the B-spline index carrying
    it.  Raises when the edge is not a clean (two-row) tensor strip.
    """
    du = surface.degrees[0]
    r0: dict[tuple, int] = {}
    r1: dict[tuple, int] = {}
    for i, b in enumerate(surface.bsplines):
        m = _edge_mult(b.ku, xs, side)
        if m == du + 1:
            if b.kv in r0:
                raise RuntimeError("duplicate boundary window")
            r0[b.kv] = i
        elif m == du and with_row1:
            if b.kv in r1:
                raise RuntimeError("duplicate boundary window")
            r1[b.kv] = i
    windows = sorted(r0)
    for w, nxt in zip(windows, windows[1:]):
        if w[1:] != nxt[:-1]:
            raise RuntimeError("boundary windows do not chain")
    row0 = [r0[w] for w in windows]
    row1 = None
    if with_row1:
        row1 = []
        for w in windows:
            j = r1.get(w)
            if j is None:
                raise RuntimeError("boundary strip is not tensor-product")
            row1.append(j)
    return windows, row0, row1


def _unify_edge(a: LRSurface, b: LRSurface, xs: float, with_row1: bool) -> bool:
    """One structure pass over a shared edge; True when knots were added."""
    tol = SNAP_REL * max(a.mesh.extent(1), b.mesh.extent(1))
    target = _merge_trace(_trace_knots(a, xs, 0), _trace_knots(b, xs, 1), tol)
    ca = _complete_edge(a, xs, 0, target, with_row1)
    cb = _complete_edge(b, xs, 1, target, with_row1)
    return ca or cb


def _settle_edge(a: LRSurface, b: LRSurface, xs: float, with_row1: bool) -> None:
    for _ in range(64):
        if not _unify_edge(a, b, xs, with_row1):
            return
    raise RuntimeError("boundary spline spaces failed to settle")


def _gamma(surface: LRSurface, rows) -> np.ndarray:
    s = np.array([surface.bsplines[i].scaling for i in rows])
    return surface.coeffs[rows] * s


def _set_gamma(surface: LRSurface, rows, values: np.ndarray) -> None:
    for i, g in zip(rows, values):
        surface.coeffs[i] = g / surface.bsplines[i].scaling
    surface.bump()


def _check_pair(a: LRSurface, b: LRSurface) -> float:
    if a.degrees != b.degrees:
        raise ValueError("surfaces have different degrees")
    xs = a.domain[1]
    tol = SNAP_REL * max(a.mesh.extent(0), b.mesh.extent(0))
    if abs(b.domain[0] - xs) > tol:
        raise ValueError("surfaces do not share a boundary")
    tv = SNAP_REL * max(a.mesh.extent(1), b.mesh.extent(1))
    if abs(a.domain[2] - b.domain[2]) > tv or abs(a.domain[3] - b.domain[3]) > tv:
        raise ValueError("shared boundary spans differ")
    return xs


def _c0_edge(a: LRSurface, b: LRSurface, xs: float, weights) -> None:
    """Equalize the boundary curves; spaces must be settled already."""
    wa, wb = float(weights[0]), float(weights[1])
    _, r0a, _ = _edge_rows(a, xs, 0, False)
    _, r0b, _ = _edge_rows(b, xs, 1, False)
    if len(r0a) != len(r0b):
        raise RuntimeError("boundary spaces disagree after settling")
    g = (wa * _gamma(a, r0a) + wb * _gamma(b, r0b)) / (wa + wb)
    _set_gamma(a, r0a, g)
    _set_gamma(b, r0b, g)


def _deriv_factors(surface: LRSurface, xs: float, side: int, row0, row1):
    """Per-window derivative weights of the two edge rows at the boundary.

    d/du of the boundary trace is f0[k] * gamma0[k] + f1[k] * gamma1[k] in
    the shared 1D basis; the factors follow from the local u-knots.
    """
    du = surface.degrees[0]
    f0 = np.empty(len(row0))
    f1 = np.empty(len(row0))
    for k, (i, j) in enumerate(zip(row0, row1)):
        ku0 = surface.bsplines[i].ku
        ku1 = surface.bsplines[j].ku
        if side == 0:
            f0[k] = du / (xs - ku0[0])
            f1[k] = -du / (xs - ku1[1])
        else:
            f0[k] = -du / (ku0[-1] - xs)
            f1[k] = du / (ku1[-2] - xs)
    return f0, f1


def _c1_edge(a: LRSurface, b: LRSurface, xs: float, weights,
             skip_lo: bool = False, skip_hi: bool = False) -> None:
    """Equalize the cross-boundary derivative on a settled, C0-equal edge.

    Row-0 coefficients stay fixed so the value match is preserved; the two
    row-1 coefficients absorb the correction.  ``skip_lo``/``skip_hi`` leave
    the two windows at that end untouched (they belong to a corner system).
    """
    wa, wb = float(weights[0]), float(weights[1])
    _, r0a, r1a = _edge_rows(a, xs, 0, True)
    _, r0b, r1b = _edge_rows(b, xs, 1, True)
    nk = len(r0a)
    if nk != len(r0b):
        raise RuntimeError("boundary spaces disagree after settling")
    fa0, fa1 = _deriv_factors(a, xs, 0, r0a, r1a)
    fb0, fb1 = _deriv_factors(b, xs, 1, r0b, r1b)
    g0a = _gamma(a, r0a)
    g0b = _gamma(b, r0b)
    g1a = _gamma(a, r1a)
    g1b = _gamma(b, r1b)
    da = fa0 * g0a + fa1 * g1a
    db = fb0 * g0b + fb1 * g1b
    d = (wa * da + wb * db) / (wa + wb)
    new_a = (d - fa0 * g0a) / fa1
    new_b = (d - fb0 * g0b) / fb1
    live = np.ones(nk, dtype=bool)
    if skip_lo:
        live[:2] = False
    if skip_hi:
        live[-2:] = False
    keep_a = np.asarray(r1a)[live]
    keep_b = np.asarray(r1b)[live]
    _set_gamma(a, list(keep_a), new_a[live])
    _set_gamma(b, list(keep_b), new_b[live])


def stitch_c0(a: LRSurface, b: LRSurface, axis: int = 0,
              weights=(1.0, 1.0)):
    """Make two adjacent surfaces agree along their shared boundary.

    axis 0: ``a`` left of ``b`` (a-umax == b-umin); axis 1: ``a`` below
    ``b``.  Boundary knot vectors are unified by local refinement, then the
    boundary coefficients are replaced by their ``weights``-weighted mean on
    both sides.  Returns the modified pair; the inputs are untouched.
    """
    if axis == 1:
        ta, tb = stitch_c0(transpose(a), transpose(b), 0, weights)
        return transpose(ta), transpose(tb)
    a, b = a.copy(), b.copy()
    xs = _check_pair(a, b)
    _settle_edge(a, b, xs, False)
    _c0_edge(a, b, xs, weights)
    return a, b


def stitch_c1(a: LRSurface, b: LRSurface, axis: int = 0,
              weights=(1.0, 1.0)):
    """C0 stitch plus equal first derivatives across the boundary.

    Both sides are refined into a two-row tensor-product strip along the
    boundary; the value rows get the common boundary curve and the second
    rows are adjusted (least change) so the cross-boundary derivative is the
    weighted mean of the two sides'.  Returns the modified pair.
    """
    if axis == 1:
        ta, tb = stitch_c1(transpose(a), transpose(b), 0, weights)
        return transpose(ta), transpose(tb)
    a, b = a.copy(), b.copy()
    xs = _check_pair(a, b)
    _settle_edge(a, b, xs, True)
    _c0_edge(a, b, xs, weights)
    _c1_edge(a, b, xs, weights)
    return a, b


# -- grid stitching ------------------------------------------------------


def _corner_block(surface: LRSurface, xs: float, ys: float,
                  uside: int, vside: int) -> dict:
    """The 2x2 coefficient block of one tile at a grid corner.

    Slot names: g (value row both directions), V (u-row0, v-row1),
    H (u-row1, v-row0), Q (u-row1, v-row1).
    """
    du, dv = surface.degrees
    slots: dict[str, int] = {}
    for i, b in enumerate(surface.bsplines):
        mu = _edge_mult(b.ku, xs, uside)
        mv = _edge_mult(b.kv, ys, vside)
        if mu < du or mv < dv:
            continue
        name = {(du + 1, dv + 1): "g", (du + 1, dv): "V",
                (du, dv + 1): "H", (du, dv): "Q"}[(mu, mv)]
        if name in slots:
            raise RuntimeError("corner block is not tensor-product")
        slots[name] = i
    if len(slots) != 4:
        raise RuntimeError("corner block is incomplete")
    bs = surface.bsplines
    if bs[slots["g"]].ku != bs[slots["V"]].ku or bs[slots["H"]].ku != bs[slots["Q"]].ku:
        raise RuntimeError("corner block rows disagree in u")
    if bs[slots["g"]].kv != bs[slots["H"]].kv or bs[slots["V"]].kv != bs[slots["Q"]].kv:
        raise RuntimeError("corner block rows disagree in v")
    ku0, ku1 = bs[slots["g"]].ku, bs[slots["H"]].ku
    kv0, kv1 = bs[slots["g"]].kv, bs[slots["V"]].kv
    if uside == 0:
        fu0, fu1 = du / (xs - ku0[0]), -du / (xs - ku1[1])
    else:
        fu0, fu1 = -du / (ku0[-1] - xs), du / (ku1[-2] - xs)
    if vside == 0:
        fv0, fv1 = dv / (ys - kv0[0]), -dv / (ys - kv1[1])
    else:
        fv0, fv1 = -dv / (kv0[-1] - ys), dv / (kv1[-2] - ys)
    return {"slots": slots, "fu0": fu0, "fu1": fu1, "fv0": fv0, "fv1": fv1}


def _corner_g(surface: LRSurface, xs: float, ys: float,
              uside: int, vside: int) -> int:
    """Index of the single B-spline that is nonzero at a tile corner."""
    du, dv = surface.degrees
    hit = -1
    for i, b in enumerate(surface.bsplines):
        if (_edge_mult(b.ku, xs, uside) == du + 1
                and _edge_mult(b.kv, ys, vside) == dv + 1):
            if hit >= 0:
                raise RuntimeError("corner value function is not unique")
            hit = i
    if hit < 0:
        raise RuntimeError("no corner value function")
    return hit


def _corner_gamma(surface: LRSurface, i: int) -> float:
    return surface.coeffs[i] * surface.bsplines[i].scaling


def _corner_set(surface: LRSurface, i: int, g: float) -> None:
    surface.coeffs[i] = g / surface.bsplines[i].scaling
    surface.bump()


def _solve_corner(tiles: dict[str, LRSurface], xs: float, ys: float) -> None:
    """Joint cross-derivative conditions of the four tiles meeting at a corner.

    Tile keys: A lower-left, B lower-right, C upper-left, D upper-right.
    Corner values g are assumed already equal; the remaining eight corner
    coefficients get the smallest change that makes both derivative
    directions continuous through the corner.  The system is consistent
    (constants solve it), so the residual is numerically zero.
    """
    sides = {"A": (0, 0), "B": (1, 0), "C": (0, 1), "D": (1, 1)}
    blk = {t: _corner_block(tiles[t], xs, ys, *sides[t]) for t in tiles}
    g = np.mean([_corner_gamma(tiles[t], blk[t]["slots"]["g"]) for t in tiles])

    # variables: V_b, V_t, H_l, H_r, Q_A, Q_B, Q_C, Q_D
    cur = np.array([
        _corner_gamma(tiles["A"], blk["A"]["slots"]["V"]),
        _corner_gamma(tiles["C"], blk["C"]["slots"]["V"]),
        _corner_gamma(tiles["A"], blk["A"]["slots"]["H"]),
        _corner_gamma(tiles["B"], blk["B"]["slots"]["H"]),
        _corner_gamma(tiles["A"], blk["A"]["slots"]["Q"]),
        _corner_gamma(tiles["B"], blk["B"]["slots"]["Q"]),
        _corner_gamma(tiles["C"], blk["C"]["slots"]["Q"]),
        _corner_gamma(tiles["D"], blk["D"]["slots"]["Q"]),
    ])
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
        _corner_set(tiles[t], blk[t]["slots"][name], val)


def stitch_grid(fits: list[TileFit], counts, c1: bool = False):
    """Stitch a whole tile grid; returns the list of stitched surfaces.

    Runs in phases: all structural refinement first (edge spaces settle
    jointly, since perpendicular edges interact at corners), then corner
    values, then boundary curves, then derivatives with per-corner joint
    systems.  Averaging weights are the per-tile fit point counts.  Holes
    are skipped; their edges stay unstitched.
    """
    nx, ny = int(counts[0]), int(counts[1])
    if len(fits) != nx * ny:
        raise ValueError("tile list does not match grid counts")
    S: list[LRSurface | None] = [f.surface.copy() if f.surface is not None else None
                                 for f in fits]
    w = [max(f.n_points, 1) for f in fits]

    def at(ix, iy):
        return iy * nx + ix

    v_edges = []  # (left index, right index, skip_lo, skip_hi)
    h_edges = []
    for iy in range(ny):
        for ix in range(nx - 1):
            i, j = at(ix, iy), at(ix + 1, iy)
            if S[i] is not None and S[j] is not None:
                v_edges.append((i, j, iy > 0, iy < ny - 1))
    for iy in range(ny - 1):
        for ix in range(nx):
            i, j = at(ix, iy), at(ix, iy + 1)
            if S[i] is not None and S[j] is not None:
                h_edges.append((i, j, ix > 0, ix < nx - 1))

    # phase 1: settle all edge spline spaces to a joint fixpoint
    for _ in range(64):
        changed = False
        for i, j, _, _ in v_edges:
            xs = _check_pair(S[i], S[j])
            changed |= _unify_edge(S[i], S[j], xs, c1)
        for i, j, _, _ in h_edges:
            ta, tb = transpose(S[i]), transpose(S[j])
            ys = _check_pair(ta, tb)
            if _unify_edge(ta, tb, ys, c1):
                changed = True
            S[i], S[j] = transpose(ta), transpose(tb)
        if not changed:
            break
    else:
        raise RuntimeError("grid edge spaces failed to settle")

    # phase 2: pin corner values across the tiles that meet there.  Later
    # edge averaging only preserves an already-agreed corner, so this must
    # cover partial corners at holes too; the joint derivative solve still
    # needs all four tiles.
    corners = []
    sides = {"A": (0, 0), "B": (1, 0), "C": (0, 1), "D": (1, 1)}
    for cy in range(1, ny):
        for cx in range(1, nx):
            quad = {"A": at(cx - 1, cy - 1), "B": at(cx, cy - 1),
                    "C": at(cx - 1, cy), "D": at(cx, cy)}
            present = {t: i for t, i in quad.items() if S[i] is not None}
            if len(present) < 2:
                continue
            t0, i0 = next(iter(present.items()))
            us, vs = sides[t0]
            xs = S[i0].domain[1 - us]
            ys = S[i0].domain[3 - vs]
            idx = {t: _corner_g(S[i], xs, ys, *sides[t])
                   for t, i in present.items()}
            wsum = sum(w[i] for i in present.values())
            g = sum(w[i] * _corner_gamma(S[i], idx[t])
                    for t, i in present.items()) / wsum
            for t, i in present.items():
                _corner_set(S[i], idx[t], g)
            if len(present) == 4:
                corners.append((quad, xs, ys))

    # phase 3: boundary curves
    for i, j, _, _ in v_edges:
        _c0_edge(S[i], S[j], S[i].domain[1], (w[i], w[j]))
    for i, j, _, _ in h_edges:
        ta, tb = transpose(S[i]), transpose(S[j])
        _c0_edge(ta, tb, ta.domain[1], (w[i], w[j]))
        S[i], S[j] = transpose(ta), transpose(tb)

    if not c1:
        return S

    # phase 4: derivatives; corner windows are owned by the joint systems
    for i, j, skip_lo, skip_hi in v_edges:
        _c1_edge(S[i], S[j], S[i].domain[1], (w[i], w[j]), skip_lo, skip_hi)
    for i, j, skip_lo, skip_hi in h_edges:
        ta, tb = transpose(S[i]), transpose(S[j])
        _c1_edge(ta, tb, ta.domain[1], (w[i], w[j]), skip_lo, skip_hi)
        S[i], S[j] = transpose(ta), transpose(tb)
    for quad, xs, ys in corners:
        _solve_corner({t: S[i] for t, i in quad.items()}, xs, ys)
    return S


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
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("bbox", "counts", "tiles"):
        if key not in doc:
            raise ValueError(f"manifest is missing '{key}'")
    doc["tiles"] = [dict(t) for t in doc["tiles"]]
    return doc
