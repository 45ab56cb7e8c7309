"""Penalized least-squares approximation on an LR B-spline space.

Minimizes  alpha1 * J(F) + alpha2 * sum_k (F(x_k, y_k) - z_k)^2  with
alpha2 = 1 - alpha1.  J is a rotation-invariant thin-plate style energy:
directional derivatives up to third order, squared, integrated over all
directions and the domain.  The angular integral has a closed form; the
area integral is exact per-element Gauss quadrature (integrand is piecewise
polynomial).

First order:   pi/2   (Fu^2 + Fv^2)
Second order:  pi/8   (3 Fuu^2 + 2 Fuu Fvv + 4 Fuv^2 + 3 Fvv^2)
Third order:   pi/16  (5 Fuuu^2 + 9 Fuuv^2 + 9 Fuvv^2 + 5 Fvvv^2
                       + 6 Fuuu Fuvv + 6 Fuuv Fvvv)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .evaluate import _dpowers, _locate, _pair_values, basis_matrix, eval_cache
from .mesh import LRSurface

__all__ = [
    "SmoothingWeights",
    "smoothing_matrix",
    "smoothing_energy",
    "idw_prior",
    "ghost_points",
    "fit_least_squares",
]


@dataclass(frozen=True)
class SmoothingWeights:
    """Weights of the derivative orders in the smoothing term.

    The default penalizes curvature only; first-order weighting shrinks
    the surface toward a constant and is off, third-order is off because
    quadratic pieces have no third derivatives anyway.
    """

    w1: float = 0.0
    w2: float = 1.0
    w3: float = 0.0


# closed-form angular weights: list of (coef, (a1, b1), (a2, b2)) meaning
# coef * integral of D^(a1,b1)F * D^(a2,b2)F, symmetrized where needed
_TERMS1 = [(np.pi / 2, (1, 0), (1, 0)), (np.pi / 2, (0, 1), (0, 1))]
_TERMS2 = [
    (3 * np.pi / 8, (2, 0), (2, 0)),
    (np.pi / 8, (2, 0), (0, 2)), (np.pi / 8, (0, 2), (2, 0)),
    (4 * np.pi / 8, (1, 1), (1, 1)),
    (3 * np.pi / 8, (0, 2), (0, 2)),
]
_TERMS3 = [
    (5 * np.pi / 16, (3, 0), (3, 0)),
    (9 * np.pi / 16, (2, 1), (2, 1)),
    (9 * np.pi / 16, (1, 2), (1, 2)),
    (5 * np.pi / 16, (0, 3), (0, 3)),
    (3 * np.pi / 16, (3, 0), (1, 2)), (3 * np.pi / 16, (1, 2), (3, 0)),
    (3 * np.pi / 16, (2, 1), (0, 3)), (3 * np.pi / 16, (0, 3), (2, 1)),
]


def smoothing_matrix(surface: LRSurface, weights: SmoothingWeights = SmoothingWeights()
                     ) -> sparse.csr_matrix:
    """Symmetric positive semidefinite matrix S with J(F) = c^T S c.

    Exact per element: Gauss-Legendre with degree+1 points per direction
    integrates the piecewise-polynomial integrand without error.
    """
    du, dv = surface.degrees
    terms: list[tuple[float, tuple[int, int], tuple[int, int]]] = []
    if weights.w1:
        terms += [(weights.w1 * c, p, q) for c, p, q in _TERMS1]
    if weights.w2:
        terms += [(weights.w2 * c, p, q) for c, p, q in _TERMS2]
    if weights.w3 and max(du, dv) >= 3:
        terms += [(weights.w3 * c, p, q) for c, p, q in _TERMS3]
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
    D = {(a, b): _pair_values(cache, _dpowers(tu, du, a, 1.0), _dpowers(tv, dv, b, 1.0))
         * ((1.0 / wu[pe]) ** a * (1.0 / wv[pe]) ** b)[:, None]
         for a, b in pairs}
    # exact per-element blocks, batched over elements with equal resident counts
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
    S = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(L, L)).tocsr()
    return S


def smoothing_energy(surface: LRSurface,
                     weights: SmoothingWeights = SmoothingWeights()) -> float:
    S = smoothing_matrix(surface, weights)
    return float(surface.coeffs @ (S @ surface.coeffs))


def idw_prior(points: np.ndarray, k: int = 8):
    """Inverse-distance-weighted height interpolant over scattered data."""
    from scipy.spatial import cKDTree

    pts = np.asarray(points, dtype=float)
    tree = cKDTree(pts[:, :2])
    zs = pts[:, 2]
    kk = min(k, len(pts))

    def prior(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        q = np.column_stack([x, y])
        dist, idx = tree.query(q, k=kk)
        if kk == 1:
            return zs[idx]
        w = 1.0 / np.maximum(dist, 1e-12)
        return (w * zs[idx]).sum(axis=1) / w.sum(axis=1)

    return prior


def ghost_points(surface: LRSurface, points: np.ndarray, prior=None,
                 min_support: int | None = None):
    """Anchor points for B-splines with data-starved supports.

    Any B-spline seeing fewer data points over its support than it has
    degrees of freedom nearby gets its covered element centers added as
    low-weight anchors; heights come from ``prior`` (default: IDW over the
    data).  Returns (m, 3) array, possibly empty.
    """
    pts = np.asarray(points, dtype=float)
    eid = _locate(eval_cache(surface), pts[:, 0], pts[:, 1])
    return _ghosts(surface, pts, eid, prior, min_support)


def _ghosts(surface: LRSurface, pts: np.ndarray, eid: np.ndarray, prior=None,
            min_support: int | None = None) -> np.ndarray:
    """``ghost_points`` for points already located in elements ``eid``."""
    du, dv = surface.degrees
    need = min_support if min_support is not None else (du + 1) * (dv + 1)
    cache = eval_cache(surface)
    per_el = np.bincount(eid, minlength=len(cache.bounds))
    per_bs = np.bincount(cache.res, weights=per_el[cache.pair_element],
                         minlength=len(surface))
    starved = per_bs < need
    if not starved.any():
        return np.empty((0, 3))
    b = cache.bounds[np.unique(cache.pair_element[starved[cache.res]])]
    centers = np.column_stack([0.5 * (b[:, 0] + b[:, 1]), 0.5 * (b[:, 2] + b[:, 3])])
    if prior is None:
        prior = idw_prior(pts)
    z = prior(centers[:, 0], centers[:, 1])
    return np.column_stack([centers, z])


def fit_least_squares(surface: LRSurface, points: np.ndarray,
                      alpha1: float = 1e-6,
                      weights: SmoothingWeights = SmoothingWeights(),
                      prior=None, ghost_weight: float = 1e-3,
                      cg_threshold: int = 25_000, basis=None) -> dict:
    """Solve the penalized normal equations and update the coefficients.

    Direct sparse LU up to ``cg_threshold`` unknowns, Jacobi-preconditioned
    CG beyond.  Ghost anchors keep the system nonsingular on elements the
    data does not reach.  ``basis`` is ``basis_matrix(surface, x, y)`` of
    these points on the current mesh, when the caller already has it; it is
    built here when omitted.  Returns solver diagnostics.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 3 or len(pts) == 0:
        raise ValueError("points must be a nonempty (n, 3) array")
    alpha2 = 1.0 - alpha1
    if basis is None:
        basis = basis_matrix(surface, pts[:, 0], pts[:, 1])
    B, eid = basis
    ghosts = _ghosts(surface, pts, eid, prior)
    z = pts[:, 2]
    BtB = B.T @ B
    Btz = B.T @ z
    if len(ghosts):
        G, _ = basis_matrix(surface, ghosts[:, 0], ghosts[:, 1])
        BtB = BtB + ghost_weight * (G.T @ G)
        Btz = Btz + ghost_weight * (G.T @ ghosts[:, 2])
    S = smoothing_matrix(surface, weights)
    A = (alpha1 * S + alpha2 * BtB).tocsc()
    b = alpha2 * Btz
    L = A.shape[0]
    info = {"n_ghosts": int(len(ghosts)), "n_unknowns": L}
    if L <= cg_threshold:
        try:
            lu = spla.splu(A)
            c = lu.solve(b)
            info["solver"] = "splu"
        except RuntimeError as exc:
            raise RuntimeError(
                "normal equations are singular; the space has B-splines with "
                "empty data support and no smoothing reach") from exc
    else:
        d = A.diagonal()
        M = sparse.diags(np.where(d > 0, 1.0 / d, 1.0))
        c, cg_info = spla.cg(A, b, M=M, rtol=1e-12, atol=0.0, maxiter=2000,
                             x0=surface.coeffs)
        info["solver"] = f"cg({cg_info})"
        if cg_info != 0:
            lu = spla.splu(A)
            c = lu.solve(b)
            info["solver"] = "splu-after-cg"
    rel = np.linalg.norm(A @ c - b) / max(np.linalg.norm(b), 1e-300)
    info["relative_residual"] = float(rel)
    if not rel <= 1e-8:
        raise RuntimeError(f"normal equation solve failed: relative residual {rel:.2e}")
    # coefficient-only update: basis caches stay valid, no version bump
    surface.coeffs = np.asarray(c, dtype=float)
    return info
