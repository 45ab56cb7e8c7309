"""Penalized least-squares approximation on an LR B-spline space.

Minimizes  alpha1 * J(F) + alpha2 * sum_k (F(x_k, y_k) - z_k)^2  with
alpha2 = 1 - alpha1.  J is a rotation-invariant thin-plate style energy:
directional derivatives up to third order, squared, integrated over all
directions and the domain.  The angular integral has a closed form, and
so has the area integral: on each element the integrand is a polynomial,
integrated exactly monomial by monomial.

First order:   pi/2   (Fu^2 + Fv^2)
Second order:  pi/8   (3 Fuu^2 + 2 Fuu Fvv + 4 Fuv^2 + 3 Fvv^2)
Third order:   pi/16  (5 Fuuu^2 + 9 Fuuv^2 + 9 Fuvv^2 + 5 Fvvv^2
                       + 6 Fuuu Fuvv + 6 Fuuv Fvvv)

The normal equations are assembled element by element, as in GoTools'
``LRSurfApprox``: each B-spline restricted to an element is the monomial
tensor the element layer holds, so the element's share of B^T B and B^T z
needs only the power moments of its points, and its share of the
smoothing term only a fixed kernel scaled to its size.  No collocation
matrix B is built.  The system goes to symmetric-mode sparse LU up to
``CG_THRESHOLD`` unknowns and to preconditioned CG beyond; ghost anchors
on data-starved B-splines enter the moments at weight ``GHOST_WEIGHT``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .evaluate import _gather, _locate, check_points, eval_cache
from .mesh import LRSurface

__all__ = [
    "SmoothingWeights",
    "smoothing_matrix",
    "idw_prior",
    "ghost_points",
    "fit_least_squares",
]

# weight of a ghost anchor's squared residual, relative to a data point's
GHOST_WEIGHT = 1e-3
# points per block of the moment sums: the power rows of a block and the
# product summed from them stay in cache (2^13 sums 180k points about
# twice as fast as 2^16)
_BLOCK = 1 << 13
# unknowns above which the normal equations go to CG instead of sparse LU,
# whose fill-in makes it the slower of the two on large spaces
CG_THRESHOLD = 25_000


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


def _smoothing_terms(weights: SmoothingWeights, degrees) -> list:
    """The weighted (coef, (a1, b1), (a2, b2)) terms of the energy J."""
    terms = []
    if weights.w1:
        terms += [(weights.w1 * c, p, q) for c, p, q in _TERMS1]
    if weights.w2:
        terms += [(weights.w2 * c, p, q) for c, p, q in _TERMS2]
    if weights.w3 and max(degrees) >= 3:
        terms += [(weights.w3 * c, p, q) for c, p, q in _TERMS3]
    return terms


def _gram1(d: int, a1: int, a2: int) -> np.ndarray:
    """G[j, k] = integral over [0, 1] of the a1-th derivative of t^j times
    the a2-th derivative of t^k, for j, k <= d."""
    G = np.zeros((d + 1, d + 1))
    for j in range(a1, d + 1):
        for k in range(a2, d + 1):
            G[j, k] = math.perm(j, a1) * math.perm(k, a2) / (j + k - a1 - a2 + 1)
    return G


@functools.cache
def _kernel_parts(degrees: tuple[int, int], weights: SmoothingWeights) -> tuple:
    """The energy J on one element in its local monomial basis.

    Returns one (pu, pv, K) part per term: an element of widths wu, wv
    contributes sum wu^pu wv^pv K to J, with K over the monomials t^j s^l
    of the local coordinates, row j * (dv + 1) + l.  A derivative of
    order a in u scales by wu^-a and the area by wu wv, so a term's
    exponents are 1 - a1 - a2 and 1 - b1 - b2, and its reference
    integral is the product of one univariate Gram matrix per axis.
    Built once per (degrees, weights); every caller shares the parts, so
    each K is read-only.
    """
    du, dv = degrees
    parts = []
    for c, (a1, b1), (a2, b2) in _smoothing_terms(weights, degrees):
        K = c * np.kron(_gram1(du, a1, a2), _gram1(dv, b1, b2))
        K.flags.writeable = False
        parts.append((1 - a1 - a2, 1 - b1 - b2, K))
    return tuple(parts)


def _element_system(surface: LRSurface, weights: SmoothingWeights, alpha1: float,
                    moments=None):
    """A = sum_e T_e (alpha1 K_e + alpha2 M_e) T_e^T, alpha2 = 1 - alpha1,
    and b = alpha2 sum_e T_e nu_e, scattered by resident.

    T_e holds the element's resident tensors, one row each; K_e is the
    smoothing kernel of its size (``_kernel_parts``).  ``moments`` is
    (mu, nu) of ``_moments``: M_e[(j, l), (j', l')] = mu_e[j + j', l + l']
    and nu_e the z-weighted moments, so T_e M_e T_e^T is the element's
    share of B^T B and T_e nu_e its share of B^T z.  Without moments A is
    alpha1 S and b is None.  Elements with equal resident counts form
    one batch.  Returns (A in CSC, b).
    """
    du, dv = surface.degrees
    m = (du + 1) * (dv + 1)
    j, l = np.divmod(np.arange(m), dv + 1)
    jj, ll = j[:, None] + j, l[:, None] + l
    parts = _kernel_parts(surface.degrees, weights)
    cache = eval_cache(surface)
    wu = cache.bounds[:, 1] - cache.bounds[:, 0]
    wv = cache.bounds[:, 3] - cache.bounds[:, 2]
    T = cache.tensors.reshape(len(cache.res), m)
    counts = np.diff(cache.offsets)
    rows, cols, vals = [], [], []
    for n_res in np.unique(counts):
        els = np.flatnonzero(counts == n_res)
        k = cache.offsets[els, None] + np.arange(n_res)
        Te, res = T[k], cache.res[k]
        Q = np.zeros((len(els), m, m))
        for pu, pv, K in parts:
            Q += (alpha1 * wu[els] ** pu * wv[els] ** pv)[:, None, None] * K
        if moments is not None:
            Q += (1.0 - alpha1) * moments[0][els][:, jj, ll]
        Ae = Te @ Q @ Te.transpose(0, 2, 1)
        rows.append(np.repeat(res, n_res, axis=1).ravel())
        cols.append(np.tile(res, n_res).ravel())
        vals.append(Ae.ravel())
    L = len(surface)
    A = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(L, L)).tocsc()
    if moments is None:
        return A, None
    nu = moments[1].reshape(-1, m)[cache.pair_element]
    b = np.bincount(cache.res, weights=np.einsum("km,km->k", T, nu), minlength=L)
    return A, (1.0 - alpha1) * b


def smoothing_matrix(surface: LRSurface, weights: SmoothingWeights = SmoothingWeights()
                     ) -> sparse.csr_matrix:
    """Symmetric positive semidefinite matrix S with J(F) = c^T S c.

    Exact per element: each element's block is its resident tensors
    contracted with the closed-form kernel of its size.
    """
    return _element_system(surface, weights, 1.0)[0].tocsr()


def idw_prior(points: np.ndarray):
    """Inverse-distance-weighted height interpolant over scattered data:
    each query averages its 8 nearest data points.  The search tree is
    built on the first query, so a prior that is never queried costs
    nothing."""
    from scipy.spatial import cKDTree

    pts = np.asarray(points, dtype=float)
    zs = pts[:, 2]
    kk = min(8, len(pts))

    @functools.cache
    def tree():
        return cKDTree(pts[:, :2])

    def prior(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        q = np.column_stack([x, y])
        dist, idx = tree().query(q, k=kk)
        if kk == 1:
            return zs[idx]
        w = 1.0 / np.maximum(dist, 1e-12)
        return (w * zs[idx]).sum(axis=1) / w.sum(axis=1)

    return prior


def ghost_points(surface: LRSurface, points: np.ndarray):
    """Anchor points for B-splines with data-starved supports.

    Any B-spline seeing fewer data points over its support than one
    element's (du + 1)(dv + 1) coefficients gets its covered element
    centers added as low-weight anchors, at the heights of ``idw_prior``
    over the data.  Returns (m, 3) array, possibly empty.
    """
    pts = np.asarray(points, dtype=float)
    eid = _locate(eval_cache(surface), pts[:, 0], pts[:, 1])
    return _ghosts(surface, pts, eid)


def _ghosts(surface: LRSurface, pts: np.ndarray, eid: np.ndarray, prior=None) -> np.ndarray:
    """``ghost_points`` for points located in elements ``eid``; ``prior`` gives heights."""
    du, dv = surface.degrees
    need = (du + 1) * (dv + 1)
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


def _power_rows(t: np.ndarray, d: int) -> np.ndarray:
    """Rows 1, t, ..., t^d of t, each contiguous, t^k by running product."""
    out = np.empty((d + 1, len(t)))
    out[0] = 1.0
    for k in range(1, d + 1):
        np.multiply(out[k - 1], t, out=out[k])
    return out


def _moments(surface: LRSurface, located, z: np.ndarray, ghosts: np.ndarray):
    """Per-element power moments of the data points and ghost anchors.

    mu[e, a, b] = sum w tu^a tv^b for a <= 2 du, b <= 2 dv, and
    nu[e, a, b] = sum w z tu^a tv^b for a <= du, b <= dv, over the points
    of element e in local coordinates, with w = 1 for a data point and
    ``GHOST_WEIGHT`` for a ghost.  Summed a block of ``_BLOCK`` points at
    a time from contiguous power rows, so the temporaries stay in cache.
    """
    du, dv = surface.degrees
    cache = eval_cache(surface)
    n_el = len(cache.bounds)
    mu = np.zeros((n_el, 2 * du + 1, 2 * dv + 1))
    nu = np.zeros((n_el, du + 1, dv + 1))
    g = _gather(cache, ghosts[:, 0], ghosts[:, 1])
    for (eid, tu, tv), zs, w in ((located[:3], z, 1.0),
                                 (g[:3], ghosts[:, 2], GHOST_WEIGHT)):
        for s in range(0, len(eid), _BLOCK):
            e, blk = eid[s:s + _BLOCK], slice(s, s + _BLOCK)
            pu = w * _power_rows(tu[blk], 2 * du)
            pv = _power_rows(tv[blk], 2 * dv)
            zu = zs[blk] * pu[:du + 1]
            prod = np.empty(len(e))
            for i in range(2 * du + 1):
                for k in range(2 * dv + 1):
                    np.multiply(pu[i], pv[k], out=prod)
                    mu[:, i, k] += np.bincount(e, weights=prod, minlength=n_el)
            for i in range(du + 1):
                for k in range(dv + 1):
                    np.multiply(zu[i], pv[k], out=prod)
                    nu[:, i, k] += np.bincount(e, weights=prod, minlength=n_el)
    return mu, nu


def _splu_solve(A, b: np.ndarray) -> np.ndarray:
    """Solve the symmetric positive definite system by sparse LU in
    symmetric mode: a fill-reducing order of A + A^T and diagonal pivots."""
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise RuntimeError(
            "normal equations are singular; the space has B-splines with "
            "empty data support and no smoothing reach") from exc
    return lu.solve(b)


def fit_least_squares(surface: LRSurface, points: np.ndarray,
                      alpha1: float = 1e-6, prior=None, located=None) -> dict:
    """Solve the penalized normal equations and update the coefficients.

    The normal equations are assembled per element from the points'
    power moments (``_moments``, ``_element_system``); no collocation
    matrix is built; the smoothing term has the default
    ``SmoothingWeights()``.  Direct sparse LU up to ``CG_THRESHOLD`` unknowns,
    Jacobi-preconditioned CG beyond (LU when CG does not converge).
    Ghost anchors at weight ``GHOST_WEIGHT`` keep the system nonsingular
    on elements the data does not reach.  ``located`` is
    ``evaluate._gather`` of these points on the current mesh, when the
    caller already has it.  Returns solver diagnostics.
    """
    pts = check_points(points)
    if located is None:
        located = _gather(eval_cache(surface), pts[:, 0], pts[:, 1])
    ghosts = _ghosts(surface, pts, located[0], prior)
    A, b = _element_system(surface, SmoothingWeights(), alpha1,
                           _moments(surface, located, pts[:, 2], ghosts))
    L = A.shape[0]
    info = {"n_ghosts": int(len(ghosts)), "n_unknowns": L}
    if L <= CG_THRESHOLD:
        c = _splu_solve(A, b)
        info["solver"] = "splu"
    else:
        d = A.diagonal()
        M = sparse.diags(np.where(d > 0, 1.0 / d, 1.0))
        c, cg_info = spla.cg(A, b, M=M, rtol=1e-12, atol=0.0, maxiter=2000,
                             x0=surface.coeffs)
        info["solver"] = f"cg({cg_info})"
        if cg_info != 0:
            c = _splu_solve(A, b)
            info["solver"] = "splu-after-cg"
    rel = np.linalg.norm(A @ c - b) / max(np.linalg.norm(b), 1e-300)
    info["relative_residual"] = float(rel)
    if not rel <= 1e-8:
        raise RuntimeError(f"normal equation solve failed: relative residual {rel:.2e}")
    # coefficient-only update: basis caches stay valid, no version bump
    surface.coeffs = np.asarray(c, dtype=float)
    return info
