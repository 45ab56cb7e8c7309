"""Independent reference evaluation of an LR B-spline surface.

Every B-spline is evaluated from its own local knot vectors by the
Cox–de Boor recursion, vectorised over (point, B-spline) pairs, and
weighted by its scaling factor and coefficient.  Nothing here uses the
library's element cache or its monomial tensors, so agreement with
``lrterrain.evaluate`` is evidence that both are right.

Candidate B-spline supports per point come from a uniform bucket grid over
the domain; a B-spline is registered in every bucket its support touches.
"""
from __future__ import annotations

import numpy as np

_CHUNK = 20_000  # points per batch, bounds the pair arrays' memory


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    np.divide(num, den, out=out, where=den > 0)
    return out


def bspline_values(knots: np.ndarray, t: np.ndarray, right_end: float) -> np.ndarray:
    """Univariate B-spline value per row: ``knots`` (P, d+2), ``t`` (P,).

    Degree-0 pieces are half-open [k_j, k_j+1), closed at the domain's
    right end so the surface is defined on its whole closed domain.
    """
    d = knots.shape[1] - 2
    tt = t[:, None]
    lo, hi = knots[:, :-1], knots[:, 1:]
    at_end = (tt == right_end) & (hi == right_end) & (lo < hi)
    n = ((lo <= tt) & (tt < hi) | at_end).astype(float)
    for p in range(1, d + 1):
        m = d + 1 - p
        left = _ratio(tt - knots[:, :m], knots[:, p:p + m] - knots[:, :m])
        right = _ratio(knots[:, p + 1:p + 1 + m] - tt,
                       knots[:, p + 1:p + 1 + m] - knots[:, 1:1 + m])
        n = left * n[:, :m] + right * n[:, 1:m + 1]
    return n[:, 0]


def _expand(starts: np.ndarray, counts: np.ndarray):
    """Owner index and starts[owner] + local offset for each expanded slot."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    local = np.arange(int(counts.sum())) - first[owner]
    return owner, starts[owner] + local


class ReferenceSurface:
    """Snapshot of a surface's B-splines, scalings and coefficients."""

    def __init__(self, surface):
        self.ku = np.array([b.ku for b in surface.bsplines], dtype=float)
        self.kv = np.array([b.kv for b in surface.bsplines], dtype=float)
        self.scaling = np.array([b.scaling for b in surface.bsplines], dtype=float)
        self.coeffs = np.array(surface.coeffs, dtype=float)
        self.domain = tuple(float(v) for v in surface.mesh.domain)
        n_bs = len(self.scaling)
        self.nb = int(np.clip(2 * np.sqrt(n_bs), 4, 512))
        i0, i1 = self._cell(0, self.ku[:, 0]), self._cell(0, self.ku[:, -1])
        j0, j1 = self._cell(1, self.kv[:, 0]), self._cell(1, self.kv[:, -1])
        ni, nj = i1 - i0 + 1, j1 - j0 + 1
        owner, k = _expand(np.zeros(n_bs, dtype=np.int64), ni * nj)
        cells = (i0[owner] + k // nj[owner]) * self.nb + j0[owner] + k % nj[owner]
        order = np.argsort(cells, kind="stable")
        self._members = owner[order]
        self._start = np.searchsorted(cells[order], np.arange(self.nb * self.nb + 1))

    def _cell(self, axis: int, t: np.ndarray) -> np.ndarray:
        lo, hi = self.domain[2 * axis], self.domain[2 * axis + 1]
        c = np.floor((np.asarray(t, dtype=float) - lo) / (hi - lo) * self.nb)
        return np.clip(c, 0, self.nb - 1).astype(np.int64)

    def _pairs(self, x: np.ndarray, y: np.ndarray):
        """(point index, B-spline index, scaled basis value) per candidate."""
        cell = self._cell(0, x) * self.nb + self._cell(1, y)
        pt, slot = _expand(self._start[cell], self._start[cell + 1] - self._start[cell])
        bs = self._members[slot]
        val = (self.scaling[bs]
               * bspline_values(self.ku[bs], x[pt], self.domain[1])
               * bspline_values(self.kv[bs], y[pt], self.domain[3]))
        return pt, bs, val

    def _accumulate(self, x, y, weights_of) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.empty(len(x))
        for a in range(0, len(x), _CHUNK):
            xs, ys = x[a:a + _CHUNK], y[a:a + _CHUNK]
            pt, bs, val = self._pairs(xs, ys)
            out[a:a + len(xs)] = np.bincount(pt, weights=val * weights_of(bs),
                                             minlength=len(xs))
        return out

    def unity(self, x, y) -> np.ndarray:
        """Sum of the scaled basis functions (1 on a valid surface)."""
        return self._accumulate(x, y, lambda bs: 1.0)

    def values(self, x, y) -> np.ndarray:
        return self._accumulate(x, y, lambda bs: self.coeffs[bs])
