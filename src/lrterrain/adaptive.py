"""Adaptive surface generation: fit, measure, refine, repeat.

Iteration 0 is a least-squares fit on a coarse tensor space.  Each later
iteration refines the B-splines whose supports hold out-of-tolerance
points, then runs one approximation pass: least squares while the space is
small and uniform, the local correction sweep once elements vary a lot in
size (or after ``n_ls`` iterations).  Terminates when no point is out of
tolerance, the iteration cap is reached, or refinement is frozen by the
minimal element width.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evaluate import basis_matrix, eval_cache, evaluate
from .least_squares import SmoothingWeights, fit_least_squares, idw_prior
from .mba import mba_update
from .mesh import LRSurface, Segment, insert_segments, make_tensor_surface

__all__ = ["FitConfig", "IterationReport", "fit", "refine_step"]


@dataclass(frozen=True)
class FitConfig:
    tolerance: float = 0.5
    max_iterations: int = 7
    degrees: tuple[int, int] = (2, 2)
    initial_grid: tuple[int, int] = (7, 7)
    n_ls: int = 3                    # LS passes before switching to local updates
    mba_switch_ratio: float = 16.0   # element area max/min that forces the switch
    aspect_threshold: float = 1.5    # support aspect below which both axes split
    min_width_fraction: float = 2.0 ** -14  # of domain extent, freezes refinement
    alpha1: float = 1e-6
    smoothing: SmoothingWeights = field(default_factory=SmoothingWeights)

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


@dataclass(frozen=True)
class IterationReport:
    iteration: int
    n_coefficients: int
    size_bytes: int
    max_dist: float
    avg_dist: float
    n_out: int

    def row(self) -> str:
        return (f"{self.iteration}\t{self.n_coefficients}\t{self.size_bytes}"
                f"\t{self.max_dist:.6g}\t{self.avg_dist:.6g}\t{self.n_out}")

    @staticmethod
    def header() -> str:
        return "iteration\tcoefficients\tsize_bytes\tmax_dist\tavg_dist\tout_of_tol"


def _finite(pts: np.ndarray, what: str = "points") -> np.ndarray:
    """Return ``pts``; raise ValueError when an x, y or z is not finite."""
    bad = ~np.isfinite(pts[:, :3]).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{what} must be finite; row {k} is {pts[k, :3].tolist()}")
    return pts


def _report(surface: LRSurface, fld: dict, i: int) -> IterationReport:
    from .formats import binary_size

    a = np.abs(fld["residual"])
    return IterationReport(
        iteration=i,
        n_coefficients=len(surface.bsplines),
        size_bytes=binary_size(surface),
        max_dist=float(a.max()) if len(a) else 0.0,
        avg_dist=float(a.mean()) if len(a) else 0.0,
        n_out=int(fld["n_out"]),
    )


def refine_step(surface: LRSurface, fld: dict, config: FitConfig) -> dict:
    """Insert knot segments over the supports holding out-of-tol points.

    Split direction: the longer support axis, both when the aspect ratio is
    below the threshold.  The split lands at the midpoint of the central
    knot span; candidates narrower than the width floor are frozen out.
    Returns counts {inserted, frozen}.
    """
    tau = config.tolerance
    cache = eval_cache(surface)
    bad = np.zeros(len(cache.bounds), dtype=bool)
    bad[fld["element_id"][np.abs(fld["residual"]) > tau]] = True
    if not bad.any():
        return {"inserted": 0, "frozen": 0}
    marked = np.unique(cache.res[bad[cache.pair_element]]).tolist()
    min_w = [config.min_width_fraction * surface.mesh.extent(0),
             config.min_width_fraction * surface.mesh.extent(1)]
    seen: set[tuple] = set()
    segs: list[Segment] = []
    frozen = 0
    for i in marked:
        b = surface.bsplines[i]
        du_len = b.ku[-1] - b.ku[0]
        dv_len = b.kv[-1] - b.kv[0]
        lo_len, hi_len = sorted((du_len, dv_len))
        if hi_len / lo_len < config.aspect_threshold:
            axes = (0, 1)
        else:
            axes = (0,) if du_len > dv_len else (1,)
        for axis in axes:
            kn = b.knots[axis]
            spans = [(kn[j], kn[j + 1]) for j in range(len(kn) - 1)
                     if kn[j + 1] > kn[j]]
            # central span, falling back to the widest when the middle one
            # is much narrower (keeps splits meaningful near clamped ends)
            lo, hi = spans[(len(spans) - 1) // 2]
            wlo, whi = max(spans, key=lambda s: s[1] - s[0])
            if (hi - lo) < 0.25 * (whi - wlo):
                lo, hi = wlo, whi
            if 0.5 * (hi - lo) < min_w[axis]:
                frozen += 1
                continue
            other = b.knots[1 - axis]
            key = (axis, 0.5 * (lo + hi), other[0], other[-1])
            if key in seen:
                continue
            seen.add(key)
            segs.append(Segment(axis, 0.5 * (lo + hi), other[0], other[-1]))
    if segs:
        insert_segments(surface, segs)
    return {"inserted": len(segs), "frozen": frozen}


def _field(surface: LRSurface, pts: np.ndarray, tau: float, basis) -> dict:
    """Residuals z - B c of the points and their element ids, from their
    basis matrix on the current mesh (the ``distance_field`` of the fit)."""
    B, eid = basis
    r = pts[:, 2] - B @ surface.coeffs
    return {"residual": r, "element_id": eid, "n_out": int((np.abs(r) > tau).sum())}


def _area_ratio(surface: LRSurface) -> float:
    b = eval_cache(surface).bounds
    areas = (b[:, 1] - b[:, 0]) * (b[:, 3] - b[:, 2])
    return float(areas.max() / areas.min())


def _approximate(surface: LRSurface, pts: np.ndarray, config: FitConfig,
                 iteration: int, residuals: np.ndarray | None = None):
    """One approximation pass: least squares while the space is small and
    uniform, else one correction sweep (residuals z - B c when omitted).
    Returns the points' basis matrix on the current mesh, (B, element id),
    which the pass used."""
    basis = basis_matrix(surface, pts[:, 0], pts[:, 1])
    if (iteration <= config.n_ls
            and _area_ratio(surface) <= config.mba_switch_ratio):
        fit_least_squares(surface, pts, alpha1=config.alpha1,
                          weights=config.smoothing,
                          prior=lambda x, y: evaluate(surface, x, y), basis=basis)
    else:
        if residuals is None:
            residuals = pts[:, 2] - basis[0] @ surface.coeffs
        mba_update(surface, pts, residuals=residuals, tau=config.tolerance,
                   basis=basis)
    return basis


def fit(points: np.ndarray, config: FitConfig = FitConfig(),
        domain: tuple[float, float, float, float] | None = None,
        start: LRSurface | None = None, first_iteration: int = 0):
    """Run the adaptive loop.

    Returns (surface, reports, flags); flags has ``converged`` (no point
    out of tolerance), ``frozen`` (refinement hit the width floor while
    points were still out), and ``iterations`` actually run.

    ``start`` resumes from a copy of an existing surface instead of a fresh
    tensor grid: its space is kept, coefficients are re-approximated against
    ``points``, and iteration counting begins at ``first_iteration`` (so the
    cap stays ``max_iterations`` in total across both runs).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 3 or len(pts) == 0:
        raise ValueError("points must be a nonempty (n, 3) array")
    _finite(pts)
    if start is not None:
        domain = start.mesh.domain
    xmin, xmax = pts[:, 0].min(), pts[:, 0].max()
    ymin, ymax = pts[:, 1].min(), pts[:, 1].max()
    if domain is None:
        if xmax - xmin <= 0 or ymax - ymin <= 0:
            raise ValueError("points are collinear in the xy-plane; "
                             "surface domain is degenerate")
        domain = (xmin, xmax, ymin, ymax)
    else:
        inside = ((pts[:, 0] >= domain[0]) & (pts[:, 0] <= domain[1])
                  & (pts[:, 1] >= domain[2]) & (pts[:, 1] <= domain[3]))
        pts = pts[inside]
        if len(pts) == 0:
            raise ValueError("no points inside the given domain")
    du, dv = config.degrees
    if len(pts) < (du + 1) * (dv + 1):
        import warnings

        warnings.warn("fewer points than one patch's coefficients; "
                      "fit is smoothing-dominated", stacklevel=2)
    tau = config.tolerance
    if start is None:
        surface = make_tensor_surface(domain, config.degrees, config.initial_grid)
        basis = basis_matrix(surface, pts[:, 0], pts[:, 1])
        fit_least_squares(surface, pts, alpha1=config.alpha1,
                          weights=config.smoothing, prior=idw_prior(pts),
                          basis=basis)
    else:
        surface = start.copy()
        basis = _approximate(surface, pts, config, first_iteration)
    fld = _field(surface, pts, tau, basis)
    # one basis matrix per mesh version: refinement needs only the field
    del basis
    reports = [_report(surface, fld, first_iteration)]
    flags = {"converged": fld["n_out"] == 0, "frozen": False,
             "iterations": first_iteration}
    for it in range(first_iteration + 1, config.max_iterations + 1):
        if fld["n_out"] == 0:
            break
        counts = refine_step(surface, fld, config)
        if counts["inserted"] == 0:
            flags["frozen"] = counts["frozen"] > 0
            break
        # residuals stay valid across refinement (geometry-preserving)
        fld = _field(surface, pts, tau,
                     _approximate(surface, pts, config, it, fld["residual"]))
        reports.append(_report(surface, fld, it))
        flags["iterations"] = it
        flags["converged"] = fld["n_out"] == 0
    return surface, reports, flags
