"""Adaptive surface generation: fit, measure, refine, repeat.

Iteration 0 is a least-squares fit on a coarse tensor space.  Each later
iteration refines the B-splines whose supports hold out-of-tolerance
points, then runs one approximation pass: least squares while the space is
small and uniform, the local correction sweep once the largest element
area exceeds ``MBA_SWITCH_RATIO`` times the smallest (or after ``n_ls``
iterations).  Terminates when no point is out of tolerance, the iteration
cap is reached, or refinement is frozen by the minimal element width.
"""
from __future__ import annotations

import warnings
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .evaluate import _evaluate_at, _gather, bbox, check_points, eval_cache, evaluate, in_rect
from .formats import binary_size
from .least_squares import fit_least_squares, idw_prior
from .mba import mba_update
from .mesh import LRSurface, insert_segments, make_tensor_surface

__all__ = ["FitConfig", "IterationReport", "fit", "refine_step"]

MBA_SWITCH_RATIO = 16.0  # element area max/min that forces the local sweep
ASPECT_THRESHOLD = 1.5   # support aspect below which both axes split

# The relay of ``deconflict_fit``: a dict it sets around the ``fit`` and
# ``deconflict`` calls it makes, so that each field is computed once while
# those calls keep their signatures (and a traced run still sees each of
# them as one call).  Under it ``fit`` takes its first pass's residuals
# from "residuals" (z - F of its points against ``start``) and leaves the
# field it ends with as "field"; ``deconflict`` reads its fields from that
# field and leaves the residuals of the points it keeps as "residuals".
_RELAY: ContextVar[dict | None] = ContextVar("_RELAY", default=None)


@dataclass(frozen=True)
class FitConfig:
    tolerance: float = 0.5
    max_iterations: int = 7
    degrees: tuple[int, int] = (2, 2)
    initial_grid: tuple[int, int] = (7, 7)
    n_ls: int = 3                    # LS passes before switching to local updates
    min_width_fraction: float = 2.0 ** -14  # of domain extent, freezes refinement
    alpha1: float = 1e-6

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if min(self.degrees) < 0:
            raise ValueError(f"degrees must be >= 0; got {list(self.degrees)}")
        # the smoothing weight of alpha1 J + (1 - alpha1) SSR
        if not 0 <= self.alpha1 < 1:
            raise ValueError(f"alpha1 must be in [0, 1); got {self.alpha1}")


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


def _report(surface: LRSurface, fld: dict, i: int) -> IterationReport:
    a = np.abs(fld["residual"])
    return IterationReport(
        iteration=i,
        n_coefficients=len(surface),
        size_bytes=binary_size(surface),
        max_dist=float(a.max()) if len(a) else 0.0,
        avg_dist=float(a.mean()) if len(a) else 0.0,
        n_out=int(fld["n_out"]),
    )


def refine_step(surface: LRSurface, fld: dict, config: FitConfig) -> dict:
    """Insert knot segments over the supports holding out-of-tol points.

    Split direction: the longer support axis, both when the aspect ratio is
    below ``ASPECT_THRESHOLD``.  The split lands at the midpoint of the
    central knot span; candidates narrower than the width floor are frozen
    out.
    Returns counts {inserted, frozen}.
    """
    tau = config.tolerance
    cache = eval_cache(surface)
    bad = np.zeros(len(cache.bounds), dtype=bool)
    bad[fld["element_id"][np.abs(fld["residual"]) > tau]] = True
    if not bad.any():
        return {"inserted": 0, "frozen": 0}
    marked = np.unique(cache.res[bad[cache.pair_element]])
    ku, kv = surface.axis_knots(0)[marked], surface.axis_knots(1)[marked]
    du_len, dv_len = ku[:, -1] - ku[:, 0], kv[:, -1] - kv[:, 0]
    both = np.maximum(du_len, dv_len) / np.minimum(du_len, dv_len) < ASPECT_THRESHOLD
    # one column per axis: whether to split there, and the span to split
    use = np.column_stack([both | (du_len > dv_len), both | ~(du_len > dv_len)])
    lo, hi = (np.column_stack(ends) for ends in zip(_split_span(ku), _split_span(kv)))
    min_w = config.min_width_fraction * np.array([surface.mesh.extent(0),
                                                  surface.mesh.extent(1)])
    frozen = use & (0.5 * (hi - lo) < min_w)
    # (axis, pos, lo, hi, mult) rows by marked B-spline, then axis; first of equal ones
    segs = np.stack([np.broadcast_to([0.0, 1.0], use.shape), 0.5 * (lo + hi),
                     np.column_stack([kv[:, 0], ku[:, 0]]),
                     np.column_stack([kv[:, -1], ku[:, -1]]), np.ones(use.shape)],
                    axis=-1)[use & ~frozen]
    segs = segs[np.sort(np.unique(segs, axis=0, return_index=True)[1])]
    if len(segs):
        insert_segments(surface, segs)
    return {"inserted": len(segs), "frozen": int(frozen.sum())}


def _split_span(kn: np.ndarray):
    """Per knot row, the (lo, hi) ends of the span to split: the central
    nonempty span, or the widest when the central one is narrower than a
    quarter of it (keeps splits meaningful near clamped ends)."""
    w = np.diff(kn, axis=1)
    nonempty = w > 0
    half = (nonempty.sum(axis=1) - 1) // 2
    central = np.argmax(np.cumsum(nonempty, axis=1) > half[:, None], axis=1)
    widest = np.argmax(w, axis=1)
    r = np.arange(len(kn))
    j = np.where(w[r, central] < 0.25 * w[r, widest], widest, central)
    return kn[r, j], kn[r, j + 1]


def _area_ratio(surface: LRSurface) -> float:
    b = eval_cache(surface).bounds
    areas = (b[:, 1] - b[:, 0]) * (b[:, 3] - b[:, 2])
    return float(areas.max() / areas.min())


def _approximate(surface: LRSurface, pts: np.ndarray, config: FitConfig,
                 iteration: int, residuals: np.ndarray | None = None,
                 prior=None) -> dict:
    """One approximation pass and the field it leaves: residuals z - F,
    element ids and the count out of tolerance (the ``distance_field`` of
    the fit).  The points are located once, and the pass and the field
    share that gather.

    A ghost ``prior`` marks a fresh surface's first pass: least squares.
    Any other pass is least squares while the space is small and uniform,
    else one correction sweep (residuals z - F when omitted)."""
    cache = eval_cache(surface)
    located = _gather(cache, pts[:, 0], pts[:, 1])

    def misfit() -> np.ndarray:
        return pts[:, 2] - _evaluate_at(cache, surface.coeffs, *located, 0)[:, 0]

    if prior is not None or (iteration <= config.n_ls
                             and _area_ratio(surface) <= MBA_SWITCH_RATIO):
        fit_least_squares(surface, pts, alpha1=config.alpha1,
                          prior=prior or (lambda x, y: evaluate(surface, x, y)),
                          located=located)
    else:
        mba_update(surface, pts, residuals=misfit() if residuals is None else residuals,
                   tau=config.tolerance, located=located)
    r = misfit()
    return {"residual": r, "element_id": located[0],
            "n_out": int((np.abs(r) > config.tolerance).sum())}


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
    relay = _RELAY.get()
    if relay is None:
        return _fit(points, config, domain, start, first_iteration)[:3]
    surface, reports, flags, relay["field"] = _fit(
        points, config, domain, start, first_iteration, relay.pop("residuals", None))
    return surface, reports, flags


def _fit(points: np.ndarray, config: FitConfig,
         domain: tuple[float, float, float, float] | None = None,
         start: LRSurface | None = None, first_iteration: int = 0,
         residuals: np.ndarray | None = None):
    """``fit``, returning also the field the loop ends with: residual
    z - F, element id and count out of tolerance of the points it fitted,
    which are ``points`` (inside ``domain``, when given) in their order.

    ``residuals``, with ``start``, are z - F of ``points`` against
    ``start``; the first pass uses them where it would compute them.
    """
    pts = check_points(points)
    if start is not None:
        domain = start.mesh.domain
    if domain is None:
        domain = bbox(pts)
        if domain[1] - domain[0] <= 0 or domain[3] - domain[2] <= 0:
            raise ValueError("points are collinear in the xy-plane; "
                             "surface domain is degenerate")
    else:
        inside = in_rect(pts, domain)
        pts = pts[inside]
        if residuals is not None:
            residuals = residuals[inside]
        if len(pts) == 0:
            raise ValueError("no points inside the given domain")
    du, dv = config.degrees
    if len(pts) < (du + 1) * (dv + 1):
        warnings.warn("fewer points than one patch's coefficients; "
                      "fit is smoothing-dominated", stacklevel=2)
    if start is None:
        surface = make_tensor_surface(domain, config.degrees, config.initial_grid)
        fld = _approximate(surface, pts, config, first_iteration, prior=idw_prior(pts))
    else:
        surface = start.copy()
        fld = _approximate(surface, pts, config, first_iteration, residuals)
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
        fld = _approximate(surface, pts, config, it, fld["residual"])
        reports.append(_report(surface, fld, it))
        flags["iterations"] = it
        flags["converged"] = fld["n_out"] == 0
    return surface, reports, flags, fld
