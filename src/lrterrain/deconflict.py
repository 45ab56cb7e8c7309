"""Cross-survey consistency testing and point removal.

Overlapping surveys are compared pairwise per element of a rough reference
surface, in descending priority order.  A candidate sample is judged
against each already-accepted sample through residual statistics relative
to the reference; a rejected candidate loses its points inside the tested
region and the accepted survey's footprint, at the finest sub-domain
granularity the test reached, never whole surveys.

The thresholds are fixed choices of the method, lengths in units of the
tolerance tau (``DeconflictConfig.tolerance``):

- Overlapping samples (``element_consistency``) are consistent when four
  criteria hold: the means differ by at most ``MEAN_FACTOR`` tau; the
  candidate's residual range lies inside the accepted one widened by
  ``RANGE_FACTOR`` tau; at least ``WITHIN_FRACTION`` of the candidate's
  residuals lie inside the accepted range widened by ``WITHIN_FACTOR`` tau;
  the std of the union is at most ``STD_GROWTH`` times the larger std.
  Either verdict becomes indeterminate when a sample's std has an upper
  ``STD_CONFIDENCE`` bound above ``LARGE_STD_FACTOR`` tau; a failure also
  does when the boxes overlap by less than ``SMALL_OVERLAP`` of the larger
  box, or when a sample has fewer than ``MIN_DECIDE`` points.
- Disjoint samples (``_disjoint_verdict``) are kept when their gap is at
  least ``KEEP_GAP_FACTOR`` times the element diagonal; nearer ones must
  agree within tau at their ``NEIGHBOR_PAIRS`` closest cross pairs, plus
  the reference's slope times the pair distance, capped at ``SLOPE_CAP``
  tau.
- An indeterminate pair is tested again on sub-domains (``_sub_rects``),
  at most ``MAX_DEPTH`` levels deep.
- Surveys whose scores differ by at most ``EQUAL_SCORE_EPS`` and whose
  boxes overlap by at most ``TINY_OVERLAP`` of the larger box are parts of
  one split survey and are both kept (``deconflict``).

The t-statistic and its two-sided confidence limit at significance
``ALPHA`` are computed and reported but do not decide on their own: with
dense, low-noise samples the test statistic grows without bound even when
the practical disagreement is millimeters, so threshold-relative criteria
carry the verdict and the t-value serves as an advisory signal.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .adaptive import FitConfig, fit
from .evaluate import bbox, check_points, distance_field, eval_cache, evaluate, in_rect
from .mesh import LRSurface

__all__ = [
    "Survey",
    "SampleStats",
    "DeconflictConfig",
    "students_t_quantile",
    "two_sample_t",
    "combined_std",
    "element_consistency",
    "pairwise_element_test",
    "deconflict",
    "default_scores",
    "CONSISTENT",
    "NOT_CONSISTENT",
    "INDETERMINATE",
]

CONSISTENT = "consistent"
NOT_CONSISTENT = "not-consistent"
INDETERMINATE = "indeterminate"

ALPHA = 0.05             # significance of the advisory t-test
MEAN_FACTOR = 1.0        # criterion 1: |mean difference| <= tau * this
RANGE_FACTOR = 0.5       # criterion 2: candidate range within hi range +- tau * this
WITHIN_FACTOR = 0.25     # criterion 3: margin of the widened accepted range
WITHIN_FRACTION = 0.9    # criterion 3: required fraction inside it
STD_GROWTH = 1.25        # criterion 4: combined std <= max individual std * this
STD_CONFIDENCE = 0.95    # confidence of the upper bound on a sample's std
LARGE_STD_FACTOR = 0.5   # that bound above tau * this flags the sample
SMALL_OVERLAP = 0.2      # overlap / larger box below this can't reject
MIN_DECIDE = 10          # overlapping samples below this size can't reject
KEEP_GAP_FACTOR = 0.5    # disjoint cluster gap (vs region diagonal) that keeps
NEIGHBOR_PAIRS = 5       # nearest cross pairs compared when disjoint
SLOPE_CAP = 1.0          # cap on the slope allowance, in tolerances
MAX_DEPTH = 3            # sub-domain recursion levels
EQUAL_SCORE_EPS = 1e-6   # split survey: scores this close ...
TINY_OVERLAP = 0.05      # ... and boxes overlapping at most this share


@dataclass
class Survey:
    """A point cloud with priority metadata."""

    points: np.ndarray
    name: str = ""
    score: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] < 3:
            raise ValueError(f"survey {self.name!r}: points must be (n, 3)")


@dataclass(frozen=True)
class SampleStats:
    """Residual statistics of one survey restricted to one region."""

    n: int
    mean: float
    std: float | None          # None when n < 2
    lo: float
    hi: float
    bbox: tuple[float, float, float, float]  # xmin, xmax, ymin, ymax

    @classmethod
    def from_data(cls, xy: np.ndarray, residuals: np.ndarray) -> "SampleStats":
        r = np.asarray(residuals, dtype=float)
        if len(r) == 0:
            raise ValueError("empty sample")
        std = float(np.std(r, ddof=1)) if len(r) >= 2 else None
        return cls(n=len(r), mean=float(r.mean()), std=std,
                   lo=float(r.min()), hi=float(r.max()),
                   bbox=bbox(np.asarray(xy, dtype=float)))

    @property
    def size(self) -> float:
        return _area(self.bbox)


def combined_std(a: SampleStats, b: SampleStats) -> float | None:
    """Sample standard deviation of the union, from summary statistics."""
    n = a.n + b.n
    if n < 2:
        return None
    mean = (a.n * a.mean + b.n * b.mean) / n
    m2 = 0.0
    for s in (a, b):
        if s.std is not None:
            m2 += (s.n - 1) * s.std ** 2
        m2 += s.n * (s.mean - mean) ** 2
    return math.sqrt(m2 / (n - 1))


def students_t_quantile(alpha: float, df: float) -> float:
    """Two-sided upper quantile: P(|T| > q) = alpha for T ~ t(df).

    df = inf gives the normal quantile (1.95996 at alpha = 0.05).  Calls
    the special functions behind ``scipy.stats`` ``t.ppf`` and ``norm.ppf``
    directly, which gives the same floats without the per-call overhead of
    the distribution objects.
    """
    from scipy import special

    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if math.isinf(df):
        return float(special.ndtri(1 - alpha / 2))
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    return float(special.stdtrit(df, 1 - alpha / 2))


def two_sample_t(a: SampleStats, b: SampleStats) -> dict:
    """T statistic with both degree-of-freedom conventions.

    ``df_pooled`` assumes equal variances (N1 + N2 - 1); ``df_welch`` is
    the unequal-variance approximation.  Requires both stds defined.
    """
    if a.std is None or b.std is None:
        raise ValueError("two-sample test needs at least 2 points per sample")
    va = a.std ** 2 / a.n
    vb = b.std ** 2 / b.n
    denom = math.sqrt(va + vb)
    t = (a.mean - b.mean) / denom if denom > 0 else math.inf
    df_pooled = a.n + b.n - 1
    if va + vb > 0 and a.n > 1 and b.n > 1:
        df_welch = (va + vb) ** 2 / (va ** 2 / (a.n - 1) + vb ** 2 / (b.n - 1))
    else:
        df_welch = float(df_pooled)
    return {"t": t, "df_pooled": df_pooled, "df_welch": df_welch}


@dataclass(frozen=True)
class DeconflictConfig:
    """The tolerance every threshold is scaled by, and the iteration split
    of ``deconflict_fit``: the reference surface stops at
    ``reference_level``, the final one at ``total_iterations`` in all."""

    tolerance: float = 0.5
    reference_level: int = 3
    total_iterations: int = 7

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.reference_level < 0:
            raise ValueError(f"reference_level must be >= 0; got {self.reference_level}")
        if self.total_iterations < self.reference_level:
            raise ValueError(
                f"total_iterations must be >= reference_level; got "
                f"total_iterations {self.total_iterations} < reference_level "
                f"{self.reference_level}")


def _area(rect) -> float:
    return (rect[1] - rect[0]) * (rect[3] - rect[2])


def _bbox_overlap(a: tuple, b: tuple) -> float:
    r = _rect_intersect(a, b)
    return max(r[1] - r[0], 0.0) * max(r[3] - r[2], 0.0)


def _std_upper(s: float, n: int) -> float:
    """Upper ``STD_CONFIDENCE`` bound of a standard deviation estimate.

    ``2 * gammaincinv(df / 2, p)`` is the chi-square quantile, as computed
    by ``scipy.stats.chi2.ppf``.
    """
    from scipy import special

    if n < 2:
        return s
    return s * math.sqrt((n - 1) / (2 * special.gammaincinv((n - 1) / 2, 1 - STD_CONFIDENCE)))


def _nearest_cross_pairs(hi_xy, hi_r, cand_xy, cand_r):
    """The ``NEIGHBOR_PAIRS`` closest cross pairs, nearest first: each
    candidate point with its nearest accepted point, as the arrays
    (distance, r_hi, r_cand, midpoint)."""
    from scipy.spatial import cKDTree

    dist, idx = cKDTree(hi_xy).query(cand_xy, k=1)
    j = np.argsort(dist, kind="stable")[:NEIGHBOR_PAIRS]
    i = idx[j]
    return dist[j], hi_r[i], cand_r[j], 0.5 * (hi_xy[i] + cand_xy[j])


def _disjoint_verdict(hi, cand, tau: float, region_diag: float,
                      data=None, reference=None) -> tuple[str, dict]:
    """Consistency of two samples whose planform domains do not overlap.

    Far-apart clusters are kept: there is room for the surface to follow
    both.  Near clusters must agree where they face each other; with point
    data the closest cross-survey pairs are compared with a slope
    allowance, otherwise the mean difference decides.
    """
    if data is None:
        ok = abs(hi.mean - cand.mean) <= tau * MEAN_FACTOR
        return (CONSISTENT if ok else NOT_CONSISTENT), {"rule": "disjoint-stats"}
    dist, r_hi, r_cand, mid = _nearest_cross_pairs(*data)
    gap = float(dist[0])
    if gap >= KEEP_GAP_FACTOR * region_diag:
        return CONSISTENT, {"rule": "disjoint-far", "gap": gap}
    allow = tau
    if reference is not None:
        # slope allowance for steep terrain between the clusters, capped:
        # a conflict-corrupted reference has artifact gradients that must
        # not excuse arbitrary level gaps
        g = evaluate(reference, mid[:, 0], mid[:, 1], order=1)
        allow = tau + np.minimum(np.hypot(g[:, 1], g[:, 2]) * dist, SLOPE_CAP * tau)
    bad = int((np.abs(r_hi - r_cand) > allow).sum())
    return ((CONSISTENT if bad == 0 else NOT_CONSISTENT),
            {"rule": "disjoint-near", "gap": gap, "bad_pairs": bad})


def element_consistency(hi: SampleStats, cand: SampleStats,
                        config: DeconflictConfig, *,
                        overlap_area: float | None = None,
                        combined: float | None = None,
                        data=None, reference=None,
                        gap_scale: float | None = None) -> tuple[str, dict]:
    """Verdict for one candidate sample against one accepted sample.

    ``overlap_area`` and ``combined`` (std of the union) are derived from
    the inputs when omitted.  ``data`` optionally carries the underlying
    (hi_xy, hi_residuals, cand_xy, cand_residuals) arrays, enabling the
    exact residual-coverage count and the nearest-point rules; without it
    normal-model fallbacks are used.  ``gap_scale``, which a call with
    ``data`` must give, is the length against which a between-clusters gap
    counts as room for the surface to follow both levels; it stays at the
    element scale when testing sub-domains.
    """
    if data is not None and gap_scale is None:
        raise ValueError("element_consistency with point data needs gap_scale")
    tau = config.tolerance
    if overlap_area is None:
        overlap_area = _bbox_overlap(hi.bbox, cand.bbox)
    big = max(hi.size, cand.size)
    overlap_ratio = overlap_area / big if big > 0 else 0.0

    detail: dict = {"overlap_area": overlap_area, "overlap_ratio": overlap_ratio}
    if hi.std is not None and cand.std is not None:
        tt = two_sample_t(hi, cand)
        detail["t"] = tt["t"]
        detail["t_limit"] = students_t_quantile(ALPHA, tt["df_welch"])
        detail["df_welch"] = tt["df_welch"]
        detail["df_pooled"] = tt["df_pooled"]

    disjoint = overlap_area <= 0.0
    if disjoint:
        verdict, d2 = _disjoint_verdict(hi, cand, tau, gap_scale,
                                        data=data, reference=reference)
        detail.update(d2)
        return verdict, detail

    # criterion 1: means close relative to the tolerance
    c1 = abs(hi.mean - cand.mean) <= tau * MEAN_FACTOR
    # criterion 2: candidate range inside the accepted range, widened
    m2 = tau * RANGE_FACTOR
    c2 = (cand.lo >= hi.lo - m2) and (cand.hi <= hi.hi + m2)
    # criterion 3: most candidate residuals inside the accepted range
    m3 = tau * WITHIN_FACTOR
    if data is not None:
        _, _, _, cand_r = data
        frac = float(((cand_r >= hi.lo - m3) & (cand_r <= hi.hi + m3)).mean())
    elif cand.std is not None and cand.std > 0:
        from scipy import special  # ndtr: the normal CDF of scipy.stats

        frac = float(special.ndtr((hi.hi + m3 - cand.mean) / cand.std)
                     - special.ndtr((hi.lo - m3 - cand.mean) / cand.std))
    else:
        frac = 1.0 if (hi.lo - m3 <= cand.mean <= hi.hi + m3) else 0.0
    c3 = frac >= WITHIN_FRACTION
    # criterion 4: pooling does not blow up the spread
    if combined is None:
        combined = combined_std(hi, cand)
    stds = [s for s in (hi.std, cand.std) if s is not None]
    c4 = True
    if combined is not None and stds:
        c4 = combined <= STD_GROWTH * max(stds)
    # spread flag on an upper confidence bound, so a lucky low estimate
    # from a small sample cannot unlock a rejection
    large_std = any(
        _std_upper(s, n) > LARGE_STD_FACTOR * tau
        for s, n in ((hi.std, hi.n), (cand.std, cand.n)) if s is not None)
    detail.update({"criteria": (c1, c2, c3, c4), "within_fraction": frac,
                   "combined_std": combined, "large_std": large_std})

    if c1 and c2 and c3 and c4:
        return (INDETERMINATE if large_std else CONSISTENT), detail
    if large_std or overlap_ratio < SMALL_OVERLAP:
        return INDETERMINATE, detail
    if min(hi.n, cand.n) < MIN_DECIDE:
        # too little evidence for an overlap rejection; range and spread
        # estimates at this sample size are mostly noise
        return INDETERMINATE, detail
    return NOT_CONSISTENT, detail


# -- sub-domain recursion on point data ---------------------------------


def _rect_intersect(a, b):
    return (max(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), min(a[3], b[3]))


def _sub_rects(hi_stats: SampleStats, cand_stats: SampleStats,
               cand_xy: np.ndarray, hi_xy: np.ndarray, rect) -> list:
    """Sub-domains (xmin, xmax, ymin, ymax) for a closer look at an
    indeterminate pair."""
    R = _rect_intersect(hi_stats.bbox, cand_stats.bbox)
    if cand_stats.n <= 3:
        # neighborhood of each candidate point, sized by the local spacing
        # of the accepted survey
        from scipy.spatial import cKDTree

        d, _ = cKDTree(hi_xy).query(cand_xy, k=min(4, len(hi_xy)))
        h = 2.0 * d.reshape(len(cand_xy), -1).max(axis=1)
        x, y = cand_xy[:, 0], cand_xy[:, 1]
        return list(np.column_stack([x - h, x + h, y - h, y + h]))
    area_r = _bbox_overlap(hi_stats.bbox, cand_stats.bbox)
    if area_r <= 0:
        return []
    if area_r < 0.8 * min(hi_stats.size, cand_stats.size):
        # the true overlap is a minor part of either domain: test it alone,
        # everything outside faces no accepted points and is kept
        return [R]
    if min(hi_stats.n, cand_stats.n) < 2 * MIN_DECIDE:
        # quartering would drop below the decidable sample size
        return []
    # quarter the full region under test, not the bbox intersection, so no
    # candidate point escapes examination through bbox jitter at the edges
    xm = 0.5 * (rect[0] + rect[1])
    ym = 0.5 * (rect[2] + rect[3])
    return [(rect[0], xm, rect[2], ym), (xm, rect[1], rect[2], ym),
            (rect[0], xm, ym, rect[3]), (xm, rect[1], ym, rect[3])]


def pairwise_element_test(hi_xy, hi_r, cand_xy, cand_r,
                          cfg: DeconflictConfig, rect, hi_cover,
                          reference=None, depth: int = 0, gap_scale=None):
    """Full point-level test of one candidate sample against one accepted.

    ``rect`` is the region under test (the element at the top level, the
    sub-domain inside the recursion) and ``hi_cover`` the accepted survey's
    full planform footprint; a negative verdict removes the candidate's
    points inside both, so removal never reaches beyond the accepted data.

    Returns (verdict, keep, pending, detail).  ``keep`` is False where the
    candidate is decidedly removed.  ``pending`` marks points in pockets
    the recursion could not decide before the depth or sample-size floor;
    they stay True in ``keep`` and the caller resolves them from
    cross-element context.  Verdict INDETERMINATE means pending points
    exist; any decided sub-domain removals are in ``keep`` regardless.
    """
    hi_stats = SampleStats.from_data(hi_xy, hi_r)
    cand_stats = SampleStats.from_data(cand_xy, cand_r)
    if gap_scale is None:
        gap_scale = math.hypot(rect[1] - rect[0], rect[3] - rect[2])
    verdict, detail = element_consistency(
        hi_stats, cand_stats, cfg,
        data=(hi_xy, hi_r, cand_xy, cand_r), reference=reference,
        gap_scale=gap_scale)
    keep = np.ones(len(cand_xy), dtype=bool)
    pending = np.zeros(len(cand_xy), dtype=bool)
    if verdict == CONSISTENT:
        return verdict, keep, pending, detail
    if verdict == NOT_CONSISTENT:
        # clear the candidate from where the accepted survey has data;
        # beyond the accepted extent there is no conflict to act on
        keep = ~in_rect(cand_xy, _rect_intersect(rect, hi_cover))
        return verdict, keep, pending, detail
    rects = (_sub_rects(hi_stats, cand_stats, cand_xy, hi_xy, rect)
             if depth < MAX_DEPTH else [])
    if not rects:
        return INDETERMINATE, keep, np.ones(len(cand_xy), dtype=bool), detail
    examined = np.zeros(len(cand_xy), dtype=bool)
    for sub in rects:
        ci = in_rect(cand_xy, sub)
        fresh = ci & ~examined
        if not fresh.any():
            continue
        examined |= fresh
        hi_in = in_rect(hi_xy, sub)
        if not hi_in.any():
            # no accepted data here: acceptance by absence of conflict
            continue
        _, sub_keep, sub_pend, _ = pairwise_element_test(
            hi_xy[hi_in], hi_r[hi_in], cand_xy[fresh], cand_r[fresh],
            cfg, sub, hi_cover, reference=reference, depth=depth + 1,
            gap_scale=gap_scale)
        idx = np.nonzero(fresh)[0]
        keep[idx[~sub_keep]] = False
        pending[idx[sub_pend]] = True
    # candidate points outside every sub-domain face no overlap: kept
    if pending.any():
        verdict = INDETERMINATE
    elif not keep.all():
        verdict = NOT_CONSISTENT
    else:
        verdict = CONSISTENT
    detail["subdivided"] = True
    return verdict, keep, pending, detail


# -- survey scores -------------------------------------------------------

_METHOD_RANK = {"mbes": 1.0, "lidar": 0.8, "sbes": 0.6, "chart": 0.3,
                "unknown": 0.5}


def default_scores(surveys: list[Survey]) -> list[float]:
    """Priority scores from metadata: recency, density, acquisition method.

    Surveys with an explicit score keep it.  Components are min-max
    normalized across the surveys; missing metadata contributes a neutral
    0.5.  Weights: recency 0.5, density 0.3, method 0.2.
    """

    def year_of(s: Survey):
        d = s.meta.get("date")
        if d is None:
            return None
        try:
            return float(str(d)[:4])
        except ValueError:
            return None

    def density_of(s: Survey):
        xy = s.points[:, :2]
        area = (np.ptp(xy[:, 0])) * (np.ptp(xy[:, 1]))
        return len(s.points) / area if area > 0 else None

    years = [year_of(s) for s in surveys]
    dens = [density_of(s) for s in surveys]

    def norm(vals):
        known = [v for v in vals if v is not None]
        if len(known) < 2 or max(known) == min(known):
            return [0.5 for _ in vals]
        lo, hi = min(known), max(known)
        return [0.5 if v is None else (v - lo) / (hi - lo) for v in vals]

    ny = norm(years)
    nd = norm(dens)
    out = []
    for i, s in enumerate(surveys):
        if s.score is not None:
            out.append(float(s.score))
            continue
        method = _METHOD_RANK.get(str(s.meta.get("method", "unknown")).lower(), 0.5)
        out.append(0.5 * ny[i] + 0.3 * nd[i] + 0.2 * method)
    return out


# -- pipeline ------------------------------------------------------------


def _check_surveys(surveys: list[Survey]) -> None:
    """Reject an empty survey list, and a survey whose points
    ``check_points`` rejects."""
    if len(surveys) == 0:
        raise ValueError("no surveys given")
    for s in surveys:
        check_points(s.points, f"survey {s.name!r}")


def deconflict(surveys: list[Survey], reference: LRSurface,
               cfg: DeconflictConfig = DeconflictConfig()):
    """Element-wise, score-ordered pairwise deconfliction.

    Returns (cleaned_surveys, report).  Cleaned surveys preserve input
    order and metadata; removed points are dropped from their ``points``.
    The report carries per-element verdicts, per-survey removal counts,
    and the score table.
    """
    _check_surveys(surveys)
    scores = default_scores(surveys)
    cache = eval_cache(reference)
    tau = cfg.tolerance
    fields = [distance_field(reference, s.points, tau) for s in surveys]
    covers = [bbox(s.points) for s in surveys]
    keep_masks = [np.ones(len(s.points), dtype=bool) for s in surveys]
    ne = len(cache.bounds)
    verdict_log: list[dict] = []
    pending: dict[tuple[int, int], list[tuple[int, np.ndarray, np.ndarray]]] = {}

    # per-element survey membership: each survey's point indices grouped by
    # element, in increasing order within a group
    members: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(ne)]
    for si, fld in enumerate(fields):
        eid = fld["element_id"]
        by_el = np.argsort(eid, kind="stable")
        for idx in np.split(by_el, np.flatnonzero(np.diff(eid[by_el])) + 1):
            if eid[idx[0]] >= 0:
                members[eid[idx[0]]].append((si, idx))

    for e in range(ne):
        present = members[e]
        if len(present) < 2:
            continue
        rect = tuple(cache.bounds[e].tolist())
        order = sorted(present, key=lambda t: (-scores[t[0]], t[0]))
        accepted: list[tuple[int, np.ndarray]] = [order[0]]
        for si, idx in order[1:]:
            cand_keep = np.ones(len(idx), dtype=bool)
            cand_xy = surveys[si].points[idx][:, :2]
            cand_r = fields[si]["residual"][idx]
            for sj, jdx in accepted:
                hi_xy = surveys[sj].points[jdx][:, :2]
                hi_r = fields[sj]["residual"][jdx]
                # split-survey special case: same score, almost no overlap
                if abs(scores[si] - scores[sj]) <= EQUAL_SCORE_EPS:
                    hb, cb = bbox(hi_xy), bbox(cand_xy)
                    if _bbox_overlap(hb, cb) <= TINY_OVERLAP * max(_area(hb), _area(cb)):
                        verdict_log.append({"element": e, "hi": sj, "cand": si,
                                            "verdict": CONSISTENT,
                                            "rule": "split-survey"})
                        continue
                v, mask, pend, detail = pairwise_element_test(
                    hi_xy, hi_r, cand_xy, cand_r, cfg, rect, covers[sj],
                    reference=reference)
                verdict_log.append({"element": e, "hi": sj, "cand": si,
                                    "verdict": v,
                                    **{k: detail[k] for k in ("t", "t_limit")
                                       if k in detail}})
                cand_keep &= mask
                if v == INDETERMINATE:
                    cut = pend & in_rect(cand_xy, _rect_intersect(rect, covers[sj]))
                    pending.setdefault((sj, si), []).append((e, idx, cut))
            kept_idx = idx[cand_keep]
            keep_masks[si][idx[~cand_keep]] = False
            if len(kept_idx):
                accepted.append((si, kept_idx))

    # resolve elements that stayed indeterminate: majority of the decided
    # elements for the same survey pair, removal on a tie
    decided = Counter((d["hi"], d["cand"], d["verdict"]) for d in verdict_log)
    for (sj, si), items in pending.items():
        treat_consistent = decided[sj, si, CONSISTENT] > decided[sj, si, NOT_CONSISTENT]
        for e, idx, cut in items:
            if not treat_consistent:
                keep_masks[si][idx[cut]] = False
            verdict_log.append({"element": e, "hi": sj, "cand": si,
                                "verdict": CONSISTENT if treat_consistent
                                else NOT_CONSISTENT,
                                "rule": "cross-element-majority"})

    cleaned = []
    for s, mask in zip(surveys, keep_masks):
        cleaned.append(Survey(points=s.points[mask], name=s.name,
                              score=s.score, meta=dict(s.meta)))
    report = {
        "scores": {s.name or str(i): scores[i] for i, s in enumerate(surveys)},
        "removed": {s.name or str(i): int((~m).sum())
                    for i, (s, m) in enumerate(zip(surveys, keep_masks))},
        "kept": {s.name or str(i): int(m.sum())
                 for i, (s, m) in enumerate(zip(surveys, keep_masks))},
        "verdicts": verdict_log,
        "note": "" if verdict_log else
                "no overlapping surveys in any element; all points kept",
    }
    return cleaned, report


def deconflict_fit(surveys: list[Survey], fit_config=None,
                   cfg: DeconflictConfig = DeconflictConfig()):
    """Reference surface, cross-survey cleanup, final surface.

    A rough surface is fitted to all points with the iteration cap at
    ``cfg.reference_level``; deconfliction runs against it; the fit then
    continues from that surface on the cleaned points up to
    ``cfg.total_iterations``.  Returns (surface, cleaned_surveys, report);
    the report gains the reference/final iteration rows and flags.
    """
    _check_surveys(surveys)
    if fit_config is None:
        fit_config = FitConfig(tolerance=cfg.tolerance)
    if abs(fit_config.tolerance - cfg.tolerance) > 1e-12 * cfg.tolerance:
        raise ValueError("fit tolerance and deconfliction tolerance differ")
    all_pts = np.concatenate([s.points for s in surveys])
    ref_cfg = replace(fit_config, max_iterations=cfg.reference_level)
    reference, ref_reports, _ = fit(all_pts, ref_cfg)
    cleaned, report = deconflict(surveys, reference, cfg)
    kept_pts = np.concatenate([s.points for s in cleaned])
    if len(kept_pts) == 0:
        raise ValueError("deconfliction removed every point")
    final_cfg = replace(fit_config, max_iterations=cfg.total_iterations)
    surface, fin_reports, flags = fit(kept_pts, final_cfg, start=reference,
                                      first_iteration=cfg.reference_level)
    report["reference_iterations"] = ref_reports
    report["final_iterations"] = fin_reports
    report["flags"] = flags
    return surface, cleaned, report
