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
- Disjoint samples (``_disjoint_verdicts``) are kept when their gap is at
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

Deconfliction runs in element arrays.  One stable sort groups the points
of every survey by element and priority; each (element, survey) sample's
n, mean, std, range and box are segment reductions over that order
(``_segment_stats``).  The pairs of one candidate rank, over all elements,
are tested at once (``_test_pairs``), one sub-domain level at a time:
``_decide`` is the one statement of the criteria above, of the large-std
flag, the t-statistic and the mean rule of disjoint samples without point
data, and ``element_consistency`` is its one-pair case, as
``pairwise_element_test`` is the one-pair case of ``_test_pairs``.  The
split-survey rule and the removal of a rejected candidate by rectangle run
in the same arrays.  Between ranks, only the accepted samples of elements
that hold a further candidate get their statistics again.  What still runs
one pair at a time: the nearest-pair search of disjoint samples
(``_disjoint_verdicts``), the neighbourhoods of candidates of at most three
points (``_sub_rects``), and the cross-element majority over the pairs
left indeterminate.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .adaptive import _RELAY, FitConfig, fit
from .evaluate import bbox, check_points, distance_field, eval_cache, evaluate, in_rect
from .mesh import LRSurface, _ranges

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

# verdict codes in the arrays: indices into _VERDICTS, and _DISJOINT for a
# disjoint pair with point data, which ``_disjoint_verdicts`` judges
_VERDICTS = (CONSISTENT, NOT_CONSISTENT, INDETERMINATE)
_OK, _REJECT, _OPEN, _DISJOINT = range(4)


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


class _Stats(NamedTuple):
    """Residual statistics of samples, one row per sample: the fields of
    ``SampleStats`` as arrays, std NaN where it is undefined."""

    n: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    bbox: np.ndarray  # (k, 4): xmin, xmax, ymin, ymax

    def take(self, k) -> "_Stats":
        return _Stats(*(a[k] for a in self))


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
        s = _segment_stats(np.asarray(xy, dtype=float), r, np.zeros(1, dtype=np.intp))
        return cls(n=len(r), mean=float(s.mean[0]), std=_scalar(s.std[0]),
                   lo=float(s.lo[0]), hi=float(s.hi[0]),
                   bbox=tuple(s.bbox[0].tolist()))

    @property
    def size(self) -> float:
        return _area(self.bbox)


def _scalar(v) -> float | None:
    """A float, None where it is NaN (an undefined statistic)."""
    return None if math.isnan(v) else float(v)


def _stats_of(samples) -> _Stats:
    """``SampleStats`` rows as one ``_Stats``."""
    return _Stats(np.array([s.n for s in samples]),
                  np.array([s.mean for s in samples], dtype=float),
                  np.array([np.nan if s.std is None else s.std for s in samples], dtype=float),
                  np.array([s.lo for s in samples], dtype=float),
                  np.array([s.hi for s in samples], dtype=float),
                  np.array([s.bbox for s in samples], dtype=float).reshape(-1, 4))


def _segment_sum(v: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of each segment of ``v``, the segments starting at ``starts``
    and tiling it: from a zero, then pairwise over the segment, the order
    in which ``np.sum`` adds one array."""
    return np.add.reduceat(np.insert(v, starts, 0.0), starts + np.arange(len(starts)))


def _segment_stats(xy: np.ndarray, r: np.ndarray, starts: np.ndarray) -> _Stats:
    """Statistics of the samples that tile the points ``xy`` with
    residuals ``r``, sample k starting at ``starts[k]``: the mean and the
    std (ddof 1) as ``np.mean`` and ``np.std`` form them."""
    n = np.diff(np.append(starts, len(r)))
    mean = _segment_sum(r, starts) / n
    dev = r - np.repeat(mean, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        std = np.where(n >= 2, np.sqrt(_segment_sum(dev * dev, starts) / (n - 1)), np.nan)
    x, y = xy[:, 0], xy[:, 1]
    box = np.column_stack([np.minimum.reduceat(x, starts), np.maximum.reduceat(x, starts),
                           np.minimum.reduceat(y, starts), np.maximum.reduceat(y, starts)])
    return _Stats(n, mean, std, np.minimum.reduceat(r, starts),
                  np.maximum.reduceat(r, starts), box)


def _combined(a: _Stats, b: _Stats) -> np.ndarray:
    """Per pair, the sample std of the union from the two samples' summary
    statistics; NaN below two points."""
    n = a.n + b.n
    mean = (a.n * a.mean + b.n * b.mean) / n
    m2 = 0.0
    for s in (a, b):
        m2 = m2 + np.where(np.isnan(s.std), 0.0, (s.n - 1) * (s.std * s.std))
        d = s.mean - mean
        m2 = m2 + s.n * (d * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n >= 2, np.sqrt(m2 / (n - 1)), np.nan)


def combined_std(a: SampleStats, b: SampleStats) -> float | None:
    """Sample standard deviation of the union, from summary statistics."""
    return _scalar(_combined(_stats_of([a]), _stats_of([b]))[0])


def _t_quantile(alpha: float, df):
    """``students_t_quantile`` of each df, without the checks."""
    from scipy import special

    p = 1 - alpha / 2
    return np.where(np.isinf(df), special.ndtri(p), special.stdtrit(df, p))


def students_t_quantile(alpha: float, df: float) -> float:
    """Two-sided upper quantile: P(|T| > q) = alpha for T ~ t(df).

    df = inf gives the normal quantile (1.95996 at alpha = 0.05).  Calls
    the special functions behind ``scipy.stats`` ``t.ppf`` and ``norm.ppf``
    directly, which gives the same floats without the per-call overhead of
    the distribution objects.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if not math.isinf(df) and df <= 0:
        raise ValueError("degrees of freedom must be positive")
    return float(_t_quantile(alpha, float(df)))


def _t_test(a: _Stats, b: _Stats):
    """Per pair, (t, df_pooled, df_welch) of ``two_sample_t``; NaN where
    a std is undefined."""
    va = a.std * a.std / a.n
    vb = b.std * b.std / b.n
    v = va + vb
    denom = np.sqrt(v)
    df_pooled = a.n + b.n - 1
    welch = (v > 0) & (a.n > 1) & (b.n > 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom > 0, (a.mean - b.mean) / denom, math.inf)
        df_welch = np.where(welch, v * v / (va * va / (a.n - 1) + vb * vb / (b.n - 1)),
                            df_pooled)
    undefined = np.isnan(v)
    t[undefined] = df_welch[undefined] = np.nan
    return t, df_pooled, df_welch


def two_sample_t(a: SampleStats, b: SampleStats) -> dict:
    """T statistic with both degree-of-freedom conventions.

    ``df_pooled`` assumes equal variances (N1 + N2 - 1); ``df_welch`` is
    the unequal-variance approximation.  Requires both stds defined.
    """
    if a.std is None or b.std is None:
        raise ValueError("two-sample test needs at least 2 points per sample")
    t, df_pooled, df_welch = _t_test(_stats_of([a]), _stats_of([b]))
    return {"t": float(t[0]), "df_pooled": int(df_pooled[0]), "df_welch": float(df_welch[0])}


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


def _areas(box: np.ndarray) -> np.ndarray:
    return (box[:, 1] - box[:, 0]) * (box[:, 3] - box[:, 2])


def _intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row by row, the intersection of two (k, 4) rectangle arrays."""
    return np.column_stack([np.maximum(a[:, 0], b[:, 0]), np.minimum(a[:, 1], b[:, 1]),
                            np.maximum(a[:, 2], b[:, 2]), np.minimum(a[:, 3], b[:, 3])])


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row by row, the overlap area of two (k, 4) rectangle arrays."""
    r = _intersect(a, b)
    return np.maximum(r[:, 1] - r[:, 0], 0.0) * np.maximum(r[:, 3] - r[:, 2], 0.0)


def _std_upper(s, n):
    """Upper ``STD_CONFIDENCE`` bound of standard deviation estimates.

    ``2 * gammaincinv(df / 2, p)`` is the chi-square quantile, as computed
    by ``scipy.stats.chi2.ppf``.
    """
    from scipy import special

    n = np.asarray(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = special.gammaincinv((n - 1) / 2, 1 - STD_CONFIDENCE)
        return np.where(n < 2, s, s * np.sqrt((n - 1) / (2 * g)))


def _within_range(hi: _Stats, tau: float):
    """The accepted residual range widened for criterion 3, (lo, hi)."""
    m3 = tau * WITHIN_FACTOR
    return hi.lo - m3, hi.hi + m3


def _decide(hi: _Stats, cand: _Stats, tau: float, overlap=None, combined=None,
            frac=None) -> dict:
    """Verdicts of candidate samples against accepted ones, pair k being
    row k of ``hi`` and of ``cand``: the one statement of the criteria.

    ``overlap`` (box overlap areas) and ``combined`` (stds of the unions,
    NaN for none) are derived from the statistics when omitted.  ``frac``
    is each candidate's share of residuals inside ``_within_range``,
    counted on point data; without it a normal model stands in, and a
    disjoint pair is judged by its means ("disjoint-stats").  With it a
    disjoint pair gets code ``_DISJOINT``.

    Returns the detail columns of ``element_consistency`` as arrays, with
    ``verdict`` (an index into ``_VERDICTS``, or ``_DISJOINT``), ``has_t``
    (both stds defined) and ``disjoint``.
    """
    with_data = frac is not None
    if overlap is None:
        overlap = _overlaps(hi.bbox, cand.bbox)
    overlap = np.asarray(overlap, dtype=float)
    big = np.maximum(_areas(hi.bbox), _areas(cand.bbox))
    ratio = np.divide(overlap, big, out=np.zeros(len(big)), where=big > 0)
    t, df_pooled, df_welch = _t_test(hi, cand)

    # criterion 1: means close relative to the tolerance
    c1 = np.abs(hi.mean - cand.mean) <= tau * MEAN_FACTOR
    # criterion 2: candidate range inside the accepted range, widened
    m2 = tau * RANGE_FACTOR
    c2 = (cand.lo >= hi.lo - m2) & (cand.hi <= hi.hi + m2)
    # criterion 3: most candidate residuals inside the accepted range
    if frac is None:
        from scipy import special  # ndtr: the normal CDF of scipy.stats

        lo3, hi3 = _within_range(hi, tau)
        with np.errstate(divide="ignore", invalid="ignore"):
            normal = (special.ndtr((hi3 - cand.mean) / cand.std)
                      - special.ndtr((lo3 - cand.mean) / cand.std))
        frac = np.where(cand.std > 0, normal,
                        ((lo3 <= cand.mean) & (cand.mean <= hi3)).astype(float))
    frac = np.asarray(frac, dtype=float)
    c3 = frac >= WITHIN_FRACTION
    # criterion 4: pooling does not blow up the spread
    combined = _combined(hi, cand) if combined is None else np.asarray(combined, dtype=float)
    spread = np.fmax(hi.std, cand.std)
    c4 = np.isnan(combined) | np.isnan(spread) | (combined <= STD_GROWTH * spread)
    # spread flag on an upper confidence bound, so a lucky low estimate
    # from a small sample cannot unlock a rejection
    large = ((_std_upper(hi.std, hi.n) > LARGE_STD_FACTOR * tau)
             | (_std_upper(cand.std, cand.n) > LARGE_STD_FACTOR * tau))

    # too little evidence for an overlap rejection below MIN_DECIDE points;
    # range and spread estimates at that sample size are mostly noise
    soft = large | (ratio < SMALL_OVERLAP) | (np.minimum(hi.n, cand.n) < MIN_DECIDE)
    verdict = np.where(c1 & c2 & c3 & c4, np.where(large, _OPEN, _OK),
                       np.where(soft, _OPEN, _REJECT))
    disjoint = overlap <= 0.0
    verdict[disjoint] = _DISJOINT if with_data else np.where(c1, _OK, _REJECT)[disjoint]
    return {"verdict": verdict, "overlap_area": overlap, "overlap_ratio": ratio,
            "has_t": ~np.isnan(t), "t": t, "t_limit": _t_quantile(ALPHA, df_welch),
            "df_welch": df_welch, "df_pooled": df_pooled,
            "criteria": np.column_stack([c1, c2, c3, c4]), "within_fraction": frac,
            "combined_std": combined, "large_std": large, "disjoint": disjoint}


def _detail(cols: dict, k: int) -> dict:
    """The detail dict of pair k of ``_decide``'s columns."""
    detail = {"overlap_area": float(cols["overlap_area"][k]),
              "overlap_ratio": float(cols["overlap_ratio"][k])}
    if cols["has_t"][k]:
        detail.update({"t": float(cols["t"][k]), "t_limit": float(cols["t_limit"][k]),
                       "df_welch": float(cols["df_welch"][k]),
                       "df_pooled": int(cols["df_pooled"][k])})
    if cols["disjoint"][k]:
        if cols["verdict"][k] != _DISJOINT:
            detail["rule"] = "disjoint-stats"
        return detail
    detail.update({"criteria": tuple(bool(c) for c in cols["criteria"][k]),
                   "within_fraction": float(cols["within_fraction"][k]),
                   "combined_std": _scalar(cols["combined_std"][k]),
                   "large_std": bool(cols["large_std"][k])})
    return detail


def _nearest_cross_pairs(hi_xy, hi_r, cand_xy, cand_r):
    """The ``NEIGHBOR_PAIRS`` closest cross pairs, nearest first: each
    candidate point with its nearest accepted point, as the arrays
    (distance, r_hi, r_cand, midpoint)."""
    from scipy.spatial import cKDTree

    dist, idx = cKDTree(hi_xy).query(cand_xy, k=1)
    j = np.argsort(dist, kind="stable")[:NEIGHBOR_PAIRS]
    i = idx[j]
    return dist[j], hi_r[i], cand_r[j], 0.5 * (hi_xy[i] + cand_xy[j])


def _disjoint_verdicts(data: list, tau: float, gap_scale, reference=None) -> list:
    """Consistency of sample pairs whose planform domains do not overlap,
    from each pair's point data (hi_xy, hi_r, cand_xy, cand_r) and
    disjoint-gap length: a (verdict, detail) per pair.

    Far-apart clusters are kept: there is room for the surface to follow
    both.  Near clusters must agree where they face each other: the
    closest cross-survey pairs are compared with a slope allowance, the
    reference's slopes at all their midpoints read in one ``evaluate``.
    Without point data ``_decide`` compares the means.
    """
    out: list = [None] * len(data)
    near = []
    for k, (pair, scale) in enumerate(zip(data, gap_scale)):
        dist, r_hi, r_cand, mid = _nearest_cross_pairs(*pair)
        gap = float(dist[0])
        if gap >= KEEP_GAP_FACTOR * scale:
            out[k] = CONSISTENT, {"rule": "disjoint-far", "gap": gap}
        else:
            near.append((k, gap, dist, r_hi - r_cand, mid))
    allow = [tau] * len(near)
    if reference is not None and near:
        # slope allowance for steep terrain between the clusters, capped:
        # a conflict-corrupted reference has artifact gradients that must
        # not excuse arbitrary level gaps
        mid = np.concatenate([m for *_, m in near])
        g = evaluate(reference, mid[:, 0], mid[:, 1], order=1)
        slope = np.split(np.hypot(g[:, 1], g[:, 2]), np.cumsum([len(m) for *_, m in near])[:-1])
        allow = [tau + np.minimum(s * dist, SLOPE_CAP * tau)
                 for s, (_, _, dist, _, _) in zip(slope, near)]
    for (k, gap, _, diff, _), a in zip(near, allow):
        bad = int((np.abs(diff) > a).sum())
        out[k] = ((CONSISTENT if bad == 0 else NOT_CONSISTENT),
                  {"rule": "disjoint-near", "gap": gap, "bad_pairs": bad})
    return out


def element_consistency(hi: SampleStats, cand: SampleStats,
                        config: DeconflictConfig, *,
                        overlap_area: float | None = None,
                        combined: float | None = None,
                        data=None, reference=None,
                        gap_scale: float | None = None) -> tuple[str, dict]:
    """Verdict for one candidate sample against one accepted sample: the
    one-pair case of ``_decide``.

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
    a, b = _stats_of([hi]), _stats_of([cand])
    frac = None
    if data is not None:
        lo3, hi3 = _within_range(a, tau)
        cand_r = data[3]
        frac = [((cand_r >= lo3[0]) & (cand_r <= hi3[0])).mean()]
    cols = _decide(a, b, tau, overlap=None if overlap_area is None else [overlap_area],
                   combined=None if combined is None else [combined], frac=frac)
    detail = _detail(cols, 0)
    code = cols["verdict"][0]
    if code == _DISJOINT:
        [(verdict, d2)] = _disjoint_verdicts([data], tau, [gap_scale], reference=reference)
        detail.update(d2)
        return verdict, detail
    return _VERDICTS[code], detail


# -- sub-domain recursion on point data ---------------------------------


def _sub_rects(hs: _Stats, cs: _Stats, rect: np.ndarray, points):
    """Sub-domains (xmin, xmax, ymin, ymax) for a closer look at
    indeterminate pairs, whose samples overlap; ``points(k)`` gives pair
    k's (hi_xy, cand_xy).  Returns (pair, rects), a pair's sub-domains in
    the order they are tested, by pair."""
    pair, rects = [], []
    small = cs.n <= 3
    if small.any():
        # neighborhood of each candidate point, sized by the local spacing
        # of the accepted survey
        from scipy.spatial import cKDTree

        for k in np.flatnonzero(small):
            hi_xy, cand_xy = points(k)
            d, _ = cKDTree(hi_xy).query(cand_xy, k=min(4, len(hi_xy)))
            h = 2.0 * d.reshape(len(cand_xy), -1).max(axis=1)
            x, y = cand_xy[:, 0], cand_xy[:, 1]
            pair.append(np.full(len(cand_xy), k))
            rects.append(np.column_stack([x - h, x + h, y - h, y + h]))
    # the true overlap is a minor part of either domain: test it alone,
    # everything outside faces no accepted points and is kept
    minor = ~small & (_overlaps(hs.bbox, cs.bbox)
                      < 0.8 * np.minimum(_areas(hs.bbox), _areas(cs.bbox)))
    pair.append(np.flatnonzero(minor))
    rects.append(_intersect(hs.bbox, cs.bbox)[minor])
    # else quarter the full region under test, not the bbox intersection,
    # so no candidate point escapes examination through bbox jitter at the
    # edges; unless quartering would drop below the decidable sample size
    quarter = np.flatnonzero(~small & ~minor & (np.minimum(hs.n, cs.n) >= 2 * MIN_DECIDE))
    q = rect[quarter]
    xm, ym = 0.5 * (q[:, 0] + q[:, 1]), 0.5 * (q[:, 2] + q[:, 3])
    pair.append(np.repeat(quarter, 4))
    rects.append(np.column_stack([q[:, 0], xm, q[:, 2], ym, xm, q[:, 1], q[:, 2], ym,
                                  q[:, 0], xm, ym, q[:, 3], xm, q[:, 1], ym, q[:, 3]])
                 .reshape(-1, 4))
    pair = np.concatenate(pair)
    order = np.argsort(pair, kind="stable")
    return pair[order], np.concatenate(rects)[order]


def _test_pairs(xy, r, hi, hi_n, cand, cand_n, rect, cover, gap_scale, tau: float,
                reference, depth: int):
    """Full point-level tests of candidate samples against accepted ones,
    all pairs at once, one sub-domain level at a time.

    Pair k tests ``cand_n[k]`` candidate points against ``hi_n[k]``
    accepted points; ``cand`` and ``hi`` list them, pair by pair, as
    positions into ``xy`` and ``r``.  ``rect[k]`` is the region under test,
    ``cover[k]`` the accepted survey's footprint and ``gap_scale[k]`` the
    pair's disjoint-gap length; ``depth`` is the sub-domain level the pairs
    start at.  Returns (verdict, keep, pending, cols, disjoint,
    subdivided): per pair its verdict code, and per point of ``cand``
    ``keep`` and ``pending`` (see ``pairwise_element_test``); of the first
    level, the ``_decide`` columns, the ``_disjoint_verdicts`` detail by
    disjoint pair, and whether each pair went to sub-domains.
    """
    n_pairs, pair_n = len(hi_n), np.asarray(cand_n)
    keep = np.ones(len(cand), dtype=bool)
    pending = np.zeros(len(cand), dtype=bool)
    disjoint: dict[int, dict] = {}
    first = None
    # the tasks of a level: (sub-)regions of the pairs (``root``), each with
    # its accepted points and the slots in ``cand`` of its candidate points
    root, slot = np.arange(n_pairs), np.arange(len(cand))
    # the first level runs even without pairs, for its (empty) columns
    while first is None or len(root):
        hi_at, cand_at = np.cumsum(hi_n) - hi_n, np.cumsum(cand_n) - cand_n
        cpos = cand[slot]
        hs = _segment_stats(xy[hi], r[hi], hi_at)
        cs = _segment_stats(xy[cpos], r[cpos], cand_at)
        task = np.repeat(np.arange(len(root)), cand_n)
        lo3, hi3 = _within_range(hs, tau)
        within = (r[cpos] >= lo3[task]) & (r[cpos] <= hi3[task])
        cols = _decide(hs, cs, tau,
                       frac=np.bincount(task, weights=within, minlength=len(root)) / cand_n)
        code = cols["verdict"].copy()
        apart = np.flatnonzero(code == _DISJOINT)
        data = []
        for k in apart:
            h = hi[hi_at[k]:hi_at[k] + hi_n[k]]
            c = cpos[cand_at[k]:cand_at[k] + cand_n[k]]
            data.append((xy[h], r[h], xy[c], r[c]))
        found = _disjoint_verdicts(data, tau, [gap_scale[k] for k in root[apart]], reference)
        for k, (v, d) in zip(apart, found):
            code[k] = _VERDICTS.index(v)
            if first is None:
                disjoint[k] = d
        # a rejected candidate leaves the region where the accepted survey
        # has data; beyond the accepted extent there is no conflict to act on
        gone = (code[task] == _REJECT) & in_rect(xy[cpos], _intersect(rect, cover[root])[task].T)
        keep[slot[gone]] = False
        open_ = np.flatnonzero(code == _OPEN) if depth < MAX_DEPTH else np.zeros(0, dtype=np.intp)
        sub_task, sub_rect = _sub_rects(
            hs.take(open_), cs.take(open_), rect[open_],
            lambda k: (xy[hi[hi_at[open_[k]]:hi_at[open_[k]] + hi_n[open_[k]]]],
                       xy[cpos[cand_at[open_[k]]:cand_at[open_[k]] + cand_n[open_[k]]]]))
        sub_task = open_[sub_task]
        split = np.zeros(len(root), dtype=bool)
        split[sub_task] = True
        # undecided where no sub-domain is left to look at
        pending[slot[((code == _OPEN) & ~split)[task]]] = True
        if first is None:
            first, verdict, subdivided = cols, code, split
        # each candidate point goes to the first sub-domain of its task that
        # holds it; a sub-domain without accepted points keeps its share
        m = len(sub_task)
        sub_at = np.searchsorted(sub_task, np.arange(len(root)))
        pp = _ranges(cand_at[sub_task], cand_n[sub_task])
        of = np.repeat(np.arange(m), cand_n[sub_task])
        held = np.zeros((len(cpos), 4), dtype=bool)
        held[pp, of - sub_at[sub_task[of]]] = in_rect(xy[cpos[pp]], sub_rect[of].T)
        goes = np.where(held.any(axis=1), sub_at[task] + held.argmax(axis=1), -1)
        hp = _ranges(hi_at[sub_task], hi_n[sub_task])
        hof = np.repeat(np.arange(m), hi_n[sub_task])
        hin = in_rect(xy[hi[hp]], sub_rect[hof].T)
        hi_n = np.bincount(hof[hin], minlength=m)
        cand_n = np.bincount(goes[goes >= 0], minlength=m)
        child = (hi_n > 0) & (cand_n > 0)
        moved = np.flatnonzero(goes >= 0)
        moved = moved[child[goes[moved]]]
        slot = slot[moved[np.argsort(goes[moved], kind="stable")]]
        hi = hi[hp[hin & child[hof]]]
        hi_n, cand_n = hi_n[child], cand_n[child]
        root, rect = root[sub_task[child]], sub_rect[child]
        depth += 1
    # a pair that went to sub-domains takes its verdict from its points
    of = np.repeat(np.arange(n_pairs), pair_n)
    undecided = np.bincount(of, weights=pending, minlength=n_pairs) > 0
    removed = np.bincount(of, weights=~keep, minlength=n_pairs) > 0
    verdict = np.where(subdivided, np.where(undecided, _OPEN, np.where(removed, _REJECT, _OK)),
                       verdict)
    return verdict, keep, pending, first, disjoint, subdivided


def pairwise_element_test(hi_xy, hi_r, cand_xy, cand_r,
                          cfg: DeconflictConfig, rect, hi_cover,
                          reference=None, depth: int = 0, gap_scale=None):
    """Full point-level test of one candidate sample against one accepted:
    the one-pair case of ``_test_pairs``.

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
    hi_r, cand_r = np.asarray(hi_r, dtype=float), np.asarray(cand_r, dtype=float)
    if len(hi_r) == 0 or len(cand_r) == 0:
        raise ValueError("empty sample")
    if gap_scale is None:
        gap_scale = math.hypot(rect[1] - rect[0], rect[3] - rect[2])
    nh, nc = len(hi_r), len(cand_r)
    xy = np.concatenate([np.asarray(hi_xy, dtype=float)[:, :2],
                         np.asarray(cand_xy, dtype=float)[:, :2]])
    verdict, keep, pending, cols, disjoint, subdivided = _test_pairs(
        xy, np.concatenate([hi_r, cand_r]), np.arange(nh), np.array([nh]),
        np.arange(nh, nh + nc), np.array([nc]), np.array([rect], dtype=float),
        np.array([hi_cover], dtype=float), [gap_scale], cfg.tolerance, reference, depth)
    detail = _detail(cols, 0)
    detail.update(disjoint.get(0, {}))
    if subdivided[0]:
        detail["subdivided"] = True
    return _VERDICTS[verdict[0]], keep, pending, detail


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
    and the score table.  The residual fields of the surveys come from
    ``distance_field``, or inside ``deconflict_fit`` from the reference
    fit (``adaptive._RELAY``).
    """
    _check_surveys(surveys)
    relay = _RELAY.get()
    if relay is None:
        fields = [distance_field(reference, s.points, cfg.tolerance) for s in surveys]
        fields = [(f["residual"], f["element_id"]) for f in fields]
    else:
        # the reference fit's field, over the surveys' points in order
        fld = relay.pop("field")
        cut = np.cumsum([len(s.points) for s in surveys])[:-1]
        fields = list(zip(np.split(fld["residual"], cut), np.split(fld["element_id"], cut)))
    cleaned, report, keep = _deconflict(surveys, reference, cfg, fields)
    if relay is not None:
        relay["residuals"] = np.concatenate([res[m] for (res, _), m in zip(fields, keep)])
    return cleaned, report


class _Samples(NamedTuple):
    """Every (element, survey) sample, in the order the elements test them.

    The points inside the reference, of all surveys, sorted by element,
    then by survey priority, then by index in their survey: ``xy``, ``r``
    (residual), ``survey`` and ``index`` (in that survey) per point.
    Sample k is the points ``start[k]:start[k] + stats.n[k]``, of survey
    ``owner[k]`` in element ``elem[k]``, where it is tested at ``rank[k]``
    (0 is the accepted top sample); ``size[k]`` is the number of samples
    of its element.
    """

    xy: np.ndarray
    r: np.ndarray
    survey: np.ndarray
    index: np.ndarray
    start: np.ndarray
    owner: np.ndarray
    elem: np.ndarray
    rank: np.ndarray
    size: np.ndarray
    stats: _Stats


def _stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of nonnegative integers, one
    16-bit digit at a time from the lowest: numpy sorts uint16 keys stably
    by radix."""
    order = np.arange(len(key))
    shift = 0
    while shift == 0 or (key >> shift).any():
        digit = ((key[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _samples(surveys: list[Survey], fields, priority: list[int]) -> _Samples:
    """Group the surveys' points into samples with one stable sort."""
    ns = len(surveys)
    place = np.empty(ns, dtype=np.int64)
    place[priority] = np.arange(ns)
    sizes = [len(s.points) for s in surveys]
    eid = np.concatenate([e for _, e in fields])
    owner = np.repeat(np.arange(ns), sizes)
    inside = np.flatnonzero(eid >= 0)
    key = eid[inside] * ns + place[owner[inside]]
    order = _stable_order(key)
    key, order = key[order], inside[order]
    survey = owner[order]
    index = order - (np.cumsum(sizes) - sizes)[survey]
    xy = np.concatenate([s.points[:, :2] for s in surveys])[order]
    r = np.concatenate([res for res, _ in fields])[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    elem = key[start] // ns
    first = np.flatnonzero(np.diff(elem, prepend=-1))
    size = np.diff(np.append(first, len(start)))
    rank = np.arange(len(start)) - np.repeat(first, size)
    return _Samples(xy, r, survey, index, start, np.asarray(priority)[key[start] % ns],
                    elem, rank, np.repeat(size, size), _segment_stats(xy, r, start))


def _deconflict(surveys: list[Survey], reference: LRSurface, cfg: DeconflictConfig,
                fields):
    """``deconflict`` on given fields: per survey, the (residual, element
    id) of its points against ``reference``, element id -1 outside it.
    Returns (cleaned, report, keep masks).

    The pairs of one candidate rank are decided together.  A candidate is
    tested with all its points against each accepted sample of its
    element; the accepted samples are the top one and the earlier
    candidates with points left, which get their statistics again where a
    later rank needs them.
    """
    scores = np.array(default_scores(surveys))
    bounds = eval_cache(reference).bounds
    tau = cfg.tolerance
    covers = np.array([bbox(s.points) for s in surveys])
    S = _samples(surveys, fields, sorted(range(len(surveys)), key=lambda i: (-scores[i], i)))
    xy, r, start, n = S.xy, S.r, S.start, S.stats.n
    current = _Stats(*(a.copy() for a in S.stats))  # of the accepted samples
    keep = np.ones(len(r), dtype=bool)
    alive = np.ones(len(start), dtype=bool)
    # per rank, the log columns (element, rank, accepted position, hi, cand,
    # verdict code, t, t_limit, split-survey), and the pending pairs
    log: list[tuple] = []
    pending: list[tuple] = []
    for rk in range(1, int(S.size.max(initial=0))):
        cand = np.flatnonzero(S.rank == rk)
        hi = np.concatenate([cand - (rk - k) for k in range(rk)])
        cand = np.tile(cand, rk)
        hi, cand = hi[alive[hi]], cand[alive[hi]]
        # split-survey special case: same score, almost no overlap
        split = ((np.abs(scores[S.owner[cand]] - scores[S.owner[hi]]) <= EQUAL_SCORE_EPS)
                 & (_overlaps(current.bbox[hi], S.stats.bbox[cand])
                    <= TINY_OVERLAP * np.maximum(_areas(current.bbox[hi]),
                                                 _areas(S.stats.bbox[cand]))))
        nan = np.full(split.sum(), np.nan)
        log.append((S.elem[cand[split]], np.full(len(nan), rk), S.rank[hi[split]],
                    S.owner[hi[split]], S.owner[cand[split]], np.full(len(nan), _OK),
                    nan, nan, np.ones(len(nan), dtype=bool)))
        hi, cand = hi[~split], cand[~split]
        sj, e = S.owner[hi], S.elem[cand]
        # the accepted sample's points left, against all the candidate's
        hp = _ranges(start[hi], n[hi])
        hp_left = keep[hp]
        cp = _ranges(start[cand], n[cand])
        region = bounds[e]
        verdict, kept, pend, cols, _, _ = _test_pairs(
            xy, r, hp[hp_left],
            np.bincount(np.repeat(np.arange(len(hi)), n[hi])[hp_left], minlength=len(hi)),
            cp, n[cand], region, covers[sj],
            [math.hypot(b[1] - b[0], b[3] - b[2]) for b in region.tolist()],
            tau, reference, 0)
        keep[cp[~kept]] = False
        has_t = cols["has_t"]
        log.append((e, np.full(len(e), rk), S.rank[hi], sj, S.owner[cand], verdict,
                    np.where(has_t, cols["t"], np.nan), np.where(has_t, cols["t_limit"], np.nan),
                    np.zeros(len(e), dtype=bool)))
        at = np.cumsum(n[cand]) - n[cand]
        inner = _intersect(region, covers[sj])
        for p in np.flatnonzero(verdict == _OPEN):
            c = slice(at[p], at[p] + n[cand[p]])
            cut = pend[c] & in_rect(xy[cp[c]], inner[p])
            pending.append(((e[p], rk, S.rank[hi[p]]), sj[p], S.owner[cand[p]], e[p],
                            S.index[cp[c]], cut))
        # the candidates with points left are accepted; their statistics
        # change where they lost points and a later rank reads them
        cand = np.flatnonzero(S.rank == rk)
        pts = _ranges(start[cand], n[cand])
        left = np.add.reduceat(keep[pts].astype(np.intp), np.cumsum(n[cand]) - n[cand])
        alive[cand] = left > 0
        redo = (left > 0) & (left < n[cand]) & (S.size[cand] > rk + 1)
        if redo.any():
            pts = _ranges(start[cand[redo]], n[cand[redo]])
            pts = pts[keep[pts]]
            fresh = _segment_stats(xy[pts], r[pts], np.cumsum(left[redo]) - left[redo])
            for now, new in zip(current, fresh):
                now[cand[redo]] = new

    columns = [np.concatenate(c) for c in zip(*log)] if log else [np.zeros(0)] * 9
    verdict_log = []
    for p in np.lexsort(columns[2::-1]):
        e, _, _, sj, si, code, t, t_limit, split = (c[p] for c in columns)
        entry = {"element": int(e), "hi": int(sj), "cand": int(si), "verdict": _VERDICTS[code]}
        if split:
            entry["rule"] = "split-survey"
        elif not math.isnan(t):
            entry.update({"t": float(t), "t_limit": float(t_limit)})
        verdict_log.append(entry)
    keep_masks = [np.ones(len(s.points), dtype=bool) for s in surveys]
    for si, mask in enumerate(keep_masks):
        mask[S.index[~keep & (S.survey == si)]] = False

    # resolve elements that stayed indeterminate: majority of the decided
    # elements for the same survey pair, removal on a tie
    groups: dict[tuple[int, int], list] = {}
    for _, sj, si, e, idx, cut in sorted(pending, key=lambda row: row[0]):
        groups.setdefault((int(sj), int(si)), []).append((int(e), idx, cut))
    decided = Counter((d["hi"], d["cand"], d["verdict"]) for d in verdict_log)
    for (sj, si), items in groups.items():
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
        "scores": {s.name or str(i): float(scores[i]) for i, s in enumerate(surveys)},
        "removed": {s.name or str(i): int((~m).sum())
                    for i, (s, m) in enumerate(zip(surveys, keep_masks))},
        "kept": {s.name or str(i): int(m.sum())
                 for i, (s, m) in enumerate(zip(surveys, keep_masks))},
        "verdicts": verdict_log,
        "note": "" if verdict_log else
                "no overlapping surveys in any element; all points kept",
    }
    return cleaned, report, keep_masks


def deconflict_fit(surveys: list[Survey], fit_config=None,
                   cfg: DeconflictConfig = DeconflictConfig()):
    """Reference surface, cross-survey cleanup, final surface.

    A rough surface is fitted to all points with the iteration cap at
    ``cfg.reference_level``; deconfliction runs against it; the fit then
    continues from that surface on the cleaned points up to
    ``cfg.total_iterations``.  Returns (surface, cleaned_surveys, report);
    the report gains the reference/final iteration rows and flags.

    Each field is computed once (``adaptive._RELAY``): the reference
    fit's last field (residual and element per point) is the
    deconfliction's, and its residuals of the kept points feed the final
    fit's first pass.
    """
    _check_surveys(surveys)
    if fit_config is None:
        fit_config = FitConfig(tolerance=cfg.tolerance)
    if abs(fit_config.tolerance - cfg.tolerance) > 1e-12 * cfg.tolerance:
        raise ValueError("fit tolerance and deconfliction tolerance differ")
    all_pts = np.concatenate([s.points for s in surveys])
    token = _RELAY.set({})
    try:
        reference, ref_reports, _ = fit(
            all_pts, replace(fit_config, max_iterations=cfg.reference_level))
        cleaned, report = deconflict(surveys, reference, cfg)
        kept_pts = np.concatenate([s.points for s in cleaned])
        if len(kept_pts) == 0:
            raise ValueError("deconfliction removed every point")
        surface, fin_reports, flags = fit(
            kept_pts, replace(fit_config, max_iterations=cfg.total_iterations),
            start=reference, first_iteration=cfg.reference_level)
    finally:
        _RELAY.reset(token)
    report["reference_iterations"] = ref_reports
    report["final_iterations"] = fin_reports
    report["flags"] = flags
    return surface, cleaned, report
