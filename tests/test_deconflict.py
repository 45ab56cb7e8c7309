"""Consistency statistics, pairwise verdicts, and the removal pipeline."""
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrterrain import evaluate, make_tensor_surface
from lrterrain.adaptive import FitConfig, fit
from lrterrain.formats import write_surface_binary
from lrterrain.deconflict import (
    CONSISTENT,
    INDETERMINATE,
    NOT_CONSISTENT,
    SLOPE_CAP,
    DeconflictConfig,
    SampleStats,
    Survey,
    combined_std,
    deconflict,
    deconflict_fit,
    default_scores,
    element_consistency,
    pairwise_element_test,
    students_t_quantile,
    two_sample_t,
)
from oracles import pair_test_per_pair

CFG = DeconflictConfig(tolerance=0.5)
# footprint of the accepted survey in the point-level tests
HI_COVER = (0.0, 1.0, 0.0, 1.0)


# -- t distribution quantile against an independent oracle ---------------


def t_pdf(x, df):
    lg = math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
    return math.exp(lg) / math.sqrt(df * math.pi) * (1 + x * x / df) ** (-(df + 1) / 2)


def quantile_oracle(alpha, df):
    """Bisection on the numerically integrated density."""
    from scipy.integrate import quad

    target = 1 - alpha / 2

    def cdf(q):
        return 0.5 + quad(t_pdf, 0, q, args=(df,))[0]

    lo, hi = 0.0, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("df", [1, 2, 5, 10, 30, 120])
def test_t_quantile_matches_integration_oracle(df):
    got = students_t_quantile(0.05, df)
    want = quantile_oracle(0.05, df)
    assert got == pytest.approx(want, abs=1e-7)


def test_quantiles_are_the_floats_of_scipy_stats():
    # the special functions are called directly; the values must not move
    from scipy import stats

    from lrterrain.deconflict import _std_upper

    dfs = [*range(1, 60), 75, 120, 333, 1000, 2500, 5000, 1.5, 7.25, 123.45]
    for df in dfs:
        for alpha in (0.01, 0.05, 0.1):
            assert students_t_quantile(alpha, df) == float(stats.t.ppf(1 - alpha / 2, df))
    for n in [n for n in dfs if n == int(n)]:
        n = int(n) + 1
        assert _std_upper(2.0, n) == 2.0 * math.sqrt((n - 1) / stats.chi2.ppf(1 - 0.95, n - 1))
    assert students_t_quantile(0.05, math.inf) == float(stats.norm.ppf(0.975))


def test_t_quantile_known_values():
    assert students_t_quantile(0.05, 10) == pytest.approx(2.228, abs=5e-4)
    assert students_t_quantile(0.05, float("inf")) == pytest.approx(1.96, abs=1e-3)


def test_t_quantile_rejects_bad_inputs():
    with pytest.raises(ValueError):
        students_t_quantile(0.0, 10)
    with pytest.raises(ValueError):
        students_t_quantile(0.05, -1)


# -- summary statistics ---------------------------------------------------


def test_sample_stats_and_combination(rng):
    a = rng.normal(2.0, 0.5, 40)
    b = rng.normal(2.2, 0.8, 25)
    xy = rng.uniform(0, 10, (65, 2))
    sa = SampleStats.from_data(xy[:40], a)
    sb = SampleStats.from_data(xy[40:], b)
    assert sa.mean == pytest.approx(a.mean())
    assert sa.std == pytest.approx(np.std(a, ddof=1))
    union = np.concatenate([a, b])
    assert combined_std(sa, sb) == pytest.approx(np.std(union, ddof=1), rel=1e-12)


def test_single_point_stats():
    s = SampleStats.from_data(np.array([[1.0, 2.0]]), np.array([0.3]))
    assert s.n == 1 and s.std is None and s.lo == s.hi == 0.3


def test_two_sample_t_matches_scipy(rng):
    from scipy import stats

    a = rng.normal(0, 1, 30)
    b = rng.normal(0.5, 2, 50)
    xy = rng.uniform(0, 1, (80, 2))
    sa = SampleStats.from_data(xy[:30], a)
    sb = SampleStats.from_data(xy[30:], b)
    out = two_sample_t(sa, sb)
    ref = stats.ttest_ind_from_stats(sa.mean, sa.std, sa.n,
                                     sb.mean, sb.std, sb.n, equal_var=False)
    assert out["t"] == pytest.approx(ref.statistic, rel=1e-12)
    assert out["df_pooled"] == 80 - 1


# -- calibration cases (fixed reference values) ---------------------------

# case A: two dense, agreeing samples sharing most of their footprint
CASE_A_HI = SampleStats(n=152, mean=-0.021, std=0.0088, lo=-0.232, hi=0.250,
                        bbox=(0.0, 43.2, 0.0, 43.15))
CASE_A_CAND = SampleStats(n=86, mean=-0.003, std=0.0046, lo=-0.155, hi=0.172,
                          bbox=(0.1, 42.35, 0.05, 43.2))

# case B: wide-spread candidate whose range escapes the accepted one
CASE_B_HI = SampleStats(n=172, mean=-0.191, std=0.177, lo=-1.05, hi=0.625,
                        bbox=(0.0, 55.2, 0.0, 55.17))
CASE_B_CAND = SampleStats(n=7, mean=-0.028, std=0.326, lo=-0.64, hi=1.19,
                          bbox=(1.0, 50.4, 1.0, 50.3))


def test_calibration_case_a_consistent():
    v, detail = element_consistency(CASE_A_HI, CASE_A_CAND, CFG,
                                    overlap_area=1802.3, combined=0.007)
    assert v == CONSISTENT
    assert all(detail["criteria"])
    # the t statistic is enormous yet advisory only
    assert abs(detail["t"]) == pytest.approx(20.5, rel=0.02)
    assert abs(detail["t"]) > detail["t_limit"]


def test_calibration_case_b_indeterminate():
    v, detail = element_consistency(CASE_B_HI, CASE_B_CAND, CFG)
    assert v == INDETERMINATE
    assert not detail["criteria"][1]       # candidate range escapes
    assert detail["large_std"]


def test_calibration_case_b_subdomains_consistent():
    subs = [
        # disjoint planforms, large pooled spread: proximity logic decides
        (SampleStats(12, -0.65, 0.015, -0.68, -0.62, (0, 10, 0, 10)),
         SampleStats(2, -0.44, 0.040, -0.47, -0.41, (12, 14, 12, 14)), 4.75),
        (SampleStats(87, -0.48, 0.062, -0.60, -0.30, (0, 20, 0, 20)),
         SampleStats(2, -0.35, 0.039, -0.38, -0.32, (25, 27, 25, 27)), 0.537),
        (SampleStats(22, 0.30, 0.004, 0.29, 0.31, (0, 5, 0, 5)),
         SampleStats(1, 0.27, None, 0.27, 0.27, (7, 7, 7, 7)), 0.003),
    ]
    for hi, cand, comb in subs:
        v, _ = element_consistency(hi, cand, CFG, overlap_area=0.0,
                                   combined=comb)
        assert v == CONSISTENT


# -- criterion-level behavior ---------------------------------------------


def mk(n, mean, std, lo, hi, bbox=(0, 10, 0, 10)):
    return SampleStats(n=n, mean=mean, std=std, lo=lo, hi=hi, bbox=bbox)


def test_mean_shift_rejects():
    hi = mk(100, 0.0, 0.02, -0.06, 0.06)
    cand = mk(80, 0.8, 0.02, 0.74, 0.86, bbox=(0.1, 9.9, 0.1, 9.9))
    v, d = element_consistency(hi, cand, CFG)
    assert v == NOT_CONSISTENT
    assert not d["criteria"][0]


def test_small_overlap_softens_rejection_to_indeterminate():
    hi = mk(100, 0.0, 0.02, -0.06, 0.06)
    cand = mk(80, 0.8, 0.02, 0.74, 0.86, bbox=(9.5, 19.5, 0, 10))
    v, _ = element_consistency(hi, cand, CFG)
    assert v == INDETERMINATE


def test_large_std_turns_pass_into_indeterminate():
    hi = mk(100, 0.0, 0.30, -0.9, 0.9)
    cand = mk(90, 0.05, 0.30, -0.85, 0.95, bbox=(0.1, 9.9, 0.1, 9.9))
    v, d = element_consistency(hi, cand, CFG)
    assert d["large_std"]
    assert v == INDETERMINATE


def test_std_growth_rejects():
    # identical tight spreads centered apart but within the mean limit:
    # pooling doubles the spread and criterion 4 catches it
    hi = mk(100, 0.0, 0.05, -0.12, 0.12)
    cand = mk(100, 0.45, 0.05, 0.33, 0.57, bbox=(0.05, 9.95, 0.05, 9.95))
    v, d = element_consistency(hi, cand, CFG)
    assert not d["criteria"][3]
    assert v == NOT_CONSISTENT


def test_disjoint_stats_mean_rule():
    hi = mk(50, 0.0, 0.02, -0.05, 0.05, bbox=(0, 4, 0, 4))
    near = mk(30, 0.3, 0.02, 0.25, 0.35, bbox=(5, 9, 5, 9))
    far = mk(30, 1.2, 0.02, 1.15, 1.25, bbox=(5, 9, 5, 9))
    assert element_consistency(hi, near, CFG)[0] == CONSISTENT
    assert element_consistency(hi, far, CFG)[0] == NOT_CONSISTENT


# -- scale invariance ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(1e-3, 1e3), planar=st.floats(1e-2, 1e2))
def test_verdicts_are_scale_invariant(scale, planar):
    def scaled(s: SampleStats):
        return SampleStats(
            n=s.n, mean=s.mean * scale,
            std=None if s.std is None else s.std * scale,
            lo=s.lo * scale, hi=s.hi * scale,
            bbox=tuple(c * planar for c in s.bbox))

    cfg = DeconflictConfig(tolerance=CFG.tolerance * scale)
    for hi, cand, overlap, comb in [
        (CASE_A_HI, CASE_A_CAND, 1802.3, 0.007),
        (CASE_B_HI, CASE_B_CAND, None, None),
    ]:
        base, _ = element_consistency(hi, cand, CFG, overlap_area=overlap,
                                      combined=comb)
        got, _ = element_consistency(
            scaled(hi), scaled(cand), cfg,
            overlap_area=None if overlap is None else overlap * planar ** 2,
            combined=None if comb is None else comb * scale)
        assert got == base


# -- point-level pairwise test ---------------------------------------------


def two_clouds(rng, offset, hi_x=(0.0, 1.0), cand_x=(0.0, 2.0), n=400):
    hx = rng.uniform(*hi_x, n)
    hy = rng.uniform(0, 1, n)
    hr = rng.normal(0, 0.02, n)
    cx = rng.uniform(*cand_x, n)
    cy = rng.uniform(0, 1, n)
    cr = offset + rng.normal(0, 0.02, n)
    return (np.column_stack([hx, hy]), hr, np.column_stack([cx, cy]), cr)


def test_pairwise_removal_stops_at_data_boundary(rng):
    hi_xy, hi_r, cand_xy, cand_r = two_clouds(rng, offset=2.0)
    v, keep, _, _ = pairwise_element_test(hi_xy, hi_r, cand_xy, cand_r, CFG,
                                       rect=(0, 2, 0, 1), hi_cover=HI_COVER)
    assert v == NOT_CONSISTENT
    # removal reaches the accepted survey's data edge near x = 1, not beyond
    inside = cand_xy[:, 0] <= hi_xy[:, 0].max()
    assert not keep[inside].any()
    beyond = cand_xy[:, 0] > 1.1
    assert keep[beyond].all()


def test_pairwise_consistent_keeps_everything(rng):
    hi_xy, hi_r, cand_xy, cand_r = two_clouds(rng, offset=0.0)
    v, keep, _, _ = pairwise_element_test(hi_xy, hi_r, cand_xy, cand_r, CFG,
                                       rect=(0, 2, 0, 1), hi_cover=HI_COVER)
    assert v == CONSISTENT and keep.all()


def test_pairwise_interior_coverage_removes_all(rng):
    # candidate fully inside the accepted footprint: the bbox shortfall of
    # a finite sample must not leak candidate points at element borders
    hi_xy, hi_r, cand_xy, cand_r = two_clouds(rng, offset=2.0,
                                              cand_x=(0.0, 1.0))
    v, keep, _, _ = pairwise_element_test(hi_xy, hi_r, cand_xy, cand_r, CFG,
                                       rect=(0, 1, 0, 1), hi_cover=HI_COVER)
    assert v == NOT_CONSISTENT
    assert not keep.any()


def test_pairwise_noisy_agreeing_pair_keeps_points(rng):
    # agreement buried in spread comparable to the tolerance: whatever the
    # label, almost nothing may be removed
    n = 500
    hi_xy = np.column_stack([rng.uniform(0, 1, n), rng.uniform(0, 1, n)])
    cand_xy = np.column_stack([rng.uniform(0, 1, n), rng.uniform(0, 1, n)])
    hi_r = rng.normal(0, 0.3, n)
    cand_r = rng.normal(0.05, 0.3, n)
    _, keep, _, _ = pairwise_element_test(hi_xy, hi_r, cand_xy, cand_r, CFG,
                                       rect=(0, 1, 0, 1), hi_cover=HI_COVER)
    assert keep.mean() >= 0.99


def test_pairwise_structured_ambiguity_stays_indeterminate():
    # both surveys alternate +-0.4 on interleaved grids: spreads stay large
    # under every subdivision and no region is empty, so recursion exhausts
    # its depth without a decision anywhere
    g = np.linspace(0.01, 0.99, 16)
    gx, gy = np.meshgrid(g, g)
    hi_xy = np.column_stack([gx.ravel(), gy.ravel()])
    cand_xy = hi_xy + 0.003
    sign = ((np.arange(16)[:, None] + np.arange(16)[None, :]) % 2 * 2 - 1)
    hi_r = 0.4 * sign.ravel().astype(float)
    cand_r = -0.4 * sign.ravel().astype(float)
    v, keep, pending, _ = pairwise_element_test(hi_xy, hi_r, cand_xy, cand_r,
                                                CFG, rect=(0, 1, 0, 1),
                                                hi_cover=HI_COVER)
    assert v == INDETERMINATE and keep.all() and pending.all()


def test_disjoint_far_clusters_kept_despite_level_gap(rng):
    n = 60
    hi_xy = np.column_stack([rng.uniform(0, 1, n), rng.uniform(0, 1, n)])
    cand_xy = np.column_stack([rng.uniform(9, 10, n), rng.uniform(9, 10, n)])
    hi_r = rng.normal(0, 0.02, n)
    cand_r = rng.normal(3.0, 0.02, n)    # way off, but far away too
    v, keep, _, _ = pairwise_element_test(hi_xy, hi_r, cand_xy, cand_r, CFG,
                                       rect=(0, 10, 0, 10), hi_cover=HI_COVER)
    assert v == CONSISTENT and keep.all()


def test_disjoint_near_clusters_need_residual_agreement(rng):
    n = 60
    hi_xy = np.column_stack([rng.uniform(0, 1.0, n), rng.uniform(0, 1, n)])
    cand_xy = np.column_stack([rng.uniform(1.05, 2.0, n), rng.uniform(0, 1, n)])
    hi_r = rng.normal(0, 0.02, n)
    good = rng.normal(0.1, 0.02, n)
    bad = rng.normal(2.0, 0.02, n)
    v1, k1, _, _ = pairwise_element_test(hi_xy, hi_r, cand_xy, good, CFG,
                                      rect=(0, 2, 0, 1), hi_cover=HI_COVER)
    v2, k2, _, _ = pairwise_element_test(hi_xy, hi_r, cand_xy, bad, CFG,
                                      rect=(0, 2, 0, 1), hi_cover=HI_COVER)
    assert v1 == CONSISTENT and k1.all()
    assert v2 == NOT_CONSISTENT


def sloped_reference(slope):
    """The plane z = slope * x on [0, 2.2] x [0, 1]: quadratic B-splines
    reproduce it with their Greville abscissae as coefficients."""
    s = make_tensor_surface((0.0, 2.2, 0.0, 1.0), (2, 2), (5, 3))
    s.coeffs[:] = slope * s.axis_knots(0)[:, 1:-1].mean(axis=1)
    return s


@pytest.mark.parametrize("slope, gap, verdict", [
    (None, 0.8, NOT_CONSISTENT),    # no reference: the level gap must stay within tau
    (2.0, 0.8, CONSISTENT),         # slope 2 over the pair distance 0.2 adds 0.4
    (2.0, 0.95, NOT_CONSISTENT),    # ... and no more
    (50.0, 0.95, CONSISTENT),       # a steep slope adds at most SLOPE_CAP * tau
    (50.0, 1.05, NOT_CONSISTENT),
])
def test_disjoint_near_clusters_slope_allowance(slope, gap, verdict):
    # two 6 x 6 grids 0.2 apart across x = 1.1, the candidate a level gap above
    g = np.linspace(0.0, 1.0, 6)
    gx, gy = (a.ravel() for a in np.meshgrid(g, g))
    hi_xy = np.column_stack([gx, gy])
    cand_xy = np.column_stack([gx + 1.2, gy])
    reference = None
    if slope is not None:
        reference = sloped_reference(slope)
        assert evaluate(reference, 1.1, 0.5, order=1)[0, 1] == pytest.approx(slope)
    assert SLOPE_CAP * CFG.tolerance == 0.5
    v, keep, _, detail = pairwise_element_test(
        hi_xy, np.zeros(36), cand_xy, np.full(36, gap), CFG, rect=(0, 2.2, 0, 1),
        hi_cover=HI_COVER, reference=reference)
    assert detail["rule"] == "disjoint-near" and detail["gap"] == pytest.approx(0.2)
    assert v == verdict
    # a rejection removes nothing outside the accepted survey's footprint
    assert keep.all()


# -- scores ----------------------------------------------------------------


def test_explicit_scores_pass_through(rng):
    pts = rng.uniform(0, 1, (10, 3))
    s = [Survey(pts, name="a", score=0.9), Survey(pts, name="b", score=0.1)]
    assert default_scores(s) == [0.9, 0.1]


def test_metadata_scores_prefer_recent_dense_mbes(rng):
    base = rng.uniform(0, 10, (500, 2))
    mk_pts = lambda n: np.column_stack([base[:n], np.zeros(n)])
    old = Survey(mk_pts(100), name="old",
                 meta={"date": "1995-05-01", "method": "sbes"})
    new = Survey(mk_pts(500), name="new",
                 meta={"date": "2019-08-12", "method": "mbes"})
    lo, hi = default_scores([old, new])
    assert hi > lo


def test_survey_requires_xyz():
    with pytest.raises(ValueError):
        Survey(np.zeros((4, 2)), name="flat")


# -- pipeline ----------------------------------------------------------------


def plane_cloud(rng, xlo, xhi, n, offset=0.0, noise=0.02):
    x = rng.uniform(xlo, xhi, n)
    y = rng.uniform(0, 10, n)
    z = 0.1 * x + 0.05 * y + offset + rng.normal(0, noise, n)
    return np.column_stack([x, y, z])


def small_fit_config():
    return FitConfig(tolerance=0.5, initial_grid=(5, 5))


def test_pipeline_removes_offset_overlap_only():
    rng = np.random.default_rng(3)
    A = plane_cloud(rng, 0.0, 6.5, 4000)
    B = plane_cloud(rng, 3.5, 10.0, 4000, offset=2.0)
    surface, cleaned, report = deconflict_fit(
        [Survey(A, name="A", score=1.0), Survey(B, name="B", score=0.4)],
        small_fit_config(), DeconflictConfig(tolerance=0.5))
    assert len(cleaned[0].points) == len(A)            # winner untouched
    keptB = cleaned[1].points
    over = (keptB[:, 0] >= 3.5) & (keptB[:, 0] <= 6.5)
    b_over_total = ((B[:, 0] >= 3.5) & (B[:, 0] <= 6.5)).sum()
    assert over.sum() <= 0.05 * b_over_total           # overlap gutted
    outside_total = (B[:, 0] > 6.5).sum()
    assert (keptB[:, 0] > 6.5).sum() >= 0.99 * outside_total
    assert report["removed"]["B"] > 0
    assert report["removed"]["A"] == 0


def test_pipeline_control_keeps_consistent_surveys():
    rng = np.random.default_rng(4)
    A = plane_cloud(rng, 0.0, 6.5, 3000)
    B = plane_cloud(rng, 3.5, 10.0, 3000)
    _, cleaned, report = deconflict_fit(
        [Survey(A, name="A", score=1.0), Survey(B, name="B", score=0.4)],
        small_fit_config(), DeconflictConfig(tolerance=0.5))
    kept = len(cleaned[0].points) + len(cleaned[1].points)
    assert kept >= 0.99 * (len(A) + len(B))


def test_pipeline_no_overlap_reports_note():
    rng = np.random.default_rng(5)
    A = plane_cloud(rng, 0.0, 4.0, 1500)
    B = plane_cloud(rng, 6.0, 10.0, 1500, offset=3.0)
    ref_pts = np.concatenate([A, B])
    reference, _, _ = fit(ref_pts, small_fit_config())
    cleaned, report = deconflict(
        [Survey(A, name="A", score=1.0), Survey(B, name="B", score=0.4)],
        reference, DeconflictConfig(tolerance=0.5))
    # offset survey survives: nothing shares an element with it... unless
    # boundary elements span the gap; those resolve through disjoint rules
    assert len(cleaned[1].points) >= 0.99 * len(B)


def test_equal_score_split_survey_accepted():
    # a reference fitted without refinement keeps the elements of its first
    # grid; those of the middle column hold both halves, so the split-survey
    # rule decides them and keeps the offset half
    rng = np.random.default_rng(6)
    A = plane_cloud(rng, 0.0, 4.9, 2000)
    B = plane_cloud(rng, 5.1, 10.0, 2000, offset=1.5)
    reference, _, _ = fit(np.concatenate([A, B]),
                          FitConfig(tolerance=0.5, initial_grid=(5, 5), max_iterations=0))
    cleaned, report = deconflict(
        [Survey(A, name="A", score=0.7), Survey(B, name="B", score=0.7)],
        reference, DeconflictConfig(tolerance=0.5))
    assert report["verdicts"]
    assert [v.get("rule") for v in report["verdicts"]] == ["split-survey"] * len(report["verdicts"])
    assert len(cleaned[0].points) == len(A)
    assert len(cleaned[1].points) == len(B)


def test_split_survey_rule_keeps_equal_score_halves():
    # one element holds both surveys; equal scores and boxes that overlap at
    # most TINY_OVERLAP decide before any residual test, so the offset half
    # stays, while equal-score boxes that overlap more are tested
    rng = np.random.default_rng(8)
    reference = make_tensor_surface((0.0, 10.0, 0.0, 10.0), (2, 2), (3, 3))
    A = plane_cloud(rng, 0.0, 4.9, 500)
    B = plane_cloud(rng, 5.1, 10.0, 500, offset=1.5)
    C = plane_cloud(rng, 3.0, 10.0, 500, offset=1.5)
    _, report = deconflict([Survey(A, name="A", score=0.7),
                            Survey(B, name="B", score=0.7)], reference, CFG)
    assert report["verdicts"] == [{"element": 0, "hi": 0, "cand": 1,
                                   "verdict": CONSISTENT, "rule": "split-survey"}]
    assert report["removed"] == {"A": 0, "B": 0}
    _, report = deconflict([Survey(A, name="A", score=0.7),
                            Survey(C, name="C", score=0.7)], reference, CFG)
    assert [v["verdict"] for v in report["verdicts"]] == [NOT_CONSISTENT]
    assert "rule" not in report["verdicts"][0]
    assert report["removed"]["A"] == 0 and report["removed"]["C"] > 0


def test_deconflict_fit_iteration_accounting():
    rng = np.random.default_rng(7)
    A = plane_cloud(rng, 0.0, 6.5, 2000)
    B = plane_cloud(rng, 3.5, 10.0, 2000, offset=2.0)
    cfg = DeconflictConfig(tolerance=0.5, reference_level=2,
                           total_iterations=5)
    _, _, report = deconflict_fit(
        [Survey(A, name="A", score=1.0), Survey(B, name="B", score=0.4)],
        small_fit_config(), cfg)
    ref_rows = report["reference_iterations"]
    fin_rows = report["final_iterations"]
    assert ref_rows[0].iteration == 0
    assert ref_rows[-1].iteration <= 2
    assert fin_rows[0].iteration == 2
    assert fin_rows[-1].iteration <= 5


def test_mismatched_tolerances_rejected():
    rng = np.random.default_rng(8)
    A = plane_cloud(rng, 0, 10, 500)
    with pytest.raises(ValueError):
        deconflict_fit([Survey(A, name="A")],
                       FitConfig(tolerance=0.3),
                       DeconflictConfig(tolerance=0.5))


def test_deconflict_fit_rejects_non_finite_points():
    rng = np.random.default_rng(7)
    A = plane_cloud(rng, 0.0, 6.5, 500)
    B = plane_cloud(rng, 3.5, 10.0, 500)
    B[3, 2] = np.nan
    with pytest.raises(ValueError, match="survey 'B' points must be finite"):
        deconflict_fit([Survey(A, name="A"), Survey(B, name="B")],
                       small_fit_config(), DeconflictConfig(tolerance=0.5))


def test_deconflict_fit_names_missing_input():
    cfg = DeconflictConfig(tolerance=0.5)
    with pytest.raises(ValueError, match="no surveys given"):
        deconflict_fit([], small_fit_config(), cfg)
    A = plane_cloud(np.random.default_rng(7), 0.0, 6.5, 500)
    with pytest.raises(ValueError, match="survey 'B' has no points"):
        deconflict_fit([Survey(A, name="A"), Survey(np.empty((0, 3)), name="B")],
                       small_fit_config(), cfg)


# -- pairs in arrays -------------------------------------------------------


@st.composite
def summary_pair(draw):
    """Two samples' statistics: single points (no std), samples below
    MIN_DECIDE, large and zero spreads, boxes that overlap a little or not
    at all, and candidates equal to the accepted sample."""
    def sample():
        n = draw(st.sampled_from([1, 2, 3, 9, 10, 11, 40, 500]))
        mean = draw(st.floats(-1.0, 1.0))
        std = None if n == 1 else draw(st.sampled_from([0.0, 0.004, 0.05, 0.2, 0.6]))
        lo = mean - draw(st.floats(0.0, 1.5))
        x0, y0 = draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 10.0))
        w = draw(st.sampled_from([0.0, 0.5, 3.0, 10.0]))
        return SampleStats(n, mean, std, lo, mean + draw(st.floats(0.0, 1.5)),
                           (x0, x0 + w, y0, y0 + w))

    hi = sample()
    return hi, (hi if draw(st.booleans()) and draw(st.booleans()) else sample())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(summary_pair(), min_size=1, max_size=12))
def test_deciding_pairs_in_one_call_matches_one_pair_calls(pairs):
    from lrterrain.deconflict import _decide, _detail, _stats_of, _VERDICTS

    his, cands = [h for h, _ in pairs], [c for _, c in pairs]
    cols = _decide(_stats_of(his), _stats_of(cands), CFG.tolerance)
    for k, (hi, cand) in enumerate(pairs):
        verdict, detail = element_consistency(hi, cand, CFG)
        assert _VERDICTS[cols["verdict"][k]] == verdict
        assert _detail(cols, k) == detail


def point_pair(rng):
    """One accepted and one candidate sample in the unit square: few or many
    points, boxes that overlap fully, partly or not at all, and candidate
    levels from agreeing to far off."""
    def cloud(n, box, level, noise):
        x = rng.uniform(box[0], box[1], n)
        y = rng.uniform(box[2], box[3], n)
        return np.column_stack([x, y]), level + 0.3 * x + rng.normal(0, noise, n)

    boxes = [(0.0, 1.0, 0.0, 1.0), (0.0, 0.55, 0.0, 1.0), (0.45, 1.0, 0.2, 0.9),
             (0.7, 1.0, 0.0, 0.3), (0.1, 0.4, 0.6, 0.9)]
    hi = cloud(int(rng.choice([1, 3, 12, 30, 80])), boxes[rng.integers(len(boxes))],
               0.0, rng.choice([0.005, 0.02, 0.3]))
    cand = cloud(int(rng.choice([1, 2, 3, 5, 15, 45, 120])), boxes[rng.integers(len(boxes))],
                 rng.choice([0.0, 0.05, 0.3, 1.2]), rng.choice([0.005, 0.02, 0.3]))
    return hi, cand


@pytest.mark.parametrize("seed", range(6))
def test_pair_tests_in_arrays_match_one_pair_calls(seed):
    # N pairs through one batched test give each pair the verdict, keep,
    # pending and detail of a one-pair call, and the verdict, keep and
    # pending of the per-pair oracle (t within 1e-12 relative)
    from lrterrain.deconflict import _detail, _test_pairs, _VERDICTS

    rng = np.random.default_rng(seed)
    pairs = [point_pair(rng) for _ in range(25)]
    reference = sloped_reference(1.0)
    rect, cover = (0.0, 1.0, 0.0, 1.0), (0.0, 0.8, 0.0, 1.0)
    xy = np.concatenate([a for (h, c) in pairs for a in (h[0], c[0])])
    r = np.concatenate([a for (h, c) in pairs for a in (h[1], c[1])])
    sizes = [len(a[1]) for p in pairs for a in p]
    at = np.cumsum(sizes) - sizes
    hi = np.concatenate([np.arange(at[2 * k], at[2 * k] + sizes[2 * k]) for k in range(len(pairs))])
    cand = np.concatenate([np.arange(at[2 * k + 1], at[2 * k + 1] + sizes[2 * k + 1])
                           for k in range(len(pairs))])
    verdict, keep, pending, cols, disjoint, subdivided = _test_pairs(
        xy, r, hi, np.array(sizes[::2]), cand, np.array(sizes[1::2]),
        np.tile(rect, (len(pairs), 1)), np.tile(cover, (len(pairs), 1)),
        [math.hypot(1.0, 1.0)] * len(pairs), CFG.tolerance, reference, 0)
    cut = np.cumsum(sizes[1::2])[:-1]
    rules = set()
    for k, ((h_xy, h_r), (c_xy, c_r)), k_keep, k_pend in zip(
            range(len(pairs)), pairs, np.split(keep, cut), np.split(pending, cut)):
        v, one_keep, one_pend, detail = pairwise_element_test(
            h_xy, h_r, c_xy, c_r, CFG, rect, cover, reference=reference)
        assert _VERDICTS[verdict[k]] == v
        assert np.array_equal(k_keep, one_keep) and np.array_equal(k_pend, one_pend)
        want = {**_detail(cols, k), **disjoint.get(k, {})}
        if subdivided[k]:
            want["subdivided"] = True
        assert want == detail
        rules.add(detail.get("rule", "subdivided" if subdivided[k] else v))
        o_v, o_keep, o_pend, o_t = pair_test_per_pair(h_xy, h_r, c_xy, c_r, CFG.tolerance,
                                                      rect, cover, reference)
        assert (o_v, o_keep.tolist(), o_pend.tolist()) == (v, one_keep.tolist(),
                                                           one_pend.tolist())
        assert (o_t is None) == ("t" not in detail)
        if o_t is not None:
            assert detail["t"] == pytest.approx(o_t, rel=1e-12)
    # the pairs reach the sub-domain and the disjoint rules
    assert "subdivided" in rules and rules & {"disjoint-far", "disjoint-near"}


def two_surveys(seed, n=1500):
    rng = np.random.default_rng(seed)
    return [Survey(plane_cloud(rng, 0.0, 6.5, n), name="A", score=1.0),
            Survey(plane_cloud(rng, 3.5, 10.0, n, offset=2.0), name="B", score=0.4)]


@pytest.mark.parametrize("fit_config, cfg, stop", [
    # refines to its cap; the final fit's first pass is a correction sweep
    (FitConfig(tolerance=0.5, initial_grid=(5, 5), n_ls=0),
     DeconflictConfig(tolerance=0.5, reference_level=2, total_iterations=4), None),
    (FitConfig(tolerance=0.5, initial_grid=(5, 5)),
     DeconflictConfig(tolerance=0.5, reference_level=1, total_iterations=3), None),
    # the reference converges before its cap
    (FitConfig(tolerance=5.0, initial_grid=(5, 5), n_ls=0),
     DeconflictConfig(tolerance=5.0, reference_level=3, total_iterations=5), "converged"),
    # the reference freezes at the width floor before its cap
    (FitConfig(tolerance=0.5, initial_grid=(5, 5), n_ls=0, min_width_fraction=0.2),
     DeconflictConfig(tolerance=0.5, reference_level=4, total_iterations=6), "frozen"),
])
def test_deconflict_fit_is_fit_deconflict_fit(tmp_path, fit_config, cfg, stop):
    surveys = two_surveys(11)
    surface, cleaned, report = deconflict_fit(surveys, fit_config, cfg)
    all_pts = np.concatenate([s.points for s in surveys])
    reference, ref_reports, ref_flags = fit(
        all_pts, replace(fit_config, max_iterations=cfg.reference_level))
    if stop is not None:
        assert ref_flags[stop] and ref_flags["iterations"] < cfg.reference_level
    want_cleaned, want_report = deconflict(surveys, reference, cfg)
    want, fin_reports, flags = fit(
        np.concatenate([s.points for s in want_cleaned]),
        replace(fit_config, max_iterations=cfg.total_iterations),
        start=reference, first_iteration=cfg.reference_level)
    write_surface_binary(surface, tmp_path / "got.lrs")
    write_surface_binary(want, tmp_path / "want.lrs")
    assert (tmp_path / "got.lrs").read_bytes() == (tmp_path / "want.lrs").read_bytes()
    assert [c.points.tobytes() for c in cleaned] == [c.points.tobytes() for c in want_cleaned]
    assert report == {**want_report, "reference_iterations": ref_reports,
                      "final_iterations": fin_reports, "flags": flags}


def test_deconflict_fit_computes_no_distance_field(monkeypatch):
    from lrterrain.evaluate import distance_field

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return distance_field(*args, **kwargs)

    # the package attribute ``lrterrain.deconflict`` is the function
    monkeypatch.setattr(sys.modules["lrterrain.deconflict"], "distance_field", counted)
    surveys = two_surveys(12)
    deconflict_fit(surveys, small_fit_config(), DeconflictConfig(tolerance=0.5))
    assert calls == []
    # the public deconflict computes its own fields, one per survey
    reference, _, _ = fit(np.concatenate([s.points for s in surveys]), small_fit_config())
    deconflict(surveys, reference, DeconflictConfig(tolerance=0.5))
    assert calls == [1, 1]
