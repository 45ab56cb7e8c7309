"""Release gates: one test per required behavior, at its stated tolerance.

Every test here is pinned to fixed seeds and fixed thresholds on purpose.
These are the checks a build has to clear before it ships; they overlap
with the unit suites but run end to end and at realistic sizes.
"""
import json
import time

import numpy as np
import pytest

from conftest import mba_fit, random_refined_surface
from test_least_squares import numeric_energy

from lrterrain import (
    Segment,
    evaluate,
    fit,
    insert_segment,
    make_tensor_surface,
)
from lrterrain.adaptive import FitConfig
from lrterrain.benchmark import benchmark_points, benchmark_terrain
from lrterrain.cli import main
from lrterrain.deconflict import (
    CONSISTENT,
    INDETERMINATE,
    DeconflictConfig,
    SampleStats,
    Survey,
    deconflict_fit,
    element_consistency,
    students_t_quantile,
    two_sample_t,
)
from lrterrain.evaluate import basis_matrix, partition_of_unity
from lrterrain.formats import write_survey_text
from lrterrain.least_squares import (
    SmoothingWeights,
    fit_least_squares,
    smoothing_matrix,
)
from lrterrain.tiling import fit_tiles, make_tiles, stitch_grid

# reference samples for the statistical gates: two dense agreeing surveys
# (case A), a wide-spread candidate escaping the accepted range (case B),
# and three disjoint-footprint sub-domain pairs of case B
CASE_A_HI = SampleStats(n=152, mean=-0.021, std=0.0088, lo=-0.232, hi=0.250,
                        bbox=(0.0, 43.2, 0.0, 43.15))
CASE_A_CAND = SampleStats(n=86, mean=-0.003, std=0.0046, lo=-0.155, hi=0.172,
                          bbox=(0.1, 42.35, 0.05, 43.2))
CASE_B_HI = SampleStats(n=172, mean=-0.191, std=0.177, lo=-1.05, hi=0.625,
                        bbox=(0.0, 55.2, 0.0, 55.17))
CASE_B_CAND = SampleStats(n=7, mean=-0.028, std=0.326, lo=-0.64, hi=1.19,
                          bbox=(1.0, 50.4, 1.0, 50.3))
CASE_B_SUBS = [
    (SampleStats(12, -0.65, 0.015, -0.68, -0.62, (0, 10, 0, 10)),
     SampleStats(2, -0.44, 0.040, -0.47, -0.41, (12, 14, 12, 14)), 4.75),
    (SampleStats(87, -0.48, 0.062, -0.60, -0.30, (0, 20, 0, 20)),
     SampleStats(2, -0.35, 0.039, -0.38, -0.32, (25, 27, 25, 27)), 0.537),
    (SampleStats(22, 0.30, 0.004, 0.29, 0.31, (0, 5, 0, 5)),
     SampleStats(1, 0.27, None, 0.27, 0.27, (7, 7, 7, 7)), 0.003),
]


def test_criterion_01_partition_of_unity():
    # 10 seeds x 200 random refinements, checked at 1e4 points each
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        s = random_refined_surface(seed, n_inserts=200)
        rng = np.random.default_rng(seed + 1000)
        x = rng.uniform(0.0, 1.0, 10_000)
        y = rng.uniform(0.0, 1.0, 10_000)
        worst = max(worst, float(np.abs(partition_of_unity(s, x, y) - 1).max()))
    assert worst <= 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_refinement_preserves_geometry():
    """Inserting segments must not move the surface.

    Each seed refines 60 times, freezes a random geometry, then runs the
    remaining 140 refinement attempts of the suite on top of it.
    """
    worst = 0.0
    for seed in range(10):
        s = random_refined_surface(seed, n_inserts=60)
        rng = np.random.default_rng(seed + 500)
        x = rng.uniform(0.0, 1.0, 2000)
        y = rng.uniform(0.0, 1.0, 2000)
        before = evaluate(s, x, y)
        zrange = float(before.max() - before.min())
        r2 = np.random.default_rng(seed + 900)
        for _ in range(140):
            i = int(r2.integers(len(s)))
            b = s.bsplines[i]
            axis = int(r2.integers(2))
            kn = b.knots[axis]
            spans = [(kn[j], kn[j + 1]) for j in range(len(kn) - 1)
                     if kn[j + 1] > kn[j]]
            lo, hi = spans[int(r2.integers(len(spans)))]
            other = b.knots[1 - axis]
            try:
                insert_segment(s, Segment(axis, 0.5 * (lo + hi),
                                          other[0], other[-1]))
            except ValueError:
                pass  # span already occupied, still counts as an attempt
        after = evaluate(s, x, y)
        worst = max(worst, float(np.abs(after - before).max()) / zrange)
    assert worst <= 1e-9


def test_criterion_03_two_sample_t_reference_values():
    out = two_sample_t(CASE_A_HI, CASE_A_CAND)
    assert abs(out["t"]) == pytest.approx(20.5, rel=0.02)
    assert students_t_quantile(0.05, float("inf")) == pytest.approx(1.96,
                                                                    abs=1e-3)


def test_criterion_04_element_verdicts_reference_cases():
    cfg = DeconflictConfig(tolerance=0.5)
    v, _ = element_consistency(CASE_A_HI, CASE_A_CAND, cfg,
                               overlap_area=1802.3, combined=0.007)
    assert v == CONSISTENT
    v, _ = element_consistency(CASE_B_HI, CASE_B_CAND, cfg)
    assert v == INDETERMINATE
    for hi, cand, comb in CASE_B_SUBS:
        v, _ = element_consistency(hi, cand, cfg, overlap_area=0.0,
                                   combined=comb)
        assert v == CONSISTENT


def test_criterion_05_adaptive_benchmark_budget():
    # 1e5 scattered points, tolerance 0.5% of the elevation range
    pts, tau = benchmark_points(100_000, seed=2024)
    t0 = time.perf_counter()
    surface, reports, flags = fit(pts, FitConfig(tolerance=tau))
    dt = time.perf_counter() - t0
    avg = [r.avg_dist for r in reports]
    out = [r.n_out for r in reports]
    assert all(b < a for a, b in zip(avg, avg[1:]))
    # out-of-tolerance counts fall by at least 30% per early iteration
    assert len(out) >= 6
    for a, b in zip(out[:5], out[1:6]):
        assert b <= 0.7 * a
    assert reports[-1].n_coefficients <= 0.10 * len(pts)
    assert dt < 60.0


def _wavy(x, y):
    return (2.0 * np.sin(0.12 * x) * np.cos(0.09 * y)
            + 1.2 * np.sin(0.31 * x + 0.7) + 0.8 * np.cos(0.23 * y)
            + 0.02 * x + 3.0)


def _partial_overlap_pair(seed: int, offset: float, tau: float):
    """Two 30k-point surveys whose footprints share a band.

    The first covers x in [0, 50], the second x in [25, 75]; the shared
    band is a third of the combined footprint.  ``offset`` is added to the
    second survey inside the band only.
    """
    rng = np.random.default_rng(seed)
    n = 30_000
    xy1 = rng.uniform(0.0, 50.0, (n, 2))
    z1 = _wavy(xy1[:, 0], xy1[:, 1]) + rng.normal(0.0, tau / 20, n)
    xy2 = rng.uniform(25.0, 75.0, (n, 2)).astype(float)
    xy2[:, 1] = rng.uniform(0.0, 50.0, n)
    z2 = _wavy(xy2[:, 0], xy2[:, 1]) + rng.normal(0.0, tau / 20, n)
    z2[xy2[:, 0] <= 50.0] += offset
    return (Survey(np.column_stack([xy1, z1]), name="new", score=1.0),
            Survey(np.column_stack([xy2, z2]), name="old", score=0.5))


def test_criterion_06_offset_survey_removal():
    tau = 0.5
    cfg = DeconflictConfig(tolerance=tau)
    fc = FitConfig(tolerance=tau, initial_grid=(8, 8))
    n = 30_000
    for seed in (1, 21, 31, 41):
        s1, s2 = _partial_overlap_pair(seed, offset=4 * tau, tau=tau)
        n_ov = int(np.sum(s2.points[:, 0] <= 50.0))
        _, cleaned, _ = deconflict_fit([s1, s2], fit_config=fc, cfg=cfg)
        kept2 = cleaned[1].points
        k_ov = int(np.sum(kept2[:, 0] <= 50.0))
        removal = 1.0 - k_ov / n_ov
        retained = (len(cleaned[0].points) + len(kept2) - k_ov) / (2 * n - n_ov)
        assert removal >= 0.99, f"seed {seed}: removal {removal:.4f}"
        assert retained >= 0.99, f"seed {seed}: retention {retained:.4f}"
    # control: same footprints sampling one shared surface, no offset
    s1, s2 = _partial_overlap_pair(1, offset=0.0, tau=tau)
    _, cleaned, _ = deconflict_fit([s1, s2], fit_config=fc, cfg=cfg)
    keep = (len(cleaned[0].points) + len(cleaned[1].points)) / (2 * n)
    assert keep >= 0.99, f"control keep {keep:.4f}"


def _edge_gap(a, b, axis=0, n=1000, order=0):
    if axis == 0:
        t = np.linspace(a.domain[2], a.domain[3], n)
        fa = evaluate(a, np.full(n, a.domain[1]), t, order=order)
        fb = evaluate(b, np.full(n, a.domain[1]), t, order=order)
    else:
        t = np.linspace(a.domain[0], a.domain[1], n)
        fa = evaluate(a, t, np.full(n, a.domain[3]), order=order)
        fb = evaluate(b, t, np.full(n, a.domain[3]), order=order)
    return np.max(np.abs(fa - fb), axis=0)


def test_criterion_07_tiled_benchmark_continuity():
    pts, tau = benchmark_points(40_000, seed=7)
    tiles = make_tiles((0.0, 100.0, 0.0, 100.0), (2, 2), overlap=0.05)
    fits = fit_tiles(pts, tiles, FitConfig(tolerance=tau, max_iterations=4,
                                           initial_grid=(8, 8)))
    edges = [(0, 1, 0), (2, 3, 0), (0, 2, 1), (1, 3, 1)]

    S = stitch_grid(fits, (2, 2), c1=False)
    for i, j, ax in edges:
        assert _edge_gap(S[i], S[j], axis=ax) <= 1e-10

    S = stitch_grid(fits, (2, 2), c1=True)
    scale = max(np.max(np.abs(evaluate(s, np.linspace(*s.domain[:2], 40),
                                       np.linspace(*s.domain[2:], 40),
                                       order=1)[:, 1:])) for s in S)
    for i, j, ax in edges:
        gaps = _edge_gap(S[i], S[j], axis=ax, order=1)
        assert gaps[0] <= 1e-10
        assert max(gaps[1:]) <= 1e-7 * scale


def test_criterion_08_least_squares_beats_mba_ssr():
    """Global solve vs local averaging on one fixed 324-coefficient space."""
    space = ((0.0, 1.0, 0.0, 1.0), (2, 2), (16, 16))
    rng = np.random.default_rng(3)
    n = 20_000
    x = rng.uniform(0.0, 1.0, n)
    y = rng.uniform(0.0, 1.0, n)
    z = np.sin(3 * x) * np.cos(2 * y) + 0.5 * x
    pts = np.column_stack([x, y, z])

    a = make_tensor_surface(*space)
    assert len(a) <= 400
    fit_least_squares(a, pts, alpha1=1e-9)
    ssr_ls = float(((evaluate(a, x, y) - z) ** 2).sum())
    b = make_tensor_surface(*space)
    mba_fit(b, pts, sweeps=5)
    ssr_mba = float(((evaluate(b, x, y) - z) ** 2).sum())
    assert ssr_ls <= ssr_mba

    # both solvers reproduce a plane through scattered data
    g = np.linspace(0.0, 1.0, 70)
    gx, gy = [v.ravel() for v in np.meshgrid(g, g)]
    gz = gx + 2 * gy
    plane = np.column_stack([gx, gy, gz])
    a = make_tensor_surface(*space)
    fit_least_squares(a, plane, alpha1=1e-9)
    assert float(np.abs(evaluate(a, gx, gy) - gz).max()) <= 1e-6
    b = make_tensor_surface(*space)
    mba_fit(b, plane, sweeps=60)
    assert float(np.abs(evaluate(b, gx, gy) - gz).max()) <= 1e-6


def test_criterion_09_smoothing_energy_closed_form():
    # 50 random quadratics, closed-form energy against brute quadrature
    rng = np.random.default_rng(99)
    s = make_tensor_surface((0.0, 1.0, 0.0, 1.0), (2, 2), (8, 8))
    gx = rng.uniform(0.0, 1.0, 2000)
    gy = rng.uniform(0.0, 1.0, 2000)
    B, _ = basis_matrix(s, gx, gy)
    Bd = B.toarray() if hasattr(B, "toarray") else np.asarray(B)
    w = SmoothingWeights(w1=0.3, w2=1.0)
    worst = 0.0
    for _ in range(50):
        a, b, c, d, e, f = rng.uniform(-1.0, 1.0, 6)
        z = a + b * gx + c * gy + d * gx * gx + e * gx * gy + f * gy * gy
        coef, *_ = np.linalg.lstsq(Bd, z, rcond=None)
        s.coeffs[:] = coef
        s.bump()
        J = s.coeffs @ smoothing_matrix(s, w) @ s.coeffs
        worst = max(worst, abs(J - numeric_energy(s, w)))
    assert worst <= 1e-10


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    pts, tau = benchmark_points(6000, seed=3)
    p = tmp_path / "bench.xyz"
    write_survey_text(p, pts, {"id": "bench"})
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.lrs"
        rep = tmp_path / f"{tag}.tsv"
        assert main(["fit", str(p), "--tolerance", str(4 * tau),
                     "--max-iter", "2", "-o", str(out),
                     "--report", str(rep)]) == 0
        paths.append((out, rep))
    capsys.readouterr()
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    rng = np.random.default_rng(6)

    def survey(n, bbox, bias=0.0):
        x = rng.uniform(bbox[0], bbox[1], n)
        y = rng.uniform(bbox[2], bbox[3], n)
        z = benchmark_terrain(x, y) + bias + rng.normal(0.0, 0.02, n)
        return np.column_stack([x, y, z])

    new, old = tmp_path / "new.xyz", tmp_path / "old.xyz"
    write_survey_text(new, survey(5000, (0, 100, 0, 100)),
                      {"id": "new", "score": "8"})
    write_survey_text(old, survey(3000, (30, 70, 30, 70), bias=1.5),
                      {"id": "old", "score": "3"})
    outs = []
    for tag in ("c", "d"):
        out = tmp_path / f"{tag}.lrs"
        rep = tmp_path / f"{tag}.json"
        assert main(["deconflict", str(new), str(old), "--tolerance", "0.35",
                     "--level", "2", "--total", "3", "-o", str(out),
                     "--report", str(rep),
                     "--outdir", str(tmp_path / tag)]) == 0
        outs.append((out, rep))
    capsys.readouterr()
    assert outs[0][0].read_bytes() == outs[1][0].read_bytes()
    assert outs[0][1].read_bytes() == outs[1][1].read_bytes()
    assert json.loads(outs[0][1].read_text())["removed"]["old"] > 2700
