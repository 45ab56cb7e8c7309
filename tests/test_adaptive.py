import numpy as np
import pytest

from lrterrain import evaluate
from lrterrain.adaptive import FitConfig, IterationReport, fit, refine_step
from lrterrain.benchmark import benchmark_points, benchmark_terrain


def test_plane_converges_immediately(rng):
    x = rng.uniform(0, 10, 2000)
    y = rng.uniform(0, 10, 2000)
    pts = np.column_stack([x, y, 0.5 * x - y + 3])
    surface, reports, flags = fit(pts, FitConfig(tolerance=1e-6, max_iterations=7))
    assert flags["converged"]
    assert len(reports) <= 2
    assert reports[-1].n_out == 0


def test_zero_iterations_returns_initial_fit(rng):
    pts, tau = benchmark_points(3000)
    surface, reports, flags = fit(pts, FitConfig(tolerance=tau, max_iterations=0))
    assert len(reports) == 1
    assert reports[0].iteration == 0
    assert len(surface.bsplines) == 49


def test_empty_points_raise():
    with pytest.raises(ValueError):
        fit(np.empty((0, 3)))


@pytest.mark.parametrize("alpha1", [1.0, 2.0, -1.0, -1e-9, float("nan"), float("inf")])
def test_alpha1_outside_unit_interval_is_rejected(alpha1):
    # alpha1 weighs smoothing against data in alpha1 J + (1 - alpha1) SSR
    with pytest.raises(ValueError, match="alpha1"):
        FitConfig(alpha1=alpha1)
    assert FitConfig(alpha1=0.0).alpha1 == 0.0
    assert FitConfig(alpha1=0.5).alpha1 == 0.5


def test_negative_degree_is_rejected():
    # a negative degree used to reach basis_matrix and divide by zero there
    with pytest.raises(ValueError, match="degrees must be >= 0"):
        FitConfig(degrees=(-1, 2))
    assert FitConfig(degrees=(0, 2)).degrees == (0, 2)


def test_collinear_points_raise(rng):
    t = rng.uniform(0, 1, 100)
    pts = np.column_stack([t, np.full(100, 0.3), t])
    with pytest.raises(ValueError, match="collinear|degenerate"):
        fit(pts)


def test_benchmark_error_trend():
    pts, tau = benchmark_points(20_000)
    surface, reports, flags = fit(pts, FitConfig(tolerance=tau, max_iterations=7))
    avg = [r.avg_dist for r in reports]
    assert all(b < a for a, b in zip(avg, avg[1:]))
    out = [r.n_out for r in reports]
    for a, b in zip(out, out[1:]):
        if a > 50:
            assert b <= 0.7 * a
    assert flags["converged"]
    # approximation is real: surface tracks the noise-free terrain
    rng = np.random.default_rng(0)
    gx = rng.uniform(1, 99, 500)
    gy = rng.uniform(1, 99, 500)
    err = np.abs(evaluate(surface, gx, gy) - benchmark_terrain(gx, gy))
    assert err.mean() < 2 * tau


def test_reports_have_growing_space():
    pts, tau = benchmark_points(8000)
    _, reports, _ = fit(pts, FitConfig(tolerance=tau, max_iterations=4))
    n = [r.n_coefficients for r in reports]
    assert all(b > a for a, b in zip(n, n[1:]))
    sizes = [r.size_bytes for r in reports]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_contradictory_data_freezes(rng):
    # two incompatible heights at identical planform locations can never
    # satisfy the tolerance; the width floor must stop refinement
    x = rng.uniform(0, 1, 400)
    y = rng.uniform(0, 1, 400)
    pts = np.vstack([
        np.column_stack([x, y, np.zeros(400)]),
        np.column_stack([x, y, np.ones(400)]),
    ])
    cfg = FitConfig(tolerance=0.01, max_iterations=30,
                    min_width_fraction=2.0 ** -4)
    surface, reports, flags = fit(pts, cfg)
    assert not flags["converged"]
    assert flags["frozen"]


def test_mba_iterations_still_reduce_error():
    # force the switch after a single LS pass
    pts, tau = benchmark_points(10_000)
    cfg = FitConfig(tolerance=tau, max_iterations=6, n_ls=1)
    _, reports, flags = fit(pts, cfg)
    avg = [r.avg_dist for r in reports]
    assert avg[-1] < avg[1]
    assert reports[-1].n_out < reports[1].n_out


def test_determinism_rows():
    pts, tau = benchmark_points(5000)
    _, r1, _ = fit(pts, FitConfig(tolerance=tau, max_iterations=3))
    _, r2, _ = fit(pts, FitConfig(tolerance=tau, max_iterations=3))
    assert [r.row() for r in r1] == [r.row() for r in r2]


def test_explicit_domain_filters_points(rng):
    pts, tau = benchmark_points(5000)
    surface, reports, flags = fit(
        pts, FitConfig(tolerance=tau, max_iterations=2),
        domain=(20.0, 80.0, 20.0, 80.0))
    assert surface.domain == (20.0, 80.0, 20.0, 80.0)


def test_refine_step_no_out_of_tol_is_noop(rng):
    from lrterrain import make_tensor_surface
    from lrterrain.evaluate import distance_field

    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7), coeff=1.0)
    pts = np.column_stack([rng.uniform(0, 1, 100), rng.uniform(0, 1, 100),
                           np.ones(100)])
    fld = distance_field(s, pts, 0.1)
    counts = refine_step(s, fld, FitConfig(tolerance=0.1))
    assert counts == {"inserted": 0, "frozen": 0}
    assert len(s) == 49


def test_report_row_format():
    r = IterationReport(2, 100, 5000, 1.5, 0.25, 42)
    parts = r.row().split("\t")
    assert parts[0] == "2"
    assert parts[1] == "100"
    assert parts[-1] == "42"
    assert len(IterationReport.header().split("\t")) == 6


@pytest.mark.parametrize("row, col, value", [(17, 2, np.nan), (5, 0, np.inf)])
def test_non_finite_points_raise(row, col, value):
    pts, tau = benchmark_points(3000)
    pts[row, col] = value
    with pytest.raises(ValueError, match=f"finite; row {row}"):
        fit(pts, FitConfig(tolerance=tau, max_iterations=1))


def test_converged_benchmark_fit_is_full_rank():
    # local linear dependence is a known hazard of LR refinement; the
    # converged benchmark space must keep every B-spline independent
    from oracles import independence_report
    pts, tau = benchmark_points(100_000)
    surface, _, flags = fit(pts, FitConfig(tolerance=tau))
    assert flags["converged"]
    rep = independence_report(surface)
    assert rep["full_rank"], (rep["rank"], rep["n_bsplines"])


def test_fresh_first_pass_is_least_squares_with_idw_prior(monkeypatch):
    # a fresh tensor space starts from least squares with the data's IDW
    # prior, even when first_iteration is past n_ls; later passes sweep
    import lrterrain.adaptive as adaptive

    priors, calls = [], []
    real_idw, real_ls = adaptive.idw_prior, adaptive.fit_least_squares
    real_sweep = adaptive.mba_update

    def idw(pts):
        priors.append(real_idw(pts))
        return priors[-1]

    def ls(surface, pts, prior=None, **kwargs):
        calls.append(("ls", prior))
        return real_ls(surface, pts, prior=prior, **kwargs)

    def sweep(*args, **kwargs):
        calls.append(("sweep", None))
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(adaptive, "idw_prior", idw)
    monkeypatch.setattr(adaptive, "fit_least_squares", ls)
    monkeypatch.setattr(adaptive, "mba_update", sweep)
    pts, tau = benchmark_points(4000)
    _, reports, _ = fit(pts, FitConfig(tolerance=tau, max_iterations=6, n_ls=1),
                        first_iteration=4)
    assert len(priors) == 1 and calls[0] == ("ls", priors[0])
    assert calls[1:] == [("sweep", None)] * (len(reports) - 1)
    assert len(reports) == 3


def _resumed_fit(pts, tau):
    """A fit, then a resume on the same points that starts in MBA sweeps
    (iteration 4 > n_ls) and so takes its residuals from z - F."""
    s, _, _ = fit(pts, FitConfig(tolerance=tau, max_iterations=2))
    return fit(pts, FitConfig(tolerance=tau, max_iterations=5), start=s,
               first_iteration=4)


def test_fit_residuals_agree_with_distance_field(monkeypatch):
    # every field fit measures (z - F on the pass's one gather), and
    # every residual a correction sweep gets, is the distance field of the
    # surface at that moment
    import lrterrain.adaptive as adaptive
    from lrterrain.evaluate import distance_field

    real_field, real_sweep, seen = adaptive._approximate, adaptive.mba_update, []

    def close(r, surface, pts):
        ref = distance_field(surface, pts, 1.0)
        assert np.abs(r - ref["residual"]).max() <= 1e-12 * np.abs(pts[:, 2]).max()
        return ref

    def field(surface, pts, *args, **kwargs):
        fld = real_field(surface, pts, *args, **kwargs)
        ref = close(fld["residual"], surface, pts)
        np.testing.assert_array_equal(fld["element_id"], ref["element_id"])
        seen.append("field")
        return fld

    def sweep(surface, pts, residuals, **kwargs):
        close(residuals, surface, pts)
        seen.append("sweep")
        return real_sweep(surface, pts, residuals, **kwargs)

    monkeypatch.setattr(adaptive, "_approximate", field)
    monkeypatch.setattr(adaptive, "mba_update", sweep)
    pts, tau = benchmark_points(4000)
    _resumed_fit(pts, tau)
    assert seen == ["field"] * 3 + ["sweep", "field"] * 2


def test_fit_never_calls_distance_field(monkeypatch):
    import sys

    def raiser(*args, **kwargs):
        raise AssertionError("fit called distance_field")

    for name, module in list(sys.modules.items()):
        if name.startswith("lrterrain") and hasattr(module, "distance_field"):
            monkeypatch.setattr(module, "distance_field", raiser)
    pts, tau = benchmark_points(4000)
    _, reports, _ = _resumed_fit(pts, tau)
    assert len(reports) == 2
