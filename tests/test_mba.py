import numpy as np
import pytest

from lrterrain import evaluate, make_tensor_surface
from lrterrain.mba import mba_update
from conftest import mba_fit, random_refined_surface
from oracles import mba_delta_collocation, support


def test_zero_residuals_change_nothing(rng):
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    s.coeffs[:] = rng.normal(size=len(s))
    x = rng.uniform(0, 1, 500)
    y = rng.uniform(0, 1, 500)
    z = evaluate(s, x, y)
    before = s.coeffs.copy()
    stats = mba_update(s, np.column_stack([x, y, z]))
    np.testing.assert_array_equal(s.coeffs, before)
    assert stats["max_delta"] == 0.0


def test_single_point_single_patch_formula():
    # one biquadratic element, one point: the sweep must apply exactly
    # delta_i = w_i r / sum_l w_l^2, hence interpolate the point
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (3, 3))
    from lrterrain.evaluate import basis_matrix

    x, y, z = 0.31, 0.57, 1.7
    B, _ = basis_matrix(s, [x], [y])
    w = B.toarray().ravel()
    expect = w * z / (w ** 2).sum()
    mba_update(s, np.array([[x, y, z]]))
    np.testing.assert_allclose(s.coeffs, expect, atol=1e-14)
    assert evaluate(s, [x], [y])[0] == pytest.approx(z, abs=1e-13)


def test_constant_residual_dense_data():
    # lifting all data by 1: a single sweep blends a structural fraction
    # of the step (the per-point proposals are least-norm, so overlapping
    # supports average below 1); repeated sweeps close the gap fast
    g = np.linspace(0, 1, 80)
    XX, YY = np.meshgrid(g, g)
    x, y = XX.ravel(), YY.ravel()
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7), coeff=2.0)
    pts = np.column_stack([x, y, np.full(len(x), 3.0)])
    mba_update(s, pts)
    interior = (x > 0.15) & (x < 0.85) & (y > 0.15) & (y < 0.85)
    f1 = evaluate(s, x[interior], y[interior])
    assert np.abs(f1 - 3.0).max() <= 0.35
    mba_fit(s, pts, sweeps=3)
    dev = np.abs(evaluate(s, x[interior], y[interior]) - 3.0)
    assert dev.max() <= 0.05


def test_idempotent_when_within_tolerance(rng):
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    x = rng.uniform(0, 1, 2000)
    y = rng.uniform(0, 1, 2000)
    pts = np.column_stack([x, y, x + 2 * y])
    mba_fit(s, pts, sweeps=30)
    r = np.abs(evaluate(s, x, y) - pts[:, 2]).max()
    tau = max(2 * r, 1e-9)
    before = s.coeffs.copy()
    stats = mba_update(s, pts, tau=tau)
    np.testing.assert_array_equal(s.coeffs, before)
    assert stats["n_updated"] == 0


def test_locality(rng):
    # points confined to one corner element leave far coefficients alone
    s = random_refined_surface(41, n_inserts=20)
    s.coeffs[:] = 0.0
    pts = np.column_stack([rng.uniform(0, 0.05, 50), rng.uniform(0, 0.05, 50),
                           np.ones(50)])
    mba_update(s, pts)
    moved = np.nonzero(s.coeffs != 0)[0]
    for i in moved:
        u0, u1, v0, v1 = support(s.bsplines[i])
        assert u0 < 0.05 and v0 < 0.05


def test_converges_to_plane(rng):
    g = np.linspace(0, 1, 70)
    XX, YY = np.meshgrid(g, g)
    x, y = XX.ravel(), YY.ravel()
    pts = np.column_stack([x, y, x + 2 * y])
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    mba_fit(s, pts, sweeps=60)
    assert np.abs(evaluate(s, x, y) - pts[:, 2]).max() <= 1e-6


def test_error_decreases_under_sweeps(rng):
    s = random_refined_surface(43, n_inserts=30)
    s.coeffs[:] = 0.0
    x = rng.uniform(0, 1, 4000)
    y = rng.uniform(0, 1, 4000)
    z = np.sin(3 * x) * np.cos(2 * y)
    pts = np.column_stack([x, y, z])
    errs = []
    for _ in range(6):
        mba_update(s, pts)
        errs.append(float(np.abs(evaluate(s, x, y) - z).mean()))
    assert all(b <= a * 1.0001 for a, b in zip(errs, errs[1:]))


def test_empty_points_raise():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    with pytest.raises(ValueError):
        mba_update(s, np.empty((0, 3)))


def test_non_finite_z_raises(rng):
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    pts = rng.uniform(0, 1, (200, 3))
    pts[3, 2] = np.nan
    before = s.coeffs.copy()
    with pytest.raises(ValueError, match=r"points must be finite; row 3"):
        mba_update(s, pts)
    np.testing.assert_array_equal(s.coeffs, before)


def test_sweep_matches_dense_reference_with_gate(rng):
    # delta_i = sum_p w_pi^3 r_p / D_p / sum_p w_pi^2 with D_p = sum_l w_pl^2,
    # applied only where some point of the support has |r| > tau
    from lrterrain.evaluate import basis_matrix

    s = random_refined_surface(47, n_inserts=40)
    x = rng.uniform(0, 1, 1500)
    y = rng.uniform(0, 1, 1500)
    r = rng.normal(0, 0.1, 1500)
    r[x > 0.5] *= 0.01  # the right half stays under the gate
    tau = 0.05
    W = basis_matrix(s, x, y)[0].toarray()
    D = (W ** 2).sum(axis=1)
    num = (W ** 3 * (r / D)[:, None]).sum(axis=0)
    den = (W ** 2).sum(axis=0)
    gate = ((W > 0) * np.abs(r)[:, None]).max(axis=0) > tau
    assert 0 < gate.sum() < len(s)
    expect = s.coeffs + np.where(gate & (den > 0), num / np.where(den > 0, den, 1), 0)
    pts = np.column_stack([x, y, evaluate(s, x, y) + r])
    stats = mba_update(s, pts, residuals=r, tau=tau)
    np.testing.assert_allclose(s.coeffs, expect, rtol=0, atol=1e-13)
    assert stats["n_updated"] == int((gate & (den > 0)).sum())


def test_gate_counts_every_resident_of_the_element(rng):
    # one point out of tolerance on the line u = 0.5 opens the gate of every
    # resident of the element it is located in, also of the resident that
    # is 0 there; points inside that element, all within tolerance, give
    # each resident a positive denominator
    from lrterrain.evaluate import _gather, basis_matrix, eval_cache

    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (4, 4))
    x = np.concatenate([[0.5], rng.uniform(0.55, 0.95, 200)])
    y = np.concatenate([[0.25], rng.uniform(0.05, 0.45, 200)])
    r = np.concatenate([[1.0], rng.uniform(-0.01, 0.01, 200)])
    cache = eval_cache(s)
    e = int(_gather(cache, x[:1], y[:1])[0][0])
    residents = cache.res[cache.offsets[e]:cache.offsets[e + 1]]
    assert (np.asarray(_gather(cache, x[1:], y[1:])[0]) == e).all()
    # 0 up to the rounding of the element's monomial tensors
    assert basis_matrix(s, x[:1], y[:1])[0].toarray()[0, residents].min() < 1e-15
    before = s.coeffs.copy()
    stats = mba_update(s, np.column_stack([x, y, evaluate(s, x, y) + r]), residuals=r, tau=0.1)
    assert stats["n_updated"] == len(residents)
    assert np.array_equal(np.flatnonzero(s.coeffs != before), np.sort(residents))


def test_given_basis_gives_the_same_sweep(rng):
    # a pass after n_ls is a sweep on _approximate's one gather; it equals
    # the public call with the same residuals, and without them
    from lrterrain.adaptive import FitConfig, _approximate

    a = random_refined_surface(59, n_inserts=30)
    x = rng.uniform(0, 1, 800)
    y = rng.uniform(0, 1, 800)
    pts = np.column_stack([x, y, np.cos(4 * x) * y])
    r = pts[:, 2] - evaluate(a, x, y)
    config = FitConfig(tolerance=0.01, n_ls=0)
    for residuals in (r, None):
        b, c = a.copy(), a.copy()
        mba_update(b, pts, residuals=residuals, tau=0.01)
        fld = _approximate(c, pts, config, 1, residuals=residuals)
        np.testing.assert_array_equal(b.coeffs, c.coeffs)
        np.testing.assert_array_equal(fld["residual"], pts[:, 2] - evaluate(b, x, y))


@pytest.mark.parametrize("degrees", [(2, 2), (3, 2), (3, 3)])
def test_blocked_sweep_matches_collocation_oracle(degrees):
    # enough points for many blocks; the gate leaves part of the space alone
    rng = np.random.default_rng(sum(degrees))
    s = random_refined_surface(73, n_inserts=40, degrees=degrees)
    x, y = rng.uniform(0, 1, 6000), rng.uniform(0, 1, 6000)
    r = rng.normal(0, 0.1, 6000)
    r[x > 0.5] *= 0.01
    pts = np.column_stack([x, y, evaluate(s, x, y) + r])
    expect = mba_delta_collocation(s, pts, r, 0.05)
    assert 0 < np.count_nonzero(expect) < len(s)
    before = s.coeffs.copy()
    stats = mba_update(s, pts, residuals=r, tau=0.05)
    np.testing.assert_allclose(s.coeffs - before, expect, rtol=0, atol=1e-13)
    assert stats["n_updated"] == np.count_nonzero(expect)


@pytest.mark.parametrize("bad, message", [
    (lambda r: np.where(np.arange(len(r)) == 7, np.nan, r),
     r"residuals must be finite; row 7 is nan"),
    (lambda r: np.where(np.arange(len(r)) == 11, -np.inf, r),
     r"residuals must be finite; row 11 is -inf"),
    (lambda r: r[:1], r"residuals must be a \(300,\) array.*got shape \(1,\)"),
    (lambda r: r[0], r"residuals must be a \(300,\) array.*got shape \(\)"),
    (lambda r: r[:, None], r"residuals must be a \(300,\) array.*got shape \(300, 1\)"),
], ids=["nan", "inf", "length_1", "scalar", "column"])
def test_bad_residuals_raise(rng, bad, message):
    # a NaN used to leave every B-spline over its point alone, silently;
    # the wrong shapes ended in an IndexError or a broadcast error
    s = random_refined_surface(79, n_inserts=10)
    pts = rng.uniform(0, 1, (300, 3))
    r = pts[:, 2] - evaluate(s, pts[:, 0], pts[:, 1])
    before = s.coeffs.copy()
    with pytest.raises(ValueError, match=message):
        mba_update(s, pts, residuals=bad(r))
    np.testing.assert_array_equal(s.coeffs, before)
