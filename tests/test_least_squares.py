import importlib

import numpy as np
import pytest

from lrterrain import evaluate, make_tensor_surface
from lrterrain.evaluate import _gather, eval_cache
from lrterrain.least_squares import (
    SmoothingWeights,
    _element_system,
    _kernel_parts,
    _moments,
    fit_least_squares,
    ghost_points,
    idw_prior,
    smoothing_matrix,
)
from conftest import random_refined_surface
from oracles import normal_equations_collocation, smoothing_matrix_quadrature

DEGREES = [(2, 2), (3, 2), (3, 3)]


def numeric_energy(surface, weights: SmoothingWeights) -> float:
    """Brute quadrature of the directional-derivative energy.

    Integrates (D_phi F)^2, (D_phi^2 F)^2 over phi in [0, pi] with a dense
    Gauss rule and over the domain per element; independent of the closed
    angular forms used in production.
    """
    cache = eval_cache(surface)
    gx, gw = np.polynomial.legendre.leggauss(4)
    px, pw = np.polynomial.legendre.leggauss(64)
    phi = 0.5 * np.pi * (px + 1)
    pw = 0.5 * np.pi * pw
    c, s = np.cos(phi), np.sin(phi)
    total = 0.0
    for u_lo, u_hi, v_lo, v_hi in cache.bounds.tolist():
        xq = 0.5 * (u_lo + u_hi) + 0.5 * (u_hi - u_lo) * gx
        yq = 0.5 * (v_lo + v_hi) + 0.5 * (v_hi - v_lo) * gx
        XX, YY = np.meshgrid(xq, yq, indexing="ij")
        W = (0.25 * (u_hi - u_lo) * (v_hi - v_lo)
             * np.outer(gw, gw)).ravel()
        d = evaluate(surface, XX.ravel(), YY.ravel(), order=2)
        acc = np.zeros(len(W))
        if weights.w1:
            D1 = np.outer(d[:, 1], c) + np.outer(d[:, 2], s)
            acc += weights.w1 * (D1 ** 2 @ pw)
        if weights.w2:
            D2 = (np.outer(d[:, 3], c * c) + np.outer(2 * d[:, 4], c * s)
                  + np.outer(d[:, 5], s * s))
            acc += weights.w2 * (D2 ** 2 @ pw)
        total += float(W @ acc)
    return total


def test_smoothing_closed_form_vs_quadrature_hand_case(rng):
    # F = x^2 + y^2: Fxx = Fyy = 2, Fxy = 0, so the angular integral is
    # pi/8 (3*4 + 2*4 + 0 + 3*4) = 4 pi per unit area
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    x = rng.uniform(0, 1, 4000)
    y = rng.uniform(0, 1, 4000)
    fit_least_squares(s, np.column_stack([x, y, x ** 2 + y ** 2]), alpha1=1e-12)
    assert s.coeffs @ smoothing_matrix(s) @ s.coeffs == pytest.approx(4 * np.pi, rel=1e-8)


def test_smoothing_first_order_hand_case(rng):
    # F = x + 2y: J1 = pi/2 (1 + 4) * area
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    x = rng.uniform(0, 1, 3000)
    y = rng.uniform(0, 1, 3000)
    fit_least_squares(s, np.column_stack([x, y, x + 2 * y]), alpha1=1e-12)
    w = SmoothingWeights(w1=1.0, w2=0.0)
    assert s.coeffs @ smoothing_matrix(s, w) @ s.coeffs == pytest.approx(2.5 * np.pi, rel=1e-9)


def test_smoothing_matches_numeric_quadrature_random_surfaces():
    # closed angular forms against brute phi-quadrature on random
    # piecewise quadratics, mixed weights, non-unit domain
    rng = np.random.default_rng(7)
    for k in range(6):
        s = make_tensor_surface((0, 2.5, -1, 1), (2, 2), (6, 5))
        s.coeffs[:] = rng.normal(size=len(s))
        w = SmoothingWeights(w1=float(rng.uniform(0, 1)), w2=float(rng.uniform(0.2, 2)))
        J = s.coeffs @ smoothing_matrix(s, w) @ s.coeffs
        Jn = numeric_energy(s, w)
        assert J == pytest.approx(Jn, rel=1e-12, abs=1e-12)


def test_smoothing_annihilates_linears(rng):
    s = random_refined_surface(29, n_inserts=30)
    x = rng.uniform(0, 1, 3000)
    y = rng.uniform(0, 1, 3000)
    fit_least_squares(s, np.column_stack([x, y, 3.0 - x + 0.5 * y]), alpha1=1e-6)
    assert s.coeffs @ smoothing_matrix(s) @ s.coeffs == pytest.approx(0.0, abs=1e-8)


def test_smoothing_matrix_is_symmetric_psd():
    s = random_refined_surface(31, n_inserts=25)
    S = smoothing_matrix(s).toarray()
    np.testing.assert_allclose(S, S.T, atol=1e-12)
    w = np.linalg.eigvalsh(S)
    assert w.min() >= -1e-10


def _max_rel(A, ref):
    """Largest entry of |A - ref| relative to the largest of |ref|."""
    return abs(A - ref).max() / abs(ref).max()


@pytest.mark.parametrize("degrees", DEGREES)
def test_smoothing_matrix_matches_quadrature_oracle(degrees):
    s = random_refined_surface(67, n_inserts=30, domain=(0, 2.5, -1, 1), degrees=degrees)
    w = SmoothingWeights(w1=0.3, w2=1.0, w3=0.7)
    assert _max_rel(smoothing_matrix(s, w), smoothing_matrix_quadrature(s, w)) <= 1e-12


@pytest.mark.parametrize("degrees", DEGREES)
def test_moment_system_matches_collocation_oracle(degrees, monkeypatch):
    # per-element moments against B^T B + G^T G and quadrature smoothing,
    # with ghosts on the corner the data does not reach; small blocks, so
    # the moments of the 3,000 points are summed over several of them
    monkeypatch.setattr(importlib.import_module("lrterrain.least_squares"), "_BLOCK", 1024)
    rng = np.random.default_rng(sum(degrees))
    s = random_refined_surface(71, n_inserts=30, degrees=degrees)
    x, y = rng.uniform(0, 0.7, 3000), rng.uniform(0.2, 1, 3000)
    pts = np.column_stack([x, y, np.sin(3 * x) * np.cos(2 * y)])
    ghosts = ghost_points(s, pts)
    assert len(ghosts) > 0
    w = SmoothingWeights(w1=0.1, w2=1.0, w3=0.5)
    A, b = _element_system(s, w, 1e-3, _moments(s, _gather(eval_cache(s), x, y),
                                                pts[:, 2], ghosts))
    A0, b0 = normal_equations_collocation(s, pts, ghosts, 1e-3, w)
    assert _max_rel(A, A0) <= 1e-12
    assert _max_rel(b, b0) <= 1e-12


def test_kernel_parts_are_built_once_and_read_only():
    w = SmoothingWeights(w1=0.1, w2=1.0, w3=0.5)
    parts = _kernel_parts((3, 2), w)
    assert _kernel_parts((3, 2), SmoothingWeights(w1=0.1, w2=1.0, w3=0.5)) is parts
    assert _kernel_parts((2, 2), w) is not parts
    for _, _, K in parts:
        assert not K.flags.writeable
        with pytest.raises(ValueError):
            K[0, 0] = 1.0


def test_linear_reproduction_through_penalty(rng):
    # smoothing term vanishes on linears, so the fit is exact regardless
    # of alpha1
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    x = rng.uniform(0, 1, 3000)
    y = rng.uniform(0, 1, 3000)
    z = x + 2 * y
    fit_least_squares(s, np.column_stack([x, y, z]), alpha1=1e-6)
    assert np.abs(evaluate(s, x, y) - z).max() <= 1e-9


def test_fit_on_refined_space(rng):
    s = random_refined_surface(37, n_inserts=50)
    x = rng.uniform(0, 1, 6000)
    y = rng.uniform(0, 1, 6000)
    z = np.sin(3 * x) * np.cos(2 * y)
    info = fit_least_squares(s, np.column_stack([x, y, z]), alpha1=1e-6)
    assert info["relative_residual"] <= 1e-10
    err = np.abs(evaluate(s, x, y) - z)
    assert err.mean() < 0.01


def test_ghost_points_cover_starved_bsplines(rng):
    # data only in one corner: far-away B-splines have empty supports and
    # must receive anchors
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    x = rng.uniform(0, 0.2, 300)
    y = rng.uniform(0, 0.2, 300)
    pts = np.column_stack([x, y, np.ones(300)])
    g = ghost_points(s, pts)
    assert len(g) > 0
    info = fit_least_squares(s, pts, alpha1=1e-6)
    assert info["n_ghosts"] > 0
    # anchored fit stays near the data height everywhere
    gx = rng.uniform(0, 1, 500)
    gy = rng.uniform(0, 1, 500)
    assert np.abs(evaluate(s, gx, gy) - 1.0).max() < 0.05


def test_given_basis_gives_the_same_fit(rng):
    # _approximate locates the points once and hands that gather to the
    # fit and to its residuals; the fit is the public call's, and starved
    # corners need ghosts here
    from lrterrain.adaptive import FitConfig, _approximate

    x = rng.uniform(0, 0.6, 400)
    y = rng.uniform(0, 0.6, 400)
    pts = np.column_stack([x, y, np.sin(3 * x) + y])
    a = random_refined_surface(53, n_inserts=25)
    b = a.copy()
    prior = idw_prior(pts)
    info_a = fit_least_squares(a, pts, alpha1=1e-6, prior=prior)
    fld = _approximate(b, pts, FitConfig(alpha1=1e-6), 0, prior=prior)
    assert info_a["n_ghosts"] > 0
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    np.testing.assert_array_equal(fld["residual"], pts[:, 2] - evaluate(a, x, y))


def test_ghost_points_absent_on_dense_data(rng):
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    x = rng.uniform(0, 1, 5000)
    y = rng.uniform(0, 1, 5000)
    assert len(ghost_points(s, np.column_stack([x, y, x]))) == 0


def test_idw_prior_reproduces_constant(rng):
    pts = np.column_stack([rng.uniform(0, 1, 200), rng.uniform(0, 1, 200),
                           np.full(200, 7.0)])
    prior = idw_prior(pts)
    np.testing.assert_allclose(prior(rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)),
                               7.0, atol=1e-12)


@pytest.fixture
def tree_builds(monkeypatch):
    """The count of search trees built, by a patched tree class."""
    from scipy import spatial

    built = []

    class CountingTree(spatial.cKDTree):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(spatial, "cKDTree", CountingTree)
    return built


def test_idw_prior_builds_its_tree_on_first_query(rng, tree_builds):
    from scipy.spatial import KDTree

    pts = np.column_stack([rng.uniform(0, 1, (300, 2)), rng.normal(size=300)])
    qx, qy = rng.uniform(0, 1, (2, 40))
    prior = idw_prior(pts)
    assert tree_builds == []
    first, second = prior(qx, qy), prior(qx, qy)
    assert len(tree_builds) == 1
    # the values of a tree built at once
    dist, idx = KDTree(pts[:, :2]).query(np.column_stack([qx, qy]), k=8)
    w = 1.0 / np.maximum(dist, 1e-12)
    want = (w * pts[idx, 2]).sum(axis=1) / w.sum(axis=1)
    np.testing.assert_array_equal(first, want)
    np.testing.assert_array_equal(second, want)


def test_ghost_free_fit_builds_no_tree(tree_builds):
    from lrterrain import FitConfig, fit
    from lrterrain.benchmark import benchmark_points

    pts, tau = benchmark_points(3000, seed=2)
    fit(pts, FitConfig(tolerance=tau, max_iterations=2))
    assert tree_builds == []


def test_penalty_optimality(rng):
    # the solved coefficients minimize the functional: any perturbation
    # increases alpha1 J + alpha2 SSR
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (6, 6))
    x = rng.uniform(0, 1, 2000)
    y = rng.uniform(0, 1, 2000)
    z = np.sin(4 * x) + rng.normal(0, 0.05, 2000)
    pts = np.column_stack([x, y, z])
    alpha1 = 1e-4
    fit_least_squares(s, pts, alpha1=alpha1)

    def objective(c):
        old = s.coeffs
        s.coeffs = c
        ssr = float(((evaluate(s, x, y) - z) ** 2).sum())
        J = s.coeffs @ smoothing_matrix(s) @ s.coeffs
        s.coeffs = old
        return alpha1 * J + (1 - alpha1) * ssr

    base = objective(s.coeffs)
    for _ in range(5):
        pert = s.coeffs + rng.normal(0, 1e-3, len(s.coeffs))
        assert objective(pert) >= base - 1e-12


def test_empty_points_raise():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    with pytest.raises(ValueError):
        fit_least_squares(s, np.empty((0, 3)))


def test_non_finite_z_raises(rng):
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    pts = rng.uniform(0, 1, (200, 3))
    pts[3, 2] = np.nan
    with pytest.raises(ValueError, match=r"points must be finite; row 3"):
        fit_least_squares(s, pts)


def _cg_case():
    """A 12 x 12 tensor space and 3000 points of a smooth height field."""
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0, 1, 3000), rng.uniform(0, 1, 3000)
    pts = np.column_stack([x, y, np.sin(3 * x) * np.cos(2 * y)])
    return make_tensor_surface((0, 1, 0, 1), (2, 2), (12, 12)), pts


def test_cg_branch_matches_splu(monkeypatch):
    import lrterrain.least_squares as ls

    s, pts = _cg_case()
    assert fit_least_squares(s, pts)["solver"] == "splu"
    direct = s.coeffs.copy()
    s, pts = _cg_case()
    monkeypatch.setattr(ls, "CG_THRESHOLD", 0)
    assert fit_least_squares(s, pts)["solver"] == "cg(0)"
    np.testing.assert_allclose(s.coeffs, direct, rtol=0,
                               atol=1e-8 * np.abs(direct).max())


def test_cg_without_convergence_falls_back_to_splu(monkeypatch):
    import lrterrain.least_squares as ls

    s, pts = _cg_case()
    fit_least_squares(s, pts)
    direct = s.coeffs.copy()
    s, pts = _cg_case()
    monkeypatch.setattr(ls, "CG_THRESHOLD", 0)
    monkeypatch.setattr(ls.spla, "cg", lambda A, b, **kwargs: (np.zeros_like(b), 7))
    assert fit_least_squares(s, pts)["solver"] == "splu-after-cg"
    np.testing.assert_array_equal(s.coeffs, direct)
