import numpy as np
import pytest

from lrterrain import evaluate, make_tensor_surface, partition_of_unity
from lrterrain.evaluate import (
    _evaluate_at,
    _gather,
    basis_matrix,
    distance_field,
    eval_cache,
)
from conftest import random_refined_surface
from oracles import evaluate_at_all_elements


def brute_force_eval(surface, x, y):
    """Independent oracle: sum s_i P_i N_i with scipy's basis elements."""
    from scipy.interpolate import BSpline

    out = np.zeros(len(x))
    for b, p in zip(surface.bsplines, surface.coeffs):
        bu = BSpline.basis_element(np.asarray(b.ku), extrapolate=False)
        bv = BSpline.basis_element(np.asarray(b.kv), extrapolate=False)
        nu = np.nan_to_num(bu(x))
        nv = np.nan_to_num(bv(y))
        out += b.scaling * p * nu * nv
    return out


def test_eval_matches_brute_force_tensor(rng):
    s = make_tensor_surface((0, 2, -1, 1), (2, 2), (8, 6))
    s.coeffs[:] = rng.normal(size=len(s))
    x = rng.uniform(0.01, 1.99, 400)
    y = rng.uniform(-0.99, 0.99, 400)
    np.testing.assert_allclose(evaluate(s, x, y), brute_force_eval(s, x, y),
                               atol=1e-12)


def test_eval_matches_brute_force_refined(rng):
    s = random_refined_surface(13, n_inserts=45)
    x = rng.uniform(0.001, 0.999, 500)
    y = rng.uniform(0.001, 0.999, 500)
    np.testing.assert_allclose(evaluate(s, x, y), brute_force_eval(s, x, y),
                               atol=1e-12)


def test_eval_mixed_degrees(rng):
    s = make_tensor_surface((0, 1, 0, 1), (3, 1), (7, 5))
    s.coeffs[:] = rng.normal(size=len(s))
    x = rng.uniform(0.01, 0.99, 300)
    y = rng.uniform(0.01, 0.99, 300)
    np.testing.assert_allclose(evaluate(s, x, y), brute_force_eval(s, x, y),
                               atol=1e-12)


def test_domain_edges_and_corners():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7), coeff=2.5)
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.5])
    y = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(evaluate(s, x, y), 2.5, atol=1e-12)


def test_outside_domain_raises():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    with pytest.raises(ValueError, match="outside"):
        evaluate(s, [1.5], [0.5])


@pytest.mark.parametrize("order", [3, -1])
@pytest.mark.parametrize("n", [1, 0])
def test_evaluate_rejects_an_unknown_order(order, n):
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (5, 5))
    with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
        evaluate(s, np.full(n, 0.5), np.full(n, 0.5), order=order)


@pytest.mark.parametrize("x, y", [(np.nan, 0.0), (0.5, np.nan), (np.inf, 0.5),
                                  (0.5, -np.inf)])
def test_non_finite_points_are_outside_in_every_query(x, y):
    # evaluate, basis_matrix and distance_field share one domain rule
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    with pytest.raises(ValueError, match="outside"):
        evaluate(s, [x], [y])
    with pytest.raises(ValueError, match="outside"):
        basis_matrix(s, np.array([x]), np.array([y]))
    field = distance_field(s, np.array([[x, y, 0.0]]), tau=0.1)
    assert field["status"][0] == 2 and field["element_id"][0] == -1


def test_derivatives_match_finite_differences(rng):
    s = random_refined_surface(17, n_inserts=35)
    x = rng.uniform(0.05, 0.95, 80)
    y = rng.uniform(0.05, 0.95, 80)
    d = evaluate(s, x, y, order=2)
    h = 1e-5

    def f(a, b):
        return evaluate(s, a, b)

    fu = (f(x + h, y) - f(x - h, y)) / (2 * h)
    fv = (f(x, y + h) - f(x, y - h)) / (2 * h)
    fuu = (f(x + h, y) - 2 * d[:, 0] + f(x - h, y)) / h ** 2
    fvv = (f(x, y + h) - 2 * d[:, 0] + f(x, y - h)) / h ** 2
    fuv = (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)) / (4 * h ** 2)
    np.testing.assert_allclose(d[:, 1], fu, atol=1e-7)
    np.testing.assert_allclose(d[:, 2], fv, atol=1e-7)
    np.testing.assert_allclose(d[:, 3], fuu, atol=1e-4)
    np.testing.assert_allclose(d[:, 4], fuv, atol=1e-4)
    np.testing.assert_allclose(d[:, 5], fvv, atol=1e-4)


def test_quadratic_surface_reproduced_exactly(rng):
    # degree (2,2) space contains x^2, xy, y^2; coefficients via evaluation
    # of the interpolating polynomial at Greville-like collocation is not
    # needed: set the coefficients by least squares in the test for fitters;
    # here just check unity-scaled constants and derivative consistency
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7), coeff=1.0)
    d = evaluate(s, rng.uniform(0, 1, 50), rng.uniform(0, 1, 50), order=2)
    np.testing.assert_allclose(d[:, 0], 1.0, atol=1e-13)
    np.testing.assert_allclose(d[:, 1:], 0.0, atol=1e-10)


def test_partition_of_unity_random_meshes():
    for seed in (0, 1, 2):
        s = random_refined_surface(seed, n_inserts=80)
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, 2000)
        y = rng.uniform(0, 1, 2000)
        assert np.abs(partition_of_unity(s, x, y) - 1).max() <= 1e-10


def test_basis_matrix_reproduces_eval(rng):
    s = random_refined_surface(19, n_inserts=40)
    x = rng.uniform(0, 1, 200)
    y = rng.uniform(0, 1, 200)
    B, eid = basis_matrix(s, x, y)
    np.testing.assert_allclose(B @ s.coeffs, evaluate(s, x, y), atol=1e-12)
    assert (eid >= 0).all()
    # rows sum to one: scaled basis is a partition of unity
    np.testing.assert_allclose(np.asarray(B.sum(axis=1)).ravel(), 1.0, atol=1e-10)


def test_cache_invalidated_by_refinement(rng):
    from lrterrain import Segment, insert_segment

    s = random_refined_surface(23, n_inserts=10)
    x = rng.uniform(0, 1, 100)
    y = rng.uniform(0, 1, 100)
    evaluate(s, x, y)
    c1 = eval_cache(s)
    insert_segment(s, Segment(0, 0.5, 0.0, 1.0))
    f = evaluate(s, x, y)
    c2 = eval_cache(s)
    assert c2 is not c1
    np.testing.assert_allclose(f, brute_force_eval(s, x, y), atol=1e-12)


def test_distance_field_classification():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (5, 5), coeff=0.0)
    pts = np.array([
        [0.5, 0.5, 0.05],    # within
        [0.2, 0.8, 0.31],    # above
        [0.9, 0.1, -0.32],   # below
        [1.5, 0.5, 0.0],     # outside
    ])
    field = distance_field(s, pts, tau=0.3)
    assert list(field["status"]) == [0, 1, -1, 2]
    assert field["element_id"][3] == -1
    assert np.isnan(field["residual"][3])
    np.testing.assert_allclose(field["residual"][:3], [0.05, 0.31, -0.32], atol=1e-12)


def test_cache_is_owned_by_the_surface(rng):
    # the layer lives on the surface: evaluating many other surfaces in
    # between neither evicts nor rebuilds it
    s = random_refined_surface(29, n_inserts=10)
    c1 = eval_cache(s)
    x = rng.uniform(0, 1, 10)
    for _ in range(70):
        evaluate(make_tensor_surface((0, 1, 0, 1), (2, 2), (4, 4)), x, x)
    assert eval_cache(s) is c1
    s.coeffs = s.coeffs + 1.0  # coefficient updates keep the layer
    assert eval_cache(s) is c1


def _query_cases(surface, rng):
    """Point sets of a query: one point, a chunk inside a few elements,
    the center of every element, and no point."""
    cache = eval_cache(surface)
    b = cache.bounds
    few = b[rng.choice(len(b), 3, replace=False)]
    t = rng.uniform(0, 1, (2, 40))
    k = rng.integers(3, size=40)
    chunk = (few[k, 0] + t[0] * (few[k, 1] - few[k, 0]),
             few[k, 2] + t[1] * (few[k, 3] - few[k, 2]))
    centers = (0.5 * (b[:, 0] + b[:, 1]), 0.5 * (b[:, 2] + b[:, 3]))
    return {"one": (rng.uniform(0, 1, 1), rng.uniform(0, 1, 1)), "chunk": chunk,
            "every element": centers, "none": (np.empty(0), np.empty(0))}


@pytest.mark.parametrize("degrees", [(2, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_hit_element_evaluation_matches_all_element_oracle(degrees, order):
    rng = np.random.default_rng(7)
    s = random_refined_surface(31, n_inserts=50, degrees=degrees)
    cache = eval_cache(s)
    for label, (x, y) in _query_cases(s, rng).items():
        located = _gather(cache, x, y)
        got = _evaluate_at(cache, s.coeffs, *located, order)
        want = evaluate_at_all_elements(cache, s.coeffs, *located, order)
        assert got.shape == want.shape == (len(x), (1, 3, 6)[order]), label
        scale = max(np.abs(want).max(initial=0.0), 1.0)
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale, label
    # an empty public query has the shape of its order
    empty = np.empty(0)
    assert evaluate(s, empty, empty, order=order).shape == ((0,), (0, 3), (0, 6))[order]


@pytest.mark.parametrize("order, tail", [(0, ()), (1, (3,)), (2, (6,))])
def test_evaluate_on_meshgrid_keeps_its_shape(order, tail):
    s = random_refined_surface(43, n_inserts=20)
    X, Y = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 5))
    got = evaluate(s, X, Y, order=order)
    assert got.shape == X.shape + tail
    flat = evaluate(s, X.ravel(), Y.ravel(), order=order)
    np.testing.assert_array_equal(got.reshape(flat.shape), flat)


def test_basis_matrix_rejects_grids():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (5, 5))
    X, Y = np.meshgrid(np.linspace(0, 1, 4), np.linspace(0, 1, 3))
    with pytest.raises(ValueError, match="1-D"):
        basis_matrix(s, X, Y)
    with pytest.raises(ValueError, match="1-D"):
        basis_matrix(s, [0.1, 0.2], [0.3])
