import importlib
import re

import numpy as np
import pytest

from lrterrain import evaluate, make_tensor_surface, partition_of_unity, restrict
from lrterrain.evaluate import (
    _cells,
    _evaluate_at,
    _gather,
    _locate,
    _pieces,
    basis_matrix,
    distance_field,
    eval_cache,
)
from lrterrain.mesh import Segment, insert_segments
from conftest import random_refined_surface
from lrterrain.tiling import _set_gamma, stitch_c1
from oracles import eval_cache_per_pair, evaluate_at_all_elements, evaluate_summed_per_call


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


@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf])
def test_distance_field_does_not_judge_a_non_finite_height(z):
    # a NaN height is not "within tolerance", nor an infinite one "above"
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (5, 5), coeff=0.0)
    field = distance_field(s, np.array([[0.5, 0.5, z], [0.2, 0.8, 0.31]]), tau=0.3)
    assert list(field["status"]) == [2, 1]
    assert not np.isfinite(field["residual"][0])
    assert field["element_id"][0] >= 0


@pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0, -1.0])
def test_distance_field_rejects_a_tau_that_is_not_finite_and_positive(tau):
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (5, 5), coeff=0.0)
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        distance_field(s, np.array([[0.5, 0.5, 0.0]]), tau=tau)


@pytest.mark.parametrize("extra, columns", [(5, 1), (-1, 1), (0, 2)])
def test_coeffs_override_of_the_wrong_shape_is_rejected(extra, columns):
    s = random_refined_surface(71, n_inserts=20)
    n = len(s)
    c = np.ones((n + extra, columns)) if columns > 1 else np.ones(n + extra)
    message = f"coeffs must have shape ({n},), one per B-spline; got shape {c.shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate(s, [0.5], [0.5], coeffs=c)


def test_coeffs_override_may_be_any_sequence(rng):
    s = random_refined_surface(71, n_inserts=20)
    x, y = rng.uniform(0, 1, (2, 50))
    c = rng.normal(size=len(s))
    want = evaluate(s, x, y, order=1, coeffs=c)
    np.testing.assert_array_equal(evaluate(s, x, y, order=1, coeffs=c.tolist()), want)
    fresh = s.copy()
    fresh.coeffs = c
    np.testing.assert_array_equal(evaluate(fresh, x, y, order=1), want)


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


def _layer_cases():
    """Surfaces whose element layers the oracle checks: random refinements
    at three degree pairs, a restriction, and a C1-stitched half."""
    for degrees in [(2, 2), (3, 2), (3, 3)]:
        for seed in (5, 23):
            yield f"{degrees} seed {seed}", random_refined_surface(
                seed, n_inserts=60, degrees=degrees)
    s = random_refined_surface(29, n_inserts=60, domain=(0, 2, 0, 1), grid=(9, 5))
    yield "restrict", restrict(s, (0.3, 1.7, 0.1, 0.8))
    a, b = restrict(s, (0, 1, 0, 1)), restrict(s, (1, 2, 0, 1))
    b.coeffs += 0.1 * np.cos(np.arange(len(b)))
    yield "C1-stitched", stitch_c1(a, b)[0]


def test_shared_pieces_build_the_per_pair_layer_bit_for_bit():
    for label, s in _layer_cases():
        cache = eval_cache(s)
        bounds, offsets, res, tensors = eval_cache_per_pair(s)
        np.testing.assert_array_equal(cache.bounds, bounds, err_msg=label)
        np.testing.assert_array_equal(cache.offsets, offsets, err_msg=label)
        np.testing.assert_array_equal(cache.res, res, err_msg=label)
        assert cache.tensors.shape == tensors.shape, label
        # bitwise, signs of zeros included
        assert np.array_equal(cache.tensors.view(np.int64), tensors.view(np.int64)), label


def test_piece_key_refuses_to_overflow():
    # 2^19 distinct knot rows over 2^22 coordinates need a 2^63 key space
    knots = np.arange(2.0 ** 19)[:, None] + np.arange(4.0)
    coords = np.arange(2.0 ** 22)
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(OverflowError, match="int64 piece key"):
        _pieces(knots, coords, coords[:1], coords[1:2], empty, empty, 2)


def _searched(coords, x):
    """The fine cell of each value by binary search."""
    return np.clip(np.searchsorted(coords, x, side="right") - 1, 0, len(coords) - 2)


def _axis_queries(coords, rng):
    """Every coordinate and its two float neighbours, both domain ends
    and 1e-9 of the extent outside them, and random values."""
    eps = 1e-9 * (coords[-1] - coords[0])
    return np.concatenate([coords, np.nextafter(coords, -np.inf)[1:],
                           np.nextafter(coords, np.inf)[:-1],
                           [coords[0] - eps, coords[-1] + eps],
                           rng.uniform(coords[0], coords[-1], 2000)])


def _cluster_surface():
    """A surface with four u lines at the width floor (2^-14 of the
    extent) next to u = 0.5, all in one bucket of the u table."""
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (12, 12))
    insert_segments(s, [Segment(0, 0.5 + k * 2.0 ** -14, 0.0, 1.0) for k in range(1, 5)])
    return s


def _locate_cases():
    yield "refined", random_refined_surface(61, n_inserts=60)
    yield "offset domain", random_refined_surface(
        67, n_inserts=40, domain=(1000.0, 1003.0, -5.0, 2.0), grid=(9, 5))
    yield "cluster", _cluster_surface()
    yield "single u cell", make_tensor_surface((0, 1, 0, 1), (2, 2), (3, 9))


def test_cell_table_equals_binary_search():
    rng = np.random.default_rng(19)
    for label, s in _locate_cases():
        cache = eval_cache(s)
        queries = []
        for coords, table in zip((cache.uc, cache.vc), cache.tables):
            q = _axis_queries(coords, rng)
            np.testing.assert_array_equal(_cells(table, coords, q), _searched(coords, q),
                                          err_msg=label)
            queries.append(q)
        n = min(map(len, queries))
        x, y = queries[0][:n], rng.permutation(queries[1])[:n]
        want = cache.cell_map[_searched(cache.uc, x), _searched(cache.vc, y)]
        np.testing.assert_array_equal(_locate(cache, x, y), want, err_msg=label)


def test_cell_table_cases_cover_what_they_name():
    cache = eval_cache(_cluster_surface())
    cluster = 0.5 + np.arange(5) * 2.0 ** -14
    assert np.isin(cluster, cache.uc).all()
    assert len(set(cache.tables[0].bucket(cluster).tolist())) == 1
    single = eval_cache(make_tensor_surface((0, 1, 0, 1), (2, 2), (3, 9)))
    assert len(single.uc) == 2


@pytest.mark.parametrize("degrees", [(2, 2), (3, 3)])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_point_blocks_do_not_change_values(degrees, order, monkeypatch):
    ev = importlib.import_module("lrterrain.evaluate")
    s = random_refined_surface(37, n_inserts=50, degrees=degrees)
    rng = np.random.default_rng(3)
    cache = eval_cache(s)
    # 1002 = 7 * 143 + 1: the last block holds one point
    located = _gather(cache, rng.uniform(0, 1, 1002), rng.uniform(0, 1, 1002))
    assert ev._BLOCK >= 1002
    whole = _evaluate_at(cache, s.coeffs, *located, order)
    monkeypatch.setattr(ev, "_BLOCK", 7)
    blocked = _evaluate_at(cache, s.coeffs, *located, order)
    assert np.array_equal(blocked.view(np.int64), whole.view(np.int64))


def _bits(a):
    return a.view(np.int64)


@pytest.mark.parametrize("degrees", [(2, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_kept_polynomials_equal_a_per_call_sum_bit_for_bit(degrees, order):
    # queries that fill the record piece by piece (or all at once when every
    # element comes first) and repeat, across an in-place coefficient write
    # and a refinement
    rng = np.random.default_rng(41)
    s = random_refined_surface(47, n_inserts=50, degrees=degrees)
    for step in range(3):
        cache = eval_cache(s)
        cases = [c for c in _query_cases(s, rng).values() if len(c[0])]
        for x, y in (cases if step != 1 else cases[::-1]) * 2:
            located = _gather(cache, x, y)
            got = _evaluate_at(cache, s.coeffs, *located, order)
            want = evaluate_summed_per_call(cache, s.coeffs, *located, order)
            assert np.array_equal(_bits(got), _bits(want)), step
        if step == 0:
            s.coeffs[::3] += 0.5
        else:
            insert_segments(s, [Segment(0, 0.5 + 2.0 ** -7, 0.0, 1.0)])


def test_in_place_coefficient_write_shows_in_the_next_evaluate(rng):
    # as stitching writes boundary coefficients
    s = random_refined_surface(53, n_inserts=30)
    x, y = rng.uniform(0, 1, (2, 300))
    before = evaluate(s, x, y, order=1)
    rows = rng.choice(len(s), 5, replace=False)
    _set_gamma(s, rows, rng.normal(size=5))
    got = evaluate(s, x, y, order=1)
    assert not np.array_equal(got, before)
    assert np.array_equal(_bits(got), _bits(evaluate(s.copy(), x, y, order=1)))


def test_an_override_never_leaks_into_a_later_plain_evaluate(rng):
    s = random_refined_surface(59, n_inserts=30)
    x, y = rng.uniform(0, 1, (2, 300))
    want = evaluate(s.copy(), x, y, order=1)
    c = rng.normal(size=len(s))
    other = s.copy()
    other.coeffs = c
    for query in (lambda: evaluate(s, x, y, order=1, coeffs=c),
                  lambda: partition_of_unity(s, x, y)):
        evaluate(s, x, y, order=1)
        query()
        assert np.array_equal(_bits(evaluate(s, x, y, order=1)), _bits(want))
    got = evaluate(s, x, y, order=1, coeffs=c)
    assert np.array_equal(_bits(got), _bits(evaluate(other, x, y, order=1)))


def test_refinement_drops_the_record(rng):
    s = random_refined_surface(61, n_inserts=20)
    x, y = rng.uniform(0, 1, (2, 100))
    evaluate(s, x, y)
    old = eval_cache(s)
    assert old.polynomials is not None
    insert_segments(s, [Segment(0, 0.5 + 2.0 ** -7, 0.0, 1.0)])
    new = eval_cache(s)
    assert new is not old and new.polynomials is None
    assert np.array_equal(_bits(evaluate(s, x, y)), _bits(evaluate(s.copy(), x, y)))


def test_record_compares_coefficients_bit_for_bit():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (5, 5), coeff=0.0)
    x = y = np.array([0.3, 0.7])
    evaluate(s, x, y)
    first = eval_cache(s).polynomials
    evaluate(s, x, y)
    assert eval_cache(s).polynomials is first
    # -0.0 equals 0.0 as a value, but it is a change
    s.coeffs[:] = -0.0
    got = evaluate(s, x, y)
    rec = eval_cache(s).polynomials
    assert rec is not first and np.signbit(rec.coeffs).all()
    assert np.array_equal(_bits(got), _bits(evaluate(s.copy(), x, y)))
    # a NaN coefficient differs from itself as a value, but finds its record
    s.coeffs[[3, 12]] = np.nan
    a = evaluate(s, x, y)
    rec = eval_cache(s).polynomials
    b = evaluate(s, x, y)
    assert eval_cache(s).polynomials is rec
    assert np.array_equal(_bits(a), _bits(b)) and np.isnan(a).any()


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_stored_coefficients_of_another_dtype_evaluate_as_floats(dtype, rng):
    # LRSurface.coeffs is a plain attribute, so a caller may assign any dtype
    s = random_refined_surface(73, n_inserts=20)
    x, y = rng.uniform(0, 1, (2, 50))
    c = rng.normal(scale=100, size=len(s)).astype(dtype)
    want = evaluate(s, x, y, order=1, coeffs=c.astype(float))
    s.coeffs = c
    for _ in range(2):
        assert np.array_equal(_bits(evaluate(s, x, y, order=1)), _bits(want))


def test_a_query_fills_only_the_elements_it_hits(rng):
    # the deterministic measure of a small query's cost: it sums only what
    # it touches, however large the surface
    s = random_refined_surface(67, n_inserts=60)
    cache = eval_cache(s)
    filled = np.zeros(len(cache.bounds), dtype=bool)
    for _ in range(3):
        x, y = rng.uniform(0, 1, (2, 5))
        evaluate(s, x, y, order=1)
        filled[_locate(cache, x, y)] = True
        np.testing.assert_array_equal(cache.polynomials.filled, filled)
    assert 0 < filled.sum() <= 15 < len(filled)
    # a repeated query sums nothing and keeps the same tensor
    P = cache.polynomials.P
    evaluate(s, x, y, order=1)
    assert cache.polynomials.P is P
    np.testing.assert_array_equal(cache.polynomials.filled, filled)
