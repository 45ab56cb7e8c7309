import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrterrain import (
    Segment,
    evaluate,
    insert_segment,
    insert_segments,
    make_tensor_surface,
    partition_of_unity,
    restrict,
)
from lrterrain.formats import binary_size
from lrterrain.mesh import (
    _split_weights,
    independence_report,
    residents_of,
    transpose,
    validate_surface,
)
from conftest import random_refined_surface


def test_tensor_construction_counts():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    assert len(s) == 49
    s = make_tensor_surface((0, 10, -5, 5), (3, 1), (6, 4))
    assert len(s) == 24
    assert s.degrees == (3, 1)


def test_tensor_grid_too_small_raises():
    with pytest.raises(ValueError):
        make_tensor_surface((0, 1, 0, 1), (2, 2), (2, 7))


def split_1d(t, d, c):
    """Knot vector ``t`` split at ``c`` by ``_split_weights``."""
    (a1,), (a2,) = _split_weights(np.array([t]), d, np.array([c]))
    ext = sorted(t + (c,))
    return (a1, tuple(ext[:-1])), (a2, tuple(ext[1:]))


def test_insert_knot_1d_hat_function():
    # degree-1 hat on (0, 1, 2) split at 0.5: the left product must carry
    # weight 0.5 and the right product weight 1 (hand computation)
    (a1, t1), (a2, t2) = split_1d((0.0, 1.0, 2.0), 1, 0.5)
    assert t1 == (0.0, 0.5, 1.0)
    assert t2 == (0.5, 1.0, 2.0)
    assert a1 == pytest.approx(0.5)
    assert a2 == pytest.approx(1.0)


def test_insert_knot_1d_partition():
    # alpha-weighted products must reproduce the parent pointwise
    from scipy.interpolate import BSpline

    t = (0.0, 0.3, 1.1, 2.0)
    c = 0.7
    (a1, t1), (a2, t2) = split_1d(t, 2, c)
    x = np.linspace(0.01, 1.99, 211)

    def val(knots):
        b = BSpline.basis_element(np.asarray(knots), extrapolate=False)
        y = b(x)
        return np.nan_to_num(y)

    np.testing.assert_allclose(val(t), a1 * val(t1) + a2 * val(t2), atol=1e-12)


def test_single_insert_geometry_and_counts(rng):
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    s.coeffs[:] = rng.normal(size=len(s))
    x = rng.uniform(0, 1, 800)
    y = rng.uniform(0, 1, 800)
    f0 = evaluate(s, x, y)
    insert_segment(s, Segment(0, 0.5, 0.0, 0.6))
    f1 = evaluate(s, x, y)
    np.testing.assert_allclose(f1, f0, atol=1e-13)
    assert len(s) == 52
    validate_surface(s)


def test_insert_is_idempotent():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    insert_segment(s, Segment(0, 0.5, 0.0, 0.6))
    n = len(s)
    v = s.mesh.version
    insert_segment(s, Segment(0, 0.5, 0.0, 0.6))
    assert len(s) == n
    assert s.mesh.version == v


def test_insert_rejects_dangling_endpoints():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    with pytest.raises(ValueError):
        insert_segment(s, Segment(0, 0.5, 0.13, 0.77))


def test_insert_rejects_too_short_segment():
    # a segment spanning less than one B-spline support must be refused
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    coords, size = s.mesh.coords(0).tolist(), binary_size(s)
    with pytest.raises(ValueError):
        insert_segment(s, Segment(0, 0.5, 0.2, 0.4))
    assert s.mesh.coords(0).tolist() == coords  # u = 0.5 was never added
    assert binary_size(s) == size


def test_rejected_insert_leaves_surface_untouched():
    # restriction keeps the coordinate u = 0.5 but drops its short line, so
    # u = 0.5 is a mesh coordinate that no segment or knot uses
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (11, 11))
    insert_segment(s, Segment(0, 0.5, 0.0, 0.333333333333333))
    r = restrict(s, (0.0, 1.0, 0.4444444444444444, 1.0))
    coords = [r.mesh.coords(0).tolist(), r.mesh.coords(1).tolist()]
    size, segments = binary_size(r), r.mesh.segments()
    with pytest.raises(ValueError, match="traverse"):
        insert_segment(r, Segment(0, 0.5, 0.5555555555555556, 0.6666666666666666))
    assert [r.mesh.coords(0).tolist(), r.mesh.coords(1).tolist()] == coords
    assert binary_size(r) == size
    assert r.mesh.segments() == segments


def test_multiplicity_two_midline():
    # degree-2 tensor 4x4; full mult-2 line at the midpoint adds a full
    # column of products twice over: 16 -> 20 functions
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (4, 4))
    assert len(s) == 16
    insert_segment(s, Segment(0, 0.5, 0.0, 1.0, mult=2))
    assert len(s) == 20
    validate_surface(s)


def test_cascade_splits_neighbors(rng):
    # a segment legal for one support can force splits of overlapping
    # functions whose knots it now traverses
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    s.coeffs[:] = rng.normal(size=len(s))
    x = rng.uniform(0, 1, 500)
    y = rng.uniform(0, 1, 500)
    f0 = evaluate(s, x, y)
    insert_segment(s, Segment(1, 0.3, 0.0, 0.6))
    insert_segment(s, Segment(0, 0.3, 0.0, 0.6))
    insert_segment(s, Segment(0, 0.1, 0.0, 0.6))
    np.testing.assert_allclose(evaluate(s, x, y), f0, atol=1e-13)
    validate_surface(s)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_random_refinement_keeps_unity_and_geometry(seed):
    s = random_refined_surface(seed, n_inserts=25)
    rng = np.random.default_rng(seed + 1)
    umin, umax, vmin, vmax = s.domain
    x = rng.uniform(umin, umax, 400)
    y = rng.uniform(vmin, vmax, 400)
    pu = partition_of_unity(s, x, y)
    assert np.abs(pu - 1).max() <= 1e-10
    f0 = evaluate(s, x, y)
    b = s.bsplines[int(rng.integers(len(s)))]
    kn = b.ku
    spans = [(kn[j], kn[j + 1]) for j in range(len(kn) - 1) if kn[j + 1] > kn[j]]
    lo, hi = spans[0]
    try:
        insert_segment(s, Segment(0, 0.5 * (lo + hi), b.kv[0], b.kv[-1]))
    except ValueError:
        return
    np.testing.assert_allclose(evaluate(s, x, y), f0, atol=1e-11)


def test_scaling_factors_shrink_not_grow():
    s = random_refined_surface(3, n_inserts=60)
    assert all(0 < b.scaling <= 1 + 1e-12 for b in s.bsplines)


def test_validate_catches_broken_scaling():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    insert_segment(s, Segment(0, 0.5, 0.0, 0.6))
    s.scaling[10] *= 1.5
    s.bump()
    with pytest.raises(AssertionError):
        validate_surface(s)


def test_validate_catches_multiplicity_above_degree():
    # a segment end off the coordinates cannot be stored; a line of a
    # degree-2 direction at multiplicity 4 can, and no B-spline carries it
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    insert_segment(s, Segment(0, 0.5, 0.0, 1.0))
    validate_surface(s)
    s.mesh._mult[0][s.mesh.coords(0).tolist().index(0.5)] = 4
    with pytest.raises(AssertionError, match="multiplicity 4"):
        validate_surface(s)


@pytest.mark.parametrize("mult", [0, -1, 4, 9, 200])
def test_insert_rejects_multiplicity_outside_one_to_degree_plus_one(mult):
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    size, coords = binary_size(s), [s.mesh.coords(0).tolist(), s.mesh.coords(1).tolist()]
    with pytest.raises(ValueError, match="multiplicity"):
        insert_segment(s, Segment(0, 0.5, 0.0, 1.0, mult=mult))
    with pytest.raises(ValueError, match="multiplicity"):
        insert_segments(s, [Segment(1, 0.5, 0.0, 1.0), Segment(0, 0.5, 0.0, 1.0, mult=mult)])
    assert binary_size(s) == size
    assert [s.mesh.coords(0).tolist(), s.mesh.coords(1).tolist()] == coords


@pytest.mark.parametrize("bad", [
    Segment(2, 0.5, 0.0, 1.0),             # axis
    Segment(0, float("nan"), 0.0, 1.0),    # pos not finite
    Segment(0, 2.0, 0.0, 1.0),             # pos outside the domain
    Segment(0, 0.5, 0.13, 1.0),            # lo off the coordinates
    Segment(0, 0.5, 1.0, 0.0),             # lo >= hi
    Segment(0, 0.5, 0.4, 0.4),
    Segment(0, 0.5, 0.0, 1.0, mult=0),     # mult outside 1..d + 1
    Segment(0, 0.5, 0.0, 1.0, mult=4),
])
def test_insert_segments_rejects_bad_rows_before_the_mesh_changes(bad):
    # the good row 0 would add v = 0.5; the check runs before it does
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))

    def state():
        return ([s.mesh.coords(0).tolist(), s.mesh.coords(1).tolist()],
                s.mesh.segment_rows().tolist(), s.knots.tolist(), binary_size(s))

    before = state()
    with pytest.raises(ValueError, match="segment 1: "):
        insert_segments(s, [Segment(1, 0.5, 0.0, 1.0), bad])
    with pytest.raises(ValueError, match="segment 0: "):
        insert_segment(s, bad)
    assert state() == before
    # the same rows as an array are a batch too
    r = s.copy()
    insert_segments(s, [Segment(1, 0.5, 0.0, 1.0)])
    insert_segments(r, np.array([[1, 0.5, 0.0, 1.0, 1]]))
    assert np.array_equal(r.knots, s.knots) and len(s) == 56


def test_bspline_view_reads_the_arrays_and_refuses_writes():
    s = random_refined_surface(4, n_inserts=10, degrees=(3, 2))
    bs = s.bsplines
    assert len(bs) == len(s)
    for i in (0, 17, -1):
        b = bs[i]
        assert b.ku == tuple(s.axis_knots(0)[i].tolist())
        assert b.kv == tuple(s.axis_knots(1)[i].tolist())
        assert b.scaling == s.scaling[i]
    assert [b.knots for b in bs] == [b.knots for b in s.bsplines]
    with pytest.raises(AttributeError):
        bs[3].scaling = 2.0
    with pytest.raises(TypeError):
        bs[3] = bs[4]


def test_validate_catches_knots_out_of_order():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    ku = s.axis_knots(0)[10]
    ku[[0, -1]] = ku[[-1, 0]]
    with pytest.raises(AssertionError, match="not nondecreasing"):
        validate_surface(s)


def test_independence_full_rank_after_refinement():
    s = random_refined_surface(7, n_inserts=50)
    rep = independence_report(s)
    assert rep["full_rank"]
    assert rep["rank"] == len(s)


def test_restrict_matches_parent(rng):
    s = random_refined_surface(11, n_inserts=40)
    r = restrict(s, (0.25, 0.75, 0.25, 0.75))
    x = rng.uniform(0.26, 0.74, 600)
    y = rng.uniform(0.26, 0.74, 600)
    np.testing.assert_allclose(evaluate(r, x, y), evaluate(s, x, y), atol=1e-12)
    validate_surface(r)
    assert len(r) < len(s)


def test_restrict_snaps_to_existing_lines():
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (7, 7))
    # 0.6 only exists as the linspace artifact 0.6000000000000001
    r = restrict(s, (0.2, 0.8, 0.2, 0.6))
    umin, umax, vmin, vmax = r.domain
    assert vmax == pytest.approx(0.6)
    validate_surface(r)


def test_transpose_swaps_axes(rng):
    s = random_refined_surface(5, n_inserts=30, degrees=(2, 2))
    t = transpose(s)
    x = rng.uniform(0, 1, 300)
    y = rng.uniform(0, 1, 300)
    np.testing.assert_allclose(evaluate(t, y, x), evaluate(s, x, y), atol=1e-12)
    validate_surface(t)


def test_canonical_order_is_deterministic():
    a = random_refined_surface(9, n_inserts=30)
    b = random_refined_surface(9, n_inserts=30)
    assert [f.knots for f in a.bsplines] == [f.knots for f in b.bsplines]
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_residents_match_support_scan():
    # loop reference: the elements met by each support's fine-cell block
    s = random_refined_surface(53, n_inserts=70)
    bounds, offsets, res, cell_map, uc, vc = residents_of(s)
    expect = [[] for _ in bounds]
    for i, b in enumerate(s.bsplines):
        u0, u1, v0, v1 = b.support()
        block = cell_map[np.searchsorted(uc, u0):np.searchsorted(uc, u1),
                         np.searchsorted(vc, v0):np.searchsorted(vc, v1)]
        for e in np.unique(block):
            expect[e].append(i)
    got = [res[offsets[e]:offsets[e + 1]].tolist() for e in range(len(bounds))]
    assert got == expect
