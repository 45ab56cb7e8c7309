"""The array engines of lrterrain.mesh against their one-at-a-time oracles.

The split engine must give the same B-splines in the same order, the same
mesh and the same file size as splitting one B-spline at a time; scalings
and coefficients may differ only by the rounding of a different summation
order.  The element partition must equal the cell scan exactly, and the
multiplicity grids must hold what per-line tuple lists hold.
"""
import numpy as np
import pytest

from lrterrain import mesh, read_surface, restrict, write_surface_binary
from lrterrain.formats import binary_size
from lrterrain.tiling import stitch_grid
from conftest import random_refined_surface
from oracles import CoverOracle, element_scan, insert_knot_1d, split_worklist
from test_tiling import grid_fits

RECT = (0.23, 0.81, 0.31, 0.77)


def assert_same_surface(new, old):
    assert [b.knots for b in new.bsplines] == [b.knots for b in old.bsplines]
    assert new.mesh.segments() == old.mesh.segments()
    assert binary_size(new) == binary_size(old)
    np.testing.assert_allclose([b.scaling for b in new.bsplines],
                               [b.scaling for b in old.bsplines], rtol=1e-14, atol=0)
    np.testing.assert_allclose(new.coeffs, old.coeffs, rtol=1e-12, atol=1e-12)


def assert_same_partition(m):
    bounds, cell_map, _, _ = m.elements()
    ref_rects, ref_map = element_scan(m)
    assert np.array_equal(cell_map, ref_map)
    assert bounds.tolist() == [list(r) for r in ref_rects]


def both_engines(monkeypatch, build):
    """``build()`` with the split engine, then with the oracle."""
    new = build()
    with monkeypatch.context() as m:
        m.setattr(mesh, "_split_worklist", split_worklist)
        old = build()
    return new, old


@pytest.mark.parametrize("d", [1, 2, 3])
def test_split_weights_match_scalar_formulas(rng, d):
    # random knot vectors with repeated knots, cut at interior knots and
    # between them, so both branches of each weight are taken
    grid = np.linspace(0.0, 1.0, 6)
    t = np.sort(rng.choice(grid, size=(400, d + 2)), axis=1)
    t = t[t[:, 0] < t[:, -1]]
    c = rng.uniform(t[:, 0], t[:, -1])
    snap = rng.random(len(t)) < 0.5
    c[snap] = t[snap, 1 + rng.integers(0, d, snap.sum())]
    keep = (t[:, 0] < c) & (c < t[:, -1])
    t, c = t[keep], c[keep]
    a1, a2 = mesh._split_weights(t, d, c)
    ref = [insert_knot_1d(tuple(row), d, ci) for row, ci in zip(t.tolist(), c.tolist())]
    assert len(ref) > 200
    assert np.any(a1 == 1.0) and np.any(a1 < 1.0)
    assert np.any(a2 == 1.0) and np.any(a2 < 1.0)
    np.testing.assert_allclose(a1, [r[0][0] for r in ref], rtol=1e-15, atol=0)
    np.testing.assert_allclose(a2, [r[1][0] for r in ref], rtol=1e-15, atol=0)


@pytest.mark.parametrize("degrees", [(2, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("seed", range(4))
def test_split_engine_matches_oracle(monkeypatch, degrees, seed):
    def build():
        s = random_refined_surface(seed, n_inserts=60, degrees=degrees)
        return s, restrict(s, RECT)

    (s, r), (s_ref, r_ref) = both_engines(monkeypatch, build)
    assert len(s) > 49
    assert_same_surface(s, s_ref)
    assert_same_surface(r, r_ref)
    assert_same_partition(s.mesh)
    assert_same_partition(r.mesh)


def test_split_engine_matches_oracle_on_c1_grid(monkeypatch):
    def build():
        return stitch_grid(grid_fits(7, counts=(3, 3)), (3, 3), c1=True)

    new, old = both_engines(monkeypatch, build)
    assert len(new) == 9
    for s, s_ref in zip(new, old):
        assert_same_surface(s, s_ref)
        assert_same_partition(s.mesh)


def test_split_engine_merges_shared_products(monkeypatch):
    # Neighbouring quadratics split by one line share a product, so full
    # lines at u = 0.5 and v = 0.5 turn a 5 x 5 tensor space into 6 x 6
    # functions, not 8 x 8.
    def build():
        s = mesh.make_tensor_surface((0, 1, 0, 1), (2, 2), (5, 5))
        s.coeffs[:] = np.arange(len(s), dtype=float)
        mesh.insert_segments(s, [mesh.Segment(0, 0.5, 0.0, 1.0),
                                 mesh.Segment(1, 0.5, 0.0, 1.0)])
        return s

    new, old = both_engines(monkeypatch, build)
    assert len(new) == 36
    assert_same_surface(new, old)
    mesh.validate_surface(new)


def random_batch(rng, s):
    """Segments on lines at multiples of 1/16 between existing coordinates:
    single parts, abutting parts of equal multiplicity and overlapping
    parts, at multiplicities 1..degree + 1."""
    segs = []
    for _ in range(6):
        axis = int(rng.integers(2))
        pos = int(rng.integers(1, 16)) / 16
        other = s.mesh.coords(1 - axis).tolist()
        a, b, c, e = sorted(rng.choice(len(other), 4, replace=False).tolist())
        m1, m2 = rng.integers(1, s.degrees[axis] + 2, 2).tolist()
        kind = int(rng.integers(3))
        parts = ([(a, e, m1)] if kind == 0 else [(a, b, m1), (b, c, m1)] if kind == 1
                 else [(a, c, m1), (b, e, m2)])
        segs += [mesh.Segment(axis, pos, other[lo], other[hi], m) for lo, hi, m in parts]
    return segs


def assert_same_cover(m, ref, rng):
    assert m.segments() == ref.segments()
    for axis in (0, 1):
        own, other = m.coords(axis), m.coords(1 - axis)
        pos = np.concatenate([own, rng.uniform(own[0], own[-1], 5)])
        for p in pos:
            lo, hi = np.sort(rng.choice(other, 2, replace=False))
            if rng.random() < 0.3:
                lo, hi = np.sort(rng.uniform(other[0], other[-1], 2))
            assert m.cover_mult(axis, p, lo, hi) == ref.cover_mult(axis, p, lo, hi)


@pytest.mark.parametrize("degrees", [(2, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_coverage_grid_matches_tuple_lists(tmp_path, degrees, seed):
    rng = np.random.default_rng(seed)
    domain = (0.0, 1.0, 0.0, 1.0)
    s = mesh.make_tensor_surface(domain, degrees, (6, 6))
    ref = CoverOracle(s.mesh.segments())
    for _ in range(4):
        batch = random_batch(rng, s)
        mesh.insert_segments(s, batch)
        for seg in batch:
            ref.add(seg.axis, seg.pos, seg.lo, seg.hi, seg.mult)
        assert_same_cover(s.mesh, ref, rng)
    assert_same_cover(mesh.transpose(s).mesh, ref.transposed(), rng)
    r = restrict(s, RECT)
    ref_r = ref.restricted(domain, RECT, degrees)
    assert_same_cover(r.mesh, ref_r, rng)
    write_surface_binary(r, tmp_path / "r.lrs")
    assert_same_cover(read_surface(tmp_path / "r.lrs").mesh, ref_r, rng)


@pytest.mark.parametrize("degrees", [(2, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("seed", range(4))
def test_replay_does_not_depend_on_segment_order(degrees, seed):
    # The LR B-splines are fixed by the mesh: a one-element tensor surface
    # given a refined surface's coordinates and then its segments, in one
    # batch or in shuffled batches split at random points, has its knot rows
    # and (up to rounding) its scalings.
    s = random_refined_surface(seed, n_inserts=60, degrees=degrees)
    assert len(s) > 49
    rng = np.random.default_rng(seed)
    segs = s.mesh.segments()
    order = rng.permutation(len(segs))
    cuts = np.sort(rng.choice(np.arange(1, len(segs)), size=5, replace=False))
    for batches in ([segs], [[segs[k] for k in part] for part in np.split(order, cuts)]):
        r = mesh.make_tensor_surface(s.domain, degrees, (degrees[0] + 1, degrees[1] + 1))
        r.mesh.snap_many((axis, c) for axis in (0, 1) for c in s.mesh.coords(axis))
        for batch in batches:
            mesh.insert_segments(r, batch)
        assert np.array_equal(r.knots, s.knots)
        np.testing.assert_allclose(r.scaling, s.scaling, rtol=1e-14, atol=0)
