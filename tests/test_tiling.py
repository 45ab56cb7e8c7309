import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import lrterrain
from lrterrain import evaluate, make_tensor_surface, restrict, tiling
from lrterrain.adaptive import FitConfig, fit
from lrterrain.benchmark import benchmark_points
from lrterrain.evaluate import distance_field
from lrterrain.formats import write_surface_binary
from lrterrain.tiling import (
    Tile,
    TileFit,
    fit_tiles,
    make_tiles,
    read_manifest,
    stitch_c0,
    stitch_c1,
    stitch_grid,
    tile_index,
    write_manifest,
)
from conftest import random_refined_surface


def edge_gap(a, b, axis=0, n=1000, order=0):
    """Largest cross-boundary disagreement sampled along the shared edge."""
    if axis == 0:
        xs = a.domain[1]
        t = np.linspace(a.domain[2], a.domain[3], n)
        fa = evaluate(a, np.full(n, xs), t, order=order)
        fb = evaluate(b, np.full(n, xs), t, order=order)
    else:
        ys = a.domain[3]
        t = np.linspace(a.domain[0], a.domain[1], n)
        fa = evaluate(a, t, np.full(n, ys), order=order)
        fb = evaluate(b, t, np.full(n, ys), order=order)
    return np.max(np.abs(fa - fb), axis=0)


def plane_points(rng, bbox, n=4000):
    x = rng.uniform(bbox[0], bbox[1], n)
    y = rng.uniform(bbox[2], bbox[3], n)
    return np.column_stack([x, y, 1.5 * x - 0.7 * y + 2.0])


# -- tile layout ----------------------------------------------------------


def test_single_tile_covers_bbox():
    (t,) = make_tiles((0, 10, -5, 5), (1, 1))
    assert t.core == (0, 10, -5, 5)
    assert t.expanded == (0, 10, -5, 5)


def test_zero_overlap_is_exact_partition():
    tiles = make_tiles((0, 8, 0, 6), (4, 3), overlap=0.0)
    assert len(tiles) == 12
    for t in tiles:
        assert t.expanded == t.core
    xs = sorted({t.core[0] for t in tiles} | {t.core[1] for t in tiles})
    assert xs == [0, 2, 4, 6, 8]


def test_layout_validation():
    with pytest.raises(ValueError):
        make_tiles((0, 1, 0, 1), (0, 2))
    with pytest.raises(ValueError):
        make_tiles((1, 1, 0, 1), (2, 2))
    with pytest.raises(ValueError):
        make_tiles((0, 1, 0, 1), (2, 2), overlap=-0.1)


def test_expanded_tiles_cover_and_cores_partition(rng):
    bbox = (0, 10, 0, 6)
    tiles = make_tiles(bbox, (5, 3))
    x = rng.uniform(bbox[0], bbox[1], 500)
    y = rng.uniform(bbox[2], bbox[3], 500)
    for xi, yi in zip(x, y):
        in_exp = sum(t.expanded[0] <= xi <= t.expanded[1]
                     and t.expanded[2] <= yi <= t.expanded[3] for t in tiles)
        in_core = sum(t.core[0] <= xi < t.core[1]
                      and t.core[2] <= yi < t.core[3] for t in tiles)
        assert in_exp >= 1
        assert in_core == 1


def test_tile_index_matches_core_membership(rng):
    bbox = (-3, 9, 2, 20)
    counts = (4, 5)
    tiles = make_tiles(bbox, counts)
    x = rng.uniform(bbox[0], bbox[1], 300)
    y = rng.uniform(bbox[2], bbox[3], 300)
    ix, iy = tile_index(bbox, counts, x, y)
    for xi, yi, i, j in zip(x, y, ix, iy):
        t = tiles[j * counts[0] + i]
        assert t.ix == i and t.iy == j
        assert t.core[0] <= xi <= t.core[1]
        assert t.core[2] <= yi <= t.core[3]
    # bbox maximum belongs to the last tile
    ix, iy = tile_index(bbox, counts, [9.0], [20.0])
    assert ix[0] == 3 and iy[0] == 4


# -- per-tile fitting -----------------------------------------------------


def test_single_tile_fit_equals_plain_fit(rng):
    pts, tau = benchmark_points(5000)
    cfg = FitConfig(tolerance=tau, max_iterations=2)
    plain, _, _ = fit(pts, cfg, domain=(0, 100, 0, 100))
    (tf,) = fit_tiles(pts, make_tiles((0, 100, 0, 100), (1, 1)), cfg)
    x = rng.uniform(0, 100, 400)
    y = rng.uniform(0, 100, 400)
    assert np.max(np.abs(evaluate(tf.surface, x, y) - evaluate(plain, x, y))) < 1e-12
    assert tf.n_points == len(pts)
    assert set(tf.flags) == {"converged", "frozen", "iterations"}


def test_empty_tile_becomes_hole(rng):
    # all points in the left half, so the right tiles have nothing to fit
    pts = plane_points(rng, (0, 4.5, 0, 10), n=3000)
    fits = fit_tiles(pts, make_tiles((0, 10, 0, 10), (2, 1), overlap=0.0),
                     FitConfig(tolerance=1e-3, max_iterations=1))
    assert fits[0].surface is not None
    assert fits[1].surface is None
    assert fits[1].n_points == 0


def test_plane_tiles_nearly_agree_before_stitching(rng):
    pts = plane_points(rng, (0, 10, 0, 10))
    fits = fit_tiles(pts, make_tiles((0, 10, 0, 10), (2, 1)),
                     FitConfig(tolerance=1e-6, max_iterations=1))
    a, b = fits[0].surface, fits[1].surface
    assert a.domain[1] == b.domain[0]
    assert edge_gap(a, b) < 1e-6


def fits_here(monkeypatch) -> list:
    """Patch ``tiling.fit`` to list the tile fits run in this process; a
    forked worker appends to its own copy of the list."""
    here = []

    def recording_fit(points, config, domain):
        here.append(domain)
        return fit(points, config, domain=domain)

    monkeypatch.setattr(tiling, "fit", recording_fit)
    return here


def test_parallel_tile_fits_match_in_process_fits(monkeypatch, tmp_path):
    # a 3x3 grid whose middle tile is empty, fitted in worker processes
    # and then in this process alone
    pts, tau = benchmark_points(6000, seed=3)
    middle = ((pts[:, 0] > 31) & (pts[:, 0] < 69) & (pts[:, 1] > 31) & (pts[:, 1] < 69))
    pts = pts[~middle]
    tiles = make_tiles((0, 100, 0, 100), (3, 3))
    cfg = FitConfig(tolerance=tau, max_iterations=2)
    here = fits_here(monkeypatch)
    runs = []
    for cpus, fitted_here in ((2, 0), (1, 8)):
        monkeypatch.setattr(tiling, "_usable_cpus", lambda: cpus)
        here.clear()
        runs.append(fit_tiles(pts, tiles, cfg))
        assert len(here) == fitted_here
        assert multiprocessing.active_children() == []
    parallel, alone = runs
    assert [f.surface is None for f in parallel] == [k == 4 for k in range(9)]
    for a, b in zip(parallel, alone):
        assert a.tile == b.tile
        assert (a.n_points, a.flags, a.reports) == (b.n_points, b.flags, b.reports)
        assert (a.surface is None) == (b.surface is None)
        if a.surface is not None:
            write_surface_binary(a.surface, tmp_path / "a.lrs")
            write_surface_binary(b.surface, tmp_path / "b.lrs")
            assert (tmp_path / "a.lrs").read_bytes() == (tmp_path / "b.lrs").read_bytes()


def test_fit_tiles_runs_in_process_while_other_threads_run(rng, monkeypatch):
    monkeypatch.setattr(tiling, "_usable_cpus", lambda: 2)
    here = fits_here(monkeypatch)
    pts = plane_points(rng, (0, 10, 0, 10), n=3000)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, args=(30,))
    waiter.start()
    try:
        fit_tiles(pts, make_tiles((0, 10, 0, 10), (2, 1)),
                  FitConfig(tolerance=1e-3, max_iterations=1))
    finally:
        stop.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert len(here) == 2


@pytest.mark.parametrize("cpus", [1, 2])
def test_fit_tiles_warns_for_a_tile_with_too_few_points(rng, monkeypatch, cpus):
    monkeypatch.setattr(tiling, "_usable_cpus", lambda: cpus)
    few = np.column_stack([rng.uniform(7, 9, 5), rng.uniform(2, 8, 5), np.ones(5)])
    pts = np.vstack([plane_points(rng, (0, 4.5, 0, 10), n=2000), few])
    tiles = make_tiles((0, 10, 0, 10), (2, 1), overlap=0.0)
    with pytest.warns(UserWarning, match="fewer points than one patch's coefficients"):
        fits = fit_tiles(pts, tiles, FitConfig(tolerance=1e-3, max_iterations=1))
    assert fits[1].n_points == 5 and fits[1].surface is not None


@pytest.mark.parametrize("cpus", [1, 2])
def test_fit_tiles_raises_a_tile_error_and_leaves_no_worker(rng, monkeypatch, cpus):
    monkeypatch.setattr(tiling, "_usable_cpus", lambda: cpus)

    def failing_fit(points, config, domain):
        if domain[0] > 0:
            raise ValueError("tile fit failed")
        return fit(points, config, domain=domain)

    monkeypatch.setattr(tiling, "fit", failing_fit)
    pts = plane_points(rng, (0, 10, 0, 10), n=3000)
    tiles = make_tiles((0, 10, 0, 10), (2, 2), overlap=0.0)
    with pytest.raises(ValueError, match="^tile fit failed$") as caught:
        fit_tiles(pts, tiles, FitConfig(tolerance=1e-3, max_iterations=1))
    assert caught.type is ValueError
    assert multiprocessing.active_children() == []


# A fresh interpreter: the package import loads no scipy.spatial, and the
# tile fits, in two forked workers, log per call whether the worker had it
# loaded when the fit started.
WARM_WORKERS = """
import os, sys
import numpy as np
import lrterrain
from lrterrain import tiling
print(int("scipy.spatial" in sys.modules), os.getpid())
plain_fit, log = tiling.fit, sys.argv[1]

def logging_fit(points, config, domain):
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {int('scipy.spatial' in sys.modules)}\\n")
    return plain_fit(points, config, domain=domain)

tiling.fit = logging_fit
tiling._usable_cpus = lambda: 2
x, y = np.random.default_rng(0).uniform(0, 10, (2, 3000))
tiling.fit_tiles(np.column_stack([x, y, 0.3 * x - 0.2 * y]),
                 tiling.make_tiles((0, 10, 0, 10), (2, 2)),
                 lrterrain.FitConfig(tolerance=1e-3, max_iterations=1))
"""


def test_tile_workers_start_with_the_lazy_imports_loaded(tmp_path):
    log = tmp_path / "fits.log"
    src = str(Path(lrterrain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", WARM_WORKERS, str(log)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded_at_import, parent = map(int, done.stdout.split())
    assert not loaded_at_import
    first: dict[int, int] = {}
    for line in log.read_text().splitlines():
        pid, loaded = map(int, line.split())
        first.setdefault(pid, loaded)
    assert first and parent not in first
    assert all(first.values()), f"first tile of each worker pid: loaded {first}"


# -- pairwise stitching ---------------------------------------------------


def test_stitch_c0_closes_random_pair():
    s = random_refined_surface(7, domain=(0, 2, 0, 1), grid=(9, 5))
    a = restrict(s, (0, 1, 0, 1))
    b = restrict(s, (1, 2, 0, 1))
    # perturb one side so the traces genuinely differ
    b.coeffs += 0.1 * np.sin(np.arange(len(b)))
    before = edge_gap(a, b)
    assert before > 1e-3
    a2, b2 = stitch_c0(a, b)
    assert edge_gap(a2, b2) < 1e-10
    # inputs untouched
    assert edge_gap(a, b) == before


def test_stitch_c0_identical_halves_change_nothing(rng):
    s = random_refined_surface(3, domain=(0, 2, 0, 1), grid=(9, 5))
    a = restrict(s, (0, 1, 0, 1))
    b = restrict(s, (1, 2, 0, 1))
    a2, b2 = stitch_c0(a, b)
    x = rng.uniform(0, 1, 300)
    y = rng.uniform(0, 1, 300)
    assert np.max(np.abs(evaluate(a2, x, y) - evaluate(a, x, y))) < 1e-12
    assert np.max(np.abs(evaluate(b2, x + 1, y) - evaluate(b, x + 1, y))) < 1e-12


def test_stitch_interior_is_local(rng):
    s = random_refined_surface(11, domain=(0, 2, 0, 1), grid=(9, 5))
    a = restrict(s, (0, 1, 0, 1))
    b = restrict(s, (1, 2, 0, 1))
    b.coeffs += rng.normal(0, 0.05, len(b))
    a2, _ = stitch_c1(a, b)
    # away from the boundary strip the surface is bit-identical
    x = rng.uniform(0.01, 0.5, 300)
    y = rng.uniform(0.01, 0.99, 300)
    assert np.array_equal(evaluate(a2, x, y), evaluate(a, x, y))


def test_stitch_c1_plane_stays_plane(rng):
    pts = plane_points(rng, (0, 10, 0, 10))
    fits = fit_tiles(pts, make_tiles((0, 10, 0, 10), (2, 1)),
                     FitConfig(tolerance=1e-6, max_iterations=1))
    a, b = stitch_c1(fits[0].surface, fits[1].surface,
                     weights=(fits[0].n_points, fits[1].n_points))
    x = rng.uniform(0, 10, 500)
    y = rng.uniform(0, 10, 500)
    z = np.empty(500)
    left = x <= 5
    z[left] = evaluate(a, x[left], y[left])
    z[~left] = evaluate(b, x[~left], y[~left])
    assert np.max(np.abs(z - (1.5 * x - 0.7 * y + 2.0))) < 1e-6
    assert max(edge_gap(a, b, order=1)) < 1e-9


def test_stitch_c1_closes_value_and_derivative():
    s = random_refined_surface(19, domain=(0, 2, 0, 1), grid=(9, 5))
    a = restrict(s, (0, 1, 0, 1))
    b = restrict(s, (1, 2, 0, 1))
    b.coeffs += 0.1 * np.cos(np.arange(len(b)))
    a2, b2 = stitch_c1(a, b)
    gaps = edge_gap(a2, b2, order=1)
    scale = np.max(np.abs(evaluate(a2, np.full(1000, 1.0),
                                   np.linspace(0, 1, 1000), order=1)), axis=0)
    assert gaps[0] < 1e-10
    assert gaps[1] < 1e-7 * max(scale[1], 1.0)
    assert gaps[2] < 1e-7 * max(scale[2], 1.0)


def test_stitch_axis1():
    s = random_refined_surface(23, domain=(0, 1, 0, 2), grid=(5, 9))
    a = restrict(s, (0, 1, 0, 1))
    b = restrict(s, (0, 1, 1, 2))
    b.coeffs += 0.1 * np.sin(np.arange(len(b)))
    assert edge_gap(a, b, axis=1) > 1e-3
    a2, b2 = stitch_c1(a, b, axis=1)
    gaps = edge_gap(a2, b2, axis=1, order=1)
    assert gaps[0] < 1e-10
    assert max(gaps[1:]) < 1e-7 * 10


def test_stitch_rejects_mismatched_pairs():
    a = make_tensor_surface((0, 1, 0, 1), (2, 2), (4, 4))
    with pytest.raises(ValueError, match="boundary"):
        stitch_c0(a, make_tensor_surface((2, 3, 0, 1), (2, 2), (4, 4)))
    with pytest.raises(ValueError, match="degree"):
        stitch_c0(a, make_tensor_surface((1, 2, 0, 1), (3, 3), (4, 4)))
    with pytest.raises(ValueError, match="span"):
        stitch_c0(a, make_tensor_surface((1, 2, 0, 2), (2, 2), (4, 4)))


def test_stitch_weights_pull_toward_heavier_side():
    s = random_refined_surface(29, domain=(0, 2, 0, 1), grid=(9, 5))
    a = restrict(s, (0, 1, 0, 1))
    b = restrict(s, (1, 2, 0, 1))
    b.coeffs += 0.2
    t = np.linspace(0, 1, 200)
    ea = evaluate(a, np.full(200, 1.0), t)
    a2, b2 = stitch_c0(a, b, weights=(1e9, 1.0))
    # with a dominant left weight the shared curve is the left trace
    assert np.max(np.abs(evaluate(a2, np.full(200, 1.0), t) - ea)) < 1e-6
    assert edge_gap(a2, b2) < 1e-10


# -- grid stitching -------------------------------------------------------


def grid_fits(seed, c1_noise=0.1, counts=(2, 2), degrees=(2, 2)):
    """Unit tiles cut from one random surface, each perturbed on its own."""
    nx, ny = counts
    s = random_refined_surface(seed, domain=(0, nx, 0, ny), degrees=degrees,
                               grid=(4 * nx + 1, 4 * ny + 1))
    rng = np.random.default_rng(seed + 1)
    fits = []
    for iy in range(ny):
        for ix in range(nx):
            r = restrict(s, (ix, ix + 1, iy, iy + 1))
            r.coeffs += rng.normal(0, c1_noise, len(r))
            fits.append(TileFit(Tile(ix, iy, r.domain, r.domain), r,
                                n_points=100 * (1 + ix + nx * iy)))
    return fits


def test_grid_c0_closes_all_edges():
    S = stitch_grid(grid_fits(5), (2, 2))
    assert edge_gap(S[0], S[1]) < 1e-10
    assert edge_gap(S[2], S[3]) < 1e-10
    assert edge_gap(S[0], S[2], axis=1) < 1e-10
    assert edge_gap(S[1], S[3], axis=1) < 1e-10
    # the four corner values coincide too
    vals = [evaluate(s, [1.0], [1.0])[0] for s in S]
    assert np.ptp(vals) < 1e-12


def test_grid_c1_closes_derivatives_through_corner():
    S = stitch_grid(grid_fits(13), (2, 2), c1=True)
    scale = max(np.max(np.abs(evaluate(s, np.linspace(*s.domain[:2], 40),
                                       np.linspace(*s.domain[2:], 40),
                                       order=1)[:, 1:])) for s in S)
    for a, b, axis in [(S[0], S[1], 0), (S[2], S[3], 0),
                       (S[0], S[2], 1), (S[1], S[3], 1)]:
        gaps = edge_gap(a, b, axis=axis, order=1)
        assert gaps[0] < 1e-10
        assert max(gaps[1:]) < 1e-7 * scale
    # sampling right up against the corner catches window bookkeeping slips
    eps = np.array([1e-9, 1e-6, 1e-3])
    for a, b, yy in [(S[0], S[1], 1.0 - eps), (S[2], S[3], 1.0 + eps)]:
        ga = evaluate(a, np.full(3, 1.0), yy, order=1)
        gb = evaluate(b, np.full(3, 1.0), yy, order=1)
        assert np.max(np.abs(ga - gb)) < 1e-7 * scale


def assert_c1_closes(S, counts):
    """Every edge between two present tiles closes in value (1e-10) and
    in first derivatives (1e-7 of the slope scale of the present tiles)."""
    nx, ny = counts
    scale = max(np.max(np.abs(evaluate(s, np.linspace(*s.domain[:2], 40),
                                       np.linspace(*s.domain[2:], 40),
                                       order=1)[:, 1:])) for s in S if s is not None)
    edges = [(S[iy * nx + ix], S[iy * nx + ix + 1], 0)
             for iy in range(ny) for ix in range(nx - 1)]
    edges += [(S[iy * nx + ix], S[(iy + 1) * nx + ix], 1)
              for iy in range(ny - 1) for ix in range(nx)]
    for a, b, axis in edges:
        if a is None or b is None:
            continue
        gaps = edge_gap(a, b, axis=axis, order=1)
        assert gaps[0] <= 1e-10
        assert max(gaps[1:]) <= 1e-7 * scale


@pytest.mark.parametrize("degrees", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("counts", [(3, 2), (2, 3), (1, 3), (3, 1)])
def test_grid_c1_closes_every_edge_of_uneven_grids(counts, degrees):
    # unequal counts and degrees catch an edge helper that reads the wrong
    # axis: every u-edge and every v-edge must close
    S = stitch_grid(grid_fits(7, counts=counts, degrees=degrees), counts, c1=True)
    assert_c1_closes(S, counts)


def test_grid_stitch_is_deterministic():
    r1 = stitch_grid(grid_fits(31), (2, 2), c1=True)
    r2 = stitch_grid(grid_fits(31), (2, 2), c1=True)
    for a, b in zip(r1, r2):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_grid_with_hole_stitches_remaining_edges():
    # the windows next to a corner with a hole belong to the corner's joint
    # system or, at a corner of two tiles, to their shared edge
    layouts = [((2, 2), [k]) for k in range(4)]  # each single hole: three-tile corners
    layouts += [((2, 2), [2, 3]),  # an empty top row: two-tile corners
                ((3, 3), [4])]     # an empty middle: four three-tile corners
    for counts, holes in layouts:
        fits = grid_fits(17, counts=counts)
        for k in holes:
            fits[k] = TileFit(fits[k].tile, None)
        S = stitch_grid(fits, counts, c1=True)
        assert [k for k, s in enumerate(S) if s is None] == holes
        assert_c1_closes(S, counts)


def test_grid_count_mismatch_raises():
    with pytest.raises(ValueError):
        stitch_grid(grid_fits(5), (3, 2))


# -- manifest -------------------------------------------------------------


def test_manifest_round_trip(tmp_path, rng):
    bbox = (0, 10, 0, 10)
    tiles = make_tiles(bbox, (2, 1))
    pts = plane_points(rng, bbox)
    fits = fit_tiles(pts, tiles, FitConfig(tolerance=1e-6, max_iterations=1))
    path = tmp_path / "tiles.json"
    write_manifest(path, (2, 1), 0.05, ["a.lrs", "b.lrs"], fits)
    m = read_manifest(path)
    assert m["counts"] == [2, 1]
    assert m["overlap"] == 0.05
    assert [t["surface"] for t in m["tiles"]] == ["a.lrs", "b.lrs"]
    assert m["tiles"][0]["core"] == list(tiles[0].core)
    assert m["tiles"][0]["n_points"] == fits[0].n_points
    assert m["tiles"][0]["report"][-1]["coefficients"] > 0
    # stable serialization: a rewrite is byte-identical
    first = path.read_bytes()
    write_manifest(path, (2, 1), 0.05, ["a.lrs", "b.lrs"], fits)
    assert path.read_bytes() == first


def test_manifest_missing_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bbox": [0, 1, 0, 1], "counts": [1, 1]}))
    with pytest.raises(ValueError, match="tiles"):
        read_manifest(path)


# -- whole-pipeline comparison -------------------------------------------


def test_tiled_fit_matches_untiled_accuracy():
    # same benchmark, same budget: the per-tile out-of-tolerance total must
    # track the untiled fit to within 1% of the point count
    pts, tau = benchmark_points(30_000, seed=17)
    cfg = FitConfig(tolerance=tau, max_iterations=4, initial_grid=(8, 8))
    _, reports, _ = fit(pts, cfg)
    untiled_out = reports[-1].n_out

    bbox = (0, 100, 0, 100)
    fits = fit_tiles(pts, make_tiles(bbox, (2, 2)), cfg)
    ix, iy = tile_index(bbox, (2, 2), pts[:, 0], pts[:, 1])
    tiled_out = 0
    for k, f in enumerate(fits):
        sel = (ix + 2 * iy) == k
        status = distance_field(f.surface, pts[sel], tau)["status"]
        tiled_out += int((np.abs(status) == 1).sum())
    assert untiled_out > 0  # budget chosen so the comparison is not 0 == 0
    assert abs(tiled_out - untiled_out) <= 0.01 * len(pts)


def test_fit_tiles_rejects_a_flat_array():
    tiles = make_tiles((0.0, 1.0, 0.0, 1.0), (2, 2))
    with pytest.raises(ValueError, match=r"points must be a nonempty \(n, 3\) array"):
        fit_tiles(np.zeros(5), tiles)


@pytest.mark.parametrize("overlap", [np.nan, np.inf])
def test_overlap_must_be_a_finite_number(overlap):
    with pytest.raises(ValueError, match="overlap fraction must be a finite number"):
        make_tiles((0.0, 1.0, 0.0, 1.0), (2, 2), overlap)


def test_fit_tiles_rejects_non_finite_rows():
    pts, tau = benchmark_points(4000)
    pts[100] = np.nan
    tiles = make_tiles((0.0, 100.0, 0.0, 100.0), (2, 2), 0.1)
    with pytest.raises(ValueError, match="finite; row 100"):
        fit_tiles(pts, tiles, FitConfig(tolerance=tau, max_iterations=1))
