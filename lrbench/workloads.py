"""The three benchmark workloads: inputs, the timed library call, checks.

Each workload generates its surveys from the seed alone, fits them through
the public lrterrain API, and checks the result against the generator's
own labels and truth terrain, against the reference evaluator, and
against properties the method must have.  Library functions are looked up
on their modules at call time, so a traced run sees the wrapped versions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lrterrain
from lrterrain import tiling
from lrterrain.benchmark import benchmark_points, benchmark_terrain

from reference import ReferenceSurface

UNITY_TOL = 1e-10      # partition of unity, absolute
AGREE_TOL = 1e-9       # reference vs evaluate, relative to the height scale
C0_TOL = 1e-10         # stitched value gap on a shared edge, absolute
C1_TOL = 1e-7          # stitched derivative gap, relative to the slope scale
CHECK_POINTS = 400     # reference sample points per surface
TRUTH_RMS_LIMIT = 0.5  # survey_merge surface vs noise-free terrain, in tolerances


@dataclass
class Inputs:
    """What a run reads back from its input directory."""

    surveys: list[tuple[str, np.ndarray, dict]]   # name, points, header
    info: dict                                    # tolerance and the like
    labels: dict[str, np.ndarray]                 # generator labels per survey


@dataclass
class Result:
    surfaces: list                        # final surface(s)
    reports: list = field(default_factory=list)  # iteration reports
    fit_points: np.ndarray | None = None  # points the last report measured
    extra: dict = field(default_factory=dict)


def seafloor(x, y):
    """Noise-free terrain of the survey-merge workload."""
    return (2.0 * np.sin(0.12 * x) * np.cos(0.09 * y)
            + 1.2 * np.sin(0.31 * x + 0.7) + 0.8 * np.cos(0.23 * y)
            + 0.02 * x + 3.0)


def _soundings(n: int, seed: int, tolerance_factor: float):
    """One benchmark survey; the fit tolerance is a share of its own tau."""
    pts, tau = benchmark_points(n, seed=seed)
    return ([("soundings", pts, {})],
            {"tolerance": tolerance_factor * tau, "tau": tau}, {})


def _grid(xr, yr):
    gx, gy = np.meshgrid(np.linspace(*xr), np.linspace(*yr))
    return gx.ravel(), gy.ravel()


class _Workload:
    """Defaults: one final surface and no workload-specific check.

    A workload object is one workload at one seed and size; ``tag`` names
    its size in the input cache.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def owner(self, result: Result, x, y):
        """Index into ``result.surfaces`` of the surface queried per point."""
        return np.zeros(len(x), dtype=np.int64)

    def check(self, data: Inputs, result: Result, values) -> list[str]:
        return []


class SurveyMerge(_Workload):
    """Three overlapping surveys; the lowest-scored one is offset in a band.

    A (score 1.0) covers x in [0, 50], B (0.4) x in [25, 75], C (0.7) x in
    [55, 100], all y in [0, 50], with different densities and noise.  B is
    raised by 4 tolerances where it lies inside A's sampled extent, so
    deconfliction must remove that band and keep everything else.  Square
    initial elements and a level-2 reference keep the reference space nearly
    the same from seed to seed.  The final fit re-approximates the cleaned
    points on that space without refining further: on some seeds a few
    band points near A's edge survive deconfliction, and refining after
    them would double the fit on those seeds only.
    """

    name = "survey_merge"
    truth = staticmethod(seafloor)
    tolerance = 0.5
    # name, score, x footprint, points at full size, noise in tolerances
    specs = (("mbes_a", 1.0, (0.0, 50.0), 120_000, 1 / 20),
             ("sbes_b", 0.4, (25.0, 75.0), 80_000, 1 / 20),
             ("lidar_c", 0.7, (55.0, 100.0), 100_000, 1 / 10))
    offset = 4.0  # band offset of survey B, in tolerances

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        self.scale = 0.1 if smoke else 0.6
        self.tag = f"x{self.scale:g}"
        self.grid = _grid((0.5, 99.5, 600), (0.5, 49.5, 300))

    def generate(self):
        rng = np.random.default_rng(self.seed)
        tau = self.tolerance
        surveys, labels = [], {}
        for name, score, (x0, x1), n, noise in self.specs:
            n = int(n * self.scale)
            x = rng.uniform(x0, x1, n)
            y = rng.uniform(0.0, 50.0, n)
            z = seafloor(x, y) + rng.normal(0.0, noise * tau, n)
            band = np.zeros(n, dtype=bool)
            if name == "sbes_b":
                a = surveys[0][1]
                band = ((x >= a[:, 0].min()) & (x <= a[:, 0].max())
                        & (y >= a[:, 1].min()) & (y <= a[:, 1].max()))
                z[band] += self.offset * tau
            surveys.append((name, np.column_stack([x, y, z]), {"score": score}))
            labels[name] = band
        return surveys, {"tolerance": tau}, labels

    def fit(self, data: Inputs) -> Result:
        tau = data.info["tolerance"]
        surveys = [lrterrain.Survey(p, name=n, score=float(meta["score"]))
                   for n, p, meta in data.surveys]
        surface, cleaned, report = lrterrain.deconflict_fit(
            surveys, fit_config=lrterrain.FitConfig(tolerance=tau, initial_grid=(16, 8)),
            cfg=lrterrain.DeconflictConfig(tolerance=tau, reference_level=2,
                                           total_iterations=2))
        kept = np.concatenate([s.points for s in cleaned])
        return Result([surface], report["final_iterations"], kept,
                      {"cleaned": [s.points for s in cleaned]})

    def check(self, data: Inputs, result: Result, values) -> list[str]:
        errs = []
        removed = kept_other = n_band = n_other = 0
        for (name, pts, _), cleaned in zip(data.surveys, result.extra["cleaned"]):
            kept = np.isin(pts[:, 0], cleaned[:, 0])
            if kept.sum() != len(cleaned):
                errs.append(f"{name}: cleaned survey is not a subset of the input")
                continue
            band = data.labels[name]
            removed += int((~kept & band).sum())
            n_band += int(band.sum())
            kept_other += int((kept & ~band).sum())
            n_other += int((~band).sum())
        if n_band and removed < 0.99 * n_band:
            errs.append(f"offset band removal {removed}/{n_band} below 99%")
        if kept_other < 0.99 * n_other:
            errs.append(f"retention {kept_other}/{n_other} below 99%")
        rms = truth_rms_tol(self, values, data.info["tolerance"])
        if not rms < TRUTH_RMS_LIMIT:
            errs.append(f"truth RMS {rms:.4g} tolerances is not below {TRUTH_RMS_LIMIT}")
        return errs


class FineFit(_Workload):
    """One benchmark survey fitted at 0.4 of its tolerance for 4 iterations.

    The noise is a fifth of the tolerance, so hundreds of points stay out
    of tolerance at the cap on every seed: the fit chases noise and never
    stops early, which keeps its refinement work the same across seeds.
    With the default 7 x 7 start the first refinements took one of two
    patterns depending on the seed; a 10 x 10 start gives one.
    """

    name = "fine_fit"
    truth = staticmethod(benchmark_terrain)

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        self.n, self.iterations = (3_000, 3) if smoke else (25_000, 4)
        self.tag = f"n{self.n}"
        self.grid = _grid((0.5, 99.5, 300), (0.5, 99.5, 300))

    def generate(self):
        return _soundings(self.n, self.seed, 0.4)

    def fit(self, data: Inputs) -> Result:
        pts = data.surveys[0][1]
        surface, reports, _ = lrterrain.fit(pts, lrterrain.FitConfig(
            tolerance=data.info["tolerance"], max_iterations=self.iterations,
            initial_grid=(10, 10)))
        return Result([surface], reports, pts)


class TiledGrid(_Workload):
    """A 4x4 tile grid: independent tile fits, then C1 grid stitching."""

    name = "tiled_grid"
    truth = staticmethod(benchmark_terrain)
    counts = (4, 4)
    bbox = (0.0, 100.0, 0.0, 100.0)

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        self.n, self.iterations = (8_000, 1) if smoke else (80_000, 3)
        self.tag = f"n{self.n}"
        self.grid = _grid((0.5, 99.5, 240), (0.5, 99.5, 240))

    def generate(self):
        return _soundings(self.n, self.seed, 0.5)

    def fit(self, data: Inputs) -> Result:
        tiles = lrterrain.make_tiles(self.bbox, self.counts, overlap=0.05)
        fits = lrterrain.fit_tiles(data.surveys[0][1], tiles, lrterrain.FitConfig(
            tolerance=data.info["tolerance"], max_iterations=self.iterations))
        stitched = lrterrain.stitch_grid(fits, self.counts, c1=True)
        return Result(stitched, extra={"unstitched": [f.surface for f in fits]})

    def owner(self, result: Result, x, y):
        ix, iy = tiling.tile_index(self.bbox, self.counts, x, y)
        return iy * self.counts[0] + ix

    def check(self, data: Inputs, result: Result, values) -> list[str]:
        return edge_gap_errors(result.surfaces, self.counts)


WORKLOADS = {w.name: w for w in (SurveyMerge, FineFit, TiledGrid)}


# -- the timed query -----------------------------------------------------

def query(surfaces, x, y, owner, chunk: int) -> np.ndarray:
    """Depth and slope (order 1) on the grid, ``chunk`` points per batch."""
    out = np.empty((len(x), 3))
    for a in range(0, len(x), chunk):
        own = owner[a:a + chunk]
        for k in np.unique(own):
            sel = a + np.nonzero(own == k)[0]
            out[sel] = lrterrain.evaluate(surfaces[k], x[sel], y[sel], order=1)
    return out


def truth_rms_tol(workload, values, tolerance: float) -> float:
    gx, gy = workload.grid
    err = values[:, 0] - workload.truth(gx, gy)
    return float(np.sqrt(np.mean(err * err)) / tolerance)


# -- checks shared by the workloads --------------------------------------

def reference_errors(surface, label: str, rng) -> list[str]:
    """Partition of unity and agreement with ``evaluate`` at sample points."""
    u0, u1, v0, v1 = surface.mesh.domain
    x = rng.uniform(u0, u1, CHECK_POINTS)
    y = rng.uniform(v0, v1, CHECK_POINTS)
    ref = ReferenceSurface(surface)
    errs = []
    unity = float(np.abs(ref.unity(x, y) - 1.0).max())
    if not unity <= UNITY_TOL:
        errs.append(f"{label}: partition of unity off by {unity:.3g}")
    lib = lrterrain.evaluate(surface, x, y)
    gap = float(np.abs(ref.values(x, y) - lib).max() / max(np.abs(lib).max(), 1.0))
    if not gap <= AGREE_TOL:
        errs.append(f"{label}: evaluate differs from the reference by {gap:.3g} relative")
    return errs


def report_errors(surface, points, report, tolerance: float) -> list[str]:
    """The last iteration report against residuals recomputed by the reference."""
    r = np.abs(points[:, 2] - ReferenceSurface(surface).values(points[:, 0], points[:, 1]))
    eps = AGREE_TOL * max(float(np.abs(points[:, 2]).max()), 1.0)
    errs = []
    for key, value in (("max_dist", r.max()), ("avg_dist", r.mean())):
        if not abs(getattr(report, key) - value) <= eps:
            errs.append(f"report {key} {getattr(report, key)!r} != recomputed {value!r}")
    lo, hi = int((r > tolerance + eps).sum()), int((r > tolerance - eps).sum())
    if not lo <= report.n_out <= hi:
        errs.append(f"report n_out {report.n_out} != recomputed {lo}..{hi}")
    return errs


def edge_gap_errors(surfaces, counts, n: int = 200) -> list[str]:
    """C0 and C1 gaps on every shared edge of a stitched grid."""
    nx, ny = counts
    scale = 0.0
    for s in surfaces:
        u0, u1, v0, v1 = s.domain
        d = lrterrain.evaluate(s, np.linspace(u0, u1, 40), np.linspace(v0, v1, 40), order=1)
        scale = max(scale, float(np.abs(d[:, 1:]).max()))
    errs = []
    for iy in range(ny):
        for ix in range(nx):
            a = surfaces[iy * nx + ix]
            u0, u1, v0, v1 = a.domain
            edges = []
            if ix + 1 < nx:
                t = np.linspace(v0, v1, n)
                edges.append((iy * nx + ix + 1, np.full(n, u1), t))
            if iy + 1 < ny:
                t = np.linspace(u0, u1, n)
                edges.append(((iy + 1) * nx + ix, t, np.full(n, v1)))
            for j, x, y in edges:
                gap = np.abs(lrterrain.evaluate(a, x, y, order=1)
                             - lrterrain.evaluate(surfaces[j], x, y, order=1)).max(axis=0)
                if not gap[0] <= C0_TOL:
                    errs.append(f"tiles {iy * nx + ix}/{j}: C0 gap {gap[0]:.3g}")
                if not gap[1:].max() <= C1_TOL * scale:
                    errs.append(f"tiles {iy * nx + ix}/{j}: C1 gap {gap[1:].max():.3g}")
    return errs


def roundtrip_errors(surface, label: str, workdir: Path) -> list[str]:
    """Binary write -> read -> write must reproduce the bytes exactly."""
    first, second = workdir / "first.lrs", workdir / "second.lrs"
    lrterrain.write_surface_binary(surface, first)
    lrterrain.write_surface_binary(lrterrain.read_surface(first), second)
    if first.read_bytes() != second.read_bytes():
        return [f"{label}: binary round trip is not byte-identical"]
    return []


def check_all(workload, data: Inputs, result: Result, values, workdir: Path) -> list[str]:
    """Every check of a workload's last round."""
    rng = np.random.default_rng(12345)
    errs = workload.check(data, result, values)
    for k, s in enumerate(result.surfaces):
        errs += reference_errors(s, f"surface {k}", rng)
        errs += roundtrip_errors(s, f"surface {k}", workdir)
    if result.reports:
        errs += report_errors(result.surfaces[0], result.fit_points,
                              result.reports[-1], data.info["tolerance"])
    return errs
