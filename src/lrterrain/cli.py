"""Command line entry points.

Subcommands: fit, deconflict, eval, report, stitch.  Exit codes: 0 on
success, 2 on any input problem (bad flags, malformed or missing files),
3 when a fit stopped because refinement froze before reaching the
tolerance; outputs are still written in that case so the run is usable.

All emitted files are deterministic for identical inputs: JSON is written
with sorted keys, floats with ``repr``, and binary surfaces index their
knot tables in a canonical order.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .adaptive import IterationReport, fit
from .config import load_settings
from .deconflict import Survey, deconflict_fit
from .evaluate import distance_field
from .formats import (
    binary_size,
    is_binary_surface,
    is_binary_survey,
    read_surface_binary,
    read_surface_text,
    read_survey,
    write_distance_field,
    write_surface_binary,
    write_surface_text,
    write_survey_binary,
    write_survey_text,
)
from .mesh import LRSurface
from .tiling import (
    Tile,
    TileFit,
    fit_tiles,
    make_tiles,
    read_manifest,
    stitch_grid,
    write_manifest,
)


def _fail(msg: str):
    raise SystemExit(f"error: {msg}")


def _pair(text: str, flag: str) -> tuple[int, int]:
    """Parse 'N' or 'NxM' into a pair of positive ints."""
    parts = text.lower().split("x")
    try:
        if len(parts) == 1:
            n = int(parts[0])
            out = (n, n)
        elif len(parts) == 2:
            out = (int(parts[0]), int(parts[1]))
        else:
            raise ValueError
        if out[0] < 1 or out[1] < 1:
            raise ValueError
        return out
    except ValueError:
        _fail(f"{flag} expects N or NxM with positive integers, got {text!r}")


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_json(path, payload) -> None:
    with open(path, "w") as f:
        json.dump(_jsonable(payload), f, sort_keys=True, indent=1)
        f.write("\n")


def _load_points(path) -> tuple[np.ndarray, dict]:
    try:
        return read_survey(path)
    except FileNotFoundError:
        _fail(f"point file not found: {path}")
    except ValueError as e:
        _fail(str(e))


def _load_surface(path) -> tuple[LRSurface, bool]:
    """The surface in ``path`` and whether the file is binary, from one
    sniff of its magic."""
    try:
        binary = is_binary_surface(path)
        return (read_surface_binary if binary else read_surface_text)(path), binary
    except FileNotFoundError:
        _fail(f"surface file not found: {path}")
    except ValueError as e:
        _fail(f"{path}: {e}")


def _settings(args):
    try:
        return load_settings(getattr(args, "config", None),
                             getattr(args, "tolerance", None))
    except FileNotFoundError:
        _fail(f"config file not found: {args.config}")
    except ValueError as e:
        _fail(str(e))


def _write_surface(surface: LRSurface, path, text: bool) -> None:
    if text:
        write_surface_text(surface, path)
    else:
        write_surface_binary(surface, path)


def _stem(path: str) -> str:
    base, _ = os.path.splitext(path)
    return base


def _report_lines(reports: list[IterationReport]) -> list[str]:
    return [IterationReport.header()] + [r.row() for r in reports]


def _flags_exit(flags: dict) -> int:
    if flags.get("frozen") and not flags.get("converged"):
        return 3
    return 0


def _emit(lines: list[str], path) -> None:
    """Print ``lines``, and write them to ``path`` too when it is set."""
    print("\n".join(lines))
    if path:
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")


# -- fit -----------------------------------------------------------------


def cmd_fit(args) -> int:
    settings = _settings(args)
    cfg = settings.fit
    if args.max_iter is not None:
        cfg = dataclasses.replace(cfg, max_iterations=args.max_iter)
    if args.degree is not None:
        cfg = dataclasses.replace(cfg, degrees=_pair(args.degree, "--degree"))
    if args.grid is not None:
        cfg = dataclasses.replace(cfg, initial_grid=_pair(args.grid, "--grid"))

    pts, _meta = _load_points(args.points)
    out = args.output or _stem(args.points) + (".lrs.txt" if args.text else ".lrs")

    if args.tile is None:
        try:
            surface, reports, flags = fit(pts, cfg)
        except ValueError as e:
            _fail(str(e))
        _write_surface(surface, out, args.text)
        lines = _report_lines(reports)
        lines.append(f"status\t{'converged' if flags['converged'] else 'frozen' if flags['frozen'] else 'budget-exhausted'}")
        _emit(lines, args.report)
        return _flags_exit(flags)

    counts = _pair(args.tile, "--tile")
    overlap = settings.overlap if args.overlap is None else args.overlap
    x, y = pts[:, 0], pts[:, 1]
    bbox = (float(x.min()), float(x.max()), float(y.min()), float(y.max()))
    tiles = make_tiles(bbox, counts, overlap)
    try:
        fits = fit_tiles(pts, tiles, cfg)
    except ValueError as e:
        _fail(str(e))
    stem = _stem(out) if out.endswith(".json") else _stem(args.points)
    ext = ".lrs.txt" if args.text else ".lrs"
    paths: list[str | None] = []
    lines = []
    for t, f in zip(tiles, fits):
        if f.surface is None:
            paths.append(None)
            lines.append(f"tile {t.ix},{t.iy}\tempty")
            continue
        p = f"{stem}_tile{t.ix}_{t.iy}{ext}"
        _write_surface(f.surface, p, args.text)
        paths.append(os.path.basename(p))
        lines.append(f"tile {t.ix},{t.iy}\t{f.n_points} points")
        lines.extend(_report_lines(f.reports))
    manifest = out if out.endswith(".json") else stem + ".tiles.json"
    write_manifest(manifest, tiles, counts, overlap, paths, fits)
    lines.append(f"manifest\t{manifest}")
    _emit(lines, args.report)
    worst = 0
    for f in fits:
        if f.surface is not None:
            worst = max(worst, _flags_exit(f.flags))
    return worst


# -- deconflict ------------------------------------------------------------


def cmd_deconflict(args) -> int:
    settings = _settings(args)
    dcfg = settings.deconflict
    if args.level is not None:
        dcfg = dataclasses.replace(dcfg, reference_level=args.level)
    if args.total is not None:
        dcfg = dataclasses.replace(dcfg, total_iterations=args.total)
    fit_cfg = dataclasses.replace(settings.fit, tolerance=dcfg.tolerance)

    surveys = []
    binary_in = []
    for path in args.surveys:
        pts, meta = _load_points(path)
        name = meta.pop("id", None) or os.path.basename(_stem(path))
        score = None
        if "score" in meta:
            try:
                score = float(meta.pop("score"))
            except ValueError:
                _fail(f"{path}: score header is not a number")
        surveys.append(Survey(points=pts, name=name, score=score, meta=meta))
        binary_in.append(is_binary_survey(path))
    try:
        surface, cleaned, report = deconflict_fit(surveys, fit_cfg, dcfg)
    except ValueError as e:
        _fail(str(e))

    out = args.output or "deconflicted" + (".lrs.txt" if args.text else ".lrs")
    _write_surface(surface, out, args.text)
    outdir = args.outdir
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    for path, s, was_bin in zip(args.surveys, cleaned, binary_in):
        base = os.path.basename(_stem(path)) + ".clean" + os.path.splitext(path)[1]
        target = os.path.join(outdir or os.path.dirname(path) or ".", base)
        meta = {"id": s.name, **({"score": s.score} if s.score is not None else {}),
                **s.meta}
        if was_bin:
            write_survey_binary(target, s.points, meta)
        else:
            write_survey_text(target, s.points, meta)
    if args.report:
        _write_json(args.report, report)
    for name in sorted(report["removed"]):
        print(f"{name}\tremoved {report['removed'][name]}\tkept {report['kept'][name]}")
    print(f"surface\t{out}")
    return _flags_exit(report["flags"])


# -- eval ------------------------------------------------------------------


def cmd_eval(args) -> int:
    settings = _settings(args)
    surface, _ = _load_surface(args.surface)
    pts, _meta = _load_points(args.points)
    try:
        field = distance_field(surface, pts, settings.fit.tolerance)
    except ValueError as e:
        _fail(str(e))
    if args.output:
        write_distance_field(args.output, pts, field)
    r = np.abs(field["residual"])
    n_out = int((np.abs(field["status"]) == 1).sum())
    print("coefficients\tsize_bytes\tmax_dist\tavg_dist\tout_of_tol")
    print(f"{len(surface)}\t{binary_size(surface)}"
          f"\t{r.max():.6g}\t{r.mean():.6g}\t{n_out}")
    return 0


# -- report ----------------------------------------------------------------


def cmd_report(args) -> int:
    surface, _ = _load_surface(args.surface)
    lines = ["survey\tpoints\tmax_below\tmax_above\tavg_dist\tz_range"]
    for path in args.surveys:
        pts, meta = _load_points(path)
        name = meta.get("id") or os.path.basename(_stem(path))
        try:
            res = distance_field(surface, pts, 1.0)["residual"]
        except ValueError as e:
            _fail(f"{path}: {e}")
        below = max(0.0, float(-res.min()))
        above = max(0.0, float(res.max()))
        z = pts[:, 2]
        lines.append(f"{name}\t{len(pts)}\t{below:.6g}\t{above:.6g}"
                     f"\t{np.abs(res).mean():.6g}\t{float(z.max() - z.min()):.6g}")
    _emit(lines, args.output)
    return 0


# -- stitch ----------------------------------------------------------------


def cmd_stitch(args) -> int:
    try:
        manifest = read_manifest(args.manifest)
    except FileNotFoundError:
        _fail(f"manifest not found: {args.manifest}")
    except (ValueError, json.JSONDecodeError) as e:
        _fail(f"{args.manifest}: {e}")
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    counts = tuple(manifest["counts"])
    entries = manifest["tiles"]

    fits, texts = [], []
    for e in entries:
        tile = Tile(e["ix"], e["iy"], tuple(e["core"]), tuple(e["expanded"]))
        surface, binary = (None, True) if e["surface"] is None else \
            _load_surface(os.path.join(base_dir, e["surface"]))
        fits.append(TileFit(tile, surface, [], int(e.get("n_points", 0)),
                            dict(e.get("flags", {}))))
        texts.append(not binary)
    try:
        stitched = stitch_grid(fits, counts, c1=args.c1)
    except (ValueError, RuntimeError) as e:
        _fail(str(e))

    suffix = "" if args.in_place else ".stitched"
    new_paths: list[str | None] = []
    for e, s, text in zip(entries, stitched, texts):
        if s is None:
            new_paths.append(None)
            continue
        rel = e["surface"]
        if suffix:
            stem, ext = os.path.splitext(rel)
            if ext == ".txt":  # keep .lrs.txt in one piece
                stem2, ext2 = os.path.splitext(stem)
                stem, ext = stem2, ext2 + ext
            rel = stem + suffix + ext
        _write_surface(s, os.path.join(base_dir, rel), text)
        new_paths.append(rel)
        print(f"tile {e['ix']},{e['iy']}\t{rel}")
    out_manifest = args.manifest if args.in_place else \
        _stem(args.manifest) + ".stitched.json"
    write_manifest(out_manifest, [f.tile for f in fits], counts, float(manifest["overlap"]),
                   new_paths)
    print(f"manifest\t{out_manifest}")
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lrterrain",
        description="Adaptive locally refined spline surfaces for "
                    "scattered elevation data.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON settings file")
        sp.add_argument("--tolerance", type=float,
                        help="absolute distance tolerance (overrides config)")

    f = sub.add_parser("fit", help="fit a surface to a point cloud")
    f.add_argument("points", help="survey file (text x y z or binary)")
    f.add_argument("-o", "--output", help="surface path (default: input stem)")
    f.add_argument("--max-iter", type=int, help="refinement iteration cap")
    f.add_argument("--degree", help="polynomial degree, N or NxM")
    f.add_argument("--grid", help="initial tensor grid, N or NxM")
    f.add_argument("--tile", help="split the domain into MxN tiles")
    f.add_argument("--overlap", type=float,
                   help="tile expansion fraction (with --tile)")
    f.add_argument("--text", action="store_true", help="write text surfaces")
    f.add_argument("--report", help="also write the iteration table here")
    common(f)
    f.set_defaults(func=cmd_fit)

    d = sub.add_parser("deconflict",
                       help="cross-check surveys and refit on the kept points")
    d.add_argument("surveys", nargs="+", help="survey files, any mix of formats")
    d.add_argument("-o", "--output", help="final surface path")
    d.add_argument("--level", type=int,
                   help="refinement level of the reference surface")
    d.add_argument("--total", type=int,
                   help="total refinement iterations for the final surface")
    d.add_argument("--outdir", help="directory for the cleaned surveys")
    d.add_argument("--text", action="store_true", help="write a text surface")
    d.add_argument("--report", help="write the removal report as JSON here")
    common(d)
    d.set_defaults(func=cmd_deconflict)

    e = sub.add_parser("eval", help="distance field of points against a surface")
    e.add_argument("surface")
    e.add_argument("points")
    e.add_argument("-o", "--output", help="per-point residual export path")
    common(e)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("report", help="per-survey accuracy table")
    r.add_argument("surface")
    r.add_argument("surveys", nargs="+")
    r.add_argument("-o", "--output", help="also write the table here")
    r.set_defaults(func=cmd_report)

    s = sub.add_parser("stitch", help="join the tiles of a fitted tile grid")
    s.add_argument("manifest", help="tile manifest written by fit --tile")
    s.add_argument("--c1", action="store_true",
                   help="match first derivatives too, not only values")
    s.add_argument("--in-place", action="store_true",
                   help="overwrite the tile surfaces instead of adding "
                        "a .stitched copy")
    s.set_defaults(func=cmd_stitch)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return 2
        raise
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
