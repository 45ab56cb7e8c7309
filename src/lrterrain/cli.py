"""Command line entry points.

Subcommands: fit, deconflict, eval, report, stitch.  Exit codes: 0 on
success, 2 on any input problem (bad flags, malformed or missing files,
bad config or points), 3 when a fit stopped because refinement froze
before reaching the tolerance; outputs are still written in that case so
the run is usable.

Input errors have one exit path: the commands and the library raise
``ValueError`` (or ``OSError`` for a file that cannot be read or
written), and ``main`` alone turns it into one ``error:`` line on stderr
and exit code 2.  The file readers name their path in their messages.

All emitted files are deterministic for identical inputs: JSON is written
with sorted keys, floats with ``repr``, and binary surfaces index their
knot tables in a canonical order.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .adaptive import IterationReport, fit
from .config import load_settings
from .deconflict import Survey, deconflict_fit
from .evaluate import bbox, distance_field
from .formats import (
    _write_json,
    binary_size,
    is_binary_surface,
    is_binary_survey,
    read_surface,
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


def _pair(text: str, flag: str) -> tuple[int, int]:
    """Parse 'N' or 'NxM' into a pair of positive ints."""
    parts = text.lower().split("x")
    try:
        n = [int(p) for p in (parts * 2 if len(parts) == 1 else parts)]
    except ValueError:
        n = []
    if len(n) != 2 or min(n) < 1:
        raise ValueError(f"{flag} expects N or NxM with positive integers, got {text!r}")
    return n[0], n[1]


def _load_survey(path) -> Survey:
    """The survey in ``path``, named by its ``id`` header or else the file
    stem; the rest of the header is its meta.  No points is an input
    error, raised before a command prints anything."""
    pts, meta = read_survey(path)
    if len(pts) == 0:
        raise ValueError(f"{path}: survey has no points")
    name = meta.pop("id", None) or os.path.splitext(os.path.basename(path))[0]
    return Survey(points=pts, name=str(name), meta=meta)


def _write_surface(surface: LRSurface, path, text: bool) -> None:
    if text:
        write_surface_text(surface, path)
    else:
        write_surface_binary(surface, path)


_SURFACE_EXT = {False: ".lrs", True: ".lrs.txt"}  # by --text


def _split_name(path: str) -> tuple[str, str]:
    """``path`` as (stem, extension), where the text surface's ``.lrs.txt``
    is one extension."""
    if path.endswith(_SURFACE_EXT[True]):
        return path[:-len(_SURFACE_EXT[True])], _SURFACE_EXT[True]
    return os.path.splitext(path)


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
    settings = load_settings(args.config, args.tolerance)
    cfg = settings.fit
    if args.max_iter is not None:
        cfg = dataclasses.replace(cfg, max_iterations=args.max_iter)
    if args.degree is not None:
        cfg = dataclasses.replace(cfg, degrees=_pair(args.degree, "--degree"))
    if args.grid is not None:
        cfg = dataclasses.replace(cfg, initial_grid=_pair(args.grid, "--grid"))

    if args.tile is None and args.overlap is not None:
        raise ValueError("--overlap applies only with --tile")

    pts = _load_survey(args.points).points
    stem = _split_name(args.output or args.points)[0]
    ext = _SURFACE_EXT[args.text]

    if args.tile is None:
        out = args.output or stem + ext
        surface, reports, flags = fit(pts, cfg)
        _write_surface(surface, out, args.text)
        lines = _report_lines(reports)
        lines.append(f"status\t{'converged' if flags['converged'] else 'frozen' if flags['frozen'] else 'budget-exhausted'}")
        _emit(lines, args.report)
        return _flags_exit(flags)

    counts = _pair(args.tile, "--tile")
    overlap = settings.overlap if args.overlap is None else args.overlap
    tiles = make_tiles(bbox(pts), counts, overlap)
    fits = fit_tiles(pts, tiles, cfg)
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
    manifest = args.output if (args.output or "").endswith(".json") else stem + ".tiles.json"
    write_manifest(manifest, counts, overlap, paths, fits)
    lines.append(f"manifest\t{manifest}")
    _emit(lines, args.report)
    return max((_flags_exit(f.flags) for f in fits if f.surface is not None), default=0)


# -- deconflict ------------------------------------------------------------


def cmd_deconflict(args) -> int:
    # the iteration counts and the tolerance are the deconflict section's
    settings = load_settings(args.config, args.tolerance,
                             unused_fit=("max_iterations", "tolerance"))
    # one replace, so the pair is checked as given, not against a default
    given = {"reference_level": args.level, "total_iterations": args.total}
    dcfg = dataclasses.replace(settings.deconflict,
                               **{k: v for k, v in given.items() if v is not None})
    fit_cfg = dataclasses.replace(settings.fit, tolerance=dcfg.tolerance)

    surveys = []
    binary_in = []
    for path in args.surveys:
        s = _load_survey(path)
        if "score" in s.meta:
            try:
                s.score = float(s.meta.pop("score"))
            except ValueError:
                raise ValueError(f"{path}: score header is not a number") from None
        surveys.append(s)
        binary_in.append(is_binary_survey(path))
    surface, cleaned, report = deconflict_fit(surveys, fit_cfg, dcfg)

    out = args.output or "deconflicted" + _SURFACE_EXT[args.text]
    _write_surface(surface, out, args.text)
    outdir = args.outdir
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    for path, s, was_bin in zip(args.surveys, cleaned, binary_in):
        stem, ext = os.path.splitext(os.path.basename(path))
        target = os.path.join(outdir or os.path.dirname(path) or ".", stem + ".clean" + ext)
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


def _survey_field(surface: LRSurface, pts: np.ndarray, tau: float, path):
    """``distance_field`` of a survey's points, and the mask of those in
    the surface domain, which the statistics are taken over.  The count
    outside goes to stderr; a survey with no point inside is an input
    error, raised before a command prints anything."""
    field = distance_field(surface, pts, tau)
    inside = field["status"] != 2
    n_off = len(pts) - int(inside.sum())
    if n_off == len(pts):
        raise ValueError(f"{path}: no point lies inside the surface domain")
    if n_off:
        print(f"{path}: {n_off} of {len(pts)} points lie outside the surface "
              "domain and are left out of the statistics", file=sys.stderr)
    return field, inside


def cmd_eval(args) -> int:
    settings = load_settings(args.config, args.tolerance)
    surface = read_surface(args.surface)
    pts = _load_survey(args.points).points
    field, inside = _survey_field(surface, pts, settings.fit.tolerance, args.points)
    if args.output:
        write_distance_field(args.output, pts, field)
    r = np.abs(field["residual"][inside])
    n_out = int((np.abs(field["status"]) == 1).sum())
    print("coefficients\tsize_bytes\tmax_dist\tavg_dist\tout_of_tol")
    print(f"{len(surface)}\t{binary_size(surface)}"
          f"\t{r.max():.6g}\t{r.mean():.6g}\t{n_out}")
    return 0


# -- report ----------------------------------------------------------------


def cmd_report(args) -> int:
    surface = read_surface(args.surface)
    lines = ["survey\tpoints\tmax_below\tmax_above\tavg_dist\tz_range"]
    for path in args.surveys:
        s = _load_survey(path)
        field, inside = _survey_field(surface, s.points, 1.0, path)
        res = field["residual"][inside]
        below = max(0.0, float(-res.min()))
        above = max(0.0, float(res.max()))
        z = s.points[:, 2]
        lines.append(f"{s.name}\t{len(s.points)}\t{below:.6g}\t{above:.6g}"
                     f"\t{np.abs(res).mean():.6g}\t{float(z.max() - z.min()):.6g}")
    _emit(lines, args.output)
    return 0


# -- stitch ----------------------------------------------------------------


def cmd_stitch(args) -> int:
    manifest = read_manifest(args.manifest)
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    entries = manifest["tiles"]

    fits, texts = [], []
    for e in entries:
        surface, text = None, False
        if e["surface"] is not None:
            path = os.path.join(base_dir, e["surface"])
            surface, text = read_surface(path), not is_binary_surface(path)
        tile = Tile(e["ix"], e["iy"], tuple(e["core"]), tuple(e["expanded"]))
        fits.append(TileFit(tile, surface, [], int(e.get("n_points", 0))))
        texts.append(text)
    try:
        stitched = stitch_grid(fits, manifest["counts"], c1=args.c1)
    except RuntimeError as e:  # the tiles' spline spaces cannot be joined
        raise ValueError(str(e)) from e

    for e, s, text in zip(entries, stitched, texts):
        if s is None:
            continue
        if not args.in_place:
            stem, ext = _split_name(e["surface"])
            e["surface"] = stem + ".stitched" + ext
        _write_surface(s, os.path.join(base_dir, e["surface"]), text)
        print(f"tile {e['ix']},{e['iy']}\t{e['surface']}")
    out_manifest = args.manifest if args.in_place else \
        _split_name(args.manifest)[0] + ".stitched.json"
    _write_json(out_manifest, manifest)
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
    except FileNotFoundError as e:
        print(f"error: file not found: {e.filename}", file=sys.stderr)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
