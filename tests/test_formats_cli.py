import json
import os

import numpy as np
import pytest

from lrterrain import evaluate, restrict
from lrterrain.benchmark import benchmark_points, benchmark_terrain
from lrterrain.cli import main
from lrterrain.config import Settings, default_dict, load_settings
from lrterrain.formats import (
    binary_size,
    read_surface,
    read_surface_binary,
    read_surface_text,
    read_survey,
    read_survey_binary,
    read_survey_text,
    write_surface_binary,
    write_surface_text,
    write_survey_binary,
    write_survey_text,
)
from conftest import random_refined_surface


def sample(surface, n=1000, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(surface.domain[0], surface.domain[1], n)
    y = rng.uniform(surface.domain[2], surface.domain[3], n)
    return x, y, evaluate(surface, x, y)


# -- surface round trips ---------------------------------------------------


def test_binary_surface_round_trip_is_bit_exact(tmp_path):
    s = random_refined_surface(4)
    p = tmp_path / "s.lrs"
    write_surface_binary(s, p)
    assert p.stat().st_size == binary_size(s)
    t = read_surface_binary(p)
    x, y, z = sample(s)
    assert np.array_equal(evaluate(t, x, y), z)
    # writing the loaded surface again reproduces the file byte for byte
    p2 = tmp_path / "s2.lrs"
    write_surface_binary(t, p2)
    assert p2.read_bytes() == p.read_bytes()


def test_text_surface_round_trip(tmp_path):
    s = random_refined_surface(8, domain=(-3.0, 7.0, 2.0, 4.5))
    p = tmp_path / "s.lrs.txt"
    write_surface_text(s, p)
    t = read_surface_text(p)
    x, y, z = sample(s)
    assert np.max(np.abs(evaluate(t, x, y) - z)) < 1e-12
    assert t.degrees == s.degrees
    assert t.units == s.units


@pytest.mark.parametrize("units", [("local xy", "m"), ("", "m"), ("local-xy", "m\n")])
def test_text_writer_rejects_units_it_cannot_write(units, tmp_path):
    s = random_refined_surface(2, n_inserts=5)
    s.units = units
    with pytest.raises(ValueError, match="unit"):
        write_surface_text(s, tmp_path / "s.lrs.txt")
    assert not (tmp_path / "s.lrs.txt").exists()
    # the binary format keeps such units
    write_surface_binary(s, tmp_path / "s.lrs")
    assert read_surface_binary(tmp_path / "s.lrs").units == units


def test_restricted_surface_round_trips(tmp_path):
    # restriction leaves partial-width knot segments; those must survive
    s = restrict(random_refined_surface(15, domain=(0, 2, 0, 1), grid=(9, 5)),
                 (0.0, 1.0, 0.0, 1.0))
    p = tmp_path / "r.lrs"
    write_surface_binary(s, p)
    t = read_surface_binary(p)
    x, y, z = sample(s)
    assert np.array_equal(evaluate(t, x, y), z)
    assert len(t.mesh.segments()) == len(s.mesh.segments())


def test_surface_sniffing(tmp_path):
    s = random_refined_surface(2, n_inserts=5)
    pb, pt = tmp_path / "b.lrs", tmp_path / "t.lrs"
    write_surface_binary(s, pb)
    write_surface_text(s, pt)  # extension does not matter, content does
    x, y, z = sample(s, 50)
    assert np.array_equal(evaluate(read_surface(pb), x, y), z)
    assert np.max(np.abs(evaluate(read_surface(pt), x, y) - z)) < 1e-12


def test_binary_surface_rejects_damage(tmp_path):
    s = random_refined_surface(2, n_inserts=5)
    p = tmp_path / "s.lrs"
    write_surface_binary(s, p)
    data = p.read_bytes()
    (tmp_path / "trunc.lrs").write_bytes(data[:-9])
    with pytest.raises(ValueError, match="truncated"):
        read_surface_binary(tmp_path / "trunc.lrs")
    (tmp_path / "magic.lrs").write_bytes(b"XXXXXXXX" + data[8:])
    with pytest.raises(ValueError, match="magic"):
        read_surface_binary(tmp_path / "magic.lrs")
    (tmp_path / "trail.lrs").write_bytes(data + b"\0")
    with pytest.raises(ValueError, match="trailing"):
        read_surface_binary(tmp_path / "trail.lrs")


def _empty_text(s, path):
    path.write_text("")


def _truncated_text(s, path):
    write_surface_text(s, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:len(lines) // 2]) + "\n")


def _text_index_out_of_range(s, path):
    write_surface_text(s, path)
    lines = path.read_text().splitlines()
    last = lines[-1].split()
    lines[-1] = " ".join(["999999"] + last[1:])
    path.write_text("\n".join(lines) + "\n")


def _text_negative_index(s, path):
    write_surface_text(s, path)
    lines = path.read_text().splitlines()
    i = lines.index(next(ln for ln in lines if ln.startswith("segments"))) + 1
    axis, mult, pos, lo, hi = lines[i].split()
    lines[i] = f"{axis} {mult} {pos} {lo} -1"
    path.write_text("\n".join(lines) + "\n")


def _text_knots_not_nondecreasing(s, path):
    # swap the first and last u index of the last B-spline
    write_surface_text(s, path)
    lines = path.read_text().splitlines()
    idx = lines[-1].split()
    du = s.degrees[0]
    idx[0], idx[du + 1] = idx[du + 1], idx[0]
    lines[-1] = " ".join(idx)
    path.write_text("\n".join(lines) + "\n")


def _text_empty_support(s, path):
    # the last B-spline's u indices all equal its first
    write_surface_text(s, path)
    lines = path.read_text().splitlines()
    idx = lines[-1].split()
    du = s.degrees[0]
    idx[1:du + 2] = [idx[0]] * (du + 1)
    lines[-1] = " ".join(idx)
    path.write_text("\n".join(lines) + "\n")


def _binary_knots_not_nondecreasing(s, path):
    # swap the first and last u index of the last B-spline record
    write_surface_binary(s, path)
    data = bytearray(path.read_bytes())
    du, dv = s.degrees
    at = len(data) - (4 * (du + 2) + 4 * (dv + 2) + 16)
    end = at + 4 * (du + 1)
    data[at:at + 4], data[end:end + 4] = data[end:end + 4], data[at:at + 4]
    path.write_bytes(bytes(data))


def _binary_index_out_of_range(s, path):
    write_surface_binary(s, path)
    data = bytearray(path.read_bytes())
    # the last v-knot index of the last B-spline, before its two f64
    data[-20:-16] = (2**32 - 1).to_bytes(4, "little")
    path.write_bytes(bytes(data))


def _binary_table_not_increasing(s, path):
    write_surface_binary(s, path)
    data = bytearray(path.read_bytes())
    # the first two u knots, right after the u table count
    at = 44 + sum(4 + len(u.encode()) for u in s.units) + 4
    data[at:at + 16] = data[at + 8:at + 16] + data[at:at + 8]
    path.write_bytes(bytes(data))


def _first_segment_text(s, path, edit):
    """Write ``s`` as text with its first segment record's fields edited."""
    write_surface_text(s, path)
    lines = path.read_text().splitlines()
    i = lines.index(next(ln for ln in lines if ln.startswith("segments"))) + 1
    lines[i] = " ".join(edit(lines[i].split()))
    path.write_text("\n".join(lines) + "\n")


def _text_multiplicity_zero(s, path):
    _first_segment_text(s, path, lambda f: [f[0], "0"] + f[2:])


def _text_lo_above_hi(s, path):
    _first_segment_text(s, path, lambda f: f[:3] + [f[4], f[3]])


def _binary_multiplicity_above_degree(s, path):
    # the multiplicity byte of the first segment record: 200 on a degree-2 axis
    write_surface_binary(s, path)
    data = bytearray(path.read_bytes())
    at = (44 + sum(4 + len(u.encode()) for u in s.units)
          + sum(4 + 8 * len(s.mesh.coords(axis)) for axis in (0, 1)) + 4)
    assert data[at + 1] == 3
    data[at + 1] = 200
    path.write_bytes(bytes(data))


def test_bad_segment_record_is_named_by_its_position(tmp_path):
    s = random_refined_surface(2, n_inserts=5)
    text, binary = tmp_path / "s.lrs.txt", tmp_path / "s.lrs"
    write_surface_text(s, text)
    lines = text.read_text().splitlines()
    i = lines.index(next(ln for ln in lines if ln.startswith("segments"))) + 3
    f = lines[i].split()
    lines[i] = " ".join([f[0], "0"] + f[2:])
    text.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="segment 2: multiplicity 0"):
        read_surface_text(text)
    lines[i] = " ".join(f[:3] + [f[3], "999"])
    text.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="segment 2: knot index out of range"):
        read_surface_text(text)
    # a cut inside the segment block: the block is read whole
    write_surface_binary(s, binary)
    at = (44 + sum(4 + len(u.encode()) for u in s.units)
          + sum(4 + 8 * len(s.mesh.coords(axis)) for axis in (0, 1)) + 4)
    binary.write_bytes(binary.read_bytes()[:at + 16 * 2 + 5])
    with pytest.raises(ValueError, match="truncated"):
        read_surface_binary(binary)


@pytest.mark.parametrize("damage", [
    _empty_text, _truncated_text, _text_index_out_of_range, _text_negative_index,
    _binary_index_out_of_range, _binary_table_not_increasing,
    _text_knots_not_nondecreasing, _text_empty_support, _binary_knots_not_nondecreasing,
    _text_multiplicity_zero, _text_lo_above_hi, _binary_multiplicity_above_degree])
def test_cli_eval_of_malformed_surface_exits_2(damage, tmp_path, capsys):
    s = random_refined_surface(2, n_inserts=5)
    path = tmp_path / "bad.lrs"
    damage(s, path)
    with pytest.raises(ValueError):
        read_surface(path)
    pts = tmp_path / "pts.xyz"
    pts.write_text("0.5 0.5 0.0\n")
    assert main(["eval", str(path), str(pts)]) == 2
    assert "bad.lrs" in capsys.readouterr().err


# -- survey files -----------------------------------------------------------


def test_survey_text_round_trip(tmp_path, rng):
    pts = rng.normal(size=(200, 3))
    p = tmp_path / "a.xyz"
    write_survey_text(p, pts, {"id": "a", "score": "7", "date": "2001-02-03"})
    got, meta = read_survey_text(p)
    assert np.max(np.abs(got - pts)) == 0.0
    assert meta == {"id": "a", "score": "7", "date": "2001-02-03"}


def test_survey_plain_xyz_without_header(tmp_path):
    p = tmp_path / "plain.xyz"
    p.write_text("1 2 3\n4 5 6\n")
    got, meta = read_survey_text(p)
    assert got.shape == (2, 3)
    assert meta == {}


def test_survey_binary_round_trip(tmp_path, rng):
    pts = rng.normal(size=(500, 3))
    p = tmp_path / "a.bin"
    write_survey_binary(p, pts, {"id": "a", "score": 7.0})
    got, meta = read_survey_binary(p)
    assert np.array_equal(got, pts)
    assert meta == {"id": "a", "score": 7.0}
    got2, _ = read_survey(p)  # sniffed
    assert np.array_equal(got2, pts)


def test_survey_validation(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("# count 3\n1 2 3\n")
    with pytest.raises(ValueError, match="count"):
        read_survey_text(p)
    p.write_text("1 2\n")
    with pytest.raises(ValueError, match="x y z"):
        read_survey_text(p)
    p.write_text("1 2 fish\n")
    with pytest.raises(ValueError, match="bad.xyz:1"):
        read_survey_text(p)
    p.write_text("1 2 nan\n")
    with pytest.raises(ValueError, match="finite"):
        read_survey_text(p)


# -- config -----------------------------------------------------------------


def test_default_settings_match_dataclasses():
    s = load_settings()
    assert s.fit == Settings().fit
    assert s.deconflict == Settings().deconflict
    assert s.overlap == 0.05
    d = default_dict()
    assert d["fit"]["tolerance"] == 0.5
    assert d["deconflict"]["reference_level"] == 3


def test_config_file_and_override(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "tolerance": 0.2,
        "fit": {"max_iterations": 3, "degrees": [3, 2]},
        "deconflict": {"alpha": 0.01},
        "tiling": {"overlap": 0.1},
    }))
    s = load_settings(p)
    assert s.fit.tolerance == 0.2 and s.deconflict.tolerance == 0.2
    assert s.fit.max_iterations == 3
    assert s.fit.degrees == (3, 2)
    assert s.deconflict.alpha == 0.01
    assert s.overlap == 0.1
    # the CLI flag outranks the file, for both sections
    s = load_settings(p, tolerance=0.7)
    assert s.fit.tolerance == 0.7 and s.deconflict.tolerance == 0.7
    # a section-local tolerance outranks the shared top-level one
    p.write_text(json.dumps({"tolerance": 0.2, "fit": {"tolerance": 0.3}}))
    s = load_settings(p)
    assert s.fit.tolerance == 0.3 and s.deconflict.tolerance == 0.2


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"fitt": {}}')
    with pytest.raises(ValueError, match="fitt"):
        load_settings(p)
    p.write_text('{"fit": {"tolerence": 1}}')
    with pytest.raises(ValueError, match="tolerence"):
        load_settings(p)
    p.write_text('{"tiling": {"overlaps": 1}}')
    with pytest.raises(ValueError, match="overlaps"):
        load_settings(p)
    p.write_text("[1, 2]")
    with pytest.raises(ValueError, match="object"):
        load_settings(p)


# -- command line -------------------------------------------------------------


@pytest.fixture
def bench_file(tmp_path):
    pts, tau = benchmark_points(6000, seed=3)
    p = tmp_path / "bench.xyz"
    write_survey_text(p, pts, {"id": "bench"})
    return p, tau


def test_cli_fit_eval_cycle(bench_file, tmp_path, capsys):
    p, tau = bench_file
    out = tmp_path / "bench.lrs"
    rep = tmp_path / "report.tsv"
    code = main(["fit", str(p), "--tolerance", str(10 * tau), "--max-iter", "4",
                 "-o", str(out), "--report", str(rep)])
    assert code == 0
    table = capsys.readouterr().out
    assert "iteration" in table and "status\tconverged" in table
    assert rep.read_text().strip() in table
    final_row = [ln for ln in table.splitlines() if ln[0].isdigit()][-1]

    code = main(["eval", str(out), str(p), "--tolerance", str(10 * tau),
                 "-o", str(tmp_path / "field.txt")])
    assert code == 0
    eval_out = capsys.readouterr().out.splitlines()
    # the eval of the fit inputs reproduces the final iteration row
    assert eval_out[1] == final_row.split("\t", 1)[1]
    cols = np.loadtxt(tmp_path / "field.txt")
    assert cols.shape == (6000, 6)


def test_cli_fit_is_deterministic(bench_file, tmp_path, capsys):
    p, tau = bench_file
    a, b = tmp_path / "a.lrs", tmp_path / "b.lrs"
    assert main(["fit", str(p), "--tolerance", str(4 * tau),
                 "--max-iter", "2", "-o", str(a)]) == 0
    assert main(["fit", str(p), "--tolerance", str(4 * tau),
                 "--max-iter", "2", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_exit_codes(bench_file, tmp_path, capsys):
    p, tau = bench_file
    bad = tmp_path / "bad.xyz"
    bad.write_text("1 2 fish\n")
    assert main(["fit", str(bad)]) == 2
    assert "bad.xyz" in capsys.readouterr().err

    assert main(["fit", str(tmp_path / "missing.xyz")]) == 2
    assert "not found" in capsys.readouterr().err

    cfg = tmp_path / "freeze.json"
    cfg.write_text('{"fit": {"min_width_fraction": 0.5, "max_iterations": 5}}')
    out = tmp_path / "frozen.lrs"
    code = main(["fit", str(bench_file[0]), "--config", str(cfg),
                 "--tolerance", "1e-4", "-o", str(out)])
    capsys.readouterr()
    assert code == 3
    assert out.exists()  # the frozen surface is still usable output

    with pytest.raises(SystemExit) as exc:  # argparse handles unknown flags
        main(["fit", str(p), "--frobnicate"])
    assert exc.value.code == 2


def test_cli_config_typo_is_actionable(bench_file, tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text('{"fit": {"tolerances": 0.1}}')
    assert main(["fit", str(bench_file[0]), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "tolerances" in err and "tolerance" in err


def test_cli_config_alpha1_out_of_range_exits_2(bench_file, tmp_path, capsys):
    cfg = tmp_path / "alpha1.json"
    cfg.write_text('{"fit": {"alpha1": 2}}')
    assert main(["fit", str(bench_file[0]), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "alpha1 must be in [0, 1)" in err
    assert "Traceback" not in err


def test_cli_config_negative_degree_exits_2(bench_file, tmp_path, capsys):
    cfg = tmp_path / "degrees.json"
    cfg.write_text('{"fit": {"degrees": [-1, 2]}}')
    assert main(["fit", str(bench_file[0]), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "degrees must be >= 0" in err
    assert "Traceback" not in err


def test_cli_tile_and_stitch(bench_file, tmp_path, capsys):
    p, tau = bench_file
    manifest = tmp_path / "grid.json"
    code = main(["fit", str(p), "--tolerance", str(4 * tau), "--max-iter", "2",
                 "--tile", "2x2", "-o", str(manifest)])
    assert code == 0
    m = json.loads(manifest.read_text())
    assert m["counts"] == [2, 2]
    assert all(e["surface"] for e in m["tiles"])
    # tile 0 as text under its own name: each tile is written back in its format
    tile0 = tmp_path / m["tiles"][0]["surface"]
    write_surface_text(read_surface(tile0), tile0)

    code = main(["stitch", str(manifest), "--c1"])
    capsys.readouterr()
    assert code == 0
    m2 = json.loads((tmp_path / "grid.stitched.json").read_text())
    heads = [(tmp_path / e["surface"]).read_bytes()[:8] for e in m2["tiles"]]
    assert heads[0] == b"lrsurfac" and heads[1:] == [b"LRSURF01"] * 3
    S = [read_surface(tmp_path / e["surface"]) for e in m2["tiles"]]
    xs = S[0].domain[1]
    t = np.linspace(S[0].domain[2], S[0].domain[3], 500)
    gap = np.abs(evaluate(S[0], np.full(500, xs), t)
                 - evaluate(S[1], np.full(500, xs), t))
    assert gap.max() < 1e-9


def test_cli_deconflict(tmp_path, capsys):
    rng = np.random.default_rng(6)

    def survey(n, bbox, bias=0.0):
        x = rng.uniform(bbox[0], bbox[1], n)
        y = rng.uniform(bbox[2], bbox[3], n)
        z = benchmark_terrain(x, y) + bias + rng.normal(0, 0.02, n)
        return np.column_stack([x, y, z])

    new = tmp_path / "new.xyz"
    old = tmp_path / "old.xyz"
    write_survey_text(new, survey(5000, (0, 100, 0, 100)),
                      {"id": "new", "score": "8"})
    write_survey_text(old, survey(3000, (30, 70, 30, 70), bias=1.5),
                      {"id": "old", "score": "3"})
    out = tmp_path / "final.lrs"
    rep = tmp_path / "dec.json"
    code = main(["deconflict", str(new), str(old), "--tolerance", "0.35",
                 "--level", "2", "--total", "3", "-o", str(out),
                 "--report", str(rep), "--outdir", str(tmp_path / "cleaned")])
    capsys.readouterr()
    assert code == 0
    d = json.loads(rep.read_text())
    assert d["removed"]["old"] > 2700
    assert d["removed"]["new"] == 0
    kept, meta = read_survey(tmp_path / "cleaned" / "old.clean.xyz")
    assert len(kept) == d["kept"]["old"]
    assert meta["id"] == "old"
    surface = read_surface(out)  # spans the data bbox
    assert surface.domain[0] <= 0.2 and surface.domain[1] >= 99.8

    # identical rerun produces byte-identical surface and report
    out2, rep2 = tmp_path / "final2.lrs", tmp_path / "dec2.json"
    main(["deconflict", str(new), str(old), "--tolerance", "0.35",
          "--level", "2", "--total", "3", "-o", str(out2),
          "--report", str(rep2), "--outdir", str(tmp_path / "cleaned2")])
    capsys.readouterr()
    assert out2.read_bytes() == out.read_bytes()
    assert rep2.read_text() == rep.read_text()


def test_cli_report_table(bench_file, tmp_path, capsys):
    p, tau = bench_file
    out = tmp_path / "s.lrs"
    main(["fit", str(p), "--tolerance", str(4 * tau), "--max-iter", "2",
          "-o", str(out)])
    capsys.readouterr()
    assert main(["report", str(out), str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t") == ["survey", "points", "max_below",
                                    "max_above", "avg_dist", "z_range"]
    name, n, below, above, avg, zr = lines[1].split("\t")
    assert name == "bench" and int(n) == 6000
    assert float(below) >= 0 and float(above) >= 0
    assert float(zr) > 5


def test_binary_survey_without_count_exits_2(tmp_path, capsys):
    header = json.dumps({"name": "x"}).encode()
    p = tmp_path / "x.survey"
    p.write_bytes(b"LRSURV01" + len(header).to_bytes(4, "little") + header
                  + np.zeros(6).tobytes())
    with pytest.raises(ValueError, match="count"):
        read_survey_binary(p)
    assert main(["fit", str(p)]) == 2
    assert "count" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tile_grid(tmp_path_factory):
    """A 2x2 `fit --tile` run: its directory and its manifest document."""
    d = tmp_path_factory.mktemp("grid")
    pts, tau = benchmark_points(6000, seed=3)
    write_survey_text(d / "bench.xyz", pts, {"id": "bench"})
    assert main(["fit", str(d / "bench.xyz"), "--tolerance", str(4 * tau),
                 "--max-iter", "1", "--tile", "2x2", "-o", str(d / "grid.json")]) == 0
    return d, json.loads((d / "grid.json").read_text())


def _stitch_broken(tile_grid, name, edit, capsys):
    d, doc = tile_grid
    doc = json.loads(json.dumps(doc))
    edit(doc)
    bad = d / f"{name}.json"
    bad.write_text(json.dumps(doc))
    before = sorted(os.listdir(d))
    capsys.readouterr()
    code = main(["stitch", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert sorted(os.listdir(d)) == before  # nothing written
    return err


def test_stitch_manifest_without_overlap_exits_2(tile_grid, capsys):
    err = _stitch_broken(tile_grid, "no_overlap", lambda m: m.pop("overlap"), capsys)
    assert "overlap" in err


def test_stitch_manifest_tile_without_surface_exits_2(tile_grid, capsys):
    err = _stitch_broken(tile_grid, "no_surface",
                         lambda m: m["tiles"][2].pop("surface"), capsys)
    assert "tile 2" in err and "surface" in err


def test_stitch_manifest_with_one_count_exits_2(tile_grid, capsys):
    err = _stitch_broken(tile_grid, "one_count",
                         lambda m: m.update(counts=[4]), capsys)
    assert "counts" in err
