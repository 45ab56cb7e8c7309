import dataclasses
import json
import os
import re

import numpy as np
import pytest

from lrterrain import FitConfig, evaluate, fit, make_tensor_surface, restrict
from lrterrain.benchmark import benchmark_points, benchmark_terrain
from lrterrain.cli import main
from lrterrain.config import Settings, load_settings
from lrterrain.tiling import stitch_grid
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
from oracles import segments
from test_tiling import grid_fits


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
    # writing the loaded surface again reproduces the file byte for byte,
    # and reading that gives the loaded surface bit for bit
    p2 = tmp_path / "s2.lrs"
    write_surface_binary(t, p2)
    assert p2.read_bytes() == p.read_bytes()
    u = read_surface_binary(p2)
    x, y, _ = sample(s)
    assert np.array_equal(evaluate(u, x, y), evaluate(t, x, y))
    assert all(np.array_equal(a, b) for a, b in
               ((t.knots, u.knots), (t.scaling, u.scaling), (t.coeffs, u.coeffs)))


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
    p = tmp_path / "r.lrs.txt"
    write_surface_text(s, p)
    t = read_surface_text(p)
    x, y, z = sample(s)
    assert np.array_equal(evaluate(t, x, y), z)
    assert len(segments(t.mesh)) == len(segments(s.mesh))


def test_surface_sniffing(tmp_path):
    s = random_refined_surface(2, n_inserts=5)
    pt, p2 = tmp_path / "t.lrs", tmp_path / "b2.lrs"
    write_surface_text(s, pt)  # extension does not matter, content does
    write_surface_binary(s, p2)
    x, y, z = sample(s, 50)
    assert np.max(np.abs(evaluate(read_surface(pt), x, y) - z)) < 1e-12
    assert np.max(np.abs(evaluate(read_surface(p2), x, y) - z)) < 1e-13 * np.abs(z).max()


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


def test_retired_binary_version_is_rejected_by_name(tmp_path, capsys):
    # an LRSURF02 file under the old magic: sniffed as binary, not parsed as text
    path = tmp_path / "old.lrs"
    write_surface_binary(random_refined_surface(2, n_inserts=5), path)
    path.write_bytes(b"LRSURF01" + path.read_bytes()[8:])
    with pytest.raises(ValueError, match=r"old\.lrs: LRSURF01 is no longer read"):
        read_surface(path)
    pts = tmp_path / "pts.xyz"
    pts.write_text("0.5 0.5 0.0\n")
    assert main(["eval", str(path), str(pts)]) == 2
    assert "LRSURF01 is no longer read" in capsys.readouterr().err


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


def _binary_index_out_of_range(s, path):
    write_surface_binary(s, path)
    data = bytearray(path.read_bytes())
    # the hi index of the last segment record, before the coefficient block
    at = len(data) - 8 * len(s) - 4
    data[at - 4:at] = (2**32 - 1).to_bytes(4, "little")
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


def _text_knot_outside_domain(s, path):
    # one more u knot, 7.5, after the last one of the [0, 1] domain
    write_surface_text(s, path)
    lines = path.read_text().splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("uknots"))
    n = int(lines[i].split()[1])
    lines[i:i + n + 1] = [f"uknots {n + 1}", *lines[i + 1:i + n + 1], "7.5"]
    path.write_text("\n".join(lines) + "\n")


def _binary_knot_outside_domain(s, path):
    # the last u knot, 1.0, replaced by 7.5: the table still increases
    write_surface_binary(s, path)
    data = bytearray(path.read_bytes())
    at = 44 + sum(4 + len(u.encode()) for u in s.units) + 4 + 8 * len(s.mesh.coords(0))
    assert data[at - 8:at] == np.float64(1.0).tobytes()
    data[at - 8:at] = np.float64(7.5).tobytes()
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("damage", [_text_knot_outside_domain, _binary_knot_outside_domain])
def test_knot_table_value_outside_the_domain_is_rejected(damage, tmp_path):
    path = tmp_path / "s.lrs"
    damage(random_refined_surface(2, n_inserts=5), path)
    with pytest.raises(ValueError, match=r"s\.lrs: knot table of axis 0: 7\.5 is outside the domain"):
        read_surface(path)


@pytest.mark.parametrize("damage", [
    _empty_text, _truncated_text, _text_index_out_of_range, _text_negative_index,
    _binary_index_out_of_range, _binary_table_not_increasing,
    _text_knots_not_nondecreasing, _text_empty_support,
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


def _text_domain_umax(s, path, value):
    write_surface_text(s, path)
    lines = path.read_text().splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("domain"))
    f = lines[i].split()
    lines[i] = " ".join(f[:2] + [value] + f[3:])
    path.write_text("\n".join(lines) + "\n")


def _binary_domain_umax(s, path, value):
    # umax is the second f64 of the domain, at offset 12
    write_surface_binary(s, path)
    data = bytearray(path.read_bytes())
    data[20:28] = np.float64(value).tobytes()
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("damage", [_text_domain_umax, _binary_domain_umax],
                         ids=["text", "lrsurf02"])
def test_cli_eval_of_non_finite_domain_exits_2(damage, value, tmp_path, capsys):
    # an infinite umax used to pass the domain check and fail later on a
    # segment, with an empty-extent message
    path = tmp_path / "bad.lrs"
    damage(random_refined_surface(2, n_inserts=5), path, value)
    with pytest.raises(ValueError, match=rf"bad\.lrs: domain \[0\.0, {value}, 0\.0, 1\.0\] "
                                         "is not finite"):
        read_surface(path)
    pts = tmp_path / "pts.xyz"
    pts.write_text("0.5 0.5 0.0\n")
    assert main(["eval", str(path), str(pts)]) == 2
    err = capsys.readouterr().err
    assert "bad.lrs" in err and "is not finite" in err


def test_negative_section_count_is_named(tmp_path):
    path = tmp_path / "s.lrs.txt"
    write_surface_text(random_refined_surface(2, n_inserts=5), path)
    path.write_text(re.sub(r"^bsplines \d+$", "bsplines -3", path.read_text(), flags=re.M))
    with pytest.raises(ValueError, match=r"s\.lrs\.txt: the 'bsplines' section has a "
                                         r"negative count, -3"):
        read_surface_text(path)


# -- LRSURF02: the mesh and the coefficients --------------------------------


def _stitched():
    return stitch_grid(grid_fits(7, counts=(3, 3)), (3, 3), c1=True)


def _multibyte_units():
    s = random_refined_surface(8, n_inserts=30)
    s.units = ("UTM 32N", "m²")  # the size counts UTF-8 bytes, not characters
    return [s]


@pytest.mark.parametrize("build", [
    lambda: [random_refined_surface(4, n_inserts=60)],
    lambda: [random_refined_surface(5, n_inserts=60, degrees=(3, 2))],
    lambda: [random_refined_surface(6, n_inserts=60, degrees=(3, 3))],
    lambda: [restrict(random_refined_surface(15, domain=(0, 2, 0, 1), grid=(9, 5)),
                      (0.3, 1.1, 0.0, 0.7))],
    _stitched,
    _multibyte_units,
], ids=["d22", "d32", "d33", "restricted", "c1-grid", "multibyte-units"])
def test_lrsurf02_round_trip(build, tmp_path):
    p, p2 = tmp_path / "s.lrs", tmp_path / "s2.lrs"
    for s in build():
        write_surface_binary(s, p)
        assert p.read_bytes()[:8] == b"LRSURF02"
        assert p.stat().st_size == binary_size(s)
        t = read_surface_binary(p)
        write_surface_binary(t, p2)
        assert p2.read_bytes() == p.read_bytes()
        assert np.array_equal(t.knots, s.knots) and t.units == s.units
        x, y, z = sample(s)
        assert np.max(np.abs(evaluate(t, x, y) - z)) <= 1e-13 * np.abs(z).max()


def _coefficient_block(s, data):
    """Offset of the u32 coefficient count in an LRSURF02 file of ``s``."""
    return len(data) - 8 * len(s) - 4


def _lrsurf02_truncated(s, data):
    return data[:-5]


def _lrsurf02_trailing(s, data):
    return data + b"\0"


def _lrsurf02_count_not_replay(s, data):
    # one coefficient fewer, and the count says so
    at = _coefficient_block(s, data)
    return data[:at] + (len(s) - 1).to_bytes(4, "little") + data[at + 4:-8]


def _lrsurf02_coefficient_nan(s, data):
    return data[:-8] + np.float64(np.nan).tobytes()


def _first_segment_mult(s, data, mult):
    """``data`` with the multiplicity byte of its first segment record set
    to ``mult``; that record is the side u = 0 at multiplicity 3."""
    at = (44 + sum(4 + len(u.encode()) for u in s.units)
          + sum(4 + 8 * len(s.mesh.coords(axis)) for axis in (0, 1)) + 4)
    assert data[at:at + 2] == bytes([0, 3])
    return data[:at + 1] + bytes([mult]) + data[at + 2:]


def _lrsurf02_multiplicity_above_degree(s, data):
    return _first_segment_mult(s, data, 200)  # on a degree-2 axis


def _lrsurf02_side_below_full(s, data):
    return _first_segment_mult(s, data, 1)


@pytest.mark.parametrize("damage, message", [
    (_lrsurf02_truncated, "truncated"),
    (_lrsurf02_trailing, "trailing bytes"),
    (_lrsurf02_count_not_replay, r"coefficients, but the replay of the mesh has \d+ B-splines"),
    (_lrsurf02_coefficient_nan, r"B-spline \d+: coefficient nan is not finite"),
    (_lrsurf02_multiplicity_above_degree, "segment 0: multiplicity 200"),
    (_lrsurf02_side_below_full, "domain side u = 0.0 is not a line of multiplicity 3"),
], ids=["truncated", "trailing", "count", "nan", "segment", "side"])
def test_cli_eval_of_malformed_lrsurf02_exits_2(damage, message, tmp_path, capsys):
    s = random_refined_surface(2, n_inserts=5)
    path = tmp_path / "bad.lrs"
    write_surface_binary(s, path)
    path.write_bytes(damage(s, path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        read_surface(path)
    pts = tmp_path / "pts.xyz"
    pts.write_text("0.5 0.5 0.0\n")
    assert main(["eval", str(path), str(pts)]) == 2
    assert "bad.lrs" in capsys.readouterr().err


def _drop_bspline(s):
    s.knots, s.scaling, s.coeffs = (np.delete(a, 5, axis=0) for a in (s.knots, s.scaling, s.coeffs))
    return r"B-spline 5 differs from the replay"


def _line_without_splits(s):
    # a full line merged into the mesh, but no B-spline split by it
    s.mesh.snap_many([(0, 0.37)])
    s.mesh._merge([(0, 0.37, 0.0, 1.0, 1)])
    return r"B-spline \d+ differs from the replay"


def _scaling_off(s):
    s.scaling[7] *= 1 - 5e-5
    return r"B-spline 7 differs from the replay of the mesh: scaling"


def _coefficient_inf(s):
    s.coeffs[9] = np.inf
    return r"B-spline 9: coefficient inf is not finite"


@pytest.mark.parametrize("edit", [_drop_bspline, _line_without_splits, _scaling_off,
                                  _coefficient_inf])
def test_writer_refuses_a_surface_that_is_not_its_mesh_replay(edit, tmp_path):
    s = random_refined_surface(3, n_inserts=20)
    message = edit(s)
    for write, path in [(write_surface_binary, tmp_path / "s.lrs"),
                        (write_surface_text, tmp_path / "s.lrs.txt")]:
        with pytest.raises(ValueError, match=message):
            write(s, path)
        assert not path.exists()


# Corruptions of the B-spline lines of a text surface file, each a list of
# its fields: du + 2 u-indices, dv + 2 v-indices, scaling, coefficient.


def _scaling_negative(rows):
    rows[0][-2] = "-1.0"
    return "B-spline 0 differs from the replay of the mesh: scaling -1.0"


def _scaling_inf(rows):
    rows[0][-2] = "inf"
    return "B-spline 0 differs from the replay of the mesh: scaling inf"


def _scaling_nan(rows):
    rows[0][-2] = "nan"
    return "B-spline 0 differs from the replay of the mesh: scaling nan"


def _coefficient_nan(rows):
    rows[0][-1] = "nan"
    return "B-spline 0: coefficient nan is not finite"


def _record_repeated(rows):
    rows[0] = list(rows[1])
    return "B-spline 0 differs from the replay of the mesh: knots"


def _records_swapped(rows):
    rows[0], rows[1] = rows[1], rows[0]
    return "B-spline 0 differs from the replay of the mesh: knots"


def _text_with_bsplines_edited(s, path, corrupt):
    """Write ``s`` as text with ``corrupt`` applied to its B-spline lines;
    the message ``corrupt`` returns."""
    write_surface_text(s, path)
    lines = path.read_text().splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith("bsplines")) + 1
    rows = [ln.split() for ln in lines[at:]]
    message = corrupt(rows)
    path.write_text("\n".join(lines[:at] + [" ".join(r) for r in rows]) + "\n")
    return message


@pytest.mark.parametrize("write", [_text_with_bsplines_edited], ids=["text"])
@pytest.mark.parametrize("corrupt", [_scaling_negative, _scaling_inf, _scaling_nan,
                                     _coefficient_nan, _record_repeated, _records_swapped])
def test_cli_eval_of_corrupt_bspline_record_exits_2(corrupt, write, tmp_path, capsys):
    s = make_tensor_surface((0, 1, 0, 1), (2, 2), (5, 5), coeff=1.0)
    path = tmp_path / "bad.lrs"
    message = write(s, path, corrupt)
    with pytest.raises(ValueError, match=message):
        read_surface(path)
    pts = tmp_path / "pts.xyz"
    pts.write_text("0.5 0.5 1.0\n0.2 0.7 1.0\n")
    assert main(["eval", str(path), str(pts)]) == 2
    err = capsys.readouterr().err
    assert "bad.lrs" in err and "B-spline" in err


@pytest.fixture(scope="module")
def fitted_text(tmp_path_factory):
    """A two-iteration fit of 3,000 benchmark points (376 B-splines) as a
    text surface, with its points: the directory, and the file's lines."""
    d = tmp_path_factory.mktemp("fitted")
    pts, tau = benchmark_points(3000, seed=1)
    write_surface_text(fit(pts, FitConfig(tolerance=tau, max_iterations=2))[0], d / "s.lrs.txt")
    write_survey_text(d / "pts.xyz", pts)
    return d, (d / "s.lrs.txt").read_text().splitlines()


def _v_index_lowered(f):
    # the row 0 0 2 4 6 7 8 9 becomes 0 0 2 4 6 6 8 9
    assert f[:8] == "0 0 2 4 6 7 8 9".split()
    return f[:5] + ["6"] + f[6:]


def _scaling_lowered(f):
    return f[:-2] + [repr(float(f[-2]) - 5e-5), f[-1]]


@pytest.mark.parametrize("edit, message", [
    (_v_index_lowered, "knots"), (_scaling_lowered, "scaling 0.99994999"),
], ids=["knot-index", "scaling"])
def test_cli_eval_of_a_surface_that_is_not_its_mesh_replay_exits_2(edit, message, fitted_text,
                                                                    tmp_path, capsys):
    d, lines = fitted_text
    assert main(["eval", str(d / "s.lrs.txt"), str(d / "pts.xyz")]) == 0
    capsys.readouterr()
    at = next(k for k, ln in enumerate(lines) if ln.startswith("bsplines")) + 1
    lines = list(lines)
    lines[at + 38] = " ".join(edit(lines[at + 38].split()))
    bad = tmp_path / "bad.lrs.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["eval", str(bad), str(d / "pts.xyz")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {bad}: B-spline 38 differs from the replay of the mesh: "
                          f"{message}")


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


def settings_to_dict(s: Settings) -> dict:
    """``s`` as the nested dict of the config file layout."""
    return {"fit": dataclasses.asdict(s.fit),
            "deconflict": dataclasses.asdict(s.deconflict),
            "tiling": {"overlap": s.overlap}}


def test_default_settings_match_dataclasses():
    s = load_settings()
    assert s.fit == Settings().fit
    assert s.deconflict == Settings().deconflict
    assert s.overlap == 0.05
    d = settings_to_dict(Settings())
    assert d["fit"]["tolerance"] == 0.5
    assert d["deconflict"]["reference_level"] == 3


def test_config_file_and_override(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "tolerance": 0.2,
        "fit": {"max_iterations": 3, "degrees": [3, 2]},
        "deconflict": {"reference_level": 2},
        "tiling": {"overlap": 0.1},
    }))
    s = load_settings(p)
    assert s.fit.tolerance == 0.2 and s.deconflict.tolerance == 0.2
    assert s.fit.max_iterations == 3
    assert s.fit.degrees == (3, 2)
    assert s.deconflict.reference_level == 2
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
    # thresholds fixed as constants of the method are not settings
    p.write_text('{"deconflict": {"max_depth": 2}}')
    with pytest.raises(ValueError, match="max_depth"):
        load_settings(p)
    p.write_text('{"fit": {"aspect_threshold": 1.2}}')
    with pytest.raises(ValueError, match="aspect_threshold"):
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


@pytest.mark.parametrize("argv", [
    ["fit", "{bench}", "--max-iter", "-1"],
    ["fit", "{bench}", "--tile", "2x2", "--overlap", "-1"],
    ["fit", "{bench}", "--tile", "2x2", "--overlap", "nan"],
    ["fit", "{empty}", "--tile", "2x2"],
    ["fit", "{one}", "--tile", "2x2"],
    ["eval", "{outside}", "{one}"],
    ["fit", "{bench}", "--overlap", "0.1"],
], ids=["max-iter", "overlap", "overlap-nan", "tile-empty", "tile-one-point",
        "eval-knot-outside-domain", "overlap-without-tile"])
def test_cli_input_errors_exit_2(argv, bench_file, tmp_path, capsys):
    files = {"bench": bench_file[0], "empty": tmp_path / "empty.xyz",
             "one": tmp_path / "one.xyz", "outside": tmp_path / "outside.lrs.txt"}
    files["empty"].write_text("")
    files["one"].write_text("0.5 0.5 0.0\n")
    _text_knot_outside_domain(random_refined_surface(2, n_inserts=5), files["outside"])
    code = main([a.format(**files) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


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


@pytest.mark.parametrize("flags, message", [
    (["--level", "4", "--total", "2"],
     "total_iterations must be >= reference_level; got total_iterations 2 < reference_level 4"),
    (["--level", "-1"], "reference_level must be >= 0; got -1"),
])
def test_cli_deconflict_bad_iteration_split_exits_2(bench_file, tmp_path, capsys,
                                                    flags, message):
    out = tmp_path / "dec.lrs"
    assert main(["deconflict", str(bench_file[0]), *flags, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_cli_deconflict_rejects_fit_max_iterations(bench_file, tmp_path, capsys):
    # deconflict sets the fit's iteration cap from --level and --total
    cfg = tmp_path / "iterations.json"
    cfg.write_text('{"fit": {"max_iterations": 1}}')
    out = tmp_path / "dec.lrs"
    assert main(["deconflict", str(bench_file[0]), "--config", str(cfg),
                 "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: fit setting(s) max_iterations not used by this command\n"
    assert not out.exists()


def test_cli_deconflict_rejects_fit_tolerance(bench_file, tmp_path, capsys):
    # deconflict fits at the deconfliction tolerance, which a top-level
    # tolerance and --tolerance still set for both
    cfg = tmp_path / "tolerance.json"
    cfg.write_text('{"fit": {"tolerance": 0.05}}')
    out = tmp_path / "dec.lrs"
    assert main(["deconflict", str(bench_file[0]), "--config", str(cfg),
                 "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: fit setting(s) tolerance not used by this command\n"
    assert not out.exists()
    cfg.write_text('{"tolerance": 0.05}')
    for path, flag in [(cfg, None), (None, 0.05)]:
        s = load_settings(path, flag, unused_fit=("max_iterations", "tolerance"))
        assert s.fit.tolerance == s.deconflict.tolerance == 0.05


def test_cli_fit_degree_and_grid_set_the_start_space(bench_file, tmp_path, capsys):
    p, tau = bench_file
    out, want = tmp_path / "s.lrs", tmp_path / "want.lrs"
    assert main(["fit", str(p), "--tolerance", str(4 * tau), "--max-iter", "1",
                 "--degree", "3x2", "--grid", "6x5", "-o", str(out)]) == 0
    capsys.readouterr()
    cfg = FitConfig(tolerance=4 * tau, max_iterations=1, degrees=(3, 2),
                    initial_grid=(6, 5))
    write_surface_binary(fit(read_survey(p)[0], cfg)[0], want)
    assert out.read_bytes() == want.read_bytes()
    assert read_surface(out).degrees == (3, 2)


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
    assert heads[0] == b"lrsurfac" and heads[1:] == [b"LRSURF02"] * 3
    S = [read_surface(tmp_path / e["surface"]) for e in m2["tiles"]]
    xs = S[0].domain[1]
    t = np.linspace(S[0].domain[2], S[0].domain[3], 500)
    gap = np.abs(evaluate(S[0], np.full(500, xs), t)
                 - evaluate(S[1], np.full(500, xs), t))
    assert gap.max() < 1e-9


def _fit_tiles(bench_file, tmp_path, capsys, *flags):
    """``fit --tile`` of the bench survey; the manifest document."""
    p, tau = bench_file
    assert main(["fit", str(p), "--tolerance", str(4 * tau), "--max-iter", "1",
                 "-o", str(tmp_path / "grid.json"), *flags]) == 0
    capsys.readouterr()
    return json.loads((tmp_path / "grid.json").read_text())


def _c0_gap(a, b) -> float:
    """Largest value gap along the shared x = const edge of two surfaces."""
    xs = a.domain[1]
    t = np.linspace(a.domain[2], a.domain[3], 500)
    return float(np.abs(evaluate(a, np.full(500, xs), t)
                        - evaluate(b, np.full(500, xs), t)).max())


@pytest.mark.parametrize("output, flags, ext", [
    ("run.lrs", [], ".lrs"),
    ("run.lrs.txt", ["--text"], ".lrs.txt"),
])
def test_cli_tile_names_its_files_after_o(output, flags, ext, bench_file, tmp_path,
                                          capsys):
    p, tau = bench_file
    assert main(["fit", str(p), "--tolerance", str(4 * tau), "--max-iter", "1",
                 "--tile", "2x1", "-o", str(tmp_path / output), *flags]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"manifest\t{tmp_path / 'run.tiles.json'}"
    tiles = [f"run_tile0_0{ext}", f"run_tile1_0{ext}"]
    assert sorted(os.listdir(tmp_path)) == sorted(["bench.xyz", "run.tiles.json", *tiles])
    m = json.loads((tmp_path / "run.tiles.json").read_text())
    assert [e["surface"] for e in m["tiles"]] == tiles


def test_cli_stitch_keeps_each_entrys_fields(bench_file, tmp_path, capsys):
    m = _fit_tiles(bench_file, tmp_path, capsys, "--tile", "2x2")
    assert main(["stitch", str(tmp_path / "grid.json"), "--c1"]) == 0
    capsys.readouterr()
    m2 = json.loads((tmp_path / "grid.stitched.json").read_text())
    for e in m["tiles"]:
        e["surface"] = e["surface"].replace(".lrs", ".stitched.lrs")
    assert m2 == m
    assert all(e["n_points"] > 0 and e["report"] for e in m2["tiles"])


def test_cli_stitch_text_tiles_keep_their_extension(bench_file, tmp_path, capsys):
    _fit_tiles(bench_file, tmp_path, capsys, "--tile", "2x1", "--text")
    assert main(["stitch", str(tmp_path / "grid.json")]) == 0
    capsys.readouterr()
    m2 = json.loads((tmp_path / "grid.stitched.json").read_text())
    names = ["grid_tile0_0.stitched.lrs.txt", "grid_tile1_0.stitched.lrs.txt"]
    assert [e["surface"] for e in m2["tiles"]] == names
    S = [read_surface_text(tmp_path / n) for n in names]
    assert _c0_gap(*S) < 1e-9


def test_cli_stitch_in_place(bench_file, tmp_path, capsys):
    m = _fit_tiles(bench_file, tmp_path, capsys, "--tile", "2x1")
    files = sorted(os.listdir(tmp_path))
    before = [(tmp_path / e["surface"]).read_bytes() for e in m["tiles"]]
    assert main(["stitch", str(tmp_path / "grid.json"), "--in-place"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"manifest\t{tmp_path / 'grid.json'}"
    assert sorted(os.listdir(tmp_path)) == files
    assert json.loads((tmp_path / "grid.json").read_text()) == m
    after = [(tmp_path / e["surface"]).read_bytes() for e in m["tiles"]]
    assert all(a != b for a, b in zip(after, before))
    S = [read_surface_binary(tmp_path / e["surface"]) for e in m["tiles"]]
    assert _c0_gap(*S) < 1e-9


def test_cli_tile_and_stitch_leave_an_empty_tile_a_hole(tmp_path, capsys):
    pts, tau = benchmark_points(6000, seed=3)
    lo, hi = pts[:, :2].min(0), pts[:, :2].max(0)
    cut = (lo + hi) / 2 + 0.1 * (hi - lo)  # past tile 0's overlap
    p = tmp_path / "bench.xyz"
    write_survey_text(p, pts[~((pts[:, 0] < cut[0]) & (pts[:, 1] < cut[1]))])
    m = _fit_tiles((p, tau), tmp_path, capsys, "--tile", "2x2", "--report",
                   str(tmp_path / "tiles.tsv"))
    assert (tmp_path / "tiles.tsv").read_text().startswith("tile 0,0\tempty\n")
    assert [e["surface"] is None for e in m["tiles"]] == [True, False, False, False]
    assert main(["stitch", str(tmp_path / "grid.json"), "--c1"]) == 0
    assert "tile 0,0" not in capsys.readouterr().out
    m2 = json.loads((tmp_path / "grid.stitched.json").read_text())
    assert m2["tiles"][0]["surface"] is None
    assert not any(n.startswith("grid_tile0_0") for n in os.listdir(tmp_path))
    S = [read_surface(tmp_path / e["surface"]) for e in m2["tiles"][2:]]
    assert _c0_gap(*S) < 1e-9


def test_cli_deconflict_writes_a_binary_survey_back_binary(tmp_path, capsys):
    rng = np.random.default_rng(9)

    def survey(n, lo, hi, bias=0.0):
        x, y = rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)
        return np.column_stack([x, y, benchmark_terrain(x, y) + bias
                                + rng.normal(0, 0.02, n)])

    new, old = tmp_path / "new.xyz", tmp_path / "old.survey"
    write_survey_text(new, survey(2000, 0, 100), {"score": "8"})
    old_pts = survey(1200, 30, 70, bias=1.5)
    write_survey_binary(old, old_pts, {"score": 3, "method": "singlebeam"})
    rep = tmp_path / "dec.json"
    assert main(["deconflict", str(new), str(old), "--tolerance", "0.35",
                 "--level", "1", "--total", "1", "-o", str(tmp_path / "final.lrs"),
                 "--report", str(rep)]) == 0
    capsys.readouterr()
    d = json.loads(rep.read_text())
    clean = tmp_path / "old.clean.survey"
    assert clean.read_bytes()[:8] == b"LRSURV01"
    kept, meta = read_survey_binary(clean)
    assert meta == {"id": "old", "score": 3.0, "method": "singlebeam"}
    assert len(kept) == d["kept"]["old"] and d["removed"]["old"] > 0
    assert {tuple(r) for r in kept} <= {tuple(r) for r in old_pts}
    assert read_survey_text(tmp_path / "new.clean.xyz")[1] == {"id": "new", "score": "8.0"}


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


@pytest.mark.parametrize("cut", [1, 8, 29])
def test_truncated_binary_survey_names_its_path(cut, tmp_path, capsys):
    p = tmp_path / "cut.survey"
    write_survey_binary(p, np.arange(30.0).reshape(10, 3))
    p.write_bytes(p.read_bytes()[:-cut])
    with pytest.raises(ValueError, match=rf"cut\.survey: header count 10 needs 240 bytes "
                                         rf"of points, the file holds {240 - cut}"):
        read_survey_binary(p)
    assert main(["fit", str(p)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {p}: header count 10")


def test_survey_that_is_not_utf8_names_its_path(tmp_path, capsys):
    p = tmp_path / "latin.xyz"
    p.write_bytes(b"# id caf\xe9\n1 2 3\n")
    assert main(["fit", str(p)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {p}: 'utf-8' codec can't decode")


def test_binary_survey_without_count_exits_2(tmp_path, capsys):
    header = json.dumps({"name": "x"}).encode()
    p = tmp_path / "x.survey"
    p.write_bytes(b"LRSURV01" + len(header).to_bytes(4, "little") + header
                  + np.zeros(6).tobytes())
    with pytest.raises(ValueError, match="count"):
        read_survey_binary(p)
    assert main(["fit", str(p)]) == 2
    assert "count" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fit", "{empty}"],
    ["eval", "{surface}", "{empty}"],
    ["report", "{surface}", "{empty}"],
    ["deconflict", "{one}", "{empty}"],
], ids=["fit", "eval", "report", "deconflict"])
def test_cli_empty_survey_exits_2_naming_it(argv, tmp_path, capsys):
    files = {"empty": tmp_path / "empty.xyz", "one": tmp_path / "one.xyz",
             "surface": tmp_path / "s.lrs"}
    files["empty"].write_text("")
    files["one"].write_text("0.5 0.5 0.0\n")
    write_surface_binary(make_tensor_surface((0, 1, 0, 1)), files["surface"])
    assert main([a.format(**files) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {files['empty']}: survey has no points\n"


@pytest.fixture
def off_domain_files(tmp_path):
    """A fitted surface, a survey of 200 points with one moved 5 units past
    the domain, and the same survey without that point."""
    pts, tau = benchmark_points(200, seed=5)
    surface = fit(pts, FitConfig(tolerance=tau, max_iterations=1))[0]
    k = int(np.argmax(pts[:, 0]))
    moved = pts.copy()
    moved[k, 0] = surface.domain[1] + 5.0
    files = {"surface": tmp_path / "s.lrs", "off": tmp_path / "off.xyz",
             "kept": tmp_path / "kept.xyz"}
    write_surface_binary(surface, files["surface"])
    write_survey_text(files["off"], moved, {"id": "bench"})
    write_survey_text(files["kept"], np.delete(pts, k, axis=0), {"id": "bench"})
    return files


def test_cli_eval_takes_statistics_over_points_inside(off_domain_files, capsys):
    f = off_domain_files
    assert main(["eval", str(f["surface"]), str(f["kept"]), "--tolerance", "1"]) == 0
    want = capsys.readouterr().out
    assert main(["eval", str(f["surface"]), str(f["off"]), "--tolerance", "1"]) == 0
    out, err = capsys.readouterr()
    assert "nan" not in out and out == want
    assert err == (f"{f['off']}: 1 of 200 points lie outside the surface domain "
                   "and are left out of the statistics\n")


def test_cli_report_takes_statistics_over_points_inside(off_domain_files, capsys):
    f = off_domain_files
    assert main(["report", str(f["surface"]), str(f["kept"])]) == 0
    want = capsys.readouterr().out.splitlines()[1].split("\t")
    assert main(["report", str(f["surface"]), str(f["off"])]) == 0
    out, err = capsys.readouterr()
    got = out.splitlines()[1].split("\t")
    # the points column counts the whole survey; z_range is of all its points
    assert got[:2] == ["bench", "200"] and got[2:5] == want[2:5]
    assert float(got[2]) > 0 and float(got[3]) > 0
    assert "outside the surface domain" in err and str(f["off"]) in err


@pytest.mark.parametrize("command", ["eval", "report"])
def test_cli_survey_wholly_outside_the_surface_exits_2(command, tmp_path, capsys):
    surface, far = tmp_path / "s.lrs", tmp_path / "far.xyz"
    write_surface_binary(make_tensor_surface((0, 1, 0, 1)), surface)
    far.write_text("5.0 5.0 1.0\n6.0 5.5 2.0\n")
    assert main([command, str(surface), str(far)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {far}: no point lies inside the surface domain\n"


def _survey_header_not_int(path):
    path.write_text("# count abc\n1 2 3\n")


def _survey_header_not_json(path):
    header = b"{x: 1}"
    path.write_bytes(b"LRSURV01" + len(header).to_bytes(4, "little") + header)


@pytest.mark.parametrize("write", [_survey_header_not_int, _survey_header_not_json],
                         ids=["text-count", "binary-json"])
def test_cli_malformed_survey_header_names_path_once(write, tmp_path, capsys):
    p = tmp_path / "bad.survey"
    write(p)
    assert main(["fit", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and err.count(str(p)) == 1


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


@pytest.mark.parametrize("key, value", [
    ("n_points", None), ("n_points", [1]), ("n_points", -1), ("n_points", 2.5),
    ("surface", 5), ("surface", ["a.lrs"]), ("core", 5), ("expanded", [0, 1, 0]),
])
def test_stitch_manifest_tile_field_of_wrong_type_exits_2(key, value, tile_grid, capsys):
    err = _stitch_broken(tile_grid, "wrong_type", lambda m: m["tiles"][1].update({key: value}),
                         capsys)
    assert err.startswith("error: ") and f"manifest tile 1 '{key}' must be" in err
    assert "Traceback" not in err


def test_stitch_manifest_with_one_count_exits_2(tile_grid, capsys):
    err = _stitch_broken(tile_grid, "one_count",
                         lambda m: m.update(counts=[4]), capsys)
    assert "counts" in err
