"""Surface and survey file formats.

Binary surface (magic ``LRSURF01``, little-endian throughout):

    magic            8 bytes
    degrees          u8 du, u8 dv, u16 reserved (0)
    domain           4 x f64 (umin, umax, vmin, vmax)
    units            2 x (u32 length + UTF-8 bytes)
    u knot table     u32 count + f64[count]      (strictly increasing)
    v knot table     u32 count + f64[count]
    segments         u32 count + per segment (16 bytes):
                     u8 axis, u8 mult, u16 reserved, u32 pos/lo/hi indices
                     (pos indexes the axis table, lo/hi the other table)
    B-splines        u32 count + per function:
                     u32[du+2] u-knot indices, u32[dv+2] v-knot indices,
                     f64 scaling, f64 coefficient

The knot tables are the mesh's coordinate tables: every knot, line
position and segment endpoint is a mesh coordinate, stored once; segments
and B-splines refer to them by index, which makes shared knots exact by
construction and the round trip bit-identical.  The text format carries
the same sections line-oriented with full-precision ``repr`` floats, and
each unit as one whitespace-free word (the text writer rejects others).  A
table that is not strictly increasing, an index outside its table, a
B-spline knot-index list that decreases or spans an empty support, or a
file that ends early is malformed: the readers raise ``ValueError`` and
the CLI exits 2.

Survey text format: optional ``# key value`` header lines, then one
``x y z`` row per point.  Binary survey: magic ``LRSURV01``, u32 JSON
header length, JSON header, then f64 triples.
"""
from __future__ import annotations

import io
import json
import struct

import numpy as np

from .mesh import BoxMesh, LRSurface, ScaledBSpline

__all__ = [
    "binary_size",
    "write_surface_binary",
    "read_surface_binary",
    "write_surface_text",
    "read_surface_text",
    "write_survey_text",
    "read_survey_text",
    "write_survey_binary",
    "read_survey_binary",
    "read_survey",
    "is_binary_survey",
    "is_binary_surface",
    "read_surface",
    "write_distance_field",
]

_MAGIC_SURF = b"LRSURF01"
_MAGIC_SURV = b"LRSURV01"


def _knot_tables(surface: LRSurface):
    """The mesh coordinate tables per axis and index lookup dicts."""
    tables = [surface.mesh.coords(axis).tolist() for axis in (0, 1)]
    return tables, [{v: i for i, v in enumerate(tab)} for tab in tables]


def binary_size(surface: LRSurface) -> int:
    """Exact byte count of the binary serialization."""
    mesh = surface.mesh
    du, dv = surface.degrees
    n_seg = len(mesh.segments())
    size = 8 + 4 + 32
    for unit in surface.units:
        size += 4 + len(unit.encode())
    size += 4 + 8 * len(mesh.coords(0)) + 4 + 8 * len(mesh.coords(1))
    size += 4 + n_seg * 16
    size += 4 + len(surface.bsplines) * (4 * (du + 2) + 4 * (dv + 2) + 16)
    return size


def write_surface_binary(surface: LRSurface, path) -> None:
    tables, lookups = _knot_tables(surface)
    du, dv = surface.degrees
    buf = io.BytesIO()
    w = buf.write
    w(_MAGIC_SURF)
    w(struct.pack("<BBH", du, dv, 0))
    w(struct.pack("<4d", *surface.mesh.domain))
    for unit in surface.units:
        enc = unit.encode()
        w(struct.pack("<I", len(enc)))
        w(enc)
    for tab in tables:
        w(struct.pack("<I", len(tab)))
        w(np.asarray(tab, dtype="<f8").tobytes())
    segs = surface.mesh.segments()
    w(struct.pack("<I", len(segs)))
    for s in segs:
        w(struct.pack("<BBHIII", s.axis, s.mult, 0,
                      lookups[s.axis][s.pos],
                      lookups[1 - s.axis][s.lo],
                      lookups[1 - s.axis][s.hi]))
    w(struct.pack("<I", len(surface.bsplines)))
    for b, c in zip(surface.bsplines, surface.coeffs):
        w(np.asarray([lookups[0][k] for k in b.ku], dtype="<u4").tobytes())
        w(np.asarray([lookups[1][k] for k in b.kv], dtype="<u4").tobytes())
        w(struct.pack("<dd", b.scaling, float(c)))
    data = buf.getvalue()
    with open(path, "wb") as f:
        f.write(data)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise ValueError("truncated surface file")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _seed_table(mesh: BoxMesh, axis: int, table) -> list[float]:
    """Add a knot table to the mesh coordinates; returns the snapped table."""
    if not np.all(np.diff(table) > 0):
        raise ValueError(f"knot table of axis {axis} is not strictly increasing")
    return [mesh.snap(axis, c, insert=True) for c in table]


def _at(table: list[float], idx) -> tuple[float, ...]:
    """Knot values at ``idx``; an index outside the table is a malformed file."""
    if min(idx) < 0 or max(idx) >= len(table):
        raise ValueError(f"knot index out of range: {list(idx)} in a table of "
                         f"{len(table)}")
    return tuple(table[k] for k in idx)


def _bspline_knots(table: list[float], idx, i: int, axis: int) -> tuple[float, ...]:
    """Knot values of B-spline ``i`` on ``axis``; its indices must be
    nondecreasing and span a non-empty support."""
    idx = list(idx)
    if any(a > b for a, b in zip(idx, idx[1:])) or idx[0] >= idx[-1]:
        raise ValueError(f"B-spline {i}: {'uv'[axis]}-knot indices {idx} are not "
                         f"nondecreasing over a non-empty support")
    return _at(table, idx)


def _add_segment(mesh: BoxMesh, tables, axis: int, mult: int, *idx: int) -> None:
    """Add one segment record: ``idx`` indexes the pos, lo and hi values."""
    if axis not in (0, 1):
        raise ValueError(f"segment axis {axis} is not 0 or 1")
    (pos,), (lo, hi) = _at(tables[axis], idx[:1]), _at(tables[1 - axis], idx[1:])
    mesh.add_cover(axis, pos, [(lo, hi, mult)])


def read_surface_binary(path) -> LRSurface:
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data)
    if r.take(8) != _MAGIC_SURF:
        raise ValueError("not a binary surface file (bad magic)")
    du, dv, _ = r.unpack("<BBH")
    domain = r.unpack("<4d")
    units = []
    for _ in range(2):
        (n,) = r.unpack("<I")
        units.append(r.take(n).decode())
    mesh = BoxMesh(domain)
    tables = []
    for axis in range(2):
        (n,) = r.unpack("<I")
        tables.append(_seed_table(mesh, axis, r.unpack(f"<{n}d")))
    (n_seg,) = r.unpack("<I")
    for _ in range(n_seg):
        axis, mult, _, *idx = r.unpack("<BBHIII")
        _add_segment(mesh, tables, axis, mult, *idx)
    (n_bs,) = r.unpack("<I")
    bsplines = []
    coeffs = np.empty(n_bs)
    for i in range(n_bs):
        ku = _bspline_knots(tables[0], r.unpack(f"<{du + 2}I"), i, 0)
        kv = _bspline_knots(tables[1], r.unpack(f"<{dv + 2}I"), i, 1)
        s, c = r.unpack("<dd")
        bsplines.append(ScaledBSpline((ku, kv), s))
        coeffs[i] = c
    if r.off != len(data):
        raise ValueError("trailing bytes after surface data")
    return LRSurface((du, dv), mesh, bsplines, coeffs, tuple(units))


def write_surface_text(surface: LRSurface, path) -> None:
    for unit in surface.units:
        if unit.split() != [unit]:
            raise ValueError(f"unit {unit!r} cannot be written to a text surface: "
                             f"it must be non-empty and hold no whitespace")
    tables, lookups = _knot_tables(surface)
    du, dv = surface.degrees
    lines = ["lrsurface 1"]
    lines.append(f"degrees {du} {dv}")
    lines.append("domain " + " ".join(repr(float(v)) for v in surface.mesh.domain))
    lines.append(f"units {surface.units[0]} {surface.units[1]}")
    for name, tab in zip(("uknots", "vknots"), tables):
        lines.append(f"{name} {len(tab)}")
        lines.extend(repr(float(v)) for v in tab)
    segs = surface.mesh.segments()
    lines.append(f"segments {len(segs)}")
    for s in segs:
        lines.append(f"{s.axis} {s.mult} {lookups[s.axis][s.pos]} "
                     f"{lookups[1 - s.axis][s.lo]} {lookups[1 - s.axis][s.hi]}")
    lines.append(f"bsplines {len(surface.bsplines)}")
    for b, c in zip(surface.bsplines, surface.coeffs):
        idx = [lookups[0][k] for k in b.ku] + [lookups[1][k] for k in b.kv]
        lines.append(" ".join(str(i) for i in idx)
                     + f" {repr(float(b.scaling))} {repr(float(c))}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_surface_text(path) -> LRSurface:
    with open(path) as f:
        rows = [ln.split() for ln in f if ln.strip()]
    it = iter(rows)

    def row(n: int) -> list[str]:
        parts = next(it, None)
        if parts is None:
            raise ValueError("truncated surface file")
        if len(parts) != n:
            raise ValueError(f"expected {n} fields, got {' '.join(parts)!r}")
        return parts

    def expect(tag: str, n: int) -> list[str]:
        parts = row(n + 1)
        if parts[0] != tag:
            raise ValueError(f"expected '{tag}' section, got '{parts[0]}'")
        return parts[1:]

    if expect("lrsurface", 1) != ["1"]:
        raise ValueError("unsupported text surface version")
    du, dv = (int(v) for v in expect("degrees", 2))
    domain = tuple(float(v) for v in expect("domain", 4))
    units = tuple(expect("units", 2))
    mesh = BoxMesh(domain)
    tables = []
    for axis, name in enumerate(("uknots", "vknots")):
        n = int(expect(name, 1)[0])
        tables.append(_seed_table(mesh, axis, [float(row(1)[0]) for _ in range(n)]))
    n_seg = int(expect("segments", 1)[0])
    for _ in range(n_seg):
        _add_segment(mesh, tables, *(int(v) for v in row(5)))
    n_bs = int(expect("bsplines", 1)[0])
    bsplines = []
    coeffs = np.empty(n_bs)
    nu, nv = du + 2, dv + 2
    for i in range(n_bs):
        parts = row(nu + nv + 2)
        ku = _bspline_knots(tables[0], [int(k) for k in parts[:nu]], i, 0)
        kv = _bspline_knots(tables[1], [int(k) for k in parts[nu:nu + nv]], i, 1)
        bsplines.append(ScaledBSpline((ku, kv), float(parts[nu + nv])))
        coeffs[i] = float(parts[nu + nv + 1])
    return LRSurface((du, dv), mesh, bsplines, coeffs, units)


# -- surveys -----------------------------------------------------------


def write_survey_text(path, points: np.ndarray, meta: dict | None = None) -> None:
    pts = np.asarray(points, dtype=float)
    with open(path, "w") as f:
        for k in sorted((meta or {})):
            f.write(f"# {k} {meta[k]}\n")
        f.write(f"# count {len(pts)}\n")
        for row in pts:
            f.write(f"{float(row[0])!r} {float(row[1])!r} {float(row[2])!r}\n")


def read_survey_text(path):
    """Returns (points (n,3) float array, metadata dict).

    Accepts plain x-y-z files without headers.  A ``count`` header, when
    present, is validated against the actual row count.
    """
    meta: dict = {}
    rows = []
    with open(path) as f:
        for ln_no, ln in enumerate(f, 1):
            ln = ln.strip()
            if not ln:
                continue
            if ln.startswith("#"):
                parts = ln[1:].split(None, 1)
                if len(parts) == 2:
                    meta[parts[0]] = parts[1]
                continue
            parts = ln.split()
            if len(parts) < 3:
                raise ValueError(f"{path}:{ln_no}: expected 'x y z'")
            try:
                rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError:
                raise ValueError(
                    f"{path}:{ln_no}: expected numeric 'x y z', got {ln!r}"
                ) from None
    pts = np.asarray(rows, dtype=float).reshape(-1, 3)
    if not np.isfinite(pts).all():
        raise ValueError(f"{path}: non-finite coordinates")
    if "count" in meta and int(meta["count"]) != len(pts):
        raise ValueError(
            f"{path}: header count {meta['count']} != {len(pts)} data rows")
    meta.pop("count", None)
    return pts, meta


def write_survey_binary(path, points: np.ndarray, meta: dict | None = None) -> None:
    pts = np.ascontiguousarray(np.asarray(points, dtype="<f8"))
    header = json.dumps({"count": len(pts), **(meta or {})},
                        sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_MAGIC_SURV)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(pts.tobytes())


def read_survey_binary(path):
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != _MAGIC_SURV:
        raise ValueError("not a binary survey file (bad magic)")
    (hlen,) = struct.unpack_from("<I", data, 8)
    meta = json.loads(data[12:12 + hlen].decode())
    if not isinstance(meta, dict) or type(meta.get("count")) is not int:
        raise ValueError(f"{path}: binary survey header lacks an integer 'count'")
    body = data[12 + hlen:]
    n = meta.pop("count")
    pts = np.frombuffer(body, dtype="<f8").reshape(-1, 3)
    if len(pts) != n:
        raise ValueError(f"{path}: header count {n} != {len(pts)} points")
    if not np.isfinite(pts).all():
        raise ValueError(f"{path}: non-finite coordinates")
    return pts.astype(float), meta


def is_binary_survey(path) -> bool:
    """True when the file starts with the binary survey magic."""
    with open(path, "rb") as f:
        return f.read(8) == _MAGIC_SURV


def read_survey(path):
    """Sniff text vs binary survey by magic."""
    if is_binary_survey(path):
        return read_survey_binary(path)
    return read_survey_text(path)


def is_binary_surface(path) -> bool:
    """True when the file starts with the binary surface magic."""
    with open(path, "rb") as f:
        return f.read(8) == _MAGIC_SURF


def read_surface(path) -> LRSurface:
    """Sniff text vs binary surface by magic."""
    if is_binary_surface(path):
        return read_surface_binary(path)
    return read_surface_text(path)


def write_distance_field(path, points: np.ndarray, field: dict) -> None:
    """Per-point residual export: x y z residual element_id status."""
    pts = np.asarray(points, dtype=float)
    with open(path, "w") as f:
        f.write("# columns x y z residual element_id status\n")
        for row, r, e, s in zip(pts, field["residual"], field["element_id"],
                                field["status"]):
            f.write(f"{float(row[0])!r} {float(row[1])!r} {float(row[2])!r} "
                    f"{float(r)!r} {int(e)} {int(s)}\n")
