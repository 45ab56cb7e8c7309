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
B-spline knot-index list that decreases or spans an empty support, a
segment record that ``insert_segments`` would reject, or a file that ends
early is malformed: the readers raise ``ValueError`` naming the record by
its position in the file, and the CLI exits 2.

Survey text format: optional ``# key value`` header lines, then one
``x y z`` row per point.  Binary survey: magic ``LRSURV01``, u32 JSON
header length, JSON header, then f64 triples.
"""
from __future__ import annotations

import itertools
import json
import struct

import numpy as np

from .mesh import BoxMesh, LRSurface, _check_segments, _first_fault, _knot_rows

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
# one binary segment record: axis and multiplicity, then pos, lo and hi indices
_SEGMENT_RECORD = np.dtype([("axis_mult", "u1", (2,)), ("reserved", "<u2"),
                            ("idx", "<u4", (3,))])


def binary_size(surface: LRSurface) -> int:
    """Exact byte count of the binary serialization: the 44-byte header,
    then six blocks of a u32 count and their records."""
    mesh = surface.mesh
    return (44 + 6 * 4 + sum(len(unit.encode()) for unit in surface.units)
            + 8 * (len(mesh.coords(0)) + len(mesh.coords(1)))
            + _SEGMENT_RECORD.itemsize * len(mesh.segment_rows())
            + _bspline_record(*surface.degrees).itemsize * len(surface))


def write_surface_binary(surface: LRSurface, path) -> None:
    mesh, (du, dv) = surface.mesh, surface.degrees
    segs = mesh.segment_rows()
    seg = np.zeros(len(segs), dtype=_SEGMENT_RECORD)
    seg["axis_mult"], seg["idx"] = segs[:, :2], segs[:, 2:]
    rec = np.empty(len(surface), dtype=_bspline_record(du, dv))
    rec["knots"] = _knot_rows(surface)
    rec["scaling"], rec["coeff"] = surface.scaling, surface.coeffs
    # after the header, blocks of a u32 count and that many records
    blocks = ([np.frombuffer(unit.encode(), "u1") for unit in surface.units]
              + [mesh.coords(axis).astype("<f8") for axis in (0, 1)] + [seg, rec])
    data = b"".join([_MAGIC_SURF, struct.pack("<BBH4d", du, dv, 0, *mesh.domain)]
                    + [struct.pack("<I", len(b)) + b.tobytes() for b in blocks])
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

    def block(self, dtype) -> np.ndarray:
        """A u32 count n, then n records of ``dtype``, read whole."""
        (n,) = self.unpack("<I")
        return np.frombuffer(self.take(n * np.dtype(dtype).itemsize), dtype)


def _bspline_record(du: int, dv: int) -> np.dtype:
    """One binary B-spline record: its knot indices, scaling and coefficient."""
    return np.dtype([("knots", "<u4", (du + dv + 4,)), ("scaling", "<f8"), ("coeff", "<f8")])


def _seed_table(mesh: BoxMesh, axis: int, table) -> list[float]:
    """Add a knot table to the mesh coordinates; returns the snapped table."""
    if not np.all(np.diff(table) > 0):
        raise ValueError(f"knot table of axis {axis} is not strictly increasing")
    return mesh.snap_many((axis, c) for c in table)


def _lookup(tables, table, idx, record: str) -> np.ndarray:
    """Values of the knot indices ``idx``, ``table`` the table (0: u, 1: v)
    of each; an index outside its table is named by its record's position."""
    size = np.array([len(t) for t in tables])[table]
    bad = ((idx < 0) | (idx >= size)).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{record} {i}: knot index out of range: {idx[i].tolist()}, the u "
                         f"and v tables hold {len(tables[0])} and {len(tables[1])} knots")
    return np.concatenate(tables)[idx + table * len(tables[0])]


def _bspline_knots(tables, degrees: tuple[int, int], idx) -> np.ndarray:
    """Knot values of B-splines from their rows of u- and v-knot indices.

    Per axis, a B-spline's indices must be nondecreasing over a non-empty
    support and lie inside the table; the first B-spline that breaks a
    rule is named.
    """
    du, dv = degrees
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, du + dv + 4)
    fault = _first_fault([
        ((np.diff(c, axis=1) < 0).any(axis=1) | (c[:, 0] >= c[:, -1]),
         lambda i, axis=axis, c=c: f"B-spline {i}: {'uv'[axis]}-knot indices "
         f"{c[i].tolist()} are not nondecreasing over a non-empty support")
        for axis, c in enumerate((idx[:, :du + 2], idx[:, du + 2:]))])
    if fault is not None:
        raise ValueError(fault)
    return _lookup(tables, np.repeat([0, 1], [du + 2, dv + 2]), idx, "B-spline")


def _merge_segments(mesh: BoxMesh, tables, degrees, axis, mult, idx) -> None:
    """Merge a file's segment records into the mesh: record i has
    ``axis[i]``, ``mult[i]`` and pos, lo, hi indices ``idx[i]``, pos into
    the table of its axis.  A bad record is named by its place in the file."""
    a = (np.asarray(axis) == 1).astype(np.int64)
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, 3)
    values = _lookup(tables, np.column_stack([a, 1 - a, 1 - a]), idx, "segment")
    mesh._merge(_check_segments(mesh, np.column_stack([axis, values, mult]), degrees))


def read_surface_binary(path) -> LRSurface:
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data)
    if r.take(8) != _MAGIC_SURF:
        raise ValueError("not a binary surface file (bad magic)")
    du, dv, _, *domain = r.unpack("<BBH4d")
    units = tuple(r.block("u1").tobytes().decode() for _ in range(2))
    mesh = BoxMesh(domain)
    tables = [_seed_table(mesh, axis, r.block("<f8").tolist()) for axis in (0, 1)]
    seg = r.block(_SEGMENT_RECORD)
    _merge_segments(mesh, tables, (du, dv), *seg["axis_mult"].T, seg["idx"])
    rec = r.block(_bspline_record(du, dv))
    knots = _bspline_knots(tables, (du, dv), rec["knots"])
    if r.off != len(data):
        raise ValueError("trailing bytes after surface data")
    return LRSurface((du, dv), mesh, knots, rec["scaling"].astype(float),
                     rec["coeff"].astype(float), units)


def write_surface_text(surface: LRSurface, path) -> None:
    for unit in surface.units:
        if unit.split() != [unit]:
            raise ValueError(f"unit {unit!r} cannot be written to a text surface: "
                             f"it must be non-empty and hold no whitespace")
    du, dv = surface.degrees
    lines = ["lrsurface 1"]
    lines.append(f"degrees {du} {dv}")
    lines.append("domain " + " ".join(repr(float(v)) for v in surface.mesh.domain))
    lines.append(f"units {surface.units[0]} {surface.units[1]}")
    for axis, name in enumerate(("uknots", "vknots")):
        tab = surface.mesh.coords(axis).tolist()
        lines.append(f"{name} {len(tab)}")
        lines.extend(map(repr, tab))
    segs = surface.mesh.segment_rows()
    lines.append(f"segments {len(segs)}")
    lines.extend(" ".join(map(str, seg)) for seg in segs.tolist())
    lines.append(f"bsplines {len(surface)}")
    for idx, sc, c in zip(_knot_rows(surface).tolist(), surface.scaling.tolist(),
                          surface.coeffs.tolist()):
        lines.append(" ".join(map(str, idx)) + f" {sc!r} {c!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_surface_text(path) -> LRSurface:
    with open(path) as f:
        rows = [ln.split() for ln in f if ln.strip()]
    it = iter(rows)

    def expect(tag: str, n: int) -> list[str]:
        parts = next(it, None)
        if parts is None:
            raise ValueError("truncated surface file")
        if parts[0] != tag or len(parts) != n + 1:
            raise ValueError(f"expected '{tag}' and {n} fields, got {' '.join(parts)!r}")
        return parts[1:]

    def block(tag: str, width: int, ints: int = 0):
        """The section ``tag``: its count n, then n lines of ``width``
        fields, as an (n, ints) int64 and an (n, width - ints) float array."""
        n = int(expect(tag, 1)[0])
        lines = list(itertools.islice(it, n))
        if len(lines) < n:
            raise ValueError("truncated surface file")
        try:
            out = np.array(lines, dtype=str).reshape(n, -1 if n else width)
        except ValueError:
            out = np.empty((0, 0), dtype=str)
        if out.shape[1] != width:
            raise ValueError(f"expected {width} fields on every line of the '{tag}' section")
        try:
            return out[:, :ints].astype(np.int64), out[:, ints:].astype(float)
        except OverflowError:
            raise ValueError(f"an index in the '{tag}' section is out of range") from None

    if expect("lrsurface", 1) != ["1"]:
        raise ValueError("unsupported text surface version")
    du, dv = (int(v) for v in expect("degrees", 2))
    domain = tuple(float(v) for v in expect("domain", 4))
    units = tuple(expect("units", 2))
    mesh = BoxMesh(domain)
    tables = [_seed_table(mesh, axis, block(name, 1)[1][:, 0].tolist())
              for axis, name in enumerate(("uknots", "vknots"))]
    seg, _ = block("segments", 5, 5)
    _merge_segments(mesh, tables, (du, dv), seg[:, 0], seg[:, 1], seg[:, 2:])
    idx, values = block("bsplines", du + dv + 6, du + dv + 4)
    knots = _bspline_knots(tables, (du, dv), idx)
    scaling, coeffs = values.T.copy()
    return LRSurface((du, dv), mesh, knots, scaling, coeffs, units)


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
