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

from .mesh import BoxMesh, LRSurface, _check_mult, _first_fault, _knot_rows

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


def binary_size(surface: LRSurface) -> int:
    """Exact byte count of the binary serialization."""
    mesh = surface.mesh
    size = 8 + 4 + 32
    for unit in surface.units:
        size += 4 + len(unit.encode())
    size += 4 + 8 * len(mesh.coords(0)) + 4 + 8 * len(mesh.coords(1))
    size += 4 + 16 * len(mesh.segment_rows())
    size += 4 + len(surface) * _bspline_record(*surface.degrees).itemsize
    return size


def write_surface_binary(surface: LRSurface, path) -> None:
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
    for axis in (0, 1):
        w(struct.pack("<I", len(surface.mesh.coords(axis))))
        w(surface.mesh.coords(axis).astype("<f8").tobytes())
    segs = surface.mesh.segment_rows()
    w(struct.pack("<I", len(segs)))
    rec = np.zeros(len(segs), dtype=[("axis_mult", "u1", (2,)), ("reserved", "<u2"),
                                     ("idx", "<u4", (3,))])
    rec["axis_mult"], rec["idx"] = segs[:, :2], segs[:, 2:]
    w(rec.tobytes())
    w(struct.pack("<I", len(surface)))
    rec = np.empty(len(surface), dtype=_bspline_record(du, dv))
    rec["knots"] = _knot_rows(surface)
    rec["scaling"], rec["coeff"] = surface.scaling, surface.coeffs
    w(rec.tobytes())
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


def _bspline_record(du: int, dv: int) -> np.dtype:
    """One binary B-spline record: its knot indices, scaling and coefficient."""
    return np.dtype([("knots", "<u4", (du + dv + 4,)), ("scaling", "<f8"), ("coeff", "<f8")])


def _seed_table(mesh: BoxMesh, axis: int, table) -> list[float]:
    """Add a knot table to the mesh coordinates; returns the snapped table."""
    if not np.all(np.diff(table) > 0):
        raise ValueError(f"knot table of axis {axis} is not strictly increasing")
    return mesh.snap_many((axis, c, True) for c in table)


def _at(table: list[float], idx) -> tuple[float, ...]:
    """Knot values at ``idx``; an index outside the table is a malformed file."""
    if min(idx) < 0 or max(idx) >= len(table):
        raise ValueError(f"knot index out of range: {list(idx)} in a table of "
                         f"{len(table)}")
    return tuple(table[k] for k in idx)


def _bspline_knots(tables, degrees: tuple[int, int], idx) -> np.ndarray:
    """Knot values of B-splines from their rows of u- and v-knot indices.

    Per axis, a B-spline's indices must be nondecreasing over a non-empty
    support and lie inside the table; the first B-spline that breaks a
    rule is named.
    """
    du, dv = degrees
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, du + dv + 4)
    faults, knots = [], []
    for axis, cols in enumerate((idx[:, :du + 2], idx[:, du + 2:])):
        table = np.asarray(tables[axis])
        faults += [
            ((np.diff(cols, axis=1) < 0).any(axis=1) | (cols[:, 0] >= cols[:, -1]),
             lambda i, axis=axis, cols=cols: f"B-spline {i}: {'uv'[axis]}-knot indices "
             f"{cols[i].tolist()} are not nondecreasing over a non-empty support"),
            ((cols < 0).any(axis=1) | (cols >= len(table)).any(axis=1),
             lambda i, cols=cols, n=len(table): f"knot index out of range: "
             f"{cols[i].tolist()} in a table of {n}"),
        ]
        knots.append(table[np.clip(cols, 0, len(table) - 1)])
    fault = _first_fault(faults)
    if fault is not None:
        raise ValueError(fault)
    return np.hstack(knots)


def _segment(tables, degrees, axis: int, mult: int, *idx: int) -> tuple:
    """One segment record as (axis, pos, lo, hi, mult) values: ``idx``
    indexes the pos, lo and hi values, lo below hi."""
    if axis not in (0, 1):
        raise ValueError(f"segment axis {axis} is not 0 or 1")
    _check_mult(axis, mult, degrees)
    if not idx[1] < idx[2]:
        raise ValueError(f"segment lo index {idx[1]} is not below its hi index {idx[2]}")
    (pos,), (lo, hi) = _at(tables[axis], idx[:1]), _at(tables[1 - axis], idx[1:])
    return axis, pos, lo, hi, mult


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
    segments = []
    for _ in range(n_seg):
        axis, mult, _, *idx = r.unpack("<BBHIII")
        segments.append(_segment(tables, (du, dv), axis, mult, *idx))
    mesh._merge(segments)
    (n_bs,) = r.unpack("<I")
    dtype = _bspline_record(du, dv)
    rec = np.frombuffer(r.take(n_bs * dtype.itemsize), dtype)
    knots = _bspline_knots(tables, (du, dv), rec["knots"])
    if r.off != len(data):
        raise ValueError("trailing bytes after surface data")
    return LRSurface((du, dv), mesh, knots, rec["scaling"].astype(float),
                     rec["coeff"].astype(float), tuple(units))


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
    mesh._merge([_segment(tables, (du, dv), *(int(v) for v in row(5)))
                 for _ in range(n_seg)])
    n_bs = int(expect("bsplines", 1)[0])
    nk = du + dv + 4
    parts = [row(nk + 2) for _ in range(n_bs)]
    knots = _bspline_knots(tables, (du, dv), [[int(k) for k in p[:nk]] for p in parts])
    scaling, coeffs = np.array([[float(v) for v in p[nk:]] for p in parts]).reshape(-1, 2).T.copy()
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
