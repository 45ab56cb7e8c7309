"""Surface and survey file formats.

Binary surface (magic ``LRSURF02``, little-endian throughout):

    magic            8 bytes
    degrees          u8 du, u8 dv, u16 reserved (0)
    domain           4 x f64 (umin, umax, vmin, vmax)
    units            2 x (u32 length + UTF-8 bytes)
    u knot table     u32 count + f64[count]      (strictly increasing)
    v knot table     u32 count + f64[count]
    segments         u32 count + per segment (16 bytes):
                     u8 axis, u8 mult, u16 reserved, u32 pos/lo/hi indices
                     (pos indexes the axis table, lo/hi the other table)
    coefficients     u32 count + f64[count], in canonical B-spline order

The file holds the LR mesh and no B-spline.  The text format holds the
same sections line-oriented, with full-precision ``repr`` floats and each
unit as one whitespace-free word (the text writer rejects others), and
then, in place of the coefficients, per B-spline its u- and v-knot indices,
scaling and coefficient.

One rule, ``_lr_surface``, holds for every surface file: the B-splines are
the replay of the mesh (``mesh.replay``), which fixes them.  Both writers
and both readers apply it.

The knot tables are the mesh's coordinate tables: every knot, line
position and segment endpoint is a mesh coordinate, stored once; segments
and B-splines refer to them by index, which makes shared knots exact by
construction and the round trip bit-identical.  A table that is not
strictly increasing or holds a value outside the domain, an index outside
its table, a segment record that ``insert_segments`` would reject, a
domain side below multiplicity degree + 1, or a file that ends early is
malformed, and so is a surface that breaks the rule.  The readers raise
``ValueError`` naming the file, and the record by its position in the
file, and the CLI exits 2.  A file of the retired binary version, which
listed the B-splines, is rejected by name.

Survey text format: optional ``# key value`` header lines, then one
``x y z`` row per point.  Binary survey: magic ``LRSURV01``, u32 JSON
header length, JSON header, then f64 triples.

JSON documents (the deconfliction report, the tile manifest) have one
writer, ``_write_json``: sorted keys, indent 1, a final newline.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import struct

import numpy as np

from .mesh import BoxMesh, LRSurface, _check_segments, _first_fault, _knot_rows, replay

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

_MAGIC_SURF = b"LRSURF02"
_MAGIC_SURV = b"LRSURV01"
# one binary segment record: axis and multiplicity, then pos, lo and hi indices
_SEGMENT_RECORD = np.dtype([("axis_mult", "u1", (2,)), ("reserved", "<u2"),
                            ("idx", "<u4", (3,))])


def _blocks(surface: LRSurface) -> list[np.ndarray]:
    """The six blocks of ``LRSURF02`` after its 44-byte header, each written
    as a u32 count and its records: the two units, the two knot tables,
    the segments and the coefficients."""
    mesh = surface.mesh
    segs = mesh.segment_rows()
    seg = np.zeros(len(segs), dtype=_SEGMENT_RECORD)
    seg["axis_mult"], seg["idx"] = segs[:, :2], segs[:, 2:]
    return ([np.frombuffer(unit.encode(), "u1") for unit in surface.units]
            + [mesh.coords(axis).astype("<f8") for axis in (0, 1)]
            + [seg, surface.coeffs.astype("<f8")])


def binary_size(surface: LRSurface) -> int:
    """Exact byte count of the ``LRSURF02`` serialization."""
    return 44 + sum(4 + block.nbytes for block in _blocks(surface))


SCALING_RTOL = 1e-12


def _lr_surface(mesh: BoxMesh, degrees: tuple[int, int], coeffs, units, knots=None,
                scaling=None) -> LRSurface:
    """The surface of ``mesh`` at ``degrees``: the mesh's replay
    (``mesh.replay``) with ``coeffs`` and ``units``, under the one rule of
    every surface file.

    The LR mesh fixes the B-spline set, so a surface holds the B-splines of
    its mesh's replay, in canonical order.  Where the caller lists them,
    each B-spline's ``knots`` must be the replay's and its ``scaling``
    within ``SCALING_RTOL`` of the replay's, relative; the result keeps
    those scalings.  Every coefficient must be finite.  Raises ValueError
    naming the first B-spline that breaks the rule.
    """
    out = replay(mesh, degrees)
    knots = out.knots if knots is None else np.asarray(knots, dtype=float)
    scaling = out.scaling if scaling is None else np.array(scaling, dtype=float)
    coeffs = np.array(coeffs, dtype=float)
    k = min(len(coeffs), len(out))
    differs = "differs from the replay of the mesh"
    fault = _first_fault([
        (~(knots[:k] == out.knots[:k]).all(axis=1),
         lambda i: f"B-spline {i} {differs}: knots {knots[i].tolist()}, the replay's "
                   f"{out.knots[i].tolist()}"),
        (~(np.abs(scaling[:k] - out.scaling[:k]) <= SCALING_RTOL * out.scaling[:k]),
         lambda i: f"B-spline {i} {differs}: scaling {float(scaling[i])!r}, the replay's "
                   f"{float(out.scaling[i])!r} (relative tolerance {SCALING_RTOL})"),
        (~np.isfinite(coeffs[:k]),
         lambda i: f"B-spline {i}: coefficient {float(coeffs[i])!r} is not finite"),
    ])
    if fault is None and len(coeffs) != len(out):
        fault = f"{len(coeffs)} coefficients, but the replay of the mesh has {len(out)} B-splines"
    if fault is not None:
        raise ValueError(fault)
    out.scaling, out.coeffs, out.units = scaling, coeffs, units
    return out


def write_surface_binary(surface: LRSurface, path) -> None:
    """Write ``surface`` as ``LRSURF02``: its mesh, then its coefficients.
    Before the file is opened, raises ValueError when the surface breaks
    the rule of ``_lr_surface``."""
    _lr_surface(surface.mesh, surface.degrees, surface.coeffs, surface.units, surface.knots,
                surface.scaling)
    data = b"".join([_MAGIC_SURF, struct.pack("<BBH4d", *surface.degrees, 0, *surface.domain)]
                    + [struct.pack("<I", len(b)) + b.tobytes() for b in _blocks(surface)])
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


def _seed_table(mesh: BoxMesh, axis: int, table) -> list[float]:
    """Add a knot table to the mesh coordinates; returns the snapped table.
    The table must be strictly increasing and inside the domain."""
    if not np.all(np.diff(table) > 0):
        raise ValueError(f"knot table of axis {axis} is not strictly increasing")
    lo, hi = mesh.domain[2 * axis:2 * axis + 2]
    outside = [c for c in table if not lo <= c <= hi]
    if outside:
        raise ValueError(f"knot table of axis {axis}: {outside[0]!r} is outside "
                         f"the domain [{lo!r}, {hi!r}]")
    return mesh.snap_many((axis, c) for c in table)


def _names_path(reader):
    """``reader(path)``, with ``path`` put in front of its ValueError
    messages, as the survey readers word theirs."""
    @functools.wraps(reader)
    def read(path):
        try:
            return reader(path)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    return read


def _lookup(tables, table, idx) -> np.ndarray:
    """Values of the knot indices ``idx``, ``table`` the table (0: u, 1: v)
    of each; NaN for an index outside its table."""
    size = np.array([len(t) for t in tables])[table]
    flat = np.concatenate([*tables, [np.nan]])
    return flat[np.where((idx >= 0) & (idx < size), idx + table * len(tables[0]), -1)]


def _merge_segments(mesh: BoxMesh, tables, degrees, axis, mult, idx) -> None:
    """Merge a file's segment records into the mesh: record i has
    ``axis[i]``, ``mult[i]`` and pos, lo, hi indices ``idx[i]``, pos into
    the table of its axis.  A bad record is named by its place in the file."""
    a = (np.asarray(axis) == 1).astype(np.int64)
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, 3)
    values = _lookup(tables, np.column_stack([a, 1 - a, 1 - a]), idx)
    bad = np.isnan(values).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"segment {i}: knot index out of range: {idx[i].tolist()}, the u "
                         f"and v tables hold {len(tables[0])} and {len(tables[1])} knots")
    mesh._merge(_check_segments(mesh, np.column_stack([axis, values, mult]), degrees))


@_names_path
def read_surface_binary(path) -> LRSurface:
    """Read an ``LRSURF02`` file, whose B-splines are the replay of its
    mesh."""
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data)
    magic = r.take(8)
    if magic != _MAGIC_SURF:
        raise ValueError("LRSURF01 is no longer read" if magic == b"LRSURF01" else
                         "not a binary surface file (bad magic)")
    du, dv, _, *domain = r.unpack("<BBH4d")
    units = tuple(r.block("u1").tobytes().decode() for _ in range(2))
    mesh = BoxMesh(domain)
    tables = [_seed_table(mesh, axis, r.block("<f8").tolist()) for axis in (0, 1)]
    seg = r.block(_SEGMENT_RECORD)
    _merge_segments(mesh, tables, (du, dv), *seg["axis_mult"].T, seg["idx"])
    coeffs = r.block("<f8")
    if r.off != len(data):
        raise ValueError("trailing bytes after surface data")
    return _lr_surface(mesh, (du, dv), coeffs, units)


def write_surface_text(surface: LRSurface, path) -> None:
    """Write ``surface`` as text, every B-spline listed.  Before the file is
    opened, raises ValueError when the surface breaks the rule of
    ``_lr_surface`` or a unit is not one word."""
    _lr_surface(surface.mesh, surface.degrees, surface.coeffs, surface.units, surface.knots,
                surface.scaling)
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


@_names_path
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
        if n < 0:
            raise ValueError(f"the '{tag}' section has a negative count, {n}")
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
    knots = _lookup(tables, np.repeat([0, 1], [du + 2, dv + 2]), idx)
    return _lr_surface(mesh, (du, dv), values[:, 1], units, knots, values[:, 0])


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
    try:
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
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    pts = np.asarray(rows, dtype=float).reshape(-1, 3)
    if not np.isfinite(pts).all():
        raise ValueError(f"{path}: non-finite coordinates")
    count = meta.pop("count", None)
    if count is not None:
        try:
            n = int(count)
        except ValueError:
            raise ValueError(f"{path}: header count {count!r} is not an integer") from None
        if n != len(pts):
            raise ValueError(f"{path}: header count {count} != {len(pts)} data rows")
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
        raise ValueError(f"{path}: not a binary survey file (bad magic)")
    try:
        (hlen,) = struct.unpack_from("<I", data, 8)
        meta = json.loads(data[12:12 + hlen].decode())
    except (struct.error, ValueError) as e:
        raise ValueError(f"{path}: binary survey header does not parse: {e}") from None
    if not isinstance(meta, dict) or type(meta.get("count")) is not int:
        raise ValueError(f"{path}: binary survey header lacks an integer 'count'")
    body = data[12 + hlen:]
    n = meta.pop("count")
    if len(body) != 24 * n:
        raise ValueError(f"{path}: header count {n} needs {24 * n} bytes of points, "
                         f"the file holds {len(body)}")
    pts = np.frombuffer(body, dtype="<f8").reshape(-1, 3)
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
    """True when the file starts with ``LRSURF``, as every binary surface
    magic does; the binary reader names a version it does not read."""
    with open(path, "rb") as f:
        return f.read(6) == _MAGIC_SURF[:6]


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


# -- JSON documents ------------------------------------------------------


def _plain(obj):
    """The plain value json writes for a dataclass or a numpy value."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path, doc) -> None:
    """``doc`` as JSON with sorted keys, indent 1 and a final newline.  json
    sorts the keys before it writes them, so every key must be a string."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=1, default=_plain)
        f.write("\n")
