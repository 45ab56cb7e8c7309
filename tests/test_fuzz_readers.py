"""Damaged files against every reader.

Each file kind is written once, then cut at random points and changed in
1-3 random bytes.  A read of a damaged file must either raise ValueError
naming the file, or return a result that holds: a surface that passes
``validate_surface`` with finite coefficients, or a survey whose points
form a finite (n, 3) array.  The cases come from fixed seeds.
"""
import numpy as np
import pytest

from lrterrain.formats import (
    read_surface,
    read_survey,
    write_surface_binary,
    write_surface_text,
    write_survey_binary,
    write_survey_text,
)
from lrterrain.mesh import validate_surface
from conftest import random_refined_surface

CASES = 1000  # per file kind: a quarter truncations, the rest byte changes
# replacement bytes for text files: the characters the formats use, and a few others
TEXT_BYTES = np.frombuffer(b"0123456789.-+eE \n#naifxz\t\x00\xff", "u1")


def _damaged(data: bytes, seed: int, text: bool):
    """CASES damaged copies of ``data``: truncations, then 1-3 changed bytes."""
    rng = np.random.default_rng(seed)
    for cut in rng.integers(0, len(data), CASES // 4):
        yield data[:cut]
    raw = np.frombuffer(data, "u1")
    for _ in range(CASES - CASES // 4):
        out = raw.copy()
        at = rng.choice(len(raw), int(rng.integers(1, 4)), replace=False)
        new = rng.choice(TEXT_BYTES, len(at)) if text else rng.integers(0, 256, len(at))
        out[at] = np.where(new == raw[at], new ^ 1, new)
        yield out.tobytes()


def _surface_holds(surface, seen: set) -> None:
    assert np.isfinite(surface.coeffs).all() and len(surface.coeffs) == len(surface)
    mesh = surface.mesh
    # validate_surface reads no coefficient: check each B-spline set once
    key = (surface.degrees, mesh.domain, mesh.coords(0).tobytes(), mesh.coords(1).tobytes(),
           mesh.segment_rows().tobytes(), surface.knots.tobytes(), surface.scaling.tobytes())
    if key not in seen:
        validate_surface(surface)
        seen.add(key)


def _survey_holds(result, seen: set) -> None:
    pts, meta = result
    assert isinstance(pts, np.ndarray) and pts.dtype == float
    assert pts.ndim == 2 and pts.shape[1] == 3 and np.isfinite(pts).all()
    assert isinstance(meta, dict)


def _surface():
    return random_refined_surface(2, n_inserts=12, grid=(5, 5))


def _survey():
    rng = np.random.default_rng(4)
    return rng.normal(size=(12, 3)) * [100.0, 100.0, 10.0]


KINDS = {
    "lrsurf02": (lambda p: write_surface_binary(_surface(), p), read_surface, _surface_holds,
                 False),
    "text-surface": (lambda p: write_surface_text(_surface(), p), read_surface,
                     _surface_holds, True),
    "lrsurv01": (lambda p: write_survey_binary(p, _survey(), {"id": "a", "score": 3}),
                 read_survey, _survey_holds, False),
    "text-survey": (lambda p: write_survey_text(p, _survey(), {"id": "a", "score": "3"}),
                    read_survey, _survey_holds, True),
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_damaged_files_raise_value_error_or_read_a_valid_result(kind, tmp_path):
    write, read, holds, text = KINDS[kind]
    path = tmp_path / "f"
    write(path)
    seen: set = set()
    holds(read(path), seen)  # the intact file
    outcomes = {"ValueError": 0, "read": 0}
    for k, data in enumerate(_damaged(path.read_bytes(), seed=len(kind), text=text)):
        path.write_bytes(data)
        try:
            result = read(path)
        except ValueError as e:
            assert str(path) in str(e), f"case {k}: {data!r}: {e} names no file"
            outcomes["ValueError"] += 1
            continue
        except Exception as e:
            raise AssertionError(f"case {k}: {data!r} raised {e!r}") from e
        try:
            holds(result, seen)
        except AssertionError as e:
            raise AssertionError(f"case {k}: {data!r} read into a result that does not "
                                 f"hold: {e}") from None
        outcomes["read"] += 1
    assert sum(outcomes.values()) == CASES
    assert min(outcomes.values()) > 0  # both outcomes are exercised
