import numpy as np
import pytest

from lrterrain import Segment, insert_segment, make_tensor_surface
from lrterrain.mba import mba_update


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def mba_fit(surface, points, sweeps: int = 5, tau: float = 0.0) -> list[dict]:
    """Run several correction sweeps, re-evaluating residuals each time."""
    stats = []
    for _ in range(sweeps):
        stats.append(mba_update(surface, points, tau=tau))
    return stats


def random_refined_surface(seed: int, n_inserts: int = 40,
                           domain=(0.0, 1.0, 0.0, 1.0), degrees=(2, 2),
                           grid=(7, 7)):
    """A surface after a reproducible sequence of random legal refinements.

    Each step picks a B-spline and splits one of its knot spans at the
    midpoint with a segment spanning exactly that support.
    """
    rng = np.random.default_rng(seed)
    s = make_tensor_surface(domain, degrees, grid)
    for _ in range(n_inserts):
        i = int(rng.integers(len(s)))
        b = s.bsplines[i]
        axis = int(rng.integers(2))
        kn = b.knots[axis]
        spans = [(kn[j], kn[j + 1]) for j in range(len(kn) - 1) if kn[j + 1] > kn[j]]
        lo, hi = spans[int(rng.integers(len(spans)))]
        pos = 0.5 * (lo + hi)
        other = b.knots[1 - axis]
        try:
            insert_segment(s, Segment(axis, pos, other[0], other[-1]))
        except ValueError:
            pass
    s.coeffs[:] = rng.normal(size=len(s))
    return s
