"""Locally refined B-spline surfaces for scattered elevation data."""

from .mesh import (
    BoxMesh,
    LRSurface,
    ScaledBSpline,
    Segment,
    insert_segment,
    insert_segments,
    make_tensor_surface,
    restrict,
)
from .evaluate import evaluate, distance_field, partition_of_unity
from .adaptive import FitConfig, fit
from .deconflict import DeconflictConfig, Survey, deconflict, deconflict_fit
from .config import Settings, load_settings
from .formats import read_surface, read_survey, write_surface_binary, write_surface_text
from .tiling import (Tile, TileFit, fit_tiles, make_tiles, stitch_c0,
                     stitch_c1, stitch_grid)

__version__ = "0.1.0"

__all__ = [
    "BoxMesh",
    "LRSurface",
    "ScaledBSpline",
    "Segment",
    "insert_segment",
    "insert_segments",
    "make_tensor_surface",
    "restrict",
    "evaluate",
    "distance_field",
    "partition_of_unity",
    "FitConfig",
    "fit",
    "DeconflictConfig",
    "Survey",
    "deconflict",
    "deconflict_fit",
    "Tile",
    "TileFit",
    "make_tiles",
    "fit_tiles",
    "stitch_c0",
    "stitch_c1",
    "stitch_grid",
    "Settings",
    "load_settings",
    "read_surface",
    "read_survey",
    "write_surface_binary",
    "write_surface_text",
]
