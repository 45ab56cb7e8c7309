"""One configuration file for the settings a run may choose.

Layout (JSON, all sections and keys optional):

    {
      "tolerance": 0.5,
      "fit":       {"tolerance": 0.5, "max_iterations": 7, "degrees": [2, 2],
                    "initial_grid": [7, 7], "n_ls": 3,
                    "min_width_fraction": 6.103515625e-05, "alpha1": 1e-06},
      "deconflict": {"tolerance": 0.5, "reference_level": 3,
                     "total_iterations": 7},
      "tiling":    {"overlap": 0.05}
    }

A top-level ``tolerance`` sets both the fit and the deconfliction tolerance;
the sections can still override it individually.  Unknown keys are rejected
by name so a typo cannot silently fall back to a default, and so are the fit
keys a command sets itself: ``deconflict`` fits at the deconfliction
tolerance with its section's iteration counts, so it rejects
``fit.tolerance`` and ``fit.max_iterations``.  The thresholds
that are fixed choices of the method are module constants of ``adaptive``
and ``deconflict`` (such as ``deconflict.MAX_DEPTH``), not settings, so a
file that sets one is rejected the same way; the smoothing weights are
always ``least_squares.SmoothingWeights()``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .adaptive import FitConfig
from .deconflict import DeconflictConfig

__all__ = ["Settings", "load_settings"]


@dataclass
class Settings:
    fit: FitConfig = field(default_factory=FitConfig)
    deconflict: DeconflictConfig = field(default_factory=DeconflictConfig)
    overlap: float = 0.05  # tile expansion per side, fraction of tile width


def _build(cls, section: str, data: dict):
    """Dataclass from a plain dict with unknown-key rejection."""
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(
            f"unknown {section} setting(s): {', '.join(sorted(unknown))}; "
            f"valid keys: {', '.join(sorted(names))}")
    kwargs = dict(data)
    for key in ("degrees", "initial_grid"):
        if key in kwargs:
            kwargs[key] = tuple(int(v) for v in kwargs[key])
    return cls(**kwargs)


def load_settings(path=None, tolerance: float | None = None,
                  unused_fit: tuple[str, ...] = ()) -> Settings:
    """Settings from an optional JSON file plus an optional tolerance override.

    Precedence: built-in defaults < file < ``tolerance`` argument (which is
    the CLI flag and wins for both the fit and the deconfliction sections).
    ``unused_fit`` names fit keys the calling command sets itself; a file
    that sets one is rejected by name rather than silently overridden.
    """
    raw: dict = {}
    if path is not None:
        with open(path) as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: not valid JSON ({e})") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: top level must be a JSON object")
    unknown = set(raw) - {"tolerance", "fit", "deconflict", "tiling"}
    if unknown:
        raise ValueError(
            f"unknown config section(s): {', '.join(sorted(unknown))}; "
            "valid: tolerance, fit, deconflict, tiling")

    fit_d = dict(raw.get("fit", {}))
    unused = set(fit_d) & set(unused_fit)
    if unused:
        raise ValueError(f"fit setting(s) {', '.join(sorted(unused))} "
                         "not used by this command")
    dec_d = dict(raw.get("deconflict", {}))
    if "tolerance" in raw:
        fit_d.setdefault("tolerance", raw["tolerance"])
        dec_d.setdefault("tolerance", raw["tolerance"])
    if tolerance is not None:
        fit_d["tolerance"] = tolerance
        dec_d["tolerance"] = tolerance

    til_d = dict(raw.get("tiling", {}))
    unknown = set(til_d) - {"overlap"}
    if unknown:
        raise ValueError(f"unknown tiling setting(s): {', '.join(sorted(unknown))}")
    return Settings(fit=_build(FitConfig, "fit", fit_d),
                    deconflict=_build(DeconflictConfig, "deconflict", dec_d),
                    overlap=float(til_d.get("overlap", 0.05)))
