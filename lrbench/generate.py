"""Write one workload's inputs for one seed into the input cache.

    python3 lrbench/generate.py WORKLOAD SEED [--size smoke]

Run in its own process, so the benchmark process's peak memory never
includes generation.  Each survey becomes an ``.xyz`` text file (header
lines, then exact ``repr`` floats), next to ``labels.npz`` (the
generator's per-point labels) and ``info.json`` (tolerance, survey order).
The directory appears complete or not at all.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CACHE = HERE / "cache"


def input_dir(workload) -> Path:
    return CACHE / f"{workload.name}-{workload.tag}-seed{workload.seed}"


def write_xyz(path: Path, points, meta: dict) -> None:
    lines = [f"# {k} {v}" for k, v in sorted(meta.items())]
    lines.append(f"# count {len(points)}")
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in points.tolist()]
    path.write_text("\n".join(lines) + "\n")


def generate(workload) -> Path:
    import numpy as np

    out = input_dir(workload)
    if (out / "info.json").exists():
        return out
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".gen-", dir=CACHE))
    surveys, info, labels = workload.generate()
    for name, points, meta in surveys:
        write_xyz(tmp / f"{name}.xyz", points, meta)
    np.savez(tmp / "labels.npz", **labels)
    info = dict(info, surveys=[name for name, _, _ in surveys])
    (tmp / "info.json").write_text(json.dumps(info, sort_keys=True) + "\n")
    try:
        os.rename(tmp, out)
    except OSError:  # a concurrent run finished the same directory first
        shutil.rmtree(tmp)
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()
    generate(WORKLOADS[args.workload](args.seed, smoke=args.size == "smoke"))
