"""Benchmark of the lrterrain pipeline: one named workload per run.

    python3 lrbench/run.py --workload survey_merge --seed 1 --seconds 20 --trace 0

Generates the workload's surveys from the seed in a separate process
(cached under ``lrbench/cache``), measures set-up in fresh interpreters,
then repeats whole rounds -- fit, warm-up query, timed queries -- until
``--seconds`` have passed, and checks the last round's outputs.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or per-layer metrics with
``--trace 1``, which also writes the spans to ``lrbench/traces``).
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACES = HERE / "traces"

sys.path.insert(0, str(SRC))
try:
    import lrterrain
except ImportError as exc:
    sys.exit(f"lrbench: cannot import lrterrain from {SRC}: {exc}")
if Path(lrterrain.__file__).resolve().parent.parent != SRC:
    sys.exit(f"lrbench: lrterrain resolved to {lrterrain.__file__}, not {SRC}")

import numpy as np  # noqa: E402

from generate import CACHE, input_dir  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Inputs, check_all, query, truth_rms_tol  # noqa: E402

SETUP_REPEATS = 4    # timed set-ups per run, after one untimed warm-up
QUERY_REPEATS = 3    # timed queries per round, after one untimed warm-up
QUERY_CHUNK_ROWS = 30
END_TO_END_UNITS = {"setup_s": "s", "fit_s": "s", "query_s": "s",
                    "peak_rss_mb": "MB", "surface_bytes": "bytes",
                    "truth_rms_tol": "1"}


def survey_paths(indir: Path) -> list[Path]:
    info = json.loads((indir / "info.json").read_text())
    return [indir / f"{name}.xyz" for name in info["surveys"]]


def load_inputs(indir: Path) -> Inputs:
    surveys = []
    for path in survey_paths(indir):
        points, meta = lrterrain.read_survey(path)
        surveys.append((path.stem, points, meta))
    with np.load(indir / "labels.npz") as npz:
        labels = {k: npz[k] for k in npz.files}
    return Inputs(surveys, json.loads((indir / "info.json").read_text()), labels)


def measure_setup(indir: Path) -> float:
    """Median wall time of a fresh-interpreter import plus survey read."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           *map(str, survey_paths(indir))]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> dict:
    """One benchmark run: the result object printed as the last line."""
    wl = WORKLOADS[workload_name](seed, smoke=size == "smoke")
    indir = input_dir(wl)
    if not (indir / "info.json").exists():
        subprocess.run([sys.executable, str(HERE / "generate.py"), workload_name,
                        str(seed), "--size", size], check=True, timeout=120)
    setup_s = None if trace else measure_setup(indir)
    tracer = Tracer() if trace else None
    phase = tracer.phase if tracer else (lambda name: nullcontext())
    if tracer:
        tracer.install()
    try:
        with phase("load"):
            data = load_inputs(indir)
        gx, gy = wl.grid
        chunk = QUERY_CHUNK_ROWS * int(np.count_nonzero(gy == gy[0]))
        fit_times, query_times, failures = [], [], []
        rounds, first_coeffs = 0, None
        start = time.perf_counter()
        while True:
            with phase("fit"):
                t0 = time.perf_counter()
                result = wl.fit(data)
                fit_times.append(time.perf_counter() - t0)
            coeffs = b"".join(s.coeffs.tobytes() for s in result.surfaces)
            if first_coeffs is None:
                first_coeffs = coeffs
            elif coeffs != first_coeffs:
                failures.append(f"round {rounds}: fit differs from round 0")
            owner = wl.owner(result, gx, gy)
            with phase("warm"):
                values = query(result.surfaces, gx, gy, owner, chunk)
            for _ in range(QUERY_REPEATS):
                with phase("query"):
                    t0 = time.perf_counter()
                    values = query(result.surfaces, gx, gy, owner, chunk)
                    query_times.append(time.perf_counter() - t0)
            rounds += 1
            if time.perf_counter() - start >= seconds:
                break
        with phase("check"):
            with tempfile.TemporaryDirectory(dir=CACHE) as work:
                failures += check_all(wl, data, result, values, Path(work))
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        metrics = tracer.layer_metrics(("fit", "warm", "query"), rounds)
        units = {n: "s" if n.endswith("_s") else "1" if n == "trace.fit_coverage"
                 else "count" for n in metrics}
        if not 0.9 <= metrics["trace.fit_coverage"] <= 1.0:
            failures.append("top-level spans cover "
                            f"{metrics['trace.fit_coverage']:.3f} of fit_s")
        TRACES.mkdir(parents=True, exist_ok=True)
        tracer.write(TRACES / f"{workload_name}-{wl.tag}-seed{seed}.json")
    else:
        metrics = {
            "setup_s": setup_s,
            "fit_s": statistics.median(fit_times),
            "query_s": statistics.median(query_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "surface_bytes": sum(lrterrain.formats.binary_size(s) for s in result.surfaces),
            "truth_rms_tol": truth_rms_tol(wl, values, data.info["tolerance"]),
        }
        units = END_TO_END_UNITS
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    return {"correct": not failures,
            "attempted": rounds * (1 + QUERY_REPEATS),
            "failed": 0,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="input size; smoke is for the self-tests")
    args = ap.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
