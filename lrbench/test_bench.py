"""Self-tests of the benchmark at smoke sizes.

    python3 -m pytest lrbench -q

Every metric named in BENCHMARK.json is printed with its unit, valid
outputs pass every check, and each check rejects one corrupted output.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """The benchmark command of BENCHMARK.json, run from ``cwd``."""
    return subprocess.run([*SPEC["command"], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", str(SEED),
                  "--seconds", "0.1", "--trace", trace, "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("cache", "traces", "__pycache__"))
    done = _bench(tmp_path, "--workload", "fine_fit", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _fitted(name: str):
    wl = W.WORKLOADS[name](SEED, smoke=True)
    data = W.Inputs(*wl.generate())
    result = wl.fit(data)
    gx, gy = wl.grid
    values = W.query(result.surfaces, gx, gy, wl.owner(result, gx, gy), 10_000)
    return wl, data, result, values


@pytest.fixture(scope="module", params=list(W.WORKLOADS))
def fitted(request):
    return _fitted(request.param)


def test_valid_outputs_pass(fitted, tmp_path):
    assert W.check_all(*fitted, tmp_path) == []


def test_perturbed_coefficient_is_rejected(tmp_path):
    wl, data, result, values = _fitted("fine_fit")
    surface = result.surfaces[0]
    x, y = result.fit_points[0, :2]
    i = next(k for k, b in enumerate(surface.bsplines)
             if b.ku[0] < x < b.ku[-1] and b.kv[0] < y < b.kv[-1])
    surface.coeffs[i] += 10 * data.info["tolerance"]
    errs = W.check_all(wl, data, result, values, tmp_path)
    assert any(e.startswith("report ") for e in errs), errs


def test_unstitched_edge_is_rejected(tmp_path):
    wl, data, result, values = _fitted("tiled_grid")
    result.surfaces[5] = result.extra["unstitched"][5]
    errs = W.check_all(wl, data, result, values, tmp_path)
    assert any("C0 gap" in e for e in errs), errs


def test_offset_band_put_back_is_rejected(tmp_path):
    wl, data, result, values = _fitted("survey_merge")
    k = next(i for i, (name, _, _) in enumerate(data.surveys) if data.labels[name].any())
    name, points, _ = data.surveys[k]
    cleaned = result.extra["cleaned"][k]
    removed = data.labels[name] & ~np.isin(points[:, 0], cleaned[:, 0])
    result.extra["cleaned"][k] = np.concatenate([cleaned, points[removed]])
    errs = W.check_all(wl, data, result, values, tmp_path)
    assert any(e.startswith("offset band removal") for e in errs), errs
