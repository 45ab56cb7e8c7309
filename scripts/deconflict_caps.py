#!/usr/bin/env python3
"""Deconfliction against references of growing depth.

    python3 scripts/deconflict_caps.py --seed 1 --scale 0.6 --caps 2 3 4 5

The surveys are the ``survey_merge`` benchmark geometry
(``lrbench/workloads.py``, ``SurveyMerge.generate``) at ``--seed`` and
``--scale``: survey B is offset by 4 tolerances in the band it shares with
survey A.  Per cap, a reference is fitted to all points at a quarter of the
tolerance from a 16 x 8 grid, with at most that many iterations, and
``deconflict`` runs against it at the tolerance.  Each cap prints one row:
the reference's elements, the band points removed, the other points kept,
the verdicts, the seconds ``deconflict`` took, and a SHA-256 digest of the
cleaned surveys and of the (element, hi, cand, verdict, rule) rows of the
verdict log.

``--json out.json`` saves the rows with every logged t and t_limit;
``--against out.json`` checks a run against such a file: equal digests,
and t and t_limit within 1e-12 relative.  The exit status is 1 when a
check fails.
"""
import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "lrbench")]

import numpy as np  # noqa: E402

from lrterrain import DeconflictConfig, FitConfig, Survey, deconflict, fit  # noqa: E402
from workloads import SurveyMerge  # noqa: E402

T_REL = 1e-12


def digest(cleaned, verdicts) -> str:
    h = hashlib.sha256()
    for s in cleaned:
        h.update(np.ascontiguousarray(s.points).tobytes())
    for d in verdicts:
        row = (d["element"], d["hi"], d["cand"], d["verdict"], d.get("rule", ""))
        h.update(("\t".join(map(str, row)) + "\n").encode())
    return h.hexdigest()


def run_cap(work: SurveyMerge, surveys, labels, cap: int) -> dict:
    tau = work.tolerance
    all_pts = np.concatenate([s.points for s in surveys])
    reference, _, _ = fit(all_pts, FitConfig(tolerance=tau / 4, max_iterations=cap,
                                             initial_grid=(16, 8)))
    t0 = time.perf_counter()
    cleaned, report = deconflict(surveys, reference, DeconflictConfig(tolerance=tau))
    seconds = time.perf_counter() - t0
    removed = kept = 0
    for s, c in zip(surveys, cleaned):
        kept_mask = np.isin(s.points[:, 0], c.points[:, 0])
        band = labels[s.name]
        removed += int((~kept_mask & band).sum())
        kept += int((kept_mask & ~band).sum())
    verdicts = report["verdicts"]
    return {"cap": cap, "elements": len(reference.mesh.elements()[0]),
            "band_removed": removed,
            "band": int(sum(b.sum() for b in labels.values())),
            "others_kept": kept,
            "others": int(sum((~b).sum() for b in labels.values())),
            "verdicts": len(verdicts), "seconds": seconds,
            "digest": digest(cleaned, verdicts),
            "t": [[d.get("t"), d.get("t_limit")] for d in verdicts]}


def _close(a, b) -> bool:
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= T_REL * max(abs(a), abs(b))


def check(row: dict, want: dict) -> list[str]:
    errs = []
    if row["digest"] != want["digest"]:
        errs.append("digest differs")
    elif not all(_close(a, b) for got, ref in zip(row["t"], want["t"])
                 for a, b in zip(got, ref)):
        errs.append(f"a t or t_limit differs by more than {T_REL:g} relative")
    return errs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scale", type=float, default=0.6,
                    help="share of the full survey sizes (the benchmark uses 0.6)")
    ap.add_argument("--caps", type=int, nargs="+", default=[2, 3, 4, 5])
    ap.add_argument("--json", type=Path, help="save the rows to this file")
    ap.add_argument("--against", type=Path, help="check the rows against this file")
    args = ap.parse_args()

    work = SurveyMerge(args.seed, smoke=False)
    work.scale = args.scale
    raw, _, labels = work.generate()
    surveys = [Survey(p, name=n, score=float(meta["score"])) for n, p, meta in raw]
    want = {}
    if args.against:
        doc = json.loads(args.against.read_text())
        if (doc["seed"], doc["scale"]) != (args.seed, args.scale):
            sys.stderr.write(f"{args.against} holds seed {doc['seed']} scale "
                             f"{doc['scale']}, not {args.seed} {args.scale}\n")
            return 2
        want = {r["cap"]: r for r in doc["rows"]}
    print("cap\telements\tband_removed\tothers_kept\tverdicts\tseconds\tdigest")
    rows, failed = [], False
    for cap in args.caps:
        row = run_cap(work, surveys, labels, cap)
        rows.append(row)
        errs = check(row, want[cap]) if cap in want else []
        failed |= bool(errs)
        print(f"{cap}\t{row['elements']}\t{row['band_removed']}/{row['band']}"
              f"\t{row['others_kept']}/{row['others']}\t{row['verdicts']}"
              f"\t{row['seconds']:.3f}\t{row['digest'][:16]}"
              + "".join(f"\tFAIL: {e}" for e in errs), flush=True)
    if args.json:
        args.json.write_text(json.dumps({"seed": args.seed, "scale": args.scale,
                                         "rows": rows}) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
