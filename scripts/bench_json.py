#!/usr/bin/env python3
"""Run the benchmark named in BENCHMARK.json and save every run to one file.

    python3 scripts/bench_json.py --label after --seeds 11 12 --trace 0 1

Each run is the BENCHMARK.json command on every workload with
``--workload``, ``--seed``, ``--seconds`` (its ``run_seconds``) and
``--trace``, started in the checkout given by ``--root`` (default: the one
holding this script).  The output, ``BENCH_<label>.json`` in this script's
checkout, holds the git revision of that root, the seeds, the machine, and
per run its start time and its last output line parsed as JSON.

If that file exists, the new runs are appended to it; it must then hold
the same revision.  So a before/after pair can be measured in alternation,
which keeps machine drift out of the comparison:

    for i in 1 2 3; do
        python3 scripts/bench_json.py --label before --root ../parent --seeds 12
        python3 scripts/bench_json.py --label after --seeds 12
    done
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output file")
    ap.add_argument("--seeds", type=int, nargs="+", default=[11])
    ap.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    ap.add_argument("--root", type=Path, default=HERE, help="checkout to measure")
    args = ap.parse_args()

    bench = json.loads((args.root / "BENCHMARK.json").read_text())
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=args.root, check=True,
                         capture_output=True, text=True).stdout.strip()
    path = HERE / f"BENCH_{args.label}.json"
    doc = {
        "revision": rev,
        "seeds": [],
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "runs": [],
    }
    if path.exists():
        doc = json.loads(path.read_text())
        if doc["revision"] != rev:
            sys.stderr.write(f"{path} holds runs of {doc['revision']}, not {rev}\n")
            return 2
    for seed in args.seeds:
        for trace in args.trace:
            for w in bench["workloads"]:
                name = w["name"]
                started = datetime.now(timezone.utc).isoformat(timespec="seconds")
                cmd = bench["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
                out = subprocess.run(cmd, cwd=args.root, capture_output=True, text=True)
                if out.returncode != 0:
                    sys.stderr.write(out.stderr)
                    return out.returncode
                last = json.loads(out.stdout.strip().splitlines()[-1])
                doc["runs"].append({"workload": name, "seed": seed, "trace": trace,
                                    "started": started, "result": last})
                print(f"{name} seed {seed} trace {trace}: correct {last['correct']}",
                      flush=True)
    doc["seeds"] = sorted({r["seed"] for r in doc["runs"]})
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
