#!/usr/bin/env python3
"""Fit the synthetic benchmark terrain and print the iteration table.

After the fit it prints the wall time of ``evaluate`` over the input
points at orders 0 and 2; the peak RSS it prints is taken before that.
"""
import argparse
import resource
import time

from lrterrain import FitConfig, evaluate, fit, write_surface_binary
from lrterrain.benchmark import benchmark_points
from lrterrain.evaluate import distance_field


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-n", type=int, default=100_000, help="point count")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--max-iter", type=int, default=7)
    ap.add_argument("--tolerance-scale", type=float, default=1.0,
                    help="multiple of the default tolerance (0.5%% of range)")
    ap.add_argument("-o", "--output", help="write the surface here")
    args = ap.parse_args()

    pts, tau = benchmark_points(args.n, seed=args.seed)
    tau *= args.tolerance_scale
    print(f"{args.n} points, tolerance {tau:.4g}")
    t0 = time.perf_counter()
    surface, reports, flags = fit(pts, FitConfig(tolerance=tau,
                                                 max_iterations=args.max_iter))
    dt = time.perf_counter() - t0
    # ru_maxrss is in kB on Linux; the peak includes making the input points
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(reports[0].header())
    for r in reports:
        print(r.row())
    fld = distance_field(surface, pts, tau)
    status = "converged" if flags["converged"] else "not converged"
    print(f"{status} after {flags['iterations']} iterations; "
          f"{len(surface)} coefficients, "
          f"{int((fld['status'] != 0).sum())} points out of tolerance")
    print(f"fit wall {dt:.2f} s, peak RSS {peak_mb:.1f} MB")
    walls = []
    for order in (0, 2):
        t0 = time.perf_counter()
        evaluate(surface, pts[:, 0], pts[:, 1], order=order)
        walls.append(f"order {order} {time.perf_counter() - t0:.3f} s")
    print(f"evaluate at {args.n} points: {', '.join(walls)}")
    if args.output:
        write_surface_binary(surface, args.output)
        print(f"surface written to {args.output}")


if __name__ == "__main__":
    main()
