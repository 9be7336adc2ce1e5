#!/usr/bin/env python3
"""Certify the whole catalogue of sharp functional-inequality constants.

Minimises each quotient (Poincare and log-Sobolev of orders 1..3, convex
Sobolev over a p-grid) from multiple random starts on one grid and prints
the certified value next to its closed form.  Poincare and convex p = 2
certify to rounding (~1e-13); log-Sobolev and convex p < 2 certify the
infimum over fields of amplitude 1e-3, which lies 1e-8 to 2e-7 above the
constant.
"""

import argparse
import json
import math
import time

import dlss
from dlss.inequalities import convex_sobolev, log_sobolev, poincare
from dlss.runio import write_atomic


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--L", type=float, default=2.0 * math.pi)
    parser.add_argument("--N", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--orders", default="1,2,3")
    parser.add_argument("--p-grid", default="1.2,1.5,1.8,2.0")
    parser.add_argument("--output", default=None, help="write results as JSON")
    args = parser.parse_args(argv)

    grid = dlss.make_grid(args.L, args.N)
    seeds = tuple(args.seed + i for i in range(3))
    orders = [int(n) for n in args.orders.split(",")]
    p_grid = [float(p) for p in args.p_grid.split(",")]

    catalogue = [(f"poincare n={n}", poincare(n)) for n in orders]
    catalogue += [(f"logsob   n={n}", log_sobolev(n)) for n in orders]
    catalogue += [(f"convex   p={p:g}", convex_sobolev(p)) for p in p_grid]

    header = f"{'quotient':<14} {'value':>14} {'analytic':>14} {'rel err':>10} " \
             f"{'iters':>6} {'conv':>5} {'time':>7}"
    print(f"L = {grid.length:g}, N = {grid.n_points}, seeds = {seeds}")
    print(header)
    print("-" * len(header))
    results = []
    for label, spec in catalogue:
        t0 = time.perf_counter()
        res = dlss.certify_constant(spec, grid, seeds=seeds)
        elapsed = time.perf_counter() - t0
        results.append(
            {
                "quotient": spec.kind.value,
                "n": spec.n,
                "p": spec.p,
                "value": res.value,
                "analytic": res.analytic,
                "rel_error": res.rel_error,
                "iterations": res.iterations,
                "converged": res.converged,
                "seconds": elapsed,
            }
        )
        print(
            f"{label:<14} {res.value:14.10f} {res.analytic:14.10f} "
            f"{res.rel_error:10.2e} {res.iterations:6d} {str(res.converged):>5} "
            f"{elapsed:6.2f}s"
        )

    if args.output:
        write_atomic(args.output, json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0 if all(r["converged"] for r in results) else 3


if __name__ == "__main__":
    raise SystemExit(main())
