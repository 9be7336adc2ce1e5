#!/usr/bin/env python3
"""Entropy decay-rate study.

Runs the implicit log-variable scheme from cosine data over a sweep of
initial amplitudes (and optionally time steps), fits the exponential
decay rate of the relative entropy, and tabulates the fitted rate
against the sharp bound M = 32 pi^4 / L^4.  Ratios sit at or slightly
above 1: the bound is attained by near-constant data and is not tight
for large perturbations.
"""

import argparse
import json
import math
import time

import numpy as np

import dlss
from dlss import SolverConfig
from dlss.runio import cosine_density, default_fit_window, fit_decay, write_atomic


def run_once(length, n_points, amplitude, tau, t_final, newton_tol):
    grid = dlss.make_grid(length, n_points)
    u0 = cosine_density(grid, 1.0, amplitude, 1)
    config = SolverConfig(tau=tau, newton_tol=newton_tol)
    record_every = max(1, round(1e-3 / tau))  # ~1000 samples per unit time
    t0 = time.perf_counter()
    trajectory = dlss.solve(u0, t_final, config, record_every=record_every)
    elapsed = time.perf_counter() - t0
    # one array for both fit calls, each of which would convert a list
    series = np.array([(r.t, r.entropy_rel) for r in trajectory.records])
    report = fit_decay(series, default_fit_window(series), length)
    masses = [r.mass for r in trajectory.records]
    return {
        "amplitude": amplitude,
        "tau": tau,
        "entropy_initial": trajectory.records[0].entropy_rel,
        "fitted_rate": report.fitted_rate,
        "theoretical_M": report.theoretical_M,
        "ratio": report.ratio,
        "r_squared": report.r_squared,
        "mass_drift_rel": max(abs(m - masses[0]) for m in masses) / masses[0],
        "lyapunov_ok": dlss.lyapunov_check(trajectory),
        "seconds": elapsed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--L", type=float, default=2.0 * math.pi)
    parser.add_argument("--N", type=int, default=128)
    parser.add_argument("--tau", type=float, default=2e-4)
    parser.add_argument("--t-final", type=float, default=3.0)
    parser.add_argument("--newton-tol", type=float, default=SolverConfig.newton_tol)
    parser.add_argument(
        "--amplitudes", default="0.05,0.1,0.3,0.6",
        help="comma-separated cosine amplitudes to sweep",
    )
    parser.add_argument(
        "--taus", default=None,
        help="optional comma-separated time steps; runs the whole sweep per tau",
    )
    parser.add_argument("--output", default=None, help="write results as JSON")
    args = parser.parse_args(argv)

    amplitudes = [float(a) for a in args.amplitudes.split(",")]
    taus = [float(t) for t in args.taus.split(",")] if args.taus else [args.tau]

    print(f"L = {args.L:g}, N = {args.N}, T = {args.t_final:g}, "
          f"M = {32.0 * math.pi ** 4 / args.L ** 4:g}")
    header = f"{'tau':>9} {'amp':>6} {'E(0)':>11} {'rate':>10} {'ratio':>9} " \
             f"{'r^2':>9} {'mass drift':>11} {'time':>7}"
    print(header)
    print("-" * len(header))
    results = []
    for tau in taus:
        for amplitude in amplitudes:
            row = run_once(args.L, args.N, amplitude, tau, args.t_final, args.newton_tol)
            results.append(row)
            print(
                f"{tau:9.1e} {amplitude:6.2f} {row['entropy_initial']:11.4e} "
                f"{row['fitted_rate']:10.6f} {row['ratio']:9.6f} "
                f"{row['r_squared']:9.6f} {row['mass_drift_rel']:11.2e} "
                f"{row['seconds']:6.1f}s"
            )
            if not row["lyapunov_ok"]:
                print("  warning: Lyapunov monotonicity violated on this run")

    if args.output:
        write_atomic(args.output, json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
