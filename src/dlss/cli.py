"""Command line front end.

Subcommands: solve, certify, heatflow, fit, identity.  Reports go to
stdout as JSON with sorted keys so identical inputs give byte-identical
output.  Exit codes: 0 success, 2 configuration or usage error,
3 numerical failure (for certify, also a value below the sharp constant).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import DlssError, ParseError, ValidationError
from .grid import DiffBackend, make_grid
from .inequalities import QuotientKind, QuotientSpec, certify_constant, heatflow_verify
from .runio import (
    _NAME_OF,
    _fit_pairs,
    cosine_density,
    default_fit_window,
    emit_timeseries,
    fit_decay,
    identity_suite,
    parse_config,
    read_timeseries,
    write_atomic,
)
from .solver import lyapunov_check, solve

# ValidationError is a ValueError, like the library's other argument checks;
# every other DlssError is a numerical failure.
_USAGE_ERRORS = (ParseError, ValueError, OSError)

# A certified value below the sharp constant contradicts the inequality;
# this much relative slack is left for rounding.
_BELOW_CONSTANT_SLACK = 1e-12

def _emit_json(payload: dict, output: str | None) -> None:
    # strict JSON: a NaN or infinity raises ValueError instead of printing
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    sys.stdout.write(text)
    if output:
        write_atomic(output, text)


def _cmd_solve(args) -> int:
    with open(args.config, "r") as handle:
        cfg = parse_config(handle.read())
    trajectory = solve(cfg.u0, cfg.t_final, cfg.solver_config, record_every=cfg.record_every)
    if cfg.output:
        emit_timeseries(trajectory, cfg.output)
    first, last = trajectory.records[0], trajectory.records[-1]
    payload = {
        "command": "solve",
        "t_final": last.t,
        "n_records": len(trajectory.records),
        "mass_initial": first.mass,
        "mass_drift_rel": abs(last.mass - first.mass) / abs(first.mass),
        "entropy_initial": first.entropy_rel,
        "entropy_final": last.entropy_rel,
        "min_u_final": last.min_u,
        "lyapunov_ok": lyapunov_check(trajectory),
        "clamped_nodes": trajectory.clamped_nodes,
        "output": cfg.output,
    }
    _emit_json(payload, None)
    return 0


def _cmd_certify(args) -> int:
    kind = QuotientKind(args.kind)
    if kind is QuotientKind.CONVEX_SOBOLEV:
        if args.p is None:
            raise ValidationError("p", "required for kind 'convex'")
        spec = QuotientSpec(kind, p=args.p)
    else:
        spec = QuotientSpec(kind, n=args.n)
    grid = make_grid(args.L, args.N)
    result = certify_constant(spec, grid, seeds=tuple(args.seed + i for i in range(3)))
    payload = {
        "kind": args.kind,
        "L": grid.length,
        "N": grid.n_points,
        "value": result.value,
        "analytic": result.analytic,
        "rel_error": result.rel_error,
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
    }
    if kind is QuotientKind.CONVEX_SOBOLEV:
        payload["p"] = args.p
    else:
        payload["n"] = args.n
    _emit_json(payload, args.output)
    sound = result.value >= result.analytic * (1.0 - _BELOW_CONSTANT_SLACK)
    return 0 if result.converged and sound else 3


def _cmd_heatflow(args) -> int:
    grid = make_grid(args.L, args.N)
    u = cosine_density(grid, args.base, args.amplitude, args.mode)
    if 2 * args.mode == grid.n_points:
        # the spectral first derivative zeroes the Nyquist coefficient, so
        # this datum has w_x = 0 and f(0) < 0: there is no decay to certify
        raise ValidationError(
            "mode", f"the heat-flow route excludes the Nyquist mode N/2 = {args.mode}"
        )
    flow = heatflow_verify(u, args.p, args.T, args.dt)
    f = flow.f_value
    max_increase = float(np.diff(f).max())  # a lattice has one step at least
    monotone = max_increase <= 1e-10
    payload = {
        "kind": "heatflow",
        "p": args.p,
        "L": grid.length,
        "N": grid.n_points,
        "T": args.T,
        "dt": args.dt,
        "f_initial": float(f[0]),
        "f_final": float(f[-1]),
        "max_step_increase": max_increase,
        "monotone": monotone,
        "production_integral": float(np.trapezoid(flow.dissipation, flow.t)),
        "n_records": len(flow),
    }
    _emit_json(payload, args.output)
    return 0 if monotone else 3


def _cmd_fit(args) -> int:
    for name in ("t_lo", "t_hi"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise ValidationError(name, f"must be finite, got {value!r}")
    if args.t_lo is not None and args.t_hi is not None and args.t_lo >= args.t_hi:
        raise ValidationError("t_hi", f"must exceed t_lo = {args.t_lo!r}, got {args.t_hi!r}")
    records = read_timeseries(args.input)
    series = _fit_pairs([(r.t, r.entropy_rel) for r in records])  # none: InsufficientData
    if args.t_lo is not None or args.t_hi is not None:
        lo = args.t_lo if args.t_lo is not None else series[0, 0]
        hi = args.t_hi if args.t_hi is not None else series[-1, 0]
        window = (lo, hi)
    else:
        window = default_fit_window(series)
    report = fit_decay(series, window, args.L)
    payload = {
        "kind": "fit",
        "input": args.input,
        "L": args.L,
        "fitted_rate": report.fitted_rate,
        "theoretical_M": report.theoretical_M,
        "ratio": report.ratio,
        "fit_window": list(report.fit_window),
        "r_squared": report.r_squared,
        "n_samples": len(series),
    }
    _emit_json(payload, args.output)
    return 0


def _cmd_identity(args) -> int:
    options = {k: v for k, v in vars(args).items() if k in ("trials", "seed", "backend", "n_modes")}
    if "backend" in options:
        options["backend"] = DiffBackend.from_name(options["backend"])
    result = identity_suite(make_grid(args.L, args.N), **options)
    _emit_json(result, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlss",
        description="Entropy-dissipating solver and sharp-constant certification "
        "for the periodic fourth-order quantum diffusion equation.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_solve = sub.add_parser("solve", help="run the time stepper from a config file")
    p_solve.add_argument("--config", required=True, help="path to a key = value run file")
    p_solve.set_defaults(func=_cmd_solve)

    p_cert = sub.add_parser("certify", help="minimise an inequality quotient")
    p_cert.add_argument("--kind", required=True, choices=sorted(k.value for k in QuotientKind))
    p_cert.add_argument("--n", type=int, default=1, help="derivative order (poincare/logsob)")
    p_cert.add_argument("--p", type=float, default=None, help="convexity exponent (convex)")
    p_cert.add_argument("--L", type=float, required=True)
    p_cert.add_argument("--N", type=int, required=True)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--output", default=None, help="also write the JSON report here")
    p_cert.set_defaults(func=_cmd_certify)

    p_heat = sub.add_parser("heatflow", help="monotonicity run of the flow functional")
    p_heat.add_argument("--L", type=float, required=True)
    p_heat.add_argument("--N", type=int, required=True)
    p_heat.add_argument("--p", type=float, required=True)
    p_heat.add_argument("--T", type=float, required=True)
    p_heat.add_argument("--dt", type=float, required=True)
    p_heat.add_argument("--base", type=float, default=1.0)
    p_heat.add_argument("--amplitude", type=float, default=0.5)
    p_heat.add_argument("--mode", type=int, default=1)
    p_heat.add_argument("--output", default=None)
    p_heat.set_defaults(func=_cmd_heatflow)

    p_fit = sub.add_parser("fit", help="fit the entropy decay rate of a time series")
    p_fit.add_argument("--input", required=True, help="CSV written by the solve command")
    p_fit.add_argument("--L", type=float, required=True)
    p_fit.add_argument("--t-lo", type=float, default=None)
    p_fit.add_argument("--t-hi", type=float, default=None)
    p_fit.add_argument("--output", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    # options left out are not passed, so identity_suite holds their defaults
    p_id = sub.add_parser("identity", help="randomised integral identity checks", argument_default=argparse.SUPPRESS)
    p_id.add_argument("--trials", type=int)
    p_id.add_argument("--seed", type=int)
    p_id.add_argument("--L", type=float, default=2.0 * math.pi)
    p_id.add_argument("--N", type=int, default=256)
    p_id.add_argument("--backend", choices=list(DiffBackend.__members__))
    p_id.add_argument("--n-modes", type=int)
    p_id.add_argument("--output", default=None)
    p_id.set_defaults(func=_cmd_identity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        # named by what the user wrote: the option, or the run-file key
        print(f"error: {_NAME_OF.get(exc.field, exc.field)}: {exc.reason}", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DlssError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
