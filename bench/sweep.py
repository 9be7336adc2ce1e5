"""Layer sweep: per-call time of the solver's building blocks by size.

For N in ``SIZES`` and each (backend, linear solver) pair the sweep
times ``derivative`` (order 2), ``jacobian``, the LU factorisation, one
LU solve and ``report``, on a seeded random log-density.  Each entry is
the median of at least ``MIN_REPEATS`` calls, repeated until
``MIN_TOTAL_S`` of calls have been timed, and carries its repeat count
and quartiles.  The sweep runs untraced.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

SIZES = (256, 1024, 2048)
PAIRS = (("spectral", "dense"), ("fd2", "banded"), ("fd4", "banded"))
LAYERS = ("derivative", "jacobian", "factor", "solve", "report")
MIN_REPEATS = 3
MIN_TOTAL_S = 0.05
MAX_REPEATS = 2000


def _time(fn) -> dict:
    times = []
    while len(times) < MIN_REPEATS or (sum(times) < MIN_TOTAL_S and len(times) < MAX_REPEATS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {
        "median_ms": 1e3 * statistics.median(times),
        "q1_ms": 1e3 * q1,
        "q3_ms": 1e3 * q3,
        "repeats": len(times),
    }


def run(seed: int) -> dict:
    """Return ``{metric name: timing entry}`` for every sweep entry."""
    import numpy as np

    import dlss
    from dlss.linalg import CyclicBandedLU, DenseLU

    out = {}
    for n in SIZES:
        grid = dlss.make_grid(2.0 * math.pi, n)
        u = dlss.random_log_density(grid, 4, seed, amplitude=0.4)
        y = dlss.Field(grid, np.log(u.values), dlss.FieldKind.LOG_DENSITY)
        rhs = np.cos(grid.nodes)
        for backend_name, solver_name in PAIRS:
            backend = dlss.DiffBackend.from_name(backend_name)
            config = dlss.SolverConfig(
                tau=1e-2, backend=backend, linear_solver=dlss.LinearSolver(solver_name)
            )
            dlss.diff_matrix(grid, 2, backend)
            jac = dlss.jacobian(y, config)
            if solver_name == "dense":
                def factor():
                    return DenseLU(jac)
            else:
                def factor():
                    return CyclicBandedLU(jac, backend.order)
            lu = factor()
            timed = {
                "derivative": lambda: dlss.derivative(y, 2, backend),
                "jacobian": lambda: dlss.jacobian(y, config),
                "factor": factor,
                "solve": lambda: lu.solve(rhs),
                "report": lambda: dlss.report(u, backend),
            }
            for layer in LAYERS:
                out[f"sweep.{layer}.{backend_name}.N{n}_ms"] = _time(timed[layer])
            del jac, lu
    return out
