"""Benchmark driver for dlss: one workload per invocation.

    PYTHONPATH=src python3 bench/run.py --workload decay256 --seed 0 --seconds 20 --trace 0

The driver imports neither numpy nor dlss.  It starts each measurement in
a fresh worker process (``bench/worker.py``) with BLAS pinned to one
thread, collects what the workers report, prints one line per metric
with its unit, and ends with a single JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` runs ``WORKERS`` untraced workers that share the
``--seconds`` budget, each after ``SETUP_ONLY`` workers that only set up,
and reports the end-to-end metrics.  ``--trace 1``
runs one traced worker and reports the per-layer metrics.  Any worker
that cannot start (for example because ``src/dlss`` is missing) makes the
driver exit with status 1 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("decay256", "banded2048", "certify256")
DEFAULT_SEED = 0

# Untraced workers per run.
WORKERS = 4
# Set-up-only workers started before each untraced worker; setup_s is the
# median set-up time of all of them and the untraced workers.
SETUP_ONLY = 2
# Workers still running this long after the run started are killed, so
# that one run ends within 180 s.
RUN_LIMIT_S = 170.0

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(
    workload: str, seed: int, index: int, budget: float, trace: bool, deadline: float,
    setup_only: bool = False,
) -> dict:
    """Start one worker, wait for it (killing it at ``deadline``), and
    return its JSON report."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--worker", str(index),
        "--budget", repr(budget),
        "--trace", "1" if trace else "0",
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.perf_counter()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {index} did not finish within the run limit") from None
    if proc.returncode != 0:
        raise WorkerError(
            f"worker {index} exited with status {proc.returncode}:\n{proc.stderr.strip()}"
        )
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {index} printed no report")
    return json.loads(lines[-1])


def median(values: list) -> float:
    return float(statistics.median(values))


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    """Run the untraced workers; return the result object and detail lines."""
    # each worker gets an equal share of the time left, so one that overran
    # its share (it always finishes at least one operation) shortens the rest
    # set-up-only workers do not use up the budget
    start = time.perf_counter()
    deadline = start + seconds
    reports = []
    setups = []
    for i in range(WORKERS):
        for _ in range(SETUP_ONLY):
            spawned = time.perf_counter()
            setups.append(run_worker(
                workload, seed, i, 0.0, trace=False, deadline=start + RUN_LIMIT_S, setup_only=True
            ))
            deadline += time.perf_counter() - spawned
        budget = max(0.0, deadline - time.perf_counter()) / (WORKERS - i)
        reports.append(
            run_worker(workload, seed, i, budget, trace=False, deadline=start + RUN_LIMIT_S)
        )
    ops = [op for rep in reports for op in rep["ops"]]
    # an operation whose outputs fail a check still did its work, so its
    # times count; one that raised before returning outputs is not timed
    good = [op for op in ops if op["timed"]]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    if not good:
        raise WorkerError("every operation raised: " + "; ".join(op["error"] for op in ops))
    values = {
        "setup_s": median([rep["setup_s"] for rep in reports + setups]),
        "wall_s": median([op["wall_s"] for op in good]),
        "cpu_s": median([op["cpu_s"] for op in good]),
        "steps_per_s": median([op["steps_per_s"] for op in good]),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reports]),
    }
    detail = [
        f"env {json.dumps(reports[0]['env'], sort_keys=True)}",
        f"workers {WORKERS}, operations {len(ops)} "
        f"({', '.join(str(len(rep['ops'])) for rep in reports)} per worker)",
        f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})",
    ]
    detail.append(
        "unscaled medians: setup %.6g s, wall %.6g s, cpu %.6g s; speed scale median %.4g"
        % (median([rep["raw_setup_s"] for rep in reports + setups]),
           median([op["raw_wall_s"] for op in good]), median([op["raw_cpu_s"] for op in good]),
           median([op["scale"] for op in good]))
    )
    detail += [f"FAILED {op['error']}" for op in ops if not op["ok"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }
    return result, detail


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    """Run the single traced worker; it computes the per-layer metrics."""
    rep = run_worker(
        workload, seed, 0, seconds, trace=True, deadline=time.perf_counter() + RUN_LIMIT_S
    )
    detail = [f"env {json.dumps(rep['env'], sort_keys=True)}"]
    detail += rep["detail"]
    result = {
        "correct": rep["correct"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": rep["metrics"],
    }
    return result, detail


def print_result(workload: str, trace: bool, result: dict, detail: list) -> None:
    print(f"# dlss benchmark: workload {workload}, {'traced' if trace else 'untraced'}")
    for line in detail:
        print(line)
    width = max(len(name) for name in result["metrics"])
    for name, m in result["metrics"].items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=False))


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list) -> int:
    args = parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        measure = traced if args.trace else end_to_end
        try:
            result, detail = measure(name, args.seed, args.seconds)
        except WorkerError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        print_result(name, bool(args.trace), result, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
