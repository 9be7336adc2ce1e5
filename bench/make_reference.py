"""Regenerate bench/reference.json from the current program.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py

Stores, for the default seed's first operation of each workload, the
final density of the solve workloads (every ``stride``-th node) and the
remainder ``R`` of certify256.  The workers compare against these within
the tolerances stated in ``worker.py``; run this only when a change of
results is intended.
"""

import json

import numpy as np

import run
import worker


def main() -> None:
    with open(worker.REFERENCE_PATH, "w") as handle:
        json.dump({name: None for name in worker.WORKLOADS}, handle)
    reference = {}
    for name, stride in (("decay256", 1), ("banded2048", 16)):
        workload = worker.WORKLOADS[name](run.DEFAULT_SEED, 0)
        out = workload.op(0, worker.SpeedClock(workload.CALIBRATION, False))
        workload.close()
        u = np.exp(out["traj"].final_y.values)[::stride]
        reference[name] = {"seed": workload.seeds[0], "stride": stride, "u": u.tolist()}
    workload = worker.Certify256(run.DEFAULT_SEED, 0)
    out = workload.op(0, worker.SpeedClock(workload.CALIBRATION, False))
    reference["certify256"] = {"seed": workload.seeds[0], "R": out["R"]}
    with open(worker.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
