"""The benchmark's own checks, run on the library as it stands.

``bench/worker.py`` checks every operation it times against the
acceptance bounds and, for operation 0, against ``bench/reference.json``.
Here operations 0 and 1 of each workload run once, untimed, with those
checks: a change that breaks a workload fails here, not only in a run of
``bench/run.py``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_first_two_operations_pass_their_checks(name, tmp_path, monkeypatch):
    # decay256 writes its CSV round trip under OUT_DIR
    monkeypatch.setattr(worker, "OUT_DIR", tmp_path)
    workload = worker.WORKLOADS[name](0, 0)
    # operation 0 is the input of the reference, so it is compared too
    assert workload.reference["seed"] == workload.seeds[0]
    checker = worker.Checker()
    try:
        for i in (0, 1):
            worker.timed_op(workload, i, checker, calibrate=False)
    finally:
        workload.close()
    assert checker.failures == []
    assert checker.failed == 0 and checker.attempted == 2 * (9 if name == "certify256" else 1)
