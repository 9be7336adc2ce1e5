"""Smoke runs of the experiment scripts on small grids."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certify_all(tmp_path):
    out = tmp_path / "certs.json"
    argv = ["--N", "32", "--orders", "1", "--p-grid", "1.5,2.0", "--output", str(out)]
    assert load_script("certify_all").main(argv) == 0
    rows = json.loads(out.read_text())
    assert [row["quotient"] for row in rows] == ["poincare", "logsob", "convex", "convex"]
    for row in rows:
        assert row["converged"]
        assert row["rel_error"] < 2e-2, row


def test_decay_study(tmp_path):
    out = tmp_path / "decay.json"
    argv = ["--N", "32", "--t-final", "0.3", "--tau", "1e-3", "--amplitudes", "0.1",
            "--output", str(out)]
    assert load_script("decay_study").main(argv) == 0
    (row,) = json.loads(out.read_text())
    assert row["lyapunov_ok"]
    assert 1.0 <= row["ratio"] <= 1.15, row
