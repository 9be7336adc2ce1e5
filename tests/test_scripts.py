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
    # the default catalogue: orders 1, 2, 3 and p = 1.2, 1.5, 1.8, 2.0
    argv = ["--N", "32", "--output", str(out)]
    assert load_script("certify_all").main(argv) == 0
    rows = json.loads(out.read_text())
    assert [row["quotient"] for row in rows] == ["poincare"] * 3 + ["logsob"] * 3 + ["convex"] * 4
    for row in rows:
        assert row["converged"]
        assert row["rel_error"] < 1e-6, row


# scripts/certify_all.py --N 64, every JSON field but ``seconds``: a change
# that moves a certificate on purpose restates its row here
CERTIFY_ALL_N64 = [
    # quotient, n, p, value, analytic, rel_error, iterations, converged
    ("poincare", 1, 2.0, 0.9999999999999996, 1.0, 4.440892098500626e-16, 7, True),
    ("poincare", 2, 2.0, 0.9999999999999998, 1.0, 2.220446049250313e-16, 7, True),
    ("poincare", 3, 2.0, 0.9999999999999996, 1.0, 4.440892098500626e-16, 7, True),
    ("logsob", 1, 2.0, 0.5000000833203746, 0.5, 1.6664074919958693e-07, 9, True),
    ("logsob", 2, 2.0, 0.5000000916646231, 0.5, 1.8332924622832536e-07, 8, True),
    ("logsob", 3, 2.0, 0.5000000932542626, 0.5, 1.8650852529056294e-07, 7, True),
    ("convex", 1, 1.2, 2.0000000733156464, 2.0, 3.665782322137545e-08, 9, True),
    ("convex", 1, 1.5, 2.000000052075838, 2.0, 2.6037918932075854e-08, 9, True),
    ("convex", 1, 1.8, 2.0000000233321247, 2.0, 1.166606233837797e-08, 9, True),
    ("convex", 1, 2.0, 1.999999999999664, 2.0, 1.6797674362578618e-13, 9, True),
]


def test_certify_all_output_is_pinned(tmp_path):
    out = tmp_path / "certs.json"
    assert load_script("certify_all").main(["--N", "64", "--output", str(out)]) == 0
    rows = json.loads(out.read_text())
    for row in rows:
        assert row.pop("seconds") >= 0.0
    keys = ("quotient", "n", "p", "value", "analytic", "rel_error", "iterations", "converged")
    assert rows == [dict(zip(keys, pin)) for pin in CERTIFY_ALL_N64]


def test_decay_study(tmp_path):
    out = tmp_path / "decay.json"
    argv = ["--N", "32", "--t-final", "0.3", "--tau", "1e-3", "--amplitudes", "0.1",
            "--output", str(out)]
    assert load_script("decay_study").main(argv) == 0
    (row,) = json.loads(out.read_text())
    assert row["lyapunov_ok"]
    assert 1.0 <= row["ratio"] <= 1.15, row
