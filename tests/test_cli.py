import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import SMALL_OFF_LATTICE

import dlss
from dlss import cli, errors
from dlss.cli import main
from dlss.runio import TIMESERIES_HEADER, read_timeseries

TWO_PI = 2.0 * math.pi
README = Path(__file__).resolve().parents[1] / "README.md"
GRID256 = ["--L", repr(TWO_PI), "--N", "256"]


def readme_run_file(**changes):
    """The README's run file with the given keys set to new values."""
    text = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.DOTALL)[0]
    for key, value in changes.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1, key
    return text


def reject_constant(name):
    raise AssertionError(f"stdout is not strict JSON: {name}")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    if captured.out:
        # every command prints strict JSON or nothing: no NaN or Infinity
        json.loads(captured.out, parse_constant=reject_constant)
    return code, captured.out, captured.err


def write_solve_config(path, output, extra=""):
    path.write_text(
        "[run]\n"
        "command = solve\n"
        f"L = {TWO_PI!r}\n"
        "N = 64\n"
        "T = 0.01          # ten steps\n"
        "tau = 0.001\n"
        "newton_tol = 1e-10\n"
        f"output = {output}\n" + extra
    )


class TestSolve:
    @pytest.mark.parametrize(
        "extra", ["", "backend = fd4\nlinear_solver = banded\n"], ids=["spectral", "fd4-banded"]
    )
    def test_happy_path_writes_csv_and_summary(self, tmp_path, capsys, extra):
        config = tmp_path / "run.cfg"
        csv_path = tmp_path / "out.csv"
        write_solve_config(config, csv_path, extra)
        code, out, err = run_cli(capsys, ["solve", "--config", str(config)])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["command"] == "solve"
        assert payload["n_records"] == 11
        assert payload["lyapunov_ok"] is True
        assert payload["mass_drift_rel"] < 1e-10
        assert payload["entropy_final"] < payload["entropy_initial"]
        assert payload["min_u_final"] > 0.0
        records = read_timeseries(str(csv_path))
        assert len(records) == 11
        assert csv_path.read_text().splitlines()[0] == TIMESERIES_HEADER

    def test_deterministic_output(self, tmp_path, package_env):
        # two processes on one OpenBLAS thread: JSON and CSV byte for byte
        config = tmp_path / "run.cfg"
        csv_path = tmp_path / "out.csv"
        write_solve_config(config, csv_path)
        runs = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, "-m", "dlss.cli", "solve", "--config", str(config)],
                capture_output=True, env={**package_env, "OPENBLAS_NUM_THREADS": "1"},
            )
            assert out.returncode == 0, out.stderr
            runs.append((out.stdout, csv_path.read_bytes()))
        assert runs[0] == runs[1]

    def test_omitted_newton_tol_converges_at_n256(self, tmp_path, capsys):
        # the run gets SolverConfig's newton_tol = 1e-8, above the N = 256 floor
        config = tmp_path / "run.cfg"
        config.write_text(
            f"command = solve\nL = {TWO_PI!r}\nN = 256\nT = 0.0002\ntau = 1e-4\n"
            "u0_amplitude = 0.1\n"
        )
        code, out, err = run_cli(capsys, ["solve", "--config", str(config)])
        assert code == 0, err
        assert json.loads(out)["n_records"] == 3

    @pytest.mark.parametrize("n_points", [512, 1024])
    @pytest.mark.parametrize("amplitude", [0.1, 0.5])
    def test_omitted_newton_tol_converges_above_n256(self, tmp_path, capsys, n_points, amplitude):
        # five steps from 1 + a cos x; on all N points the residual stalled
        # above newton_tol = 1e-8, the coarse grid the steps run on is below
        config = tmp_path / "run.cfg"
        config.write_text(
            f"command = solve\nL = {TWO_PI!r}\nN = {n_points}\nT = 0.0005\ntau = 1e-4\n"
            f"u0_amplitude = {amplitude}\n"
        )
        code, out, err = run_cli(capsys, ["solve", "--config", str(config)])
        assert code == 0, err
        assert json.loads(out)["n_records"] == 6

    @pytest.mark.parametrize("kind", ["file", "constant", "cosine"])
    def test_datum_below_floor_is_usage_error(self, tmp_path, capsys, kind):
        # 1e-310 and 1e-301 are positive but below the positivity floor: the
        # run file is rejected (exit 2), not left to fail as a numerical error
        # (exit 3)
        if kind == "file":
            vals = np.ones(64)
            vals[17] = 1e-310
            np.savetxt(tmp_path / "u0.txt", vals)
            key, extra = "u0_path", f"u0 = file\nu0_path = {tmp_path / 'u0.txt'}\n"
        elif kind == "constant":
            key, extra = "u0_value", "u0 = constant\nu0_value = 1e-310\n"
        else:
            key, extra = "u0_base", "u0 = cosine\nu0_base = 1e-301\nu0_amplitude = 0\n"
        config = tmp_path / "run.cfg"
        write_solve_config(config, tmp_path / "out.csv", extra)
        code, _, err = run_cli(capsys, ["solve", "--config", str(config)])
        assert code == 2
        assert err.startswith(f"error: {key}: ")

    def test_infinite_newton_tol_is_usage_error(self, tmp_path, capsys):
        # Newton would never iterate, and the datum would be reported as the solution
        config = tmp_path / "run.cfg"
        config.write_text(
            f"command = solve\nL = {TWO_PI!r}\nN = 64\nT = 0.01\ntau = 1e-3\nnewton_tol = inf\n"
        )
        code, out, err = run_cli(capsys, ["solve", "--config", str(config)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: newton_tol: ")

    def test_missing_datum_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        extra = f"u0 = file\nu0_path = {tmp_path / 'absent.txt'}\n"
        write_solve_config(config, tmp_path / "out.csv", extra)
        code, _, err = run_cli(capsys, ["solve", "--config", str(config)])
        assert code == 2
        assert err.startswith("error: u0_path: cannot read ")
        assert not (tmp_path / "out.csv").exists()

    def test_missing_output_directory_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran")

        monkeypatch.setattr(cli, "solve", no_solve)
        config = tmp_path / "run.cfg"
        write_solve_config(config, tmp_path / "absent" / "out.csv")
        code, out, err = run_cli(capsys, ["solve", "--config", str(config)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: output: ")
        assert str(tmp_path / "absent" / "out.csv") in err
        assert not (tmp_path / "absent").exists()

    def test_directory_output_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran")

        monkeypatch.setattr(cli, "solve", no_solve)
        config = tmp_path / "run.cfg"
        write_solve_config(config, tmp_path)
        code, out, err = run_cli(capsys, ["solve", "--config", str(config)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: output: ")
        assert "is a directory" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["solve", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "error:" in err

    def test_unknown_key_reports_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("command = solve\nL = 6.28\nN = 64\nwarp = 9\n")
        code, _, err = run_cli(capsys, ["solve", "--config", str(config)])
        assert code == 2
        assert "line 4" in err

    def test_wrong_command_in_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("command = identity\nL = 6.28\nN = 64\n")
        code, _, err = run_cli(capsys, ["solve", "--config", str(config)])
        assert code == 2
        assert err.startswith("error: command: ")

    @pytest.mark.parametrize(
        "line", ["epsilon = 0", "renormalize_mass = true", "max_newton = 5"]
    )
    def test_removed_scheme_key_exits_2(self, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        write_solve_config(config, tmp_path / "out.csv", line + "\n")
        code, _, err = run_cli(capsys, ["solve", "--config", str(config)])
        assert code == 2
        assert "line 9" in err and "unknown key" in err
        assert not (tmp_path / "out.csv").exists()

    def test_diverging_run_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dlss.solver._MAX_NEWTON", 1)
        config = tmp_path / "run.cfg"
        config.write_text(
            "command = solve\n"
            f"L = {TWO_PI!r}\n"
            "N = 64\n"
            "T = 0.05\n"
            "tau = 0.05\n"
            "newton_tol = 1e-9\n"
            "u0_amplitude = 0.8\n"
        )
        code, _, err = run_cli(capsys, ["solve", "--config", str(config)])
        assert code == 3
        assert "numerical failure" in err

    @pytest.mark.parametrize(
        "changes, reason",
        [
            (dict(T=0), "must be positive and finite, got 0.0"),
            (dict(T=0.0105, tau=0.001), "0.0105 is not an integer multiple of tau = 0.001"),
            *(
                (dict(T=t, tau=tau), f"{t!r} is not an integer multiple of tau = {tau!r}")
                for t, tau in SMALL_OFF_LATTICE
            ),
        ],
    )
    def test_rejected_horizon_is_named_by_its_key(self, tmp_path, monkeypatch, capsys, changes, reason):
        # the run file has no key t_final: a bad T is named T, before any step runs
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(readme_run_file(**changes))
        code, out, err = run_cli(capsys, ["solve", "--config", "run.cfg"])
        assert (code, out, err) == (2, "", f"error: T: {reason}\n")
        assert not (tmp_path / "run.csv").exists()


class TestCertify:
    def test_readme_command_output(self, capsys):
        # the README's three certify commands, as they stand there, print
        # these bits
        commands = re.findall(r"^dlss (certify .*)$", README.read_text(), flags=re.M)
        assert len(commands) == 3
        payloads = []
        for command in commands:
            code, out, _ = run_cli(capsys, command.split())
            assert code == 0
            payloads.append(json.loads(out))
        assert payloads == [
            {
                "L": 6.283185307179586,
                "N": 256,
                "analytic": 1.0,
                "converged": True,
                "iterations": 8,
                "kind": "poincare",
                "n": 1,
                "rel_error": 2.220446049250313e-16,
                "residual": 1.8590853388465196e-12,
                "value": 0.9999999999999998,
            },
            {
                "L": 6.283185307179586,
                "N": 256,
                "analytic": 0.5,
                "converged": True,
                "iterations": 8,
                "kind": "logsob",
                "n": 2,
                "rel_error": 1.8332927220754414e-07,
                "residual": 2.9206771361548502e-05,
                "value": 0.5000000916646361,
            },
            {
                "L": 6.283185307179586,
                "N": 256,
                "analytic": 2.0,
                "converged": True,
                "iterations": 9,
                "kind": "convex",
                "p": 1.5,
                "rel_error": 2.60375738747598e-08,
                "residual": 1.6553832154738515e-05,
                "value": 2.0000000520751477,
            },
        ]

    def test_poincare_certificate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["certify", "--kind", "poincare", "--n", "1", "--L", str(TWO_PI), "--N", "64"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["analytic"] == pytest.approx(1.0)
        assert payload["rel_error"] < 1e-8
        assert payload["converged"] is True
        assert payload["n"] == 1

    def test_convex_requires_p(self, capsys):
        code, _, err = run_cli(
            capsys, ["certify", "--kind", "convex", "--L", str(TWO_PI), "--N", "64"]
        )
        assert code == 2
        assert "p" in err

    def test_convex_with_p(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["certify", "--kind", "convex", "--p", "2.0", "--L", str(TWO_PI), "--N", "64"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 2.0
        assert payload["analytic"] == pytest.approx(2.0)
        assert payload["rel_error"] < 1e-8

    def test_exhausted_budget_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr("dlss.inequalities._MAX_ITERS", 2)
        code, out, _ = run_cli(
            capsys,
            ["certify", "--kind", "logsob", "--n", "1", "--L", str(TWO_PI), "--N", "64"],
        )
        assert code == 3
        assert json.loads(out)["converged"] is False

    def test_value_below_constant_exits_3(self, capsys, monkeypatch):
        # a converged descent that lands below the sharp constant has
        # certified a value the inequality forbids
        certify = cli.certify_constant

        def below(*args, **kwargs):
            result = certify(*args, **kwargs)
            return replace(result, value=result.analytic * (1.0 - 1e-9))

        monkeypatch.setattr(cli, "certify_constant", below)
        code, out, _ = run_cli(
            capsys,
            ["certify", "--kind", "poincare", "--n", "1", "--L", str(TWO_PI), "--N", "64"],
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["value"] < payload["analytic"]

    def test_output_file(self, tmp_path, capsys):
        report = tmp_path / "cert.json"
        code, out, _ = run_cli(
            capsys,
            [
                "certify", "--kind", "poincare", "--L", str(TWO_PI), "--N", "64",
                "--output", str(report),
            ],
        )
        assert code == 0
        assert json.loads(report.read_text()) == json.loads(out)


class TestHeatflow:
    def test_readme_command_output(self, capsys):
        # the README's heatflow command, as it stands there, prints these
        # bits: f and the production formed from the states' deviations
        # from their mean (long double: f_final 2.929e-19, and f falls at
        # every step, against 2.888e-19 and a largest rise of 9.6e-21 here)
        command = re.findall(r"^dlss (heatflow .*)$", README.read_text(), flags=re.M)
        assert len(command) == 1
        code, out, _ = run_cli(capsys, command[0].split())
        assert code == 0
        assert json.loads(out) == {
            "L": 6.283185307179586,
            "N": 256,
            "T": 10.0,
            "dt": 0.001,
            "f_final": 2.887766100580812e-19,
            "f_initial": 0.03640845417842953,
            "kind": "heatflow",
            "max_step_increase": 9.611011537253629e-21,
            "monotone": True,
            "n_records": 10001,
            "p": 1.0,
            "production_integral": 0.03640849758659721,
        }

    def test_monotone_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "heatflow", "--L", str(TWO_PI), "--N", "64", "--p", "1.0",
                "--T", "1.0", "--dt", "0.001",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["monotone"] is True
        assert payload["n_records"] == 1001  # every lattice time, t = 0 included
        assert payload["max_step_increase"] <= 1e-10
        assert payload["f_final"] < payload["f_initial"]
        assert payload["production_integral"] == pytest.approx(
            payload["f_initial"] - payload["f_final"], rel=1e-3
        )

    @pytest.mark.parametrize("base,amplitude", [("1000", "900"), ("1e6", "9e5")])
    def test_large_datum_is_monotone(self, capsys, base, amplitude):
        # f(0) is 2e7 or 2e13: sigma's rounding must not read as a rise of f
        code, out, _ = run_cli(
            capsys,
            [
                "heatflow", "--L", str(TWO_PI), "--N", "64", "--p", "1.5", "--T", "2",
                "--dt", "1e-3", "--base", base, "--amplitude", amplitude, "--mode", "3",
            ],
        )
        assert code == 0
        assert json.loads(out)["monotone"] is True

    def test_small_datum_has_positive_f(self, capsys):
        # f(0) is 1.5e-21; a cancelling sigma made it -2.6e-17, the wrong sign
        code, out, _ = run_cli(
            capsys,
            [
                "heatflow", "--L", str(TWO_PI), "--N", "64", "--p", "1.5", "--T", "2",
                "--dt", "1e-3", "--amplitude", "1e-5",
            ],
        )
        assert code == 0
        assert json.loads(out)["f_initial"] > 0.0

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--amplitude", "1.5"), ("--base", "0"), ("--mode", "-1"), ("--mode", "33"),
            ("--mode", "32"),
        ],
    )
    def test_cosine_datum_validation(self, capsys, flag, value):
        # the rules of a run file's u0_* keys, and no Nyquist mode N/2: the
        # heat-flow route cannot certify it
        code, _, err = run_cli(
            capsys,
            [
                "heatflow", "--L", str(TWO_PI), "--N", "64", "--p", "1.0",
                "--T", "1.0", "--dt", "0.001", flag, value,
            ],
        )
        assert code == 2
        assert err.startswith(f"error: {flag[2:]}:")

    @pytest.mark.parametrize(
        "p,base,amplitude,what",
        [("1", "1e300", "5e299", "datum v0"), ("2", "1e200", "5e199", "f along")],
    )
    def test_overflowing_datum_is_usage_error(self, capsys, p, base, amplitude, what):
        # v0 = u^2 overflows at p = 1; at p = 2 f overflows along the flow
        code, out, err = run_cli(
            capsys,
            [
                "heatflow", "--L", str(TWO_PI), "--N", "32", "--p", p, "--T", "0.1",
                "--dt", "1e-3", "--base", base, "--amplitude", amplitude,
            ],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert what in err and "must be finite" in err

    def test_bad_p_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys,
            [
                "heatflow", "--L", str(TWO_PI), "--N", "64", "--p", "3.0",
                "--T", "1.0", "--dt", "0.001",
            ],
        )
        assert code == 2

    def test_zero_dt_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "heatflow", "--L", str(TWO_PI), "--N", "64", "--p", "1.0",
                "--T", "1.0", "--dt", "0",
            ],
        )
        assert code == 2
        assert "dt" in err


class TestFit:
    @pytest.fixture()
    def csv_file(self, tmp_path):
        t = np.linspace(0.0, 5.0, 201)
        e = 0.01 * np.exp(-2.0 * t)
        lines = [TIMESERIES_HEADER]
        for ti, ei in zip(t, e):
            lines.append(f"{ti:.17g},6.28,{ei:.17g},10,0,1,2")
        path = tmp_path / "series.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_fit_recovers_rate(self, csv_file, capsys):
        code, out, _ = run_cli(capsys, ["fit", "--input", str(csv_file), "--L", str(TWO_PI)])
        assert code == 0
        payload = json.loads(out)
        assert payload["fitted_rate"] == pytest.approx(2.0, rel=1e-10)
        assert payload["theoretical_M"] == pytest.approx(2.0)
        assert payload["ratio"] == pytest.approx(1.0, rel=1e-10)

    def test_explicit_window(self, csv_file, capsys):
        code, out, _ = run_cli(
            capsys,
            ["fit", "--input", str(csv_file), "--L", str(TWO_PI), "--t-lo", "1", "--t-hi", "4"],
        )
        assert code == 0
        assert json.loads(out)["fit_window"] == [1.0, 4.0]

    @pytest.mark.parametrize(
        "header_only,window",
        [
            (False, ["--t-lo", "4.99", "--t-hi", "5"]),
            (True, []),
            (True, ["--t-lo", "0"]),
            (True, ["--t-hi", "5"]),
            (True, ["--t-lo", "0", "--t-hi", "5"]),
        ],
    )
    def test_empty_window_exits_3(self, csv_file, capsys, header_only, window):
        if header_only:
            csv_file.write_text(TIMESERIES_HEADER + "\n")
        code, _, err = run_cli(
            capsys, ["fit", "--input", str(csv_file), "--L", str(TWO_PI), *window]
        )
        assert code == 3
        assert "numerical failure" in err
        if header_only:
            assert "found 0" in err

    @pytest.mark.parametrize(
        "window,name",
        [
            (["--t-lo", "nan"], "t_lo"),
            (["--t-hi", "inf"], "t_hi"),
            (["--t-lo=-inf", "--t-hi", "4"], "t_lo"),
            (["--t-lo", "1", "--t-hi", "nan"], "t_hi"),
            (["--t-lo", "3", "--t-hi", "3"], "t_hi"),
            (["--t-lo", "4", "--t-hi", "1"], "t_hi"),
        ],
    )
    def test_rejects_bad_window(self, csv_file, capsys, window, name):
        # a window bound that is not finite, or an empty window, is a usage
        # error that names its option, whatever the samples
        code, out, err = run_cli(capsys, ["fit", "--input", str(csv_file), "--L", str(TWO_PI), *window])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name}: ")

    @pytest.mark.parametrize("length", ["0", str(-TWO_PI), "nan"])
    def test_rejects_bad_length(self, csv_file, capsys, length):
        code, out, err = run_cli(capsys, ["fit", "--input", str(csv_file), "--L", length])
        # the library's argument is length; the option is --L
        assert code == 2
        assert out == ""
        assert err.startswith("error: L: ")

    def test_nonfinite_entropy_exits_2(self, csv_file, capsys):
        lines = csv_file.read_text().splitlines()
        fields = lines[100].split(",")
        fields[2] = "nan"  # entropy_rel
        lines[100] = ",".join(fields)
        csv_file.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, ["fit", "--input", str(csv_file), "--L", str(TWO_PI)])
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, ["fit", "--input", str(tmp_path / "no.csv"), "--L", "1"])
        assert code == 2


class TestIdentity:
    def test_readme_command_output(self, capsys):
        # the README's identity command, as it stands there, prints these bits
        command = re.findall(r"^dlss (identity .*)$", README.read_text(), flags=re.M)
        assert len(command) == 1
        code, out, _ = run_cli(capsys, command[0].split())
        assert code == 0
        assert json.loads(out) == {
            "L": 6.283185307179586,
            "N": 256,
            "backend": "spectral",
            "max_rel_err": {
                "production_decomposition": 2.1433364870617685e-15,
                "quartic_identity": 5.995321527667513e-16,
                "summation_by_parts": 6.407455990196749e-16,
            },
            "n_modes": 32,
            "overall_max_rel_err": 2.1433364870617685e-15,
            "seed": 0,
            "trials": 100,
        }

    def test_defaults_are_the_library_defaults(self, capsys):
        # the command passes no option it was not given; L and N are its own
        code, out, _ = run_cli(capsys, ["identity"])
        assert code == 0
        expected = dlss.identity_suite(dlss.make_grid(TWO_PI, 256))
        assert out == json.dumps(expected, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def test_small_spectral_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["identity", "--trials", "5", "--N", "64", "--n-modes", "4"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 5
        assert payload["overall_max_rel_err"] < 1e-12

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run_cli(capsys, ["identity", "--trials", "2", "--N", "32", "--n-modes", "2"])
        keys = list(json.loads(out))
        assert keys == sorted(keys)

    def test_unwritable_output_names_the_target(self, tmp_path, capsys):
        # the report is written through a temporary file; the error names the target
        target = tmp_path / "absent" / "report.json"
        code, _, err = run_cli(
            capsys, ["identity", "--trials", "1", "--N", "16", "--output", str(target)]
        )
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


class TestParser:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_json_output_is_strict(self, capsys):
        # no command may print NaN or Infinity, which JSON does not have
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError):
                cli._emit_json({"value": value}, None)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["heatflow", "--L", "0", "--N", "64", "--p", "1", "--T", "0.01", "--dt", "1e-3"], "L"),
            (["heatflow", "--L", "1", "--N", "64", "--p", "1", "--T", "0", "--dt", "1e-3"], "T"),
            (["heatflow", "--L", "1", "--N", "64", "--p", "1", "--T", "0.0105", "--dt", "1e-3"], "T"),
            *(
                (["heatflow", "--L", "1", "--N", "64", "--p", "1", "--T", repr(t), "--dt", repr(dt)],
                 "T")
                for t, dt in SMALL_OFF_LATTICE
            ),
            (["certify", "--kind", "poincare", "--L", "nan", "--N", "64"], "L"),
            (["certify", "--kind", "logsob", "--L", "1", "--N", "7"], "N"),
            (["identity", "--L", "-1"], "L"),
            (["identity", "--N", "7"], "N"),
        ],
    )
    def test_rejected_option_is_named_as_written(self, capsys, argv, name):
        # the library names its argument (length, n_points, t_final); the
        # message names the option that set it, as TestFit does for fit --L
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name}: "), err

    @pytest.mark.parametrize(
        "cls",
        [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.DlssError)],
    )
    def test_every_package_error_has_an_exit_code(self, capsys, monkeypatch, cls):
        # a new error class must not fall through main as a traceback
        def raise_it(args):
            try:
                raise cls("boom")
            except TypeError:  # ParseError and ValidationError take two arguments
                raise cls(1, "boom") from None

        monkeypatch.setattr(cli, "_cmd_identity", raise_it)
        code, _, err = run_cli(capsys, ["identity"])
        usage = issubclass(cls, (errors.ParseError, errors.ValidationError))
        assert code == (2 if usage else 3)
        assert err.startswith("error: " if usage else "numerical failure: ")

    @pytest.mark.parametrize(
        "argv, run_file",
        [
            (["certify", "--kind", "logsob", "--n", "1", *GRID256], None),
            (["certify", "--kind", "convex", "--p", "1.5", *GRID256], None),
            (["heatflow", "--p", "1.5", "--T", "10", "--dt", "1e-3", *GRID256], None),
            (["solve", "--config", "run.cfg"], {"T": "0.05"}),
            (["solve", "--config", "run.cfg"], {"T": "0.05", "backend": "fd4", "linear_solver": "banded"}),
            (["solve", "--config", "run.cfg"], {"N": "1024", "u0_amplitude": "0.3", "T": "0.05"}),
            (["solve", "--config", "run.cfg"], {"N": "128", "u0_amplitude": "0.9", "T": "0.05"}),
        ],
        ids=[
            "logsob-n1", "convex-p1.5", "heatflow-p1.5", "solve-readme", "solve-fd4-banded",
            "solve-spectral-1024", "solve-spectral-128",
        ],
    )
    def test_output_independent_of_blas_threads(self, tmp_path, package_env, argv, run_file):
        # output on one and on two OpenBLAS threads, byte for byte.
        # certify and heatflow factorise nothing and reduce without BLAS
        # (most of the T = 10 heat flow runs on 32 and 16 points); solve
        # runs the README's run file, T shortened, as it stands (it steps on
        # coarse grids), with fd4 and the banded LU, spectral at N = 1024
        # from 1 + 0.3 cos x, and spectral at N = 128 from 1 + 0.9 cos x,
        # all 500 steps on 128 points, the largest grid whose residuals are
        # products with the D2 matrix
        if run_file:
            (tmp_path / "run.cfg").write_text(readme_run_file(output="run.csv", **run_file))
        outputs = []
        for threads in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-m", "dlss.cli", *argv], capture_output=True, cwd=tmp_path,
                env={**package_env, "OPENBLAS_NUM_THREADS": threads},
            )
            assert out.returncode == 0, out.stderr
            outputs.append((out.stdout, (tmp_path / "run.csv").read_bytes() if run_file else None))
        assert outputs[0] == outputs[1]

    def test_python_m_dlss(self, package_env):
        out = subprocess.run(
            [sys.executable, "-m", "dlss", "--help"], capture_output=True, text=True, env=package_env
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("usage: dlss ")
        argv = ["certify", "--kind", "poincare", "--n", "1", "--L", "6.283185307179586", "--N", "32"]
        out = subprocess.run(
            [sys.executable, "-m", "dlss", *argv], capture_output=True, text=True, env=package_env
        )
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout, parse_constant=reject_constant)
        assert payload["kind"] == "poincare" and payload["converged"] is True

    def test_installed_entry_point(self, package_env):
        out = subprocess.run(
            [sys.executable, "-m", "dlss.cli", "--help"],
            capture_output=True, text=True, env=package_env,
        )
        assert out.returncode == 0
        for name in ("solve", "certify", "heatflow", "fit", "identity"):
            assert name in out.stdout
