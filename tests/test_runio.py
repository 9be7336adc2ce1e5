import math
import os
import stat
from dataclasses import replace

import numpy as np
import pytest
from conftest import NOT_POSITIVE_FINITE

import dlss
from dlss import Field, FieldKind, SolverConfig, TimeSeriesRecord
from dlss.grid import _integrate
from dlss.runio import (
    TIMESERIES_HEADER,
    cosine_density,
    default_fit_window,
    emit_timeseries,
    fit_decay,
    identity_suite,
    parse_config,
    read_timeseries,
    write_atomic,
)

TWO_PI = 2.0 * math.pi

MINIMAL = "command = solve\nL = 6.283185307179586\nN = 64\nT = 0.01\ntau = 0.001\n"


class TestParseConfig:
    def test_minimal_solve_config(self):
        cfg = parse_config(MINIMAL)
        assert (cfg.grid.length, cfg.grid.n_points) == (TWO_PI, 64)
        assert cfg.t_final == 0.01
        assert cfg.solver_config.tau == 0.001
        # defaults
        assert np.array_equal(cfg.u0.values, cosine_density(cfg.grid, 1.0, 0.1, 1).values)
        assert cfg.output is None
        assert cfg.record_every == 1

    def test_omitted_scheme_keys_take_solver_config_defaults(self):
        assert parse_config(MINIMAL).solver_config == SolverConfig(tau=0.001)

    def test_comments_sections_and_blank_lines_ignored(self):
        text = (
            "# run setup\n"
            "[problem]\n"
            "command = solve   # which tool\n"
            "\n"
            "L = 6.28\n"
            "[discretization]\n"
            "N = 32\n"
            "T = 1\n"
            "tau = 0.5\n"
        )
        cfg = parse_config(text)
        assert cfg.grid.n_points == 32
        assert cfg.solver_config.tau == 0.5

    def test_values_may_contain_equals_sign(self, tmp_path, monkeypatch):
        # the output's directory must exist when the run file is parsed
        (tmp_path / "runs").mkdir()
        monkeypatch.chdir(tmp_path)
        text = MINIMAL + "output = runs/a=b.csv\n"
        assert parse_config(text).output == "runs/a=b.csv"

    @pytest.mark.parametrize(
        "line,line_no",
        [
            ("frobnicate = 1", 6),
            ("tau = quick", 6),
            ("N 64", 6),
            ("[unclosed", 6),
            ("seed = 1", 6),
            ("snapshot_every = 5", 6),
            ("damping = 0.5", 6),
            ("epsilon = 0", 6),
            ("renormalize_mass = true", 6),
            ("max_newton = 5", 6),
            ("N = 32", 6),  # duplicate of a key whose attribute name differs
        ],
    )
    def test_parse_errors_carry_line_numbers(self, line, line_no):
        with pytest.raises(dlss.ParseError) as excinfo:
            parse_config(MINIMAL + line + "\n")
        assert excinfo.value.line_no == line_no
        assert str(excinfo.value).startswith(f"line {line_no}:")

    def test_duplicate_key_rejected(self):
        with pytest.raises(dlss.ParseError) as excinfo:
            parse_config(MINIMAL + "tau = 0.002\n")
        assert "duplicate" in str(excinfo.value)

    @pytest.mark.parametrize("missing", ["command", "L", "N"])
    def test_required_keys(self, missing):
        lines = [l for l in MINIMAL.splitlines() if not l.startswith(missing)]
        with pytest.raises(dlss.ValidationError) as excinfo:
            parse_config("\n".join(lines))
        assert excinfo.value.field == missing

    @pytest.mark.parametrize(
        "extra,field",
        [
            # named before the T and tau the file lacks
            ("command = warp\nL = 1\nN = 8", "command"),
            (MINIMAL.replace("command = solve", "command = identity"), "command"),
            (MINIMAL.replace("N = 64", "N = 63"), "N"),
            (MINIMAL.replace("N = 64", "N = 4"), "N"),
            (MINIMAL.replace("L = 6.283185307179586", "L = -1"), "L"),
            (MINIMAL + "backend = fd8\n", "backend"),
            (MINIMAL + "linear_solver = banded\n", "linear_solver"),
            (MINIMAL + "newton_tol = inf\n", "newton_tol"),
            (MINIMAL.replace("tau = 0.001", "tau = inf"), "tau"),
            (MINIMAL + "u0 = cosine\nu0_amplitude = 1.5\n", "u0_amplitude"),
            (MINIMAL + "u0_base = 0\n", "u0_base"),
            # a cosine datum below the positivity floor or not finite
            (MINIMAL + "u0_base = 1e-301\nu0_amplitude = 0\n", "u0_base"),
            (MINIMAL + "u0_base = inf\nu0_amplitude = 0\n", "u0_base"),
            (MINIMAL + "output = no-such-directory/out.csv\n", "output"),
            (MINIMAL + "output = .\n", "output"),
            (MINIMAL + "u0_mode = -1\n", "u0_mode"),
            # above the Nyquist mode N/2 = 32 a cosine aliases onto a lower one
            (MINIMAL + "u0_mode = 33\n", "u0_mode"),
            (MINIMAL + "u0 = file\n", "u0_path"),
            (MINIMAL + "u0 = constant\nu0_value = 1e-310\n", "u0_value"),
            (MINIMAL.replace("T = 0.01\n", ""), "T"),
            # the horizon is checked against the tau lattice before any step runs
            (MINIMAL.replace("T = 0.01", "T = 0"), "T"),
            (MINIMAL.replace("T = 0.01", "T = nan"), "T"),
            (MINIMAL.replace("T = 0.01", "T = 0.0105"), "T"),
            (MINIMAL.replace("tau = 0.001\n", ""), "tau"),
        ],
    )
    def test_validation_errors_name_the_field(self, extra, field):
        with pytest.raises(dlss.ValidationError) as excinfo:
            parse_config(extra)
        assert excinfo.value.field == field

    def test_banded_solver_with_fd_backend_accepted(self):
        cfg = parse_config(MINIMAL + "backend = fd4\nlinear_solver = banded\n")
        assert cfg.solver_config.backend is dlss.FD4
        assert cfg.solver_config.linear_solver is dlss.LinearSolver.BANDED


class TestInitialDensity:
    def test_constant(self):
        cfg = parse_config("command = solve\nL = 6.28\nN = 16\nT = 1\ntau = 1\nu0 = constant\nu0_value = 2.5\n")
        assert cfg.u0.grid is cfg.grid
        assert np.allclose(cfg.u0.values, 2.5)
        assert cfg.u0.kind is FieldKind.DENSITY

    def test_cosine_uses_base_amplitude_mode(self):
        cfg = parse_config(MINIMAL + "u0_base = 2\nu0_amplitude = 0.5\nu0_mode = 3\n")
        assert np.allclose(cfg.u0.values, 2.0 + 0.5 * np.cos(3 * cfg.grid.nodes))
        # the Nyquist mode N/2 = 32 is the highest one allowed: (-1)^j on the nodes
        cfg = parse_config(MINIMAL + "u0_mode = 32\n")
        assert np.allclose(cfg.u0.values, 1.0 + 0.1 * (-1.0) ** np.arange(64))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "u0.txt"
        vals = 1.0 + 0.25 * np.sin(np.arange(64) / 7.0)
        np.savetxt(path, vals)
        cfg = parse_config(MINIMAL + f"u0 = file\nu0_path = {path}\n")
        assert np.allclose(cfg.u0.values, vals, atol=1e-15)

    def test_file_path_is_relative_to_working_directory(self, tmp_path, monkeypatch):
        np.savetxt(tmp_path / "u0.txt", np.full(64, 1.5))
        monkeypatch.chdir(tmp_path)
        cfg = parse_config(MINIMAL + "u0 = file\nu0_path = u0.txt\n")
        assert np.array_equal(cfg.u0.values, np.full(64, 1.5))

    def test_file_errors(self, tmp_path):
        # the datum is read when the run file is parsed
        base = MINIMAL + "u0 = file\nu0_path = {}\n"

        with pytest.raises(dlss.ValidationError) as excinfo:
            parse_config(base.format(tmp_path / "absent.txt"))
        assert excinfo.value.field == "u0_path"
        assert "cannot read" in str(excinfo.value)

        short = tmp_path / "short.txt"
        np.savetxt(short, np.ones(10))
        with pytest.raises(dlss.ValidationError) as excinfo:
            parse_config(base.format(short))
        assert excinfo.value.field == "u0_path"
        assert "expected 64 values, found 10" in str(excinfo.value)

        negative = tmp_path / "negative.txt"
        np.savetxt(negative, -np.ones(64))
        with pytest.raises(dlss.ValidationError) as excinfo:
            parse_config(base.format(negative))
        assert excinfo.value.field == "u0_path"

        garbled = tmp_path / "garbled.txt"
        garbled.write_text("1.0\ntwo\n3.0\n")
        with pytest.raises(dlss.ValidationError) as excinfo:
            parse_config(base.format(garbled))
        assert excinfo.value.field == "u0_path"
        assert "malformed data" in str(excinfo.value)


@pytest.fixture(scope="module")
def short_trajectory(grid64):
    u0 = Field(grid64, 1.0 + 0.1 * np.cos(grid64.nodes), FieldKind.DENSITY)
    return dlss.solve(u0, 0.01, SolverConfig(tau=1e-3, newton_tol=1e-10))


class TestTimeseriesRoundTrip:
    def test_header_is_the_documented_format(self):
        # derived from TimeSeriesRecord's fields; files written before must still read
        assert TIMESERIES_HEADER == "t,mass,entropy_rel,lyap,production,min_u,newton_iters"

    def test_header_and_shape(self, short_trajectory, tmp_path):
        path = tmp_path / "run.csv"
        emit_timeseries(short_trajectory, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == TIMESERIES_HEADER
        assert len(lines) == 1 + len(short_trajectory.records)
        assert "\r" not in path.read_bytes().decode()

    def test_round_trip_is_bit_exact(self, short_trajectory, tmp_path):
        path = tmp_path / "run.csv"
        emit_timeseries(short_trajectory, str(path))
        back = read_timeseries(str(path))
        assert tuple(back) == short_trajectory.records

    def test_row_format_matches_per_cell_format(self, short_trajectory, tmp_path):
        # one % call per row must give the bytes of the per-cell
        # f"{v:.17g}" join, also on signed zero, the least subnormal, a
        # huge value, infinities and NaN; reading back keeps their bits
        edge = [-0.0, 5e-324, 1e300, math.inf, math.nan, -math.inf]
        records = tuple(TimeSeriesRecord(*(edge[k:] + edge[:k]), k * 1000) for k in range(6))
        path = tmp_path / "edge.csv"
        emit_timeseries(replace(short_trajectory, records=records), str(path))
        rows = [
            ",".join(f"{v:.17g}" for v in edge[k:] + edge[:k]) + f",{k * 1000}" for k in range(6)
        ]
        assert path.read_bytes() == "\n".join([TIMESERIES_HEADER, *rows, ""]).encode()
        assert repr(read_timeseries(str(path))) == repr(list(records))

    def test_no_temporary_files_left_behind(self, short_trajectory, tmp_path):
        emit_timeseries(short_trajectory, str(tmp_path / "run.csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv"]

    @pytest.fixture(params=[0o022, 0o077], ids=oct)
    def umask(self, request):
        previous = os.umask(request.param)
        try:
            yield request.param
        finally:
            os.umask(previous)

    def test_new_file_takes_the_mode_open_gives(self, umask, tmp_path):
        # mkstemp's 0o600 would hide the file from group and others
        write_atomic(str(tmp_path / "new.json"), "{}\n")
        with open(tmp_path / "plain.json", "w") as handle:
            handle.write("{}\n")
        mode = stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode)
        assert mode == stat.S_IMODE(os.stat(tmp_path / "plain.json").st_mode) == 0o666 & ~umask
        assert os.umask(umask) == umask  # reading the umask left it as it was

    @pytest.mark.parametrize("mode", [0o644, 0o640, 0o604], ids=oct)
    def test_replaced_file_keeps_its_mode(self, umask, tmp_path, mode):
        path = tmp_path / "run.json"
        path.write_text("old\n")
        os.chmod(path, mode)
        write_atomic(str(path), "new\n")
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(os.stat(path).st_mode) == mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_write_failure_cleans_up(self, short_trajectory, tmp_path):
        target = tmp_path / "no_such_dir" / "run.csv"
        with pytest.raises(OSError):
            emit_timeseries(short_trajectory, str(target))
        assert list(tmp_path.iterdir()) == []

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,mass\n0,1\n")
        with pytest.raises(dlss.ParseError) as excinfo:
            read_timeseries(str(path))
        assert excinfo.value.line_no == 1

    def test_read_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(TIMESERIES_HEADER + "\n0,1,2\n")
        with pytest.raises(dlss.ParseError) as excinfo:
            read_timeseries(str(path))
        assert excinfo.value.line_no == 2

    def test_read_rejects_bad_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(TIMESERIES_HEADER + "\n0,1,2,3,4,5,six\n")
        with pytest.raises(dlss.ParseError) as excinfo:
            read_timeseries(str(path))
        assert excinfo.value.line_no == 2

    @pytest.mark.parametrize(
        "row",
        ["0,1,2,x,4,5,6", "0,1,2,3,4,5,2.5", ",1,2,3,4,5,6"],
        ids=["float-column", "fraction-in-newton_iters", "empty-t"],
    )
    def test_read_names_the_line_of_a_malformed_value(self, tmp_path, row):
        # a good row, a blank line, then the bad one: line 4 of the file
        path = tmp_path / "bad.csv"
        path.write_text(TIMESERIES_HEADER + "\n0,1,2,3,4,5,6\n\n" + row + "\n")
        with pytest.raises(dlss.ParseError, match="malformed record") as excinfo:
            read_timeseries(str(path))
        assert excinfo.value.line_no == 4

    def test_read_gives_each_column_its_type(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text(TIMESERIES_HEADER + "\n0,1,2,3,4,5,6\n")
        (record,) = read_timeseries(str(path))
        assert type(record) is TimeSeriesRecord
        assert [type(v) for v in record] == [float] * 6 + [int]


class TestFitDecay:
    @staticmethod
    def synthetic(rate=2.0, e0=7.0, n=101, t_hi=5.0):
        t = np.linspace(0.0, t_hi, n)
        return np.column_stack([t, e0 * np.exp(-rate * t)])

    def test_recovers_exact_exponential(self):
        report = fit_decay(self.synthetic(), (0.0, 5.0), length=TWO_PI)
        assert report.fitted_rate == pytest.approx(2.0, rel=1e-12)
        assert report.theoretical_M == pytest.approx(2.0, rel=1e-15)
        assert report.ratio == pytest.approx(1.0, rel=1e-12)
        assert report.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_theoretical_rate_scales_with_length(self):
        report = fit_decay(self.synthetic(), (0.0, 5.0), length=math.pi)
        assert report.theoretical_M == pytest.approx(32.0 * math.pi ** 4 / math.pi ** 4)

    def test_window_restricts_samples(self):
        series = self.synthetic()
        series[: 10, 1] *= 1.5  # corrupt the head; the window must skip it
        report = fit_decay(series, (1.0, 5.0), length=TWO_PI)
        assert report.fitted_rate == pytest.approx(2.0, rel=1e-12)
        assert report.fit_window == (1.0, 5.0)

    def test_too_few_samples(self):
        with pytest.raises(dlss.InsufficientData):
            fit_decay(self.synthetic(n=30), (0.0, 0.5), length=TWO_PI)

    def test_empty_series_has_too_few_samples(self):
        with pytest.raises(dlss.InsufficientData, match="found 0"):
            fit_decay([], (0.0, 5.0), length=TWO_PI)
        with pytest.raises(dlss.InsufficientData, match="found 0"):
            default_fit_window([])

    def test_nonpositive_entropy(self):
        series = self.synthetic()
        series[40, 1] = 0.0
        with pytest.raises(dlss.NonPositiveEntropy):
            fit_decay(series, (0.0, 5.0), length=TWO_PI)

    @pytest.mark.parametrize("column", [0, 1], ids=["t", "E"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_samples(self, column, value):
        series = self.synthetic()
        series[50, column] = value
        with pytest.raises(ValueError, match="must be finite"):
            fit_decay(series, (0.0, 5.0), length=TWO_PI)
        with pytest.raises(ValueError, match="must be finite"):
            default_fit_window(series)

    @pytest.mark.parametrize("length", NOT_POSITIVE_FINITE)
    def test_rejects_bad_length_as_the_grid_does(self, length):
        # one length rule: the field and message of PeriodicGrid
        with pytest.raises(dlss.ValidationError) as grid_error:
            dlss.PeriodicGrid(length, 16)
        with pytest.raises(dlss.ValidationError) as fit_error:
            fit_decay(self.synthetic(), (0.0, 5.0), length=length)
        assert fit_error.value.field == grid_error.value.field == "length"
        assert str(fit_error.value) == str(grid_error.value)

    def test_default_window_skips_transient(self):
        lo, hi = default_fit_window(self.synthetic(t_hi=10.0))
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(10.0)

    def test_default_window_stops_at_entropy_floor(self):
        series = self.synthetic(rate=10.0, n=2001, t_hi=10.0)
        lo, hi = default_fit_window(series)
        # E/E0 reaches 1e-12 at t = 12 ln 10 / 10 ~ 2.76
        assert hi < 2.8
        assert hi > 2.7


class TestIdentitySuite:
    def test_spectral_identities_hold_to_roundoff(self, grid64):
        # n_modes = 4 keeps exp(field) fully resolved on 64 nodes, so the
        # only error left is floating-point noise
        out = identity_suite(grid64, trials=10, seed=1, n_modes=4)
        assert out["L"] == pytest.approx(TWO_PI)
        assert out["N"] == 64
        assert out["backend"] == "spectral"
        assert out["trials"] == 10
        assert set(out["max_rel_err"]) == {
            "summation_by_parts",
            "quartic_identity",
            "production_decomposition",
        }
        assert out["overall_max_rel_err"] < 1e-12
        assert out["overall_max_rel_err"] == max(out["max_rel_err"].values())

    @pytest.mark.parametrize("backend", [dlss.SPECTRAL, dlss.FD2, dlss.FD4], ids=lambda b: b.name)
    def test_production_decomposition_keeps_its_bits(self, grid64, backend):
        # the production and its split written out, over the suite's own
        # seeded trials: the dlss identity JSON must keep these bits
        def d(values, order):
            return dlss.derivative(Field(grid64, values, FieldKind.GENERIC), order, backend).values

        def integral(values):
            return _integrate(grid64, values)

        stream, want = dlss.SplitMix64(0), 0.0
        for _ in range(100):
            u = dlss.random_log_density(grid64, 8, stream.next_u64()).values
            d2y, dy = d(np.log(u), 2), d(np.log(u), 1)
            production = integral(u * d2y * d2y)
            d2s = d(np.sqrt(u), 2)
            split = 4.0 * integral(d2s * d2s) + integral(u * dy ** 4) / 12.0
            err = abs(production - split) / max(abs(production), abs(split), 1e-30)
            want = max(want, err)
        got = identity_suite(grid64, backend)["max_rel_err"]["production_decomposition"]
        assert got == want

    def test_fd_errors_shrink_at_second_order(self):
        coarse = identity_suite(dlss.make_grid(TWO_PI, 64), dlss.FD2, trials=5, seed=0, n_modes=4)
        fine = identity_suite(dlss.make_grid(TWO_PI, 128), dlss.FD2, trials=5, seed=0, n_modes=4)
        for key in coarse["max_rel_err"]:
            order = math.log2(coarse["max_rel_err"][key] / fine["max_rel_err"][key])
            assert abs(order - 2.0) < 0.4, key

    def test_deterministic(self, grid64):
        a = identity_suite(grid64, trials=5, seed=9)
        b = identity_suite(grid64, trials=5, seed=9)
        assert a == b

    def test_rejects_nonpositive_trials(self, grid64):
        with pytest.raises(ValueError):
            identity_suite(grid64, trials=0)
