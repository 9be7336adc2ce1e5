import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import cyclic_dense

import dlss
from dlss import FD2, FD4, SPECTRAL, Field, FieldKind, LinearSolver, SolverConfig
from dlss.solver import _MAX_NEWTON, TimeSeriesRecord, Trajectory, jacobian, residual

TWO_PI = 2.0 * math.pi


def cosine_density(grid, amplitude=0.1):
    return Field(grid, 1.0 + amplitude * np.cos(grid.nodes), FieldKind.DENSITY)


def log_field(grid, u_values):
    return Field(grid, np.log(u_values), FieldKind.LOG_DENSITY)


class TestSolverConfig:
    def test_defaults(self):
        config = SolverConfig(tau=1e-3)
        assert config.newton_tol == 1e-8
        assert config.backend is SPECTRAL
        assert config.linear_solver is LinearSolver.DENSE

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0},
            {"tau": -1e-3},
            {"tau": math.nan},
            {"tau": math.inf},
            {"tau": 1e-3, "newton_tol": 0.0},
            {"tau": 1e-3, "newton_tol": math.nan},
            {"tau": 1e-3, "newton_tol": math.inf},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(dlss.ValidationError) as excinfo:
            SolverConfig(**kwargs)
        assert excinfo.value.field == list(kwargs)[-1]

    def test_rejects_banded_with_spectral_backend(self):
        # spectral differentiation gives a dense Jacobian; no band to exploit
        for backend in (SPECTRAL, dlss.DiffBackend(0)):
            with pytest.raises(ValueError):
                SolverConfig(tau=1e-3, backend=backend, linear_solver=LinearSolver.BANDED)

    def test_banded_with_fd_backend_allowed(self):
        config = SolverConfig(tau=1e-3, backend=FD2, linear_solver=LinearSolver.BANDED)
        assert config.linear_solver is LinearSolver.BANDED


class TestResidual:
    def test_constant_state_is_stationary_without_regularization(self, grid64):
        y = log_field(grid64, np.full(64, 2.0))
        r = residual(y, y, SolverConfig(tau=1e-2))
        assert np.abs(r.values).max() < 1e-13

    def test_time_derivative_term(self, grid64):
        y_prev = log_field(grid64, np.full(64, 1.0))
        y = log_field(grid64, np.full(64, 1.0 + 1e-6))
        tau = 1e-2
        r = residual(y, y_prev, SolverConfig(tau=tau))
        expected = (math.exp(math.log(1.0 + 1e-6)) - 1.0) / tau
        assert np.allclose(r.values, expected, rtol=1e-9)

    @pytest.mark.parametrize("n", [8, 64, 256, 2048])
    def test_spectral_residual_is_the_numpy_fft_formula(self, n):
        # both second derivatives share one spectrum buffer and scale its
        # float view by the real symbol; r must equal, element for element,
        # the complex products (1j k)^2 through numpy.fft, Nyquist mode
        # included.  L = 5 makes the wave numbers inexact, so a symbol
        # rounded differently shows.
        grid = dlss.make_grid(5.0, n)
        x = (2.0 * math.pi / grid.length) * grid.nodes
        rng = np.random.default_rng(n)
        y = 0.3 * np.sin(x) + 0.05 * np.cos(n // 2 * x) + 1e-3 * rng.standard_normal(n)
        y_prev = y - 0.2 * np.cos(3.0 * x)
        tau = 3e-3
        symbol = (1j * (2.0 * math.pi / grid.length) * np.arange(n // 2 + 1)) ** 2

        def d2(f):
            return np.fft.irfft(np.fft.rfft(f) * symbol, n=n)

        want = (np.exp(y) - np.exp(y_prev)) / tau + d2(np.exp(y) * d2(y))
        got = residual(
            Field(grid, y, FieldKind.LOG_DENSITY),
            Field(grid, y_prev, FieldKind.LOG_DENSITY),
            SolverConfig(tau=tau),
        )
        assert np.array_equal(got.values, want)


class TestJacobian:
    @pytest.mark.parametrize("backend", [SPECTRAL, FD2, FD4])
    def test_matches_directional_difference(self, grid64, backend):
        rng = np.random.default_rng(3)
        u = np.exp(0.5 * np.sin(grid64.nodes) + 0.2 * np.cos(2 * grid64.nodes))
        y = log_field(grid64, u)
        y_prev = log_field(grid64, np.roll(u, 1))
        config = SolverConfig(tau=1e-3, backend=backend)
        jac = jacobian(y, config)
        direction = rng.standard_normal(64)
        direction /= np.abs(direction).max()
        h = 1e-6
        r_plus = residual(Field(grid64, y.values + h * direction, FieldKind.LOG_DENSITY), y_prev, config)
        r_minus = residual(Field(grid64, y.values - h * direction, FieldKind.LOG_DENSITY), y_prev, config)
        fd = (r_plus.values - r_minus.values) / (2.0 * h)
        exact = jac @ direction
        scale = np.abs(exact).max()
        assert np.abs(fd - exact).max() / scale < 1e-4


    @pytest.mark.parametrize("backend", [FD2, FD4])
    @pytest.mark.parametrize("n_points", [8, 10, 64])
    def test_banded_form_matches_dense(self, backend, n_points):
        # at N = 8 the fd4 diagonals c and c -+ 8 land on one entry and add up
        grid = dlss.make_grid(TWO_PI, n_points)
        u = np.exp(0.5 * np.sin(grid.nodes) + 0.2 * np.cos(2 * grid.nodes))
        y = log_field(grid, u)
        dense = SolverConfig(tau=1e-3, backend=backend)
        jac_dense = jacobian(y, dense)
        diagonals = jacobian(y, replace(dense, linear_solver=LinearSolver.BANDED))
        assert diagonals.shape == (2 * backend.order + 1, n_points)
        err = np.abs(cyclic_dense(diagonals) - jac_dense).max()
        assert err <= 1e-14 * np.abs(jac_dense).max()


class TestStep:
    def test_single_step_converges(self, grid64):
        config = SolverConfig(tau=1e-3, newton_tol=1e-10)
        y_prev = log_field(grid64, 1.0 + 0.1 * np.cos(grid64.nodes))
        y, iters = dlss.step(y_prev, config)
        r = residual(y, y_prev, config)
        assert np.abs(r.values).max() <= config.newton_tol
        assert 1 <= iters <= _MAX_NEWTON

    def test_step_preserves_mass_to_newton_tolerance(self, grid64):
        config = SolverConfig(tau=1e-3, newton_tol=1e-10)
        y_prev = log_field(grid64, 1.0 + 0.2 * np.cos(grid64.nodes))
        y, _ = dlss.step(y_prev, config)
        m_prev = dlss.integrate(Field(grid64, np.exp(y_prev.values)))
        m_new = dlss.integrate(Field(grid64, np.exp(y.values)))
        # mass defect per step is bounded by tau * L * ||F||_inf
        assert abs(m_new - m_prev) <= 2.0 * config.tau * grid64.length * config.newton_tol

    def test_exhausted_iterations_raise(self, grid64, monkeypatch):
        monkeypatch.setattr("dlss.solver._MAX_NEWTON", 1)
        config = SolverConfig(tau=0.05, newton_tol=1e-9)
        y_prev = log_field(grid64, np.exp(1.5 * np.cos(grid64.nodes)))
        with pytest.raises(dlss.NoConvergence) as excinfo:
            dlss.step(y_prev, config)
        assert excinfo.value.iterations == 1

    @pytest.mark.filterwarnings("error")
    def test_overflowing_trials_stay_silent(self, grid64):
        # from 1 + 0.999 cos x the full Newton step overflows e^y; the
        # failure is the step's own, not a floating-point warning
        y_prev = log_field(grid64, 1.0 + 0.999 * np.cos(grid64.nodes))
        with pytest.raises(dlss.NoConvergence):
            dlss.step(y_prev, SolverConfig(tau=1e-3))


class TestSolve:
    def test_records_cover_requested_horizon(self, grid64):
        config = SolverConfig(tau=1e-3, newton_tol=1e-10)
        traj = dlss.solve(cosine_density(grid64), 0.01, config)
        assert len(traj.records) == 11
        assert traj.records[0].t == 0.0
        assert traj.records[-1].t == pytest.approx(0.01, rel=1e-12)

    def test_record_every_thins_output(self, grid64):
        config = SolverConfig(tau=1e-3, newton_tol=1e-10)
        traj = dlss.solve(cosine_density(grid64), 0.01, config, record_every=5)
        assert [round(r.t, 6) for r in traj.records] == [0.0, 0.005, 0.01]

    def test_final_record_kept_when_off_lattice_of_record_every(self, grid64):
        config = SolverConfig(tau=1e-3, newton_tol=1e-10)
        traj = dlss.solve(cosine_density(grid64), 0.01, config, record_every=4)
        assert traj.records[-1].t == pytest.approx(0.01, rel=1e-12)

    def test_mass_conservation_over_many_steps(self, grid64):
        config = SolverConfig(tau=1e-3, newton_tol=1e-10)
        traj = dlss.solve(cosine_density(grid64), 1.0, config, record_every=100)
        m0 = traj.records[0].mass
        drift = max(abs(r.mass - m0) / m0 for r in traj.records)
        assert drift < 1e-9

    @pytest.mark.parametrize("backend", [SPECTRAL, FD2])
    def test_entropy_and_lyapunov_decay(self, grid64, backend):
        config = SolverConfig(tau=1e-3, newton_tol=1e-9, backend=backend)
        traj = dlss.solve(cosine_density(grid64, 0.3), 0.5, config, record_every=10)
        assert dlss.lyapunov_check(traj)
        assert traj.records[-1].entropy_rel < traj.records[0].entropy_rel

    def test_entropy_decay_beats_spectral_gap_bound(self, grid64):
        # E(t) <= E(0) exp(-M t) with M = 32 pi^4 / L^4 = 2 at L = 2 pi
        config = SolverConfig(tau=1e-3, newton_tol=1e-10)
        traj = dlss.solve(cosine_density(grid64), 1.0, config, record_every=1000)
        e0 = traj.records[0].entropy_rel
        eT = traj.records[-1].entropy_rel
        assert eT <= e0 * math.exp(-2.0 * 1.0) * 1.05

    def test_tau_halving_rescues_oversized_step(self, grid64, monkeypatch):
        # tau = 0.05 with a budget of 5 Newton iterations cannot converge
        # directly; the stepper must subdivide.  Total iteration count
        # proves it did.
        monkeypatch.setattr("dlss.solver._MAX_NEWTON", 5)
        u0 = Field(grid64, np.exp(1.5 * np.cos(grid64.nodes)), FieldKind.DENSITY)
        config = SolverConfig(tau=0.05, newton_tol=1e-9)
        traj = dlss.solve(u0, 0.05, config)
        assert traj.records[-1].t == pytest.approx(0.05)
        assert traj.records[-1].newton_iters > 5
        assert dlss.lyapunov_check(traj)

    def test_tau_halving_gives_up_eventually(self, grid64, monkeypatch):
        monkeypatch.setattr("dlss.solver._MAX_NEWTON", 1)
        u0 = Field(grid64, np.exp(1.5 * np.cos(grid64.nodes)), FieldKind.DENSITY)
        config = SolverConfig(tau=0.05, newton_tol=1e-9)
        with pytest.raises(dlss.NoConvergence) as excinfo:
            dlss.solve(u0, 0.05, config)
        assert excinfo.value.step_index == 1

    def test_off_lattice_horizon_rejected(self, grid64):
        config = SolverConfig(tau=1e-3)
        with pytest.raises(ValueError):
            dlss.solve(cosine_density(grid64), 0.0105, config)

    def test_nonpositive_horizon_rejected(self, grid64):
        config = SolverConfig(tau=1e-3)
        # an infinite or NaN horizon has no step count either
        for t_final in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="t_final"):
                dlss.solve(cosine_density(grid64), t_final, config)

    def test_bad_record_every_rejected(self, grid64):
        config = SolverConfig(tau=1e-3)
        with pytest.raises(ValueError):
            dlss.solve(cosine_density(grid64), 0.01, config, record_every=0)

    def test_tiny_initial_values_clamped(self, grid64):
        vals = np.ones(64)
        vals[5] = 1e-20
        u0 = Field(grid64, vals, FieldKind.DENSITY)
        config = SolverConfig(tau=1e-5, newton_tol=1e-6)
        traj = dlss.solve(u0, 1e-4, config)
        assert traj.clamped_nodes >= 1

    @pytest.mark.filterwarnings("error")
    def test_overflowing_trials_stay_silent(self, grid64):
        # line-search trials of this run overflow e^y and give NaN
        # residuals; they are rejected, and the run converges without
        # printing floating-point warnings
        traj = dlss.solve(cosine_density(grid64, 0.999), 0.01, SolverConfig(tau=1e-3))
        assert dlss.lyapunov_check(traj)
        assert np.isfinite(traj.final_y.values).all()

    def test_deterministic(self, grid64):
        config = SolverConfig(tau=1e-3, newton_tol=1e-10)
        a = dlss.solve(cosine_density(grid64), 0.05, config)
        b = dlss.solve(cosine_density(grid64), 0.05, config)
        assert a.records == b.records
        assert np.array_equal(a.final_y.values, b.final_y.values)

    def test_secant_start_saves_newton_iterations(self, grid64):
        # the plain start y_k took 671 iterations here, the two-level
        # secant 535
        u0 = Field(
            grid64, 1.0 + 0.1 * np.cos(grid64.nodes) + 0.02 * np.sin(3 * grid64.nodes),
            FieldKind.DENSITY,
        )
        traj = dlss.solve(u0, 0.1, SolverConfig(tau=1e-3, newton_tol=1e-10))
        assert sum(r.newton_iters for r in traj.records) < 535

    def test_floor_noise_does_not_refresh_jacobian(self, grid256, monkeypatch):
        # at N = 256 the iteration that meets newton_tol lands on the
        # residual floor, so its contraction ratio is noise; refreshing on
        # it cost 23 to 26 Jacobians here, depending on the BLAS threads
        assembled = []

        def counting(y, config):
            assembled.append(y)
            return jacobian(y, config)

        monkeypatch.setattr("dlss.solver.jacobian", counting)
        dlss.solve(cosine_density(grid256), 0.03, SolverConfig(tau=1e-4))
        assert len(assembled) <= 3

    @pytest.mark.parametrize(
        "backend,solver,tau,tol,amplitude",
        [
            (SPECTRAL, LinearSolver.DENSE, 1e-3, 1e-10, 0.1),
            (FD2, LinearSolver.BANDED, 1e-3, 1e-10, 0.1),
            # fast transient: the guard rejects the secant on some steps
            (FD4, LinearSolver.BANDED, 1e-2, 1e-6, 0.5),
        ],
    )
    def test_matches_repeated_step(self, grid64, backend, solver, tau, tol, amplitude):
        config = SolverConfig(tau=tau, newton_tol=tol, backend=backend, linear_solver=solver)
        u0 = dlss.random_log_density(grid64, 4, 7, amplitude=amplitude)
        n_steps = 20
        traj = dlss.solve(u0, n_steps * tau, config)
        y = log_field(grid64, u0.values)
        for _ in range(n_steps):
            y, _ = dlss.step(y, config)
        u_step = np.exp(y.values)
        u_solve = np.exp(traj.final_y.values)
        assert np.abs(u_solve - u_step).max() <= 1e-8 * np.abs(u_step).max()

    @pytest.mark.parametrize(
        "config",
        [
            SolverConfig(tau=1e-3, newton_tol=1e-10),
            SolverConfig(tau=1e-3, newton_tol=1e-10, backend=FD2),
            SolverConfig(tau=1e-3, newton_tol=1e-10, backend=FD4),
        ],
        ids=["spectral", "fd2", "fd4"],
    )
    def test_records_match_functionals(self, grid64, config):
        # records read y, e^y and D2 y from the accepted level instead of
        # taking log u of a Field; a run to k tau retraces level k bit for
        # bit, so its final state is the state of record k
        u0 = cosine_density(grid64, 0.3)
        traj = dlss.solve(u0, 0.02, config)
        assert len(traj.records) == 21
        for k, record in enumerate(traj.records):
            if k == 0:
                y_k = np.log(u0.values)
            else:
                y_k = dlss.solve(u0, k * config.tau, config).final_y.values
            u = Field(grid64, np.exp(y_k), FieldKind.DENSITY)
            assert record.mass == dlss.integrate(u)
            u_bar = record.mass / grid64.length
            assert record.entropy_rel == pytest.approx(dlss.entropy_relative(u, u_bar), rel=1e-12)
            assert record.lyap == pytest.approx(dlss.lyapunov_u_minus_logu(u), rel=1e-12)
            expected = dlss.entropy_production(u, config.backend)
            assert record.production == pytest.approx(expected, rel=1e-12)
            assert record.min_u == u.values.min()

    def test_record_every_shares_levels(self, grid64):
        # records read the arrays of the Newton levels; one that changed a
        # level in place would change the run it records
        config = SolverConfig(tau=1e-3, newton_tol=1e-10)
        u0 = dlss.random_log_density(grid64, 4, 11, amplitude=0.3)
        every = dlss.solve(u0, 20 * config.tau, config, record_every=1)
        fifth = dlss.solve(u0, 20 * config.tau, config, record_every=5)
        assert np.array_equal(every.final_y.values, fifth.final_y.values)
        assert fifth.records == every.records[::5]

    def test_banded_linear_solver_agrees_with_dense(self, grid128):
        dense = SolverConfig(tau=1e-3, newton_tol=1e-9, backend=FD4)
        banded = replace(dense, linear_solver=LinearSolver.BANDED)
        ta = dlss.solve(cosine_density(grid128, 0.2), 0.05, dense)
        tb = dlss.solve(cosine_density(grid128, 0.2), 0.05, banded)
        diff = np.abs(ta.final_y.values - tb.final_y.values).max()
        assert diff < 1e-7


class TestLyapunovCheck:
    def _record_at(self, t, entropy, lyap):
        return TimeSeriesRecord(
            t=t, mass=TWO_PI, entropy_rel=entropy, lyap=lyap,
            production=0.0, min_u=1.0, newton_iters=1,
        )

    def _trajectory(self, grid, records):
        config = SolverConfig(tau=1.0, newton_tol=1e-12)
        final = Field(grid, np.zeros(grid.n_points), FieldKind.LOG_DENSITY)
        return Trajectory(grid=grid, config=config, records=tuple(records), final_y=final)

    def test_accepts_decaying_records(self, grid64):
        records = [self._record_at(float(k), 1.0 / (k + 1), 10.0 - k) for k in range(4)]
        assert dlss.lyapunov_check(self._trajectory(grid64, records))

    def test_rejects_entropy_increase(self, grid64):
        records = [self._record_at(0.0, 1.0, 10.0), self._record_at(1.0, 1.1, 9.0)]
        assert not dlss.lyapunov_check(self._trajectory(grid64, records))

    def test_rejects_time_reversed_records(self, grid64):
        records = [self._record_at(1.0, 1.0, 10.0), self._record_at(0.0, 0.5, 9.0)]
        assert not dlss.lyapunov_check(self._trajectory(grid64, records))

    def test_tolerates_increase_within_newton_slack(self, grid64):
        records = [
            self._record_at(0.0, 1.0, 10.0),
            self._record_at(1.0, 1.0 + 5e-12, 10.0 - 1e-3),
        ]
        assert dlss.lyapunov_check(self._trajectory(grid64, records))
