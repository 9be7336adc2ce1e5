import math
import tracemalloc
import typing
from dataclasses import replace

import numpy as np
import pytest
from conftest import NOT_POSITIVE_FINITE, SMALL_OFF_LATTICE, cyclic_dense

import dlss
from dlss import FD2, FD4, SPECTRAL, Field, FieldKind, LinearSolver, SolverConfig
from dlss.grid import _integrate, _rfft
from dlss.solver import (
    _MAX_NEWTON,
    _PRODUCT_POINTS,
    TimeSeriesRecord,
    Trajectory,
    _advance,
    _evaluate,
    _Guard,
    _jacobian,
    _Level,
    _Matrices,
    _newton_loop,
    _NewtonWorkspace,
    _Records,
    _resample,
    _resolving_size,
    _spectra,
    jacobian,
)

TWO_PI = 2.0 * math.pi


def cosine_density(grid, amplitude=0.1):
    return Field(grid, 1.0 + amplitude * np.cos(grid.nodes), FieldKind.DENSITY)


def log_field(grid, u_values):
    return Field(grid, np.log(u_values), FieldKind.LOG_DENSITY)


def evaluate(y, ey_prev, grid, config):
    """``_evaluate`` with D2 matrices of its own, as a fresh solve holds them."""
    return _evaluate(y, ey_prev, grid, config, _Matrices(grid.length, config.backend))


def workspace_for(grid, config):
    """A chord workspace with D2 matrices of its own."""
    return _NewtonWorkspace(_Matrices(grid.length, config.backend))


def newton_step(y_prev, grid, config):
    """One backward Euler step from the log-density values y_prev by the
    solver's Newton loop from a fresh factor; the accepted y and its
    iteration count."""
    ey_prev = np.exp(y_prev)
    level, iters = _newton_loop(
        evaluate(y_prev, ey_prev, grid, config), ey_prev, grid, config, workspace_for(grid, config)
    )
    return level.y, iters


class TestSolverConfig:
    def test_defaults(self):
        config = SolverConfig(tau=1e-3)
        assert config.newton_tol == 1e-8
        assert config.backend is SPECTRAL
        assert config.linear_solver is LinearSolver.DENSE

    @pytest.mark.parametrize("value", NOT_POSITIVE_FINITE)
    @pytest.mark.parametrize("name", ["tau", "newton_tol"])
    def test_rejects_bad_parameters(self, name, value):
        with pytest.raises(dlss.ValidationError) as excinfo:
            SolverConfig(**{"tau": 1e-3, name: value})
        assert excinfo.value.field == name
        assert excinfo.value.reason == f"must be positive and finite, got {value!r}"

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
        y = np.log(np.full(64, 2.0))
        r = evaluate(y, np.exp(y), grid64, SolverConfig(tau=1e-2)).r
        assert np.abs(r).max() < 1e-13

    def test_time_derivative_term(self, grid64):
        y_prev = np.log(np.full(64, 1.0))
        y = np.log(np.full(64, 1.0 + 1e-6))
        tau = 1e-2
        r = evaluate(y, np.exp(y_prev), grid64, SolverConfig(tau=tau)).r
        expected = (math.exp(math.log(1.0 + 1e-6)) - 1.0) / tau
        assert np.allclose(r, expected, rtol=1e-9)

    @pytest.mark.parametrize("n", [8, 64, 128, 256, 2048])
    def test_spectral_residual_is_the_numpy_fft_formula(self, n):
        # above _PRODUCT_POINTS both second derivatives share one spectrum
        # buffer and scale its float view by the real symbol; r must
        # equal, element for element, the complex products (1j k)^2
        # through numpy.fft, Nyquist mode included.  L = 5 makes the wave
        # numbers inexact, so a symbol rounded differently shows.  Up to
        # _PRODUCT_POINTS r is, element for element, the two products with
        # the contiguous D2 matrix, and within 32 eps |F| of the numpy.fft
        # formula (6 eps at n = 128 here).
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
        got = evaluate(y, np.exp(y_prev), grid, SolverConfig(tau=tau)).r
        if n > _PRODUCT_POINTS:
            assert np.array_equal(got, want)
            return
        matrix = np.array(dlss.diff_matrix(grid, 2))
        product = (np.exp(y) - np.exp(y_prev)) / tau + matrix @ (np.exp(y) * (matrix @ (y - y[0])))
        assert np.array_equal(got, product)
        assert np.abs(got - want).max() <= 32 * np.finfo(float).eps * np.abs(want).max()


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
        ey_prev = np.exp(y_prev.values)
        r_plus = evaluate(y.values + h * direction, ey_prev, grid64, config).r
        r_minus = evaluate(y.values - h * direction, ey_prev, grid64, config).r
        fd = (r_plus - r_minus) / (2.0 * h)
        exact = jac @ direction
        scale = np.abs(exact).max()
        assert np.abs(fd - exact).max() / scale < 1e-4


    @pytest.mark.parametrize("backend", [SPECTRAL, FD2, FD4])
    def test_dense_form_is_products_on_contiguous_copy(self, grid64, backend):
        # diff_matrix is a negative-stride view; products on it leave BLAS
        # and round differently, so the dense Jacobian must copy it first
        y = log_field(grid64, np.exp(0.5 * np.sin(grid64.nodes) + 0.2 * np.cos(2 * grid64.nodes)))
        config = SolverConfig(tau=1e-3, backend=backend)
        ey = np.exp(y.values)
        d2 = np.array(dlss.diff_matrix(grid64, 2, backend))
        want = d2 @ (ey[:, None] * d2)
        want += d2 * (ey * (d2 @ y.values))[None, :]
        want[np.diag_indices_from(want)] += ey / config.tau
        assert np.array_equal(jacobian(y, config), want)

    @pytest.mark.parametrize(
        "backend,solver",
        [(SPECTRAL, LinearSolver.DENSE), (FD2, LinearSolver.DENSE), (FD2, LinearSolver.BANDED),
         (FD4, LinearSolver.DENSE), (FD4, LinearSolver.BANDED)],
    )
    def test_refresh_assembles_the_public_jacobian(self, grid64, backend, solver):
        # the chord refresh assembles from plain arrays and the matrices its
        # solve holds, which a second refresh reuses; both are jacobian's bits
        y = log_field(grid64, np.exp(0.5 * np.sin(grid64.nodes) + 0.2 * np.cos(2 * grid64.nodes)))
        config = SolverConfig(tau=1e-3, backend=backend, linear_solver=solver)
        matrices = _Matrices(grid64.length, backend)
        want = jacobian(y, config)
        for _ in range(2):
            assert np.array_equal(_jacobian(y.values, grid64, config, matrices), want)
        assert len(matrices) == (solver is LinearSolver.DENSE)

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
        y_prev = np.log(1.0 + 0.1 * np.cos(grid64.nodes))
        y, iters = newton_step(y_prev, grid64, config)
        r = evaluate(y, np.exp(y_prev), grid64, config).r
        assert np.abs(r).max() <= config.newton_tol
        assert 1 <= iters <= _MAX_NEWTON

    def test_step_preserves_mass_to_newton_tolerance(self, grid64):
        config = SolverConfig(tau=1e-3, newton_tol=1e-10)
        y_prev = np.log(1.0 + 0.2 * np.cos(grid64.nodes))
        y, _ = newton_step(y_prev, grid64, config)
        m_prev = _integrate(grid64, np.exp(y_prev))
        m_new = _integrate(grid64, np.exp(y))
        # mass defect per step is bounded by tau * L * ||F||_inf
        assert abs(m_new - m_prev) <= 2.0 * config.tau * grid64.length * config.newton_tol

    def test_exhausted_iterations_raise(self, grid64, monkeypatch):
        monkeypatch.setattr("dlss.solver._MAX_NEWTON", 1)
        config = SolverConfig(tau=0.05, newton_tol=1e-9)
        y_prev = 1.5 * np.cos(grid64.nodes)
        with pytest.raises(dlss.NoConvergence) as excinfo:
            newton_step(y_prev, grid64, config)
        assert excinfo.value.iterations == 1

    def test_reused_factor_with_singular_solve_is_refreshed(self, grid64):
        # a factor that has served an accepted iteration is refreshed in
        # place when its back-solve is not finite; a fresh one's failure
        # propagates to the caller, which halves tau
        config = SolverConfig(tau=1e-3, newton_tol=1e-10)
        ey_prev = 1.0 + 0.1 * np.cos(grid64.nodes)
        level = evaluate(np.log(ey_prev), ey_prev, grid64, config)

        class SingularFactor:
            def solve(self, rhs):
                raise dlss.SingularJacobian("back-solve was non-finite")

        workspace = workspace_for(grid64, config)
        workspace.factor, workspace.stale = SingularFactor(), True
        accepted, iters = _newton_loop(level, ey_prev, grid64, config, workspace)
        fresh, fresh_iters = _newton_loop(
            level, ey_prev, grid64, config, workspace_for(grid64, config)
        )
        assert accepted.rnorm <= config.newton_tol
        assert np.array_equal(accepted.y, fresh.y) and iters == fresh_iters
        assert not isinstance(workspace.factor, SingularFactor)

        workspace.factor, workspace.stale = SingularFactor(), False
        with pytest.raises(dlss.SingularJacobian):
            _newton_loop(level, ey_prev, grid64, config, workspace)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_trials_stay_silent(self, grid64, monkeypatch):
        # from 1 + 0.999 cos x the full Newton step overflows e^y; with no
        # tau halving to rescue it, the failure is the step's own, not a
        # floating-point warning
        monkeypatch.setattr("dlss.solver._MAX_TAU_HALVINGS", 0)
        with pytest.raises(dlss.NoConvergence) as excinfo:
            dlss.solve(cosine_density(grid64, 0.999), 1e-3, SolverConfig(tau=1e-3))
        assert excinfo.value.step_index == 1


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
        # tau = 0.05 takes 14 Newton iterations directly, so a budget of 6
        # cannot converge; the stepper must subdivide.  Total iteration
        # count proves it did.
        monkeypatch.setattr("dlss.solver._MAX_NEWTON", 6)
        u0 = Field(grid64, np.exp(1.5 * np.cos(grid64.nodes)), FieldKind.DENSITY)
        config = SolverConfig(tau=0.05, newton_tol=1e-9)
        traj = dlss.solve(u0, 0.05, config)
        assert traj.records[-1].t == pytest.approx(0.05)
        assert traj.records[-1].newton_iters > 6
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
        for t_final, tau in SMALL_OFF_LATTICE:
            with pytest.raises(dlss.ValidationError) as excinfo:
                dlss.solve(cosine_density(grid64), t_final, SolverConfig(tau=tau))
            assert excinfo.value.field == "t_final"

    def test_nonpositive_horizon_rejected(self, grid64):
        config = SolverConfig(tau=1e-3)
        # an infinite or NaN horizon has no step count either
        for t_final in NOT_POSITIVE_FINITE:
            with pytest.raises(dlss.ValidationError) as excinfo:
                dlss.solve(cosine_density(grid64), t_final, config)
            assert excinfo.value.field == "t_final"

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
        # it cost 23 to 26 Jacobians here, depending on the BLAS threads.
        # The steps stay on all 256 points, where that floor is.  Every
        # refresh assembles through _jacobian.
        assembled = []

        def counting(y, grid, config, matrices):
            assembled.append(y)
            return _jacobian(y, grid, config, matrices)

        monkeypatch.setattr("dlss.solver._jacobian", counting)
        monkeypatch.setattr("dlss.solver._resolving_size", full_grid)
        dlss.solve(cosine_density(grid256), 0.03, SolverConfig(tau=1e-4))
        assert 1 <= len(assembled) <= 3

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
        y = np.log(u0.values)
        for _ in range(n_steps):
            y, _ = newton_step(y, grid64, config)
        u_step = np.exp(y)
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
            rep = dlss.report(u, config.backend)
            assert record.mass == _integrate(grid64, u.values)
            assert record.entropy_rel == pytest.approx(rep.entropy_rel, rel=1e-12)
            assert record.lyap == pytest.approx(rep.lyap_u_minus_logu, rel=1e-12)
            assert record.production == pytest.approx(rep.production, rel=1e-12)
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


def spy_grid_rule(monkeypatch, rule=_resolving_size):
    """Route the grid rule of solve through ``rule`` and return the list of
    (m, size) that its calls append: the grid a step ran on and the one
    the next step runs on."""
    calls = []

    def spy(level, m, n, length, config):
        size = rule(level, m, n, length, config)
        calls.append((m, size))
        return size

    monkeypatch.setattr("dlss.solver._resolving_size", spy)
    return calls


def spy_steps(monkeypatch):
    """Route the steps of solve through a spy of ``_advance`` as it is now
    and return the list of the points of the grid that each step, 1, 2,
    ..., ran on."""
    steps = []
    advance = dlss.solver._advance

    def spy(base, start, grid, config, workspace, depth, step_index):
        if depth == 0:
            steps.append(grid.n_points)
        return advance(base, start, grid, config, workspace, depth, step_index)

    monkeypatch.setattr("dlss.solver._advance", spy)
    return steps


def spy_guard(monkeypatch):
    """Route the guard through a spy and return the list of (level, grid
    points, verdict) of its calls."""
    verdicts = []
    clears = _Guard.clears

    def spy(self, level, config):
        verdict = clears(self, level, config)
        verdicts.append((level, level.y.size, verdict))
        return verdict

    monkeypatch.setattr(_Guard, "clears", spy)
    return verdicts


def force_doubling_after(step, monkeypatch):
    """Report the level accepted at ``step`` unresolved, as no datum does
    since the flow only smooths: the guard does not clear it and the rule
    doubles its grid.  Returns the list of spy_steps and that of
    spy_grid_rule."""
    steps = spy_steps(monkeypatch)
    clears = _Guard.clears
    monkeypatch.setattr(
        _Guard, "clears", lambda self, level, config: len(steps) != step and clears(self, level, config)
    )

    def unresolved_once(level, m, n, length, config):
        return min(2 * m, n) if len(steps) == step else _resolving_size(level, m, n, length, config)

    return steps, spy_grid_rule(monkeypatch, unresolved_once)


def full_grid(level, m, n, length, config):
    """A grid rule that admits no halving."""
    return m


def coarse_gap_bound(n_steps, config, u_min):
    """How far a coarse solve and its full-grid oracle may drift apart in a
    record or in u, relative to the largest value of that column.  Each
    step of either run accepts |F| <= newton_tol on its nodes, and a switch
    moves F by at most newton_tol more (the grid rule), so the levels they
    accept differ by J^-1 of at most 2 newton_tol.  J is at least u_min
    (1/tau + k^4) mode by mode, which takes that to at most 2 tau
    newton_tol / u_min in y and, through the k^2 of D2 (k^2 tau / (1 +
    tau k^4) <= sqrt(tau) / 2), sqrt(tau) newton_tol / u_min in D2 y, the
    highest derivative a record reads.  Summed over the steps, with no
    credit for the decay:"""
    return n_steps * math.sqrt(config.tau) * config.newton_tol / u_min


def crafted_level(m, modes, flux=None):
    """A level on m points whose y = sum c cos(k x) over ``modes`` {k: c}
    and whose D2 (e^y D2 y) is the same sum over ``flux`` (none when
    None); e^y and the kept rffts of y and of D2 (e^y D2 y) are all the
    grid rule reads, the first rfft as an evaluation keeps it."""
    spectra = np.zeros((2, m // 2 + 1), dtype=complex)
    for row, terms in enumerate((modes, flux or {})):
        for k, c in terms.items():
            spectra[row, k] = c * m / (1 if k == m // 2 else 2)
    y = np.fft.irfft(spectra[0], m)
    return _Level(y, np.exp(y), y, y, spectra[1], _rfft(y))


COARSE_DATA = {
    **{
        f"decay-{seed}": lambda grid, seed=seed: 1.0 + 0.1 * np.cos(grid.nodes)
        + dlss.random_smooth_field(grid, 4, seed, amplitude=0.01).values
        for seed in (1, 2, 3)
    },
    "cos-0.1": lambda grid: 1.0 + 0.1 * np.cos(grid.nodes),
    "cos-0.5": lambda grid: 1.0 + 0.5 * np.cos(grid.nodes),
    # y of six modes: its first step fills modes far above them
    "log-density": lambda grid: dlss.random_log_density(grid, 6, 5, amplitude=0.3).values,
}


class TestCoarseGrid:
    """Spectral solves step on the coarsest halving of the grid that the
    grid rule admits."""

    CONFIG = SolverConfig(tau=1e-4)

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    @pytest.mark.parametrize("datum", sorted(COARSE_DATA))
    def test_matches_full_grid_oracle(self, monkeypatch, n_points, datum):
        grid = dlss.make_grid(TWO_PI, n_points)
        u0 = Field(grid, COARSE_DATA[datum](grid), FieldKind.DENSITY)
        calls = spy_grid_rule(monkeypatch)
        coarse = dlss.solve(u0, 0.1, self.CONFIG)
        switches = sum(m != size for m, size in calls)
        monkeypatch.setattr("dlss.solver._resolving_size", full_grid)
        if (n_points, datum) == (256, "cos-0.5"):
            # the full grid is a stalled cell of the Newton residual floor;
            # the coarse solve runs on 128 points from t = 0 and converges
            assert calls[0] == (256, 128)
            with pytest.raises(dlss.NoConvergence):
                dlss.solve(u0, 0.1, self.CONFIG)
            return
        oracle = dlss.solve(u0, 0.1, self.CONFIG)
        if (n_points, datum) in {(64, "cos-0.5"), (64, "log-density")}:
            # y keeps modes from 8 up above both bounds all run long
            assert switches == 0
            assert coarse.records == oracle.records
            return
        assert switches >= 1
        assert coarse.final_y.grid == grid
        u_min = min(r.min_u for r in oracle.records)
        bound = coarse_gap_bound(len(oracle.records) - 1, self.CONFIG, u_min)
        columns = np.array([r[1:6] for r in coarse.records])
        reference = np.array([r[1:6] for r in oracle.records])
        gap = np.abs(columns - reference).max(axis=0)
        assert (gap <= bound * np.abs(reference).max(axis=0)).all()
        u_coarse, u_oracle = np.exp(coarse.final_y.values), np.exp(oracle.final_y.values)
        assert np.abs(u_coarse - u_oracle).max() <= bound * u_oracle.max()

    def test_min_u_is_taken_on_the_requested_nodes(self, grid256, monkeypatch):
        # a run to k tau retraces level k bit for bit, and its final_y is
        # that level on the 256 requested nodes; the minimum over the nodes
        # of the grid the step ran on is larger
        u0 = Field(grid256, COARSE_DATA["decay-1"](grid256), FieldKind.DENSITY)
        steps = spy_steps(monkeypatch)
        traj = dlss.solve(u0, 0.06, self.CONFIG)
        for k in (1, 100, 600):
            run = dlss.solve(u0, k * self.CONFIG.tau, self.CONFIG)
            assert run.final_y.grid == grid256
            u = np.exp(run.final_y.values)
            step_grid = steps[k - 1]
            assert step_grid < 256
            assert traj.records[k].min_u == u.min()
            assert traj.records[k].min_u < u[:: 256 // step_grid].min()

    @pytest.mark.parametrize(
        "m,n,modes,tol,size",
        [
            # nothing above mode 1: the coarsest grid
            (64, 256, {1: 0.1}, 1e-8, 8),
            # mode 12 is in the top band of 32 points, not of 64
            (64, 256, {1: 0.1, 12: 1e-6}, 1e-8, 64),
            # mode 20 is in the top band of 64 points: double, up to n
            (64, 256, {1: 0.1, 20: 1e-6}, 1e-8, 128),
            (64, 64, {1: 0.1, 20: 1e-6}, 1e-8, 64),
            # every grid is even: 200 points halve to 100 and 50, not 25
            (200, 200, {1: 0.1}, 1e-8, 50),
            # the step sense alone: mode 12 through the symbol is below 1e-6
            (64, 256, {1: 0.1, 12: 1e-11}, 1e-6, 8),
            (64, 256, {1: 0.1, 12: 1e-11}, 1e-8, 64),
            # the rounding sense alone: through the symbol mode 400 is far
            # above newton_tol, its mean square below the roundoff
            (1024, 1024, {1: 0.1, 400: 5e-17}, 1e-8, 8),
            (1024, 1024, {1: 0.1, 400: 1e-15}, 1e-8, 1024),
        ],
    )
    def test_rule_on_crafted_spectra(self, m, n, modes, tol, size):
        config = SolverConfig(tau=1e-4, newton_tol=tol)
        assert _resolving_size(crafted_level(m, modes), m, n, TWO_PI, config) == size

    @pytest.mark.parametrize("flux,size", [({12: 1e-3}, 64), ({20: 1e-3}, 128), ({12: 1e-12}, 8)])
    def test_rule_reads_the_level_the_step_will_make(self, flux, size):
        # y has one mode, but a step would put F / (1/tau + k^4), about
        # 3e-8 at mode 12 or 6e-9 at mode 20, into the next level
        config = SolverConfig(tau=1e-4)
        level = crafted_level(64, {1: 0.1}, flux)
        assert _resolving_size(level, 64, 256, TWO_PI, config) == size

    def test_rule_reads_the_kept_spectrum_of_y(self, grid256, monkeypatch):
        # the rule reads the rfft of y and the spectrum of D2 (e^y D2 y)
        # that four transforms make, bit for bit: kept by a 256-point
        # level, taken again for a level that products made.  This run
        # halves to 128 points at t = 0, the largest product grid, and the
        # guard sends it to the rule after most steps.
        kept = []

        def checked(level, m, length):
            y_hat, spectrum = _spectra(level, m, length)
            symbol = (1j * (2.0 * math.pi / length) * np.arange(m // 2 + 1)) ** 2
            d2y = np.fft.irfft(np.fft.rfft(level.y) * symbol, n=m)
            assert np.array_equal(y_hat, _rfft(level.y))
            assert np.array_equal(spectrum, np.fft.rfft(level.ey * d2y) * symbol)
            kept.append(level.y_hat is not None)
            return y_hat, spectrum

        monkeypatch.setattr("dlss.solver._spectra", checked)
        calls = spy_grid_rule(monkeypatch)
        verdicts = spy_guard(monkeypatch)
        traj = dlss.solve(cosine_density(grid256, 0.5), 0.03, self.CONFIG)
        assert len(traj.records) == 301
        assert calls[0] == (256, 128)
        # one read before each of steps 1, 2, 4, ..., 256 and one after each
        # step that the guard does not clear, the first on 256 points
        fallbacks = sum(not verdict for _, _, verdict in verdicts)
        assert kept[0] and not any(kept[1:]) and len(kept) == 9 + fallbacks

    def test_resample_pads_and_truncates_the_spectrum(self):
        eps = np.finfo(float).eps
        y = crafted_level(32, {1: 0.1, 3: 0.02, 16: 1e-3}).y
        y_hat = np.fft.rfft(y)
        # doubling: the interpolant, its Nyquist mode split between +-16
        fine = _resample(y_hat, 32, 64)
        assert np.abs(fine[::2] - y).max() <= 4 * eps
        padded = np.zeros(33, dtype=complex)
        padded[:16] = 2.0 * y_hat[:16]
        padded[16] = y_hat[16]
        assert np.abs(np.fft.rfft(fine) - padded).max() <= 64 * eps
        # halving: the modes from 16 up dropped
        kept = y_hat.copy()
        kept[16] = 0.0
        coarse = _resample(np.fft.rfft(fine), 64, 32)
        assert np.abs(coarse - np.fft.irfft(kept, 32)).max() <= 4 * eps

    def test_run_doubles_when_its_grid_stops_resolving(self, grid128, monkeypatch):
        # between the reads before steps 256 and 512, on 32 points
        steps, calls = force_doubling_after(300, monkeypatch)
        u0 = cosine_density(grid128)
        coarse = dlss.solve(u0, 0.05, self.CONFIG)
        assert (32, 64) in calls
        assert steps[299] == 32 and steps[300] == 64
        monkeypatch.setattr("dlss.solver._resolving_size", full_grid)
        oracle = dlss.solve(u0, 0.05, self.CONFIG)
        bound = coarse_gap_bound(500, self.CONFIG, min(r.min_u for r in oracle.records))
        u_coarse, u_oracle = np.exp(coarse.final_y.values), np.exp(oracle.final_y.values)
        assert np.abs(u_coarse - u_oracle).max() <= bound * u_oracle.max()

    def test_requested_grid_reads_the_rule_before_steps_2_to_the_j(self, grid64, monkeypatch):
        # 1 + 0.5 cos x keeps all 64 points, where the rule can only halve
        calls = spy_grid_rule(monkeypatch)
        traj = dlss.solve(cosine_density(grid64, 0.5), 0.01, self.CONFIG)
        assert len(traj.records) == 101
        # before steps 1, 2, 4, ..., 64
        assert calls == [(64, 64)] * 7

    def test_full_grid_512_agrees_with_fd4(self, monkeypatch):
        # the backend cross-check of acceptance criterion 8, with the
        # spectral solve held on its 512 points: the coarse grids run it on
        # 32 from t = 0, so only this covers the 512-point residual,
        # Jacobian and LU of a spectral solve
        grid = dlss.make_grid(TWO_PI, 512)
        u0 = cosine_density(grid)
        config = SolverConfig(tau=1e-3, newton_tol=3e-7)
        calls = spy_grid_rule(monkeypatch, full_grid)
        spectral = dlss.solve(u0, 1.0, config, record_every=1000)
        assert set(calls) == {(512, 512)}
        fd4 = dlss.solve(
            u0, 1.0, replace(config, backend=FD4, linear_solver=LinearSolver.BANDED),
            record_every=1000,
        )
        gap = np.abs(np.exp(spectral.final_y.values) - np.exp(fd4.final_y.values)).max()
        assert gap < 1e-7

    @pytest.mark.parametrize("backend", [FD2, FD4], ids=["fd2", "fd4"])
    def test_finite_differences_never_call_the_rule(self, grid64, monkeypatch, backend):
        def forbidden(*args):
            raise AssertionError("finite differences stay on their grid")

        monkeypatch.setattr("dlss.solver._resolving_size", forbidden)
        traj = dlss.solve(cosine_density(grid64), 0.01, SolverConfig(tau=1e-3, backend=backend))
        assert len(traj.records) == 11

    @pytest.mark.parametrize("n_points", [512, 1024])
    @pytest.mark.parametrize("amplitude", [0.1, 0.5])
    def test_stalled_full_grid_cells_converge(self, n_points, amplitude):
        # on the full grid these raised NoConvergence at the residual floor
        grid = dlss.make_grid(TWO_PI, n_points)
        traj = dlss.solve(cosine_density(grid, amplitude), 5e-4, SolverConfig(tau=1e-4))
        assert len(traj.records) == 6
        assert dlss.lyapunov_check(traj)


class TestGuard:
    """Between the reads of the grid rule before steps 2^j, the guard
    sends a coarse grid's level to the rule whenever it cannot clear it."""

    CONFIG = SolverConfig(tau=1e-4)

    def test_filled_top_band_doubles_at_the_next_step(self, grid256, monkeypatch):
        # decay-1 steps on 64 points until the read before step 512; mode 20
        # is in the top band [16, 32) of 64 points, and step 300 is between
        # the reads before steps 256 and 512
        def filled(base, start, grid, config, workspace, depth, step_index):
            level, iters, clean = _advance(base, start, grid, config, workspace, depth, step_index)
            if depth == 0 and step_index == 300:
                y = level.y + 1e-6 * np.cos(20.0 * grid.nodes)
                level = _evaluate(y, base.ey, grid, config, workspace.matrices)
            return level, iters, clean

        monkeypatch.setattr("dlss.solver._advance", filled)
        steps = spy_steps(monkeypatch)
        calls = spy_grid_rule(monkeypatch)
        u0 = Field(grid256, COARSE_DATA["decay-1"](grid256), FieldKind.DENSITY)
        dlss.solve(u0, 0.0302, self.CONFIG)
        assert steps[1:300] == [64] * 299
        assert steps[300:] == [128, 128]
        assert (64, 128) in calls

    def test_other_grid_sizes_read_the_rule_after_every_step(self, monkeypatch):
        # the margin bounds FFTs of radix 2; 200 points halve to 100 and 50
        grid = dlss.make_grid(TWO_PI, 200)
        calls, verdicts = spy_grid_rule(monkeypatch), spy_guard(monkeypatch)
        dlss.solve(cosine_density(grid), 0.003, self.CONFIG)
        assert calls[0][1] < 200
        assert verdicts == [] and len(calls) == 30

    @staticmethod
    def assert_sound(level, m, n, config, verdicts, cleared=None):
        """The guard clears ``level``, or has ``cleared`` it, only when the
        rule would not double it; appends (cleared, doubled) to
        ``verdicts``."""
        if cleared is None:
            cleared = _Guard(TWO_PI, m).clears(level, config)
        doubled = _resolving_size(level, m, n, TWO_PI, config) > m
        assert not (cleared and doubled)
        verdicts.append((cleared, doubled))

    def test_crafted_levels(self):
        # the y of the crafted levels of TestCoarseGrid on grids of products,
        # evaluated as a solve makes a level: the guard forms the flux from
        # y, so the crafted flux of the level the step will make enters as
        # its y, and each top-band mode is swept through both verdicts
        cases = [
            (64, {1: 0.1}, 1e-8), (64, {1: 0.1, 12: 1e-6}, 1e-8), (64, {1: 0.1, 20: 1e-6}, 1e-8),
            (64, {1: 0.1, 12: 1e-11}, 1e-6), (64, {1: 0.1, 12: 1e-11}, 1e-8),
            (64, {1: 0.1, 12: 1e-3 / (1e4 + 12 ** 4)}, 1e-8),
            (64, {1: 0.1, 20: 1e-3 / (1e4 + 20 ** 4)}, 1e-8),
        ]
        for m, mode in [(32, 6), (32, 10), (64, 12), (64, 20), (128, 40), (128, 60)]:
            for amplitude in 10.0 ** -np.arange(4, 18):
                cases.append((m, {1: 0.1, mode: amplitude}, 1e-8))
        verdicts = []
        for m, modes, tol in cases:
            config = SolverConfig(tau=1e-4, newton_tol=tol)
            y = crafted_level(m, modes).y
            grid = dlss.make_grid(TWO_PI, m)
            self.assert_sound(evaluate(y, np.exp(y), grid, config), m, 2 * m, config, verdicts)
        assert (True, False) in verdicts and (False, True) in verdicts

    @pytest.mark.parametrize("n_points", [128, 256])
    def test_levels_of_coarse_solves(self, monkeypatch, n_points):
        grid = dlss.make_grid(TWO_PI, n_points)
        seen, verdicts = spy_guard(monkeypatch), []
        for datum in sorted(COARSE_DATA):
            dlss.solve(Field(grid, COARSE_DATA[datum](grid), FieldKind.DENSITY), 0.1, self.CONFIG)
        monkeypatch.undo()
        for level, m, cleared in seen:
            self.assert_sound(level, m, n_points, self.CONFIG, verdicts, cleared)
        assert (True, False) in verdicts


def oracle_record(t, level, iters, grid, n):
    """The record of one accepted level, reduced on its own: the formula
    solve used before it reduced its records a block at a time."""
    h, ey, y = grid.spacing, level.ey, level.y
    ey_n = ey if grid.n_points == n else np.exp(_resample(_rfft(level.y), grid.n_points, n))
    mass = float(h * np.add.reduce(ey))
    log_u_bar = np.log(mass / grid.length)
    return TimeSeriesRecord(
        t,
        mass,
        float(h * np.add.reduce(ey * (y - log_u_bar))),
        float(h * np.add.reduce(ey - y)),
        float(h * np.add.reduce(ey * level.d2y * level.d2y)),
        float(np.minimum.reduce(ey_n)),
        iters,
    )


def banded2048_run(record_every):
    """Five fd4 steps on 2048 points with the cyclic banded LU, the grid a
    finite-difference run never leaves."""
    grid = dlss.make_grid(TWO_PI, 2048)
    u0 = dlss.random_log_density(grid, 4, 3, amplitude=0.4)
    config = SolverConfig(tau=1e-2, newton_tol=1e-4, backend=FD4, linear_solver=LinearSolver.BANDED)
    return lambda: dlss.solve(u0, 0.05, config, record_every=record_every)


def record_case(name, monkeypatch):
    """(requested points, a thunk that runs the case) for each case of
    TestRecordBlocks."""
    if name == "switch-64-32" or name.startswith("every-"):
        # the rule moves this run to 64 points at t = 0 and to 32 at step
        # 499, while a block of 64 rows holds 50 levels of 64 points
        grid = dlss.make_grid(TWO_PI, 256)
        u0 = Field(grid, COARSE_DATA["decay-1"](grid), FieldKind.DENSITY)
        if name == "switch-64-32":
            return 256, lambda: dlss.solve(u0, 0.1, SolverConfig(tau=1e-4))
        # 22 steps: the last record is off the lattice of 4 and of 5
        every = int(name.split("-")[1])
        return 256, lambda: dlss.solve(u0, 22e-4, SolverConfig(tau=1e-4), record_every=every)
    if name == "doubling":
        # the forced doubling of TestCoarseGrid: 32 points back to 64
        def run():
            steps.clear()
            calls.clear()
            traj = dlss.solve(cosine_density(grid128), 0.05, SolverConfig(tau=1e-4))
            assert steps[299:301] == [32, 64]
            return traj

        grid128 = dlss.make_grid(TWO_PI, 128)
        steps, calls = force_doubling_after(300, monkeypatch)
        return 128, run
    if name == "tau-halving":
        # as in TestSolve: six Newton iterations cannot take tau = 0.05
        monkeypatch.setattr("dlss.solver._MAX_NEWTON", 6)
        grid64 = dlss.make_grid(TWO_PI, 64)
        u0 = Field(grid64, np.exp(1.5 * np.cos(grid64.nodes)), FieldKind.DENSITY)
        return 64, lambda: dlss.solve(u0, 0.15, SolverConfig(tau=0.05, newton_tol=1e-9))
    assert name == "fd4-banded-2048"
    return 2048, banded2048_run(1)


class TestRecordBlocks:
    """solve reduces its records a block of levels at a time, with the
    formulas and order of one record at a time."""

    @pytest.mark.parametrize(
        "name",
        ["switch-64-32", "doubling", "tau-halving", "every-1", "every-4", "every-5", "fd4-banded-2048"],
    )
    def test_blocks_equal_the_per_record_oracle(self, monkeypatch, name):
        n, run = record_case(name, monkeypatch)
        seen = []
        add = _Records.add

        def spy(self, t, level, iters, grid):
            # the oracle reads the level before the block copies it
            seen.append((oracle_record(t, level, iters, grid, n), grid.n_points, level))
            add(self, t, level, iters, grid)

        monkeypatch.setattr(_Records, "add", spy)
        results = []
        # the default block, then 1 and 3 rows
        for block_values in (None, n, 3 * n):
            if block_values is not None:
                monkeypatch.setattr("dlss.solver._BLOCK_VALUES", block_values)
            seen.clear()
            traj = run()
            oracle, sizes, levels = zip(*seen)
            assert traj.records == oracle
            last, m = levels[-1], sizes[-1]
            final_y = last.y if m == n else _resample(_rfft(last.y), m, n)
            assert np.array_equal(traj.final_y.values, final_y)
            results.append((traj.records, traj.final_y.values))
        for records, final_y in results[1:]:
            assert records == results[0][0]
            assert np.array_equal(final_y, results[0][1])
        if name == "switch-64-32":
            # the 64-point rows before the switch to 32 do not fill whole
            # blocks of the default 64 rows
            switch = next(k for k in range(1, len(sizes)) if sizes[k - 1 : k + 1] == (64, 32))
            assert (switch - sizes.index(64)) % 64 != 0
        if name == "tau-halving":
            assert traj.records[1].newton_iters > 6

    def test_short_run_allocates_only_the_rows_it_fills(self, monkeypatch):
        # 6 records at record_every = 1 and 2 at 5, both within the 8 rows
        # of n = 2048; the Python objects of a run move the traced peak by
        # a few hundred bytes from one run to the next
        row = 3 * 2048 * 8  # e^y, y and D2 y of one record
        allowance = 2048 * 8

        def peak(record_every):
            run = banded2048_run(record_every)
            run()  # cached taps and weights are not the run's
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        every = peak(1)
        assert every <= peak(5) + 6 * row + allowance
        # rows are capped at the records of the run, not only by the block
        monkeypatch.setattr("dlss.solver._BLOCK_VALUES", 2 ** 30)
        assert peak(1) <= every + allowance


class TestTimeSeriesRecord:
    """Records are named tuples in CSV column order: cheap to build, and
    equal, hashed and printed as the frozen records they replaced."""

    FIELDS = {
        "t": float, "mass": float, "entropy_rel": float, "lyap": float,
        "production": float, "min_u": float, "newton_iters": int,
    }

    def test_fields_keep_their_names_order_and_types(self):
        assert TimeSeriesRecord._fields == tuple(self.FIELDS)
        assert typing.get_type_hints(TimeSeriesRecord) == self.FIELDS
        assert list(typing.get_type_hints(TimeSeriesRecord)) == list(self.FIELDS)

    def test_constructor_repr_equality_and_hash(self):
        values = (0.5, TWO_PI, 1e-3, 2.0, 3.0, 0.9, 4)
        record = TimeSeriesRecord(*values)
        assert record == TimeSeriesRecord(**dict(zip(self.FIELDS, values)))
        assert record != TimeSeriesRecord(*values[:-1], 5)
        assert [getattr(record, name) for name in self.FIELDS] == list(values)
        assert repr(record) == (
            "TimeSeriesRecord(t=0.5, mass=6.283185307179586, entropy_rel=0.001, "
            "lyap=2.0, production=3.0, min_u=0.9, newton_iters=4)"
        )
        # the hash of the field values, as a frozen dataclass hashes
        assert hash(record) == hash(values)
        assert len({record, TimeSeriesRecord(*values)}) == 1
        with pytest.raises(TypeError):
            TimeSeriesRecord(*values[:-1])

    def test_immutable(self):
        record = TimeSeriesRecord(0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0)
        with pytest.raises(AttributeError):
            record.mass = 2.0
        with pytest.raises(TypeError):
            record[1] = 2.0


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
