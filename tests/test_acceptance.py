"""Acceptance gate: one test per headline claim, each printing a verdict line.

Everything here runs the public API end to end at the tolerances the
package advertises; the module is the single place to look to see whether
a checkout still delivers the certified constants, decay rates and
structure-preservation guarantees.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import dlss
from dlss import FD2, FD4, Field, FieldKind, LinearSolver, SolverConfig
from dlss.grid import _integrate
from dlss.inequalities import _evaluate, convex_sobolev, log_sobolev, poincare
from dlss.rng import SplitMix64, random_log_density
from dlss.runio import default_fit_window, emit_timeseries, fit_decay, identity_suite, read_timeseries

TWO_PI = 2.0 * math.pi


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


@pytest.fixture(scope="module")
def grid256():
    return dlss.make_grid(TWO_PI, 256)


@pytest.fixture(scope="module")
def decay_run(grid256):
    """The headline trajectory: u0 = 1 + 0.1 cos x, tau = 1e-4, T = 3."""
    u0 = Field(grid256, 1.0 + 0.1 * np.cos(grid256.nodes), FieldKind.DENSITY)
    config = SolverConfig(tau=1e-4, newton_tol=1e-8)
    t0 = time.perf_counter()
    trajectory = dlss.solve(u0, 3.0, config, record_every=1)
    elapsed = time.perf_counter() - t0
    return trajectory, elapsed


def test_criterion_1_poincare_constants(grid256):
    t0 = time.perf_counter()
    res1 = dlss.certify_constant(poincare(1), grid256)
    t1 = time.perf_counter()
    res2 = dlss.certify_constant(poincare(2), grid256)
    t2 = time.perf_counter()
    ok = (
        res1.converged and res1.rel_error < 1e-8
        and res2.converged and res2.rel_error < 1e-6
        and t1 - t0 < 5.0 and t2 - t1 < 5.0
    )
    verdict(
        "criterion 1",
        ok,
        f"poincare n=1 rel_err={res1.rel_error:.2e} ({t1 - t0:.2f}s), "
        f"n=2 rel_err={res2.rel_error:.2e} ({t2 - t1:.2f}s)",
    )
    assert res1.converged and res1.rel_error < 1e-8
    assert res2.converged and res2.rel_error < 1e-6
    assert t1 - t0 < 5.0 and t2 - t1 < 5.0


def test_criterion_2_log_sobolev_constant_and_flow(grid256):
    t0 = time.perf_counter()
    res = dlss.certify_constant(log_sobolev(1), grid256)
    u = Field(grid256, 1.0 + 0.5 * np.cos(grid256.nodes), FieldKind.DENSITY)
    records = dlss.heatflow_verify(u, 1.0, 10.0, 1e-3)
    elapsed = time.perf_counter() - t0
    f = np.array([r.f_value for r in records])
    max_rise = float(np.diff(f).max())
    ok = (
        res.converged and res.rel_error < 1e-2
        and res.analytic == pytest.approx(0.5)
        and max_rise <= 1e-10
        and f[-1] < 1e-6 * f[0]
        and elapsed < 30.0
    )
    verdict(
        "criterion 2",
        ok,
        f"logsob value={res.value:.6f} rel_err={res.rel_error:.2e}, "
        f"f(10)/f(0)={f[-1] / f[0]:.2e}, max_rise={max_rise:.2e} ({elapsed:.1f}s)",
    )
    assert res.converged and res.rel_error < 1e-2
    assert max_rise <= 1e-10
    assert f[-1] < 1e-6 * f[0]
    assert elapsed < 30.0


def test_criterion_3_higher_order_constants(grid256):
    res2 = dlss.certify_constant(log_sobolev(2), grid256)
    res3 = dlss.certify_constant(log_sobolev(3), grid256)
    ok = (
        res2.converged and res2.rel_error < 1e-2
        and res3.converged and res3.rel_error < 2e-2
    )
    verdict(
        "criterion 3",
        ok,
        f"logsob n=2 rel_err={res2.rel_error:.2e}, n=3 rel_err={res3.rel_error:.2e}",
    )
    assert res2.converged and res2.rel_error < 1e-2
    assert res3.converged and res3.rel_error < 2e-2


def test_criterion_4_convex_sobolev_family(grid256):
    stream = SplitMix64(42)
    violations = 0
    worst_margin = math.inf
    for _ in range(100):
        u = random_log_density(grid256, 16, stream.next_u64())
        for p in (1.2, 1.5, 2.0):
            lhs, rhs, holds = dlss.convex_sobolev_check(u, p)
            worst_margin = min(worst_margin, rhs - lhs)
            violations += 0 if holds else 1
    res = dlss.certify_constant(convex_sobolev(2.0), grid256)
    ok = violations == 0 and res.converged and res.rel_error < 1e-2
    verdict(
        "criterion 4",
        ok,
        f"0/300 violations expected, got {violations}; min(rhs-lhs)={worst_margin:.3f}; "
        f"p=2 infimum rel_err={res.rel_error:.2e}",
    )
    assert violations == 0
    assert res.converged and res.rel_error < 1e-2


def test_criterion_5_entropy_decay_rate(decay_run):
    trajectory, elapsed = decay_run
    records = trajectory.records
    e0 = records[0].entropy_rel
    worst = max(r.entropy_rel / (math.exp(-2.0 * r.t) * e0) for r in records[1:])
    series = [(r.t, r.entropy_rel) for r in records]
    report = fit_decay(series, default_fit_window(series), trajectory.grid.length)
    ok = worst <= 1.0 + 1e-6 and 1.0 <= report.ratio <= 1.15 and elapsed < 120.0
    verdict(
        "criterion 5",
        ok,
        f"max E(t)/(e^-2t E0)={worst:.9f}, fit ratio={report.ratio:.6f} "
        f"(r2={report.r_squared:.6f}), solve {elapsed:.1f}s",
    )
    assert worst <= 1.0 + 1e-6
    assert 1.0 <= report.ratio <= 1.15
    assert elapsed < 120.0


def test_criterion_6_structure_preservation(decay_run):
    trajectory, _ = decay_run
    records = trajectory.records
    m0 = records[0].mass
    drift = max(abs(r.mass - m0) / m0 for r in records)
    min_u = min(r.min_u for r in records)
    monotone = dlss.lyapunov_check(trajectory)
    ok = drift < 1e-8 and min_u > 0.0 and monotone
    verdict(
        "criterion 6",
        ok,
        f"mass drift={drift:.2e}, min_u={min_u:.4f}, lyapunov monotone={monotone}",
    )
    assert drift < 1e-8
    assert min_u > 0.0
    assert monotone


def test_criterion_7_identity_suite(grid256):
    spectral = identity_suite(grid256, trials=100, seed=0)
    coarse = identity_suite(grid256, FD2, trials=20, seed=0, n_modes=16)
    fine = identity_suite(dlss.make_grid(TWO_PI, 512), FD2, trials=20, seed=0, n_modes=16)
    orders = {
        key: math.log2(coarse["max_rel_err"][key] / fine["max_rel_err"][key])
        for key in coarse["max_rel_err"]
    }
    ok = spectral["overall_max_rel_err"] < 1e-8 and all(
        abs(order - 2.0) <= 0.3 for order in orders.values()
    )
    verdict(
        "criterion 7",
        ok,
        f"spectral max rel err={spectral['overall_max_rel_err']:.2e}; "
        "fd2 orders " + ", ".join(f"{k}={v:.2f}" for k, v in orders.items()),
    )
    assert spectral["overall_max_rel_err"] < 1e-8
    for key, order in orders.items():
        assert abs(order - 2.0) <= 0.3, key


def test_criterion_8_scheme_consistency():
    # temporal order from a tau-halving pair of differences
    grid = dlss.make_grid(TWO_PI, 64)
    u0 = Field(grid, 1.0 + 0.1 * np.cos(grid.nodes), FieldKind.DENSITY)
    finals = [
        np.exp(dlss.solve(u0, 1.0, SolverConfig(tau=tau, newton_tol=1e-10)).final_y.values)
        for tau in (2e-3, 1e-3, 5e-4)
    ]
    d_coarse = np.abs(finals[0] - finals[1]).max()
    d_fine = np.abs(finals[1] - finals[2]).max()
    order = math.log2(d_coarse / d_fine)

    # backend cross-check on the fine grid; FD4 takes the banded path
    grid512 = dlss.make_grid(TWO_PI, 512)
    u0_512 = Field(grid512, 1.0 + 0.1 * np.cos(grid512.nodes), FieldKind.DENSITY)
    config = SolverConfig(tau=1e-3, newton_tol=3e-7)
    spectral = dlss.solve(u0_512, 1.0, config, record_every=1000)
    fd4 = dlss.solve(
        u0_512, 1.0,
        replace(config, backend=FD4, linear_solver=LinearSolver.BANDED),
        record_every=1000,
    )
    gap = np.abs(
        np.exp(spectral.final_y.values) - np.exp(fd4.final_y.values)
    ).max()
    ok = abs(order - 1.0) <= 0.3 and gap < 1e-5
    verdict(
        "criterion 8",
        ok,
        f"temporal order={order:.3f}, spectral-vs-fd4 sup gap={gap:.2e}",
    )
    assert abs(order - 1.0) <= 0.3
    assert gap < 1e-5


def test_criterion_9_property_suite(grid256, tmp_path):
    grid = dlss.make_grid(TWO_PI, 64)
    stream = SplitMix64(9)
    link_constant = grid.length ** 2 / (2.0 * math.pi ** 2)
    jensen_ok = chain_ok = True
    quotient_margins = {1: math.inf, 2: math.inf, 3: math.inf}
    for _ in range(1000):
        seed = stream.next_u64()
        u = random_log_density(grid, 8, seed)
        jensen_ok &= dlss.report(u).entropy_rel >= -1e-13

        for n in (1, 2, 3):
            q = _evaluate(log_sobolev(n), u.values, u.grid)[0]
            quotient_margins[n] = min(quotient_margins[n], q - 0.5)

        # chain: int u^2 log(u^2/||u||^2) <= (L^2/2pi^2) int u_x^2
        #        <= 2 (L/2pi)^{2n} int |u^(n)|^2, links checked separately
        norm_sq = _integrate(grid, u.values ** 2)
        ent = _integrate(grid, u.values ** 2 * np.log(u.values ** 2 / (norm_sq / grid.length)))
        ux = dlss.derivative(u, 1).values
        fisher = _integrate(grid, ux * ux)
        uxx = dlss.derivative(u, 2).values
        second = _integrate(grid, uxx * uxx)
        chain_ok &= ent <= link_constant * fisher + 1e-10
        chain_ok &= link_constant * fisher <= 2.0 * link_constant ** 2 * second + 1e-10

    quotient_ok = all(margin > -1e-8 for margin in quotient_margins.values())

    # determinism and CSV round-trip of an actual run
    u0 = Field(grid, 1.0 + 0.1 * np.cos(grid.nodes), FieldKind.DENSITY)
    config = SolverConfig(tau=1e-3, newton_tol=1e-10)
    run_a = dlss.solve(u0, 0.05, config)
    run_b = dlss.solve(u0, 0.05, config)
    deterministic = run_a.records == run_b.records and np.array_equal(
        run_a.final_y.values, run_b.final_y.values
    )
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_timeseries(run_a, str(path_a))
    emit_timeseries(run_b, str(path_b))
    round_trip = tuple(read_timeseries(str(path_a))) == run_a.records
    deterministic &= path_a.read_bytes() == path_b.read_bytes()

    ok = jensen_ok and quotient_ok and chain_ok and deterministic and round_trip
    verdict(
        "criterion 9",
        ok,
        f"jensen={jensen_ok}, quotient margins n=1..3: "
        + ", ".join(f"{quotient_margins[n]:+.2f}" for n in (1, 2, 3))
        + f", chain={chain_ok}, deterministic={deterministic}, csv round trip={round_trip}",
    )
    assert jensen_ok
    assert quotient_ok
    assert chain_ok
    assert deterministic
    assert round_trip
