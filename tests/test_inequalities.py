import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dlss
from dlss import Field, FieldKind, QuotientKind, QuotientSpec, SPECTRAL
from dlss.grid import POSITIVITY_FLOOR
from dlss.inequalities import (
    _BLOCK_VALUES,
    _PIN,
    _evaluate,
    _gradient,
    _heat_decay,
    _initial_guess,
    _normalize,
    convex_sobolev,
    log_sobolev,
    poincare,
)
from dlss.rng import random_log_density, random_smooth_field

TWO_PI = 2.0 * math.pi

ALL_KINDS = [
    poincare(1),
    poincare(2),
    log_sobolev(1),
    log_sobolev(2),
    convex_sobolev(1.2),
    convex_sobolev(1.5),
    convex_sobolev(2.0),
]

# every kind the certificate catalogue covers
CERTIFIED_KINDS = [
    *(poincare(n) for n in (1, 2, 3)),
    *(log_sobolev(n) for n in (1, 2, 3)),
    *(convex_sobolev(p) for p in (1.2, 1.5, 1.8, 2.0)),
]


def spec_id(spec):
    if spec.kind is QuotientKind.CONVEX_SOBOLEV:
        return f"convex-p{spec.p:g}"
    return f"{spec.kind.value}-n{spec.n}"


# u = 1 + 0.5 cos x, p = 1, L = 2 pi: f(0) = int u_x^2 - (1/2) int u^2 log(u^2 / mean)
F0_COS05 = 0.03640845417842942


def cosine_density(grid, amplitude=0.5, mode=1):
    return Field(grid, 1.0 + amplitude * np.cos(mode * grid.nodes), FieldKind.DENSITY)


def heat_state(v0, grid, t):
    """Exact grid heat semigroup at time t, one state at a time."""
    wave = (2.0 * math.pi / grid.length) * np.arange(grid.n_points // 2 + 1)
    return np.fft.irfft(np.fft.rfft(v0) * np.exp(-wave * wave * t), n=grid.n_points)


def flow_functionals_oracle(v0, grid, p, t_final, dt):
    """(t, f, dissipation) of every flow state from v0, one state at a time:
    each from the full spectrum times the unmasked exp(-t k^2), and its
    functionals in the association the library promises."""
    n, h, el = grid.n_points, grid.spacing, grid.length
    wave = (2.0 * math.pi / el) * np.arange(n // 2 + 1)
    ik = 1j * wave
    ik[-1] = 0.0  # odd derivatives drop the Nyquist mode
    v0_hat = np.fft.rfft(v0)
    out = []
    for k in range(round(t_final / dt) + 1):
        t = k * dt
        v = v0 if k == 0 else np.fft.irfft(v0_hat * np.exp(-wave * wave * t), n=n)
        w = v ** (p / 2.0)
        w_hat = np.fft.rfft(w)
        wx = np.fft.irfft(w_hat * ik, n=n)
        wxx = np.fft.irfft(w_hat * (1j * wave) ** 2, n=n)
        wx2 = wx * wx
        vbar = float(v.mean())
        if p == 1.0:
            sigma = h * np.sum(v * (np.log(v) - math.log(vbar)))
        else:
            sigma = h * (np.sum(v ** p) - n * vbar ** p) / (p - 1.0)
        f = h * np.sum(wx2) - (2.0 * math.pi ** 2 * p / el ** 2) * sigma
        quart = (2.0 / p - 1.0) * (wx2 * wx2) / (3.0 * w * w)
        diss = 2.0 * h * np.sum(wxx * wxx - (4.0 * math.pi ** 2 / el ** 2) * wx2 + quart)
        out.append((t, float(f), float(diss)))
    return out


class TestQuotientSpec:
    def test_constructors(self):
        assert poincare(2).kind is QuotientKind.POINCARE
        assert poincare(2).n == 2
        assert log_sobolev(3).n == 3
        assert convex_sobolev(1.5).p == 1.5

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_bad_order(self, n):
        with pytest.raises(ValueError):
            poincare(n)
        with pytest.raises(ValueError):
            log_sobolev(n)

    @pytest.mark.parametrize("p", [1.0, 0.5, 2.5])
    def test_rejects_p_outside_interval(self, p):
        with pytest.raises(ValueError):
            convex_sobolev(p)

    @pytest.mark.parametrize(
        "spec,length,expected",
        [
            (poincare(1), TWO_PI, 1.0),
            (poincare(2), TWO_PI, 1.0),
            (poincare(1), 1.0, 4.0 * math.pi ** 2),
            (log_sobolev(1), TWO_PI, 0.5),
            (log_sobolev(2), 3.0, 0.5 * (TWO_PI / 3.0) ** 4),
            (convex_sobolev(1.5), TWO_PI, 2.0),
            (convex_sobolev(2.0), 1.0, 8.0 * math.pi ** 2),
        ],
    )
    def test_analytic_constants(self, spec, length, expected):
        assert spec.analytic_constant(length) == pytest.approx(expected, rel=1e-15)


class TestQuotientValue:
    @pytest.mark.parametrize("n,mode", [(1, 1), (1, 3), (2, 2), (3, 1)])
    def test_poincare_on_pure_modes(self, grid64, n, mode):
        # eigenfunctions: quotient of cos(kx) is exactly k^{2n} at L = 2 pi
        u = Field(grid64, np.cos(mode * grid64.nodes), FieldKind.GENERIC)
        got = dlss.quotient_value(poincare(n), u)
        assert got == pytest.approx(float(mode ** (2 * n)), rel=1e-12)

    def test_log_sobolev_near_constant_expansion(self, grid64):
        # Q(1 + eps cos) = 1/2 + (3/32) eps^2 + O(eps^4)
        for eps in (1e-2, 1e-3):
            q = dlss.quotient_value(log_sobolev(1), cosine_density(grid64, eps))
            assert (q - 0.5) / eps ** 2 == pytest.approx(3.0 / 32.0, rel=1e-3)

    def test_convex_p2_matches_poincare_scaling(self, grid64):
        # p = 2 quotient of 1 + eps cos approaches the sharp 8 pi^2 / L^2 = 2
        q = dlss.quotient_value(convex_sobolev(2.0), cosine_density(grid64, 1e-4))
        assert q == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize(
        "spec", [poincare(1), log_sobolev(1), convex_sobolev(1.5)]
    )
    def test_constant_field_degenerates(self, grid64, spec):
        u = Field(grid64, np.full(64, 1.3), FieldKind.DENSITY)
        with pytest.raises(dlss.DegenerateDenominator):
            dlss.quotient_value(spec, u)

    def test_zero_field_degenerates(self, grid64):
        with pytest.raises(dlss.DegenerateDenominator):
            dlss.quotient_value(log_sobolev(1), Field(grid64, np.zeros(64)))

    @pytest.mark.filterwarnings("error")
    def test_log_sobolev_zero_node_keeps_finite_denominator(self, grid64):
        # v^2 log(v^2 / m) extends continuously by 0 to a zero node, where
        # (1 + e) log1p(e) at e = -1 would be 0 (-inf) = NaN
        v = np.sin(grid64.nodes)
        assert v[0] == 0.0
        q, den, saved = _evaluate(log_sobolev(1), v, grid64)
        sq = v * v
        pos = sq > 0.0
        m = float(np.mean(sq))
        direct = grid64.spacing * math.fsum(sq[pos] * np.log(sq[pos])) - grid64.length * m * math.log(m)
        assert abs(den - direct) <= 1e-12 * abs(direct)
        assert np.isfinite(q)
        assert np.isfinite(_gradient(log_sobolev(1), v, grid64, (q, den, saved))).all()

    def test_convex_requires_positive_values(self, grid64):
        vals = np.cos(grid64.nodes)  # changes sign
        u = Field(grid64, vals, FieldKind.GENERIC)
        with pytest.raises(dlss.NonPositiveDensity):
            dlss.quotient_value(convex_sobolev(1.5), u)

    @given(seed=st.integers(0, 2 ** 32))
    def test_log_sobolev_bounded_below_by_sharp_constant(self, grid64, seed):
        u = random_log_density(grid64, 8, seed)
        q = dlss.quotient_value(log_sobolev(1), u)
        assert q >= 0.5 - 1e-8

    @given(seed=st.integers(0, 2 ** 32))
    def test_poincare_bounded_below_by_spectral_gap(self, grid64, seed):
        u = random_smooth_field(grid64, 8, seed, mean_zero=True)
        q = dlss.quotient_value(poincare(1), u)
        assert q >= 1.0 - 1e-8


class TestMinimizeQuotient:
    def test_poincare_reaches_sharp_constant(self, grid64):
        init = random_smooth_field(grid64, 6, seed=3, mean_zero=True)
        res = dlss.minimize_quotient(poincare(1), init, tol=1e-14)
        assert res.converged
        assert abs(res.value - 1.0) < 1e-8
        assert res.analytic == pytest.approx(1.0)

    def test_poincare_minimizer_concentrates_in_first_modes(self, grid64):
        init = random_smooth_field(grid64, 6, seed=11, mean_zero=True)
        res = dlss.minimize_quotient(poincare(1), init, tol=1e-14)
        spectrum = np.abs(np.fft.rfft(res.minimizer.values)) ** 2
        assert spectrum[1] / spectrum.sum() >= 0.99

    def test_log_sobolev_first_order(self, grid64):
        res = dlss.minimize_quotient(log_sobolev(1), cosine_density(grid64, 0.5))
        assert res.converged
        assert res.rel_error < 1e-6

    def test_log_sobolev_second_order(self, grid64):
        res = dlss.minimize_quotient(log_sobolev(2), cosine_density(grid64, 0.5))
        assert res.converged
        assert res.rel_error < 1e-6

    def test_convex_p2_reaches_sharp_constant(self, grid64):
        res = dlss.minimize_quotient(
            convex_sobolev(2.0), cosine_density(grid64, 0.3), tol=1e-14
        )
        assert res.converged
        assert abs(res.value - 2.0) < 1e-8
        assert res.minimizer.kind is FieldKind.DENSITY

    def test_convex_fractional_p(self, grid64):
        res = dlss.minimize_quotient(convex_sobolev(1.5), cosine_density(grid64, 0.3))
        assert res.converged
        assert res.rel_error < 1e-6

    def test_value_never_exceeds_initial_quotient(self, grid64):
        init = cosine_density(grid64, 0.4, mode=2)
        q0 = dlss.quotient_value(log_sobolev(1), init)
        res = dlss.minimize_quotient(log_sobolev(1), init)
        assert res.value <= q0 + 1e-12

    def test_iteration_budget_reported_honestly(self, grid64):
        res = dlss.minimize_quotient(
            log_sobolev(1), cosine_density(grid64, 0.5), max_iters=3
        )
        assert not res.converged
        assert res.iterations == 3

    def test_negative_budget_rejected(self, grid64):
        with pytest.raises(ValueError, match="max_iters"):
            dlss.minimize_quotient(log_sobolev(1), cosine_density(grid64, 0.5), max_iters=-1)
        with pytest.raises(ValueError, match="max_iters"):
            dlss.certify_constant(log_sobolev(1), grid64, max_iters=-1)
        # a NaN tol would stop every descent at once, a negative one never
        for tol in (-1e-14, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol"):
                dlss.minimize_quotient(log_sobolev(1), cosine_density(grid64, 0.5), tol=tol)
            with pytest.raises(ValueError, match="tol"):
                dlss.certify_constant(log_sobolev(1), grid64, tol=tol)

    def test_constant_init_degenerates(self, grid64):
        u = Field(grid64, np.full(64, 2.0), FieldKind.DENSITY)
        with pytest.raises(dlss.DegenerateDenominator):
            dlss.minimize_quotient(poincare(1), u)

    @pytest.mark.parametrize("spec", ALL_KINDS, ids=spec_id)
    @pytest.mark.parametrize("n_points", [32, 64])
    def test_value_is_that_of_the_returned_minimizer(self, spec, n_points):
        # the descent evaluates each candidate once and reuses the arrays;
        # a stale evaluation would show as a value of some other iterate
        grid = dlss.make_grid(TWO_PI, n_points)
        res = dlss.minimize_quotient(spec, _initial_guess(spec, grid, seed=4))
        assert res.value == dlss.quotient_value(spec, res.minimizer)

    @pytest.mark.parametrize("spec", ALL_KINDS, ids=spec_id)
    def test_evaluations_count_every_evaluation(self, grid64, spec, monkeypatch):
        calls = []

        def counted(*args, _evaluate=_evaluate):
            calls.append(args)
            return _evaluate(*args)

        monkeypatch.setattr("dlss.inequalities._evaluate", counted)
        res = dlss.minimize_quotient(spec, _initial_guess(spec, grid64, seed=4))
        assert res.evaluations == len(calls) > res.iterations

    def test_default_certificate_starts_evaluation_budget(self):
        # the starts of the default `dlss certify` log-Sobolev and convex
        # runs; 2 632 evaluations when cancellation in the log-Sobolev
        # denominator and a final backtrack down to steps of 1e-18 had the
        # descent chase rounding noise
        specs = [*(log_sobolev(n) for n in (1, 2, 3)), *(convex_sobolev(p) for p in (1.2, 1.5, 2.0))]
        total = 0
        for n_points in (32, 256):
            grid = dlss.make_grid(TWO_PI, n_points)
            for spec in specs:
                for seed in (0, 1, 2):
                    res = dlss.minimize_quotient(spec, _initial_guess(spec, grid, seed))
                    assert res.converged
                    total += res.evaluations
        assert total <= 1800


class TestQuotientGradient:
    @pytest.mark.parametrize("spec", ALL_KINDS, ids=spec_id)
    def test_matches_central_difference(self, grid64, spec):
        # a start shifted off the descent's normalisation (mean zero for
        # Poincare), in directions with a mean, so every term of the
        # gradient shows
        u = _initial_guess(spec, grid64, seed=2).values + 0.25
        grad = _gradient(spec, u, grid64, _evaluate(spec, u, grid64))
        # truncation error ~eps^2 against rounding amplified by the
        # difference quotient
        eps = 1e-4
        for seed in (5, 6, 7):
            # at most 8 modes on 64 points: smooth and Nyquist-free
            h = 0.1 + random_smooth_field(grid64, 8, seed, amplitude=0.2).values
            q_plus = dlss.quotient_value(spec, Field(grid64, u + eps * h))
            q_minus = dlss.quotient_value(spec, Field(grid64, u - eps * h))
            fd = (q_plus - q_minus) / (2.0 * eps)
            exact = grid64.spacing * float((grad * h).sum())
            assert exact == pytest.approx(fd, rel=1e-6)


class TestCertifyConstant:
    def test_poincare_certificate(self, grid64):
        res = dlss.certify_constant(poincare(1), grid64)
        assert res.converged
        assert res.rel_error < 1e-8

    def test_convex_p2_certificate(self, grid64):
        res = dlss.certify_constant(convex_sobolev(2.0), grid64)
        assert res.converged
        assert res.rel_error < 1e-8

    @pytest.mark.parametrize("seed", [10, 14, 15])
    def test_convex_p2_single_starts_reach_sharp_constant(self, grid256, seed):
        # p = 2 is also invariant under scaling of v - vbar; unless that scale
        # is pinned, descent from these starts stops on the positivity floor
        res = dlss.certify_constant(convex_sobolev(2.0), grid256, seeds=(seed,))
        assert res.converged
        assert res.rel_error < 1e-8

    def test_log_sobolev_certificate(self, grid64):
        res = dlss.certify_constant(log_sobolev(1), grid64)
        assert res.converged
        assert res.rel_error < 1e-6

    @pytest.mark.parametrize("n_points", [16, 32, 48])
    @pytest.mark.parametrize(
        "spec,bound",
        [
            (poincare(1), 1e-8),
            (log_sobolev(1), 1e-6),
            (convex_sobolev(1.2), 1e-6),
            (convex_sobolev(1.5), 1e-6),
            (convex_sobolev(2.0), 1e-8),
        ],
        ids=["poincare1", "logsob1", "convex1.2", "convex1.5", "convex2"],
    )
    def test_coarse_grids_certify(self, n_points, spec, bound):
        # the sawtooth (-1)^j has zero odd spectral derivatives, so a descent
        # that drifts into it drives these quotients to 0
        res = dlss.certify_constant(spec, dlss.make_grid(TWO_PI, n_points))
        assert res.converged
        assert res.rel_error < bound
        assert res.value >= res.analytic * (1.0 - 1e-12)

    @pytest.mark.parametrize("n_points", [32, 256])
    @pytest.mark.parametrize("spec", CERTIFIED_KINDS, ids=spec_id)
    def test_certifies_sharp_constant(self, spec, n_points):
        # log-Sobolev and convex values are the infimum at amplitude _PIN,
        # C (1 + O(_PIN^2)), so they sit just above the constant
        res = dlss.certify_constant(spec, dlss.make_grid(TWO_PI, n_points))
        assert res.converged
        assert res.rel_error <= 1e-6
        assert res.value >= res.analytic * (1.0 - 1e-12)

    @pytest.mark.parametrize(
        "spec",
        [log_sobolev(1), log_sobolev(2), log_sobolev(3), convex_sobolev(1.2), convex_sobolev(1.5)],
        ids=spec_id,
    )
    def test_excess_scales_like_amplitude_squared(self, grid256, spec):
        # the certified infimum is the linear limit only if the excess over
        # the constant of 1 + eps cos x vanishes like eps^2 at the pin
        def excess(eps):
            v = 1.0 + eps * np.cos(grid256.nodes)
            if spec.kind is QuotientKind.LOG_SOBOLEV:
                v = v / math.sqrt(float(np.mean(v * v)))
            q = dlss.quotient_value(spec, Field(grid256, v))
            return q - spec.analytic_constant(grid256.length)

        assert 3.9 <= excess(2.0 * _PIN) / excess(_PIN) <= 4.1

    @pytest.mark.parametrize("shift", [0.0, 0.7, 2.3])
    @pytest.mark.parametrize("n_points", [32, 256])
    def test_convex_denominator_free_of_cancellation(self, n_points, shift):
        # at p = 2 the denominator is int (v - vbar)^2; int v^2 - L vbar^2
        # would lose ~1e-10 of it at this amplitude
        grid = dlss.make_grid(TWO_PI, n_points)
        x = grid.nodes
        v = 1.0 + 1e-3 * np.cos(x + shift) + 4e-4 * np.sin(3.0 * x)
        den = _evaluate(convex_sobolev(2.0), v, grid)[1]
        dev = v - v.mean()
        exact = grid.spacing * math.fsum(dev * dev)
        assert abs(den - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_points", [32, 256])
    def test_log_sobolev_denominator_free_of_cancellation(self, n_points, seed):
        # int v^2 log v^2 - L m log m, m the mean of v^2, would lose up to
        # ~5e-10 of it at amplitude _PIN; the reference sums m h sum (1 + e)
        # log(1 + e) - e, e = v^2/m - 1, as its series, truncated far below
        # rounding at |e| ~ 2e-3
        spec = log_sobolev(1)
        grid = dlss.make_grid(TWO_PI, n_points)
        v = _normalize(spec, _initial_guess(spec, grid, seed).values, grid)
        den = _evaluate(spec, v, grid)[1]
        m = float(np.mean(v * v))
        e = v * v / m - 1.0
        terms = np.concatenate([(-1) ** k * e ** k / (k * (k - 1)) for k in range(2, 13)])
        exact = m * grid.spacing * math.fsum(terms)
        assert abs(den - exact) <= 1e-12 * exact

    def test_rejects_empty_seeds(self, grid64):
        with pytest.raises(ValueError, match="seed"):
            dlss.certify_constant(poincare(1), grid64, seeds=())

    def test_deterministic(self, grid64):
        a = dlss.certify_constant(poincare(1), grid64)
        b = dlss.certify_constant(poincare(1), grid64)
        assert a.value == b.value
        assert np.array_equal(a.minimizer.values, b.minimizer.values)


class TestHeatFlow:
    def test_constant_datum_is_stationary(self, grid64):
        u = Field(grid64, np.full(64, 1.0), FieldKind.DENSITY)
        records = dlss.heatflow_verify(u, 1.3, 0.01, 1e-3)
        assert all(abs(r.f_value) < 1e-13 for r in records)

    def test_cosine_datum_relaxes(self, grid64):
        records = dlss.heatflow_verify(cosine_density(grid64), 1.0, 10.0, 1e-3)
        assert len(records) == 10001
        f0 = records[0].f_value
        assert f0 == pytest.approx(F0_COS05, rel=1e-12)
        assert records[-1].f_value < 1e-6 * f0
        worst_rise = max(
            b.f_value - a.f_value for a, b in zip(records, records[1:])
        )
        assert worst_rise <= 1e-10

    def test_results_are_float64_columns(self, grid64):
        # t, f and the dissipation are whole columns, one entry per lattice
        # time, and the times are k dt exactly
        dt, n_steps = 1e-3, 250
        flow = dlss.heatflow_verify(cosine_density(grid64), 1.5, n_steps * dt, dt)
        for column in (flow.t, flow.f_value, flow.dissipation):
            assert type(column) is np.ndarray
            assert column.dtype == np.float64 and column.shape == (n_steps + 1,)
        assert np.array_equal(flow.t, np.arange(n_steps + 1) * dt)
        assert flow[7].f_value == flow.f_value[7]

    def test_f0_matches_direct_quadrature(self, grid64):
        u = cosine_density(grid64)
        records = dlss.heatflow_verify(u, 1.0, 1e-3, 1e-3)
        ux = dlss.derivative(u, 1).values
        v = u.values ** 2
        fisher = dlss.integrate(Field(grid64, ux * ux, FieldKind.GENERIC))
        ent = dlss.integrate(
            Field(grid64, v * np.log(v / v.mean()), FieldKind.GENERIC)
        )
        assert abs(records[0].f_value - (fisher - 0.5 * ent)) < 1e-12

    def test_entropy_dissipation_identity(self, grid64):
        # along the p = 1 flow, d/dt int v log v = -4 int (sqrt v)_x^2
        u = cosine_density(grid64, 0.4)
        dt = 1e-5
        v = [heat_state(u.values ** 2, grid64, k * dt) for k in range(11)]  # p = 1: v = u^2

        def v_entropy(vals):
            return dlss.integrate(Field(grid64, vals * np.log(vals), FieldKind.GENERIC))

        for k in (1, 5, 9):
            lhs = (v_entropy(v[k]) - v_entropy(v[k - 1])) / dt
            w_mid = np.sqrt(0.5 * (v[k] + v[k - 1]))
            wx = dlss.derivative(Field(grid64, w_mid), 1).values
            rhs = -4.0 * dlss.integrate(Field(grid64, wx * wx, FieldKind.GENERIC))
            assert lhs == pytest.approx(rhs, rel=0.02)

    def test_single_mode_closed_form(self, grid256):
        # p = 2, v = 1 + a cos 2x e^{-4t}: f = 3 pi a^2 e^{-8t} and the
        # dissipation is 8 f; 1001 states are many blocks and a ragged last one
        a, dt = 0.3, 1e-3
        u = Field(grid256, 1.0 + a * np.cos(2.0 * grid256.nodes), FieldKind.DENSITY)
        records = dlss.heatflow_verify(u, 2.0, 1.0, dt)
        assert 1001 % (_BLOCK_VALUES // 256) != 0
        assert [r.t for r in records] == [k * dt for k in range(1001)]
        f0 = 3.0 * math.pi * a * a
        for r in records:
            exact = f0 * math.exp(-8.0 * r.t)
            assert abs(r.f_value - exact) <= 1e-13 * f0
            assert abs(r.dissipation - 8.0 * exact) <= 1e-13 * f0

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_matches_per_step_reference(self, grid256, p):
        # the functionals of each state, one numpy step after another
        u = random_log_density(grid256, 4, 7, amplitude=0.5)
        dt, n, h, el = 1e-3, 256, grid256.spacing, grid256.length
        records = dlss.heatflow_verify(u, p, 0.3, dt)
        wave = (2.0 * math.pi / el) * np.arange(n // 2 + 1)
        decay = np.exp(-wave * wave * dt)
        v = u.values ** (2.0 / p)
        expected = []
        for k in range(301):
            if k:
                v = np.fft.irfft(np.fft.rfft(v) * decay, n=n)
            w = v ** (p / 2.0)
            w_hat = np.fft.rfft(w)
            wx_hat = 1j * wave * w_hat
            wx_hat[-1] = 0.0
            wx = np.fft.irfft(wx_hat, n=n)
            wxx = np.fft.irfft(-wave * wave * w_hat, n=n)
            vbar = v.mean()
            if p == 1.0:
                sigma = h * np.sum(v * np.log(v / vbar))
            else:
                sigma = h * (np.sum(v ** p) - n * vbar ** p) / (p - 1.0)
            f = h * np.sum(wx ** 2) - 2.0 * math.pi ** 2 * p / el ** 2 * sigma
            quart = (2.0 / p - 1.0) * wx ** 4 / (3.0 * w * w)
            diss = 2.0 * h * np.sum(wxx ** 2 - 4.0 * math.pi ** 2 / el ** 2 * wx ** 2 + quart)
            expected.append((f, diss))
        assert len(records) == len(expected)
        f0, d0 = expected[0]
        for r, (f, diss) in zip(records, expected):
            assert abs(r.f_value - f) <= 1e-13 * abs(f0)
            assert abs(r.dissipation - diss) <= 1e-13 * abs(d0)

    @pytest.mark.parametrize("p", [0.5, 2.5])
    def test_rejects_p_outside_interval(self, grid64, p):
        with pytest.raises(ValueError):
            dlss.heatflow_verify(cosine_density(grid64), p, 0.01, 1e-3)

    def test_rejects_off_lattice_horizon(self, grid64):
        with pytest.raises(ValueError):
            dlss.heatflow_verify(cosine_density(grid64), 1.0, 0.0105, 1e-3)
        # a step that is not positive and finite has no lattice at all
        for dt in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="dt"):
                dlss.heatflow_verify(cosine_density(grid64), 1.0, 0.01, dt)
            with pytest.raises(ValueError, match="dt"):
                dlss.remainder_R(cosine_density(grid64), 1.5, 1.0, dt)
        # nor does a horizon that is not positive and finite
        for t_final in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="t_final"):
                dlss.heatflow_verify(cosine_density(grid64), 1.0, t_final, 1e-3)
            with pytest.raises(ValueError, match="t_final"):
                dlss.remainder_R(cosine_density(grid64), 1.5, t_final, 1e-3)

    def test_rejects_nonpositive_datum(self, grid64):
        u = Field(grid64, np.cos(grid64.nodes), FieldKind.GENERIC)
        with pytest.raises(dlss.NonPositiveDensity):
            dlss.heatflow_verify(u, 1.0, 0.01, 1e-3)

    def test_positivity_loss_detected(self, grid256):
        # a near-delta datum drives the spectral solution below the floor
        vals = np.full(256, 1e-9)
        vals[128] = 1.0
        u = Field(grid256, vals, FieldKind.DENSITY)
        with pytest.raises(dlss.PositivityLost):
            dlss.heatflow_verify(u, 2.0, 1e-4, 1e-5)

    def test_positivity_loss_at_start(self, grid64):
        # u = 1e-200 is above the floor, but v = u^{2/p} = u^2 at p = 1 is not
        vals = np.ones(64)
        vals[5] = 1e-200
        u = Field(grid64, vals, FieldKind.DENSITY)
        with pytest.raises(dlss.PositivityLost, match="at t = 0$"):
            dlss.heatflow_verify(u, 1.0, 0.01, 1e-3)

    def test_positivity_loss_named_beyond_first_block(self, grid256):
        # the spectral ringing of a spike on a 8e-3 background reaches the
        # floor after about a hundred steps of 1e-7
        vals = np.full(256, 8e-3)
        vals[128] = 1.0
        dt = 1e-7
        k = 1
        while heat_state(vals, grid256, k * dt).min() > POSITIVITY_FLOOR:
            k += 1
        assert k > _BLOCK_VALUES // 256
        u = Field(grid256, vals, FieldKind.DENSITY)
        with pytest.raises(dlss.PositivityLost, match=f"at t = {k * dt:.6g}$"):
            dlss.heatflow_verify(u, 2.0, 1e-4, dt)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n_points, t_final, dt", [(16, 14.4, 1.2e-2), (256, 1.0, 1e-3)])
    def test_matches_state_by_state_oracle(self, n_points, t_final, dt, p):
        # bit for bit, with the work arrays reused, a short last block that
        # slices them, and the top modes skipped from a later block on
        grid = dlss.make_grid(TWO_PI, n_points)
        u = random_log_density(grid, 4, 11, amplitude=0.5)
        rows = _BLOCK_VALUES // n_points
        n_states = round(t_final / dt) + 1
        assert n_states % rows != 0
        assert (n_states - 1) // rows * rows * dt * (n_points // 2) ** 2 >= 746.0
        records = dlss.heatflow_verify(u, p, t_final, dt)
        expected = flow_functionals_oracle(u.values ** (2.0 / p), grid, p, t_final, dt)
        assert [(r.t, r.f_value, r.dissipation) for r in records] == expected
        # remainder_R flows from its argument: the same trapezoid and tail fit
        times, _, diss = map(np.array, zip(*flow_functionals_oracle(u.values, grid, p, t_final, dt)))
        total = float(np.trapezoid(diss, times))
        k = max(2, len(diss) // 10)
        if diss[-1 - k] > diss[-1] > 0.0:
            total += diss[-1] / (math.log(diss[-1 - k] / diss[-1]) / (times[-1] - times[-1 - k]))
        assert dlss.remainder_R(u, p, t_final, dt) == total

    def test_decay_table_skips_only_underflowed_modes(self, grid256):
        wave = (TWO_PI / grid256.length) * np.arange(129)
        wave2 = wave * wave
        t = np.arange(100, 164) * 1e-3
        table = np.full((t.size, wave.size), np.nan)
        live = _heat_decay(t, wave2, table)
        expected = np.exp(-np.outer(t, wave2))
        # 0.1 k^2 >= 746 from k = 87 on: those columns are left untouched
        assert live == 87
        assert np.array_equal(table[:, :live], expected[:, :live])
        assert np.isnan(table[:, live:]).all()
        assert not expected[:, live:].any()

    @pytest.mark.parametrize("block_values", [256, 2 ** 13, 2 ** 14, 2 ** 16, 2 ** 20])
    def test_block_size_leaves_results_unchanged(self, grid256, monkeypatch, block_values):
        # 1, 32, 64, 256 and all 1001 states per block give the same bits as
        # the default; 32, 64 and 256 leave a short last block, which reads
        # leading rows of the reused work arrays
        u = random_log_density(grid256, 4, 3, amplitude=0.5)

        def results():
            flows = [dlss.heatflow_verify(u, p, 1.0, 1e-3) for p in (1.0, 2.0)]
            return flows, dlss.remainder_R(u, 1.5, 1.0, 1e-3)

        def rows(flows, remainder):
            # a record array's == is elementwise, so compare its rows as tuples
            return [flow.tolist() for flow in flows], remainder

        default = rows(*results())
        monkeypatch.setattr(dlss.inequalities, "_BLOCK_VALUES", block_values)
        assert rows(*results()) == default


class TestRemainder:
    def test_constant_datum_gives_zero(self, grid64):
        u = Field(grid64, np.full(64, 2.0), FieldKind.DENSITY)
        assert abs(dlss.remainder_R(u, 1.0, 1.0, 1e-3)) < 1e-15

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_matches_initial_lyapunov_value(self, grid64, p):
        # R equals f(0) because f -> 0 along the flow; the tail estimate
        # closes the finite-horizon gap to a few ppm
        u0 = cosine_density(grid64)
        r = dlss.remainder_R(u0, p, 10.0, 1e-3)
        w = u0.values ** (p / 2.0)
        wx = dlss.derivative(Field(grid64, w), 1).values
        fisher = dlss.integrate(Field(grid64, wx * wx, FieldKind.GENERIC))
        if p == 1.0:
            sig = dlss.integrate(
                Field(grid64, u0.values * np.log(u0.values / u0.values.mean()), FieldKind.GENERIC)
            )
        else:
            vbar = u0.values.mean()
            sig = (
                dlss.integrate(Field(grid64, u0.values ** p, FieldKind.GENERIC))
                - grid64.length * vbar ** p
            ) / (p - 1.0)
        f0 = fisher - (2.0 * math.pi ** 2 * p / grid64.length ** 2) * sig
        assert r >= 0.0
        assert r == pytest.approx(f0, rel=1e-4)
        # strengthened inequality: (p/4) int sigma'' v_x^2 + R >= sharp * int sigma
        ux = dlss.derivative(u0, 1).values
        lhs = (p / 4.0) * dlss.integrate(
            Field(grid64, p * u0.values ** (p - 2.0) * ux * ux, FieldKind.GENERIC)
        )
        rhs = (2.0 * math.pi ** 2 * p / grid64.length ** 2) * sig
        assert lhs + r >= rhs - 1e-10

    def test_datum_convention_ties_the_three_apis(self, grid256):
        # convex_sobolev_check and heatflow_verify take a density u and
        # flow from v = u^{2/p}; remainder_R flows from its argument, so
        # the remainder at u is remainder_R(u^{2/p}), and it equals f(0),
        # the gap of the check in the units of f
        p = 1.5
        u = cosine_density(grid256, 0.1)
        lhs, rhs, holds = dlss.convex_sobolev_check(u, p)
        gap = (2.0 * math.pi ** 2 * p / grid256.length ** 2) * (rhs - lhs)
        f0 = dlss.heatflow_verify(u, p, 1e-3, 1e-3)[0].f_value
        v = Field(grid256, u.values ** (2.0 / p), FieldKind.DENSITY)
        assert holds
        assert f0 == pytest.approx(gap, rel=1e-4)
        assert dlss.remainder_R(v, p, 10.0, 1e-3) == pytest.approx(gap, rel=1e-4)
        # u passed as the flow datum itself gives a different number
        assert dlss.remainder_R(u, p, 10.0, 1e-3) < 0.6 * gap

    def test_one_step_horizon(self, grid64):
        # one step leaves two dissipation samples, and the tail fit uses both
        r = dlss.remainder_R(cosine_density(grid64), 1.5, 1e-3, 1e-3)
        assert math.isfinite(r) and r > 0.0
        # a single mode at p = 2 decays like e^{-8t}, which the fit recovers
        a = 0.3
        u0 = Field(grid64, 1.0 + a * np.cos(2.0 * grid64.nodes), FieldKind.DENSITY)
        assert dlss.remainder_R(u0, 2.0, 1e-3, 1e-3) == pytest.approx(3.0 * math.pi * a * a, rel=1e-6)

    def test_pure_cosine_is_extremal_at_p2(self, grid64):
        # single-mode data at p = 2: the integrand vanishes identically
        u0 = cosine_density(grid64, 0.1)
        assert abs(dlss.remainder_R(u0, 2.0, 1.0, 1e-3)) < 1e-14

    def test_near_constant_remainder_vanishes_quadratically(self, grid64):
        ratios = []
        for eps in (0.2, 0.1, 0.05):
            r = dlss.remainder_R(cosine_density(grid64, eps), 1.0, 10.0, 1e-2)
            assert r >= -1e-12
            ratios.append(r / eps ** 2)
        assert all(q < 0.05 for q in ratios)
        assert ratios[0] > ratios[1] > ratios[2]


class TestConvexSobolevCheck:
    def test_constant_field_is_equality_case(self, grid64):
        u = Field(grid64, np.full(64, 1.8), FieldKind.DENSITY)
        lhs, rhs, holds = dlss.convex_sobolev_check(u, 1.5)
        assert holds
        assert abs(lhs) < 1e-12
        assert abs(rhs) < 1e-24

    def test_cosine_field_holds_with_margin(self, grid64):
        lhs, rhs, holds = dlss.convex_sobolev_check(cosine_density(grid64, 0.3), 1.5)
        assert holds
        assert rhs > lhs > 0.0

    def test_p2_reduces_to_poincare(self, grid64):
        # with p = 2 both sides are quadratic, so mode-1 cosines are exact
        # equality cases at any amplitude and mode k inflates rhs by k^2
        lhs, rhs, holds = dlss.convex_sobolev_check(cosine_density(grid64, 0.3), 2.0)
        assert holds
        assert rhs / lhs == pytest.approx(1.0, rel=1e-12)
        lhs, rhs, _ = dlss.convex_sobolev_check(cosine_density(grid64, 0.3, mode=2), 2.0)
        assert rhs / lhs == pytest.approx(4.0, rel=1e-12)

    @given(seed=st.integers(0, 2 ** 32), p=st.sampled_from([1.2, 1.5, 1.8, 2.0]))
    def test_holds_on_random_densities(self, grid64, seed, p):
        u = random_log_density(grid64, 8, seed)
        lhs, rhs, holds = dlss.convex_sobolev_check(u, p)
        assert holds

    @pytest.mark.parametrize("p", [1.0, 2.5])
    def test_rejects_p_outside_interval(self, grid64, p):
        with pytest.raises(ValueError):
            dlss.convex_sobolev_check(cosine_density(grid64), p)
