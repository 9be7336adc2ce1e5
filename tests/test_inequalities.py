import math

import numpy as np
import pytest
from conftest import NOT_POSITIVE_FINITE, SMALL_OFF_LATTICE, spec_id
from hypothesis import assume, given, settings, strategies as st

import dlss
from dlss import Field, FieldKind, QuotientKind
from dlss.grid import POSITIVITY_FLOOR, PeriodicGrid, _halvings, _integrate, _irfft, _rfft
from dlss.inequalities import (
    _BLOCK_VALUES,
    _D_FLOOR,
    _DESCENT_TOL,
    _PIN,
    _STRIP_X,
    _admissible,
    _decay_cut,
    _descend,
    _evaluate,
    _grid_schedule,
    _heat_decay,
    _initial_guess,
    _normalize,
    _preconditioner,
    _sigma_integral,
    _spectral_dot,
    _trials,
    convex_sobolev,
    log_sobolev,
    poincare,
)
from dlss.rng import random_log_density, random_smooth_field

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)

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


# u = 1 + 0.5 cos x, p = 1, L = 2 pi: f(0) = int u_x^2 - (1/2) int u^2 log(u^2 / mean)
F0_COS05 = 0.03640845417842942


def cosine_density(grid, amplitude=0.5, mode=1):
    return Field(grid, 1.0 + amplitude * np.cos(mode * grid.nodes), FieldKind.DENSITY)


def heat_state(v0, grid, t):
    """Exact grid heat semigroup at time t, one state at a time."""
    wave = (2.0 * math.pi / grid.length) * np.arange(grid.n_points // 2 + 1)
    return np.fft.irfft(np.fft.rfft(v0) * np.exp(-wave * wave * t), n=grid.n_points)


def flow_functionals_oracle(v0, grid, p, t_final, dt):
    """(t, f, dissipation) of every flow state from v0, one state at a time
    on the full grid: each from the full spectrum times the unmasked
    exp(-t k^2), and its functionals in the association the library
    promises."""
    n, h, el = grid.n_points, grid.spacing, grid.length
    wave = (2.0 * math.pi / el) * np.arange(n // 2 + 1)
    ik = 1j * wave
    # h sum(wxx^2 - k1^2 wx^2) by Parseval: weights h / n times 1, 2, ..., 2
    # on the rfft modes and k^2 (k^2 - k1^2); the Nyquist mode of an n that
    # is even, as every grid is, has weight 1, k^4 alone and no odd derivative
    k2 = wave * wave
    quartic = k2 * (k2 - k2[1])
    weights = np.full(n // 2 + 1, 2.0 * el / n ** 2)
    weights[0] /= 2.0
    ik[-1] = 0.0
    quartic[-1] = k2[-1] * k2[-1]
    weights[-1] /= 2.0
    symbol = np.repeat(quartic, 2) * np.repeat(weights, 2)
    # every state has the datum's mean vbar; its deviation v - vbar comes
    # from the spectrum of v0 - vbar with entry 0 set to 0
    vbar = float(np.fft.rfft(v0)[0].real) / n
    dev_hat = np.fft.rfft(v0 - vbar)
    dev_hat[0] = 0.0
    out = []
    for k in range(round(t_final / dt) + 1):
        t = k * dt
        dev = v0 - vbar if k == 0 else np.fft.irfft(dev_hat * np.exp(-wave * wave * t), n=n)
        v = v0 if k == 0 else dev + vbar
        # w = v^{p/2} and its deviation y = w - vbar^{p/2}, formed from dev
        w = v ** (p / 2.0)
        if p == 2.0:
            y = dev
        elif p == 1.0:
            y = dev / (w + math.sqrt(vbar))
        else:
            y = vbar ** (p / 2.0) * np.expm1(p / 2.0 * np.log1p(np.maximum(dev * (1.0 / vbar), _D_FLOOR)))
            if dev.min() >= -0.5 * vbar:
                w = y + vbar ** (p / 2.0)
        w_hat = np.fft.rfft(y)
        wx = np.fft.irfft(w_hat * ik, n=n)
        wx2 = wx * wx
        # sigma_p in the library's cancellation-free form, d = v / vbar - 1
        d = dev / vbar
        ratio = d + 1.0
        if p == 1.0:
            sigma = vbar * (h * np.sum(ratio * np.log1p(d) - d))
        else:
            sigma = vbar ** p * (h * np.sum(np.expm1(p * np.log1p(d)) - p * d)) / (p - 1.0)
        f = h * np.sum(wx2) - (2.0 * math.pi ** 2 * p / el ** 2) * sigma
        quart = (2.0 / p - 1.0) * (wx2 * wx2) / (3.0 * w * w)
        floats = w_hat.view(float)
        diss = 2.0 * (np.add.reduce(floats * floats * symbol) + h * np.sum(quart))
        out.append((t, float(f), float(diss)))
    return out


def remainder_of(times, diss):
    """remainder_R's trapezoid and tail fit of a production column."""
    total = np.trapezoid(diss, times)
    k = max(2, len(diss) // 10)
    if diss[-1 - k] > diss[-1] > 0.0:
        total += diss[-1] / (np.log(diss[-1 - k] / diss[-1]) / (times[-1] - times[-1 - k]))
    return total


def oracle_remainder(v0, grid, p, t_final, dt):
    """remainder_R from the oracle's dissipation."""
    times, _, diss = map(np.array, zip(*flow_functionals_oracle(v0, grid, p, t_final, dt)))
    return float(remainder_of(times, diss))


def flow_schedule(v0, grid, t_final, dt):
    """The library's [(first lattice index, grid points), ...] for a flow from v0."""
    wave = (TWO_PI / grid.length) * np.arange(grid.n_points // 2 + 1)
    times = np.arange(round(t_final / dt) + 1) * dt
    return _grid_schedule(np.fft.rfft(v0), grid, wave, times)


def unpruned_decay(t, wave2, cut, out):
    """The decay table with no derived cut: exp(-t wave^2) on every column
    that is not 0.0 on every row (t[0] wave^2 < 746), subnormal and
    underflowed entries included."""
    live = int(np.searchsorted(t[0] * wave2, 746.0))
    table = out[:, :live]
    np.multiply.outer(-t, wave2[:live], out=table)
    np.exp(table, out=table)
    return live


def certify256_data():
    """The eight heat-flow data of a certify256 benchmark run of seed 0."""
    grid = dlss.make_grid(TWO_PI, 256)
    stream = dlss.SplitMix64(0)
    return [random_log_density(grid, 4, stream.next_u64(), amplitude=0.5) for _ in range(8)]


# numpy computes transforms of long double input in long double (complex256)
# from 2.0 on; where long double is float64, or the FFT casts, there is no
# reference finer than the values under test
LONG_DOUBLE_FFT = (
    np.finfo(np.longdouble).eps < EPS
    and np.fft.rfft(np.ones(8, dtype=np.longdouble)).dtype == np.clongdouble
)


def long_double_functionals(v0, grid, p, t, m):
    """(f, production) in long double of the flow states from v0 at the
    times t on m of the grid's points, from the spectrum v0_hat[:m/2+1] m/N
    as the library takes it (m = N: the full grid)."""
    ld = np.longdouble
    n, el = grid.n_points, ld(grid.length)
    h, pi = el / m, np.arccos(ld(-1.0))
    wave = (2 * pi / el) * np.arange(m // 2 + 1, dtype=ld)
    k2 = wave * wave
    hat = np.fft.rfft(v0.astype(ld))[: m // 2 + 1] * ld(m / n)
    v = np.fft.irfft(hat * np.exp(-np.multiply.outer(t.astype(ld), k2)), n=m)
    w = v ** ld(p / 2.0)
    w_hat = np.fft.rfft(w)
    ik, quartic = 1j * wave, k2 * (k2 - k2[1])
    weights = np.full(m // 2 + 1, 2 * el / m ** 2)
    weights[0] /= 2
    ik[-1] = 0
    quartic[-1] = k2[-1] * k2[-1]
    weights[-1] /= 2
    wx2 = np.fft.irfft(w_hat * ik, n=m) ** 2
    vbar = v.mean(axis=-1)
    ratio = v / vbar[:, None]
    d = ratio - 1
    if p == 1.0:
        sigma = vbar * (h * np.sum(ratio * np.log1p(d) - d, axis=-1))
    else:
        sigma = vbar ** ld(p) * (h * np.sum(np.expm1(ld(p) * np.log1p(d)) - ld(p) * d, axis=-1)) / ld(p - 1.0)
    f = h * wx2.sum(axis=-1) - (2 * pi ** 2 * ld(p) / el ** 2) * sigma
    power = (w_hat.real ** 2 + w_hat.imag ** 2) * (weights * quartic)
    quart = (ld(2.0 / p) - 1) * wx2 * wx2 / (3 * w * w)
    return f, 2 * (power.sum(axis=-1) + h * quart.sum(axis=-1))


def long_double_flow(v0, grid, p, times):
    """((f, production) with every state on the grid the library's schedule
    gives it, (f, production) with every state on the full grid), all in
    long double."""
    schedule = _grid_schedule(np.fft.rfft(v0), grid, (TWO_PI / grid.length) * np.arange(grid.n_points // 2 + 1), times)
    full = long_double_functionals(v0, grid, p, times, grid.n_points)
    scheduled = tuple(a.copy() for a in full)
    ends = [k for k, _ in schedule[1:]] + [times.size]
    for (first, m), end in zip(schedule[1:], ends[1:]):
        for column, part in zip(scheduled, long_double_functionals(v0, grid, p, times[first:end], m)):
            column[first:end] = part
    return scheduled, full


def oracle_descent(spec, grid, u_init, evaluate=_evaluate):
    """The descent of one start as it was before the starts of a certificate
    descended as one block: the loop of one start, each helper called on
    one field.  Returns (value, iterations, evaluations, residual,
    converged, minimizer bytes), then (trials, accepted) of each iteration,
    the number of Barzilai-Borwein lengths that were not positive and
    finite, and the bytes of every candidate."""
    n = grid.n_points
    start = _rfft(u_init)
    start[-1] = 0.0
    vals = _normalize(spec, _irfft(start, n), grid)
    q, _, vhat, ghat = evaluate(spec, vals, grid)
    damping = _preconditioner(n, spec.n if spec.kind is not QuotientKind.CONVEX_SOBOLEV else 1, grid.length)
    evaluations, step, converged, last = 1, 0.5, False, None
    trace, bb_kept, candidates = [], 0, []
    for iters in range(1, dlss.inequalities._MAX_ITERS + 1):
        gphat = ghat * damping
        slope = float(_spectral_dot(grid, ghat, gphat))
        floor = _DESCENT_TOL * abs(q)
        current = (vhat, ghat, gphat)
        if last is not None:
            dx, dg, dgp = (now - before for now, before in zip(current, last))
            curvature = float(_spectral_dot(grid, dg, dgp))
            bb = float(_spectral_dot(grid, dx, dg)) / curvature if curvature > 0.0 else math.nan
            if 0.0 < bb < math.inf:
                step = bb
            else:
                step = 0.5
                bb_kept += 1
        last = current
        gp = _irfft(gphat, n)
        s, trials = step, 0
        while s * slope > floor:
            try:
                cand = _normalize(spec, vals - s * gp, grid)
                evaluations += 1
                trials += 1
                candidates.append(cand.tobytes())
                trial = evaluate(spec, cand, grid)
                if trial[0] < q:
                    break
            except dlss.DegenerateDenominator:
                pass
            s *= 0.5
        else:
            trace.append((trials, False))
            converged = True
            break
        trace.append((trials, True))
        dq = q - trial[0]
        vals, (q, _, vhat, ghat) = cand, trial
        if dq <= floor:
            converged = True
            break
    residual = float(np.abs(_irfft(ghat * damping, n)).max())
    return (q, iters, evaluations, residual, converged, vals.tobytes()), trace, bb_kept, candidates


def summary(res):
    """What the oracle gives of a QuotientResult."""
    return (res.value, res.iterations, res.evaluations, res.residual, res.converged, res.minimizer.values.tobytes())


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
        got = _evaluate(poincare(n), u.values, u.grid)[0]
        assert got == pytest.approx(float(mode ** (2 * n)), rel=1e-12)

    def test_log_sobolev_near_constant_expansion(self, grid64):
        # Q(1 + eps cos) = 1/2 + (3/32) eps^2 + O(eps^4)
        for eps in (1e-2, 1e-3):
            q = _evaluate(log_sobolev(1), cosine_density(grid64, eps).values, grid64)[0]
            assert (q - 0.5) / eps ** 2 == pytest.approx(3.0 / 32.0, rel=1e-3)

    def test_convex_p2_matches_poincare_scaling(self, grid64):
        # p = 2 quotient of 1 + eps cos approaches the sharp 8 pi^2 / L^2 = 2
        q = _evaluate(convex_sobolev(2.0), cosine_density(grid64, 1e-4).values, grid64)[0]
        assert q == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize(
        "spec", [poincare(1), log_sobolev(1), convex_sobolev(1.5)]
    )
    def test_constant_field_degenerates(self, grid64, spec):
        u = Field(grid64, np.full(64, 1.3), FieldKind.DENSITY)
        with pytest.raises(dlss.DegenerateDenominator):
            _evaluate(spec, u.values, u.grid)[0]

    def test_zero_field_degenerates(self, grid64):
        with pytest.raises(dlss.DegenerateDenominator):
            _evaluate(log_sobolev(1), np.zeros(64), grid64)[0]

    @pytest.mark.filterwarnings("error")
    def test_log_sobolev_zero_node_keeps_finite_denominator(self, grid64):
        # v^2 log(v^2 / m) extends continuously by 0 to a zero node, where
        # (1 + e) log1p(e) at e = -1 would be 0 (-inf) = NaN
        v = np.sin(grid64.nodes)
        assert v[0] == 0.0
        q, den, _, ghat = _evaluate(log_sobolev(1), v, grid64)
        sq = v * v
        pos = sq > 0.0
        m = float(np.mean(sq))
        direct = grid64.spacing * math.fsum(sq[pos] * np.log(sq[pos])) - grid64.length * m * math.log(m)
        assert abs(den - direct) <= 1e-12 * abs(direct)
        assert np.isfinite(q)
        assert np.isfinite(ghat).all()

    def test_convex_requires_positive_values(self, grid64):
        vals = np.cos(grid64.nodes)  # changes sign
        u = Field(grid64, vals, FieldKind.GENERIC)
        with pytest.raises(dlss.NonPositiveDensity):
            _evaluate(convex_sobolev(1.5), u.values, u.grid)[0]

    @given(seed=st.integers(0, 2 ** 32))
    def test_log_sobolev_bounded_below_by_sharp_constant(self, grid64, seed):
        u = random_log_density(grid64, 8, seed)
        q = _evaluate(log_sobolev(1), u.values, u.grid)[0]
        assert q >= 0.5 - 1e-8

    @given(seed=st.integers(0, 2 ** 32))
    def test_poincare_bounded_below_by_spectral_gap(self, grid64, seed):
        u = random_smooth_field(grid64, 8, seed, mean_zero=True)
        q = _evaluate(poincare(1), u.values, u.grid)[0]
        assert q >= 1.0 - 1e-8


class TestMinimizeQuotient:
    def test_poincare_reaches_sharp_constant(self, grid64):
        init = random_smooth_field(grid64, 6, seed=3, mean_zero=True)
        res = _descend(poincare(1), init.grid, init.values[None])[0]
        assert res.converged
        assert abs(res.value - 1.0) < 1e-8
        assert res.analytic == pytest.approx(1.0)

    def test_poincare_minimizer_concentrates_in_first_modes(self, grid64):
        init = random_smooth_field(grid64, 6, seed=11, mean_zero=True)
        res = _descend(poincare(1), init.grid, init.values[None])[0]
        spectrum = np.abs(np.fft.rfft(res.minimizer.values)) ** 2
        assert spectrum[1] / spectrum.sum() >= 0.99

    def test_log_sobolev_first_order(self, grid64):
        res = _descend(log_sobolev(1), grid64, cosine_density(grid64, 0.5).values[None])[0]
        assert res.converged
        assert res.rel_error < 1e-6

    def test_log_sobolev_second_order(self, grid64):
        res = _descend(log_sobolev(2), grid64, cosine_density(grid64, 0.5).values[None])[0]
        assert res.converged
        assert res.rel_error < 1e-6

    def test_convex_p2_reaches_sharp_constant(self, grid64):
        res = _descend(convex_sobolev(2.0), grid64, cosine_density(grid64, 0.3).values[None])[0]
        assert res.converged
        assert abs(res.value - 2.0) < 1e-8
        assert res.minimizer.kind is FieldKind.DENSITY

    def test_convex_fractional_p(self, grid64):
        res = _descend(convex_sobolev(1.5), grid64, cosine_density(grid64, 0.3).values[None])[0]
        assert res.converged
        assert res.rel_error < 1e-6

    def test_value_never_exceeds_initial_quotient(self, grid64):
        init = cosine_density(grid64, 0.4, mode=2)
        q0 = _evaluate(log_sobolev(1), init.values, init.grid)[0]
        res = _descend(log_sobolev(1), init.grid, init.values[None])[0]
        assert res.value <= q0 + 1e-12

    def test_iteration_budget_reported_honestly(self, grid64, monkeypatch):
        # unbudgeted, this start converges in 8 iterations
        monkeypatch.setattr("dlss.inequalities._MAX_ITERS", 3)
        res = _descend(log_sobolev(1), grid64, _initial_guess(log_sobolev(1), grid64, seed=0)[None])[0]
        assert not res.converged
        assert res.iterations == 3

    def test_constant_init_degenerates(self, grid64):
        u = Field(grid64, np.full(64, 2.0), FieldKind.DENSITY)
        with pytest.raises(dlss.DegenerateDenominator):
            _descend(poincare(1), u.grid, u.values[None])[0]

    @pytest.mark.parametrize("spec", ALL_KINDS, ids=spec_id)
    @pytest.mark.parametrize("n_points", [32, 64])
    def test_value_is_that_of_the_returned_minimizer(self, spec, n_points):
        # the descent evaluates each candidate once and reuses the arrays;
        # a stale evaluation would show as a value of some other iterate
        grid = dlss.make_grid(TWO_PI, n_points)
        res = _descend(spec, grid, _initial_guess(spec, grid, seed=4)[None])[0]
        assert res.value == _evaluate(spec, res.minimizer.values, grid)[0]

    @pytest.mark.parametrize("spec", ALL_KINDS, ids=spec_id)
    def test_evaluations_count_every_evaluation(self, grid64, spec, monkeypatch):
        rows = []  # the rows of each evaluated block

        def counted(spec, vals, grid, _evaluate=_evaluate):
            rows.append(len(vals))
            return _evaluate(spec, vals, grid)

        monkeypatch.setattr("dlss.inequalities._evaluate", counted)
        res = _descend(spec, grid64, _initial_guess(spec, grid64, seed=4)[None])[0]
        # every iteration evaluates at least one candidate; with Barzilai-
        # Borwein lengths some starts never backtrack
        assert res.evaluations == len(rows) == sum(rows) >= res.iterations
        # in a block, every evaluated row is one evaluation of its start
        rows.clear()
        starts = np.array([_initial_guess(spec, grid64, seed) for seed in (4, 5, 6)])
        results = _descend(spec, grid64, starts)
        assert sum(res.evaluations for res in results) == sum(rows)
        assert all(res.evaluations >= res.iterations for res in results)

    @pytest.mark.parametrize("seed", [1, 7, 27])
    def test_non_positive_bb_length_converges(self, seed, monkeypatch):
        # from these starts the Barzilai-Borwein length turns negative once
        # (dx . dg < 0 across the normalisation), and the descent retries the
        # first trial length 0.5.  The slope and the curvature are sums of
        # nonnegative terms, so a negative dot can only be dx . dg.
        dots = []

        def recorded(*args, _spectral_dot=_spectral_dot):
            result = _spectral_dot(*args)
            dots.extend(result.tolist())  # one dot per row
            return result

        monkeypatch.setattr("dlss.inequalities._spectral_dot", recorded)
        grid = dlss.make_grid(TWO_PI, 16)
        res = _descend(poincare(1), grid, _initial_guess(poincare(1), grid, seed)[None])[0]
        assert min(dots) < 0.0
        assert res.converged
        assert res.rel_error <= 1e-12

    def test_default_certificate_starts_evaluation_budget(self):
        # the starts of the default `dlss certify` log-Sobolev and convex
        # runs; 2 632 evaluations when cancellation in the log-Sobolev
        # denominator and a final backtrack down to steps of 1e-18 had the
        # descent chase rounding noise, 1 428 when each trial length was
        # 1.3 times the last accepted one
        specs = [*(log_sobolev(n) for n in (1, 2, 3)), *(convex_sobolev(p) for p in (1.2, 1.5, 2.0))]
        total = 0
        for n_points in (32, 256):
            grid = dlss.make_grid(TWO_PI, n_points)
            for spec in specs:
                for seed in (0, 1, 2):
                    res = _descend(spec, grid, _initial_guess(spec, grid, seed)[None])[0]
                    assert res.converged
                    total += res.evaluations
        assert total <= 360

    @pytest.mark.parametrize("spec", ALL_KINDS, ids=spec_id)
    def test_residual_on_every_exit(self, spec, monkeypatch):
        # the residual is max |irfft(P g_hat)| at the returned minimizer
        # whichever way the descent ends; which way it ended is read off the
        # evaluated values: a trial is accepted when it lowers the last
        # accepted q, so the last iteration accepted iff the accepted trials
        # number the iterations
        values = []

        def recorded(spec, vals, grid, _evaluate=_evaluate):
            # the descent of one start evaluates blocks of one row
            assert vals.shape[0] == 1
            try:
                result = _evaluate(spec, vals, grid)
            except dlss.DegenerateDenominator:
                values.append(math.inf)
                raise
            values.extend(result[0].tolist())
            return result

        monkeypatch.setattr("dlss.inequalities._evaluate", recorded)
        order = 1 if spec.kind is QuotientKind.CONVEX_SOBOLEV else spec.n

        def exit_of(grid, seed):
            values.clear()
            res = _descend(spec, grid, _initial_guess(spec, grid, seed)[None])[0]
            ghat = _evaluate(spec, res.minimizer.values, grid)[3]
            damping = _preconditioner(grid.n_points, order, grid.length)
            assert res.residual == float(np.abs(np.fft.irfft(damping * ghat, grid.n_points)).max())
            q, accepted = values[0], 0
            for value in values[1:]:
                if value < q:
                    q, accepted = value, accepted + 1
            if not res.converged:
                return "budget"
            return "dq <= floor" if accepted == res.iterations else "no acceptance"

        grids = [dlss.make_grid(TWO_PI, n_points) for n_points in (16, 32, 64)]
        exits = {exit_of(grid, seed) for grid in grids for seed in range(10)}
        # seeds 0-9 of these kinds all end without an acceptance; this start
        # on 16 points ends on an accepted step that lowers q by at most floor
        dq_floor_seed = {"poincare-n1": 11, "convex-p1.2": 59, "convex-p1.5": 53, "convex-p2": 29}
        if spec_id(spec) in dq_floor_seed:
            exits.add(exit_of(grids[0], dq_floor_seed[spec_id(spec)]))
        assert exits == {"dq <= floor", "no acceptance"}
        monkeypatch.setattr("dlss.inequalities._MAX_ITERS", 2)
        assert {exit_of(grids[1], seed) for seed in range(3)} == {"budget"}


class TestPreconditioner:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n_points", [16, 256])
    @pytest.mark.parametrize("length", [TWO_PI, 100.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symbol_is_the_inverse_hessian(self, n, length, n_points, k):
        # near the minimiser cos(kappa x) the Poincare Hessian is 2 (A -
        # lambda_1), so one step of length 0.5 is a Newton step: it leaves a
        # mode-k error delta = 1e-3 at O(delta^3), where a symbol that is not
        # the inverse Hessian leaves O(delta)
        spec = poincare(n)
        grid = dlss.make_grid(length, n_points)
        x = (TWO_PI / length) * grid.nodes
        vals = _normalize(spec, np.cos(x) + 1e-3 * np.cos(k * x), grid)
        step = _irfft(_preconditioner(n_points, n, length) * _evaluate(spec, vals, grid)[3], n_points)
        modes = np.abs(_rfft(_normalize(spec, vals - 0.5 * step, grid)))
        assert modes[k] / modes[1] <= 2e-9


class TestQuotientGradient:
    @pytest.mark.parametrize("spec", ALL_KINDS, ids=spec_id)
    def test_matches_central_difference(self, grid64, spec):
        # a start shifted off the descent's normalisation (mean zero for
        # Poincare), in directions with a mean, so every term of the
        # gradient shows
        u = _initial_guess(spec, grid64, seed=2) + 0.25
        grad = np.fft.irfft(_evaluate(spec, u, grid64)[3], n=64)
        # truncation error ~eps^2 against rounding amplified by the
        # difference quotient
        eps = 1e-4
        for seed in (5, 6, 7):
            # at most 8 modes on 64 points: smooth and Nyquist-free
            h = 0.1 + random_smooth_field(grid64, 8, seed, amplitude=0.2).values
            q_plus = _evaluate(spec, u + eps * h, grid64)[0]
            q_minus = _evaluate(spec, u - eps * h, grid64)[0]
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
            q = _evaluate(spec, v, grid256)[0]
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
        v = _normalize(spec, _initial_guess(spec, grid, seed), grid)
        den = _evaluate(spec, v, grid)[1]
        m = float(np.mean(v * v))
        e = v * v / m - 1.0
        terms = np.concatenate([(-1) ** k * e ** k / (k * (k - 1)) for k in range(2, 13)])
        exact = m * grid.spacing * math.fsum(terms)
        assert abs(den - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("n_points", [16, 256])
    @pytest.mark.parametrize("length", [1.0, TWO_PI, 10.0, 100.0, 1000.0])
    @pytest.mark.parametrize(
        "spec",
        [poincare(1), poincare(3), log_sobolev(1), log_sobolev(2), convex_sobolev(1.2), convex_sobolev(2.0)],
        ids=spec_id,
    )
    def test_iterations_do_not_depend_on_length(self, spec, length, n_points):
        # the preconditioner is in physical units, so a start takes as many
        # iterations on any circle; with the symbol in mode numbers alone,
        # Poincare n = 3 took 647 iterations at L = 100 on 256 points
        grid = dlss.make_grid(length, n_points)
        starts = np.array([_initial_guess(spec, grid, seed) for seed in (0, 1, 2)])
        for res in _descend(spec, grid, starts):
            assert res.converged
            assert res.rel_error < 1e-6
            assert res.iterations <= 20

    def test_rejects_empty_seeds(self, grid64):
        with pytest.raises(ValueError, match="seed"):
            dlss.certify_constant(poincare(1), grid64, seeds=())

    def test_deterministic(self, grid64):
        a = dlss.certify_constant(poincare(1), grid64)
        b = dlss.certify_constant(poincare(1), grid64)
        assert a.value == b.value
        assert np.array_equal(a.minimizer.values, b.minimizer.values)


class TestBlockDescent:
    """The starts of a certificate descend as one block, and each gives
    the bits of the one-start oracle."""

    @staticmethod
    def run(spec, grid, seeds, evaluate=_evaluate):
        """(block results, oracle runs) of the starts of these seeds."""
        starts = [_initial_guess(spec, grid, seed) for seed in seeds]
        oracles = [oracle_descent(spec, grid, u, evaluate) for u in starts]
        results = _descend(spec, grid, np.array(starts))
        assert [summary(res) for res in results] == [oracle[0] for oracle in oracles]
        return results, oracles

    @pytest.mark.parametrize("n_points", [16, 32, 256])
    @pytest.mark.parametrize("spec", CERTIFIED_KINDS, ids=spec_id)
    def test_every_kind_matches_the_oracle(self, spec, n_points):
        grid = dlss.make_grid(TWO_PI, n_points)
        results, oracles = self.run(spec, grid, (0, 1, 2))
        # the certificate keeps the first of the lowest converged values
        best = max(results, key=lambda res: (res.converged, -res.value))
        assert summary(dlss.certify_constant(spec, grid)) == summary(best)
        # one start is a block of one
        assert summary(_descend(spec, grid, _initial_guess(spec, grid, 1)[None])[0]) == oracles[1][0]

    def test_rows_stop_at_different_iterations(self):
        # the middle row descends 4 iterations after the first has left
        results, _ = self.run(poincare(2), dlss.make_grid(TWO_PI, 16), (0, 1, 2))
        assert [res.iterations for res in results] == [6, 10, 8]

    @pytest.mark.parametrize(
        "spec,seeds",
        [(log_sobolev(3), (0, 1, 3)), (convex_sobolev(1.2), (0, 1, 38))],
        ids=["log_sobolev-n3", "convex-p1.2"],
    )
    def test_row_backtracks_while_the_others_accept(self, grid256, spec, seeds):
        _, oracles = self.run(spec, grid256, seeds)
        traces = [oracle[1] for oracle in oracles]
        assert any(
            any(trace[k][0] >= 2 for trace in traces) and any(trace[k] == (1, True) for trace in traces)
            for k in range(min(map(len, traces)))
        )

    def test_budget_exit(self, grid256, monkeypatch):
        # unbudgeted, these starts converge at iterations 7, 8 and 9
        monkeypatch.setattr("dlss.inequalities._MAX_ITERS", 7)
        results, _ = self.run(poincare(1), grid256, (0, 1, 5))
        assert [(res.iterations, res.converged) for res in results] == [(7, True), (7, False), (7, False)]
        monkeypatch.setattr("dlss.inequalities._MAX_ITERS", 2)
        results, _ = self.run(log_sobolev(1), grid256, (0, 1, 2))
        assert [(res.iterations, res.converged) for res in results] == [(2, False)] * 3

    def test_non_positive_bb_starts(self):
        # each of these starts meets a Barzilai-Borwein length that is not
        # positive and retries the first trial length 0.5, as the oracle does
        results, oracles = self.run(poincare(1), dlss.make_grid(TWO_PI, 16), (1, 7, 27))
        assert all(oracle[2] >= 1 for oracle in oracles)
        assert all(res.converged and res.rel_error <= 1e-12 for res in results)

    def test_degenerate_start_raises(self, grid64):
        starts = np.array([_initial_guess(poincare(1), grid64, seed) for seed in (0, 1)])
        starts = np.insert(starts, 1, 2.0, axis=0)  # a constant middle row
        with pytest.raises(dlss.DegenerateDenominator):
            _descend(poincare(1), grid64, starts)

    def test_degenerate_trial_is_rejected_for_its_row_only(self, grid256, monkeypatch):
        # two candidates of the unmarked runs are made degenerate, for the
        # oracle and the library alike; the block that holds the first is
        # redone a row at a time
        spec = log_sobolev(1)
        plain = [oracle_descent(spec, grid256, _initial_guess(spec, grid256, seed))[3] for seed in (0, 1, 2)]
        marked = {plain[0][1], plain[2][3]}
        blocks = []

        def marking(spec, vals, grid):
            if any(row.tobytes() in marked for row in np.atleast_2d(vals)):
                blocks.append(np.atleast_2d(vals).shape[0])
                raise dlss.DegenerateDenominator("marked")
            return _evaluate(spec, vals, grid)

        monkeypatch.setattr("dlss.inequalities._evaluate", marking)
        self.run(spec, grid256, (0, 1, 2), evaluate=marking)
        # the oracle meets each mark once; the library meets each in a
        # block of three, then in its own row
        assert sorted(blocks) == [1, 1, 1, 1, 3, 3]

    def test_trial_that_cannot_be_normalised(self, grid64):
        spec = poincare(1)
        raw = np.array([_initial_guess(spec, grid64, seed) for seed in (0, 1, 2)])
        raw[1] = 2.0
        cand, q, vhat, ghat, counted = _trials(spec, raw, grid64)
        assert counted.tolist() == [1, 0, 1]
        assert q[1] == math.inf
        for i in (0, 2):
            alone = _trials(spec, raw[i : i + 1], grid64)
            assert alone[4] == 1
            for got, want in zip((cand, q, vhat, ghat), alone):
                assert got[i].tobytes() == want[0].tobytes()


class TestSigmaIntegral:
    @pytest.mark.parametrize("p", [1.0, 1.5])
    @pytest.mark.parametrize("a", [1e-5, 1e-3])
    @pytest.mark.parametrize("mode", [1, 2])
    def test_matches_exactly_summed_series(self, grid64, mode, a, p):
        # int v^p - L vbar^p (or int v log v - L vbar log vbar) cancels down
        # to O(a^2) of itself; the reference sums (1 + d)^p - 1 - p d as its
        # series in the same double d, truncated far below rounding
        v = cosine_density(grid64, a, mode).values ** (2.0 / p)
        vbar = float(v.mean())
        d = v / vbar - 1.0
        if p == 1.0:
            coef = [(-1) ** k / (k * (k - 1)) for k in range(2, 13)]
        else:
            coef = [math.prod(p - j for j in range(k)) / math.factorial(k) for k in range(2, 13)]
        terms = np.concatenate([c * d ** k for k, c in zip(range(2, 13), coef)])
        exact = vbar ** p * grid64.spacing * math.fsum(terms) / (1.0 if p == 1.0 else p - 1.0)
        sigma = _sigma_integral(v, grid64, p)
        assert abs(sigma - exact) <= 1e-11 * exact
        # a block of states gives each row the bits of the single field
        assert _sigma_integral(np.stack([v, 2.0 * v]), grid64, p).tolist() == [
            sigma, _sigma_integral(2.0 * v, grid64, p)
        ]


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
        fisher = _integrate(grid64, ux * ux)
        ent = _integrate(grid64, v * np.log(v / v.mean()))
        assert abs(records[0].f_value - (fisher - 0.5 * ent)) < 1e-12

    def test_entropy_dissipation_identity(self, grid64):
        # along the p = 1 flow, d/dt int v log v = -4 int (sqrt v)_x^2
        u = cosine_density(grid64, 0.4)
        dt = 1e-5
        v = [heat_state(u.values ** 2, grid64, k * dt) for k in range(11)]  # p = 1: v = u^2

        def v_entropy(vals):
            return _integrate(grid64, vals * np.log(vals))

        for k in (1, 5, 9):
            lhs = (v_entropy(v[k]) - v_entropy(v[k - 1])) / dt
            w_mid = np.sqrt(0.5 * (v[k] + v[k - 1]))
            wx = dlss.derivative(Field(grid64, w_mid), 1).values
            rhs = -4.0 * _integrate(grid64, wx * wx)
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

    @pytest.mark.parametrize("a", [0.5, 1e-3])
    @pytest.mark.parametrize("n_points", [16, 64, 256])
    def test_single_mode_p2_has_no_dissipation(self, n_points, a):
        # v = 1 + a cos x at p = 2: mode 1 is extremal and f is 0 for all
        # time, so the dissipation is rounding; taking w_xx^2 - k1^2 w_x^2
        # pointwise left 7e-16 to 1.6e-15 a^2 of it
        grid = dlss.make_grid(TWO_PI, n_points)
        flow = dlss.heatflow_verify(cosine_density(grid, a), 2.0, 1.0, 1e-3)
        assert (flow.dissipation >= 0.0).all()
        assert (flow.dissipation <= 1e-17 * a * a).all()

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
        for t_final, dt in SMALL_OFF_LATTICE:
            for flow in (dlss.heatflow_verify, dlss.remainder_R):
                with pytest.raises(dlss.ValidationError) as info:
                    flow(cosine_density(grid64), 1.0, t_final, dt)
                assert info.value.field == "t_final"
        # a step that is not positive and finite has no lattice at all, nor
        # does a horizon that is not
        for bad in NOT_POSITIVE_FINITE:
            for flow in (dlss.heatflow_verify, dlss.remainder_R):
                for name, args in (("dt", (1.0, 0.01, bad)), ("t_final", (1.0, bad, 1e-3))):
                    with pytest.raises(dlss.ValidationError) as info:
                        flow(cosine_density(grid64), *args)
                    assert info.value.field == name

    def test_rejects_nonpositive_datum(self, grid64):
        u = Field(grid64, np.cos(grid64.nodes), FieldKind.GENERIC)
        with pytest.raises(dlss.NonPositiveDensity):
            dlss.heatflow_verify(u, 1.0, 0.01, 1e-3)

    def test_positivity_loss_detected(self, grid256):
        # a near-delta datum drives the spectral solution below the floor
        vals = np.full(256, 1e-9)
        vals[128] = 1.0
        u = Field(grid256, vals, FieldKind.DENSITY)
        with pytest.raises(dlss.NonPositiveDensity):
            dlss.heatflow_verify(u, 2.0, 1e-4, 1e-5)

    def test_positivity_loss_at_start(self, grid64):
        # u = 1e-200 is above the floor, but v = u^{2/p} = u^2 at p = 1 is not
        vals = np.ones(64)
        vals[5] = 1e-200
        u = Field(grid64, vals, FieldKind.DENSITY)
        with pytest.raises(dlss.NonPositiveDensity, match="at t = 0$"):
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
        with pytest.raises(dlss.NonPositiveDensity, match=f"at t = {k * dt:.6g}$"):
            dlss.heatflow_verify(u, 2.0, 1e-4, dt)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n_points, t_final, dt", [(16, 14.4, 1.2e-2), (256, 1.0, 1e-3)])
    def test_matches_state_by_state_oracle(self, n_points, t_final, dt, p):
        # bit for bit on the full grid, with the work arrays reused, a short
        # last full-grid block that slices them, the top modes cut on the
        # later rows of the first block and, at N = 256, skipped from the
        # second block on; states on a coarser grid are within 8 eps of the
        # oracle
        grid = dlss.make_grid(TWO_PI, n_points)
        u = random_log_density(grid, 4, 11, amplitude=0.5)
        rows = _BLOCK_VALUES // n_points
        n_states = round(t_final / dt) + 1
        v0 = u.values ** (2.0 / p)
        records = dlss.heatflow_verify(u, p, t_final, dt)
        expected = flow_functionals_oracle(v0, grid, p, t_final, dt)
        got = [(r.t, r.f_value, r.dissipation) for r in records]
        switch = ([k for k, _ in flow_schedule(v0, grid, t_final, dt)[1:]] + [n_states])[0]
        assert switch < n_states and switch % rows != 0
        # the derived cut X on the full grid, written out again
        vbar = v0.mean()
        cut = math.log(n_points * vbar / (v0.min() - 2.0 ** -53 * vbar)) + 107.0 * math.log(2.0)
        assert cut == pytest.approx(_decay_cut(n_points, vbar, v0.min() - 2.0 ** -53 * vbar), rel=1e-12)
        assert (min(rows, switch) - 1) * dt * (n_points // 2) ** 2 >= cut
        if n_points == 256:
            assert switch > rows and rows * dt * (n_points // 2) ** 2 >= cut
        assert got[:switch] == expected[:switch]
        _, f0, d0 = expected[0]
        for (t, f, d), (t_ref, f_ref, d_ref) in zip(got[switch:], expected[switch:]):
            assert t == t_ref
            assert abs(f - f_ref) <= 8 * EPS * abs(f0)
            assert abs(d - d_ref) <= 8 * EPS * abs(d0)
        # remainder_R flows from its argument: the same trapezoid and tail fit
        remainder = oracle_remainder(u.values, grid, p, t_final, dt)
        assert abs(dlss.remainder_R(u, p, t_final, dt) - remainder) <= 8 * EPS * remainder
        # N = 16 halves to 8 points between t = 10.4 and 11.1; at N = 256
        # remainder_R's flow reaches 64 points at every p
        sizes = [m for _, m in flow_schedule(u.values, grid, t_final, dt)]
        assert sizes == ([16, 8] if n_points == 16 else [256, 128, 64])

    @pytest.mark.parametrize("seed", [2, 3, 5])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n_points", [64, 256, 1024])
    def test_coarse_states_match_oracle(self, n_points, a, p, seed):
        # every state on its coarsest admissible grid, against the full-grid
        # oracle: f, the production and R within 8 eps of their scale.  Over
        # seeds 0-7 the largest deviations are 3.0, 1.3 and 1.6 eps, and R
        # 2.0 eps at dt = 5e-2, where an early state weighs more in R: each
        # grid's own float64 rounding (a long-double reference puts the
        # grids within 0.003 eps of each other).  Formed from w itself
        # instead of from the states' deviations, seed 2 at N = 1024, a =
        # 0.1, p = 1 read 7.5 and 8.7 eps of f(0) and d(0), and seed 3 at
        # N = 256 9.7 eps of R, as a coarse grid's fewer nodes average the
        # rounding of w less
        grid = dlss.make_grid(TWO_PI, n_points)
        u = random_log_density(grid, 4, seed, amplitude=a)
        t_final, dt = 10.0, 2e-2
        v0 = u.values ** (2.0 / p)
        assert len(flow_schedule(v0, grid, t_final, dt)) > 1
        assert len(flow_schedule(u.values, grid, t_final, dt)) > 1
        flow = dlss.heatflow_verify(u, p, t_final, dt)
        _, f_ref, d_ref = map(np.array, zip(*flow_functionals_oracle(v0, grid, p, t_final, dt)))
        assert np.abs(flow.f_value - f_ref).max() <= 8 * EPS * abs(f_ref[0])
        assert np.abs(flow.dissipation - d_ref).max() <= 8 * EPS * abs(d_ref[0])
        remainder = oracle_remainder(u.values, grid, p, t_final, dt)
        assert abs(dlss.remainder_R(u, p, t_final, dt) - remainder) <= 8 * EPS * remainder

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("datum", ["cosine", "six-mode"])
    @pytest.mark.parametrize("n_points", [64, 256, 1024])
    def test_edge_data_match_oracle(self, n_points, datum, p):
        # data near the edge of the grid rule: 1 + 0.99 cos x, whose v nearly
        # touches 0, and a six-mode log-density at amplitude 1, down to 8
        # points against the full-grid oracle within 8 eps of f(0), d(0)
        # and R
        grid = dlss.make_grid(TWO_PI, n_points)
        u = cosine_density(grid, 0.99) if datum == "cosine" else random_log_density(grid, 6, 3, amplitude=1.0)
        t_final, dt = 12.5, 1e-2
        v0 = u.values ** (2.0 / p)
        assert flow_schedule(v0, grid, t_final, dt)[-1][1] == 8
        assert flow_schedule(u.values, grid, t_final, dt)[-1][1] == 8
        flow = dlss.heatflow_verify(u, p, t_final, dt)
        _, f_ref, d_ref = map(np.array, zip(*flow_functionals_oracle(v0, grid, p, t_final, dt)))
        remainder = oracle_remainder(u.values, grid, p, t_final, dt)
        f_scale, d_scale, r_scale = abs(f_ref[0]), abs(d_ref[0]), remainder
        if datum == "cosine" and p == 2.0:
            # mode 1 is extremal: f = 0 for all time and d and R are
            # rounding, so each is measured against its two equal terms at
            # t = 0: int w_x^2 for f and R, 2 int w_xx^2 for d (w = v)
            wx, wxx = (dlss.derivative(Field(grid, v0), k).values for k in (1, 2))
            f_scale = r_scale = grid.spacing * np.sum(wx * wx)
            d_scale = 2.0 * grid.spacing * np.sum(wxx * wxx)
        assert np.abs(flow.f_value - f_ref).max() <= 8 * EPS * f_scale
        assert np.abs(flow.dissipation - d_ref).max() <= 8 * EPS * d_scale
        assert abs(dlss.remainder_R(u, p, t_final, dt) - remainder) <= 8 * EPS * r_scale

    @pytest.mark.parametrize(
        "n_points, t_final, sizes",
        [
            (256, 10.0, (256, 128, 64, 32, 16, 8)),
            (1024, 10.0, (1024, 512, 256, 128, 64, 32, 16, 8)),
            (96, 40.0, (96, 48, 24, 12)),
        ],
    )
    def test_grid_schedule(self, n_points, t_final, sizes):
        # M(0) = N, and the grid halves, never grows, at the first lattice
        # time where eps (2 B)^2 + T <= eps: B the strip sum over vbar, each
        # mode weighted by cosh(kappa n s), and T the weighted tail of modes
        # M/2 and up, written out again here
        grid = dlss.make_grid(TWO_PI, n_points)
        u = random_log_density(grid, 4, 5, amplitude=0.5)
        dt = 1e-2
        schedule = flow_schedule(u.values, grid, t_final, dt)
        assert tuple(m for _, m in schedule) == sizes
        assert schedule[0] == (0, n_points)
        firsts = [k for k, _ in schedule]
        assert firsts == sorted(set(firsts))
        wave = (TWO_PI / grid.length) * np.arange(n_points // 2 + 1)
        c = 2.0 / n_points * np.abs(np.fft.rfft(u.values)[1:]) / u.values.mean()

        def admissible(m, t):
            s = _STRIP_X / (TWO_PI / grid.length * m / 2)
            # cosh(kappa n s) e^{-kappa^2 n^2 t} as two exponentials, which do not overflow
            decay = -wave[1:] ** 2 * t
            strip = np.sum(c * (np.exp(wave[1:] * s + decay) + np.exp(-wave[1:] * s + decay)) / 2.0)
            tail = np.sum(c[m // 2 - 1 :] * np.exp(-wave[m // 2 :] ** 2 * t))
            weight = 64.0 * (2.0 + math.sqrt(2.0)) + 4.0
            return EPS * (2.0 * strip) ** 2 + weight * tail <= EPS * (1.0 + 1e-12)

        for k, m in schedule[1:]:
            assert admissible(m, k * dt) and not admissible(m, (k - 1) * dt)
        # 96 points stop at 12: 6 is below the 8 points of the coarsest grid

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        amplitude=st.floats(0.05, 0.95),
        n_points=st.sampled_from([16, 64, 256, 1024]),
        j=st.integers(1, 7),
        shift=st.sampled_from([None, -1, 0, 1]),
        later=st.floats(0.0, 1.0),
    )
    def test_admissibility_is_monotone(self, seed, amplitude, n_points, j, shift, later):
        # admissible at (M, t) means admissible at every later t and at 2M,
        # so each switch is one bisection and the grid never grows.  t is
        # M's first admissible time, where the test is tight; a cosine at
        # mode M/2 + shift makes the tail of modes M/2 and up decide it
        m = n_points >> j
        assume(m >= 8)
        grid = dlss.make_grid(TWO_PI, n_points)
        if shift is None:
            u = random_log_density(grid, 6, seed, amplitude=amplitude)
        else:
            u = cosine_density(grid, amplitude, m // 2 + shift)
        wave = (TWO_PI / grid.length) * np.arange(n_points // 2 + 1)
        admissible = _admissible(np.fft.rfft(u.values), grid, wave)
        lo, hi = 0.0, 100.0
        assert admissible(m, hi)
        while hi - lo > 1e-13 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if not admissible(m, mid) else (lo, mid)
        assert admissible(m, hi * (1.0 + later)) and admissible(2 * m, hi)

    @pytest.mark.parametrize("seed", range(12))
    def test_line_norm_premises(self, seed):
        # the facts the derivation above _STRIP_X takes of the line norm
        # Phi_s(g) = sum_{n in Z} |g_n| e^{kappa n s}, checked on random real
        # trigonometric polynomials: it is an algebra norm (exact coefficient
        # convolution), bounds |g| on the closed strip |Im x| <= s (direct
        # sums on a fine grid), bounds each one-sided tail sum_{n >= K} |g_n|
        # by e^{-kappa K s} Phi_s(g), and is the strip sum B of _admissible
        rng = np.random.default_rng(seed)
        n_points = int(rng.choice([16, 32, 64, 128, 256]))
        s = 3.0 - float(rng.uniform(0.0, 3.0))  # in (0, 3]
        length = TWO_PI * max(1.0, n_points * s / 300.0)  # no weight e^{kappa n s} overflows
        kappa = TWO_PI / length
        n = np.arange(-(n_points // 2), n_points // 2 + 1)

        def real_polynomial():
            # coefficients g_n for n = -N/2 .. N/2 with g_-n = conj(g_n)
            decay = np.exp(-kappa * np.abs(n) * s * rng.uniform(0.0, 1.5))
            half = (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size)) * decay
            return (half + np.conj(half[::-1])) / 2.0

        def phi(g, modes=n):
            return float(np.sum(np.abs(g) * np.exp(kappa * modes * s)))

        g, h = real_polynomial(), real_polynomial()
        assert np.array_equal(g[::-1], np.conj(g))
        product = np.convolve(g, h)  # modes -N .. N
        assert phi(product, np.arange(-n_points, n_points + 1)) <= phi(g) * phi(h) * (1.0 + 1e-12)
        x = np.linspace(0.0, length, 8 * n_points, endpoint=False)
        for line in (-s, -s / 2.0, 0.0, s / 2.0, s):
            values = np.exp(1j * kappa * np.outer(x + 1j * line, n)) @ g
            assert np.abs(values).max() <= phi(g) * (1.0 + 1e-12)
        # the same on both lines: Phi_{-s}(g) = Phi_s(g)
        assert float(np.sum(np.abs(g) * np.exp(-kappa * n * s))) == pytest.approx(phi(g), rel=1e-13)
        for k in range(1, n_points // 2 + 1):
            assert np.abs(g[n >= k]).sum() <= math.exp(-kappa * k * s) * phi(g) * (1.0 + 1e-12)

        # a positive datum with modes 1..3 and amplitudes summing to 0.6-0.95, so
        # B > 1/2 at t = 0 and no tail on m >= 8 points: _admissible admits
        # exactly where 2 B <= 1, and B is Phi_s of z = v / vbar - 1
        grid = PeriodicGrid(length, n_points)
        wave = kappa * np.arange(n_points // 2 + 1)
        vbar = float(rng.uniform(0.5, 2.0))
        amplitudes = rng.dirichlet(np.ones(3)) * rng.uniform(0.6, 0.95)
        v0_hat = np.zeros(n_points // 2 + 1, dtype=complex)
        v0_hat[0] = n_points * vbar
        v0_hat[1:4] = n_points / 2.0 * vbar * amplitudes * np.exp(2j * math.pi * rng.uniform(size=3))
        m = int(rng.choice([size for size in (8, 16, 32, 64, 128, 256) if size <= n_points]))
        admissible = _admissible(v0_hat, grid, wave)
        strip_s = _STRIP_X / (kappa * m / 2)

        def phi_z(t):
            # z_n for n = -3 .. 3, the only modes of z
            positive = v0_hat[1:4] / (n_points * vbar) * np.exp(-wave[1:4] ** 2 * t)
            z = np.concatenate([np.conj(positive[::-1]), [0.0], positive])
            return float(np.sum(np.abs(z) * np.exp(kappa * np.arange(-3, 4) * strip_s)))

        lo, hi = 0.0, 1.0
        while not admissible(m, hi):
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-14 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if not admissible(m, mid) else (lo, mid)
        assert phi_z(0.0) > 0.5
        assert 2.0 * phi_z(hi) == pytest.approx(1.0, rel=1e-9)

    def test_strip_exponent_is_the_least_that_meets_the_bound(self):
        # the aliasing bound derived above _STRIP_X, written out again:
        # 2 F <= eps with F = 4 nu (1 + nu)^3 + 32 q, q = e^{-x} and
        # nu = 2 e x q, x = kappa (M/2) s; F falls as x grows past 1

        def bound(x):
            q = math.exp(-x)
            nu = 2.0 * math.e * x * q
            return 2.0 * (4.0 * nu * (1.0 + nu) ** 3 + 32.0 * q)

        assert bound(_STRIP_X) <= EPS < bound(_STRIP_X * (1.0 - 1e-11))
        xs = np.linspace(1.0, _STRIP_X, 1000)
        assert all(bound(a) > bound(b) for a, b in zip(xs, xs[1:]))

    @pytest.mark.parametrize("n_points", [36, 72, 100])
    def test_schedule_sizes_are_halvings(self, n_points):
        # the heat flow halves through _halvings(N) alone, as the solve
        # does: 36 and 72 stop at 18 and 100 at 50, never at 9 or 25
        grid = dlss.make_grid(TWO_PI, n_points)
        u = cosine_density(grid, 0.5)
        sizes = [m for _, m in flow_schedule(u.values, grid, 10.0, 1e-3)]
        assert len(sizes) > 1
        assert all(m % 2 == 0 and m in _halvings(n_points) for m in sizes)

    def test_rows_below_half_the_mean_take_the_power(self):
        # at p = 1.5, w is W + (w - W) in a state with v >= vbar / 2 and the
        # power v^{p/2} in one without; the states this flow keeps on the
        # full grid are one block holding both kinds, and each row is bit
        # for bit the oracle's
        grid = dlss.make_grid(TWO_PI, 64)
        u = cosine_density(grid, 0.9)
        v0 = u.values ** (2.0 / 1.5)
        n_states = 201
        full = ([k for k, _ in flow_schedule(v0, grid, 2.0, 1e-2)[1:]] + [n_states])[0]
        assert full <= _BLOCK_VALUES // 64
        assert v0.min() < 0.5 * v0.mean() < heat_state(v0, grid, (full - 1) * 1e-2).min()
        records = dlss.heatflow_verify(u, 1.5, 2.0, 1e-2)
        expected = flow_functionals_oracle(v0, grid, 1.5, 2.0, 1e-2)
        assert [(r.t, r.f_value, r.dissipation) for r in records][:full] == expected[:full]

    @pytest.mark.parametrize("first", [0, 100])
    def test_decay_table_zeroes_the_entries_past_the_cut(self, grid256, first):
        # at t wave^2 >= X an entry is exactly 0, before it exp(-t wave^2)
        # bit for bit, and none is subnormal; the columns cut on every row
        # are left untouched
        wave = (TWO_PI / grid256.length) * np.arange(129)
        wave2 = wave * wave
        t = np.arange(first, first + 64) * 1e-3
        cut = _decay_cut(256, 1.0, 0.5)  # vbar / min v0 = 2
        assert cut == pytest.approx(math.log(512.0) + 107.0 * math.log(2.0), rel=1e-15)
        table = np.full((t.size, wave.size), np.nan)
        live = _heat_decay(t, wave2, cut, table)
        exponent = np.outer(t, wave2)
        assert live == np.count_nonzero(exponent[0] < cut)
        kept, values = exponent[:, :live] < cut, table[:, :live]
        assert np.array_equal(values[kept], np.exp(-exponent[:, :live][kept]))
        assert not values[~kept].any()
        assert np.isnan(table[:, live:]).all()
        assert np.all((values == 0.0) | (values >= np.finfo(float).tiny))
        # the cut moves from row to row inside the table: 129 columns kept
        # at t = 0 and 36 at 0.063, 29 at t = 0.1 and 23 at 0.163
        counts = kept.sum(axis=-1)
        assert (counts[0], counts[-1]) == ((129, 36) if first == 0 else (29, 23))

    def test_decay_cut_widens_and_gives_way(self):
        # X = ln(m vbar / nu) + 107 ln 2 grows as min v0 nears 0 and cuts
        # nothing once nu = min v0 - 2^-53 vbar is not positive
        assert _decay_cut(256, 1.0, 1e-12) == pytest.approx(math.log(256e12) + 107.0 * math.log(2.0), rel=1e-15)
        assert _decay_cut(256, 1.0, 1e-12) > _decay_cut(256, 1.0, 0.5) > _decay_cut(8, 1.0, 0.5)
        assert _decay_cut(256, 1.0, 0.0) == _decay_cut(256, 1.0, -1e-17) == math.inf

    @pytest.mark.parametrize(
        "datum",
        ["certify256", "edge-cosine", "edge-six-mode", "n100", "near-zero"],
    )
    def test_cut_leaves_every_bit(self, monkeypatch, datum):
        # every flow and R bit for bit against the table with no cut: the
        # eight certify256 data of seed 0 at p = 1 and 1.5; the data of
        # test_edge_data_match_oracle at N = 64, 256 and 1024; N = 100,
        # whose halvings stop at 50; and
        # 1 + (1 - 1e-12) cos x at N = 256, where min v0 / vbar = 1e-12
        # widens the cut to X = 107.3 from about 82
        if datum == "certify256":
            cases = [(u, p, 10.0, 1e-3) for u in certify256_data() for p in (1.0, 1.5)]
        elif datum.startswith("edge"):
            cases = []
            for n_points in (64, 256, 1024):
                grid = dlss.make_grid(TWO_PI, n_points)
                u = cosine_density(grid, 0.99) if datum == "edge-cosine" else random_log_density(grid, 6, 3, amplitude=1.0)
                cases += [(u, p, 12.5, 1e-2) for p in (1.0, 2.0)]
        elif datum == "n100":
            grid = dlss.make_grid(TWO_PI, 100)
            u = Field(grid, np.exp(0.3 * np.cos(grid.nodes) + 0.2 * np.sin(3.0 * grid.nodes)), FieldKind.DENSITY)
            assert flow_schedule(u.values, grid, 60.0, 5e-2) == [(0, 100), (15, 50)]
            cases = [(u, p, 60.0, 5e-2) for p in (1.0, 1.5, 2.0)]
        else:
            grid = dlss.make_grid(TWO_PI, 256)
            u = cosine_density(grid, 1.0 - 1e-12)
            assert u.values.min() / u.values.mean() == pytest.approx(1e-12, rel=1e-3)
            cut = _decay_cut(256, u.values.mean(), u.values.min() - 2.0 ** -53 * u.values.mean())
            assert 107.0 < cut < 108.0
            cases = [(u, 2.0, 10.0, 1e-3), (u, 2.0, 1.0, 1e-4)]

        def flows():
            out = []
            for u, p, t_final, dt in cases:
                flow = dlss.heatflow_verify(u, p, t_final, dt)
                out.append((flow.f_value.tobytes(), flow.dissipation.tobytes(), dlss.remainder_R(u, p, t_final, dt)))
            return out

        pruned = flows()
        monkeypatch.setattr(dlss.inequalities, "_heat_decay", unpruned_decay)
        assert flows() == pruned

    @pytest.mark.skipif(not LONG_DOUBLE_FFT, reason="no long double FFT finer than float64")
    @pytest.mark.parametrize(
        "n_points, datum, p",
        [
            (n_points, datum, p)
            for n_points in (64, 256, 1024)
            for datum, p in [(f"a={a}", p) for a in (0.1, 0.9) for p in (1.0, 1.5, 2.0)]
            + [(datum, p) for datum in ("cosine", "six-mode") for p in (1.0, 2.0)]
        ]
        + [(256, f"certify256-{k}", p) for k in range(8) for p in (1.0, 1.5)],
    )
    def test_grid_rule_within_eps_in_long_double(self, n_points, datum, p):
        # the grid rule's own error, free of float64 rounding: f, the
        # production and R with every state on its scheduled grid against
        # every state on the full grid, both in long double, within eps of
        # their scales (the float64 tests allow 8 eps, for each grid's own
        # rounding), for the random data of
        # test_coarse_states_match_oracle, the edge data of
        # test_edge_data_match_oracle and the eight certify256 data of seed
        # 0 at T = 10, dt = 5e-2.  The largest measured are 0.0011 eps of
        # f(0), 0.0015 eps of d(0) and 0.0029 eps of R (0.00025, 1.6e-5 and
        # 0.00066 eps on the certify256 data)
        grid = dlss.make_grid(TWO_PI, n_points)
        if datum == "cosine":
            u = cosine_density(grid, 0.99)
        elif datum == "six-mode":
            u = random_log_density(grid, 6, 3, amplitude=1.0)
        elif datum.startswith("certify256"):
            u = certify256_data()[int(datum.rsplit("-", 1)[1])]
        else:
            u = random_log_density(grid, 4, 5, amplitude=float(datum[2:]))
        times = np.arange(201) * 5e-2
        v0 = u.values ** (2.0 / p)
        (f, d), (f_full, d_full) = long_double_flow(v0, grid, p, times)
        (_, d_remainder), (_, d_remainder_full) = long_double_flow(u.values, grid, p, times)
        r, r_full = remainder_of(times, d_remainder), remainder_of(times, d_remainder_full)
        f_scale, d_scale, r_scale = abs(f_full[0]), abs(d_full[0]), r_full
        if datum == "cosine" and p == 2.0:
            # f, d and R vanish: measure them as test_edge_data_match_oracle does
            wx, wxx = (dlss.derivative(Field(grid, v0), k).values for k in (1, 2))
            f_scale = r_scale = grid.spacing * np.sum(wx * wx)
            d_scale = 2.0 * grid.spacing * np.sum(wxx * wxx)
        assert np.abs(f - f_full).max() <= EPS * f_scale
        assert np.abs(d - d_full).max() <= EPS * d_scale
        assert abs(r - r_full) <= EPS * r_scale

    @pytest.mark.skipif(not LONG_DOUBLE_FFT, reason="no long double FFT finer than float64")
    @pytest.mark.parametrize(
        "n_points, p, seed",
        [(n_points, p, seed) for n_points in (64, 256) for p in (1.0, 1.5, 2.0) for seed in (0, 2, 3)]
        + [(1024, 1.0, 2)],
    )
    def test_float64_flow_within_8_eps_of_long_double(self, n_points, p, seed):
        # the float64 flow itself, every state on its scheduled grid, against
        # every state on the full grid in long double: f, the production and
        # R within 8 eps of f(0), d(0) and R for data at amplitude 0.1, where
        # a state is near its mean.  Transforms of w and v themselves round
        # each mode by about eps W, which is many eps of the production
        # there: 13 eps of d(0) at N = 64, seed 3, p = 1, with every state on
        # the full grid.  From the states' deviations the largest measured
        # over seeds 0-7 and amplitudes 0.1, 0.5 and 0.9 are 3.1, 3.7 and
        # 3.2 eps.  At N = 1024, seed 2, state 1 runs on 256 points, whose
        # fewer nodes average the rounding of w less: 8.7 eps of d(0) there
        # from transforms of w, 0.5 eps with every state on 1024 points
        grid = dlss.make_grid(TWO_PI, n_points)
        u = random_log_density(grid, 4, seed, amplitude=0.1)
        t_final, dt = 10.0, 2e-2
        times = np.arange(round(t_final / dt) + 1) * dt
        v0 = u.values ** (2.0 / p)
        f_exact, d_exact = long_double_functionals(v0, grid, p, times, n_points)
        _, d_remainder = long_double_functionals(u.values, grid, p, times, n_points)
        remainder = remainder_of(times, d_remainder)
        flow = dlss.heatflow_verify(u, p, t_final, dt)
        assert np.abs(flow.f_value - f_exact).max() <= 8 * EPS * abs(f_exact[0])
        assert np.abs(flow.dissipation - d_exact).max() <= 8 * EPS * d_exact[0]
        assert abs(dlss.remainder_R(u, p, t_final, dt) - remainder) <= 8 * EPS * remainder

    @pytest.mark.parametrize("block_values", [256, 2 ** 13, 2 ** 14, 2 ** 16, 2 ** 20])
    def test_block_size_leaves_results_unchanged(self, grid256, monkeypatch, block_values):
        # 1, 32, 64, 256 and all 1001 states per block give the same bits as
        # the default; 32, 64 and 256 leave a short last block, which reads
        # leading rows of the reused work arrays.  The T = 10 flow crosses
        # five switches (128, 64, 32, 16 and 8 points), where blocks end early
        u = random_log_density(grid256, 4, 3, amplitude=0.5)
        assert len(flow_schedule(u.values, grid256, 10.0, 1e-2)) == 6

        def results():
            flows = [dlss.heatflow_verify(u, p, 1.0, 1e-3) for p in (1.0, 2.0)]
            flows.append(dlss.heatflow_verify(u, 2.0, 10.0, 1e-2))
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
        fisher = _integrate(grid64, wx * wx)
        if p == 1.0:
            sig = _integrate(grid64, u0.values * np.log(u0.values / u0.values.mean()))
        else:
            vbar = u0.values.mean()
            sig = (
                _integrate(grid64, u0.values ** p)
                - grid64.length * vbar ** p
            ) / (p - 1.0)
        f0 = fisher - (2.0 * math.pi ** 2 * p / grid64.length ** 2) * sig
        assert r >= 0.0
        assert r == pytest.approx(f0, rel=1e-4)
        # strengthened inequality: (p/4) int sigma'' v_x^2 + R >= sharp * int sigma
        ux = dlss.derivative(u0, 1).values
        lhs = (p / 4.0) * _integrate(grid64, p * u0.values ** (p - 2.0) * ux * ux)
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


class TestOverflowingDatum:
    """A datum whose powers overflow raises ValueError instead of returning
    inf or NaN."""

    @staticmethod
    def datum(grid, base):
        return Field(grid, base * (1.0 + 0.5 * np.cos(grid.nodes)), FieldKind.DENSITY)

    @pytest.mark.parametrize(
        "p,base,what", [(1.0, 1e300, "datum v0"), (2.0, 1e200, "f along")]
    )
    def test_heatflow_verify(self, grid64, p, base, what):
        # v0 = u^2 overflows at p = 1; at p = 2 the flow's f does
        with pytest.raises(ValueError, match=what):
            dlss.heatflow_verify(self.datum(grid64, base), p, 0.1, 1e-3)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_remainder_R(self, grid64, p):
        with pytest.raises(ValueError, match="production along"):
            dlss.remainder_R(self.datum(grid64, 1e300), p, 0.1, 1e-3)

    @pytest.mark.parametrize("p,base", [(1.5, 1e300), (2.0, 1e200)])
    def test_convex_sobolev_check(self, grid64, p, base):
        with pytest.raises(ValueError, match="convex Sobolev sides"):
            dlss.convex_sobolev_check(self.datum(grid64, base), p)


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
