"""Sharp periodic functional inequalities, certified two independent ways.

Direct route: minimise the Rayleigh-type quotient of each inequality over
grid fields by preconditioned projected gradient descent and compare the
infimum with the closed-form constant.

Flow route: take the exact heat semigroup at each lattice time k dt and
watch the Bakry-Emery quantity

    f(t) = int (w_x)^2 - (2 pi^2 p / L^2) int sigma(v),   w = v^{p/2},

decay monotonically to zero; its production integrated over all time is
the remainder term R that strengthens the bare inequality.  No state
depends on the one before it, so states are computed in blocks, and
each block fills its slice of the result columns: heatflow_verify
returns a record array of t, f and the production, one row per lattice
time, and remainder_R integrates the production column.

Quotient kinds and their sharp constants on a circle of length L:

    Poincare(n)       int (v^(n))^2  / int (v - vbar)^2      -> (2 pi / L)^{2n}
    LogSobolev(n)     int (u^(n))^2  / int u^2 log(u^2/||u||^2)
                                                             -> 1/2 (2 pi / L)^{2n}
    ConvexSobolev(p)  int s''(v) v_x^2 / int s(v)            -> 8 pi^2 / L^2

with s(v) = (v^p - vbar^p)/(p - 1) for p in (1, 2], continued to
s(v) = v log(v / vbar) at p = 1, and ||u||^2 = (1/L) int u^2.  The
log-Sobolev and convex constants are attained only as v -> vbar, so their
certificate is the infimum over fields of amplitude sup |v / vbar - 1| =
1e-3, which is the constant times 1 + O(1e-6).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateDenominator, PositivityLost
from .grid import (
    POSITIVITY_FLOOR,
    Field,
    FieldKind,
    PeriodicGrid,
    SPECTRAL,
    _check_finite,
    _check_positive,
    _derivative,
    _integrate,
    _irfft,
    _lattice_steps,
    _rfft,
    _spectral_symbol,
    _spectrum_derivative,
)
from .rng import random_smooth_field

__all__ = [
    "DEFAULT_MAX_ITERS",
    "QuotientKind",
    "QuotientSpec",
    "QuotientResult",
    "quotient_value",
    "minimize_quotient",
    "certify_constant",
    "heatflow_verify",
    "remainder_R",
    "convex_sobolev_check",
]

_DEGENERACY_FLOOR = 1e-14
# Descent budget of one minimisation; the command line and scripts use it too.
DEFAULT_MAX_ITERS = 4000
# Relative change of the quotient under which one accepted step ends a descent.
_DESCENT_TOL = 1e-14
# Amplitude sup |v / vbar - 1| of every log-Sobolev and convex Sobolev
# iterate: their constants are reached only as it goes to 0, and the
# quotient there is the constant times 1 + O(_PIN^2).
_PIN = 1e-3
# Heat-flow values per block (64 states at N = 256); the size never changes a bit.
# A call allocates its work arrays once, about 1 MB here.  One N = 256, T = 10
# heatflow_verify + remainder_R pair took a median 247 / 213 / 210 ms of CPU at
# 2**13 / 2**14 / 2**15 (30 interleaved rounds, 2-core Xeon).
_BLOCK_VALUES = 2 ** 14
# exp(-x) is exactly 0.0 for every x >= 746: it falls below half the least subnormal.
_EXP_UNDERFLOW = 746.0


class QuotientKind(enum.Enum):
    POINCARE = "poincare"
    LOG_SOBOLEV = "log_sobolev"
    CONVEX_SOBOLEV = "convex_sobolev"


@dataclass(frozen=True)
class QuotientSpec:
    """Which inequality, with its order n or convexity exponent p."""

    kind: QuotientKind
    n: int = 1
    p: float = 2.0

    def __post_init__(self):
        if self.kind is QuotientKind.CONVEX_SOBOLEV:
            if not 1.0 < self.p <= 2.0:
                raise ValueError(f"convexity exponent p must lie in (1, 2], got {self.p}")
        else:
            if self.n < 1:
                raise ValueError(f"derivative order n must be at least 1, got {self.n}")

    def analytic_constant(self, length: float) -> float:
        k1 = 2.0 * math.pi / length
        if self.kind is QuotientKind.POINCARE:
            return k1 ** (2 * self.n)
        if self.kind is QuotientKind.LOG_SOBOLEV:
            return 0.5 * k1 ** (2 * self.n)
        return 8.0 * math.pi ** 2 / length ** 2


def poincare(n: int = 1) -> QuotientSpec:
    return QuotientSpec(QuotientKind.POINCARE, n=n)


def log_sobolev(n: int = 1) -> QuotientSpec:
    return QuotientSpec(QuotientKind.LOG_SOBOLEV, n=n)


def convex_sobolev(p: float) -> QuotientSpec:
    return QuotientSpec(QuotientKind.CONVEX_SOBOLEV, p=p)


@dataclass(frozen=True)
class QuotientResult:
    """Outcome of a quotient minimisation."""

    value: float
    minimizer: Field
    iterations: int
    evaluations: int
    residual: float
    analytic: float
    converged: bool

    @property
    def rel_error(self) -> float:
        return abs(self.value - self.analytic) / abs(self.analytic)


def _evaluate(spec: QuotientSpec, vals: np.ndarray, grid: PeriodicGrid) -> tuple[float, float, tuple]:
    """(q, den, saved): the quotient at ``vals``, its denominator, and the
    arrays its gradient reuses, namely rfft(vals) and vals - vbar
    (Poincare), rfft(vals) and log(vals^2 / m) with m the mean of vals^2
    (log-Sobolev), or v_x, vals^(p-2) and vbar (convex Sobolev).  A
    degenerate denominator raises ``DegenerateDenominator``."""
    if spec.kind is QuotientKind.CONVEX_SOBOLEV:
        _check_positive(vals)
        p = spec.p
        dv = _derivative(grid, vals, 1, SPECTRAL)
        weight = vals ** (p - 2.0)
        num = p * _integrate(grid, weight * dv * dv)
        vbar = float(vals.sum()) / vals.size
        # int v^p - L vbar^p with its p sum(d) = 0 term dropped, d = v/vbar - 1:
        # free of the cancellation that costs ~1e-10 at amplitude _PIN
        d = vals / vbar - 1.0
        den = vbar ** p * _integrate(grid, np.expm1(p * np.log1p(d)) - p * d) / (p - 1.0)
        saved = (dv, weight, vbar)
    else:
        vhat = _rfft(vals)
        dn = _spectrum_derivative(grid, vhat, spec.n)
        num = _integrate(grid, dn * dn)
        if spec.kind is QuotientKind.POINCARE:
            dev = vals - vals.sum() / vals.size
            den = _integrate(grid, dev * dev)
            saved = (vhat, dev)
        else:
            sq = vals * vals
            m = float(sq.sum()) / vals.size
            den = 0.0
            if m > 0.0:
                # int v^2 log v^2 - L m log m as m h sum[(1 + e) log1p(e) - e],
                # e = v^2/m - 1 and sum(e) = 0: free of the cancellation that
                # costs ~3e-10 at amplitude _PIN; a zero node (e = -1) adds 0
                ratio = sq / m
                e = ratio - 1.0
                log_ratio = np.log1p(e, out=np.zeros(e.size), where=e > -1.0)
                den = m * _integrate(grid, ratio * log_ratio - e)
                saved = (vhat, log_ratio)
    if abs(den) < _DEGENERACY_FLOOR:
        raise DegenerateDenominator(
            f"denominator {den:.3e} below {_DEGENERACY_FLOOR:.0e}; "
            "field is too close to constant"
        )
    return num / den, den, saved


def quotient_value(spec: QuotientSpec, u: Field) -> float:
    """Evaluate the quotient with spectral derivatives; degenerate
    (near-constant) input is an error."""
    return _evaluate(spec, u.values, u.grid)[0]


def _gradient(spec: QuotientSpec, vals: np.ndarray, grid: PeriodicGrid, evaluation: tuple) -> np.ndarray:
    """L2 gradient of the quotient at ``vals`` from ``_evaluate`` there."""
    q, den, saved = evaluation
    if spec.kind is QuotientKind.CONVEX_SOBOLEV:
        p = spec.p
        dv, weight, vbar = saved
        flux = _derivative(grid, p * weight * dv, 1, SPECTRAL)
        d_num = p * (p - 2.0) * vals ** (p - 3.0) * dv * dv - 2.0 * flux
        d_den = p * (vals ** (p - 1.0) - vbar ** (p - 1.0)) / (p - 1.0)
    else:
        sign = -1.0 if spec.n % 2 else 1.0
        d_num = 2.0 * sign * _spectrum_derivative(grid, saved[0], 2 * spec.n)
        if spec.kind is QuotientKind.POINCARE:
            d_den = 2.0 * saved[1]
        else:
            d_den = 2.0 * vals * saved[1]
    return (d_num - q * d_den) / den


def _without_nyquist(hat: np.ndarray, n: int) -> np.ndarray:
    """Inverse real FFT of ``hat`` with the Nyquist coefficient of an even
    grid zeroed."""
    if n % 2 == 0:
        hat[-1] = 0.0
    return _irfft(hat, n)


@lru_cache(maxsize=None)
def _precondition_divisor(modes: int, n: int) -> np.ndarray:
    """Read-only 1 + m^{2n} on the rfft modes m = 0 .. modes - 1."""
    m = np.arange(modes, dtype=float)
    divisor = 1.0 + m ** (2 * n)
    divisor.setflags(write=False)
    return divisor


def _precondition(g: np.ndarray, spec: QuotientSpec) -> np.ndarray:
    """Damp mode m of the gradient by 1/(1 + m^{2n}) and drop its
    Nyquist mode.

    The raw quotient gradient is dominated by the highest-derivative term,
    whose symbol grows like m^{2n}; undamped descent would be limited by
    the grid's largest wavenumber and could not reach tight tolerances.
    """
    n = spec.n if spec.kind is not QuotientKind.CONVEX_SOBOLEV else 1
    ghat = _rfft(g)
    ghat /= _precondition_divisor(ghat.size, n)
    return _without_nyquist(ghat, g.size)


def _normalize(spec: QuotientSpec, vals: np.ndarray, grid: PeriodicGrid) -> np.ndarray | None:
    """Pin down the quotient's scaling/shift invariance; None = inadmissible.

    Poincare fields become mean-zero with unit mass.  Log-Sobolev and
    convex fields become 1 + _PIN (v - vbar) / sup |v - vbar|, that is
    v / vbar pinned to amplitude _PIN, and log-Sobolev ones then unit norm.
    """
    dev = vals - vals.sum() / vals.size
    if spec.kind is QuotientKind.POINCARE:
        scale = math.sqrt(float(grid.spacing * (dev * dev).sum()))
        if scale <= 0.0:
            return None
        return dev / scale
    sup = float(np.abs(dev).max())
    if sup <= _DEGENERACY_FLOOR * float(np.abs(vals).max()):
        return None  # constant up to rounding: no direction to pin
    out = 1.0 + (_PIN / sup) * dev
    if spec.kind is QuotientKind.LOG_SOBOLEV:
        return out / math.sqrt(float((out * out).sum()) / out.size)
    return out


def minimize_quotient(
    spec: QuotientSpec,
    u_init: Field,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = _DESCENT_TOL,
) -> QuotientResult:
    """Projected gradient descent on the quotient from ``u_init``.

    The search runs over Nyquist-free fields: the start loses its Nyquist
    coefficient and every step is Nyquist-free.  The sawtooth (-1)^j has
    zero odd spectral derivatives, so it drives the Poincare and
    log-Sobolev quotients of odd order and the convex quotients to 0, and
    on coarse grids an unrestricted descent drifts into it.  Each iterate
    is renormalised (mean-zero unit mass for Poincare; amplitude
    sup |v / vbar - 1| = _PIN = 1e-3 and then unit norm for log-Sobolev;
    amplitude _PIN and unit mean for convex Sobolev) and steps are
    backtracked, halving, until the quotient strictly decreases, so the
    value is monotone along the iteration.  With floor = tol max(|q|, 1),
    the run stops, converged, as soon as one accepted step lowers the
    quotient q by at most floor, or when backtracking reaches a step s
    whose first-order decrease s h sum(g gp) is at most floor (g the
    gradient, gp its preconditioned form): no step that still counts
    decreases q.  Hitting ``max_iters`` first returns the best iterate
    with ``converged`` set to False.

    The log-Sobolev and convex constants are reached only in the linear
    limit v -> vbar (1 + eps phi), so the value is the infimum over fields
    of amplitude eps = _PIN: the constant C times 1 + O(eps^2), a relative
    excess of ~2e-7 for log-Sobolev and below 4e-8 for convex p < 2
    (rounding level at p = 2, where the quotient is quadratic).  Pinned,
    every landscape is nearly quadratic and a start converges in tens of
    iterations at the default ``tol``.

    Iterates and candidates are plain arrays, each checked finite (and,
    for convex Sobolev, positive) and evaluated once; the gradient at an
    accepted candidate reuses that evaluation's spectrum and denominator.
    Only the returned minimizer is built as a ``Field``, and
    ``evaluations`` counts the quotient evaluations, the start's and every
    candidate's.  A negative ``max_iters`` or a negative, infinite or NaN
    ``tol`` raises ``ValueError``.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    grid = u_init.grid
    vals = _normalize(spec, _without_nyquist(_rfft(u_init.values), grid.n_points), grid)
    if vals is None:
        raise DegenerateDenominator("initial field cannot be normalised")
    evaluation = _evaluate(spec, _check_finite(vals), grid)
    q = evaluation[0]

    evaluations = 1
    step = 0.5
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        g = _gradient(spec, vals, grid, evaluation)
        gp = _precondition(g, spec)
        slope = grid.spacing * float((g * gp).sum())
        floor = tol * max(abs(q), 1.0)

        accepted = False
        s = step
        while s * slope > floor:
            cand = _normalize(spec, vals - s * gp, grid)
            if cand is not None:
                evaluations += 1
                try:
                    cand_evaluation = _evaluate(spec, _check_finite(cand), grid)
                except DegenerateDenominator:
                    cand_evaluation = None
                if cand_evaluation is not None and cand_evaluation[0] < q:
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            converged = True
            break

        dq = q - cand_evaluation[0]
        vals, evaluation, q = cand, cand_evaluation, cand_evaluation[0]
        step = min(s * 1.3, 1e6)
        if dq <= floor:
            converged = True
            break

    g = _gradient(spec, vals, grid, evaluation)
    residual = float(np.abs(_precondition(g, spec)).max())
    kind = FieldKind.DENSITY if spec.kind is QuotientKind.CONVEX_SOBOLEV else FieldKind.GENERIC
    return QuotientResult(
        value=q,
        minimizer=Field(grid, vals, kind),
        iterations=iters,
        evaluations=evaluations,
        residual=residual,
        analytic=spec.analytic_constant(grid.length),
        converged=converged,
    )


def _initial_guess(spec: QuotientSpec, grid: PeriodicGrid, seed: int) -> Field:
    n_modes = max(2, min(8, grid.n_points // 4))
    g = random_smooth_field(grid, n_modes, seed, amplitude=1.0, mean_zero=True)
    if spec.kind is QuotientKind.POINCARE:
        return g
    if spec.kind is QuotientKind.LOG_SOBOLEV:
        return Field(grid, 1.0 + 0.5 * g.values)
    return Field(grid, np.exp(0.5 * g.values), FieldKind.DENSITY)


def certify_constant(
    spec: QuotientSpec,
    grid: PeriodicGrid,
    seeds: tuple[int, ...] = (0, 1, 2),
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = _DESCENT_TOL,
) -> QuotientResult:
    """Multi-start minimisation: run ``minimize_quotient`` from one random
    admissible field per seed and keep the lowest converged value.  At
    least one seed is required, ``max_iters`` must be nonnegative and
    ``tol`` finite and nonnegative."""
    if not seeds:
        raise ValueError("seeds must name at least one start")
    best = None
    for seed in seeds:
        res = minimize_quotient(spec, _initial_guess(spec, grid, seed), max_iters=max_iters, tol=tol)
        if best is None or (res.converged, -res.value) > (best.converged, -best.value):
            best = res
    return best


# ---------------------------------------------------------------------------
# Heat-flow certification


def _sigma_integral(v: np.ndarray, grid: PeriodicGrid, p: float, scratch: np.ndarray) -> np.ndarray:
    """int sigma(v) of each flow state, one per row of v; ``scratch`` is
    overwritten."""
    # scalar log and pow of the row means: numpy's vectorised ones differ by an ulp
    vbar = v.mean(axis=-1).tolist()
    if p == 1.0:
        log_vbar = np.array([math.log(m) for m in vbar])
        np.log(v, out=scratch)
        scratch -= log_vbar[:, None]
        scratch *= v
        return grid.spacing * scratch.sum(axis=-1)
    vbar_p = np.array([m ** p for m in vbar])
    np.copyto(scratch, v)
    scratch **= p  # in place, so numpy picks the same kernel as for v ** p
    return grid.spacing * (scratch.sum(axis=-1) - v.shape[-1] * vbar_p) / (p - 1.0)


def _flow_dissipation(v: np.ndarray, grid: PeriodicGrid, p: float, work: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(sum of w_x^2, dissipation) for each flow state, one per row of v;
    w_x and w_xx come from one transform of w = v^{p/2}.  Every
    intermediate is written into ``work``, block arrays of _heat_flow."""
    spectrum, w_hat, w, wx, wxx, scratch = work
    n = grid.n_points
    np.copyto(w, v)
    w **= p / 2.0  # as v ** (p / 2), a square root at p = 1
    _rfft(w, out=w_hat)
    for order, out in ((1, wx), (2, wxx)):
        np.multiply(w_hat, _spectral_symbol(n, order, grid.length), out=spectrum)
        _irfft(spectrum, n, out=out)
    wx2 = np.multiply(wx, wx, out=wx)
    wx2_sum = wx2.sum(axis=-1)
    # wxx^2 - c wx^2 + (2/p - 1) (wx^2 wx^2) / ((3 w) w), associated as written
    quart = np.multiply(wx2, wx2, out=scratch)
    quart *= 2.0 / p - 1.0
    np.multiply(wxx, wxx, out=wxx)
    wxx -= np.multiply(4.0 * math.pi ** 2 / grid.length ** 2, wx2, out=wx)
    denominator = np.multiply(3.0, w, out=wx)
    denominator *= w
    quart /= denominator
    wxx += quart
    return wx2_sum, 2.0 * grid.spacing * wxx.sum(axis=-1)


def _heat_decay(t: np.ndarray, wave2: np.ndarray, out: np.ndarray) -> int:
    """Write exp(-t wave^2) for the block times t into the leading columns
    of ``out`` and return how many there are.  The later columns are left
    alone: t[0] wave^2 >= _EXP_UNDERFLOW there, so exp gives exactly 0.0
    on every row."""
    live = int(np.searchsorted(t[0] * wave2, _EXP_UNDERFLOW))
    table = out[:, :live]
    np.multiply.outer(-t, wave2[:live], out=table)  # -(t wave^2), bit for bit
    np.exp(table, out=table)
    return live


def _heat_flow(v0: np.ndarray, grid: PeriodicGrid, p: float, t_final: float, dt: float, with_f: bool):
    """Columns (t, f, dissipation) of the periodic heat flow from v0, one
    entry per lattice time t = k dt, t = 0 included; f is None unless
    ``with_f``.

    The state at k dt is the spectrum of v0 times exp(-wave^2 k dt), so a
    block of states is one batched inverse FFT; every state, v0 included,
    is checked against the positivity floor.  The columns and the block
    work arrays are allocated once, and each block fills its slice of the
    columns (a short last block uses leading rows of the work arrays).
    """
    n_steps = _lattice_steps(t_final, dt, "dt")
    n = grid.n_points
    wave = (2.0 * math.pi / grid.length) * np.arange(n // 2 + 1)
    wave2 = wave * wave
    v0_hat = _rfft(v0)
    times = np.arange(n_steps + 1) * float(dt)  # float64 even for an int dt
    f = np.empty(n_steps + 1) if with_f else None
    dissipation = np.empty(n_steps + 1)
    rows = min(max(1, _BLOCK_VALUES // n), n_steps + 1)
    decay = np.empty((rows, wave.size))
    spectrum, w_hat = np.empty((2, rows, wave.size), dtype=complex)
    states, w, wx, wxx, scratch = np.empty((5, rows, n))
    for start in range(0, n_steps + 1, rows):
        block = slice(start, start + rows)
        t = times[block]
        r = t.size
        live = _heat_decay(t, wave2, decay[:r])
        np.multiply(v0_hat[:live], decay[:r, :live], out=spectrum[:r, :live])
        spectrum[:r, live:] = 0.0
        v = _irfft(spectrum[:r], n, out=states[:r])
        if start == 0:
            v[0] = v0
        low = np.flatnonzero(v.min(axis=-1) <= POSITIVITY_FLOOR)
        if low.size:
            raise PositivityLost(f"flow state touched the positivity floor at t = {t[low[0]]:.6g}")
        work = tuple(a[:r] for a in (spectrum, w_hat, w, wx, wxx, scratch))
        wx2_sum, dissipation[block] = _flow_dissipation(v, grid, p, work)
        if with_f:
            sigma = _sigma_integral(v, grid, p, scratch[:r])
            f[block] = grid.spacing * wx2_sum - (2.0 * math.pi ** 2 * p / grid.length ** 2) * sigma
    return times, f, dissipation


def _check_flow_exponent(p: float) -> None:
    """The heat-flow certificates cover p in [1, 2], log case included."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")


def heatflow_verify(
    u: Field,
    p: float,
    t_final: float,
    dt: float,
) -> np.recarray:
    """Flow v_t = v_xx from v(0) = u^{2/p} and return f and its production
    at every lattice time k dt, t = 0 included.

    The result is a record array with one row per time and the float64
    columns ``t``, ``f_value`` and ``dissipation``: ``flow.f_value`` is
    the whole f column and ``flow[k].f_value`` its value at k dt.

    In the w = v^{p/2} variable this is exactly the nonlinear flow
    w_t = w_xx + (2/p - 1) w_x^2 / w whose Lyapunov functional f certifies
    the p-family of inequalities; f must be nonincreasing and -> 0.
    """
    _check_flow_exponent(p)
    v0 = _check_positive(u.values) ** (2.0 / p)
    columns = _heat_flow(v0, u.grid, p, t_final, dt, with_f=True)
    return np.rec.fromarrays(columns, names=("t", "f_value", "dissipation"))


def remainder_R(u0: Field, p: float, t_final: float, dt: float) -> float:
    """Integrated production of f along the heat flow started at v = u0.

    Equals f(0) up to the time-truncation tail, which is estimated from
    the terminal exponential decay rate and added on.  ``u0`` is the flow
    datum v itself, not a density u: ``heatflow_verify(u, p)`` and
    ``convex_sobolev_check(u, p)`` flow from v = u^{2/p}, so the
    nonnegative remainder by which the convex Sobolev inequality at a
    density u beats its sharp constant is ``remainder_R(u^{2/p}, p)``,
    which is (2 pi^2 p / L^2) (rhs - lhs) of ``convex_sobolev_check(u, p)``.
    """
    _check_flow_exponent(p)
    times, _, diss = _heat_flow(_check_positive(u0.values), u0.grid, p, t_final, dt, with_f=False)
    total = float(np.trapezoid(diss, times))
    # exponential tail: fit the decay rate over the last tenth of the run (one step at least)
    tail = 0.0
    k = min(max(2, len(diss) // 10), len(diss) - 1)
    d_last, d_prev = diss[-1], diss[-1 - k]
    if d_last > 0.0 and d_prev > d_last:
        rate = math.log(d_prev / d_last) / (times[-1] - times[-1 - k])
        tail = d_last / rate
    return total + tail


def convex_sobolev_check(u: Field, p: float) -> tuple[float, float, bool]:
    """Test int u^2 - L ((1/L) int u^{2/p})^p <= (p-1) L^2 / (2 pi^2 p) int u_x^2.

    Returns (lhs, rhs, holds) with lhs and rhs both divided by (p - 1),
    and holds allowing 1e-10 of slack for rounding.
    """
    convex_sobolev(p)  # the admissible p are those of the quotient
    grid = u.grid
    el = grid.length
    vals = _check_positive(u.values)
    lhs = (
        _integrate(grid, vals * vals)
        - el * (_integrate(grid, vals ** (2.0 / p)) / el) ** p
    ) / (p - 1.0)
    ux = _derivative(grid, vals, 1, SPECTRAL)
    rhs = (el ** 2 / (2.0 * math.pi ** 2 * p)) * _integrate(grid, ux * ux)
    return lhs, rhs, lhs <= rhs + 1e-10
