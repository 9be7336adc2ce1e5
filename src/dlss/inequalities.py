"""Sharp periodic functional inequalities, certified two independent ways.

Direct route: minimise the Rayleigh-type quotient of each inequality over
grid fields by preconditioned projected gradient descent and compare the
infimum with the closed-form constant.

Flow route: take the exact heat semigroup at each lattice time k dt and
watch the Bakry-Emery quantity

    f(t) = int (w_x)^2 - (2 pi^2 p / L^2) int sigma(v),   w = v^{p/2},

decay monotonically to zero; its production integrated over all time is
the remainder term R that strengthens the bare inequality.  No state
depends on the one before it, so states are computed in blocks.

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
    _lattice_steps,
    _spectrum_derivative,
)
from .rng import random_smooth_field

__all__ = [
    "DEFAULT_MAX_ITERS",
    "QuotientKind",
    "QuotientSpec",
    "QuotientResult",
    "HeatFlowRecord",
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
# Amplitude sup |v / vbar - 1| of every log-Sobolev and convex Sobolev
# iterate: their constants are reached only as it goes to 0, and the
# quotient there is the constant times 1 + O(_PIN^2).
_PIN = 1e-3
# Values per block of heat-flow states: 64 states at N = 256.
_BLOCK_VALUES = 2 ** 14


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
    residual: float
    analytic: float
    converged: bool

    @property
    def rel_error(self) -> float:
        return abs(self.value - self.analytic) / abs(self.analytic)


def _xlogx_of_square(u: np.ndarray) -> np.ndarray:
    """u^2 log(u^2) with the continuous extension 0 at u = 0."""
    u2 = u * u
    out = np.zeros_like(u2)
    pos = u2 > 0.0
    out[pos] = u2[pos] * np.log(u2[pos])
    return out


def _evaluate(spec: QuotientSpec, vals: np.ndarray, grid: PeriodicGrid) -> tuple[float, float, tuple]:
    """(q, den, saved): the quotient at ``vals``, its denominator, and the
    arrays its gradient reuses, namely rfft(vals) and vals - vbar
    (Poincare), rfft(vals) (log-Sobolev), or v_x, vals^(p-2) and vbar
    (convex Sobolev).  A degenerate denominator raises
    ``DegenerateDenominator``."""
    if spec.kind is QuotientKind.CONVEX_SOBOLEV:
        _check_positive(vals)
        p = spec.p
        dv = _derivative(grid, vals, 1, SPECTRAL)
        weight = vals ** (p - 2.0)
        num = p * _integrate(grid, weight * dv * dv)
        vbar = float(vals.mean())
        # int v^p - L vbar^p with its p sum(d) = 0 term dropped, d = v/vbar - 1:
        # free of the cancellation that costs ~1e-10 at amplitude _PIN
        d = vals / vbar - 1.0
        den = vbar ** p * _integrate(grid, np.expm1(p * np.log1p(d)) - p * d) / (p - 1.0)
        saved = (dv, weight, vbar)
    else:
        vhat = np.fft.rfft(vals)
        dn = _spectrum_derivative(grid, vhat, spec.n)
        num = _integrate(grid, dn * dn)
        if spec.kind is QuotientKind.POINCARE:
            dev = vals - vals.mean()
            den = _integrate(grid, dev * dev)
            saved = (vhat, dev)
        else:
            norm_sq = _integrate(grid, vals * vals) / grid.length
            den = _integrate(grid, _xlogx_of_square(vals))
            if norm_sq > 0.0:
                den -= grid.length * norm_sq * math.log(norm_sq)
            saved = (vhat,)
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
            norm_sq = float(np.mean(vals * vals))
            ratio = vals * vals / norm_sq
            logs = np.zeros_like(vals)
            pos = ratio > 0.0
            logs[pos] = np.log(ratio[pos])
            d_den = 2.0 * vals * logs
    return (d_num - q * d_den) / den


def _without_nyquist(hat: np.ndarray, n: int) -> np.ndarray:
    """Inverse real FFT of ``hat`` with the Nyquist coefficient of an even
    grid zeroed."""
    if n % 2 == 0:
        hat[-1] = 0.0
    return np.fft.irfft(hat, n=n)


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
    ghat = np.fft.rfft(g)
    ghat /= _precondition_divisor(ghat.size, n)
    return _without_nyquist(ghat, g.size)


def _normalize(spec: QuotientSpec, vals: np.ndarray, grid: PeriodicGrid) -> np.ndarray | None:
    """Pin down the quotient's scaling/shift invariance; None = inadmissible.

    Poincare fields become mean-zero with unit mass.  Log-Sobolev and
    convex fields become 1 + _PIN (v - vbar) / sup |v - vbar|, that is
    v / vbar pinned to amplitude _PIN, and log-Sobolev ones then unit norm.
    """
    dev = vals - vals.mean()
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
        return out / math.sqrt(float(np.mean(out * out)))
    return out


def minimize_quotient(
    spec: QuotientSpec,
    u_init: Field,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = 1e-14,
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
    backtracked until the quotient strictly decreases, so the value is
    monotone along the iteration.  The run stops, converged, as soon as
    one accepted step changes the quotient by less than ``tol`` in
    relative terms, or when no descent step exists at all (a stationary
    point to machine precision).  Hitting ``max_iters`` first returns the
    best iterate with ``converged`` set to False.

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
    Only the returned minimizer is built as a ``Field``.
    """
    grid = u_init.grid
    vals = _normalize(spec, _without_nyquist(np.fft.rfft(u_init.values), grid.n_points), grid)
    if vals is None:
        raise DegenerateDenominator("initial field cannot be normalised")
    evaluation = _evaluate(spec, _check_finite(vals), grid)
    q = evaluation[0]

    step = 0.5
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        gp = _precondition(_gradient(spec, vals, grid, evaluation), spec)

        accepted = False
        s = step
        while s > 1e-18:
            cand = _normalize(spec, vals - s * gp, grid)
            if cand is not None:
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
        if dq <= tol * max(abs(q), 1.0):
            converged = True
            break

    g = _gradient(spec, vals, grid, evaluation)
    residual = float(np.abs(_precondition(g, spec)).max())
    kind = FieldKind.DENSITY if spec.kind is QuotientKind.CONVEX_SOBOLEV else FieldKind.GENERIC
    return QuotientResult(
        value=q,
        minimizer=Field(grid, vals, kind),
        iterations=iters,
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
    tol: float = 1e-14,
) -> QuotientResult:
    """Multi-start minimisation: run ``minimize_quotient`` from one random
    admissible field per seed and keep the lowest converged value.  At
    least one seed is required."""
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


@dataclass(frozen=True)
class HeatFlowRecord:
    """State of the Bakry-Emery functional at one flow time."""

    t: float
    f_value: float
    dissipation: float


def _sigma_integral(v: np.ndarray, grid: PeriodicGrid, p: float) -> np.ndarray:
    """int sigma(v) of each flow state, one per row of v."""
    # scalar log and pow of the row means: numpy's vectorised ones differ by an ulp
    vbar = v.mean(axis=-1).tolist()
    if p == 1.0:
        log_vbar = np.array([math.log(m) for m in vbar])
        return grid.spacing * (v * (np.log(v) - log_vbar[:, None])).sum(axis=-1)
    vbar_p = np.array([m ** p for m in vbar])
    return grid.spacing * ((v ** p).sum(axis=-1) - v.shape[-1] * vbar_p) / (p - 1.0)


def _flow_dissipation(v: np.ndarray, grid: PeriodicGrid, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(w_x^2, dissipation) for each flow state, one per row of v; w_x and
    w_xx come from one transform of w = v^{p/2}."""
    w = v ** (p / 2.0)
    w_hat = np.fft.rfft(w, axis=-1)
    wx = _spectrum_derivative(grid, w_hat, 1)
    wxx = _spectrum_derivative(grid, w_hat, 2)
    wx2 = wx * wx
    quart = (2.0 / p - 1.0) * (wx2 * wx2) / (3.0 * w * w)
    dissipation = 2.0 * grid.spacing * (wxx * wxx - (4.0 * math.pi ** 2 / grid.length ** 2) * wx2 + quart).sum(axis=-1)
    return wx2, dissipation


def _flow_functionals(v: np.ndarray, grid: PeriodicGrid, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(f, dissipation) for each flow state, one per row of v."""
    wx2, dissipation = _flow_dissipation(v, grid, p)
    f = grid.spacing * wx2.sum(axis=-1) - (2.0 * math.pi ** 2 * p / grid.length ** 2) * _sigma_integral(v, grid, p)
    return f, dissipation


def _heat_steps(v0: np.ndarray, grid: PeriodicGrid, t_final: float, dt: float):
    """Yield (t, V) blocks of the periodic heat semigroup, v0 the first row.

    Row j of V is the exact state on the grid at t[j] = k dt, the spectrum
    of v0 times exp(-wave^2 k dt), so each block is one batched inverse
    FFT; every state, v0 included, is checked against the positivity floor.
    """
    n_steps = _lattice_steps(t_final, dt, "dt")
    n = grid.n_points
    wave = (2.0 * math.pi / grid.length) * np.arange(n // 2 + 1)
    v0_hat = np.fft.rfft(v0)
    rows = max(1, _BLOCK_VALUES // n)
    for start in range(0, n_steps + 1, rows):
        k = np.arange(start, min(start + rows, n_steps + 1))
        t = k * dt
        states = np.fft.irfft(v0_hat * np.exp(-np.outer(t, wave * wave)), n=n, axis=-1)
        if start == 0:
            states[0] = v0
        low = np.flatnonzero(states.min(axis=-1) <= POSITIVITY_FLOOR)
        if low.size:
            raise PositivityLost(f"flow state touched the positivity floor at t = {t[low[0]]:.6g}")
        yield t, states


def _check_flow_exponent(p: float) -> None:
    """The heat-flow certificates cover p in [1, 2], log case included."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")


def heatflow_verify(
    u: Field,
    p: float,
    t_final: float,
    dt: float,
) -> list[HeatFlowRecord]:
    """Flow v_t = v_xx from v(0) = u^{2/p} and record f and its production
    at every lattice time k dt, t = 0 included.

    In the w = v^{p/2} variable this is exactly the nonlinear flow
    w_t = w_xx + (2/p - 1) w_x^2 / w whose Lyapunov functional f certifies
    the p-family of inequalities; f must be nonincreasing and -> 0.
    """
    _check_flow_exponent(p)
    v0 = _check_positive(u.values) ** (2.0 / p)
    records = []
    for t, v in _heat_steps(v0, u.grid, t_final, dt):
        f, diss = _flow_functionals(v, u.grid, p)
        records += map(HeatFlowRecord, t.tolist(), f.tolist(), diss.tolist())
    return records


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
    _check_positive(u0.values)
    times = []
    diss = []
    for t, v in _heat_steps(u0.values.astype(float), u0.grid, t_final, dt):
        times.append(t)
        diss.append(_flow_dissipation(v, u0.grid, p)[1])
    times = np.concatenate(times)
    diss = np.concatenate(diss)
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
