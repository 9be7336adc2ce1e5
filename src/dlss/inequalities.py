"""Sharp periodic functional inequalities, certified two independent ways.

Direct route: minimise the Rayleigh-type quotient of each inequality over
grid fields by preconditioned projected gradient descent with
Barzilai-Borwein step lengths and compare the infimum with the
closed-form constant.  The starts of a certificate descend as one block
of rows, each with its own step length and stop test, and leave the
block as they stop; each gives the bits it gives alone.

Flow route: take the exact heat semigroup at each lattice time k dt and
watch the Bakry-Emery quantity

    f(t) = int (w_x)^2 - (2 pi^2 p / L^2) int sigma_p(v),   w = v^{p/2},

decay monotonically to zero; its production integrated over all time is
the remainder term R that strengthens the bare inequality.  The production
takes its w_xx part from the spectrum of w by Parseval, transforming w's
deviation from its mean, formed from the state's own.  No state
depends on the one before it, so states are computed in blocks, each
state on the coarsest halving of the grid that still gives its sums to
rounding, and each block fills its slice of the result columns: heatflow_verify
returns a record array of t, f and the production, one row per lattice
time, and remainder_R integrates the production column.

Quotient kinds and their sharp constants on a circle of length L:

    Poincare(n)       int (v^(n))^2  / int (v - vbar)^2      -> (2 pi / L)^{2n}
    LogSobolev(n)     int (u^(n))^2  / int sigma_1(u^2)      -> 1/2 (2 pi / L)^{2n}
    ConvexSobolev(p)  int sigma_p''(v) v_x^2 / int sigma_p(v) -> 8 pi^2 / L^2

with vbar the mean of v and sigma_p(v) = (v^p - vbar^p)/(p - 1) for p in
(1, 2], continued to sigma_1(v) = v log(v / vbar) at p = 1; so the
log-Sobolev denominator is int u^2 log(u^2 / ||u||^2), ||u||^2 = (1/L) int u^2.
The log-Sobolev and convex constants are attained only as v -> vbar, so their
certificate is the infimum over fields of amplitude sup |v / vbar - 1| =
1e-3, which is the constant times 1 + O(1e-6).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateDenominator, NonPositiveDensity
from .grid import (
    POSITIVITY_FLOOR,
    _BLOCK_VALUES,
    Field,
    FieldKind,
    PeriodicGrid,
    SPECTRAL,
    _check_finite,
    _check_positive,
    _derivative,
    _halvings,
    _integrate,
    _irfft,
    _lattice_steps,
    _multiplier,
    _rfft,
    _spectrum_derivative,
)
from .rng import random_smooth_field

__all__ = [
    "QuotientKind",
    "QuotientSpec",
    "QuotientResult",
    "certify_constant",
    "heatflow_verify",
    "remainder_R",
    "convex_sobolev_check",
]

_DEGENERACY_FLOOR = 1e-14
# Descent budget of one minimisation; every measured start converges in at most
# 13 iterations at L = 0.01 to 1000, so only a descent gone wrong reaches it.
_MAX_ITERS = 4000
# Relative change of the quotient under which one accepted step ends a descent.
_DESCENT_TOL = 1e-14
# log1p is finite from here up; a zero entry (d = -1) still adds exactly 0 to sigma.
_D_FLOOR = -1.0 + 2.0 ** -53
# Amplitude sup |v / vbar - 1| of every log-Sobolev and convex Sobolev
# iterate: their constants are reached only as it goes to 0, and the
# quotient there is the constant times 1 + O(_PIN^2).
_PIN = 1e-3


class QuotientKind(enum.Enum):
    """Which inequality; each value is the kind's ``dlss certify --kind`` name."""

    POINCARE = "poincare"
    LOG_SOBOLEV = "logsob"
    CONVEX_SOBOLEV = "convex"


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


def _evaluate(spec: QuotientSpec, vals: np.ndarray, grid: PeriodicGrid) -> tuple:
    """(q, den, vhat, ghat) of each row of ``vals``, an (S, N) block of
    fields: the quotient, its denominator, rfft(vals) and the rfft of the
    quotient's L2 gradient there, whose derivative terms are formed on the
    spectrum; q and den have one entry per row.  One field (N,) gives
    floats and (M,) spectra.  Non-finite ``vals`` are a ``ValueError``; a
    degenerate denominator in any row, the zero field's included, raises
    ``DegenerateDenominator``."""
    block = vals if vals.ndim == 2 else vals[None]
    n = grid.n_points
    h = grid.spacing
    vhat = _rfft(_check_finite(block))
    if spec.kind is QuotientKind.CONVEX_SOBOLEV:
        _check_positive(block)
        p = spec.p
        dv = _spectrum_derivative(vhat.copy(), _multiplier(n, 1, grid.length), n)
        weight = block ** (p - 2.0)
        num = p * (h * np.add.reduce(weight * dv * dv, axis=-1))
        den = _sigma_integral(block, grid, p)
    else:
        dn = _spectrum_derivative(vhat.copy(), _multiplier(n, spec.n, grid.length), n)
        num = h * np.add.reduce(dn * dn, axis=-1)
        if spec.kind is QuotientKind.POINCARE:
            dev = block - (np.add.reduce(block, axis=-1) / n)[:, None]
            den = h * np.add.reduce(dev * dev, axis=-1)
        else:
            sq = block * block
            # num = 0 only for constant (or Nyquist) fields; a zero row has no sigma and makes den 0
            den = _sigma_integral(sq, grid, 1.0) if num.all() or sq.any(axis=-1).all() else 0.0
    low = np.abs(den) < _DEGENERACY_FLOOR
    if low.any():
        raise DegenerateDenominator(
            f"denominator {np.extract(low, den)[0]:.3e} below {_DEGENERACY_FLOOR:.0e}; "
            "field is too close to constant"
        )
    q = num / den
    if spec.kind is QuotientKind.CONVEX_SOBOLEV:
        vbar = np.add.reduce(block, axis=-1) / n
        # scalar pow of each mean, as in _sigma_integral
        shift = np.array([m ** (p - 1.0) for m in vbar.tolist()])[:, None]
        d_den = p * (block ** (p - 1.0) - shift) / (p - 1.0)
        ghat = _rfft(p * (p - 2.0) * block ** (p - 3.0) * dv * dv - q[:, None] * d_den)
        ghat -= 2.0 * _multiplier(n, 1, grid.length) * _rfft(p * weight * dv)
    else:
        sign = -1.0 if spec.n % 2 else 1.0
        # the real symbol of an even order scales the spectrum's float view
        d_num = (2.0 * sign) * _multiplier(n, 2 * spec.n, grid.length)
        floats = vhat.view(float)
        if spec.kind is QuotientKind.POINCARE:
            ghat = ((d_num - (2.0 * q)[:, None]) * floats).view(complex)  # d of the denominator: 2 (v - vbar)
            ghat[:, 0] = 0.0
        else:
            e = sq / (np.add.reduce(sq, axis=-1) / n)[:, None] - 1.0  # d of sigma_1(v^2)
            ghat = (d_num * floats).view(complex) - _rfft(
                (2.0 * q)[:, None] * block * np.log1p(np.maximum(e, _D_FLOOR))
            )
    ghat /= den[:, None]
    if vals.ndim == 1:
        return float(q[0]), float(den[0]), vhat[0], ghat[0]
    return q, den, vhat, ghat


# The descent's preconditioner is the inverse of the quotient's Hessian at its
# minimiser (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517).  With kappa =
# 2 pi / L, let A be the operator of symbol (kappa m)^{2o}, o = n for Poincare
# and log-Sobolev and o = 1 for convex Sobolev, and lambda_1 = kappa^{2o} its
# first eigenvalue.
# - Poincare: q = <A v, v> / D with D = h sum (v - vbar)^2, so the gradient is
#   (2/D)(A - q) v, and on the complement of a minimiser (q = lambda_1) the
#   Hessian is exactly (2/D)(A - lambda_1).
# - Log-Sobolev and convex at amplitude _PIN: with v = vbar (1 + phi) both
#   quotients are Rayleigh quotients of A in phi up to O(_PIN), so their
#   Hessian has the same symbol; its scale, set by their denominator, is
#   what the Barzilai-Borwein lengths take up.
# So on the modes 2 <= m < N/2 the symbol is 1 / ((kappa m)^{2o} - kappa^{2o}).
# Mode 1 has no Hessian to invert, as the minimisers span it; modes 0 and 1
# keep the weights 1 and 1/2 of the shift-free symbol, in units of kappa^{2o}.
# A normalised Poincare field has D = 1, so the first trial length 0.5 is the
# Newton length at every L.
def _preconditioner(n_points: int, order: int, length: float) -> np.ndarray:
    """Inverse Hessian symbol of the derivation above on the rfft
    modes of an n-point grid of the given length, 0 on the Nyquist mode."""
    m = np.arange(n_points // 2 + 1, dtype=float)
    shift = m ** (2 * order) - 1.0
    shift[:2] = (1.0, 2.0)
    damping = (length / (2.0 * math.pi)) ** (2 * order) / shift  # kappa^{-2o} / shift
    damping[-1] = 0.0
    return damping


@lru_cache(maxsize=None)
def _parseval_weights(n_points: int, length: float) -> np.ndarray:
    """Read-only c with h sum(a b) = sum(c a_hat.view(float) b_hat.view(float))
    for real a, b on the grid: h / n times 1 on mode 0 and the Nyquist mode
    and 2 on the others, once for each float of a mode."""
    c = np.full(n_points // 2 + 1, 2.0 * length / n_points ** 2)
    c[0] /= 2.0
    c[-1] /= 2.0
    c = np.repeat(c, 2)
    c.setflags(write=False)
    return c


def _spectral_dot(grid: PeriodicGrid, a_hat: np.ndarray, b_hat: np.ndarray) -> np.ndarray:
    """h sum(a b) of real grid fields, row by row along the last axis, from
    their rfft by Parseval."""
    terms = np.multiply(a_hat.view(float), b_hat.view(float))
    terms *= _parseval_weights(grid.n_points, grid.length)
    return np.add.reduce(terms, axis=-1)


def _normalize(spec: QuotientSpec, vals: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Pin down the quotient's scaling/shift invariance in each row of
    ``vals`` (one field, or a block of them).

    Poincare fields become mean-zero with unit mass.  Log-Sobolev and
    convex fields become 1 + _PIN (v - vbar) / sup |v - vbar|, that is
    v / vbar pinned to amplitude _PIN, and log-Sobolev ones then unit norm.
    A field that is constant up to rounding has no direction to pin and
    raises ``DegenerateDenominator``.
    """
    dev = vals - (np.add.reduce(vals, axis=-1) / vals.shape[-1])[..., None]
    if spec.kind is QuotientKind.POINCARE:
        scale = np.sqrt(grid.spacing * np.add.reduce(dev * dev, axis=-1))
        if (scale <= 0.0).any():
            raise DegenerateDenominator("field is constant up to rounding; it cannot be normalised")
        return dev / scale[..., None]
    sup = np.abs(dev).max(axis=-1)
    if (sup <= _DEGENERACY_FLOOR * np.abs(vals).max(axis=-1)).any():
        raise DegenerateDenominator("field is constant up to rounding; it cannot be normalised")
    out = 1.0 + (_PIN / sup)[..., None] * dev
    if spec.kind is QuotientKind.LOG_SOBOLEV:
        return out / np.sqrt(np.add.reduce(out * out, axis=-1) / out.shape[-1])[..., None]
    return out


def _trials(spec: QuotientSpec, raw: np.ndarray, grid: PeriodicGrid) -> tuple:
    """(cand, q, vhat, ghat, counted): a block of trial fields normalised
    and evaluated.  A row that cannot be normalised, or whose denominator is
    degenerate, is a rejected trial and gets q = inf; ``counted`` is each
    row's number of quotient evaluations, 1 for every row that could be
    normalised.  A block in which some row fails is redone a row at a time."""
    cand = None
    try:
        cand = _normalize(spec, raw, grid)
        q, _, vhat, ghat = _evaluate(spec, cand, grid)
        return cand, q, vhat, ghat, 1
    except DegenerateDenominator:
        if len(raw) > 1:
            parts = [_trials(spec, raw[i : i + 1], grid) for i in range(len(raw))]
            return (*map(np.concatenate, list(zip(*parts))[:4]), np.array([part[4] for part in parts]))
    nothing = np.zeros((1, grid.n_points // 2 + 1), dtype=complex)
    return raw, np.array([math.inf]), nothing, nothing, int(cand is not None)


def _descend(spec: QuotientSpec, grid: PeriodicGrid, starts: np.ndarray) -> list[QuotientResult]:
    """Projected gradient descent on the quotient from each row of
    ``starts``, an (S, N) block, all run as one block; the results in row
    order.

    The search runs over Nyquist-free fields: each start loses its Nyquist
    coefficient and every step is Nyquist-free.  The sawtooth (-1)^j has
    zero odd spectral derivatives, so it drives the Poincare and
    log-Sobolev quotients of odd order and the convex quotients to 0, and
    on coarse grids an unrestricted descent drifts into it.  Each iterate
    is renormalised (mean-zero unit mass for Poincare; amplitude
    sup |v / vbar - 1| = _PIN = 1e-3 and then unit norm for log-Sobolev;
    amplitude _PIN and unit mean for convex Sobolev).  The first trial
    length is 0.5 and then the preconditioned Barzilai-Borwein length
    (dx . dg) / (dg . P dg), with dx and dg the changes of the iterate and
    of the gradient over the last step and P the preconditioner, the
    inverse Hessian derived above ``_preconditioner``; where that is not
    positive and finite, the first trial length 0.5, the Newton length of
    that symbol, is tried again (Barzilai & Borwein, IMA J. Numer. Anal. 8
    (1988) 141; Raydan, SIAM J. Optim. 7 (1997) 26).  Trial steps are
    backtracked, halving, until the quotient strictly decreases, so the
    value is monotone along the iteration.  With floor = 1e-14 |q|
    (_DESCENT_TOL), relative to q on a circle of any length, a row stops,
    converged, as soon as one accepted step lowers the quotient q by at
    most floor, or when backtracking reaches a step s whose first-order
    decrease s h sum(g gp) is at most floor (g the gradient, gp its
    preconditioned form): no step that still counts decreases q.  A row
    that runs out of its 4 000 iterations (_MAX_ITERS) returns the best
    iterate with ``converged`` set to False.

    The log-Sobolev and convex constants are reached only in the linear
    limit v -> vbar (1 + eps phi), so the value is the infimum over fields
    of amplitude eps = _PIN: the constant C times 1 + O(eps^2), a relative
    excess of ~2e-7 for log-Sobolev and below 4e-8 for convex p < 2
    (rounding level at p = 2, where the quotient is quadratic).  Pinned,
    every landscape is nearly quadratic and a start converges in at most
    13 iterations at any circle length, most of them without a backtrack.

    Iterates and candidates are plain arrays.  One evaluation of each
    (``_evaluate``) checks it finite (and, for convex Sobolev, positive)
    and gives the value, the denominator and the gradient spectrum; the
    gradient is preconditioned and dotted on the spectrum, so one inverse
    transform gives the step, and the residual is that transform at the
    returned iterate.  A trial that cannot be normalised and one whose
    denominator is degenerate are both one rejected trial, like a trial
    that does not lower q.  Only the returned minimizers are built as
    ``Field``s, and ``evaluations`` counts a row's quotient evaluations,
    its start's and every candidate's.

    Each row keeps its own Barzilai-Borwein length, backtrack, stop test,
    iteration and evaluation count, and leaves the block once it stops.
    The first trials of all rows are one block, and rows that reject theirs
    backtrack in a sub-block.  Every reduction and transform runs along the
    last axis, so each row gets the bits it gets alone, in a block of one
    as in any other.
    """
    n = grid.n_points
    start = _rfft(starts)
    start[:, -1] = 0.0
    vals = _normalize(spec, _irfft(start, n), grid)
    q, _, vhat, ghat = _evaluate(spec, vals, grid)
    damping = _preconditioner(n, spec.n if spec.kind is not QuotientKind.CONVEX_SOBOLEV else 1, grid.length)

    rows = np.arange(len(vals))  # the start of each row still descending
    evaluations = np.ones(len(vals), dtype=int)
    step = np.full(len(vals), 0.5)
    last = None  # spectra of the previous iterates, their gradients and preconditioned gradients
    done = [None] * len(vals)  # per start: (q, vals, ghat, iterations, evaluations, converged)
    for iters in range(1, _MAX_ITERS + 1):
        gphat = ghat * damping
        slope = _spectral_dot(grid, ghat, gphat)
        floor = _DESCENT_TOL * np.abs(q)
        current = (vhat, ghat, gphat)
        if last is not None:
            # preconditioned BB2 length (dx . dg) / (dg . P dg) where it is positive and finite
            dx, dg, dgp = (now - before for now, before in zip(current, last))
            curvature = _spectral_dot(grid, dg, dgp)
            bb = np.divide(_spectral_dot(grid, dx, dg), curvature, out=np.zeros(len(q)), where=curvature > 0.0)
            step = np.where((0.0 < bb) & (bb < math.inf), bb, 0.5)
        last = current
        gp = _irfft(gphat, n)

        # halving backtracks, until a trial lowers q or its step no longer counts
        s = step.copy()
        live = s * slope > floor  # rows with a trial to make
        # the common case, every row making its first trial, runs as one block
        # with no index arrays: against sending it through the sub-block loop
        # below, this saves 2.7 ms (3 %) of a certify256 operation
        # (BENCH_f8b6f9a-pr30.json)
        if live.all():
            cand, tq, tvhat, tghat, counted = _trials(spec, vals - s[:, None] * gp, grid)
            evaluations += counted
            live = ~(tq < q)
            if live.any():
                s[live] *= 0.5
                live &= s * slope > floor
        else:
            cand, tvhat, tghat = np.empty_like(vals), np.empty_like(vhat), np.empty_like(ghat)
            tq = np.full(len(q), math.inf)
        sub = np.flatnonzero(live)  # rows that backtrack, as a sub-block
        while sub.size:
            c, t, tv, tg, counted = _trials(spec, vals[sub] - s[sub, None] * gp[sub], grid)
            evaluations[sub] += counted
            ok = t < q[sub]
            for whole, part in zip((cand, tq, tvhat, tghat), (c, t, tv, tg)):
                whole[sub[ok]] = part[ok]
            sub = sub[~ok]
            s[sub] *= 0.5
            sub = sub[s[sub] * slope[sub] > floor[sub]]

        moved = tq < q
        stop = ~moved | (q - tq <= floor)
        if stop.any():
            for i in np.flatnonzero(stop).tolist():
                now = (tq, cand, tghat) if moved[i] else (q, vals, ghat)
                done[rows[i]] = (*(a[i] for a in now), iters, int(evaluations[i]), True)
            keep = np.flatnonzero(~stop)
            if not keep.size:
                break
            rows, step, evaluations = rows[keep], step[keep], evaluations[keep]
            cand, tq, tvhat, tghat = cand[keep], tq[keep], tvhat[keep], tghat[keep]
            last = tuple(a[keep] for a in last)
        vals, q, vhat, ghat = cand, tq, tvhat, tghat
    else:
        for i, row in enumerate(rows.tolist()):
            done[row] = (q[i], vals[i], ghat[i], _MAX_ITERS, int(evaluations[i]), False)

    residuals = np.abs(_irfft(np.array([r[2] for r in done]) * damping, n)).max(axis=-1)
    kind = FieldKind.DENSITY if spec.kind is QuotientKind.CONVEX_SOBOLEV else FieldKind.GENERIC
    analytic = spec.analytic_constant(grid.length)
    return [
        QuotientResult(
            value=float(value),
            minimizer=Field(grid, field, kind),
            iterations=iterations,
            evaluations=count,
            residual=float(residual),
            analytic=analytic,
            converged=converged,
        )
        for (value, field, _, iterations, count, converged), residual in zip(done, residuals)
    ]


def _initial_guess(spec: QuotientSpec, grid: PeriodicGrid, seed: int) -> np.ndarray:
    """The admissible start of ``seed``, as grid values: a mean-zero random
    field g for Poincare, 1 + g/2 for log-Sobolev and exp(g/2) for convex."""
    n_modes = max(2, min(8, grid.n_points // 4))
    g = random_smooth_field(grid, n_modes, seed, amplitude=1.0, mean_zero=True).values
    if spec.kind is QuotientKind.POINCARE:
        return g
    if spec.kind is QuotientKind.LOG_SOBOLEV:
        return 1.0 + 0.5 * g
    return np.exp(0.5 * g)


def certify_constant(
    spec: QuotientSpec,
    grid: PeriodicGrid,
    seeds: tuple[int, ...] = (0, 1, 2),
) -> QuotientResult:
    """Multi-start minimisation: ``_descend`` from one random admissible
    field per seed, all starts descending as one block, and the lowest
    converged value kept (the first seed's on a tie).  Each start gives the
    result it gives alone.  At least one seed is required."""
    if not seeds:
        raise ValueError("seeds must name at least one start")
    starts = np.array([_initial_guess(spec, grid, seed) for seed in seeds])
    best = None
    for res in _descend(spec, grid, starts):
        if best is None or (res.converged, -res.value) > (best.converged, -best.value):
            best = res
    return best


# ---------------------------------------------------------------------------
# Heat-flow certification


def _sigma_integral(
    v: np.ndarray, grid: PeriodicGrid, p: float, work: tuple = (), centred: tuple = (),
) -> float | np.ndarray:
    """int sigma_p(v) over the last axis of v: a float for one field, an
    array with one value per row for a block of flow states.

    With d = v / vbar - 1 (sum(d) = 0) it is vbar^p h sum[(1 + d)^p - 1 -
    p d] / (p - 1), the power as expm1(p log1p(d)), or vbar h sum[(1 + d)
    log1p(d) - d] at p = 1: int v^p - L vbar^p without the cancellation
    that costs ~1e-10 of it at amplitude _PIN and 2.4e-7 at 1e-5.  log1p
    sees d >= _D_FLOOR.  ``centred``, (v - vbar, vbar) with the float vbar
    the mean of every row, gives d from the deviation itself, without the
    rounding of v.  ``work``, three arrays shaped like v, is overwritten;
    without it each ufunc allocates its result.
    """
    ratio, d, s = work or (None, None, None)
    # direct ufunc calls with out=: methods and in-place operators cost more per call
    if centred:
        deviation, vbar = centred
        d = np.divide(deviation, vbar, out=d)
        ratio = np.add(d, 1.0, out=ratio)
    else:
        vbar = np.add.reduce(v, axis=-1) / v.shape[-1]
        ratio = np.divide(v, vbar[..., None], out=ratio)
        d = np.subtract(ratio, 1.0, out=d)
    s = np.maximum(d, _D_FLOOR, out=s)
    np.log1p(s, out=s)
    if p == 1.0:
        np.multiply(s, ratio, out=s)
    else:
        np.expm1(np.multiply(s, p, out=s), out=s)
        np.multiply(d, p, out=d)
    h_sum = grid.spacing * np.add.reduce(np.subtract(s, d, out=s), axis=-1)
    if p == 1.0:
        sigma = vbar * h_sum
    else:
        # scalar pow of the means: numpy's vectorised pow differs by an ulp
        try:
            scale = float(vbar) ** p if centred or v.ndim == 1 else np.array([m ** p for m in vbar.tolist()])
        except OverflowError:
            scale = math.inf  # as numpy's pow gives it
        sigma = scale * h_sum / (p - 1.0)
    return float(sigma) if v.ndim == 1 else sigma


@lru_cache(maxsize=None)
def _dissipation_symbol(n_points: int, length: float) -> np.ndarray:
    """Read-only c with h sum(w_xx^2 - k1^2 w_x^2) = sum(c w_hat.view(float)^2)
    for a real w on the grid: the Parseval weights times k^2 (k^2 - k1^2),
    which is exactly 0 on mode 1, and times k^4 alone on the Nyquist mode,
    where w_x has no coefficient."""
    k2 = ((2.0 * math.pi / length) * np.arange(n_points // 2 + 1)) ** 2
    quartic = k2 * (k2 - k2[1])
    quartic[-1] = k2[-1] * k2[-1]
    symbol = np.repeat(quartic, 2) * _parseval_weights(n_points, length)
    symbol.setflags(write=False)
    return symbol


def _flow_dissipation(
    v: np.ndarray, deviation: np.ndarray, vbar: float, grid: PeriodicGrid, p: float, work: tuple, with_sum: bool,
) -> tuple[np.ndarray | None, np.ndarray]:
    """(sum of w_x^2, dissipation) for each flow state, one per row of v,
    from one transform of w - W, w = v^{p/2}, W = vbar^{p/2}: w_x by an
    inverse transform, and h sum(w_xx^2 - k1^2 w_x^2) from the spectrum
    by Parseval; the sum is None unless ``with_sum``.  w - W comes from
    the state's deviation v - vbar (``deviation``, vbar the mean of every
    row), so its rounding is relative to w - W, not to W: a transform of
    w itself rounds every mode by about eps W, which for a state near its
    mean is many eps of the production.  Every intermediate is written
    into ``work``, block arrays of _heat_flow; v and the deviation are
    only read."""
    spectrum, w_hat, w, wx, scratch = work
    n = grid.n_points
    # at p = 1 and 2, w has the bits of v ** (p / 2): numpy's power takes these same fast paths
    if p == 2.0:
        w, y = v, deviation
    elif p == 1.0:
        w = np.sqrt(v, out=w)
        y = np.add(w, math.sqrt(vbar), out=scratch)
        np.divide(deviation, y, out=y)  # (v - vbar) / (w + W), no cancellation
    else:
        big_w = vbar ** (p / 2.0)
        # W expm1(p/2 log1p(z)), z = (v - vbar) / vbar; log1p sees z >= _D_FLOOR
        y = np.multiply(deviation, 1.0 / vbar, out=scratch)
        near = deviation.min() >= -0.5 * vbar
        if not near:
            np.maximum(y, _D_FLOOR, out=y)
        np.log1p(y, out=y)
        y *= p / 2.0
        np.expm1(y, out=y)
        y *= big_w
        # W + y is w to an ulp or two while v >= vbar / 2; a row below that takes the power
        w = np.add(y, big_w, out=w)
        if not near:
            far = np.flatnonzero(deviation.min(axis=-1) < -0.5 * vbar)
            w[far] = np.power(v[far], p / 2.0)
    _rfft(y, out=w_hat)
    np.multiply(w_hat, _multiplier(n, 1, grid.length), out=spectrum)
    wx2 = _irfft(spectrum, n, out=wx)
    np.multiply(wx2, wx2, out=wx2)
    wx2_sum = np.add.reduce(wx2, axis=-1) if with_sum else None
    floats = w_hat.view(float)
    power = np.multiply(floats, floats, out=spectrum.view(float))
    power *= _dissipation_symbol(n, grid.length)
    # (2/p - 1) (wx^2 wx^2) / ((3 w) w), associated as written
    quart = np.multiply(wx2, wx2, out=scratch)
    quart *= 2.0 / p - 1.0
    denominator = np.multiply(3.0, w, out=wx)
    denominator *= w
    quart /= denominator
    quadratic = np.add.reduce(power, axis=-1)
    return wx2_sum, 2.0 * (quadratic + grid.spacing * np.add.reduce(quart, axis=-1))


# Which spectrum entries of a flow state can reach a bit of it, derived;
# nothing in it is tuned.  On an m-point grid the entry k >= 1 of the
# state's deviation v - vbar is hat_k e^{-t wave_k^2} with |hat_k| <= m vbar,
# as v0 > 0 (entry 0 is 0, and v = vbar + that deviation), and it moves a
# node by at most 2/m of its modulus (irfft's 1/m, and the conjugate pair).
# So the entries with t wave_k^2 >= X, at most m/2 of them, move every node
# of the deviation, and so of vbar + deviation, by m vbar e^{-X} at most.
# The nodes of v stay above nu = min v0 - 2^-53 vbar:
# - The N-point grid semigroup is the periodic heat kernel, positive and of
#   mass at least 1 on the nodes, less its modes from N/2 on (half of the
#   Nyquist mode).  Whenever an entry is cut the top mode m/2 is cut too,
#   and those kernel modes then weigh at most vbar (1 + N / (2 X))
#   e^{-X (N/m)^2} <= 2^-107 vbar: the maximum principle's discrete defect
#   is itself below the cut.
# - A coarse grid's nodes are the full grid's up to the tail tau, which
#   _admissible admits only below eps vbar / 4 = 2^-54 vbar.
# Half an ulp of a node of v exceeds 2^-54 nu, so X = ln(m vbar / nu) + 54
# ln 2 keeps the dropped entries below it.  pocketfft adds them into
# rounded partial sums on the way, and those, like the deviation's nodes,
# round differently only where their exact value lies within the dropped
# amount of a rounding boundary: the margin 53 ln 2 puts that amount at
# 2^-53 of half an ulp of a value of size nu (with no margin the certify256
# flows of seed 0 lose bits).  At X <= 708 every exp kept is normal; nu <=
# 0 cuts nothing.
_DROP_BITS = 107.0 * math.log(2.0)


def _decay_cut(m: int, vbar: float, nu: float) -> float:
    """X of the derivation above: on an m-point grid, the entries with
    t wave^2 >= X leave every node of the state as it is."""
    return math.log(m * vbar / nu) + _DROP_BITS if nu > 0.0 else math.inf


def _heat_decay(t: np.ndarray, wave2: np.ndarray, cut: float, out: np.ndarray) -> int:
    """Write exp(-t wave^2) for the block times t into the leading columns
    of ``out``, exactly 0 where t wave^2 >= cut, and return how many
    columns there are; the later ones are left alone, being cut on every
    row.  No exp is taken below e^{-cut}."""
    live = int(np.searchsorted(t[0] * wave2, cut))
    table = out[:, :live]
    np.multiply.outer(-t, wave2[:live], out=table)  # -(t wave^2), bit for bit
    edge = table[:, int(np.searchsorted(t[-1] * wave2[:live], cut)) :]  # cut on some rows
    dropped = edge <= -cut
    np.maximum(edge, -cut, out=edge)
    np.exp(table, out=table)
    np.copyto(edge, 0.0, where=dropped)
    return live


# Which grid a flow state needs, derived; nothing in it is tuned.  For a real
# g = sum g_n e^{i kappa n x}, kappa = 2 pi / L, the line norm Phi_s(g) =
# sum_{n in Z} |g_n| e^{kappa n s} is the Wiener norm of x -> g(x - is): an
# algebra norm (its weight is multiplicative), the same on both lines Im x =
# +-s as |g_-n| = |g_n|, rising with s and, by the maximum principle, at least
# |g| on the closed strip between the lines (Trefethen and Weideman, SIAM Rev.
# 56 (2014) 385).  It bounds each one-sided tail: sum_{n >= K} (kappa n)^j
# |g_n| <= (kappa K)^j e^{-kappa K s} Phi_s(g) for j <= kappa K s; and, as
# e^{kappa |n| s} <= 2 cosh(kappa n s), the two-sided |g - g_0|_s = sum_{n != 0}
# |g_n| e^{kappa |n| s} by 2 Phi_s(g).  A spectral derivative of g's samples on
# any grid is at most sum (kappa |n|)^j |g_n|: aliasing folds mode n onto one
# of no larger |n|.  A state is v = vbar (1 + z), Phi_s(z) <= B = sum_{n >= 1}
# c_n cosh(kappa n s) / vbar, c_n = (2/N)|v0_hat_n| e^{-kappa^2 n^2 t}.  For
# B <= 1/2 the alternating binomial series gives w = v^{p/2} = W (1 + y), W =
# vbar^{p/2}, with Phi_s(y) <= b = 1 - (1 - B)^{p/2} and Phi_s(1/w^2) <= (W (1 -
# b))^-2; so |w - W|_s <= 2 W b, and with B1 = 2 W b / (e s), |w_x| <= B1 and
# |w_xx| <= 4 B1 / (e s) on the real line and sum_{|n| >= K} (kappa |n|)^j |w_n|
# <= e s B1 (kappa K)^j q, q = e^{-x}, for j <= 2 <= x = kappa K s.  On M = 2K
# points:
# - w_x at the nodes is off by nu B1 at most, nu = 2 e x q, so h sum(w_x^4 /
#   (3 w^2)) moves by 4 nu (1 + nu)^3 of its scale L B1^4 / (3 (W (1 - b))^2)
#   at most, and the trapezoid rule adds 32 q of it: a real g's modes jM,
#   j != 0, add up to 2 e^{-kappa M s/2} Phi_{s/2}(g) at most, and
#   Phi_{s/2}(w_x) <= 2 B1;
# - h sum(w_x^2), the Parseval sum of w_xx and the trapezoid rule for sigma
#   err by 4 q + 3 (e x q)^2 of L B1^2, 16 q + 3 (e x)^4 q^2 / 16 of
#   L (4 B1 / (e s))^2 and 2 q^2 of L times sigma's series bound at most,
#   each below F = 4 nu (1 + nu)^3 + 32 q where 2 F <= eps.
# The full grid errs less at the same s, so at x = _STRIP_X, the least x with
# 2 F <= eps, every sum is within eps of its scale.  The scales at B = 1/2
# are at least (2 B)^-2 times a state's own (b / B rises with B).  The M
# nodes hold v_K, v's modes below K and half its mode-K pair (irfft reads
# the Nyquist entry as real), whose own strip sum is at most B.  On the N
# nodes v_K differs from v by the tail tau = sum_{n >= K} c_n at most, and
# w by W tau / vbar (p/2 (1 - B)^{p/2 - 1} <= 1).  Every w on the segment
# from w(v_K) to w(v) keeps the bounds above, so an N-point sum moves by at
# most L W tau / vbar times the largest node value of its gradient, and
# summation by parts puts every derivative on the state.  The quartic's
# gradient -D(4 w_x^3 / (3 w^2)) - 2 w_x^4 / (3 w^3) is at most 4 / (e s)
# times Phi_{s/2}(4 w_x^3 / (3 w^2)) plus 2 B1^4 / (3 (W (1 - b))^3), so that
# sum moves by T = (64 / b + 2 / (1 - b)) tau / vbar <= (64 (2 + sqrt 2) + 4)
# tau / vbar of its scale at B = 1/2 (b = 1 - 2^{-p/2} there), the most of
# any sum: h sum(w_x^2), the Parseval sum of w_xx and sigma's move by 4 / b,
# 16 / b and 8 times tau / vbar.  So a halving is admissible when
# eps (2 B)^2 + T <= eps.
_STRIP_X = 43.62504821255508  # 2 F(x) > eps at x (1 - 1e-11)


def _admissible(v0_hat: np.ndarray, grid: PeriodicGrid, wave: np.ndarray):
    """admissible(m, t) of the derivation above for the flow from v0, with
    s = _STRIP_X / (kappa m/2).  Mode n enters the strip sum B with its
    line weight cosh(kappa n s), as exp(log c_n + log cosh(kappa n s) -
    kappa^2 n^2 t): one exp per mode and probe.  It holds from some t on,
    and for m from the t it holds for 2m on.  While the bound e^{s^2 / 4t}
    of the factors cosh(kappa n s) e^{-kappa^2 n^2 t} exceeds e^{600} the
    state is not admitted, so nothing overflows (c_n <= 2 vbar)."""
    with np.errstate(divide="ignore"):  # a zero mode adds exp(-inf) = 0
        log_c = np.log(2.0 * np.abs(v0_hat[1:]) / v0_hat[0].real)  # c_n / vbar at t = 0
    wave2, work, eps = wave[1:] ** 2, np.empty(wave.size - 1), np.finfo(float).eps
    weight = 64.0 * (2.0 + math.sqrt(2.0)) + 4.0
    sizes = {}

    def admissible(m: int, t: float) -> bool:
        if m not in sizes:
            s = _STRIP_X * grid.length / (math.pi * m)
            log_cosh = np.logaddexp(wave[1:] * s, -wave[1:] * s) - math.log(2.0)  # no overflow
            sizes[m] = s * s / 2400.0, log_c + log_cosh, np.exp(-log_cosh[m // 2 - 1 :])
        too_early, rise, fall = sizes[m]
        if t <= too_early:
            return False
        terms = np.multiply(wave2, -t, out=work)
        terms += rise
        strip = np.add.reduce(np.exp(terms, out=terms))  # B
        if 2.0 * strip > 1.0:
            return False  # eps (2 B)^2 alone exceeds eps
        # tau / vbar: the terms from K on over cosh(kappa n s)
        tail = np.add.reduce(np.multiply(terms[m // 2 - 1 :], fall, out=terms[m // 2 - 1 :]))
        return bool(eps * (2.0 * strip) ** 2 + weight * tail <= eps)

    return admissible


def _grid_schedule(v0_hat: np.ndarray, grid: PeriodicGrid, wave: np.ndarray, times: np.ndarray) -> list:
    """[(k, m), ...]: the flow states from lattice index k on run on the
    coarsest size m of _halvings(N) that _admissible admits at their time,
    (0, N) first; each switch is a bisection over the lattice and the size
    never grows."""
    n = grid.n_points
    admissible = _admissible(v0_hat, grid, wave)
    schedule, first, last = [(0, n)], 1, times.size - 1
    for m in _halvings(n)[1:]:
        if not admissible(m, times[last]):
            break
        first = bisect_left(range(last), True, first, last, key=lambda k: admissible(m, times[k]))
        if schedule[-1][0] == first:
            schedule.pop()  # m is admissible as soon as 2m is
        schedule.append((first, m))
    return schedule


def _heat_flow(v0: np.ndarray, grid: PeriodicGrid, p: float, t_final: float, dt: float, with_f: bool):
    """Columns (t, f, dissipation) of the periodic heat flow from v0, one
    entry per lattice time t = k dt, t = 0 included; f is None unless
    ``with_f``.

    Every state has the datum's mean vbar, and its deviation v - vbar at
    k dt is the spectrum of v0 - vbar (entry 0 set to 0) times
    exp(-wave^2 k dt), so a block of states is one batched inverse FFT,
    and v = vbar + deviation.  f and the production are formed from the
    deviation (see _flow_dissipation), so their rounding is relative to
    the state's distance from its mean, not to vbar.  An entry with k dt
    wave^2 >= X of _decay_cut cannot reach a bit of the state: it is
    exactly 0, with no exp and no product, so no exp is subnormal or
    underflows.  Every state, v0 included, is checked against the
    positivity floor by one minimum over the block, and the failing row is
    looked for only when that minimum is at or below the floor.  Each
    state costs three transforms: its inverse one, the rfft of w - W and
    the inverse one of w_x; the production's w_xx part comes from the
    spectrum of w - W.  A state runs on the coarsest size m of
    _halvings(N) that _grid_schedule admits at its time: the spectrum's
    first m/2 + 1 entries times m/N give it at the m nodes but for a tail
    of modes that the rule bounds, and every sum it feeds is within eps of
    its scale of the full-grid value.  The rule measures the state in the
    Wiener norm of one boundary line of a strip, mode n weighted by
    cosh(kappa n s) (see the derivation above _STRIP_X).  State 0 stays on
    the full grid.  A block holds _BLOCK_VALUES // m states of one size;
    the columns are allocated once, and so are flat work buffers that each
    size views as blocks (a short block uses leading rows), and each block
    fills its slice of the columns.
    """
    n_steps = _lattice_steps(t_final, dt, "dt")
    _check_finite(v0, "the heat-flow datum v0")
    n = grid.n_points
    wave = (2.0 * math.pi / grid.length) * np.arange(n // 2 + 1)
    wave2 = wave * wave
    v0_hat = _rfft(v0)
    times = np.arange(n_steps + 1) * float(dt)  # float64 even for an int dt
    f = np.empty(n_steps + 1) if with_f else None
    dissipation = np.empty(n_steps + 1)
    schedule = _grid_schedule(v0_hat, grid, wave, times)
    vbar = float(v0_hat[0].real) / n  # the mean of every state
    nu = float(v0.min()) - 2.0 ** -53 * vbar
    # the states' deviations from vbar come from the datum's own, with entry 0 exactly 0
    deviation0 = v0 - vbar
    deviation_hat = _rfft(deviation0)
    deviation_hat[0] = 0.0
    ends = [k for k, _ in schedule[1:]] + [n_steps + 1]
    segments = [
        (first, end, m, min(max(1, _BLOCK_VALUES // m), end - first))
        for (first, m), end in zip(schedule, ends)
    ]
    n_values = max(rows * m for _, _, m, rows in segments)
    n_modes = max(rows * (m // 2 + 1) for _, _, m, rows in segments)
    decay_flat = np.empty(n_modes)
    spectrum_flat, w_hat_flat = np.empty((2, n_modes), dtype=complex)
    value_flats = np.empty((5, n_values))
    for first, end, m, rows in segments:
        coarse = PeriodicGrid(grid.length, m)
        modes = m // 2 + 1
        hat = deviation_hat[:modes] * (m / n)  # a power of two: exact
        cut = _decay_cut(m, vbar, nu)
        decay, spectrum, w_hat = (
            a[: rows * modes].reshape(rows, modes) for a in (decay_flat, spectrum_flat, w_hat_flat)
        )
        deviations, states, w, wx, scratch = value_flats[:, : rows * m].reshape(5, rows, m)
        for start in range(first, end, rows):
            block = slice(start, min(start + rows, end))
            t = times[block]
            r = t.size
            live = _heat_decay(t, wave2[:modes], cut, decay[:r])
            np.multiply(hat[:live], decay[:r, :live], out=spectrum[:r, :live])
            spectrum[:r, live:] = 0.0
            deviation = _irfft(spectrum[:r], m, out=deviations[:r])
            if start == 0:
                deviation[0] = deviation0
            v = np.add(deviation, vbar, out=states[:r])
            if start == 0:
                v[0] = v0
            if v.min() <= POSITIVITY_FLOOR:
                low = np.flatnonzero(v.min(axis=-1) <= POSITIVITY_FLOOR)[0]
                raise NonPositiveDensity(f"flow state touched the positivity floor at t = {t[low]:.6g}")
            work = tuple(a[:r] for a in (spectrum, w_hat, w, wx, scratch))
            wx2_sum, dissipation[block] = _flow_dissipation(v, deviation, vbar, coarse, p, work, with_f)
            if with_f:
                sigma = _sigma_integral(v, coarse, p, work[2:], (deviation, vbar))
                f[block] = coarse.spacing * wx2_sum - (2.0 * math.pi ** 2 * p / grid.length ** 2) * sigma
    if with_f:
        _check_finite(f, "f along the heat flow from this datum")
    _check_finite(dissipation, "the production along the heat flow from this datum")
    return times, f, dissipation


def _check_flow_exponent(p: float) -> None:
    """The heat-flow certificates cover p in [1, 2], log case included."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")


# A datum whose powers overflow fills a flow or an integral with inf and
# NaN, which is reported as a ValueError; the warnings on the way are noise.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


@_QUIET_OVERFLOW
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
    the p-family of inequalities; f must be nonincreasing and -> 0.  A v0,
    f or production that is not finite raises ``ValueError``.
    """
    _check_flow_exponent(p)
    v0 = _check_positive(u.values) ** (2.0 / p)
    columns = _heat_flow(v0, u.grid, p, t_final, dt, with_f=True)
    return np.rec.fromarrays(columns, names=("t", "f_value", "dissipation"))


@_QUIET_OVERFLOW
def remainder_R(u0: Field, p: float, t_final: float, dt: float) -> float:
    """Integrated production of f along the heat flow started at v = u0.

    Equals f(0) up to the time-truncation tail, which is estimated from
    the terminal exponential decay rate and added on.  ``u0`` is the flow
    datum v itself, not a density u: ``heatflow_verify(u, p)`` and
    ``convex_sobolev_check(u, p)`` flow from v = u^{2/p}, so the
    nonnegative remainder by which the convex Sobolev inequality at a
    density u beats its sharp constant is ``remainder_R(u^{2/p}, p)``,
    which is (2 pi^2 p / L^2) (rhs - lhs) of ``convex_sobolev_check(u, p)``.
    A u0 or production that is not finite raises ``ValueError``.
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


@_QUIET_OVERFLOW
def convex_sobolev_check(u: Field, p: float) -> tuple[float, float, bool]:
    """Test int u^2 - L ((1/L) int u^{2/p})^p <= (p-1) L^2 / (2 pi^2 p) int u_x^2.

    Returns (lhs, rhs, holds) with lhs and rhs both divided by (p - 1),
    and holds allowing 1e-10 of slack for rounding.  A side that is not
    finite raises ``ValueError``.
    """
    convex_sobolev(p)  # the admissible p are those of the quotient
    grid = u.grid
    vals = _check_positive(u.values)
    lhs = _sigma_integral(vals ** (2.0 / p), grid, p)  # int sigma_p(u^{2/p})
    ux = _derivative(grid, vals, 1, SPECTRAL)
    rhs = (grid.length ** 2 / (2.0 * math.pi ** 2 * p)) * _integrate(grid, ux * ux)
    _check_finite(np.array([lhs, rhs]), "the convex Sobolev sides of this datum")
    return lhs, rhs, lhs <= rhs + 1e-10
