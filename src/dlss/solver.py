"""Implicit Euler time stepping for u_t + (u (log u)_xx)_xx = 0, periodic.

The unknown is the log-density y = log u, so positivity of u = e^y is
automatic.  One backward Euler step solves

    F(y) = (e^y - e^{y_prev}) / tau + D2 (e^y D2 y) = 0

by damped Newton with the exact Jacobian

    J(y) = diag(e^y)/tau + D2 (diag(e^y) D2 + diag(e^y D2 y)).

Discrete mass h * sum(e^y) is conserved up to the Newton residual because
D2 annihilates constants and is symmetric, and the same two facts make
h * sum(e^y (log-mean shifted)) entropies decay step by step: convexity
of s -> s log s plus summation by parts transfer the continuum Lyapunov
argument verbatim to the grid.

``solve`` runs one damped chord loop that reuses an LU across
iterations and across steps, refreshing it when an iteration
that is still above the tolerance contracts too little; the iteration
that meets the tolerance may land on the residual floor, so its ratio is
not judged.  A step gets at most 25 Newton iterations.  ``solve`` starts
each step at the quadratic extrapolation 3 y_k - 3 y_{k-1} + y_{k-2}
through the last three levels, or at the secant 2 y_k - y_{k-1} while
only two are known, if its residual is below that of y_k, which is free:
F(y_k; y_k) is the previous step's accepted residual minus
(e^{y_k} - e^{y_{k-1}}) / tau.  A tau halving drops the older levels,
so the step after it starts at y_k, as the first step and the halved
steps do.  Every accepted iterate passes the
same residual tolerance.  Records copy e^y, y and D2 y of the accepted
level and are reduced a block at a time (``_Records``): they take no
logarithm of u and no derivative, and only min_u on a coarse grid takes
transforms: one batched forward and inverse transform and exponential
per block.

On the spectral backend ``solve`` runs each step on the coarsest halving
of the requested grid that the grid rule admits (derived above
``_tail_weights``).  On a grid of at most ``_PRODUCT_POINTS`` points a
residual takes D2 y and D2 (e^y D2 y) as two products with the grid's
contiguous D2 matrix, the one the dense chord Jacobian is assembled
from; ``solve`` holds one such matrix per grid size while it runs.  On
a larger grid it takes four transforms.  The rule reads the rfft of y
and that of D2 (e^y D2 y): on a larger grid both kept by the evaluation
that made the level, on a product grid taken by three transforms of its
own per read, so it reads the same bits for the same y on either.  It
is read before steps 1, 2, 4, 8, ... on every grid.  Between those
steps a coarser grid of at most ``_PRODUCT_POINTS`` points asks the
guard (derived above ``_Guard``: two products with rows of the real DFT
that the solve holds next to the D2 matrix) whether the rule could
double the accepted level, and reads the rule on each step that the
guard cannot clear; a coarser grid of more points, whose levels keep
both spectra, or of points other than 2^j reads the rule after every
step.  The run halves when a
coarser grid passes and doubles when its own grid fails, on a read of
the rule alone.  A switch truncates or zero-pads the spectrum of y and
is handled as a halving is: the chord LU is refreshed and the older
levels are dropped.  Records are
sums on the grid the step ran on, except min_u, which is taken at the
requested nodes, where final_y is returned, resampled from the spectrum
of the last level.  fd2 and fd4 runs and ``jacobian`` stay on the grid
they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NonPositiveDensity, SingularJacobian, ValidationError
from .grid import (
    POSITIVITY_FLOOR,
    _BLOCK_VALUES,
    DiffBackend,
    Field,
    FieldKind,
    PeriodicGrid,
    SPECTRAL,
    _check_positive_finite,
    _derivative,
    _fd_taps,
    _halvings,
    _irfft,
    _lattice_steps,
    _multiplier,
    _rfft,
    _shifted,
    _spectrum_derivative,
    diff_matrix,
)
from .functionals import _sums
from .linalg import CyclicBandedLU, DenseLU

__all__ = [
    "LinearSolver",
    "SolverConfig",
    "TimeSeriesRecord",
    "Trajectory",
    "jacobian",
    "solve",
    "lyapunov_check",
]

_MAX_NEWTON = 25
_MAX_BACKTRACKS = 40
# Each backtrack halves the Newton step.
_DAMPING = 0.5
_MAX_TAU_HALVINGS = 5
# A chord iteration that ends above newton_tol with a contraction factor
# above this triggers a fresh LU.
_REFRESH_CONTRACTION = 0.25

Array = np.ndarray


class LinearSolver(Enum):
    DENSE = "dense"
    BANDED = "banded"


@dataclass(frozen=True)
class SolverConfig:
    """Time step, Newton tolerance and discretisation for one run.

    ``newton_tol`` bounds the sup norm of the residual F.  Evaluating F in
    double precision has a noise floor of roughly eps * (pi N / L)^4 *
    |u''| on the N points the steps run on, because high-mode rounding
    debris passes through two second derivatives: about 1e-11 at N = 64
    and 3e-9 at N = 256 on the unit circle scale.  A spectral grid of at
    most 128 points forms F by products with the D2 matrix, which round
    about twice as coarsely as transforms (``_PRODUCT_POINTS`` has the
    table).  Tolerances below that floor cannot converge.  A spectral
    ``solve`` steps on the coarsest grid that resolves y, so the default
    1e-8 meets that grid's floor: five steps of tau = 1e-4 from
    1 + a cos x on L = 2 pi converge at a = 0.1 and 0.5 up to N = 1024,
    on 64 and 128 points.  At a = 0.9, y
    needs 256 points or more at t = 0, and the residual stalls at 5.7e-8
    (N = 256) or 1.1e-6 and above (N >= 512), raising ``NoConvergence``.
    fd2 and fd4 runs keep the full grid and its floor (ROADMAP.md,
    item 2, has the table).  Line-search backtracks always halve the
    Newton step.  ``tau`` and ``newton_tol`` must be positive and finite;
    a rejected value raises ``ValidationError`` naming the field.
    """

    tau: float
    newton_tol: float = 1e-8
    backend: DiffBackend = SPECTRAL
    linear_solver: LinearSolver = LinearSolver.DENSE

    def __post_init__(self):
        _check_positive_finite("tau", self.tau)
        _check_positive_finite("newton_tol", self.newton_tol)
        if self.linear_solver is LinearSolver.BANDED and self.backend.order == 0:
            raise ValidationError(
                "linear_solver",
                "banded needs a finite-difference backend; "
                "the spectral second derivative is dense",
            )


class TimeSeriesRecord(NamedTuple):
    """Monitored quantities at one accepted time level; a named tuple, so
    a run's thousands of records are cheap to build and one is its CSV
    row in column order."""

    t: float
    mass: float
    entropy_rel: float
    lyap: float
    production: float
    min_u: float
    newton_iters: int


@dataclass(frozen=True)
class Trajectory:
    """Result of a full run.

    ``records`` are strictly increasing in t (the time stepper only ever
    appends accepted levels); ``final_y`` is the log-density at the last
    one.  ``clamped_nodes`` counts initial values lifted to the positivity
    clamp before taking logs.
    """

    grid: PeriodicGrid
    config: SolverConfig
    records: tuple[TimeSeriesRecord, ...]
    final_y: Field
    clamped_nodes: int = 0


# The largest grid on which a spectral residual takes D2 y and
# D2 (e^y D2 y) as products with the held matrix rather than as two
# transform pairs.  There is no option for it: below it the product is
# faster, above it the product is both slower and rounds worse.
# - Speed.  One _evaluate (timeit, best of 7, BLAS on one thread, 2-core
#   Xeon) costs, transforms vs product, 13.5 vs 8.2 us at m = 32, 14.1 vs
#   7.4 at 64, 16.8 vs 10.1 at 128, 19.6 vs 24.8 at 256, 26 vs 113 at 512
#   and 37 vs 657 at 1024.
# - Rounding.  For y = log(1 + 0.1 cos x) on L = 2 pi, against the same
#   formula in long double (numpy's complex256 FFT), D2 (e^y D2 y) errs
#   by, transforms vs product, 3.3e-13 vs 5.1e-13 at m = 32, 9.7e-12 vs
#   1.7e-11 at 64, 1.6e-10 vs 2.9e-10 at 128, 3.2e-9 vs 1.2e-8 at 256
#   and 7.3e-8 vs 1.8e-7 at 512.
# With the product on every grid, 300 steps from 1 + 0.1 cos x held on
# 256 points refreshed the chord LU 4 times instead of once, and the
# residuals at which the full-grid cells of ROADMAP item 2 stall moved.
_PRODUCT_POINTS = 128


class _Matrices(dict):
    """Points -> the contiguous D2 matrix np.array(diff_matrix(grid, 2,
    backend)) of that grid, built on first use, and ``guards``, points ->
    the grid's ``_Guard``, built on first use by ``cleared``.  A solve
    holds one for as long as it runs, so its residuals and its dense
    refreshes share one matrix per grid size, its steps one guard, and
    none outlives it."""

    __slots__ = ("length", "backend", "guards")

    def __init__(self, length: float, backend: DiffBackend):
        super().__init__()
        self.length, self.backend = length, backend
        self.guards: dict[int, _Guard] = {}

    def __missing__(self, n: int) -> Array:
        # a contiguous copy keeps the products on BLAS
        matrix = self[n] = np.array(diff_matrix(PeriodicGrid(self.length, n), 2, self.backend))
        return matrix

    def cleared(self, level: _Level, config: SolverConfig) -> bool:
        """True when the guard of the level's grid clears ``level``.  Only
        a level of products on 2^j points has a guard: a level of four
        transforms keeps the spectra the rule reads, and the margin bounds
        the FFTs of radix 2."""
        n = level.y.size
        if level.y_hat is not None or n & (n - 1):
            return False
        guard = self.guards.get(n)
        if guard is None:
            guard = self.guards[n] = _Guard(self.length, n)
        return guard.clears(level, config)


class _Level:
    """One iterate y with e^y, F(y), D2 y, |F(y)|_inf and, when four
    transforms made F, ``y_hat``, the rfft of y, and ``spectrum``, the
    rfft of D2 (e^y D2 y), all from one residual evaluation; both are
    None on fd2 and fd4 and where products made F, on a spectral grid of
    at most _PRODUCT_POINTS points.  Newton, the next step's start, the
    grid rule and the records read them."""

    __slots__ = ("y", "ey", "r", "d2y", "spectrum", "y_hat", "rnorm")

    def __init__(
        self, y: Array, ey: Array, r: Array, d2y: Array,
        spectrum: Array | None, y_hat: Array | None,
    ):
        self.y, self.ey, self.r, self.d2y = y, ey, r, d2y
        self.spectrum, self.y_hat = spectrum, y_hat
        self.rnorm = float(np.maximum.reduce(np.abs(r)))


def _transforms(y: Array, ey: Array, n: int, length: float) -> tuple[Array, Array, Array]:
    """The rfft of y, the rfft of D2 (e^y D2 y) and D2 y on n spectral
    points, by three transforms: D2 y is differentiated into a second
    buffer, where the rfft of e^y D2 y then becomes that of
    D2 (e^y D2 y)."""
    d2 = _multiplier(n, 2, length)
    y_hat, spectrum = np.empty(n // 2 + 1, dtype=complex), np.empty(n // 2 + 1, dtype=complex)
    d2y = _spectrum_derivative(_rfft(y, out=y_hat), d2, n, out=spectrum)
    flat = _rfft(ey * d2y, out=spectrum).view(float)
    flat *= d2
    return y_hat, spectrum, d2y


def _evaluate(
    y: Array, ey_prev: Array, grid: PeriodicGrid, config: SolverConfig, matrices: _Matrices,
) -> _Level:
    """The level at y of the step from the level whose e^y is ey_prev.  A
    spectral grid of at most _PRODUCT_POINTS points takes both second
    derivatives as products with its matrix from ``matrices``, a larger
    one by ``_transforms`` and one inverse transform, and its level keeps
    both spectra."""
    ey = np.exp(y)
    n = grid.n_points
    y_hat = spectrum = None
    if config.backend.order:
        d2y = _derivative(grid, y, 2, config.backend)
        r = _derivative(grid, ey * d2y, 2, config.backend)
    elif n <= _PRODUCT_POINTS:
        d2 = matrices[n]
        # the rows of D2 sum to rounding, not to 0: a constant y must give
        # a D2 y of exact zeros
        d2y = d2 @ (y - y[0])
        r = d2 @ (ey * d2y)
    else:
        y_hat, spectrum, d2y = _transforms(y, ey, n, grid.length)
        r = _irfft(spectrum, n)
    r += (ey - ey_prev) / config.tau
    return _Level(y, ey, r, d2y, spectrum, y_hat)


def jacobian(y: Field, config: SolverConfig) -> Array:
    """Exact Jacobian of the residual at y, in the form the configured
    linear solver factorises: the N x N matrix for ``LinearSolver.DENSE``;
    for ``LinearSolver.BANDED`` its (2 order + 1, N) cyclic diagonals, row
    c + order holding the entries (i, (i + c) mod N), filled straight from
    the D2 taps w_a: J(i, i+a+b) gets w_a w_b e^y at i + a, J(i, i+a) gets
    w_a (e^y D2 y) at i + a and J(i, i) gets e^y / tau."""
    return _jacobian(y.values, y.grid, config, _Matrices(y.grid.length, config.backend))


def _jacobian(y: Array, grid: PeriodicGrid, config: SolverConfig, matrices: _Matrices) -> Array:
    """Array core of ``jacobian``; the dense form reads grid's D2 matrix
    from ``matrices``."""
    order = config.backend.order
    ey = np.exp(y)
    if config.linear_solver is LinearSolver.DENSE:
        d2 = matrices[grid.n_points]
        # D2 diag(b) is column scaling; avoids a second matrix product.
        jac = d2 @ (ey[:, None] * d2)
        jac += d2 * (ey * (d2 @ y))[None, :]
        jac[np.diag_indices_from(jac)] += ey / config.tau
        return jac
    offsets, weights = _fd_taps(2, order)
    taps = [w * grid.spacing ** (-2) for w in weights]
    g = ey * _derivative(grid, y, 2, config.backend)
    jac = np.zeros((2 * order + 1, grid.n_points))
    jac[order] = ey / config.tau
    for a, w_a, ey_a, g_a in zip(offsets, taps, _shifted(ey, offsets), _shifted(g, offsets)):
        jac[order + a] += w_a * g_a
        for b, w_b in zip(offsets, taps):
            jac[order + a + b] += (w_a * w_b) * ey_a
    return jac


class _NewtonWorkspace:
    """Shared LU and bookkeeping for chord Newton across steps, and the
    D2 matrices of the solve that it serves."""

    __slots__ = ("factor", "stale", "matrices")

    def __init__(self, matrices: _Matrices):
        self.factor = None
        self.stale = False
        self.matrices = matrices

    def refresh(self, y: Array, grid: PeriodicGrid, config: SolverConfig) -> None:
        jac = _jacobian(y, grid, config, self.matrices)
        if config.linear_solver is LinearSolver.BANDED:
            # two stacked D2 stencils of halfwidth order/2
            self.factor = CyclicBandedLU(jac, config.backend.order)
        else:
            self.factor = DenseLU(jac)
        self.stale = False

    def invalidate(self) -> None:
        self.factor = None


def _line_search(
    level: _Level, delta: Array, ey_prev: Array,
    grid: PeriodicGrid, config: SolverConfig, iterations: int, matrices: _Matrices,
) -> _Level:
    """Damped backtracking from ``level`` along ``delta``; returns the first
    trial level that lowers the residual or meets the tolerance."""
    lam = 1.0
    for _ in range(_MAX_BACKTRACKS + 1):
        # the full step needs no exact 1.0 * delta product
        trial = _evaluate(
            level.y + (delta if lam == 1.0 else lam * delta), ey_prev, grid, config, matrices
        )
        if trial.rnorm < level.rnorm or trial.rnorm <= config.newton_tol:
            return trial
        lam *= _DAMPING
    raise NoConvergence(
        f"line search failed to reduce the residual after {_MAX_BACKTRACKS} "
        f"reductions (residual {level.rnorm:.3e})",
        iterations=iterations,
        residual=level.rnorm,
    )


def _newton_loop(
    level: _Level, ey_prev: Array,
    grid: PeriodicGrid, config: SolverConfig, workspace: _NewtonWorkspace,
) -> tuple[_Level, int]:
    """Damped chord Newton on one step from ``level``; returns the accepted
    level and the iteration count.  The workspace factor is refreshed after
    an iteration that stays above the tolerance with |F_new| / |F_old|
    above _REFRESH_CONTRACTION, and within one whose stale factor fails."""
    iters = 0
    while level.rnorm > config.newton_tol:
        if iters >= _MAX_NEWTON:
            raise NoConvergence(
                f"Newton did not reach {config.newton_tol:.1e} in {_MAX_NEWTON} "
                f"iterations (residual {level.rnorm:.3e})",
                iterations=iters,
                residual=level.rnorm,
            )
        if workspace.factor is None:
            workspace.refresh(level.y, grid, config)
        try:
            delta = workspace.factor.solve(-level.r)
            trial = _line_search(level, delta, ey_prev, grid, config, iters, workspace.matrices)
        except (NoConvergence, SingularJacobian):
            if workspace.stale:
                # a reused factor's step was not finite or went uphill; redo with a fresh one
                workspace.invalidate()
                continue
            raise

        contraction = trial.rnorm / level.rnorm
        level = trial
        iters += 1
        # a trial that meets the tolerance ends the loop; its ratio may be
        # residual-floor noise and says nothing about the factor
        if workspace.stale and contraction > _REFRESH_CONTRACTION and level.rnorm > config.newton_tol:
            workspace.invalidate()
        else:
            workspace.stale = True
    return level, iters


def _advance(
    base: _Level, start: _Level, grid: PeriodicGrid, config: SolverConfig,
    workspace: _NewtonWorkspace, depth: int, step_index: int,
) -> tuple[_Level, int, bool]:
    """One macro step of size config.tau from the accepted level ``base``,
    Newton entering at ``start``, recursively halving tau on failure.
    Returns the accepted level, the iterations and ``clean``, which is
    False when the step needed a halving."""
    try:
        return (*_newton_loop(start, base.ey, grid, config, workspace), True)
    except (NoConvergence, SingularJacobian) as exc:
        if depth >= _MAX_TAU_HALVINGS:
            raise NoConvergence(
                f"step {step_index}: no convergence even after {depth} time step "
                f"halvings (tau = {config.tau:.3e})",
                iterations=getattr(exc, "iterations", None),
                residual=getattr(exc, "residual", None),
                step_index=step_index,
            ) from exc
        half = replace(config, tau=0.5 * config.tau)
        sub_workspace = _NewtonWorkspace(workspace.matrices)  # factor depends on tau
        level, total = base, 0
        for _ in range(2):
            start = _evaluate(level.y, level.ey, grid, half, workspace.matrices)
            level, iters, _ = _advance(
                level, start, grid, half, sub_workspace, depth + 1, step_index
            )
            total += iters
        workspace.invalidate()
        return level, total, False


# Which grid a spectral solve needs, derived; nothing in it is tuned.  The
# grid must hold the level the next step produces, not only the accepted
# one: a step from a y of few modes fills its result with the harmonics of
# e^y D2 y.  So the rule reads z, the accepted y advanced by one step
# linearised about e^ybar, ybar the mean of y: z_hat = y_hat - F_hat /
# (e^ybar (1/tau + kappa^4 k^4)), kappa = 2 pi / L, where F = D2 (e^y D2 y)
# is the residual F(y; y) that the next step starts from.  On an m-point
# grid write z = zbar + sum_k a_k cos(kappa k x + phi_k), a_k = 2 |z_hat_k|
# / m (|z_hat_k| / m at the Nyquist mode); by Parseval such a sum has mean
# square sum a_k^2 / 2 over the nodes (a_k^2 at the Nyquist mode).  A grid
# of p points, m itself or an even halving of it, resolves the level when
# the tail t of z, its modes from p/4 up, is negligible in one of two
# senses:
# - To the step.  Linearised, t moves the residual by J t, and the symbol
#   of J at mode k is e^y (1/tau + kappa^4 k^4) to leading order in 1/k, so
#   J t has mean square at most u_max^2 sum (1/tau + kappa^4 k^4)^2 a_k^2 / 2,
#   u_max = max e^y.  A residual that Newton accepts, |F|_inf <= newton_tol,
#   may have mean square up to newton_tol^2.  Where that of J t is no
#   larger, t moves F by no more than Newton already leaves in it: the step
#   does not determine y more finely than that.
# - To the number format.  A node of y = log u is known only to within
#   r (1 + |y|), r = 2^-53 the unit roundoff: rounding u to a double moves
#   log u by up to r, and rounding y by up to r |y|.  Over the nodes these
#   two roundings have mean square at most (r (1 + |y|_rms))^2 (Minkowski),
#   and |z|_rms^2 = zbar^2 + sum a_k^2 / 2 stands in for |y|_rms^2.  Where
#   the mean square of t is no larger, t is within what they may make it.
#   Every computed y carries such a plateau (about 1e-17 per mode for
#   log u0).  The linearised step removes only the share of it that e^ybar
#   carries, and pushed through kappa^4 k^4 the rest exceeds newton_tol at
#   N = 512 or 1024 for 1 + a cos x, so the first sense alone would keep
#   those grids at t = 0.
# The coarse grid drops the modes from p/2 up.  It also needs the band
# [p/4, p/2) negligible, so that the part of the flux e^y D2 y quadratic in
# y - ybar, which spans twice the band of y, forms on p points with no
# aliasing (the half rule for quadratic products); what aliases is of cubic
# order in modes above p/8.  Each step on a grid puts into y what its
# accepted residual leaves, J^-1 F, which is within the first bound again,
# and one more rounding, within the second.  So the grid a step ran on
# keeps resolving the level while the tail of z is within twice either
# bound: once what the halving admitted, once what the step left.  Only
# more than that, put there by the flow, doubles the grid; without the
# margin the accepted residual alone flips the size from step to step.
# The rule reads y_hat and F_hat as four transforms make them, kept by the
# level or taken again for a level that products made (_spectra); the
# sums grow as p falls, so the step runs on the coarsest halving
# admitted.
_ROUNDOFF = 0.5 * np.finfo(float).eps


@lru_cache(maxsize=None)
def _tail_weights(m: int, length: float, tau: float) -> tuple[tuple[int, ...], Array, Array]:
    """(sizes, weights, inverse) for an m-point grid: the sizes p of the
    rule above, _halvings(m); read-only weights on the float view of the
    rfft of z, squared, that give the mean squares of the rule: one row
    per size with sum (1/tau + kappa^4 k^4)^2 a_k^2 / 2 from p/4 up, one
    per size with sum a_k^2 / 2 from p/4 up, and a last row with
    |z|_rms^2; and the read-only 1 / (1/tau + kappa^4 k^4) of each mode,
    also on the float view.  The rows of m itself are quartered: the grid
    a step ran on is measured against twice each bound."""
    sizes = _halvings(m)
    modes = np.arange(m // 2 + 1)
    mean_square = np.full(m // 2 + 1, 2.0 / (m * m))
    mean_square[0] = mean_square[-1] = 1.0 / (m * m)
    symbol = 1.0 / tau + ((2.0 * np.pi / length) * modes) ** 4
    # p >= 8 keeps mode 0 out of every tail
    tail = modes >= np.array([p // 4 for p in sizes])[:, None]
    tail = tail * np.array([0.25] + [1.0] * (len(sizes) - 1))[:, None]
    rows = np.vstack([tail * (mean_square * symbol * symbol), tail * mean_square, mean_square])
    weights = np.repeat(rows, 2, axis=1)
    inverse = np.repeat(1.0 / symbol, 2)
    weights.setflags(write=False)
    inverse.setflags(write=False)
    return sizes, weights, inverse


def _spectra(level: _Level, m: int, length: float) -> tuple[Array, Array]:
    """The rfft of y and that of D2 (e^y D2 y) at ``level``, on m points:
    those its evaluation kept or, for a level that products made, those
    of ``_transforms``, the same bits as a four-transform evaluation of
    that y keeps."""
    if level.y_hat is not None:
        return level.y_hat, level.spectrum
    return _transforms(level.y, level.ey, m, length)[:2]


def _resolving_size(level: _Level, m: int, n: int, length: float, config: SolverConfig) -> int:
    """Points of the grid the next step runs on, by the rule above: the
    coarsest size of _tail_weights that resolves ``level``, or 2m (n at
    most) when m itself does not."""
    sizes, weights, inverse = _tail_weights(m, length, config.tau)
    y_hat, spectrum = _spectra(level, m, length)
    # the float view of z_hat = y_hat - F_hat / (e^ybar (1/tau + kappa^4 k^4))
    y_hat = y_hat.view(float)
    flat = spectrum.view(float) * (inverse / -math.exp(y_hat[0] / m))
    flat += y_hat
    flat *= flat
    *tails, z_square = (weights @ flat).tolist()
    step_bound = (config.newton_tol / float(np.maximum.reduce(level.ey))) ** 2
    round_bound = (_ROUNDOFF * (1.0 + math.sqrt(z_square))) ** 2
    # both sums grow from one size to the next, so the sizes that pass lead
    size = min(2 * m, n)
    for p, step, rounding in zip(sizes, tails, tails[len(sizes) :]):
        if step > step_bound and rounding > round_bound:
            break
        size = p
    return size


# The guard.  Between the reads of the rule before steps 2^j, a step on a
# coarse grid of m <= _PRODUCT_POINTS points asks the guard whether the
# rule could double the accepted level; the rule is read on that step only
# when the guard cannot rule that out.  The rule doubles only when the
# step sense fails on m itself: the 2-norm |sigma z| over the float view
# of sigma_k z_hat_k from mode m/4 up, each term times the root of its
# mean-square weight, exceeds 2 newton_tol / u_max (the row is quartered).
# With F_hat = -kappa^2 k^2 g_hat, g = e^y D2 y, and kappa^4 k^4 y_hat =
# -kappa^2 k^2 times the rfft of D2 y,
#     sigma_k z_hat_k = y_hat_k / tau + kappa^2 k^2 h_hat_k,
#     h = q D2 y,  q = e^y / e^ybar - 1,
# so k^4 meets only D2 y scaled by the small q.  The guard forms this from
# the level's y, e^y and D2 y by two products with rows of the real DFT
# (cos and sin, modes m/4 to m/2) scaled by the root weights, the second
# also by kappa^2 k^2, and clears the level when its norm plus a margin is
# within the bound.  The margin bounds how far the guard's value and the
# rule's, each as computed, lie from the exact one.
#
# Margin, to first order in u = 2^-53.  An m-term product errs by at most
# gamma = m u / (1 - m u) times the product of the absolute values; an
# m-point FFT, m = 2^j, in the 2-norm, by at most eta = log2(m) (u + gamma_4 (sqrt2
# + u)) times the exact transform's norm, sqrt(m) times its input's
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec.
# 3.1 and thm. 24.2, twiddles within u).  Write s, l and w for the rms of
# y, q and h, t = |ybar - y[0]|, so that |y - y[0]| <= sqrt(m) (s + t) in
# the 2-norm, and rho = u_max / e^ybar; d = kappa^2 m^2 / 4, the largest
# |symbol| of D2, so that |D2 y|_rms <= d s; nu the 2-norm of a row of its
# matrix; S the 2-norm of kappa^2 k^2 over the r rows.  A root weight is
# at most sqrt2 / m and a row has 2-norm 1 / sqrt(m), so the flux rows
# carry an error vector into at most S times its rms, the rows of y into
# sqrt(r) times.  The gap is at most the sum of:
# - the rule's rfft of y and its symbols (15 u), through sigma <= 1/tau +
#   d^2: sqrt2 (eta + 15 u) (1/tau + d^2) s;
# - the rule's flux: D2 y by an rfft, a product with the symbol and an
#   inverse rfft, e^y times it, an rfft, another product, and e^ybar from
#   the first rfft: rho d^2 s (6 eta + 36 u + 2 (eta + u) s);
# - the guard's product with y, its entries within 24 u (angles, cos or
#   sin, weights) and 24 sqrt2 u <= 5 gamma (m >= 8): 6 gamma sqrt(r) s / tau;
# - h: e^ybar from a sum of m terms and q, within (gamma + u) s + 5 u
#   times 1 + |q|, and the guard's product with h, its entries within 31 u:
#   S (((gamma + u) s + 5 u) (d s + w) + 7 gamma w);
# - the level's D2 y, a product of the held matrix with y - y[0]: the
#   matrix is the inverse rfft of the symbol times the rfft of a unit
#   impulse, so a row is within dev = sqrt2 (d eta + (eta + 8 u) nu) in
#   the 2-norm, and a node of D2 y within (dev + (gamma + u) nu) sqrt(m)
#   (s + t), which q scales: S (dev + (gamma + u) nu) sqrt(m) l (s + t).
# Sums of squares, the rule's weights and the bound round to within
# gamma_(2m + 20) relatively, which ``shrink`` takes off the bound.  The
# margin is far below the bound on 32 and 64 points; on 128 it exceeds
# the default bound for 1 + 0.1 cos x, so such a level is read by the
# rule after every step there, as on a grid above _PRODUCT_POINTS, whose
# levels keep both spectra: there the rule is as cheap as a guard.
class _Guard:
    """The guard of an m-point grid, m <= _PRODUCT_POINTS: ``rows`` and
    ``flux_rows``, which multiply y and tau h, each with a last row that
    sums y, and the grid's factors of the margin's five terms, in order:
    ``rfft``, ``flux`` and ``flux_s``, ``y_rows``, ``h`` with ``h_s`` and
    ``h_rows``, and ``held``."""

    __slots__ = (
        "rows", "flux_rows", "m", "d", "rfft", "flux", "flux_s", "y_rows", "h", "h_s", "h_rows",
        "held", "shrink",
    )

    def __init__(self, length: float, m: int):
        u, kappa = _ROUNDOFF, 2.0 * math.pi / length
        modes = np.arange(m // 4, m // 2 + 1)
        phase = np.outer(modes, np.arange(m)) % m
        angles = [2.0 * math.pi * r / m for r in range(m)]
        cos, sin = (np.array([f(a) for a in angles]) for f in (math.cos, math.sin))
        # cos rows, then sin rows: the Nyquist mode has only a cos row
        trig = np.vstack([cos[phase], sin[phase[:-1]]])
        root = np.full(trig.shape[0], math.sqrt(2.0) / m)
        root[modes.size - 1] = 1.0 / m
        symbol = (kappa * np.concatenate([modes, modes[:-1]])) ** 2
        self.rows = np.vstack([trig * root[:, None], np.ones(m)])
        self.flux_rows = np.vstack([trig * (root * symbol)[:, None], np.zeros(m)])
        gamma = m * u / (1.0 - m * u)
        eta = math.log2(m) * (u + 4.0 * u / (1.0 - 4.0 * u) * (math.sqrt(2.0) + u))
        d = self.d = (kappa * m / 2.0) ** 2
        norm = math.sqrt(float(symbol @ symbol))  # S
        nu = kappa * kappa * math.sqrt(float(np.add.reduce(np.arange(1 - m // 2, m // 2 + 1) ** 4)) / m)
        dev = math.sqrt(2.0) * (d * eta + (eta + 8.0 * u) * nu)
        self.m, self.rfft = m, math.sqrt(2.0) * (eta + 15.0 * u)
        self.flux, self.flux_s = d * d * (6.0 * eta + 36.0 * u), 2.0 * d * d * (eta + u)
        self.y_rows = 6.0 * gamma * math.sqrt(trig.shape[0])
        self.h, self.h_s, self.h_rows = 5.0 * u * norm, (gamma + u) * norm, 7.0 * gamma * norm
        self.held = norm * (dev + (gamma + u) * nu) * math.sqrt(m)
        rel = (2 * m + 20) * u / (1.0 - (2 * m + 20) * u)
        self.shrink = (1.0 - rel) / (1.0 + rel)

    def clears(self, level: _Level, config: SolverConfig) -> bool:
        """True when the rule, read on ``level``, would not double its grid."""
        y, ey, tau, m, d = level.y, level.ey, config.tau, self.m, self.d
        # .dot, not @: the same products for less overhead on these sizes
        v = self.rows.dot(y)
        mean = float(v[-1]) / m
        scale = tau / math.exp(mean)
        h = ey * scale  # tau (q + 1)
        h -= tau
        l = math.sqrt(h.dot(h) / m) / tau
        h *= level.d2y
        w = math.sqrt(h.dot(h) / m) / tau
        v += self.flux_rows.dot(h)
        v[-1] = 0.0
        s = math.sqrt(y.dot(y) / m)
        u_max = float(ey[ey.argmax()])  # argmax costs less than max
        margin = (
            s * (self.rfft * (1.0 / tau + d * d) + u_max * scale / tau * (self.flux + self.flux_s * s))
            + self.y_rows * s / tau
            + (self.h + self.h_s * s) * (d * s + w) + self.h_rows * w
            + self.held * l * (s + abs(mean - float(y[0])))
        )
        return math.sqrt(v.dot(v)) / tau + margin <= self.shrink * 2.0 * config.newton_tol / u_max


def _resample(y_hat: Array, m: int, size: int) -> Array:
    """At the nodes of a size-point grid, size = m 2^j with j != 0, the
    trigonometric interpolant of the m-point values whose rfft along the
    last axis is ``y_hat``, without its modes from size/2 up when size <
    m; the inverse transform pads the spectrum with zeros.  The modes kept
    are scaled by size/m; the m-point Nyquist mode is split between +-m/2
    (halved) when size > m, the size-point one dropped when size < m."""
    weights = np.full(min(m, size) // 2 + 1, size / m)  # a power of two: exact
    weights[-1] = 0.5 * weights[-1] if size > m else 0.0
    return _irfft(y_hat[..., : weights.size] * weights, size)


class _Records:
    """The records of a solve, reduced a block of accepted levels at a time.

    ``add`` copies e^y, y and D2 y of a level into the next row of the
    block.  The rows of a block share one grid; a full block, a level on
    another grid and ``result`` reduce it row-wise by ``functionals._sums``
    and take min_u at the n requested nodes, which a grid coarser than n
    reaches through one batched rfft of the y rows.  Three (rows, m) views
    of one (3, rows n) buffer hold min(_BLOCK_VALUES // n, records) rows of
    each array, m the points of the block's grid."""

    def __init__(self, n: int, n_records: int):
        self.n, self.rows = n, min(max(1, _BLOCK_VALUES // n), n_records)
        self.flat = np.empty((3, self.rows * n))  # e^y, y and D2 y
        self.grid = self.block = None
        self.m = 0  # points of the block's grid
        self.times, self.iters, self.records = [], [], []

    def add(self, t: float, level: _Level, iters: int, grid: PeriodicGrid) -> None:
        # the grids of one solve share their length, so the points tell them apart
        if len(self.times) == self.rows or grid.n_points != self.m:
            self._flush()
            self.grid, self.m = grid, grid.n_points
            # a tuple, which unpacks at each record for less than the array
            self.block = tuple(self.flat[:, : self.rows * self.m].reshape(3, self.rows, self.m))
        row = len(self.times)
        ey, y, d2y = self.block
        ey[row], y[row], d2y[row] = level.ey, level.y, level.d2y
        self.times.append(t)
        self.iters.append(iters)

    def _flush(self) -> None:
        count = len(self.times)
        if not count:
            return
        ey, y, d2y = (rows[:count] for rows in self.block)
        sums = _sums(self.grid, ey, y, d2y)
        if self.m != self.n:
            ey = _resample(_rfft(y), self.m, self.n)
            np.exp(ey, out=ey)
        columns = (*sums, np.minimum.reduce(ey, axis=1))
        # positional, in field order: t, mass, entropy_rel, lyap, production,
        # min_u, newton_iters
        self.records += map(
            TimeSeriesRecord, self.times, *(c.tolist() for c in columns), self.iters
        )
        self.times, self.iters = [], []

    def result(self) -> tuple[TimeSeriesRecord, ...]:
        self._flush()
        return tuple(self.records)


# A line-search trial may overflow e^y and fill its residual with NaN;
# such a trial is rejected (nan < rnorm is False), so its floating-point
# warnings are noise.  One context per call, not one per trial.
@np.errstate(over="ignore", invalid="ignore")
def solve(
    u0: Field,
    t_final: float,
    config: SolverConfig,
    record_every: int = 1,
) -> Trajectory:
    """Run the scheme from density ``u0`` to time ``t_final``.

    The number of steps is round(t_final / tau); t_final must sit on the
    step lattice to within 1e-8 t_final.  Initial values at or below
    the clamp 1e-12 * max(u0) are lifted to it before taking logs; the
    count of lifted nodes is reported on the trajectory.  Individual steps
    that fail to converge are retried with halved tau (recursively, at
    most five halvings) before giving up.
    """
    n_steps = _lattice_steps(t_final, config.tau, "tau")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")

    grid = u0.grid
    u0_vals = u0.values
    if u0_vals.max() <= POSITIVITY_FLOOR:
        raise NonPositiveDensity("initial density is nonpositive everywhere")
    clamp = 1e-12 * u0_vals.max()
    clamped_nodes = int(np.count_nonzero(u0_vals < clamp))
    y = np.log(np.maximum(u0_vals, clamp))
    n = grid.n_points
    # the grid the steps run on; only spectral runs leave the requested one
    coarse = grid
    matrices = _Matrices(grid.length, config.backend)
    level = _evaluate(y, np.exp(y), coarse, config, matrices)
    records = _Records(n, 1 + -(-n_steps // record_every))
    records.add(0.0, level, 0, coarse)

    workspace = _NewtonWorkspace(matrices)
    # the two accepted levels before ``level``; None while no clean step
    # links them to it, and then level.r is F(y_k; y_k)
    old = older = None
    for k in range(1, n_steps + 1):
        # a late halving costs time, not accuracy, so the rule is read
        # before steps 2^j: log2 of the steps in all, and a grid the rule
        # would halve from step k on is halved by step 2k.  A missed
        # doubling costs accuracy, so between those steps a coarse grid
        # reads the rule whenever the guard cannot clear the level
        if config.backend.order == 0 and (
            k & (k - 1) == 0 or coarse.n_points < n and not matrices.cleared(level, config)
        ):
            size = _resolving_size(level, coarse.n_points, n, grid.length, config)
            if size != coarse.n_points:
                # a switch is handled as a halving is: F(y_k; y_k) on the new
                # grid, no older levels and a fresh factor
                y = _resample(_rfft(level.y), coarse.n_points, size)
                coarse = PeriodicGrid(grid.length, size)
                level = _evaluate(y, np.exp(y), coarse, config, matrices)
                older = old = None
                workspace.invalidate()
        start = level
        if old is not None:
            # F(y_k; y_k) from the accepted F(y_k; y_{k-1}), FFT-free
            start = _Level(
                level.y, level.ey, level.r - (level.ey - old.ey) / config.tau,
                level.d2y, level.spectrum, level.y_hat,
            )
            if older is None:
                y_pred = 2.0 * level.y - old.y
            else:
                y_pred = 3.0 * (level.y - old.y) + older.y
            pred = _evaluate(y_pred, level.ey, coarse, config, matrices)
            if pred.rnorm < start.rnorm:
                start = pred
        new, iters, clean = _advance(
            level, start, coarse, config, workspace, depth=0, step_index=k
        )
        if clean:
            older, old, level = old, level, new
        else:
            # a halving drops the older levels; the next step
            # starts at F(y_k; y_k)
            older = old = None
            level = _evaluate(new.y, new.ey, coarse, config, matrices)
        if k % record_every == 0 or k == n_steps:
            records.add(k * config.tau, level, iters, coarse)

    final_y = level.y if coarse.n_points == n else _resample(_rfft(level.y), coarse.n_points, n)
    return Trajectory(
        grid=grid,
        config=config,
        records=records.result(),
        final_y=Field(grid, final_y, FieldKind.LOG_DENSITY),
        clamped_nodes=clamped_nodes,
    )


def lyapunov_check(trajectory: Trajectory) -> bool:
    """True when the records are in time order and both Lyapunov
    functionals decay, allowing 10 * newton_tol slack per time step."""
    records = trajectory.records
    slack_per_step = 10.0 * trajectory.config.newton_tol
    tau = trajectory.config.tau
    for prev, cur in zip(records, records[1:]):
        if cur.t <= prev.t:
            return False
        n_sub = max(1, int(round((cur.t - prev.t) / tau)))
        slack = slack_per_step * n_sub
        if cur.entropy_rel > prev.entropy_rel + slack:
            return False
        if cur.lyap > prev.lyap + slack:
            return False
    return True
