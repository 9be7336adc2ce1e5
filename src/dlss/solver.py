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

``step`` and ``solve`` run one damped chord loop that reuses an LU across
iterations (``solve`` also across steps), refreshing it when an iteration
that is still above the tolerance contracts too little; the iteration
that meets the tolerance may land on the residual floor, so its ratio is
not judged.  A step gets at most 25 Newton iterations.  ``solve`` starts
each step at the quadratic extrapolation 3 y_k - 3 y_{k-1} + y_{k-2}
through the last three levels, or at the secant 2 y_k - y_{k-1} while
only two are known, if its residual is below that of y_k, which is free:
F(y_k; y_k) is the previous step's accepted residual minus
(e^{y_k} - e^{y_{k-1}}) / tau.  A retry or a tau halving drops the older
levels, so the step after it starts at y_k, as the first step, the retry
and halving paths and ``step`` do.  Records reuse the accepted D2 y for
the production.  Every accepted iterate passes the same residual
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import NoConvergence, NonPositiveDensity, SingularJacobian, ValidationError
from .functionals import entropy_relative, lyapunov_u_minus_logu
from .grid import (
    POSITIVITY_FLOOR,
    DiffBackend,
    Field,
    FieldKind,
    PeriodicGrid,
    SPECTRAL,
    _derivative,
    _integrate,
    _lattice_steps,
    _sparse_diff2,
    diff_matrix,
    integrate,
)
from .linalg import CyclicBandedLU, DenseLU

__all__ = [
    "LinearSolver",
    "SolverConfig",
    "TimeSeriesRecord",
    "Trajectory",
    "residual",
    "jacobian",
    "step",
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
    |u''| because high-mode rounding debris passes through two second
    derivatives: about 1e-11 at N = 64 and 3e-9 at N = 256 on the unit
    circle scale.  Tolerances below that floor cannot converge; the
    default 1e-8 is safe up to N = 256, larger grids need a looser value.
    Line-search backtracks always halve the Newton step.
    A rejected value raises ``ValidationError`` naming the field.
    """

    tau: float
    newton_tol: float = 1e-8
    backend: DiffBackend = SPECTRAL
    linear_solver: LinearSolver = LinearSolver.DENSE

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValidationError("tau", f"must be positive, got {self.tau}")
        if not self.newton_tol > 0.0:
            raise ValidationError("newton_tol", f"must be positive, got {self.newton_tol}")
        if self.linear_solver is LinearSolver.BANDED and self.backend.order == 0:
            raise ValidationError(
                "linear_solver",
                "banded needs a finite-difference backend; "
                "the spectral second derivative is dense",
            )


@dataclass(frozen=True)
class TimeSeriesRecord:
    """Monitored quantities at one accepted time level."""

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


def residual(y: Field, y_prev: Field, config: SolverConfig) -> Field:
    """Backward Euler residual F(y) given the previous log-density."""
    if y.grid != y_prev.grid:
        raise ValueError("fields live on different grids")
    r, _ = _residual_values(y.values, np.exp(y_prev.values), y.grid, config)
    return Field(y.grid, r, FieldKind.GENERIC)


def _residual_values(
    y: Array, eu_prev: Array, grid: PeriodicGrid, config: SolverConfig
) -> tuple[Array, Array]:
    """(F(y), D2 y); the second derivative is returned for reuse."""
    ey = np.exp(y)
    d2y = _derivative(grid, y, 2, config.backend)
    flux = _derivative(grid, ey * d2y, 2, config.backend)
    return (ey - eu_prev) / config.tau + flux, d2y


def jacobian(y: Field, config: SolverConfig):
    """Exact Jacobian of the residual at y, in the form the configured
    linear solver factorises: a dense ndarray for ``LinearSolver.DENSE``,
    a scipy.sparse CSC array for ``LinearSolver.BANDED``.  The banded form
    starts from the sparse stencil of D2, so no N x N array is formed."""
    if config.linear_solver is LinearSolver.BANDED:
        d2 = _sparse_diff2(y.grid, config.backend)
    else:
        d2 = diff_matrix(y.grid, 2, config.backend)
    ey = np.exp(y.values)
    d2y = d2 @ y.values
    # D2 diag(b) is column scaling; avoids a second matrix product.
    jac = d2 @ (ey[:, None] * d2)
    jac += d2 * (ey * d2y)[None, :]
    return _add_diagonal(jac, ey / config.tau)


def _add_diagonal(mat, values):
    """mat + diag(values); a dense ndarray is updated in place."""
    if isinstance(mat, np.ndarray):
        mat[np.diag_indices_from(mat)] += values
    else:
        mat.setdiag(mat.diagonal() + values)
    return mat


def _factorise(jac, config: SolverConfig):
    if config.linear_solver is LinearSolver.BANDED:
        # two stacked D2 stencils of halfwidth order/2
        return CyclicBandedLU(jac, config.backend.order)
    return DenseLU(jac)


class _NewtonWorkspace:
    """Shared LU and bookkeeping for chord Newton across steps."""

    __slots__ = ("factor", "stale")

    def __init__(self):
        self.factor = None
        self.stale = False

    def refresh(self, y: Array, grid: PeriodicGrid, config: SolverConfig) -> None:
        self.factor = _factorise(jacobian(Field(grid, y, FieldKind.LOG_DENSITY), config), config)
        self.stale = False

    def invalidate(self) -> None:
        self.factor = None


def _line_search(
    y: Array,
    delta: Array,
    rnorm: float,
    eu_prev: Array,
    grid: PeriodicGrid,
    config: SolverConfig,
    iterations: int,
) -> tuple[Array, Array, Array, float]:
    """Damped backtracking along ``delta``; returns (y, F(y), D2 y,
    |F(y)|_inf) at the first step length that lowers the residual or meets
    the tolerance."""
    lam = 1.0
    for _ in range(_MAX_BACKTRACKS + 1):
        y_trial = y + lam * delta
        r_trial, d2y_trial = _residual_values(y_trial, eu_prev, grid, config)
        rnorm_trial = float(np.abs(r_trial).max())
        if rnorm_trial < rnorm or rnorm_trial <= config.newton_tol:
            return y_trial, r_trial, d2y_trial, rnorm_trial
        lam *= _DAMPING
    raise NoConvergence(
        f"line search failed to reduce the residual after {_MAX_BACKTRACKS} "
        f"reductions (residual {rnorm:.3e})",
        iterations=iterations,
        residual=rnorm,
    )


def _newton_loop(
    y: Array, r: Array, d2y: Array, eu_prev: Array,
    grid: PeriodicGrid, config: SolverConfig, workspace: _NewtonWorkspace,
) -> tuple[Array, Array, Array, int]:
    """Damped chord Newton on one step from y, given r = F(y) and D2 y;
    returns the accepted (y, F(y), D2 y, iters).  The workspace factor is
    kept until either the line search fails or an iteration that stays
    above the tolerance has a contraction factor |F_new| / |F_old| above
    _REFRESH_CONTRACTION."""
    rnorm = float(np.abs(r).max())
    iters = 0
    while rnorm > config.newton_tol:
        if iters >= _MAX_NEWTON:
            raise NoConvergence(
                f"Newton did not reach {config.newton_tol:.1e} in {_MAX_NEWTON} "
                f"iterations (residual {rnorm:.3e})",
                iterations=iters,
                residual=rnorm,
            )
        if workspace.factor is None:
            workspace.refresh(y, grid, config)
        delta = workspace.factor.solve(-r)
        try:
            y_trial, r_trial, d2y_trial, rnorm_trial = _line_search(
                y, delta, rnorm, eu_prev, grid, config, iters
            )
        except NoConvergence:
            if workspace.stale:
                # the stale factor pointed uphill; retry iteration with a fresh one
                workspace.invalidate()
                continue
            raise

        contraction = rnorm_trial / rnorm if rnorm > 0.0 else 0.0
        y, r, d2y, rnorm = y_trial, r_trial, d2y_trial, rnorm_trial
        iters += 1
        # a trial that meets the tolerance ends the loop; its ratio may be
        # residual-floor noise and says nothing about the factor
        if workspace.stale and contraction > _REFRESH_CONTRACTION and rnorm > config.newton_tol:
            workspace.invalidate()
        else:
            workspace.stale = True
    return y, r, d2y, iters


def step(y_prev: Field, config: SolverConfig) -> tuple[Field, int]:
    """Advance one time level; returns the converged iterate and the number
    of Newton iterations it took."""
    y, grid = y_prev.values, y_prev.grid
    eu = np.exp(y)
    y_new, _, _, iters = _newton_loop(
        y, *_residual_values(y, eu, grid, config), eu, grid, config, _NewtonWorkspace()
    )
    return Field(grid, y_new, FieldKind.LOG_DENSITY), iters


def _advance(
    y: Array, eu: Array, start: tuple[Array, Array, Array], grid: PeriodicGrid,
    config: SolverConfig, workspace: _NewtonWorkspace, depth: int, step_index: int,
) -> tuple[Array, Array, Array, int, bool]:
    """One macro step of size config.tau from level y (eu = e^y), Newton
    entering at ``start`` = (y0, F(y0), D2 y0), recursively halving tau on
    failure.  Returns the accepted (y, F(y), D2 y, iters, clean); ``clean``
    is False when the step needed a retry or a halving."""
    entered_with_factor = workspace.factor is not None
    try:
        try:
            return (*_newton_loop(*start, eu, grid, config, workspace), True)
        except (NoConvergence, SingularJacobian):
            if not entered_with_factor:
                raise
            # the factor recycled from the previous step may just be too
            # stale; one clean retry from y before touching tau
            workspace.invalidate()
            plain = (y, *_residual_values(y, eu, grid, config))
            return (*_newton_loop(*plain, eu, grid, config, workspace), False)
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
        sub_workspace = _NewtonWorkspace()  # factor depends on tau
        total = 0
        for _ in range(2):
            eu = np.exp(y)
            start = (y, *_residual_values(y, eu, grid, half))
            y, r, d2y, iters, _ = _advance(
                y, eu, start, grid, half, sub_workspace, depth + 1, step_index
            )
            total += iters
        workspace.invalidate()
        return y, r, d2y, total, False


def solve(
    u0: Field,
    t_final: float,
    config: SolverConfig,
    record_every: int = 1,
) -> Trajectory:
    """Run the scheme from density ``u0`` to time ``t_final``.

    The number of steps is round(t_final / tau); t_final must sit on the
    step lattice to within one part in 1e-8.  Initial values at or below
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

    def record_at(t: float, iters: int, d2y: Array) -> TimeSeriesRecord:
        u = Field(grid, np.exp(y), FieldKind.DENSITY)
        mass = integrate(u)
        return TimeSeriesRecord(
            t=t,
            mass=mass,
            entropy_rel=entropy_relative(u, mass / grid.length),
            lyap=lyapunov_u_minus_logu(u),
            production=_integrate(grid, u.values * d2y * d2y),
            min_u=float(u.values.min()),
            newton_iters=iters,
        )

    records = [record_at(0.0, 0, _derivative(grid, y, 2, config.backend))]

    workspace = _NewtonWorkspace()
    # the level before y (with e^y_old) and the one before that; None
    # while no clean step links them to y
    y_old = eu_old = y_older = None
    for k in range(1, n_steps + 1):
        eu = np.exp(y)
        if y_old is None:
            start = (y, *_residual_values(y, eu, grid, config))
        else:
            # F(y; y) from the accepted residual r = F(y; y_old), FFT-free
            r_plain = r - (eu - eu_old) / config.tau
            if y_older is None:
                y_pred = 2.0 * y - y_old
            else:
                y_pred = 3.0 * (y - y_old) + y_older
            r_pred, d2y_pred = _residual_values(y_pred, eu, grid, config)
            if np.abs(r_pred).max() < np.abs(r_plain).max():
                start = (y_pred, r_pred, d2y_pred)
            else:
                start = (y, r_plain, d2y)
        y_new, r, d2y, iters, clean = _advance(
            y, eu, start, grid, config, workspace, depth=0, step_index=k
        )
        if clean:
            y_older, y_old, eu_old = y_old, y, eu
        else:
            y_older = y_old = eu_old = None
        y = y_new
        if k % record_every == 0 or k == n_steps:
            records.append(record_at(k * config.tau, iters, d2y))

    return Trajectory(
        grid=grid,
        config=config,
        records=tuple(records),
        final_y=Field(grid, y, FieldKind.LOG_DENSITY),
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
