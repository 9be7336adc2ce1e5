"""Scalar functionals of a positive density.

Entropies, the two Lyapunov integrals of the fourth-order flow, the
entropy production integral u |(log u)_xx|^2 and its exact pointwise
decomposition

    u ((log u)_xx)^2 = 4 ((sqrt u)_xx)^2 + (1/3) u_x^2 u_xx / u^2
                       - (1/4) u_x^4 / u^3          (integrated form below)

which after integrating by parts twice,

    int u_x^2 u_xx / u^2 = (2/3) int u_x^4 / u^3,

collapses to

    int u ((log u)_xx)^2 = 4 int ((sqrt u)_xx)^2 + (1/12) int u_x^4 / u^3.

All derivatives act on log u (or sqrt u) directly, never on u followed by
division, so the integrals stay finite-difference-friendly for densities
close to vacuum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    DiffBackend,
    Field,
    SPECTRAL,
    _check_positive,
    _derivative,
    _integrate,
    integrate,
)

__all__ = [
    "FunctionalReport",
    "entropy_relative",
    "entropy_absolute",
    "lyapunov_u_minus_logu",
    "entropy_production",
    "production_decomposition",
    "report",
]


def entropy_relative(u: Field, u_bar: float) -> float:
    """int u log(u / u_bar); nonnegative when u_bar is the mean of u."""
    vals = _check_positive(u.values)
    if not np.isfinite(u_bar) or u_bar <= 0.0:
        raise ValueError(f"reference density must be positive, got {u_bar!r}")
    return _integrate(u.grid, vals * (np.log(vals) - np.log(u_bar)))


def entropy_absolute(u: Field) -> float:
    """int u (log u - 1); differs from the relative entropy by an affine
    function of the (conserved) mass."""
    vals = _check_positive(u.values)
    return _integrate(u.grid, vals * (np.log(vals) - 1.0))


def lyapunov_u_minus_logu(u: Field) -> float:
    """int (u - log u); convex, bounded below, decays along the flow."""
    vals = _check_positive(u.values)
    return _integrate(u.grid, vals - np.log(vals))


def entropy_production(u: Field, backend: DiffBackend = SPECTRAL) -> float:
    """int u |(log u)_xx|^2, the dissipation rate of the relative entropy."""
    vals = _check_positive(u.values)
    d2y = _derivative(u.grid, np.log(vals), 2, backend)
    return _integrate(u.grid, vals * d2y * d2y)


def production_decomposition(u: Field, backend: DiffBackend = SPECTRAL) -> tuple[float, float]:
    """(4 int ((sqrt u)_xx)^2, (1/12) int u_x^4 / u^3).

    The two parts sum to ``entropy_production`` up to discretisation error;
    with the spectral backend on smooth densities the gap is rounding-level.
    """
    vals = _check_positive(u.values)
    d2s = _derivative(u.grid, np.sqrt(vals), 2, backend)
    sqrt_part = 4.0 * _integrate(u.grid, d2s * d2s)
    # u_x^4/u^3 = u (d/dx log u)^4; differentiating log u avoids 1/u^3
    dy = _derivative(u.grid, np.log(vals), 1, backend)
    quartic_part = _integrate(u.grid, vals * dy ** 4) / 12.0
    return sqrt_part, quartic_part


@dataclass(frozen=True)
class FunctionalReport:
    """All monitored functionals of one density snapshot."""

    entropy_rel: float
    entropy_abs: float
    lyap_u_minus_logu: float
    production: float
    production_sqrt_part: float
    production_quartic_part: float
    mass: float

    @property
    def decomposition_gap(self) -> float:
        """Relative mismatch between the production integral and its split."""
        total = self.production_sqrt_part + self.production_quartic_part
        scale = max(abs(self.production), abs(total), 1e-30)
        return abs(self.production - total) / scale


def report(u: Field, backend: DiffBackend = SPECTRAL) -> FunctionalReport:
    mass = integrate(u)
    u_bar = mass / u.grid.length
    sqrt_part, quartic_part = production_decomposition(u, backend)
    return FunctionalReport(
        entropy_rel=entropy_relative(u, u_bar),
        entropy_abs=entropy_absolute(u),
        lyap_u_minus_logu=lyapunov_u_minus_logu(u),
        production=entropy_production(u, backend),
        production_sqrt_part=sqrt_part,
        production_quartic_part=quartic_part,
        mass=mass,
    )
