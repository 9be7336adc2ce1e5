"""The monitored functionals of a positive density u = e^y.

``_sums`` is the one formula for the mass, the entropy int u log(u/u_bar)
against the mean u_bar = mass/L, the Lyapunov functional int (u - log u)
and the entropy production int u ((log u)_xx)^2; the solver's records and
``report`` both reduce e^y, y and D2 y through it.  ``report`` adds the
absolute entropy int u (log u - 1) and the exact split of the production,

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
    PeriodicGrid,
    SPECTRAL,
    _check_positive,
    _derivative,
    _integrate,
)

__all__ = ["FunctionalReport", "report"]


def _sums(grid: PeriodicGrid, ey: np.ndarray, y: np.ndarray, d2y: np.ndarray) -> tuple:
    """(mass, entropy_rel, lyap, production) of each row of e^y, y and
    D2 y on ``grid``, reduced along the last axis; the entropy is taken
    against each row's own mean."""
    h = grid.spacing
    mass = h * np.add.reduce(ey, axis=-1, keepdims=True)
    entropy_rel = h * np.add.reduce(ey * (y - np.log(mass / grid.length)), axis=-1)
    lyap = h * np.add.reduce(ey - y, axis=-1)
    production = h * np.add.reduce(ey * d2y * d2y, axis=-1)
    return mass[..., 0], entropy_rel, lyap, production


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
    """The functionals of ``u``, derivatives by ``backend``; ``entropy_rel``
    is int u log(u/u_bar) against u's own mean u_bar = mass/L, and the two
    production parts sum to ``production`` up to discretisation error."""
    grid, vals = u.grid, _check_positive(u.values)
    y = np.log(vals)
    mass, entropy_rel, lyap, production = _sums(
        grid, vals, y, _derivative(grid, y, 2, backend)
    )
    d2s = _derivative(grid, np.sqrt(vals), 2, backend)
    # u_x^4/u^3 = u (d/dx log u)^4; differentiating log u avoids 1/u^3
    dy = _derivative(grid, y, 1, backend)
    return FunctionalReport(
        entropy_rel=float(entropy_rel),
        entropy_abs=_integrate(grid, vals * (y - 1.0)),
        lyap_u_minus_logu=float(lyap),
        production=float(production),
        production_sqrt_part=4.0 * _integrate(grid, d2s * d2s),
        production_quartic_part=_integrate(grid, vals * dy ** 4) / 12.0,
        mass=float(mass),
    )
