"""Deterministic, platform-independent randomness for test fields.

The generator is SplitMix64: a 64-bit counter advanced by the golden-ratio
increment 0x9E3779B97F4A7C15, finalised by two xor-shift-multiply rounds
(shifts 30/27/31, multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
Uniform doubles take the top 53 bits, so every platform with IEEE doubles
reproduces the same stream bit for bit.

Random smooth fields are truncated Fourier series whose coefficients
depend only on (seed, n_modes).  Evaluating the same series on a finer
grid therefore samples the *same* continuum function, which is what
refinement studies need.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import Field, FieldKind, PeriodicGrid

__all__ = ["SplitMix64", "random_smooth_field", "random_log_density"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
# Weight ratio between consecutive Fourier modes of a random smooth field.
_DECAY = 0.8


class SplitMix64:
    """Minimal SplitMix64 stream over Python ints (overflow-free)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MULT1) & _MASK
        z = ((z ^ (z >> 27)) * _MULT2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(n)])


def _fourier_coefficients(seed: int, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    rng = SplitMix64(seed)
    amp = _DECAY ** np.arange(1, n_modes + 1)
    a = amp * (2.0 * rng.uniforms(n_modes) - 1.0)
    b = amp * (2.0 * rng.uniforms(n_modes) - 1.0)
    return a, b


@lru_cache(maxsize=None)
def _mode_table(length: float, n_points: int, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos(m theta) and sin(m theta), one row per mode m = 1 ..
    n_modes, at the nodes theta of the grid in radians: every seed of one
    grid and mode count shares them."""
    theta = (2.0 * np.pi / length) * (np.arange(n_points) * (length / n_points))
    phases = np.outer(np.arange(1, n_modes + 1), theta)
    table = np.cos(phases), np.sin(phases)
    for part in table:
        part.setflags(write=False)
    return table


def random_smooth_field(
    grid: PeriodicGrid,
    n_modes: int,
    seed: int,
    amplitude: float = 0.8,
    mean_zero: bool = False,
) -> Field:
    """Random real trigonometric polynomial, sup-norm scaled to ``amplitude``.

    Coefficients of mode m carry weight 0.8**m, so the field is
    analytic-in-practice and its discrete derivatives converge fast.  The
    draw is a pure function of (seed, n_modes, amplitude, mean_zero).
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be positive, got {n_modes}")
    a, b = _fourier_coefficients(seed, n_modes)
    cos, sin = _mode_table(grid.length, grid.n_points, n_modes)
    vals = a @ cos + b @ sin
    sup = np.abs(vals).max()
    if sup > 0.0:
        vals *= amplitude / sup
    if mean_zero:
        vals -= vals.mean()
    return Field(grid, vals, FieldKind.GENERIC)


def random_log_density(
    grid: PeriodicGrid,
    n_modes: int,
    seed: int,
    amplitude: float = 0.8,
) -> Field:
    """Strictly positive random density exp(g) with g a random smooth field."""
    g = random_smooth_field(grid, n_modes, seed, amplitude=amplitude)
    return Field(grid, np.exp(g.values), FieldKind.DENSITY)
