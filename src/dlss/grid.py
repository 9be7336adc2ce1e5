"""Uniform periodic grid on [0, L) and the discrete calculus built on it.

Derivatives come in two interchangeable flavours: Fourier collocation
(exact for every resolvable trigonometric polynomial) and periodic central
finite differences of consistency order 2 or 4, applied as shifted slices
of one periodically padded copy of the values.  Quadrature is the
rectangle rule, which on a uniform periodic grid integrates trigonometric
polynomials up to the aliasing limit exactly and is therefore spectrally
accurate for smooth periodic integrands.

Both derivative backends are linear circulant operators; ``diff_matrix``
returns any of them as an O(N) read-only strided view of the dense
matrix, which a solve copies once per grid size into the contiguous
matrix that its dense Jacobians and its residuals on small spectral
grids multiply by, and banded Jacobians are filled from the same taps
and shifted slices.  All of it is numpy, so ``import dlss`` loads no
scipy.

Every library FFT goes through one private pair, ``_rfft`` and
``_irfft``: real transforms along the last axis that call numpy's
pocketfft kernels directly, with the normalisation factors ``numpy.fft``
passes on numpy >= 2.0, and write into a given or freshly allocated
output.  The results are the same bits as ``numpy.fft.rfft`` / ``irfft``;
what the pair skips is the Python wrapper (dtype resolution, axis
normalisation, output allocation), which costs more than an N = 256
transform.  A spectral Newton residual on more than 128 points takes
four transforms; on fewer, two products with the D2 matrix cost less
(``solver._PRODUCT_POINTS``).  A derivative differentiates its spectrum
in place or into a given buffer, so a four-transform residual keeps the
rfft of y and both its second derivatives fill one second buffer.  Even
orders scale the spectrum's float view by a real symbol, each
(i k)^order twice; that equals the complex product up to the sign of a
zero.

The admissibility rules that every grid, density and time integration
share live here too: the size rule, checked only by ``PeriodicGrid``;
``_check_positive_finite``, the one rule for a scalar that must be
positive and finite (a grid's or a decay fit's circumference, a time step,
a horizon and the Newton tolerance); ``_check_positive`` (the positivity
floor) and ``_lattice_steps`` (a horizon on the uniform time-step lattice).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# numpy.fft's private kernel module, because its Python wrapper costs more
# than an N = 256 transform (see _rfft, _irfft and the module docstring)
from numpy.fft import _pocketfft_umath as _pocketfft
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonPositiveDensity, ValidationError

__all__ = [
    "POSITIVITY_FLOOR",
    "PeriodicGrid",
    "FieldKind",
    "Field",
    "DiffBackend",
    "SPECTRAL",
    "FD2",
    "FD4",
    "make_grid",
    "derivative",
    "diff_matrix",
]

# Densities at or below this are treated as vacuum; log() is meaningless there.
POSITIVITY_FLOOR = 1e-300

# Values per block of the two loops that work on blocks of states, the
# heat flow of inequalities.py and the records of a solve; the size never
# changes a bit of either.  The heat flow holds _BLOCK_VALUES // M states
# of an M-point grid, 64 at M = 256 and 512 at M = 32, and allocates its
# work arrays once, about 1 MB at N = 256.  On N = 256, T = 10 flows
# (heatflow_verify at p = 1 and remainder_R at p = 1.5, four seeded data),
# 2**13 takes 8-9 % more CPU than 2**14, and 2**15 the same to within 1 %
# for twice the work arrays (medians of two runs of 30 interleaved rounds,
# 2-core Xeon, with no subnormal exp left in the flows).
# A solve on n requested points buffers _BLOCK_VALUES // n records, 64 at
# n = 256 and 8 at n = 2048, or as many as the run makes if fewer.  Against
# one reduction per record, that raised the median peak RSS of a benchmark
# worker by 0.42 MB on decay256 (N = 256, 1 001 records a solve) and by
# 0.28 MB on banded2048 (N = 2048, 6 records a solve).
_BLOCK_VALUES = 2 ** 14


def _check_positive(values: np.ndarray) -> np.ndarray:
    """``values`` unchanged if all lie above the positivity floor, else
    ``NonPositiveDensity``."""
    low = values.min()
    if low <= POSITIVITY_FLOOR:
        raise NonPositiveDensity(f"density minimum {low:.3e} is at or below the floor")
    return values


def _check_finite(values: np.ndarray, what: str = "field values") -> np.ndarray:
    """``values`` unchanged if all are finite, else ``ValueError`` that
    names them ``what``."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")
    return values


def _check_positive_finite(name: str, value: float) -> None:
    """``ValidationError`` naming ``name`` unless ``value`` is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(name, f"must be positive and finite, got {value!r}")


def _lattice_steps(t_final: float, step: float, step_name: str) -> int:
    """Number of steps of size ``step`` that end exactly at ``t_final``.

    ``step`` and ``t_final`` must be positive and finite, else
    ``ValidationError`` naming ``step_name`` or ``t_final``, and
    ``t_final`` an integer multiple of ``step`` to within 1e-8 t_final,
    at every scale alike, else ``ValidationError`` naming ``t_final``.
    """
    _check_positive_finite(step_name, step)
    _check_positive_finite("t_final", t_final)
    n_steps = int(round(t_final / step))
    if n_steps < 1 or abs(n_steps * step - t_final) > 1e-8 * t_final:
        raise ValidationError(
            "t_final", f"{t_final} is not an integer multiple of {step_name} = {step}"
        )
    return n_steps


@dataclass(frozen=True)
class PeriodicGrid:
    """Discretised circle of circumference ``length`` with ``n_points`` nodes.

    Nodes are x_j = j * spacing, j = 0..n_points-1; the right endpoint is
    identified with the left one and carries no node of its own.  Here,
    the one place it is checked, every grid (coarse ones included) meets
    the size rule: ``length`` positive and finite, ``n_points`` even (an
    unambiguous Nyquist mode) and at least 8 (room for fourth-order
    operators), else ``ValidationError`` naming the argument.  Accepted
    values are stored as a float and an int.
    """

    length: float
    n_points: int

    def __post_init__(self):
        _check_positive_finite("length", self.length)
        if self.n_points % 2 != 0:
            raise ValidationError("n_points", f"must be even, got odd value {self.n_points}")
        if self.n_points < 8:
            raise ValidationError("n_points", f"must be at least 8, got {self.n_points}")
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "n_points", int(self.n_points))

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        x = np.arange(self.n_points) * (self.length / self.n_points)
        x.setflags(write=False)
        return x


def make_grid(length: float, n_points: int) -> PeriodicGrid:
    """The ``PeriodicGrid``, which validates and coerces both arguments."""
    return PeriodicGrid(length, n_points)


def _halvings(n: int) -> tuple[int, ...]:
    """(n, n/2, ...) while the next size is even and at least 8: the grids
    that both the solve's and the heat flow's grid rules choose from."""
    return (n, *_halvings(n // 2)) if n % 4 == 0 and n >= 16 else (n,)


class FieldKind(enum.Enum):
    DENSITY = "density"
    LOG_DENSITY = "log_density"
    GENERIC = "generic"


@dataclass(frozen=True)
class Field:
    """Nodal values of a function on a periodic grid.

    ``DENSITY`` fields must be strictly positive (above the floor);
    ``LOG_DENSITY`` and ``GENERIC`` fields are unconstrained apart from
    finiteness.  Values are stored as a read-only float64 array so fields
    can be shared without defensive copies.
    """

    grid: PeriodicGrid
    values: np.ndarray
    kind: FieldKind = FieldKind.GENERIC

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with "
                f"{self.grid.n_points} nodes"
            )
        _check_finite(vals)
        if self.kind is FieldKind.DENSITY:
            _check_positive(vals)
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


class DiffBackend(enum.Enum):
    """Choice of discrete differentiation rule; each member's name is its
    command-line and run-file name, and its value its consistency
    ``order``, 0 for spectral (exact).

    ``spectral`` differentiates in Fourier space; odd derivatives zero the
    Nyquist mode (its sawtooth has no well-defined odd derivative on the
    collocation grid).  ``fd2`` and ``fd4`` compose the classical periodic
    central stencils of that consistency order; higher derivatives are
    built by stencil convolution, so D^(4) = D^(2) o D^(2) holds exactly,
    matching the operator products used by the time stepper.
    """

    spectral = 0
    fd2 = 2
    fd4 = 4

    def __init__(self, order: int):
        # a plain attribute, read by every residual evaluation
        self.order = order

    @classmethod
    def from_name(cls, name: str) -> "DiffBackend":
        try:
            return cls[name.lower()]
        except KeyError:
            raise ValueError(
                f"unknown backend {name!r}; expected one of {sorted(cls.__members__)}"
            ) from None


SPECTRAL, FD2, FD4 = DiffBackend.spectral, DiffBackend.fd2, DiffBackend.fd4


@lru_cache(maxsize=None)
def _multiplier(n: int, order: int, length: float) -> np.ndarray:
    """What ``_spectrum_derivative`` multiplies an rfft spectrum by for the
    ``order``-th derivative on an n-point grid of circumference
    ``length``, read-only: the complex symbol (i k)^order of an odd order,
    with the Nyquist mode zeroed; the real (i k)^order of an even one, each
    value twice, to scale the spectrum's float view, which equals the
    complex product up to the sign of a zero."""
    wave = (2.0 * np.pi / length) * np.arange(n // 2 + 1)
    symbol = (1j * wave) ** order
    if order % 2 == 1:
        symbol[-1] = 0.0
    else:
        symbol = np.repeat(symbol.real, 2)
    symbol.setflags(write=False)
    return symbol


def _rfft(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``numpy.fft.rfft(values, axis=-1)``, bit for bit, written into ``out``
    (allocated when None); the last axis has a grid's even length."""
    if out is None:
        out = np.empty(values.shape[:-1] + (values.shape[-1] // 2 + 1,), dtype=complex)
    return _pocketfft.rfft_n_even(values, 1.0, out=out)


def _irfft(hat: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """``numpy.fft.irfft(hat, n=n, axis=-1)``, bit for bit, written into ``out``
    (allocated when None)."""
    if out is None:
        out = np.empty(hat.shape[:-1] + (n,))
    return _pocketfft.irfft(hat, 1.0 / n, out=out)


def _spectrum_derivative(
    fhat: np.ndarray, multiplier: np.ndarray, n: int, out: np.ndarray | None = None,
) -> np.ndarray:
    """The derivative, on n points, of the grid values whose rfft along the
    last axis is ``fhat``, given its ``_multiplier``.  The differentiated
    spectrum is written into ``out``, a complex array of fhat's shape, or
    into ``fhat`` itself when None; a caller that needs ``fhat`` again
    passes ``out`` or a copy."""
    # a real multiplier scales the float views, a complex one the spectra
    flat = fhat.view(multiplier.dtype)
    if out is None:
        flat *= multiplier
        out = fhat
    else:
        np.multiply(flat, multiplier, out.view(multiplier.dtype))
    return _irfft(out, n)


# Central periodic stencils on the unit-spacing grid, as {offset: weight}.
_BASE_TAPS = {
    (1, 2): {-1: -0.5, 1: 0.5},
    (2, 2): {-1: 1.0, 0: -2.0, 1: 1.0},
    (1, 4): {-2: 1.0 / 12.0, -1: -8.0 / 12.0, 1: 8.0 / 12.0, 2: -1.0 / 12.0},
    (2, 4): {-2: -1.0 / 12.0, -1: 16.0 / 12.0, 0: -30.0 / 12.0, 1: 16.0 / 12.0, 2: -1.0 / 12.0},
}


def _convolve_taps(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0.0) + va * vb
    return out


@lru_cache(maxsize=None)
def _fd_taps(order: int, fd_order: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Unit-spacing taps for the ``order``-th derivative at consistency
    ``fd_order``, built by composing second- and first-derivative stencils."""
    taps = {0: 1.0}
    for _ in range(order // 2):
        taps = _convolve_taps(taps, _BASE_TAPS[(2, fd_order)])
    if order % 2 == 1:
        taps = _convolve_taps(taps, _BASE_TAPS[(1, fd_order)])
    offsets = tuple(sorted(taps))
    return offsets, tuple(taps[o] for o in offsets)


def _shifted(values: np.ndarray, offsets: tuple[int, ...]) -> list[np.ndarray]:
    """f_{j+off} over all nodes j for each of the symmetric ``offsets``, as
    slices of one periodically padded copy of ``values``."""
    n, reach = values.shape[0], -offsets[0]
    padded = values.take(np.arange(-reach, n + reach), mode="wrap")
    return [padded[off + reach : off + reach + n] for off in offsets]


def _fd_derivative(values: np.ndarray, order: int, spacing: float, fd_order: int) -> np.ndarray:
    offsets, weights = _fd_taps(order, fd_order)
    out = np.zeros_like(values)
    # (D f)_j includes w * f_{j+off}
    for w, shifted in zip(weights, _shifted(values, offsets)):
        out += w * shifted
    out *= spacing ** (-order)
    return out


def _derivative(grid: PeriodicGrid, values: np.ndarray, order: int, backend: DiffBackend) -> np.ndarray:
    """Array core of ``derivative`` for order >= 1; no validation."""
    if backend.order == 0:
        n = grid.n_points
        return _spectrum_derivative(_rfft(values), _multiplier(n, order, grid.length), n)
    return _fd_derivative(values, order, grid.spacing, backend.order)


def derivative(f: Field, order: int, backend: DiffBackend = SPECTRAL) -> Field:
    """``order``-th periodic derivative of ``f`` as a GENERIC field."""
    if order < 0:
        raise ValueError(f"derivative order must be nonnegative, got {order}")
    if order == 0:
        return Field(f.grid, f.values, FieldKind.GENERIC)
    return Field(f.grid, _derivative(f.grid, f.values, order, backend), FieldKind.GENERIC)


def diff_matrix(grid: PeriodicGrid, order: int, backend: DiffBackend = SPECTRAL) -> np.ndarray:
    """Circulant matrix of the chosen derivative; read-only.

    An N x N strided view over one (2N - 1)-vector, so it holds O(N)
    memory.  Its rows run at a negative stride, on which numpy's matmul
    leaves BLAS: take ``np.array(...)`` before matrix products.

    Agrees with ``derivative`` to rounding for every field, which keeps
    Jacobians consistent with the residuals they linearise.
    """
    delta = np.zeros(grid.n_points)
    delta[0] = 1.0
    col = _derivative(grid, delta, order, backend)
    # mat[i, j] = col[(i - j) mod n] = weight tying f_j to (Df)_i; the
    # windows over one (2n - 1)-vector are read-only and share its memory
    return sliding_window_view(np.tile(col[::-1], 2)[:-1], grid.n_points)[::-1]


def _integrate(grid: PeriodicGrid, values: np.ndarray) -> float:
    """Rectangle rule: spacing times the nodal sum."""
    return float(grid.spacing * values.sum())
