"""Run configuration files, time-series CSV output, decay-rate fitting
and the randomised identity test suite.

Config files are flat ``key = value`` lines.  ``#`` starts a comment,
blank lines and ``[section]`` headers are cosmetic, every key must be
known and appear at most once.  A run file describes one ``dlss solve``
run: ``command`` must be ``solve``, and ``L``, ``N``, ``T`` and ``tau``
are required.  Structural problems raise ``ParseError`` with the
offending line number; admissibility problems raise ``ValidationError``
with the offending key.  The grid and scheme keys are
checked by the library objects they build (``make_grid``, ``SolverConfig``,
``DiffBackend.from_name``, ``LinearSolver``), the cosine ``u0_*`` keys by
``cosine_density``, ``u0_value`` and the ``u0_path`` data by ``Field``, and
omitted scheme keys take the ``SolverConfig`` defaults.  The time-series
CSV has one column per ``TimeSeriesRecord`` field.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .errors import (
    InsufficientData,
    NonPositiveDensity,
    NonPositiveEntropy,
    ParseError,
    ValidationError,
)
from .grid import (
    SPECTRAL,
    DiffBackend,
    Field,
    FieldKind,
    PeriodicGrid,
    _derivative,
    _integrate,
    make_grid,
)
from .rng import SplitMix64, random_log_density
from .solver import LinearSolver, SolverConfig, TimeSeriesRecord, Trajectory
from . import functionals

__all__ = [
    "RunConfig",
    "cosine_density",
    "DecayReport",
    "parse_config",
    "emit_timeseries",
    "read_timeseries",
    "fit_decay",
    "default_fit_window",
    "identity_suite",
    "write_atomic",
    "TIMESERIES_HEADER",
]

# One CSV column per TimeSeriesRecord field, in declaration order, with its type.
_COLUMNS = tuple(
    (f.name, get_type_hints(TimeSeriesRecord)[f.name]) for f in fields(TimeSeriesRecord)
)
TIMESERIES_HEADER = ",".join(name for name, _ in _COLUMNS)

_U0_KINDS = ("constant", "cosine", "file")


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of one run-configuration file.

    ``scheme`` holds the ``SolverConfig`` arguments other than tau that the
    file sets; the rest keep the ``SolverConfig`` defaults.
    """

    length: float
    n_points: int
    t_final: float
    tau: float
    scheme: dict = field(default_factory=dict)
    u0_kind: str = "cosine"
    u0_value: float = 1.0
    u0_base: float = 1.0
    u0_amplitude: float = 0.1
    u0_mode: int = 1
    u0_path: str | None = None
    output: str | None = None
    record_every: int = 1

    def make_grid(self) -> PeriodicGrid:
        return make_grid(self.length, self.n_points)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tau=self.tau, **self.scheme)

    def initial_density(self, grid: PeriodicGrid) -> Field:
        if self.u0_kind == "cosine":
            return cosine_density(grid, self.u0_base, self.u0_amplitude, self.u0_mode)
        if self.u0_kind == "constant":
            key, vals = "u0_value", np.full(grid.n_points, self.u0_value)
        else:
            key = "u0_path"
            try:
                vals = np.loadtxt(self.u0_path, dtype=float).ravel()
            except OSError as exc:
                raise ValidationError("u0_path", f"cannot read {self.u0_path!r}: {exc}")
            except ValueError as exc:
                raise ValidationError("u0_path", f"malformed data: {exc}")
            if vals.size != grid.n_points:
                raise ValidationError("u0_path", f"expected {grid.n_points} values, found {vals.size}")
        try:  # Field holds the finiteness and positivity-floor rules
            return Field(grid, vals, FieldKind.DENSITY)
        except (ValueError, NonPositiveDensity) as exc:
            raise ValidationError(key, str(exc)) from None


def cosine_density(grid: PeriodicGrid, base: float, amplitude: float, mode: int) -> Field:
    """The density base + amplitude cos(2 pi mode x / L).

    It stays positive only for base > |amplitude|, and mode counts periods
    on the circle, so it must be nonnegative; a rejected value raises
    ``ValidationError`` naming the argument.
    """
    if not base > 0.0:
        raise ValidationError("base", f"must be positive, got {base}")
    if not abs(amplitude) < base:
        raise ValidationError(
            "amplitude", f"|amplitude| = {abs(amplitude)} must stay below base = {base}"
        )
    if mode < 0:
        raise ValidationError("mode", f"must be nonnegative, got {mode}")
    theta = (2.0 * math.pi * mode / grid.length) * grid.nodes
    return Field(grid, base + amplitude * np.cos(theta), FieldKind.DENSITY)


# key -> (RunConfig attribute or SolverConfig field, converter); ``command``
# only names the tool, so parse_config checks it and keeps no attribute
_SCHEMA = {
    "command": ("command", "str"),
    "L": ("length", "float"),
    "N": ("n_points", "int"),
    "T": ("t_final", "float"),
    "tau": ("tau", "float"),
    "newton_tol": ("newton_tol", "float"),
    "backend": ("backend", DiffBackend.from_name),
    "linear_solver": ("linear_solver", LinearSolver),
    "u0": ("u0_kind", "str"),
    "u0_value": ("u0_value", "float"),
    "u0_base": ("u0_base", "float"),
    "u0_amplitude": ("u0_amplitude", "float"),
    "u0_mode": ("u0_mode", "int"),
    "u0_path": ("u0_path", "str"),
    "output": ("output", "str"),
    "record_every": ("record_every", "int"),
}
# The library names what it rejects by attribute; these are the run-file keys.
_KEY_OF = {attr: key for key, (attr, _) in _SCHEMA.items()}
_KEY_OF.update(base="u0_base", amplitude="u0_amplitude", mode="u0_mode")  # cosine_density
_SCHEME_FIELDS = tuple(f.name for f in fields(SolverConfig) if f.name != "tau")


def _library_check(build) -> None:
    """Run a library constructor; the attribute it rejects is renamed to
    its run-file key."""
    try:
        build()
    except ValidationError as exc:
        raise ValidationError(_KEY_OF[exc.field], exc.reason) from None


def _convert(kind, raw: str, key: str, line_no: int):
    if callable(kind):
        try:
            return kind(raw)
        except ValueError as exc:
            raise ValidationError(key, str(exc)) from None
    if kind == "str":
        return raw
    try:
        return float(raw) if kind == "float" else int(raw)
    except ValueError:
        raise ParseError(line_no, f"invalid {kind} for {key!r}: {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration file body."""
    seen: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ParseError(line_no, f"malformed section header {line!r}")
            continue
        if "=" not in line:
            raise ParseError(line_no, f"expected 'key = value', got {line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ParseError(line_no, f"unknown key {key!r}")
        if key in seen:
            raise ParseError(line_no, f"duplicate key {key!r}")
        seen[key] = _convert(_SCHEMA[key][1], raw_value, key, line_no)

    # checked before the required keys: a file for another tool lacks T and tau
    if seen.get("command", "solve") != "solve":
        raise ValidationError("command", f"must be 'solve', got {seen['command']!r}")
    for key in ("command", "L", "N", "T", "tau"):
        if key not in seen:
            raise ValidationError(key, "required")
    del seen["command"]
    attrs = {_SCHEMA[key][0]: value for key, value in seen.items()}
    scheme = {attr: attrs.pop(attr) for attr in _SCHEME_FIELDS if attr in attrs}
    cfg = RunConfig(scheme=scheme, **attrs)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """The checks no library object makes; the library objects make the rest."""
    _library_check(cfg.make_grid)
    _library_check(cfg.solver_config)
    if cfg.u0_kind not in _U0_KINDS:
        raise ValidationError("u0", f"must be one of {_U0_KINDS}, got {cfg.u0_kind!r}")
    if cfg.u0_kind in ("constant", "cosine"):
        _library_check(lambda: cfg.initial_density(cfg.make_grid()))
    if cfg.u0_kind == "file" and not cfg.u0_path:
        raise ValidationError("u0_path", "required")


def emit_timeseries(trajectory: Trajectory, path: str) -> None:
    """Write the trajectory's records as CSV: 17 significant digits, LF
    line endings, atomic replace so readers never see a partial file."""
    lines = [TIMESERIES_HEADER]
    for r in trajectory.records:
        cells = (getattr(r, name) for name, _ in _COLUMNS)
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in cells))
    write_atomic(path, "\n".join(lines) + "\n")


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` with LF line endings through a temporary file in the
    target directory and an atomic replace, so readers never see a partial
    file and a failed write leaves nothing behind."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".dlss-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_timeseries(path: str) -> list[TimeSeriesRecord]:
    """Inverse of ``emit_timeseries``; the 17-digit format round-trips
    doubles bit for bit."""
    with open(path, "r", newline="") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != TIMESERIES_HEADER:
        raise ParseError(1, f"expected header {TIMESERIES_HEADER!r}")
    records = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise ParseError(line_no, f"expected {len(_COLUMNS)} fields, found {len(parts)}")
        try:
            records.append(
                TimeSeriesRecord(
                    **{name: kind(part) for (name, kind), part in zip(_COLUMNS, parts)}
                )
            )
        except ValueError as exc:
            raise ParseError(line_no, f"malformed record: {exc}") from None
    return records


@dataclass(frozen=True)
class DecayReport:
    """Least-squares exponential decay rate of an entropy series."""

    fitted_rate: float
    theoretical_M: float
    ratio: float
    fit_window: tuple[float, float]
    r_squared: float


def default_fit_window(series) -> tuple[float, float]:
    """Skip the initial transient (first 20% of the time span) and stop
    once the entropy falls below 1e-12 of its starting value."""
    arr = np.asarray(series, dtype=float)
    t, e = arr[:, 0], arr[:, 1]
    t_lo = t[0] + 0.2 * (t[-1] - t[0])
    floor = 1e-12 * e[0]
    above = t[e >= floor]
    t_hi = above[-1] if above.size else t[-1]
    return float(t_lo), float(t_hi)


def fit_decay(series, window: tuple[float, float], length: float) -> DecayReport:
    """Fit log E(t) = log E0 - rate * t on the samples inside ``window``
    and compare the rate against the sharp value 32 pi^4 / L^4."""
    if not (math.isfinite(length) and length > 0.0):
        raise ValidationError("length", f"must be positive and finite, got {length!r}")
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"series must be an array of (t, E) pairs, got shape {arr.shape}")
    t_lo, t_hi = window
    mask = (arr[:, 0] >= t_lo) & (arr[:, 0] <= t_hi)
    t = arr[mask, 0]
    e = arr[mask, 1]
    if t.size < 10:
        raise InsufficientData(
            f"decay fit needs at least 10 samples in the window, found {t.size}"
        )
    if e.min() <= 0.0:
        raise NonPositiveEntropy(
            f"entropy must be strictly positive inside the window, min = {e.min():.3e}"
        )
    log_e = np.log(e)
    slope, intercept = np.polyfit(t, log_e, 1)
    fitted = log_e - (slope * t + intercept)
    ss_res = float((fitted ** 2).sum())
    ss_tot = float(((log_e - log_e.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    theoretical = 32.0 * math.pi ** 4 / length ** 4
    rate = -float(slope)
    return DecayReport(
        fitted_rate=rate,
        theoretical_M=theoretical,
        ratio=rate / theoretical,
        fit_window=(float(t_lo), float(t_hi)),
        r_squared=r_squared,
    )


def _rel_err(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def identity_suite(
    grid: PeriodicGrid,
    backend: DiffBackend = SPECTRAL,
    trials: int = 100,
    seed: int = 0,
    n_modes: int | None = None,
) -> dict:
    """Check the pointwise-derived integral identities on random smooth
    positive densities and report the worst relative error for each.

    Checked per trial:
      * summation by parts: int u u_xx = -int u_x^2,
      * int u_x^2 u_xx / u^2 = (2/3) int u_x^4 / u^3,
      * int u ((log u)_xx)^2 = 4 int ((sqrt u)_xx)^2 + (1/12) int u_x^4 / u^3.

    The random densities depend only on (seed, n_modes, trial index), so
    running the suite on a refined grid probes the same continuum fields.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if n_modes is None:
        n_modes = max(2, grid.n_points // 8)
    stream = SplitMix64(seed)
    worst = {"summation_by_parts": 0.0, "quartic_identity": 0.0, "production_decomposition": 0.0}
    for _ in range(trials):
        trial_seed = stream.next_u64()
        u = random_log_density(grid, n_modes, trial_seed)
        vals = u.values

        ux = _derivative(grid, vals, 1, backend)
        uxx = _derivative(grid, vals, 2, backend)
        sbp_lhs = _integrate(grid, vals * uxx)
        sbp_rhs = -_integrate(grid, ux * ux)
        worst["summation_by_parts"] = max(worst["summation_by_parts"], _rel_err(sbp_lhs, sbp_rhs))

        quart_lhs = _integrate(grid, ux * ux * uxx / (vals * vals))
        quart_rhs = (2.0 / 3.0) * _integrate(grid, ux ** 4 / vals ** 3)
        worst["quartic_identity"] = max(worst["quartic_identity"], _rel_err(quart_lhs, quart_rhs))

        production = functionals.entropy_production(u, backend)
        sqrt_part, quartic_part = functionals.production_decomposition(u, backend)
        worst["production_decomposition"] = max(
            worst["production_decomposition"], _rel_err(production, sqrt_part + quartic_part)
        )

    return {
        "L": grid.length,
        "N": grid.n_points,
        "backend": backend.name,
        "trials": trials,
        "seed": seed,
        "n_modes": n_modes,
        "max_rel_err": worst,
        "overall_max_rel_err": max(worst.values()),
    }
