"""Run configuration files, time-series CSV output, decay-rate fitting
and the randomised identity test suite.

Config files are flat ``key = value`` lines.  ``#`` starts a comment,
blank lines and ``[section]`` headers are cosmetic, every key must be
known and appear at most once.  A run file describes one ``dlss solve``
run: ``command`` must be ``solve``, and ``L``, ``N``, ``T`` and ``tau``
are required.  ``parse_config`` builds what the file describes, each
object once: the grid (``make_grid``), the ``SolverConfig`` (an omitted
key takes its default) and the initial density (``cosine_density``, or
a ``Field`` of the ``u0_value`` constant or of the ``u0_path`` data).
Structural problems raise ``ParseError`` with the offending line
number; admissibility problems raise ``ValidationError`` with the
offending key, and the objects built make those checks themselves.
The time-series CSV has one column per ``TimeSeriesRecord`` field.
Records are named tuples in CSV column order, so a record is its row's
values and a row parses straight into a record.
"""

from __future__ import annotations

import math
import os
import stat
import tempfile
from dataclasses import dataclass, fields
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
    _check_finite,
    _check_positive_finite,
    _derivative,
    _integrate,
    _lattice_steps,
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

# CSV column name -> type: one column per TimeSeriesRecord field, in field order.
_COLUMNS = get_type_hints(TimeSeriesRecord)
TIMESERIES_HEADER = ",".join(_COLUMNS)
# A record, a tuple in column order, is its CSV row in one % call: "%.17g"
# (the bits of f"{v:.17g}") for floats, "%d" for ints.
_ROW_FORMAT = ",".join("%.17g" if kind is float else "%d" for kind in _COLUMNS.values())

_U0_KINDS = ("constant", "cosine", "file")


@dataclass(frozen=True)
class RunConfig:
    """One run file, built: the grid, the solver configuration and the
    initial density it describes, the horizon, the CSV path (None for no
    CSV) and the record stride."""

    grid: PeriodicGrid
    solver_config: SolverConfig
    t_final: float
    u0: Field
    output: str | None
    record_every: int


def cosine_density(grid: PeriodicGrid, base: float, amplitude: float, mode: int) -> Field:
    """The density base + amplitude cos(2 pi mode x / L).

    It stays positive only for base > |amplitude|, and mode counts periods
    on the circle, so it must be nonnegative and at most the Nyquist mode
    N/2 (a higher one aliases onto a lower mode of the grid); a rejected
    value raises ``ValidationError`` naming the argument.
    """
    if not base > 0.0:
        raise ValidationError("base", f"must be positive, got {base}")
    if not abs(amplitude) < base:
        raise ValidationError(
            "amplitude", f"|amplitude| = {abs(amplitude)} must stay below base = {base}"
        )
    if mode < 0:
        raise ValidationError("mode", f"must be nonnegative, got {mode}")
    if 2 * mode > grid.n_points:
        raise ValidationError("mode", f"must not exceed N/2 = {grid.n_points / 2:g}, got {mode}")
    theta = (2.0 * math.pi * mode / grid.length) * grid.nodes
    return Field(grid, base + amplitude * np.cos(theta), FieldKind.DENSITY)


# key -> converter; a bad int or float is a parse error with its line number,
# a bad name is rejected under its key.  ``command`` only names the tool.
_SCHEMA = {
    "command": str,
    "L": float,
    "N": int,
    "T": float,
    "tau": float,
    "newton_tol": float,
    "backend": DiffBackend.from_name,
    "linear_solver": LinearSolver,
    "u0": str,
    "u0_value": float,
    "u0_base": float,
    "u0_amplitude": float,
    "u0_mode": int,
    "u0_path": str,
    "output": str,
    "record_every": int,
}
# What an omitted key means; omitted SolverConfig keys take its defaults.
_DEFAULTS = dict(
    u0="cosine", u0_value=1.0, u0_base=1.0, u0_amplitude=0.1, u0_mode=1,
    u0_path=None, output=None, record_every=1,
)
# Each SolverConfig field is the run-file key of the same name.
_SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))
# The library names what it rejects by argument: the names the run file and
# the CLI options share for those arguments, then the run file's u0_* keys.
_NAME_OF = dict(length="L", n_points="N", t_final="T")
_KEY_OF = dict(_NAME_OF, base="u0_base", amplitude="u0_amplitude", mode="u0_mode")


def _built(build, *args, key: str | None = None, **kwargs):
    """``build(*args, **kwargs)``: the grid, solver configuration and
    density of a run file are each made here once.  The argument a
    ``ValidationError`` names is renamed to its run-file key; given
    ``key``, a value rejected without a name (``ValueError``,
    ``NonPositiveDensity``) is reported under ``key``."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(_KEY_OF.get(exc.field, exc.field), exc.reason) from None
    except (ValueError, NonPositiveDensity) as exc:
        if key is None:
            raise
        raise ValidationError(key, str(exc)) from None


def _convert(kind, raw: str, key: str, line_no: int):
    try:
        return kind(raw)
    except ValueError as exc:
        if kind in (float, int):
            raise ParseError(line_no, f"invalid {kind.__name__} for {key!r}: {raw!r}") from None
        raise ValidationError(key, str(exc)) from None


def parse_config(text: str) -> RunConfig:
    """Parse a run-file body and build the run it describes."""
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
        seen[key] = _convert(_SCHEMA[key], raw_value, key, line_no)

    # checked before the required keys: a file for another tool lacks T and tau
    if seen.get("command", "solve") != "solve":
        raise ValidationError("command", f"must be 'solve', got {seen['command']!r}")
    for key in ("command", "L", "N", "T", "tau"):
        if key not in seen:
            raise ValidationError(key, "required")
    seen = {**_DEFAULTS, **seen}
    # checked before the run, which would otherwise fail only once it is over
    output = seen["output"]
    if output and not os.path.isdir(os.path.dirname(os.path.abspath(output))):
        raise ValidationError("output", f"the directory of {output!r} does not exist")
    if output and os.path.isdir(output):
        raise ValidationError("output", f"{output!r} is a directory")
    grid = _built(make_grid, seen["L"], seen["N"])
    solver_config = _built(SolverConfig, **{k: seen[k] for k in _SOLVER_KEYS if k in seen})
    _built(_lattice_steps, seen["T"], solver_config.tau, "tau")  # T on the tau lattice
    return RunConfig(
        grid, solver_config, seen["T"], _initial_density(grid, seen),
        seen["output"], seen["record_every"],
    )


def _initial_density(grid: PeriodicGrid, seen: dict) -> Field:
    """The ``u0`` datum; a ``file`` path is read relative to the working
    directory."""
    kind = seen["u0"]
    if kind == "cosine":
        return _built(
            cosine_density, grid, seen["u0_base"], seen["u0_amplitude"], seen["u0_mode"],
            key="u0_base",
        )
    if kind == "constant":
        key, vals = "u0_value", np.full(grid.n_points, seen["u0_value"])
    elif kind == "file":
        key, path = "u0_path", seen["u0_path"]
        if not path:
            raise ValidationError(key, "required")
        try:
            vals = np.loadtxt(path, dtype=float).ravel()
        except OSError as exc:
            raise ValidationError(key, f"cannot read {path!r}: {exc}") from None
        except ValueError as exc:
            raise ValidationError(key, f"malformed data: {exc}") from None
        if vals.size != grid.n_points:
            raise ValidationError(key, f"expected {grid.n_points} values, found {vals.size}")
    else:
        raise ValidationError("u0", f"must be one of {_U0_KINDS}, got {kind!r}")
    # Field holds the finiteness and positivity-floor rules
    return _built(Field, grid, vals, FieldKind.DENSITY, key=key)


def emit_timeseries(trajectory: Trajectory, path: str) -> None:
    """Write the trajectory's records as CSV: 17 significant digits, LF
    line endings, atomic replace so readers never see a partial file."""
    rows = [_ROW_FORMAT % record for record in trajectory.records]
    write_atomic(path, "\n".join([TIMESERIES_HEADER, *rows]) + "\n")


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` with LF line endings through a temporary file in the
    target directory and an atomic replace, so readers never see a partial
    file and a failed write leaves nothing behind.  A replaced file keeps
    its mode and a new one gets what ``open(path, "w")`` would give it,
    0o666 less the umask.  An ``OSError`` names ``path``, not the
    temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)  # the one way to read it; restored at once
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".dlss-", suffix=".tmp")
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.chmod(tmp_path, mode)  # mkstemp makes it 0o600
        os.replace(tmp_path, path)
    except BaseException as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
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
            # one pass: each field through its column's type into the record
            records.append(TimeSeriesRecord._make(map(type.__call__, _COLUMNS.values(), parts)))
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


def _fit_pairs(series) -> np.ndarray:
    """``series`` as a (k, 2) float array of finite (t, E) pairs; none is
    too few."""
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise InsufficientData("decay fit needs at least 10 samples in the window, found 0")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"series must be an array of (t, E) pairs, got shape {arr.shape}")
    return _check_finite(arr, "the (t, E) samples of a decay fit")


def default_fit_window(series) -> tuple[float, float]:
    """Skip the initial transient (first 20% of the time span) and stop
    once the entropy falls below 1e-12 of its starting value."""
    arr = _fit_pairs(series)
    t, e = arr[:, 0], arr[:, 1]
    t_lo = t[0] + 0.2 * (t[-1] - t[0])
    floor = 1e-12 * e[0]
    above = t[e >= floor]
    t_hi = above[-1] if above.size else t[-1]
    return float(t_lo), float(t_hi)


def fit_decay(series, window: tuple[float, float], length: float) -> DecayReport:
    """Fit log E(t) = log E0 - rate * t on the samples inside ``window``
    and compare the rate against the sharp value 32 pi^4 / L^4."""
    _check_positive_finite("length", length)
    arr = _fit_pairs(series)
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

        worst["production_decomposition"] = max(
            worst["production_decomposition"], functionals.report(u, backend).decomposition_gap
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
