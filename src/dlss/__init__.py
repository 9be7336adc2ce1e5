"""Entropy-dissipating discretisation of the periodic fourth-order
quantum diffusion equation u_t + (u (log u)_xx)_xx = 0, together with
numerical certification of the sharp functional inequalities that govern
its large-time behaviour.

The package is organised around five pieces:

* :mod:`dlss.grid` - periodic grids, fields and discrete calculus,
* :mod:`dlss.functionals` - entropies and the production integral,
* :mod:`dlss.solver` - implicit Euler stepping in the log variable,
* :mod:`dlss.inequalities` - quotient minimisation and heat-flow proofs,
* :mod:`dlss.runio` / :mod:`dlss.cli` - run files, CSV series, reports.
"""

from .errors import (
    DegenerateDenominator,
    DlssError,
    InsufficientData,
    NoConvergence,
    NonPositiveDensity,
    NonPositiveEntropy,
    ParseError,
    SingularJacobian,
    ValidationError,
)
from .grid import (
    FD2,
    FD4,
    SPECTRAL,
    DiffBackend,
    Field,
    FieldKind,
    PeriodicGrid,
    derivative,
    diff_matrix,
    make_grid,
)
from .functionals import FunctionalReport, report
from .solver import (
    LinearSolver,
    SolverConfig,
    TimeSeriesRecord,
    Trajectory,
    jacobian,
    lyapunov_check,
    solve,
)
from .inequalities import (
    QuotientKind,
    QuotientResult,
    QuotientSpec,
    certify_constant,
    convex_sobolev_check,
    heatflow_verify,
    remainder_R,
)
from .rng import SplitMix64, random_log_density, random_smooth_field
from .runio import (
    DecayReport,
    RunConfig,
    default_fit_window,
    emit_timeseries,
    fit_decay,
    identity_suite,
    parse_config,
    read_timeseries,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateDenominator",
    "DlssError",
    "InsufficientData",
    "NoConvergence",
    "NonPositiveDensity",
    "NonPositiveEntropy",
    "ParseError",
    "SingularJacobian",
    "ValidationError",
    "FD2",
    "FD4",
    "SPECTRAL",
    "DiffBackend",
    "Field",
    "FieldKind",
    "PeriodicGrid",
    "derivative",
    "diff_matrix",
    "make_grid",
    "FunctionalReport",
    "report",
    "LinearSolver",
    "SolverConfig",
    "TimeSeriesRecord",
    "Trajectory",
    "jacobian",
    "lyapunov_check",
    "solve",
    "QuotientKind",
    "QuotientResult",
    "QuotientSpec",
    "certify_constant",
    "convex_sobolev_check",
    "heatflow_verify",
    "remainder_R",
    "SplitMix64",
    "random_log_density",
    "random_smooth_field",
    "DecayReport",
    "RunConfig",
    "default_fit_window",
    "emit_timeseries",
    "fit_decay",
    "identity_suite",
    "parse_config",
    "read_timeseries",
    "__version__",
]
