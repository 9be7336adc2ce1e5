import ast
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import dlss
from dlss.inequalities import poincare

MODULES = ["dlss"] + [
    f"dlss.{name}"
    for name in ("grid", "functionals", "solver", "inequalities", "linalg", "rng", "runio")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # tools that walk __all__ (a tracer wrapping every public function)
    # fail on a name the module no longer defines
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/dlss", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(tree: ast.Module) -> list[str]:
    """The names that the imports of ``tree`` bind and nothing in it
    references, with their lines; a name listed in the module's
    ``__all__`` counts as referenced, and ``__future__`` imports are
    skipped."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES)
def test_every_imported_name_is_used(path):
    # an import that nothing references is dead code that hides what a
    # module really depends on
    assert unused_imports(ast.parse((ROOT / path).read_text(), filename=path)) == []


# The process-wide caches, each kept because a measured benchmark loop
# reads it: calls per operation (seed 0) of the workload that reads it
# most, against one uncached call of a few microseconds or more.
KEPT_CACHES = {
    "grid._multiplier",  # decay256: 2 292 calls / op, certify256: 190 with its gradients
    "grid._fd_taps",  # banded2048: 64.5 calls / op
    "linalg._band_layout",  # banded2048: 2.2 calls / op, 48 + 168 us each
    "solver._tail_weights",  # decay256: 14.5 calls / op, 23 us each
    "inequalities._parseval_weights",  # certify256: 169 calls / op
    "inequalities._dissipation_symbol",  # certify256: 52 calls / op
    "rng._mode_table",  # certify256: 21 calls / op, 71 us each
}


def cached_functions() -> set[str]:
    """``module.function`` of every function under src/dlss decorated with
    ``lru_cache`` or ``cache``, called or not, bare or through functools."""
    found = set()
    for path in sorted((ROOT / "src/dlss").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for decorator in getattr(node, "decorator_list", []):
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if ast.unparse(target).rpartition(".")[2] in ("lru_cache", "cache"):
                    found.add(f"{path.stem}.{node.name}")
    return found


def test_every_cache_is_one_the_benchmark_pays_for():
    # an unbounded cache holds its values for the life of the process; a
    # new one must be measured and added above on purpose
    assert cached_functions() == KEPT_CACHES


def module_tables() -> dict[tuple[str, str], int | None]:
    """(module, name) -> length of every global of every loaded dlss
    module; None for a value that has no length."""
    tables = {}
    for module_name, module in list(sys.modules.items()):
        if module_name == "dlss" or module_name.startswith("dlss."):
            for name, value in vars(module).items():
                try:
                    tables[module_name, name] = len(value)
                except TypeError:
                    tables[module_name, name] = None
    return tables


def run_every_kind(n_points: int, length: float) -> None:
    """A spectral solve, a banded fd4 solve, a certificate and a heat flow
    on an n-point grid of circumference ``length``."""
    grid = dlss.make_grid(length, n_points)
    u0 = dlss.Field(
        grid, 1.0 + 0.3 * np.cos(2.0 * np.pi * grid.nodes / length), dlss.FieldKind.DENSITY
    )
    dlss.solve(u0, 1e-3, dlss.SolverConfig(tau=1e-4))
    banded = dlss.SolverConfig(
        tau=1e-3, newton_tol=1e-4, backend=dlss.FD4, linear_solver=dlss.LinearSolver.BANDED
    )
    dlss.solve(u0, 2e-3, banded)
    dlss.certify_constant(poincare(1), grid)
    dlss.heatflow_verify(u0, 1.5, 0.1, 1e-2)


def test_no_module_table_grows():
    # the lru_cache tables are counted above; a plain global container
    # (a dict of matrices, a list of results) would hold its values for
    # the life of the process unseen.  After a warm-up, which loads what
    # is loaded once, every kind of run on another grid size and length
    # must add no global and lengthen none, so a table keyed by either
    # would show.
    run_every_kind(64, 2.0 * math.pi)
    before = module_tables()
    run_every_kind(256, 3.0)
    after = module_tables()
    assert after.keys() == before.keys()
    grown = {key: (before[key], after[key]) for key in before if before[key] != after[key]}
    assert grown == {}
