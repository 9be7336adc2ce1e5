import ast
import importlib
from pathlib import Path

import pytest

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
    "solver._tail_weights",  # decay256: 1 000 calls / op
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
