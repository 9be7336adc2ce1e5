import importlib

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
