import importlib.util
import math
import re
from pathlib import Path

import pytest

import dlss
from dlss import LinearSolver, SolverConfig
from dlss.runio import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_names_exist():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README has no python example"
    for block in blocks:
        for name in re.findall(r"\bdlss\.(\w+)", block):
            assert hasattr(dlss, name), f"README uses dlss.{name}, which dlss lacks"
        for module, names in re.findall(r"^from (dlss[\w.]*) import (.+)$", block, re.M):
            mod = importlib.import_module(module)
            for name in names.split(","):
                assert hasattr(mod, name.strip()), f"README imports {name.strip()} from {module}"
    # inline code in the prose may also name a submodule, such as dlss.cli
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for span in re.findall(r"`([^`]+)`", prose):
        for name in re.findall(r"\bdlss\.(\w+)", span):
            assert hasattr(dlss, name) or importlib.util.find_spec(f"dlss.{name}"), (
                f"README names dlss.{name}, which dlss lacks"
            )


def test_readme_run_file_parses():
    # the documented run file must be one that `dlss solve --config` accepts
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1, "README should hold exactly one run file"
    cfg = parse_config(blocks[0])
    assert (cfg.grid.length, cfg.grid.n_points) == (2 * math.pi, 256)
    assert cfg.solver_config == SolverConfig(
        tau=1e-4, newton_tol=1e-8, backend=dlss.SPECTRAL, linear_solver=LinearSolver.DENSE
    )
    assert cfg.u0.values.max() == pytest.approx(1.1)
