import importlib
import re
from pathlib import Path

import dlss

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_names_exist():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks, "README has no python example"
    for block in blocks:
        for name in re.findall(r"\bdlss\.(\w+)", block):
            assert hasattr(dlss, name), f"README uses dlss.{name}, which dlss lacks"
        for module, names in re.findall(r"^from (dlss[\w.]*) import (.+)$", block, re.M):
            mod = importlib.import_module(module)
            for name in names.split(","):
                assert hasattr(mod, name.strip()), f"README imports {name.strip()} from {module}"
