import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import dlss

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

TWO_PI = 2.0 * math.pi
# What every positive-finite rule rejects, as a ValidationError naming the value.
NOT_POSITIVE_FINITE = (0.0, -1.0, math.nan, math.inf, -math.inf)


def spec_id(spec):
    """Test id of a quotient spec: its kind with its order or exponent."""
    if spec.kind is dlss.QuotientKind.CONVEX_SOBOLEV:
        return f"convex-p{spec.p:g}"
    return f"{spec.kind.name.lower()}-n{spec.n}"


def cyclic_dense(diagonals):
    """Dense matrix of the cyclic diagonals: row c + h gives (i, (i + c) mod n);
    diagonals that land on one entry of a tiny grid add up."""
    halfwidth, n = diagonals.shape[0] // 2, diagonals.shape[1]
    mat = np.zeros((n, n))
    rows = np.arange(n)
    for c in range(-halfwidth, halfwidth + 1):
        np.add.at(mat, (rows, (rows + c) % n), diagonals[c + halfwidth])
    return mat


@pytest.fixture(scope="session")
def grid64():
    return dlss.make_grid(TWO_PI, 64)


@pytest.fixture(scope="session")
def grid128():
    return dlss.make_grid(TWO_PI, 128)


@pytest.fixture(scope="session")
def grid256():
    return dlss.make_grid(TWO_PI, 256)


@pytest.fixture(scope="session")
def package_env():
    """Environment for a Python subprocess that must import the same
    ``dlss`` as this process, installed or not: ``PYTHONPATH`` starts with
    the directory holding the imported package."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(dlss.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env
