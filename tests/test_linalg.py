import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy
from conftest import cyclic_dense
from scipy.linalg import lu_factor, lu_solve

import dlss
from dlss import FD2, FD4, Field, FieldKind, LinearSolver, SolverConfig
from dlss.linalg import CyclicBandedLU, DenseLU, _band_layout, _flapack
from dlss.rng import SplitMix64
from dlss.solver import jacobian


def _random_cyclic_banded(n, halfwidth, seed):
    """Cyclic diagonals of a diagonally dominant periodic band matrix, and
    that matrix."""
    rng = SplitMix64(seed)
    diagonals = np.array(
        [[2.0 * rng.uniform() - 1.0 for _ in range(n)] for _ in range(2 * halfwidth + 1)]
    )
    diagonals[halfwidth] += 2.0 * (2 * halfwidth + 1)
    return diagonals, cyclic_dense(diagonals)


class TestDenseLU:
    def test_solves_random_system(self):
        _, mat = _random_cyclic_banded(24, 3, seed=1)
        rhs = np.linspace(-1.0, 1.0, 24)
        x = DenseLU(mat).solve(rhs)
        assert np.allclose(mat @ x, rhs, atol=1e-12)

    def test_factor_reuse_across_right_hand_sides(self):
        _, mat = _random_cyclic_banded(16, 2, seed=7)
        lu = DenseLU(mat)
        for k in range(3):
            rhs = np.sin(np.arange(16) + k)
            assert np.allclose(mat @ lu.solve(rhs), rhs, atol=1e-12)

    def test_solve_bit_identical_to_lu_solve(self):
        # a full random matrix, so that the factorisation pivots
        rng = np.random.default_rng(11)
        mat = rng.standard_normal((64, 64))
        rhs = rng.standard_normal(64)
        expected = lu_solve(lu_factor(mat), rhs)
        assert np.array_equal(DenseLU(mat).solve(rhs), expected)

    def test_singular_matrix_raises(self):
        mat = np.ones((8, 8))
        with pytest.raises(dlss.SingularJacobian):
            DenseLU(mat)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_on_diagonal_matrix(self, entry):
        rhs = np.ones(8)
        rhs[3] = entry
        with pytest.raises(dlss.SingularJacobian, match="non-finite"):
            DenseLU(np.eye(8)).solve(rhs)

    def test_finite_solution_whose_square_sum_overflows_is_returned(self):
        # the cheap check (a finite sum of squares) fails here, and the
        # exact one must find every entry finite
        rhs = np.ones(8)
        rhs[3] = 1e200
        with np.errstate(over="ignore"):
            out = DenseLU(np.diag(np.full(8, 2.0))).solve(rhs)
        assert np.array_equal(out, rhs / 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_solution_raises(self, bad):
        # the factorisation is fine; the solve-side check must catch it
        _, mat = _random_cyclic_banded(16, 2, seed=3)
        rhs = np.ones(16)
        rhs[5] = bad
        with pytest.raises(dlss.SingularJacobian, match="non-finite"):
            DenseLU(mat).solve(rhs)


class TestCyclicBandedLU:
    @pytest.mark.parametrize("n,halfwidth", [(16, 1), (24, 2), (64, 4), (37, 3)])
    def test_matches_dense_solve(self, n, halfwidth):
        diagonals, mat = _random_cyclic_banded(n, halfwidth, seed=n + halfwidth)
        rhs = np.cos(np.arange(n, dtype=float))
        x = CyclicBandedLU(diagonals, halfwidth).solve(rhs)
        assert np.allclose(x, np.linalg.solve(mat, rhs), atol=1e-10)

    def test_matches_dense_on_fd_jacobian(self, grid64):
        # Jacobians from the implicit step are the intended workload.
        u = 1.0 + 0.4 * np.sin(grid64.nodes)
        y = Field(grid64, np.log(u), FieldKind.LOG_DENSITY)
        for backend in (FD2, FD4):
            banded = SolverConfig(tau=1e-3, backend=backend, linear_solver=LinearSolver.BANDED)
            dense = replace(banded, linear_solver=LinearSolver.DENSE)
            rhs = np.exp(-grid64.nodes / 3.0)
            x_banded = CyclicBandedLU(jacobian(y, banded), backend.order).solve(rhs)
            x_dense = DenseLU(jacobian(y, dense)).solve(rhs)
            assert np.allclose(x_banded, x_dense, rtol=1e-9, atol=1e-12)

    def test_rejects_nonpositive_halfwidth(self):
        with pytest.raises(ValueError):
            CyclicBandedLU(np.eye(16), 0)

    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_dense_on_tiny_fd4_grids(self, n):
        # the fd4 Jacobian's band (halfwidth 4) wraps around the whole grid
        grid = dlss.make_grid(2.0 * np.pi, n)
        u0 = Field(grid, 1.0 + 0.3 * np.sin(grid.nodes), FieldKind.DENSITY)
        dense = SolverConfig(tau=1e-3, newton_tol=1e-10, backend=FD4)
        banded = replace(dense, linear_solver=LinearSolver.BANDED)
        y = Field(grid, np.log(u0.values), FieldKind.LOG_DENSITY)
        rhs = np.cos(grid.nodes)
        x_banded = CyclicBandedLU(jacobian(y, banded), FD4.order).solve(rhs)
        x_dense = DenseLU(jacobian(y, dense)).solve(rhs)
        assert np.allclose(x_banded, x_dense, rtol=1e-10, atol=1e-14)
        ta = dlss.solve(u0, 0.01, dense)
        tb = dlss.solve(u0, 0.01, banded)
        assert [r.newton_iters for r in ta.records] == [r.newton_iters for r in tb.records]
        assert np.allclose(ta.final_y.values, tb.final_y.values, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(16, 16), (5, 16), (3,), (3, 16, 1)])
    def test_rejects_diagonals_of_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="need shape"):
            CyclicBandedLU(np.ones(shape), 1)

    def test_singular_matrix_raises(self):
        with pytest.raises(dlss.SingularJacobian):
            CyclicBandedLU(np.zeros((3, 16)), 1).solve(np.ones(16))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_solution_raises(self, bad):
        # the factorisation is fine; the solve-side check must catch it
        diagonals, _ = _random_cyclic_banded(16, 2, seed=3)
        rhs = np.ones(16)
        rhs[5] = bad
        with pytest.raises(dlss.SingularJacobian, match="non-finite"):
            CyclicBandedLU(diagonals, 2).solve(rhs)

    def test_fold_keeps_band_within_twice_the_halfwidth(self):
        # an entry farther out than kl = ku = 2 halfwidth would land in a
        # band row that numpy wraps to silently, so check every in-band pair
        for n in range(3, 65):
            order, place, _, slots = _band_layout(n, 1)
            # cached for the life of the process, so no caller may write them
            assert not any(part.flags.writeable for part in (order, place, slots))
            assert np.array_equal(order[place], np.arange(n))
            gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            cyclic = np.minimum(gap, n - gap)
            folded = np.abs(np.subtract.outer(place, place))
            for halfwidth in range(1, 5):
                assert folded[cyclic <= halfwidth].max() <= 2 * halfwidth, (n, halfwidth)

    @pytest.mark.parametrize("n", [8, 10])
    def test_matches_dense_solve_when_band_covers_grid(self, n):
        # with halfwidth 4 the folded band is (nearly) the whole matrix; a
        # full random matrix there makes the factorisation pivot
        rng = np.random.default_rng(n)
        diagonals = rng.standard_normal((9, n))
        mat = cyclic_dense(diagonals)
        rhs = rng.standard_normal(n)
        x = CyclicBandedLU(diagonals, 4).solve(rhs)
        assert np.allclose(x, np.linalg.solve(mat, rhs), rtol=1e-10, atol=1e-12)

    def test_banded_newton_system_stays_below_dense_memory(self):
        n = 4096
        grid = dlss.make_grid(2.0 * np.pi, n)
        u = 1.0 + 0.4 * np.sin(grid.nodes)
        y = Field(grid, np.log(u), FieldKind.LOG_DENSITY)
        config = SolverConfig(tau=1e-2, backend=FD4, linear_solver=LinearSolver.BANDED)
        tracemalloc.start()
        try:
            x = CyclicBandedLU(jacobian(y, config), FD4.order).solve(np.cos(grid.nodes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(x))
        assert peak < n * n * 8

    def test_repeated_solves_reuse_factorization(self):
        diagonals, mat = _random_cyclic_banded(32, 2, seed=5)
        lu = CyclicBandedLU(diagonals, 2)
        for k in range(4):
            rhs = np.roll(np.eye(32)[0], k).astype(float)
            assert np.allclose(mat @ lu.solve(rhs), rhs, atol=1e-11)


def _run(code, env):
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


# scipy.linalg and scipy.sparse modules in a process
_SCIPY_PARTS = (
    "def scipy_parts():\n"
    "    return sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse')))\n"
)


def test_import_leaves_scipy_sparse_unloaded(package_env):
    # import dlss loads numpy only; the first dense factorisation loads
    # scipy's LAPACK extension, not the scipy.linalg package, and keeps it
    # out of sys.modules
    code = (
        "import sys, numpy as np, dlss, dlss.cli\n"
        + _SCIPY_PARTS
        + "print(scipy_parts())\n"
        "grid = dlss.make_grid(2.0 * np.pi, 16)\n"
        "u0 = dlss.Field(grid, np.exp(0.3 * np.sin(grid.nodes)), dlss.FieldKind.DENSITY)\n"
        "traj = dlss.solve(u0, 1e-3, dlss.SolverConfig(tau=1e-3))\n"
        "print(traj.records[-1].newton_iters > 0, np.isfinite(traj.final_y.values).all())\n"
        "print(scipy_parts())"
    )
    assert _run(code, package_env).splitlines() == [
        "[]",
        "True True",
        "[]",
    ]


def test_banded_solve_leaves_scipy_sparse_unloaded(package_env):
    code = (
        "import sys, numpy as np, dlss\n"
        + _SCIPY_PARTS
        + "grid = dlss.make_grid(2.0 * np.pi, 64)\n"
        "u0 = dlss.Field(grid, 1.0 + 0.3 * np.sin(grid.nodes), dlss.FieldKind.DENSITY)\n"
        "config = dlss.SolverConfig(tau=1e-3, backend=dlss.FD4, "
        "linear_solver=dlss.LinearSolver.BANDED)\n"
        "traj = dlss.solve(u0, 0.005, config)\n"
        "print(len(traj.records), scipy_parts())"
    )
    assert _run(code, package_env) == "6 []\n"


def test_missing_lapack_extension_names_the_scipy_version(monkeypatch, tmp_path):
    monkeypatch.setattr("dlss.linalg._lapack", None)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no"):
        _flapack()


# a spectral/dense and an fd4/banded solve; ``finals`` holds their final_y bytes
_TWO_SOLVES = (
    "grid = dlss.make_grid(2.0 * np.pi, 64)\n"
    "u0 = dlss.Field(grid, 1.0 + 0.3 * np.sin(grid.nodes), dlss.FieldKind.DENSITY)\n"
    "banded = dlss.SolverConfig(tau=1e-3, backend=dlss.FD4, "
    "linear_solver=dlss.LinearSolver.BANDED)\n"
    "finals = [dlss.solve(u0, 0.005, config).final_y.values.tobytes().hex()\n"
    "          for config in (dlss.SolverConfig(tau=1e-3), banded)]\n"
)


@pytest.mark.parametrize("scipy_linalg_first", [False, True])
def test_scipy_linalg_shares_the_lapack_extension(package_env, scipy_linalg_first):
    # only a fresh process reaches the loader's cold path: this module
    # imports scipy.linalg at collection.  In either import order the
    # package's _flapack attribute resolves, to its sys.modules entry, and
    # holds the routines dlss calls
    code = (
        "import json, sys, numpy as np, dlss\n"
        + ("import scipy.linalg\n" if scipy_linalg_first else "")
        + _TWO_SOLVES
        + "package_before = 'scipy.linalg' in sys.modules\n"
        "import scipy.linalg\n"
        "from dlss.linalg import _flapack\n"
        "lapack = _flapack()\n"
        "a = np.array([[1.0, 2.0], [3.0, 4.0]])\n"
        "ab = np.array([[0.0, 1.0], [4.0, 4.0], [1.0, 0.0]])\n"
        "print(json.dumps({\n"
        "    'package_before': package_before,\n"
        "    'registered': sys.modules['scipy.linalg._flapack'] is scipy.linalg._flapack,\n"
        "    'same_routines': [getattr(module, name) is getattr(lapack, name)\n"
        "                      for module in (scipy.linalg.lapack, scipy.linalg._flapack)\n"
        "                      for name in ('dgetrf', 'dgetrs', 'dgbtrf', 'dgbtrs')],\n"
        "    'lu_factor': scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), [1.0, 1.0]).tolist(),\n"
        "    'solve_banded': scipy.linalg.solve_banded((1, 1), ab, [5.0, 5.0]).tolist(),\n"
        "    'finals': finals,\n"
        "}))"
    )
    got = json.loads(_run(code, package_env))
    here = {"np": np, "dlss": dlss}
    exec(_TWO_SOLVES, here)
    assert got["package_before"] is scipy_linalg_first
    assert got["registered"]
    assert got["same_routines"] == [True] * 8
    assert np.allclose(got["lu_factor"], [-1.0, 1.0], rtol=0.0, atol=1e-15)
    assert np.allclose(got["solve_banded"], [1.0, 1.0], rtol=0.0, atol=1e-15)
    # bit-equal to this process, which took scipy.linalg's own module
    assert got["finals"] == here["finals"]
