import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st
from conftest import NOT_POSITIVE_FINITE
from scipy.linalg import circulant

import dlss
from dlss import FD2, FD4, SPECTRAL, Field, FieldKind
from dlss.grid import (
    PeriodicGrid, _derivative, _fd_taps, _halvings, _integrate, _irfft,
    _multiplier, _rfft, _spectrum_derivative, diff_matrix,
)
from dlss.rng import random_smooth_field

TWO_PI = 2.0 * math.pi
EVERY_BACKEND = list(dlss.DiffBackend)


def smooth_field(grid, seed, amplitude=0.8):
    return random_smooth_field(grid, n_modes=grid.n_points // 8, seed=seed, amplitude=amplitude)


class TestMakeGrid:
    def test_basic_properties(self):
        g = dlss.make_grid(TWO_PI, 16)
        assert g.length == TWO_PI
        assert g.n_points == 16
        assert g.spacing == pytest.approx(TWO_PI / 16)
        assert g.nodes.shape == (16,)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == pytest.approx(TWO_PI - g.spacing)

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError, match="odd"):
            dlss.make_grid(TWO_PI, 15)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="at least 8"):
            dlss.make_grid(TWO_PI, 6)

    @pytest.mark.parametrize("length", NOT_POSITIVE_FINITE)
    def test_rejects_bad_length(self, length):
        with pytest.raises(dlss.ValidationError) as info:
            dlss.make_grid(length, 16)
        assert info.value.field == "length"

    def test_nodes_read_only(self):
        g = dlss.make_grid(1.0, 8)
        with pytest.raises(ValueError):
            g.nodes[0] = 1.0


class TestPeriodicGrid:
    # the size rule is checked by PeriodicGrid itself, so the coarse grids
    # that the solve and the heat flow build obey it as make_grid's do
    @pytest.mark.parametrize(
        "length, n_points, name",
        [(TWO_PI, 63, "n_points"), (TWO_PI, 6, "n_points"), (0.0, 16, "length"), (math.nan, 16, "length")],
    )
    def test_rejects_inadmissible_sizes(self, length, n_points, name):
        with pytest.raises(dlss.ValidationError) as info:
            PeriodicGrid(length, n_points)
        assert info.value.field == name

    def test_make_grid_rejects_non_integral_n(self):
        # checked before n_points is made an int, which would truncate 16.5 to 16
        with pytest.raises(dlss.ValidationError, match="odd value 16.5"):
            dlss.make_grid(TWO_PI, 16.5)

    def test_accepted_values_are_float_and_int(self):
        for g in (dlss.make_grid(np.float32(2.0), np.int64(16)), PeriodicGrid(2, 16.0)):
            assert (type(g.length), type(g.n_points)) == (float, int)

    @pytest.mark.parametrize(
        "n, sizes",
        [(8, (8,)), (12, (12,)), (36, (36, 18)), (100, (100, 50)), (256, (256, 128, 64, 32, 16, 8)), (48, (48, 24, 12))],
    )
    def test_halvings_stay_even_and_at_least_8(self, n, sizes):
        assert _halvings(n) == sizes


class TestField:
    def test_shape_mismatch(self, grid64):
        with pytest.raises(ValueError, match="shape"):
            Field(grid64, np.zeros(10))

    def test_non_finite(self, grid64):
        vals = np.zeros(64)
        vals[3] = math.inf
        with pytest.raises(ValueError, match="finite"):
            Field(grid64, vals)

    def test_density_must_be_positive(self, grid64):
        vals = np.ones(64)
        vals[5] = 0.0
        with pytest.raises(dlss.NonPositiveDensity):
            Field(grid64, vals, FieldKind.DENSITY)

    def test_generic_may_change_sign(self, grid64):
        f = Field(grid64, np.sin(grid64.nodes))
        assert f.kind is FieldKind.GENERIC

    def test_values_read_only_and_copied(self, grid64):
        src = np.ones(64)
        f = Field(grid64, src)
        src[0] = 7.0
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestBackends:
    def test_names_round_trip(self):
        # the member names are the command-line, run-file and JSON names
        assert [backend.name for backend in EVERY_BACKEND] == ["spectral", "fd2", "fd4"]
        assert EVERY_BACKEND == [SPECTRAL, FD2, FD4]
        for backend in EVERY_BACKEND:
            assert dlss.DiffBackend.from_name(backend.name) is backend
        assert dlss.DiffBackend.from_name("FD4") is FD4

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            dlss.DiffBackend.from_name("fd6")

    def test_fd_order_validated(self):
        assert dlss.DiffBackend(2) is FD2
        assert [backend.order for backend in EVERY_BACKEND] == [0, 2, 4]
        with pytest.raises(ValueError):
            dlss.DiffBackend(3)


class TestSpectralDerivative:
    @pytest.mark.parametrize("k", [1, 2, 5, 11])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_exact_on_cosines(self, grid64, k, order):
        x = grid64.nodes
        f = Field(grid64, np.cos(k * x))
        got = dlss.derivative(f, order, SPECTRAL).values
        phase = order * math.pi / 2.0
        want = k ** order * np.cos(k * x + phase)
        assert np.abs(got - want).max() < 1e-9 * k ** order

    def test_nyquist_odd_derivative_zeroed(self, grid64):
        x = grid64.nodes
        f = Field(grid64, np.cos(32 * x))  # Nyquist mode on 64 points
        d1 = dlss.derivative(f, 1, SPECTRAL).values
        assert np.abs(d1).max() < 1e-12
        d2 = dlss.derivative(f, 2, SPECTRAL).values
        assert np.abs(d2 + 32 ** 2 * np.cos(32 * x)).max() < 1e-9

    @pytest.mark.parametrize("n", [8, 64, 256, 2048])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_cached_symbol_gives_direct_result(self, n, order):
        # the multiplier (i k)^order is cached per grid and order; the
        # derivative equals, bit for bit, one that builds it on the spot
        # and transforms through numpy.fft
        grid = dlss.make_grid(TWO_PI, n)
        values = smooth_field(grid, 5).values
        fhat = np.fft.rfft(values)
        wave = (2.0 * np.pi / grid.length) * np.arange(fhat.size)
        fhat *= (1j * wave) ** order
        if order % 2 == 1:
            fhat[-1] = 0.0
        want = np.fft.irfft(fhat, n=n)
        assert np.array_equal(dlss.derivative(Field(grid, values), order).values, want)
        assert not _multiplier(n, order, grid.length).flags.writeable

    @pytest.mark.parametrize("n", [16, 100, 256])
    def test_transform_pair_matches_numpy_fft(self, n):
        # _rfft and _irfft call numpy's pocketfft kernels without its
        # wrapper; they must give its bits on rows, blocks and out= slices
        grid = dlss.make_grid(TWO_PI, n)
        rng = np.random.default_rng(n)
        block = 1.0 + 0.3 * np.sin(grid.nodes) + 0.1 * rng.standard_normal((5, n))
        row = block[0]
        assert np.array_equal(_rfft(row), np.fft.rfft(row))
        assert np.array_equal(_rfft(block), np.fft.rfft(block, axis=-1))
        hat = np.fft.rfft(block, axis=-1) * np.exp(-0.01 * np.arange(n // 2 + 1) ** 2)
        assert np.array_equal(_irfft(hat[0], n), np.fft.irfft(hat[0], n=n))
        assert np.array_equal(_irfft(hat, n), np.fft.irfft(hat, n=n, axis=-1))
        # a short last heat-flow block writes the leading rows of its buffers
        spectrum = np.empty((8, n // 2 + 1), dtype=complex)[:5]
        states = np.empty((8, n))[:5]
        assert _rfft(block, out=spectrum) is spectrum
        assert np.array_equal(spectrum, np.fft.rfft(block, axis=-1))
        assert _irfft(hat, n, out=states) is states
        assert np.array_equal(states, np.fft.irfft(hat, n=n, axis=-1))
        wave = np.arange(n // 2 + 1)  # 2 pi / L = 1
        for order in (1, 2):
            symbol = (1j * wave) ** order
            if order == 1:
                symbol[-1] = 0.0  # an odd derivative zeroes the Nyquist mode
            want = np.fft.irfft(np.fft.rfft(row) * symbol, n=n)
            assert np.array_equal(_derivative(grid, row, order, SPECTRAL), want)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_spectrum_derivative_into_a_buffer(self, grid64, order):
        # with out= the spectrum is kept and the result has the in-place
        # bits, which are the derivative's
        values = smooth_field(grid64, 5).values
        fhat = np.fft.rfft(values)
        kept, out = fhat.copy(), np.empty_like(fhat)
        multiplier = _multiplier(64, order, grid64.length)
        assert not multiplier.flags.writeable
        got = _spectrum_derivative(fhat, multiplier, 64, out=out)
        assert np.array_equal(fhat, kept)
        assert np.array_equal(got, _spectrum_derivative(kept, multiplier, 64))
        assert np.array_equal(out, kept)
        assert np.array_equal(got, _derivative(grid64, values, order, SPECTRAL))

    def test_library_transforms_skip_numpy_fft_wrapper(self, grid64, monkeypatch):
        # the solver, the certificates and the heat flow transform through
        # _rfft / _irfft; the wrapper on their hot paths would cost more
        # than an N = 256 transform, and a traced benchmark cannot see it
        def wrapper_called(*args, **kwargs):
            raise AssertionError("numpy.fft wrapper called")

        monkeypatch.setattr(np.fft, "rfft", wrapper_called)
        monkeypatch.setattr(np.fft, "irfft", wrapper_called)
        u = Field(grid64, 1.0 + 0.1 * np.cos(grid64.nodes), FieldKind.DENSITY)
        dlss.solve(u, 2e-3, dlss.SolverConfig(tau=1e-3))
        dlss.certify_constant(dlss.QuotientSpec(dlss.QuotientKind.POINCARE), grid64, seeds=(0,))
        dlss.heatflow_verify(u, 1.5, 0.01, 1e-3)

    def test_order_zero_is_identity(self, grid64):
        f = smooth_field(grid64, 3)
        assert np.array_equal(dlss.derivative(f, 0).values, f.values)

    def test_negative_order_rejected(self, grid64):
        with pytest.raises(ValueError):
            dlss.derivative(smooth_field(grid64, 0), -1)


class TestFiniteDifferences:
    @pytest.mark.parametrize("backend,expected", [(FD2, 2.0), (FD4, 4.0)])
    @pytest.mark.parametrize("order", [1, 2])
    def test_convergence_order(self, backend, expected, order):
        errs = []
        for n in (32, 64):
            g = dlss.make_grid(TWO_PI, n)
            f = Field(g, np.sin(3 * g.nodes))
            got = dlss.derivative(f, order, backend).values
            phase = order * math.pi / 2.0
            want = 3.0 ** order * np.sin(3 * g.nodes + phase)
            errs.append(np.abs(got - want).max())
        rate = math.log2(errs[0] / errs[1])
        assert abs(rate - expected) < 0.25

    @pytest.mark.parametrize("backend", [FD2, FD4])
    def test_fourth_derivative_is_squared_laplacian(self, grid64, backend):
        d2 = diff_matrix(grid64, 2, backend)
        d4 = diff_matrix(grid64, 4, backend)
        assert np.allclose(d4, d2 @ d2, rtol=0.0, atol=1e-8)

    @staticmethod
    def _rolled_derivative(values, order, spacing, fd_order):
        """The stencil applied one np.roll copy per tap, in tap order."""
        offsets, weights = _fd_taps(order, fd_order)
        out = np.zeros_like(values)
        for off, w in zip(offsets, weights):
            out += w * np.roll(values, -off)
        out *= spacing ** (-order)
        return out

    @pytest.mark.parametrize("n", [8, 10, 64, 2048])
    @pytest.mark.parametrize("backend", [FD2, FD4])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_bit_identical_to_rolled_stencil(self, n, backend, order):
        g = dlss.make_grid(TWO_PI, n)
        values = np.random.default_rng(n + 10 * order + backend.order).standard_normal(n)
        got = dlss.derivative(Field(g, values), order, backend).values
        assert np.array_equal(got, self._rolled_derivative(values, order, g.spacing, backend.order))

    def test_stencil_wider_than_grid_wraps_around(self):
        # the order-10 fd4 stencil reaches 10 nodes out on an 8-node grid
        g = dlss.make_grid(TWO_PI, 8)
        values = np.random.default_rng(3).standard_normal(8)
        got = dlss.derivative(Field(g, values), 10, FD4).values
        assert np.array_equal(got, self._rolled_derivative(values, 10, g.spacing, 4))

    def test_fd2_second_derivative_stencil(self):
        g = dlss.make_grid(1.0, 8)
        mat = diff_matrix(g, 2, FD2)
        h = g.spacing
        assert mat[0, 0] == pytest.approx(-2.0 / h ** 2)
        assert mat[0, 1] == pytest.approx(1.0 / h ** 2)
        assert mat[0, -1] == pytest.approx(1.0 / h ** 2)
        assert mat[0, 2] == 0.0


class TestDiffMatrix:
    @pytest.mark.parametrize("backend", EVERY_BACKEND)
    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_matches_derivative_op(self, grid64, backend, order):
        f = smooth_field(grid64, 11)
        via_op = dlss.derivative(f, order, backend).values
        via_mat = diff_matrix(grid64, order, backend) @ f.values
        scale = max(np.abs(via_op).max(), 1.0)
        assert np.abs(via_op - via_mat).max() < 1e-10 * scale

    @pytest.mark.parametrize("backend", EVERY_BACKEND)
    def test_annihilates_constants(self, grid64, backend):
        mat = diff_matrix(grid64, 2, backend)
        assert np.abs(mat.sum(axis=1)).max() < 1e-10

    @pytest.mark.parametrize("backend", EVERY_BACKEND)
    def test_second_derivative_symmetric(self, grid64, backend):
        mat = diff_matrix(grid64, 2, backend)
        assert np.abs(mat - mat.T).max() < 1e-10

    @pytest.mark.parametrize("n", [8, 64, 2048])
    @pytest.mark.parametrize("backend", EVERY_BACKEND)
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_equals_scipy_circulant(self, n, backend, order):
        # the first column is the derivative of the unit impulse at node 0
        grid = dlss.make_grid(TWO_PI, n)
        impulse = Field(grid, np.eye(n)[0])
        column = dlss.derivative(impulse, order, backend).values
        assert np.array_equal(diff_matrix(grid, order, backend), circulant(column))

    def test_read_only(self, grid64):
        mat = diff_matrix(grid64, 2, SPECTRAL)
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    def test_keeps_nothing_alive(self, grid64):
        # each call builds its view; no process-wide table holds it
        ref = weakref.ref(diff_matrix(grid64, 2, FD4))
        gc.collect()
        assert ref() is None

    def test_holds_linear_memory(self):
        # an N x N copy would take 32 MiB here; the view holds one
        # (2N - 1)-vector next to the derivative's O(N) work arrays
        grid = dlss.make_grid(TWO_PI, 2048)
        tracemalloc.start()
        try:
            mat = diff_matrix(grid, 2, FD4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mat.shape == (2048, 2048)
        assert peak < 1 << 20


class TestQuadrature:
    def test_rectangle_rule_on_constants(self, grid64):
        f = Field(grid64, np.full(64, 2.5))
        assert _integrate(f.grid, f.values) == pytest.approx(2.5 * TWO_PI, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_oscillations_integrate_to_zero(self, grid64, k):
        f = Field(grid64, np.cos(k * grid64.nodes))
        assert abs(_integrate(f.grid, f.values)) < 1e-12


class TestStructure:
    """Discrete analogues of the integration-by-parts toolbox."""

    @given(seed=st.integers(0, 2 ** 32), backend=st.sampled_from(EVERY_BACKEND))
    def test_summation_by_parts_self_adjoint(self, grid64, seed, backend):
        u = smooth_field(grid64, seed)
        v = smooth_field(grid64, seed + 12345)
        d2u = dlss.derivative(u, 2, backend).values
        d2v = dlss.derivative(v, 2, backend).values
        lhs = float((d2u * v.values).sum())
        rhs = float((u.values * d2v).sum())
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) < 1e-10 * scale

    @given(seed=st.integers(0, 2 ** 32), backend=st.sampled_from(EVERY_BACKEND))
    def test_derivative_integrates_to_zero(self, grid64, seed, backend):
        u = smooth_field(grid64, seed)
        for order in (1, 2):
            d = dlss.derivative(u, order, backend)
            assert abs(_integrate(d.grid, d.values)) < 1e-10

    @given(
        seed=st.integers(0, 2 ** 32),
        a=st.floats(-3.0, 3.0),
        b=st.floats(-3.0, 3.0),
        backend=st.sampled_from(EVERY_BACKEND),
    )
    def test_linearity(self, grid64, seed, a, b, backend):
        u = smooth_field(grid64, seed)
        v = smooth_field(grid64, seed + 999)
        combo = Field(grid64, a * u.values + b * v.values)
        lhs = dlss.derivative(combo, 2, backend).values
        rhs = a * dlss.derivative(u, 2, backend).values + b * dlss.derivative(v, 2, backend).values
        assert np.abs(lhs - rhs).max() < 1e-9 * (1.0 + abs(a) + abs(b))

    @given(seed=st.integers(0, 2 ** 32))
    def test_spectral_first_derivative_antisymmetric(self, grid64, seed):
        u = smooth_field(grid64, seed)
        v = smooth_field(grid64, seed + 7)
        du = dlss.derivative(u, 1, SPECTRAL).values
        dv = dlss.derivative(v, 1, SPECTRAL).values
        lhs = float((du * v.values).sum())
        rhs = -float((u.values * dv).sum())
        scale = max(abs(lhs), 1.0)
        assert abs(lhs - rhs) < 1e-10 * scale
