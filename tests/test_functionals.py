import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dlss
from dlss import FD2, Field, FieldKind
from dlss.functionals import _sums
from dlss.rng import random_log_density

TWO_PI = 2.0 * math.pi

# Reference values computed independently with 30-digit arithmetic.
E_REL_COS01 = 0.015727663980405879       # int u log u, u = 1 + 0.1 cos x, L = 2 pi (u_bar = 1)
E_ABS_COS01 = -6.267457643199180598      # same u, int u (log u - 1)
PRODUCTION_EXPCOS = 4.403927142588483381  # u = exp(cos x): pi (I0(1) + I2(1))
SQRT_PART_EXPCOS = 4.190695201547453009
QUARTIC_PART_EXPCOS = 0.213231941041030372
LYAP_CONST2 = 8.211198433751968693       # u = 2: 2 pi (2 - log 2)


@pytest.fixture(scope="module")
def cos_density(grid256):
    return Field(grid256, 1.0 + 0.1 * np.cos(grid256.nodes), FieldKind.DENSITY)


@pytest.fixture(scope="module")
def expcos_density(grid256):
    return Field(grid256, np.exp(np.cos(grid256.nodes)), FieldKind.DENSITY)


class TestEntropies:
    def test_relative_entropy_reference_value(self, cos_density):
        got = dlss.report(cos_density).entropy_rel
        assert got == pytest.approx(E_REL_COS01, rel=1e-13)

    def test_absolute_entropy_reference_value(self, cos_density):
        got = dlss.report(cos_density).entropy_abs
        assert got == pytest.approx(E_ABS_COS01, rel=1e-13)

    def test_relative_vs_absolute_affine_relation(self, cos_density):
        # int u log(u/c) = int u (log u - 1) + mass (1 - log c), at c = u_bar
        rep = dlss.report(cos_density)
        u_bar = rep.mass / cos_density.grid.length
        rhs = rep.entropy_abs + rep.mass * (1.0 - math.log(u_bar))
        assert rep.entropy_rel == pytest.approx(rhs, rel=1e-12)

    def test_constant_density_has_zero_relative_entropy(self, grid64):
        u = Field(grid64, np.full(64, 1.7), FieldKind.DENSITY)
        assert abs(dlss.report(u).entropy_rel) < 1e-14

    @given(seed=st.integers(0, 2 ** 32))
    def test_jensen_nonnegativity(self, grid64, seed):
        u = random_log_density(grid64, 8, seed)
        assert dlss.report(u).entropy_rel >= -1e-13

    def test_rejects_nonpositive_density(self, grid64):
        vals = np.ones(64)
        vals[0] = 0.0
        with pytest.raises(dlss.NonPositiveDensity):
            dlss.report(Field(grid64, vals))


class TestLyapunov:
    def test_reference_value(self, grid64):
        u = Field(grid64, np.full(64, 2.0), FieldKind.DENSITY)
        assert dlss.report(u).lyap_u_minus_logu == pytest.approx(LYAP_CONST2, rel=1e-13)

    @given(seed=st.integers(0, 2 ** 32))
    def test_bounded_below_by_length(self, grid64, seed):
        # s - log s >= 1 pointwise, so the integral is at least L
        u = random_log_density(grid64, 8, seed)
        assert dlss.report(u).lyap_u_minus_logu >= grid64.length - 1e-12


class TestProduction:
    def test_reference_value(self, expcos_density):
        got = dlss.report(expcos_density).production
        assert got == pytest.approx(PRODUCTION_EXPCOS, rel=1e-13)

    def test_decomposition_reference_values(self, expcos_density):
        rep = dlss.report(expcos_density)
        assert rep.production_sqrt_part == pytest.approx(SQRT_PART_EXPCOS, rel=1e-13)
        assert rep.production_quartic_part == pytest.approx(QUARTIC_PART_EXPCOS, rel=1e-13)

    @given(seed=st.integers(0, 2 ** 32))
    def test_decomposition_sums_to_production(self, grid128, seed):
        rep = dlss.report(random_log_density(grid128, 12, seed))
        total = rep.production_sqrt_part + rep.production_quartic_part
        assert rep.production == pytest.approx(total, rel=1e-10)

    @given(seed=st.integers(0, 2 ** 32))
    def test_parts_nonnegative(self, grid64, seed):
        rep = dlss.report(random_log_density(grid64, 8, seed))
        assert rep.production_sqrt_part >= 0.0
        assert rep.production_quartic_part >= 0.0
        assert rep.production >= 0.0

    def test_constant_density_produces_nothing(self, grid64):
        u = Field(grid64, np.full(64, 0.3), FieldKind.DENSITY)
        assert abs(dlss.report(u).production) < 1e-13

    def test_fd_backend_converges_to_spectral(self):
        errs = []
        for n in (64, 128):
            g = dlss.make_grid(TWO_PI, n)
            u = Field(g, np.exp(np.cos(g.nodes)), FieldKind.DENSITY)
            errs.append(abs(dlss.report(u, FD2).production - PRODUCTION_EXPCOS))
        rate = math.log2(errs[0] / errs[1])
        assert abs(rate - 2.0) < 0.3


class TestReport:
    def test_fields_match_the_integrals_written_out(self, cos_density):
        rep = dlss.report(cos_density)
        u, grid = cos_density.values, cos_density.grid
        d2y = dlss.derivative(Field(grid, np.log(u), FieldKind.GENERIC), 2).values
        integral = lambda values: grid.spacing * values.sum()
        u_bar = integral(u) / grid.length
        assert rep.mass == pytest.approx(TWO_PI, rel=1e-14)
        assert rep.entropy_rel == pytest.approx(
            integral(u * (np.log(u) - np.log(u_bar))), rel=1e-14
        )
        assert rep.entropy_abs == pytest.approx(integral(u * (np.log(u) - 1.0)), rel=1e-14)
        assert rep.lyap_u_minus_logu == pytest.approx(integral(u - np.log(u)), rel=1e-14)
        assert rep.production == pytest.approx(integral(u * d2y ** 2), rel=1e-14)

    def test_decomposition_gap_small_on_smooth_density(self, expcos_density):
        rep = dlss.report(expcos_density)
        assert rep.decomposition_gap < 1e-12


class TestSums:
    @pytest.mark.parametrize("n", [8, 64, 256, 2048])
    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_block_rows_give_the_bits_of_lone_rows(self, rows, n):
        # the solver's records reduce blocks of levels and report one
        # density: the same row must give the same bits either way
        grid = dlss.make_grid(TWO_PI, n)
        rng = np.random.default_rng(1000 * rows + n)
        y = rng.normal(scale=0.5, size=(rows, n))
        ey, d2y = np.exp(y), rng.normal(size=(rows, n))
        block = _sums(grid, ey, y, d2y)
        for r in range(rows):
            lone = _sums(grid, ey[r], y[r], d2y[r])
            for got, want in zip(block, lone):
                assert got[r].tobytes() == want.tobytes()
