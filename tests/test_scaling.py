"""Exact scale covariance.

On a circle of length 2^k L every length-carrying quantity scales by a
power of two, which floating point applies exactly.  So a computation with
no absolute constant in it gives, once that power is taken out, the bits
it gives at k = 0; an absolute constant (a stop floor of 1e-14 where the
quotient is 1e-14 itself) shows up as a result that moves with k.
"""

import math

import numpy as np
import pytest
from conftest import spec_id

import dlss
from dlss import Field, FieldKind, QuotientKind
from dlss.inequalities import _evaluate, convex_sobolev, log_sobolev, poincare

TWO_PI = 2.0 * math.pi
POWERS = [-8, -4, 4, 8]
SPECS = [poincare(n) for n in (1, 2, 3)] + [log_sobolev(n) for n in (1, 2, 3)] + [
    convex_sobolev(p) for p in (1.2, 1.5, 2.0)
]


def circle(k, n_points=64):
    return dlss.make_grid(2.0 ** k * TWO_PI, n_points)


def order(spec):
    """The quotient of ``spec`` scales as L^(-2 order)."""
    return 1 if spec.kind is QuotientKind.CONVEX_SOBOLEV else spec.n


def datum(n_points=64):
    """One positive random field, admissible for every quotient and flow."""
    return np.random.default_rng(2024).uniform(0.5, 1.5, n_points)


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_quotient_scales_exactly(spec):
    values = datum()
    q0 = _evaluate(spec, values, circle(0))[0]
    for k in POWERS:
        q = _evaluate(spec, values, circle(k))[0]
        assert q * 2.0 ** (2 * order(spec) * k) == q0, k


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_heat_flow_scales_exactly(p):
    # time scales as L^2, f as 1/L and its production as 1/L^3
    values = datum()
    base = dlss.heatflow_verify(Field(circle(0), values, FieldKind.DENSITY), p, 0.5, 1e-3)
    for k in POWERS:
        u = Field(circle(k), values, FieldKind.DENSITY)
        flow = dlss.heatflow_verify(u, p, 0.5 * 4.0 ** k, 1e-3 * 4.0 ** k)
        assert np.array_equal(flow.t / 4.0 ** k, base.t), k
        assert np.array_equal(flow.f_value * 2.0 ** k, base.f_value), k
        assert np.array_equal(flow.dissipation * 8.0 ** k, base.dissipation), k


@pytest.mark.parametrize("n_points", [64, 256])
@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_certificate_does_not_depend_on_length(spec, n_points):
    # Poincare and convex p = 2 certify to rounding; log-Sobolev and convex
    # p < 2 certify the infimum at amplitude 1e-3, up to 2e-7 above the
    # constant.  With an absolute stop floor, Poincare and log-Sobolev
    # n = 3 read 4e-2 off at k = 8.
    exact = spec.kind is QuotientKind.POINCARE or spec == convex_sobolev(2.0)
    for seeds in ((0, 1, 2), (3, 4, 5)):
        base = dlss.certify_constant(spec, circle(0, n_points), seeds)
        for k in [0, *POWERS]:
            res = dlss.certify_constant(spec, circle(k, n_points), seeds)
            assert res.converged, (seeds, k)
            assert res.rel_error < (1e-12 if exact else 2e-7), (seeds, k, res.rel_error)
            if spec.kind is QuotientKind.POINCARE:
                # nothing in the Poincare descent is absolute: the same path
                # to the same bits.  Log-Sobolev and convex iterations still
                # move by -1 to +3 with k, so they are not gated here.
                assert res.iterations == base.iterations, (seeds, k)
                assert res.value * 2.0 ** (2 * spec.n * k) == base.value, (seeds, k)
