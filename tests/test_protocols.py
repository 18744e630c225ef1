import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from staosc.protocols import (
    cosine_ramp,
    omega_at,
    omega_dot_at,
    protocol_from_table,
    total_phase,
    validate,
)

WI = 10.0
WF = 10.0 * math.sqrt(3.0)


def test_cosine_ramp_endpoints_exact():
    proto = cosine_ramp(WI, WF, 1e-4)
    assert omega_at(proto, 0.0) == pytest.approx(WI, abs=0.0)
    assert omega_at(proto, proto.tau) == pytest.approx(WF, rel=1e-15)


def test_cosine_ramp_midpoint_value():
    # omega(tau/2)^2 = omega_i^2 (a^2+1)/2 -> 10*sqrt(2) for a^2 = 3
    proto = cosine_ramp(WI, WF, 2.0)
    assert omega_at(proto, 1.0) == pytest.approx(10.0 * math.sqrt(2.0), rel=1e-14)


def test_cosine_ramp_endpoint_slopes_vanish():
    proto = cosine_ramp(WI, WF, 1e-4)
    tol = 1e-10 * WI / proto.tau
    assert abs(omega_dot_at(proto, 0.0)) <= tol
    assert abs(omega_dot_at(proto, proto.tau)) <= tol


def test_omega_dot_matches_finite_differences():
    proto = cosine_ramp(WI, WF, 0.37)
    ts = np.linspace(0.05, 0.32, 9)
    h = 1e-7
    for t in ts:
        fd = (omega_at(proto, t + h) - omega_at(proto, t - h)) / (2.0 * h)
        assert omega_dot_at(proto, t) == pytest.approx(fd, rel=1e-6)


def test_omega_monotone_increasing_for_upward_ramp():
    proto = cosine_ramp(WI, WF, 1.0)
    grid = np.linspace(0.0, 1.0, 500)
    w = omega_at(proto, grid)
    assert np.all(np.diff(w) >= 0.0)


def test_domain_error_outside_interval():
    for proto in (cosine_ramp(WI, WF, 1.0), cosine_ramp(WI, WI, 1.0)):
        for fn in (omega_at, omega_dot_at):
            for t in (-0.1, 1.1, 2.0, 1.0 + 2e-9, np.float64(-2e-9)):
                with pytest.raises(ValueError, match="outside protocol domain"):
                    fn(proto, t)
            for t in (math.nan, math.inf, -math.inf, np.float64("nan")):
                with pytest.raises(ValueError, match="must be finite"):
                    fn(proto, t)


def test_scalar_path_matches_array_path_exactly():
    # A float t is evaluated with math, an array with numpy: the two must
    # agree bit for bit, overshoot inside the 1e-9 tau slack included.
    rng = np.random.default_rng(7)
    for proto in (
        cosine_ramp(WI, WF, 1e-4),
        cosine_ramp(WF, WI, 0.37),
        cosine_ramp(WI, WI, 5.0),
    ):
        slack = 1e-9 * proto.tau
        ts = np.concatenate(
            [
                rng.uniform(0.0, proto.tau, 2000),
                [0.0, proto.tau, -slack, -0.5 * slack, proto.tau + 0.5 * slack,
                 proto.tau + slack],
            ]
        )
        for fn in (omega_at, omega_dot_at):
            for t, expected in zip(ts, fn(proto, ts)):
                for scalar in (float(t), np.float64(t)):
                    value = fn(proto, scalar)
                    assert type(value) is float
                    assert value == expected, (proto.kind, fn.__name__, scalar)


def test_flat_ramp_is_a_valid_schedule():
    proto = cosine_ramp(WI, WI, 5.0)
    grid = np.linspace(0.0, 5.0, 50)
    assert np.all(omega_at(proto, grid) == WI)
    assert np.all(omega_dot_at(proto, grid) == 0.0)
    assert validate(proto).passed


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    omega=st.floats(1e-3, 1e3),
    tau=st.floats(1e-4, 1e3),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_flat_ramp_is_exactly_constant(omega, tau, fractions):
    # a held frequency is cosine_ramp(omega, omega, tau): a2 = 1 cancels the
    # cosine term, so omega(t) is omega and omega_dot(t) is 0 to the bit
    proto = cosine_ramp(omega, omega, tau)
    ts = np.minimum(np.array(fractions) * tau, tau)
    for t in ts:
        assert omega_at(proto, float(t)) == omega
        assert omega_dot_at(proto, float(t)) == 0.0
    assert np.all(omega_at(proto, ts) == omega)
    assert np.all(omega_dot_at(proto, ts) == 0.0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        cosine_ramp(-1.0, WF, 1.0)
    with pytest.raises(ValueError):
        cosine_ramp(WI, WF, 0.0)
    with pytest.raises(ValueError):
        cosine_ramp(0.0, 0.0, 1.0)


def test_validation_passes_for_cosine_ramp():
    report = validate(cosine_ramp(WI, WF, 1e-4))
    assert report.passed
    assert not report.warnings


def test_validation_warns_on_decreasing_ramp():
    report = validate(cosine_ramp(WF, WI, 1e-4))
    assert report.passed  # warnings only
    assert any("monoton" in w for w in report.warnings)


def test_table_reproduces_cosine_ramp():
    src = cosine_ramp(WI, WF, 1.0)
    t = np.linspace(0.0, 1.0, 200)
    table = protocol_from_table(list(zip(t, omega_at(src, t))))
    assert validate(table).passed
    grid = np.linspace(0.0, 1.0, 1500)
    rel = np.abs(omega_at(table, grid) - omega_at(src, grid)) / omega_at(src, grid)
    # monotone cubic interpolation error at this sampling; a denser table
    # tightens it quadratically (see the 800-point case below)
    assert np.max(rel) < 1e-5

    t_dense = np.linspace(0.0, 1.0, 800)
    dense = protocol_from_table(list(zip(t_dense, omega_at(src, t_dense))))
    assert validate(dense).passed
    rel_dense = np.abs(omega_at(dense, grid) - omega_at(src, grid)) / omega_at(src, grid)
    assert np.max(rel_dense) < 1e-6


_TABLE_T = np.linspace(0.0, 0.3, 9)


@pytest.mark.parametrize(
    "proto",
    [
        cosine_ramp(WI, WF, 0.3),
        cosine_ramp(2.0 * WI, WI, 0.3),
        cosine_ramp(WI, WI, 0.3),
        protocol_from_table(
            list(zip(_TABLE_T, omega_at(cosine_ramp(WI, 2.0 * WI, 0.3), _TABLE_T)))
        ),
    ],
    ids=["up", "down", "constant", "table"],
)
def test_total_phase_matches_quadrature(proto):
    knots = [t for t, _ in proto.samples[1:-1]] if proto.samples else None
    ref, _ = quad(
        lambda t: omega_at(proto, t),
        0.0,
        proto.tau,
        points=knots,
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    assert total_phase(proto) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_table_with_sloped_start_fails_validation():
    t = np.linspace(0.0, 1.0, 120)
    w = WI + 0.5 * t + 1.5 * t**2
    report = validate(protocol_from_table(list(zip(t, w))))
    assert not report.passed
    assert any("omega_dot(0)" in e for e in report.errors)


def test_table_rejects_bad_data():
    with pytest.raises(ValueError):
        protocol_from_table([(0.0, 1.0), (1.0, 2.0)])  # too few points
    with pytest.raises(ValueError):
        protocol_from_table([(0.1, 1.0), (0.2, 1.1), (0.3, 1.2), (0.4, 1.3)])  # t0 != 0
    with pytest.raises(ValueError):
        protocol_from_table([(0.0, 1.0), (0.2, -1.1), (0.3, 1.2), (0.4, 1.3)])


def test_validation_catches_interior_zero_crossing():
    # dip through zero in the middle of the table
    t = np.linspace(0.0, 1.0, 41)
    w = 1.0 + 0.0 * t
    w[15:26] = np.linspace(1.0, -0.2, 11)[: 11]
    w[25:] = 1.0
    # table constructor itself refuses non-positive sample values
    with pytest.raises(ValueError):
        protocol_from_table(list(zip(t, w)))
