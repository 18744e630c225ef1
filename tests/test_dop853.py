"""The numpy DOP853 port against scipy's ``solve_ivp(method="DOP853")`` as the oracle.

The port repeats scipy's operations in scipy's order, so every accepted
step time, every state and the count of right-hand-side calls must be
equal, not merely close.  The reference solves of ``classical_dynamics``
and ``quantum_dynamics`` are checked through their own bindings, so each
compares the right-hand side, tolerances and arguments production passes.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from staosc import _dop853, classical_dynamics, quantum_dynamics
from staosc.classical_dynamics import EnsembleSpec, integrate, sample_gibbs
from staosc.errors import IntegrationError
from staosc.protocols import cosine_ramp, omega_at, protocol_from_table
from staosc.quantum_dynamics import fock_transition_matrix

WI = 10.0
EPS = np.finfo(float).eps


def _same_as_scipy(fun, t_span, y0, rtol, atol, args=()):
    """The port's solution, after requiring scipy's to be the same bit for bit."""
    got = _dop853.solve_ivp(fun, t_span, y0, rtol, atol, args)
    want = scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol, args=args)
    assert (got.success, got.message) == (want.success, want.message)
    assert got.nfev == want.nfev
    assert len(got.t) == len(want.t)
    assert np.array_equal(got.y[:, -1], want.y[:, -1])
    assert np.array_equal(got.t, want.t) and np.array_equal(got.y, want.y)
    assert got.y.dtype == want.y.dtype
    return got


def _mirrored(monkeypatch, module) -> list:
    """Route ``module.solve_ivp`` through :func:`_same_as_scipy`; the list records each solve."""
    solves = []

    def solve(fun, t_span, y0, rtol, atol, args=()):
        solves.append(_same_as_scipy(fun, t_span, y0, rtol, atol, args))
        return solves[-1]

    monkeypatch.setattr(module, "solve_ivp", solve)
    return solves


def _capped(fun, calls):
    """fun, raising once called more than ``calls`` times: a solver that
    steps on below the minimum step fails instead of hanging."""
    count = 0

    def capped(t, y):
        nonlocal count
        count += 1
        if count > calls:
            raise RuntimeError(f"more than {calls} right-hand-side calls")
        return fun(t, y)

    return capped


def _coupled(t, y, rate):
    """A nonlinear, non-autonomous test field that couples every component."""
    return -rate * y * np.cos(t) + 0.3 * y[::-1] - 0.05 * y * np.abs(y) ** 2


@pytest.mark.parametrize("rtol", [1e-10, 1e-11, 1e-12, 1e-13, 100 * EPS])
@pytest.mark.parametrize("vector_atol", [False, True], ids=["scalar-atol", "vector-atol"])
@pytest.mark.parametrize("complex_y", [False, True], ids=["real", "complex"])
def test_port_matches_scipy(rtol, vector_atol, complex_y):
    rng = np.random.default_rng(17)
    y0 = rng.normal(size=8) + (1j * rng.normal(size=8) if complex_y else 0.0)
    atol = rtol * 1e-2 * (rng.uniform(0.1, 10.0, size=8) if vector_atol else 1.0)
    sol = _same_as_scipy(_coupled, (0.0, 4.0), y0, rtol, atol, args=(1.5,))
    assert sol.success and sol.t[-1] == 4.0
    assert sol.y.dtype == (complex if complex_y else float)


def test_first_step_is_raised_to_the_minimum_step():
    # far from t = 0 the guessed first step of a stiff decay is below ten
    # spacings of t, so the step is raised to that floor, rejected and failed
    decay = _capped(lambda t, y: -1e6 * y, 1000)
    sol = _same_as_scipy(decay, (1e10, 1e10 + 1.0), [1.0], 1e-10, 1e-12)
    assert not sol.success and sol.message == _dop853.TOO_SMALL_STEP
    assert sol.nfev == 2 + 12


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-13])
@pytest.mark.parametrize("with_control", [True, False], ids=["controlled", "bare"])
@pytest.mark.parametrize("tau_omega_i", [0.05, 3.0])
def test_phase_space_batches_match_scipy(monkeypatch, tol, with_control, tau_omega_i):
    states = sample_gibbs(EnsembleSpec(beta=0.2, count=40, seed=5), WI)
    solves = _mirrored(monkeypatch, classical_dynamics)
    finals = integrate(states, cosine_ramp(WI, 2.0 * WI, tau_omega_i / WI), with_control, tol=tol)
    assert len(solves) == 1
    assert np.array_equal(finals, solves[0].y[:, -1].reshape(2, -1).T)


def test_table_ramp_knot_to_knot_matches_scipy(monkeypatch):
    t = np.linspace(0.0, 0.3, 7)
    table = protocol_from_table(list(zip(t, omega_at(cosine_ramp(WI, 2.0 * WI, 0.3), t))))
    solves = _mirrored(monkeypatch, classical_dynamics)
    integrate(np.array([[1.0, 0.0], [0.0, 1.0], [0.3, -0.2]]), table, tol=1e-12)
    assert [s.t[0] for s in solves] == list(t[:-1])
    assert [s.t[-1] for s in solves] == list(t[1:])


@pytest.mark.parametrize("dimension", [128, 256])
@pytest.mark.parametrize("with_control", [True, False], ids=["controlled", "bare"])
def test_fock_columns_match_scipy(monkeypatch, dimension, with_control):
    solves = _mirrored(monkeypatch, quantum_dynamics)
    fock_transition_matrix(cosine_ramp(WI, 2.0 * WI, 0.05), with_control, n_max=4,
                           dimension=dimension)
    assert len(solves) == 1 and solves[0].y.dtype == complex


def test_exact_steps_grow_by_the_largest_factor():
    # DOP853 integrates y' = 3 t**2 exactly: until round-off shows in the
    # error estimate, each accepted step is ten times the one before
    cube = _same_as_scipy(lambda t, y: np.full_like(y, 3.0 * t * t), (0.0, 1e6), [0.0], 1e-10, 1e-12)
    steps = np.diff(cube.t)
    assert np.allclose(steps[1:4], 10.0 * steps[:3], rtol=1e-9)
    # y' = 0 has an error estimate of exactly 0, from a first step of 1e-6
    still = _same_as_scipy(lambda t, y: np.zeros_like(y), (0.0, 1.0), [1.0], 1e-10, 1e-12)
    assert np.allclose(np.diff(still.t)[:6], 1e-6 * 10.0 ** np.arange(6), rtol=1e-9)


def test_blow_up_fails_as_in_scipy():
    # y' = y**2, y(0) = 1 reaches infinity at t = 1
    square = _capped(lambda t, y: y * y, 40_000)
    sol = _same_as_scipy(square, (0.0, 2.0), [1.0], 1e-10, 1e-12)
    assert not sol.success and sol.message == _dop853.TOO_SMALL_STEP
    assert abs(sol.t[-1] - 1.0) < 1e-6


def test_integrate_raises_when_the_solve_fails(monkeypatch):
    monkeypatch.setattr(classical_dynamics, "_field", lambda t, y, protocol, with_control: y * y)
    with pytest.raises(IntegrationError, match="Required step size is less than spacing"):
        integrate([[1.0, 1.0]], cosine_ramp(1.0, 2.0, 2.0))


def test_rtol_below_100_machine_epsilons_is_rejected():
    with pytest.raises(ValueError, match="below 100 machine epsilons"):
        _dop853.solve_ivp(_coupled, (0.0, 1.0), [1.0, 2.0], 99 * EPS, 0.0, args=(1.0,))
    with pytest.raises(ValueError, match="below 100 machine epsilons"):
        integrate([[1.0, 0.0]], cosine_ramp(WI, 2.0 * WI, 0.1), tol=1e-15)


@pytest.mark.parametrize(
    "t_span, y0, atol, message",
    [
        ((1.0, 0.5), [1.0, 2.0], 1e-12, r"t_span must increase, got \(1.0, 0.5\)"),
        ((1.0, 1.0), [1.0, 2.0], 1e-12, "t_span must increase"),
        ((0.0, 1.0), np.ones((2, 2)), 1e-12, r"y0 must be a non-empty 1-d array, got shape \(2, 2\)"),
        ((0.0, 1.0), np.empty(0), 1e-12, "y0 must be a non-empty 1-d array"),
        ((0.0, 1.0), [1.0, math.nan], 1e-12, "every component of y0 must be finite"),
        ((0.0, 1.0), [1.0, 2.0], [1e-12] * 3, r"atol must be a scalar or of shape \(2,\)"),
        ((0.0, 1.0), [1.0, 2.0], [1e-12, -1e-12], "atol must be non-negative"),
    ],
)
def test_bad_inputs_are_rejected(t_span, y0, atol, message):
    with pytest.raises(ValueError, match=message):
        _dop853.solve_ivp(_coupled, t_span, y0, 1e-10, atol, args=(1.0,))
