import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from staosc import classical_dynamics
from staosc.classical_analytics import adiabaticity_parameter, basic_solutions, quadratic_form
from staosc.classical_dynamics import (
    EnsembleSpec,
    ensemble_work,
    from_action_angle,
    fundamental_matrix,
    gibbs_action_angle,
    integrate,
    propagate_ensemble,
    sample_gibbs,
    to_action_angle,
    work_coefficients,
)
from staosc.errors import IntegrationError
from staosc.invariants import action_drift
from staosc.protocols import constant_protocol, cosine_ramp, omega_at, protocol_from_table
from staosc.work_statistics import classical_work_ensembles

WI = 10.0
WF = 10.0 * math.sqrt(3.0)
BETA = 0.2
FAST = cosine_ramp(WI, WF, 1e-4)


def test_action_angle_roundtrip_random():
    rng = np.random.default_rng(42)
    states = rng.normal((0.0, 0.0), (3.0, 2.0), size=(300, 2))
    for omega in rng.uniform(0.5, 40.0, size=20):
        back = from_action_angle(*to_action_angle(states, omega), omega)
        assert back.shape == states.shape
        assert np.all(np.abs(back - states) <= 1e-12 * np.maximum(1.0, np.abs(states)))


def test_action_times_omega_equals_energy():
    rng = np.random.default_rng(3)
    states = rng.normal(size=(100, 2))
    for omega in rng.uniform(0.1, 20.0, size=10):
        action, _ = to_action_angle(states, omega)
        energy = states[:, 0] ** 2 / 2.0 + 0.5 * omega**2 * states[:, 1] ** 2
        assert action * omega == pytest.approx(energy, rel=1e-12)


def test_origin_maps_to_zero_action_zero_angle():
    # atan2(-0.0, -0.0) = -pi: the signed-zero origin must still read theta = 0
    action, theta = to_action_angle([[0.0, 0.0], [-0.0, -0.0]], 5.0)
    assert np.array_equal(action, [0.0, 0.0])
    assert np.array_equal(theta, [0.0, 0.0])


def test_angle_convention():
    # theta = 0: pure positive momentum; theta = pi/2: pure positive q
    _, theta = to_action_angle([[2.0, 0.0], [0.0, 2.0]], 4.0)
    assert theta[0] == pytest.approx(0.0, abs=1e-12)
    assert theta[1] == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_constant_protocol_full_period_returns_state():
    omega = 7.0
    proto = constant_protocol(omega, 2.0 * math.pi / omega)
    state = np.array([[1.1, -0.4]])
    final = integrate(state, proto, tol=1e-12)
    assert final == pytest.approx(state, abs=1e-8)


def test_energy_conserved_at_constant_frequency():
    omega = 3.0
    proto = constant_protocol(omega, 1.234)
    state = np.array([[0.3, 1.2]])
    (p1, q1), = integrate(state, proto, tol=1e-12)
    e0 = 0.3**2 / 2 + 0.5 * omega**2 * 1.2**2
    e1 = p1**2 / 2 + 0.5 * omega**2 * q1**2
    assert e1 == pytest.approx(e0, rel=1e-10)


def test_controlled_ramp_preserves_action():
    states = np.random.default_rng(11).normal((0.0, 0.0), (2.0, 0.5), size=(50, 2))
    check = action_drift(FAST, states)
    assert check.threshold == 1e-7
    assert check.passed, check.value


def test_controlled_work_is_delta_omega_times_action():
    states = np.random.default_rng(12).normal((0.0, 0.0), (2.0, 0.5), size=(20, 2))
    finals = integrate(states, FAST, with_control=True, tol=1e-12)
    works = ensemble_work(states, finals, FAST)
    i0, _ = to_action_angle(states, WI)
    moved = i0 > 1e-12
    assert moved.sum() == 20
    assert works[moved] == pytest.approx((WF - WI) * i0[moved], rel=1e-8)


def test_liouville_area_preservation():
    # the flow is linear, so any parallelogram area is scaled by det(Phi)
    for control in (False, True):
        phi = fundamental_matrix(FAST, with_control=control)
        det = phi[0, 0] * phi[1, 1] - phi[0, 1] * phi[1, 0]
        assert det == pytest.approx(1.0, abs=1e-10)


def test_ensemble_propagation_matches_per_state_integration():
    spec = EnsembleSpec(beta=BETA, count=25, seed=5)
    states = sample_gibbs(spec, WI)
    for control in (False, True):
        finals = propagate_ensemble(states, FAST, with_control=control)
        for row0, row1 in zip(states[:10], finals[:10]):
            (p, q), = integrate(row0[None], FAST, with_control=control, tol=1e-12)
            assert row1[0] == pytest.approx(p, rel=1e-9, abs=1e-12)
            assert row1[1] == pytest.approx(q, rel=1e-9, abs=1e-12)


def test_batched_integrate_matches_per_state_solves():
    # one solve of 20 stacked points against 20 solves, both at rtol 1e-12
    states = sample_gibbs(EnsembleSpec(beta=BETA, count=20, seed=6), WI)
    for proto in (FAST, cosine_ramp(WI, WF, 0.5)):
        for control in (False, True):
            batch = integrate(states, proto, with_control=control, tol=1e-12)
            for row0, row1 in zip(states, batch):
                single = integrate(row0[None], proto, with_control=control, tol=1e-12)
                assert row1 == pytest.approx(single[0], rel=1e-9, abs=1e-12)
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        integrate(states.T, FAST)


def _phi_deviation(proto, with_control, tol=1e-12):
    """max |Phi - integrated Phi| / max |integrated Phi|.

    The integrated Phi is one batched DOP853 solve of the unit states
    (p, q) = (1, 0) and (0, 1), whose finals are its columns.
    """
    ref = integrate(np.eye(2), proto, with_control, tol=tol).T
    phi = fundamental_matrix(proto, with_control)
    return np.max(np.abs(phi - ref)) / np.max(np.abs(ref))


def test_controlled_closed_form_matches_integration():
    worst = 0.0
    for ratio in (math.sqrt(3.0), 2.0, 0.5, 4.44):
        for tau_omega_i in (1e-4, 1e-2, 1.0, 3.0, 20.0):
            proto = cosine_ramp(WI, ratio * WI, tau_omega_i / WI)
            worst = max(worst, _phi_deviation(proto, True))
    # a tabulated ramp, tau omega_i = 3, through its own interpolant
    t = np.linspace(0.0, 0.3, 9)
    table = protocol_from_table(list(zip(t, omega_at(cosine_ramp(WI, 2.0 * WI, 0.3), t))))
    worst = max(worst, _phi_deviation(table, True))
    assert worst < 1e-10


def test_controlled_fundamental_matrix_runs_no_ode(monkeypatch):
    def no_ode(*args, **kwargs):
        raise AssertionError("the controlled fundamental matrix must not integrate")

    monkeypatch.setattr(classical_dynamics, "solve_ivp", no_ode)
    phi = fundamental_matrix(FAST, with_control=True)
    assert phi[0, 0] * phi[1, 1] - phi[0, 1] * phi[1, 0] == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    omega_i=st.floats(0.5, 50.0),
    ratio=st.floats(0.25, 5.0),
    log_tau_omega_i=st.floats(-4.0, math.log10(20.0)),
)
def test_controlled_closed_form_matches_integration_property(omega_i, ratio, log_tau_omega_i):
    proto = cosine_ramp(omega_i, ratio * omega_i, 10.0**log_tau_omega_i / omega_i)
    # at tol 1e-12 the integrated reference itself is off by up to ~2e-10
    # over this box (tau omega_i ~ 17, omega_f/omega_i ~ 4.5); at 1e-13 the
    # two routes agree to 1.8e-13
    assert _phi_deviation(proto, True, tol=1e-13) < 1e-10


def test_sample_gibbs_statistics():
    spec = EnsembleSpec(beta=BETA, count=200_000, seed=77)
    states = sample_gibbs(spec, WI)
    energy = states[:, 0] ** 2 / 2 + 0.5 * WI**2 * states[:, 1] ** 2
    # <H0> = 1/beta, Var(H0) = 1/beta^2 for the classical oscillator
    se = (1.0 / BETA) / math.sqrt(spec.count)
    assert abs(energy.mean() - 1.0 / BETA) < 5.0 * se
    action = energy / WI
    se_i = (1.0 / (BETA * WI)) / math.sqrt(spec.count)
    assert abs(action.mean() - 1.0 / (BETA * WI)) < 5.0 * se_i


def test_sample_gibbs_deterministic_and_seed_sensitive():
    spec = EnsembleSpec(beta=BETA, count=1000, seed=123)
    a = sample_gibbs(spec, WI)
    b = sample_gibbs(spec, WI)
    assert np.array_equal(a, b)
    c = sample_gibbs(EnsembleSpec(beta=BETA, count=1000, seed=124), WI)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "seed,count,beta,omega", [(7, 100_000, 0.2, 10.0), (12345, 30_001, 1.3, 0.7), (3, 1, 2.0, 3.0)]
)
def test_draw_into_reused_buffers_is_bit_identical(seed, count, beta, omega):
    # the draw as Generator.exponential(scale) and uniform(0, 2 pi) made it
    spec = EnsembleSpec(beta=beta, count=count, seed=seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    oracle_action = rng.exponential(scale=1.0 / (beta * omega), size=count)
    oracle_theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    action, theta = gibbs_action_angle(spec, omega)
    assert np.array_equal(action, oracle_action) and np.array_equal(theta, oracle_theta)
    # a reused buffer's old contents and extra length leave no trace
    buffers = np.full(count + 5, math.nan), np.full(count + 5, -1.0)
    for _ in range(2):
        classical_dynamics._draw_action_angle(spec, omega, buffers[0][:count], buffers[1][:count])
        assert np.array_equal(buffers[0][:count], oracle_action)
        assert np.array_equal(buffers[1][:count], oracle_theta)


def test_sample_gibbs_maps_the_action_angle_draw():
    spec = EnsembleSpec(beta=BETA, count=1000, seed=31)
    action, theta = gibbs_action_angle(spec, WI)
    assert action.shape == theta.shape == (1000,)
    assert np.all(action >= 0.0) and np.all((theta >= 0.0) & (theta < 2.0 * math.pi))
    states = sample_gibbs(spec, WI)
    mapped = np.column_stack([
        np.sqrt(2.0 * WI * action) * np.cos(theta),
        np.sqrt(2.0 * action / WI) * np.sin(theta),
    ])
    assert np.array_equal(states, mapped)
    assert np.array_equal(from_action_angle(action, theta, WI), states)
    back_action, back_theta = to_action_angle(states, WI)
    assert back_action == pytest.approx(action, rel=1e-12)
    assert back_theta == pytest.approx(theta, rel=1e-12, abs=1e-12)


def test_work_coefficients_closed_cases():
    # controlled: W = (omega_f - omega_i) I for every angle
    a, b, c = work_coefficients(FAST, with_control=True)
    assert a == pytest.approx(WF - WI, rel=1e-13)
    assert abs(b) < 1e-12 * WF and abs(c) < 1e-12 * WF
    # sudden (Phi -> 1): W = (omega_f**2 - omega_i**2) q**2 / 2 = I a (1 - cos 2 theta)
    sudden = cosine_ramp(WI, WF, 1e-9)
    half_gap = (WF**2 - WI**2) / (2.0 * WI)
    a, b, c = work_coefficients(sudden)
    assert a == pytest.approx(half_gap, rel=1e-9)
    assert b == pytest.approx(-half_gap, rel=1e-9)
    assert abs(c) < 1e-6 * half_gap


def _basic_solution_form(proto, beta):
    """mu_plus, mu_minus and Q* from the paper's expressions in C, C', S, S'."""
    sol = basic_solutions(proto)
    C, Cd, S, Sd = sol.C_tau, sol.Cdot_tau, sol.S_tau, sol.Sdot_tau
    wi, wf = proto.omega_i, proto.omega_f
    K = (Sd**2 + wf**2 * S**2 - 1.0) / beta
    L = (Cd**2 + wf**2 * C**2 - wi**2) / (beta * wi**2)
    M = (Cd * Sd + wf**2 * C * S) / (beta * wi)
    disc = math.hypot(K - L, 2.0 * M)
    mu_plus = 0.5 * ((K + L) + disc)
    # the determinant route, wherever mu_plus > 0 can carry it
    mu_minus = (K * L - M * M) / mu_plus if mu_plus > 0.0 else 0.5 * ((K + L) - disc)
    q_star = (Sd**2 * wi**2 + wf**2 * wi**2 * S**2 + Cd**2 + wf**2 * C**2) / (2.0 * wi * wf)
    return mu_plus, mu_minus, q_star


@pytest.mark.parametrize("low, high", [(1.01, 4.0), (0.3, 0.99)], ids=["increasing", "decreasing"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(fraction=st.floats(0.0, 1.0), log_tau_omega_i=st.floats(-3.0, math.log10(30.0)))
def test_work_form_matches_the_basic_solution_expressions(low, high, fraction, log_tau_omega_i):
    # (a, b, c) off Phi against the C/S expressions: Q* within 1e-12 relative and
    # mu_pm within 1e-12 max(|mu_plus|, |mu_minus|), since the smaller one cancels
    # on fast ramps (3.3e-14 is the worst of 5,000 random draws); closer to
    # omega_f = omega_i both routes cancel to ~ulp(omega_i)/|omega_f - omega_i|
    ratio = low + (high - low) * fraction
    proto = cosine_ramp(WI, ratio * WI, 10.0**log_tau_omega_i / WI)
    mu_plus, mu_minus, q_star = _basic_solution_form(proto, BETA)
    form = quadratic_form(proto, BETA)
    scale = 1e-12 * max(abs(form.mu_plus), abs(form.mu_minus))
    assert adiabaticity_parameter(proto) == pytest.approx(q_star, rel=1e-12)
    assert form.mu_plus == pytest.approx(mu_plus, abs=scale)
    assert form.mu_minus == pytest.approx(mu_minus, abs=scale)


@pytest.mark.parametrize(
    "call",
    [
        lambda: fundamental_matrix(FAST),
        lambda: work_coefficients(FAST),
        lambda: classical_work_ensembles(FAST, EnsembleSpec(beta=BETA, count=100, seed=1)),
    ],
    ids=["fundamental_matrix", "work_coefficients", "classical_work_ensembles"],
)
def test_det_gate_rejects_a_bare_phi_off_by_5e_9(monkeypatch, call):
    # one gate, |det Phi - 1| <= 1e-9, on every Phi; 5e-9 passed the former 1e-8 gate
    drifted = np.array([[1.0 + 5e-9, 0.0], [0.0, 1.0]])
    monkeypatch.setattr(classical_dynamics, "_magnus_product", lambda *args: drifted)
    with pytest.raises(IntegrationError, match="area preservation"):
        call()


def test_bare_phi_raises_when_the_step_doublings_run_out(monkeypatch):
    # successive products that never agree: each one stretches by 1e-6 per step
    counts = []

    def never_agrees(protocol, per_interval):
        counts.append(per_interval)
        return np.diag([1.0 + 1e-6 * per_interval, 1.0 / (1.0 + 1e-6 * per_interval)])

    monkeypatch.setattr(classical_dynamics, "_magnus_product", never_agrees)
    with pytest.raises(IntegrationError, match="did not converge"):
        fundamental_matrix(FAST)
    assert len(counts) == classical_dynamics._MAX_DOUBLINGS + 1
    assert all(b == 2 * a for a, b in zip(counts, counts[1:]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    omega_i=st.floats(0.5, 50.0),
    ratio=st.floats(0.25, 5.0),
    log_tau_omega_i=st.floats(-4.0, math.log10(20.0)),
)
def test_bare_magnus_matches_integration_property(omega_i, ratio, log_tau_omega_i):
    # the box of the controlled twin, decreasing ramps included; 5.1e-13 seen
    proto = cosine_ramp(omega_i, ratio * omega_i, 10.0**log_tau_omega_i / omega_i)
    assert _phi_deviation(proto, False, tol=1e-13) < 1e-10


def _mpmath_phi(omega_i, omega_f, tau):
    """The bare cosine-ramp Phi by mpmath's Taylor-series ODE solver at 20 digits."""
    with mpmath.workdps(20):
        a2 = (mpmath.mpf(omega_f) / omega_i) ** 2
        tau = mpmath.mpf(tau)

        def field(t, y):
            w_sq = omega_i**2 * ((a2 + 1) / 2 - (a2 - 1) / 2 * mpmath.cos(mpmath.pi * t / tau))
            return [-w_sq * y[1], y[0]]

        columns = [mpmath.odefun(field, 0, start)(tau) for start in ([1, 0], [0, 1])]
        return np.array([[float(v) for v in column] for column in columns]).T


@pytest.mark.parametrize("tau_omega_i", [0.05, 1.0, 5.0])
@pytest.mark.parametrize("omega_i, omega_f", [(10.0, 20.0), (20.0, 10.0)], ids=["up", "down"])
def test_bare_magnus_matches_mpmath(omega_i, omega_f, tau_omega_i):
    # DOP853 is itself only good to about 1e-13 here.  The gate accepts a gap
    # up to 1e-12 max|Phi|, and the sixth-order error is about 1/63 of it:
    # 1.3e-14 seen at tau omega_i = 0.05 down, 2.6e-16 to 3.6e-15 elsewhere
    ref = _mpmath_phi(omega_i, omega_f, tau_omega_i / omega_i)
    phi = fundamental_matrix(cosine_ramp(omega_i, omega_f, tau_omega_i / omega_i))
    assert np.max(np.abs(phi - ref)) <= 2e-14 * np.max(np.abs(ref))


def test_bare_magnus_product_is_sixth_order():
    # each halving of the step cuts the gap between successive products by
    # 2**6 = 64 on a smooth ramp (a fourth-order step gives 16); 63-64 seen
    ramp = cosine_ramp(WI, 2.0 * WI, 1.0 / WI)
    products = [classical_dynamics._magnus_product(ramp, per) for per in (8, 16, 32, 64)]
    gaps = [np.max(np.abs(b - a)) for a, b in zip(products, products[1:])]
    assert gaps[2] > 1e-12 and all(a >= 40.0 * b for a, b in zip(gaps, gaps[1:]))


def _commutator(x, y):
    return x @ y - y @ x


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    omega_i=st.floats(0.5, 50.0),
    ratio=st.floats(0.1, 10.0),
    log_tau_omega_i=st.floats(-3.0, 3.0),
    per=st.integers(1, 64),
)
def test_magnus_exponent_matches_the_commutator_formula(omega_i, ratio, log_tau_omega_i, per):
    # Blanes et al., Phys. Rep. 470, 151 (2009): with B1 = h A2,
    # B2 = (sqrt(15)/3) h (A3 - A1), B3 = (10/3) h (A3 - 2 A2 + A1),
    # Omega = B1 + B3/12 + [-20 B1 - B3 + [B1, B2], B2 - [B1, 2 B3 + [B1, B2]]/60]/240
    ramp = cosine_ramp(omega_i, ratio * omega_i, 10.0**log_tau_omega_i / omega_i)
    seen = {}

    def record_nodes(protocol, t):
        seen["t"] = t.reshape(-1, 3)
        return omega_at(protocol, t)

    def record_exponents(alpha, beta, gamma):
        seen["omega"] = np.stack((alpha, beta, gamma, -alpha), axis=-1).reshape(-1, 2, 2)
        # only the exponent is under test, and a step of h omega >> 1 overflows cosh
        return np.tile(np.eye(2), (alpha.size, 1, 1))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classical_dynamics, "omega_at", record_nodes)
        patch.setattr(classical_dynamics, "_expm_traceless", record_exponents)
        classical_dynamics._magnus_product(ramp, per)
    h = ramp.tau / per
    for nodes, got in zip(seen["t"], seen["omega"]):
        a1, a2, a3 = (np.array([[0.0, -omega_at(ramp, t) ** 2], [1.0, 0.0]]) for t in nodes)
        b1 = h * a2
        b2 = math.sqrt(15.0) / 3.0 * h * (a3 - a1)
        b3 = 10.0 / 3.0 * h * (a3 - 2.0 * a2 + a1)
        left = -20.0 * b1 - b3 + _commutator(b1, b2)
        right = b2 - _commutator(b1, 2.0 * b3 + _commutator(b1, b2)) / 60.0
        want = b1 + b3 / 12.0 + _commutator(left, right) / 240.0
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "sign, log_d",
    [
        (-1.0, (-2.0, 0.0)),
        (1.0, (-2.0, 0.0)),
        (0.0, (-12.0, math.log10(classical_dynamics._SERIES_CUT))),
    ],
    ids=["d<0", "d>0", "|d|<cut"],
)
def test_traceless_exponential_matches_expm(sign, log_d):
    # exp [[alpha, beta], [gamma, -alpha]] in each branch of d = alpha**2 + beta gamma,
    # for |d| <= 1 (a Magnus step turns by r = sqrt|d| ~ omega h); the mixed-sign case
    # covers the series; against mpmath the closed form is good to 1.7e-15 up to
    # |d| = 100, where expm drifts to 1.5e-12
    rng = np.random.default_rng(31)
    d = 10.0 ** rng.uniform(*log_d, size=200) * (sign or rng.choice((-1.0, 1.0), size=200))
    alpha = np.sqrt(np.abs(d)) * rng.uniform(-2.0, 2.0, size=200)
    beta = rng.choice((-1.0, 1.0), size=200) * 10.0 ** rng.uniform(-3.0, 3.0, size=200)
    gamma = (d - alpha**2) / beta
    generators = np.stack((alpha, beta, gamma, -alpha), axis=-1).reshape(-1, 2, 2)
    for x, got in zip(generators, classical_dynamics._expm_traceless(alpha, beta, gamma)):
        want = expm(x)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_table_ramp_is_integrated_knot_to_knot():
    # a 200-knot PCHIP table is only C^1 at its knots; the reference is an
    # unsplit solve whose steps are capped at an eighth of the knot spacing
    t = np.linspace(0.0, 0.3, 200)
    table = protocol_from_table(list(zip(t, omega_at(cosine_ramp(WI, 2.0 * WI, 0.3), t))))
    ref = solve_ivp(
        classical_dynamics._field, (0.0, table.tau), np.eye(2).ravel(), method="DOP853",
        rtol=2.3e-14, atol=1e-17, max_step=(t[1] - t[0]) / 8.0, args=(table, False),
    ).y[:, -1].reshape(2, 2)
    phi = fundamental_matrix(table)
    assert np.max(np.abs(phi - ref)) / np.max(np.abs(ref)) < 1e-12


def test_bare_work_nonnegative_for_increasing_ramp():
    spec = EnsembleSpec(beta=BETA, count=50_000, seed=9)
    states = sample_gibbs(spec, WI)
    for proto in (FAST, cosine_ramp(WI, WF, 0.05), cosine_ramp(WI, 2.0 * WI, 1.0)):
        finals = propagate_ensemble(states, proto, with_control=False)
        works = ensemble_work(states, finals, proto)
        assert works.min() >= -1e-10


def test_sudden_ramp_leaves_state_nearly_frozen():
    # tau omega_i = 2 pi * 1e-4: the state cannot move appreciably
    proto = cosine_ramp(WI, WF, 1e-4 * 2.0 * math.pi / WI)
    (p, q), = integrate([[1.0, 0.5]], proto, tol=1e-12)
    # drift is O(omega tau) ~ 1e-3 over this interval
    assert q == pytest.approx(0.5, rel=1e-3)
    assert p == pytest.approx(1.0, rel=2e-2)


def test_invalid_states_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        rows = [[1.0, 0.5], [bad, 0.0]]
        for call in (
            lambda: integrate(rows, FAST),
            lambda: to_action_angle(rows, WI),
            lambda: propagate_ensemble(rows, FAST),
            lambda: ensemble_work(rows, [[1.0, 0.5], [1.0, 0.0]], FAST),
            lambda: ensemble_work([[1.0, 0.5], [1.0, 0.0]], rows, FAST),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()
        for action, theta in (([1.0, -1.0], 0.0), ([1.0, bad], 0.0), (1.0, [0.0, bad])):
            with pytest.raises(ValueError, match="non-negative"):
                from_action_angle(action, theta, WI)
        for omega in (bad, 0.0, -1.0):
            for call in (
                lambda: to_action_angle([[1.0, 0.5]], omega),
                lambda: from_action_angle(1.0, 0.0, omega),
                lambda: gibbs_action_angle(EnsembleSpec(beta=BETA, count=10, seed=0), omega),
            ):
                with pytest.raises(ValueError, match="omega must be positive and finite"):
                    call()
    # 1-d arrays are not (n, 2) rows, even when the shapes match
    with pytest.raises(ValueError, match=r"\(n, 2\) array"):
        ensemble_work(np.ones(2), np.ones(2), FAST)
    with pytest.raises(ValueError):
        EnsembleSpec(beta=-0.1, count=10, seed=0)


def test_angle_wraps_into_range():
    # an angle of 7 pi reads pi; the fourth-quadrant rows read 2 pi - pi/4 and 2 pi - 1e-3
    rows = np.vstack([from_action_angle(1.0, 7.0 * math.pi, WI), [[1.0, -1.0 / WI]],
                      from_action_angle(2.0, -1e-3, WI)])
    _, theta = to_action_angle(rows, WI)
    assert np.all((0.0 <= theta) & (theta < 2.0 * math.pi))
    assert theta == pytest.approx([math.pi, 1.75 * math.pi, 2.0 * math.pi - 1e-3], rel=1e-12)
    random_rows = np.random.default_rng(8).normal(size=(1000, 2))
    _, theta = to_action_angle(random_rows, WI)
    assert np.all((0.0 <= theta) & (theta < 2.0 * math.pi))
    # -1e-17 + 2 pi rounds to 2 pi, which must read 0
    _, theta = to_action_angle([[1.0, -1e-17], [1.0, -1e-300]], WI)
    assert np.array_equal(theta, [0.0, 0.0])
