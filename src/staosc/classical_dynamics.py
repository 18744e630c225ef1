"""Classical trajectories and ensembles of the driven oscillator.

The bare Hamiltonian is H0 = p**2/(2m) + m omega(t)**2 q**2 / 2.  Switching
the shortcut control on adds

    Hc = -(omega_dot / (2 omega)) * p * q,

whose flow rescale-rotates phase space so that the action I = H0/omega of
every trajectory is an exact constant of motion for arbitrarily fast ramps.
Work for a single trajectory is measured endpoint-to-endpoint,
W = H0(tau) - H0(0), which is the integral of the explicit time derivative
m omega omega_dot q**2 along the path (the control term contributes nothing
at the endpoints because omega_dot vanishes there).

Both flows are linear in (p, q) and share one vector field and one DOP853
solve; a tabulated schedule is solved from knot to knot.  The ramp's 2x2
:func:`fundamental_matrix` (integrated if bare, closed form if controlled)
characterizes the whole flow.  Work is therefore a quadratic form in the
initial state: :func:`work_coefficients` reads it off Phi in action-angle
variables, W = I (a + b cos 2 theta + c sin 2 theta), which turns a
:func:`gibbs_action_angle` draw straight into work samples.  The
phase-space route, :func:`sample_gibbs` then :func:`propagate_ensemble`
then :func:`ensemble_work`, computes the same numbers from (p, q) arrays
and is the independent check of that one; it agrees with per-trajectory
:func:`integrate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .protocols import TABLE, FrequencyProtocol, omega_at, omega_dot_at, total_phase

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhaseState:
    """A single phase-space point (momentum first)."""

    p: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError(f"phase-space coordinates must be finite: {self!r}")


@dataclass(frozen=True)
class ActionAngle:
    """Action-angle coordinates; theta is stored wrapped into [0, 2*pi)."""

    I: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.I) and math.isfinite(self.theta)):
            raise ValueError("action-angle coordinates must be finite")
        if self.I < 0.0:
            raise ValueError(f"action must be non-negative, got {self.I!r}")
        object.__setattr__(self, "theta", self.theta % _TWO_PI)


@dataclass(frozen=True)
class OscillatorParams:
    """Static oscillator constants (only the mass, in this model)."""

    m: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.m) or self.m <= 0.0:
            raise ValueError(f"mass must be positive, got {self.m!r}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Size, temperature and seed of a canonical initial ensemble."""

    beta: float
    count: int
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta!r}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count!r}")


def oscillator_energy(p, q, omega, params: OscillatorParams = OscillatorParams()):
    """Bare oscillator energy p**2/(2m) + m omega**2 q**2/2 (vectorized)."""
    return np.asarray(p) ** 2 / (2.0 * params.m) + 0.5 * params.m * omega**2 * np.asarray(q) ** 2


def to_action_angle(
    state: PhaseState, omega: float, params: OscillatorParams = OscillatorParams()
) -> ActionAngle:
    """Map (p, q) to (I, theta) at fixed frequency omega.

    Conventions: q = sqrt(2 I / (m omega)) sin(theta),
    p = sqrt(2 m omega I) cos(theta), so I = H0/omega.  The origin gets
    theta = 0 by convention.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    energy = float(oscillator_energy(state.p, state.q, omega, params))
    action = energy / omega
    if action == 0.0:
        return ActionAngle(I=0.0, theta=0.0)
    root_momega = math.sqrt(params.m * omega)
    theta = math.atan2(state.q * root_momega, state.p / root_momega)
    return ActionAngle(I=action, theta=theta)


def from_action_angle(
    aa: ActionAngle, omega: float, params: OscillatorParams = OscillatorParams()
) -> PhaseState:
    """Inverse of :func:`to_action_angle` at the same omega."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    q = math.sqrt(2.0 * aa.I / (params.m * omega)) * math.sin(aa.theta)
    p = math.sqrt(2.0 * params.m * omega * aa.I) * math.cos(aa.theta)
    return PhaseState(p=p, q=q)


def control_value(state: PhaseState, protocol: FrequencyProtocol, t: float) -> float:
    """Instantaneous value of the control term -(omega_dot/2 omega) p q."""
    w = omega_at(protocol, t)
    wd = omega_dot_at(protocol, t)
    return -(wd / (2.0 * w)) * state.p * state.q


def _field(t, y, protocol, with_control, m):
    """Phase-space velocity of one point (p, q) or two stacked as (p1, p2, q1, q2).

    Bare flow: q_dot = p/m, p_dot = -m omega**2 q.  The control adds the
    divergence-free shear (+g p, -g q) with g = omega_dot/(2 omega).
    Unrolled over Python floats, since a solve evaluates it thousands of
    times and numpy row operations take over twice as long at this size.
    """
    w = omega_at(protocol, t)
    k = -m * w * w
    g = omega_dot_at(protocol, t) / (2.0 * w) if with_control else 0.0
    if len(y) == 2:
        p, q = y.tolist()
        return [k * q + g * p, p / m - g * q]
    p1, p2, q1, q2 = y.tolist()
    return [k * q1 + g * p1, k * q2 + g * p2, p1 / m - g * q1, p2 / m - g * q2]


def _flow(y0, protocol, with_control, m, tol):
    """Stacked points y0 carried to t = tau by one DOP853 solve of :func:`_field`.

    Each point's absolute tolerance is tol times its momentum scale
    max(|p|, m omega_i |q|) in p, and that scale over m omega_i in q.
    """
    ps, qs = np.split(np.abs(y0), 2)
    mw = m * protocol.omega_i
    scale = np.maximum(np.maximum(ps, mw * qs), 1e-30)
    atol = tol * np.concatenate([scale, scale / mw])
    # A table's omega is only C^1 at its knots, and a step across one loses
    # the method's order, so a table is solved from knot to knot.
    knots = [t for t, _ in protocol.samples] if protocol.kind == TABLE else [0.0, protocol.tau]
    y = y0
    for start, stop in zip(knots[:-1], knots[1:]):
        sol = solve_ivp(_field, (start, stop), y, method="DOP853", rtol=tol,
                        atol=atol, args=(protocol, with_control, m))
        if not sol.success:
            raise IntegrationError(
                f"phase-space integration failed: {sol.message} "
                f"(kind={protocol.kind}, tau={protocol.tau}, with_control={with_control})"
            )
        y = sol.y[:, -1]
    return y


def derivative(
    state: PhaseState,
    t: float,
    protocol: FrequencyProtocol,
    with_control: bool = False,
    params: OscillatorParams = OscillatorParams(),
):
    """Phase-space velocity (p_dot, q_dot) at time t."""
    return tuple(_field(t, np.array((state.p, state.q)), protocol, with_control, params.m))


def integrate(
    initial: PhaseState,
    protocol: FrequencyProtocol,
    with_control: bool = False,
    params: OscillatorParams = OscillatorParams(),
    tol: float = 1e-10,
) -> PhaseState:
    """Propagate one state through the full ramp, t: 0 -> tau."""
    p, q = _flow((initial.p, initial.q), protocol, with_control, params.m, tol)
    return PhaseState(p=float(p), q=float(q))


def fundamental_matrix(
    protocol: FrequencyProtocol,
    with_control: bool = False,
    params: OscillatorParams = OscillatorParams(),
    tol: float = 1e-12,
) -> np.ndarray:
    """2x2 matrix Phi mapping (p, q) at t=0 to (p, q) at t=tau.

    Both flows are linear, so Phi characterizes the whole ramp.  The bare
    Phi is integrated to relative tolerance ``tol``.  The controlled one is
    exact, A(omega_f)^-1 R A(omega_i) with A(omega) = diag(1/sqrt(m omega),
    sqrt(m omega)) and R the rotation by :func:`staosc.protocols.total_phase`.
    det Phi = 1 (both flows are divergence-free) is the one accuracy gate of
    every Phi: |det Phi - 1| > 1e-9 raises IntegrationError.  For the bare
    Phi at m = 1 it is the Wronskian C S' - C' S of the basic solutions.
    """
    if with_control:
        phase = total_phase(protocol)
        c, s = math.cos(phase), math.sin(phase)
        r = math.sqrt(protocol.omega_f / protocol.omega_i)
        mw = params.m * math.sqrt(protocol.omega_i * protocol.omega_f)
        phi = np.array([[c * r, -s * mw], [s / mw, c / r]])
    else:
        # rows (p, q), columns the points started from (1, 0) and (0, 1)
        phi = _flow(np.eye(2).ravel(), protocol, False, params.m, tol).reshape(2, 2)
    det = phi[0, 0] * phi[1, 1] - phi[0, 1] * phi[1, 0]
    if abs(det - 1.0) > 1e-9:
        raise IntegrationError(
            f"fundamental matrix lost area preservation: det = {det!r}; "
            "tighten tol or inspect the protocol"
        )
    return phi


def gibbs_action_angle(spec: EnsembleSpec, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Draw a canonical ensemble at frequency omega in action-angle form.

    Returns (I, theta), each of length count.  The canonical density
    factorizes into I ~ Exp(mean 1/(beta*omega)), whatever the mass, and
    theta ~ Uniform[0, 2*pi).  The generator is counter-based (Philox keyed
    by the seed), so a given (seed, count) always yields the same arrays
    regardless of platform or call history.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    action = rng.exponential(scale=1.0 / (spec.beta * omega), size=spec.count)
    theta = rng.uniform(0.0, _TWO_PI, size=spec.count)
    return action, theta


def sample_gibbs(
    spec: EnsembleSpec, omega: float, params: OscillatorParams = OscillatorParams()
) -> np.ndarray:
    """Draw canonical-ensemble phase points at frequency omega.

    Returns an (count, 2) array with columns (p, q): the
    :func:`gibbs_action_angle` draw mapped to phase space as in
    :func:`from_action_angle`.
    """
    action, theta = gibbs_action_angle(spec, omega)
    p = np.sqrt(2.0 * params.m * omega * action) * np.cos(theta)
    q = np.sqrt(2.0 * action / (params.m * omega)) * np.sin(theta)
    return np.column_stack([p, q])


def work_coefficients(
    protocol: FrequencyProtocol,
    with_control: bool = False,
    params: OscillatorParams = OscillatorParams(),
) -> tuple[float, float, float]:
    """(a, b, c) with endpoint work W = I (a + b cos 2 theta + c sin 2 theta).

    I and theta are the action-angle coordinates of the initial state at
    omega_i.  The state is sqrt(2 I) U xi with xi = (cos theta, sin theta)
    and U = diag(sqrt(m omega_i), 1/sqrt(m omega_i)), so the final energy
    is I xi^T K xi with K = U Phi^T D_f Phi U, D_f = diag(1/m, m omega_f**2)
    and Phi the ramp's :func:`fundamental_matrix`.  Then
    a = (K11 + K22)/2 - omega_i, b = (K11 - K22)/2 and c = K12.  K does not
    depend on the mass.
    """
    phi = fundamental_matrix(protocol, with_control, params)
    root = math.sqrt(params.m * protocol.omega_i)
    phi_u = phi * np.array([root, 1.0 / root])
    k = phi_u.T @ np.diag([1.0 / params.m, params.m * protocol.omega_f**2]) @ phi_u
    return (
        float(0.5 * (k[0, 0] + k[1, 1]) - protocol.omega_i),
        float(0.5 * (k[0, 0] - k[1, 1])),
        float(k[0, 1]),
    )


def propagate_ensemble(
    states: np.ndarray,
    protocol: FrequencyProtocol,
    with_control: bool = False,
    params: OscillatorParams = OscillatorParams(),
) -> np.ndarray:
    """Push an (n, 2) array of (p, q) points through the ramp.

    Equivalent to calling :func:`integrate` on every row, but exploits the
    linearity of the flow: one fundamental matrix serves the whole
    ensemble.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != 2:
        raise ValueError("states must be an (n, 2) array of (p, q) rows")
    phi = fundamental_matrix(protocol, with_control, params)
    return states @ phi.T


def trajectory_work(
    initial: PhaseState,
    final: PhaseState,
    protocol: FrequencyProtocol,
    params: OscillatorParams = OscillatorParams(),
) -> float:
    """Endpoint work H0(final at omega_f) - H0(initial at omega_i)."""
    e_in = oscillator_energy(initial.p, initial.q, protocol.omega_i, params)
    e_out = oscillator_energy(final.p, final.q, protocol.omega_f, params)
    return float(e_out - e_in)


def ensemble_work(
    initial: np.ndarray,
    final: np.ndarray,
    protocol: FrequencyProtocol,
    params: OscillatorParams = OscillatorParams(),
) -> np.ndarray:
    """Vectorized endpoint work for paired (n, 2) state arrays."""
    initial = np.asarray(initial, dtype=float)
    final = np.asarray(final, dtype=float)
    if initial.shape != final.shape:
        raise ValueError("initial and final ensembles must have matching shapes")
    e_in = oscillator_energy(initial[:, 0], initial[:, 1], protocol.omega_i, params)
    e_out = oscillator_energy(final[:, 0], final[:, 1], protocol.omega_f, params)
    return e_out - e_in
