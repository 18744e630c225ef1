"""Classical trajectories and ensembles of the driven oscillator.

The bare Hamiltonian is H0 = p**2/2 + omega(t)**2 q**2 / 2, at unit mass
throughout: a mass m only rescales q -> sqrt(m) q and p -> p/sqrt(m), and
no work law, action or efficiency depends on it.  Switching the shortcut
control on adds

    Hc = -(omega_dot / (2 omega)) * p * q,

whose flow rescale-rotates phase space so that the action I = H0/omega of
every trajectory is an exact constant of motion for arbitrarily fast ramps.
Work for a single trajectory is measured endpoint-to-endpoint,
W = H0(tau) - H0(0), which is the integral of the explicit time derivative
omega omega_dot q**2 along the path (the control term contributes nothing
at the endpoints because omega_dot vanishes there).

Both flows are linear in (p, q), so the ramp's 2x2
:func:`fundamental_matrix` Phi characterizes the whole flow.  The
controlled Phi is a closed form.  The bare Phi is a sixth-order Magnus
product of exact 2x2 exponentials, accepted by step doubling and with no
ODE solve.  Work is therefore a quadratic form in the initial state, in
action-angle variables W = I (a + b cos 2 theta + c sin 2 theta), which
turns a :func:`gibbs_action_angle` draw straight into work samples:
:func:`work_coefficients` reads (a, b, c) off the bare Phi, and the
controlled ones are (omega_f - omega_i, 0, 0), since the action is
conserved.

Phase-space state is always an (n, 2) array of (p, q) rows, and
:func:`to_action_angle` / :func:`from_action_angle` map it to and from the
(I, theta) arrays.  :func:`integrate` is the reference: one adaptive DOP853
solve of one vector field carries the rows through either flow; a
tabulated schedule is solved from knot to knot.  The phase-space route,
:func:`sample_gibbs` then :func:`propagate_ensemble` then
:func:`ensemble_work`, computes the same numbers from (p, q) arrays and is
the independent check of the work form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, require_int, require_positive
from .protocols import TABLE, FrequencyProtocol, omega_at, omega_dot_at, total_phase

_TWO_PI = 2.0 * math.pi
#: Steps of the bare Magnus product built and reduced at a time.
_MAGNUS_CHUNK = 4096
#: Step doublings after which a bare Phi that has not converged raises; ramps
#: with omega_f/omega_i from 0.1 to 10 and tau omega_i from 1e-4 to 1e3 need 1-5.
_MAX_DOUBLINGS = 12
#: Relative agreement of successive bare Magnus products that accepts the finer one.
_PHI_TOL = 1e-12
#: Below this |d| the 2x2 step exponential uses the Taylor series in d.
_SERIES_CUT = 1e-2
#: The 3-point Gauss nodes on [0, 1], and the weight sqrt(15)/3 of the first moment.
_GAUSS = np.array((0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0))
_SQRT15_3 = math.sqrt(15.0) / 3.0
#: The generator of every Gibbs draw, as the `generator` entry of `summary.json` records it.
GIBBS_GENERATOR = (
    "numpy SFC64 on SeedSequence(seed).spawn(2), U = random(): "
    "actions log1p(-U) * (-1/(beta omega)), angles U * 2 pi"
)


@dataclass(frozen=True)
class EnsembleSpec:
    """Size, temperature and seed of a canonical initial ensemble."""

    beta: float
    count: int
    seed: int

    def __post_init__(self):
        require_positive(beta=self.beta)
        require_int(1, count=self.count)
        require_int(0, seed=self.seed)


def oscillator_energy(p, q, omega):
    """Bare oscillator energy p**2/2 + omega**2 q**2/2 (vectorized)."""
    return np.asarray(p) ** 2 / 2.0 + 0.5 * omega**2 * np.asarray(q) ** 2


def _rows(states) -> np.ndarray:
    """``states`` as an (n, 2) float array of finite (p, q) rows."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != 2:
        raise ValueError("states must be an (n, 2) array of (p, q) rows")
    if not np.all(np.isfinite(states)):
        raise ValueError("phase-space coordinates must be finite")
    return states


def to_action_angle(states, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Map (n, 2) rows of (p, q) to the arrays (I, theta) at fixed frequency omega.

    Conventions: q = sqrt(2 I / omega) sin(theta),
    p = sqrt(2 omega I) cos(theta), so I = H0/omega.  theta lies in
    [0, 2 pi), and a row at the origin gets theta = 0.
    """
    require_positive(omega=omega)
    p, q = _rows(states).T
    action = oscillator_energy(p, q, omega) / omega
    root_omega = math.sqrt(omega)
    theta = np.arctan2(q * root_omega, p / root_omega) % _TWO_PI
    # a tiny negative angle wraps to 2 pi itself in floating point
    return action, np.where((action == 0.0) | (theta == _TWO_PI), 0.0, theta)


def from_action_angle(action, theta, omega: float) -> np.ndarray:
    """Inverse of :func:`to_action_angle` at the same omega: the (n, 2) rows of (p, q)."""
    require_positive(omega=omega)
    action, theta = np.asarray(action, dtype=float), np.asarray(theta, dtype=float)
    if not (np.all((action >= 0.0) & (action < math.inf)) and np.all(np.isfinite(theta))):
        raise ValueError("actions must be finite and non-negative, and angles finite")
    p = np.sqrt(2.0 * omega * action) * np.cos(theta)
    q = np.sqrt(2.0 * action / omega) * np.sin(theta)
    return np.column_stack([p, q])


def _field(t, y, protocol, with_control):
    """Phase-space velocity of n points stacked as (p_1..p_n, q_1..q_n).

    The flow is linear, (p_dot, q_dot) = A (p, q) with A = [[g, -omega**2],
    [1, -g]]: the bare flow has g = 0, and the control adds the
    divergence-free shear with g = omega_dot/(2 omega).
    """
    w = omega_at(protocol, t)
    g = omega_dot_at(protocol, t) / (2.0 * w) if with_control else 0.0
    return (np.array(((g, -w * w), (1.0, -g))) @ y.reshape(2, -1)).ravel()


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, with scipy.integrate imported on the first call.

    Every DOP853 solve of this module calls this binding, which
    perfbench/layers.py replaces to count the solves of this layer.
    """
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def _knots(protocol: FrequencyProtocol) -> list[float]:
    """[0, tau], or a table's knot times: its omega is only C^1 at the knots."""
    return [t for t, _ in protocol.samples] if protocol.kind == TABLE else [0.0, protocol.tau]


def integrate(states, protocol: FrequencyProtocol, with_control: bool = False, tol: float = 1e-10):
    """Propagate (n, 2) rows of (p, q) through the full ramp, t: 0 -> tau, by adaptive DOP853.

    One solve carries every row and returns the (n, 2) final rows.  Each
    point's absolute tolerance is tol times its momentum scale
    max(|p|, omega_i |q|) in p, and that scale over omega_i in q.
    A step across a table knot loses the method's order, so a table is
    solved from knot to knot.
    """
    require_positive(tol=tol)
    states = _rows(states)
    w = protocol.omega_i
    scale = np.maximum(np.maximum(np.abs(states[:, 0]), w * np.abs(states[:, 1])), 1e-30)
    atol = tol * np.concatenate([scale, scale / w])
    y = states.T.ravel()
    knots = _knots(protocol)
    for start, stop in zip(knots[:-1], knots[1:]):
        sol = solve_ivp(_field, (start, stop), y, method="DOP853", rtol=tol,
                        atol=atol, args=(protocol, with_control))
        if not sol.success:
            raise IntegrationError(
                f"phase-space integration failed: {sol.message} "
                f"(kind={protocol.kind}, tau={protocol.tau}, with_control={with_control})"
            )
        y = sol.y[:, -1]
    return y.reshape(2, -1).T


def _expm_traceless(alpha, beta, gamma):
    """exp X for the traceless steps X = [[alpha, beta], [gamma, -alpha]], as (n, 2, 2).

    X**2 = d I with d = alpha**2 + beta gamma, so exp X = ch I + sh X, where
    r = sqrt|d| and (ch, sh) = (cos r, sin r / r) for d < 0, (cosh r,
    sinh r / r) for d > 0, and their Taylor series in d for |d| below
    :data:`_SERIES_CUT` (truncation under 3e-17 there).
    """
    d = alpha * alpha + beta * gamma
    r = np.sqrt(np.abs(d))
    ch, sh = np.cos(r), np.sin(r)
    up = d > 0.0
    if up.any():
        ch[up], sh[up] = np.cosh(r[up]), np.sinh(r[up])
    small = np.abs(d) < _SERIES_CUT
    sh /= np.where(small, 1.0, r)
    if small.any():
        e = d[small]
        ch[small] = 1.0 + e / 2.0 * (1.0 + e / 12.0 * (1.0 + e / 30.0 * (1.0 + e / 56.0)))
        sh[small] = 1.0 + e / 6.0 * (1.0 + e / 20.0 * (1.0 + e / 42.0 * (1.0 + e / 72.0)))
    entries = (ch + sh * alpha, sh * beta, sh * gamma, ch - sh * alpha)
    return np.stack(entries, axis=-1).reshape(-1, 2, 2)


def _ordered_product(steps):
    """steps[n-1] @ ... @ steps[0] of an (n, 2, 2) array, by pairwise matmul."""
    while len(steps) > 1:
        odd = len(steps) % 2
        paired = steps[1 : len(steps) - odd : 2] @ steps[0 : len(steps) - odd : 2]
        steps = np.concatenate((paired, steps[-1:])) if odd else paired
    return steps[0]


def _magnus_product(protocol: FrequencyProtocol, per_interval: int) -> np.ndarray:
    """Bare Phi as a sixth-order Magnus product of per_interval equal steps per knot interval.

    On a step [t, t + h] with omega**2 = w1, w2, w3 at the 3-point Gauss
    nodes, A = [[0, -omega**2], [1, 0]] has the moments B1 = h A2 = (0, b1, h),
    B2 = (sqrt(15)/3) h (A3 - A1) = (0, b2, 0), B3 = (10/3) h (A3 - 2 A2 + A1)
    = (0, b3, 0) as (alpha, beta, gamma), and Omega = B1 + B3/12 + [L, R]/240
    with L = [B1, B2] - 20 B1 - B3, R = B2 - [B1, 2 B3 + [B1, B2]]/60 (Blanes
    et al., Phys. Rep. 470, 151 (2009)).  A commutator of two such triples is
    again one, which gives the closed form below.  Steps are built and reduced
    :data:`_MAGNUS_CHUNK` at a time, so memory does not grow with the count.
    """
    knots = np.array(_knots(protocol))
    widths = np.diff(knots)
    total = len(widths) * per_interval
    phi = np.eye(2)
    for first in range(0, total, _MAGNUS_CHUNK):
        step = np.arange(first, min(first + _MAGNUS_CHUNK, total))
        interval, sub = np.divmod(step, per_interval)
        h = widths[interval] / per_interval
        nodes = (knots[interval] + h * sub)[:, None] + h[:, None] * _GAUSS
        w1, w2, w3 = (omega_at(protocol, nodes.ravel()).reshape(-1, 3) ** 2).T
        b1, b2, b3 = -h * w2, -_SQRT15_3 * h * (w3 - w1), -10.0 / 3.0 * h * (w3 - 2.0 * w2 + w1)
        a_l, b_l, c_l = -h * b2, -20.0 * b1 - b3, -20.0 * h
        a_r, b_r, c_r = h * b3 / 30.0, b2 - h * b1 * b2 / 30.0, h * h * b2 / 30.0
        steps = _expm_traceless(
            (b_l * c_r - b_r * c_l) / 240.0,
            b1 + b3 / 12.0 + (a_l * b_r - a_r * b_l) / 120.0,
            h + (c_l * a_r - a_l * c_r) / 120.0,
        )
        phi = _ordered_product(steps) @ phi
    return phi


def _bare_phi(protocol: FrequencyProtocol) -> np.ndarray:
    """The bare Phi from :func:`_magnus_product`, accepted by step doubling.

    Starting from about 8 + 2 tau max(omega) steps (max over the knots,
    which bound omega between them), the step count doubles until two
    successive products agree to :data:`_PHI_TOL` max|Phi|; the finer one
    is returned, its error about a sixty-fourth of that gap.
    """
    knots = _knots(protocol)
    reach = protocol.tau * np.max(omega_at(protocol, np.array(knots)))
    per = max(1, math.ceil((8.0 + 2.0 * reach) / (len(knots) - 1)))
    coarse = _magnus_product(protocol, per)
    for _ in range(_MAX_DOUBLINGS):
        per *= 2
        fine = _magnus_product(protocol, per)
        gap = np.max(np.abs(fine - coarse)) / np.max(np.abs(fine))
        if gap <= _PHI_TOL:
            return fine
        coarse = fine
    raise IntegrationError(
        f"bare fundamental matrix did not converge in {_MAX_DOUBLINGS} step doublings: "
        f"relative gap {gap!r} > {_PHI_TOL!r} at {per} steps per knot interval "
        f"(kind={protocol.kind}, tau={protocol.tau})"
    )


def fundamental_matrix(protocol: FrequencyProtocol, with_control: bool = False) -> np.ndarray:
    """2x2 matrix Phi mapping (p, q) at t=0 to (p, q) at t=tau.

    Both flows are linear, so Phi characterizes the whole ramp.  The
    controlled Phi is exact, A(omega_f)^-1 R A(omega_i) with A(omega) =
    diag(1/sqrt(omega), sqrt(omega)) and R the rotation by
    :func:`staosc.protocols.total_phase`.  The bare Phi is a sixth-order
    Magnus product whose step count doubles until the products at n and 2n
    steps agree to :data:`_PHI_TOL` max|Phi| (steps align with a table's knots);
    :data:`_MAX_DOUBLINGS` doublings without agreement raise
    IntegrationError.  Every step is an exact exponential of a traceless
    matrix, so det Phi = 1 to round-off on either route, and
    |det Phi - 1| > 1e-9 raising IntegrationError is a sanity check.
    """
    if with_control:
        phase = total_phase(protocol)
        c, s = math.cos(phase), math.sin(phase)
        r = math.sqrt(protocol.omega_f / protocol.omega_i)
        w = math.sqrt(protocol.omega_i * protocol.omega_f)
        phi = np.array([[c * r, -s * w], [s / w, c / r]])
    else:
        # rows (p, q), columns the points started from (1, 0) and (0, 1)
        phi = _bare_phi(protocol)
    det = phi[0, 0] * phi[1, 1] - phi[0, 1] * phi[1, 0]
    if abs(det - 1.0) > 1e-9:
        raise IntegrationError(
            f"fundamental matrix lost area preservation: det = {det!r}; "
            "inspect the protocol"
        )
    return phi


def gibbs_action_angle(spec: EnsembleSpec, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Draw a canonical ensemble at frequency omega in action-angle form.

    Returns (I, theta), each of length count.  The canonical density
    factorizes into I ~ Exp(mean 1/(beta*omega)) and
    theta ~ Uniform[0, 2*pi).  The actions and the angles come from the two
    SFC64 streams of :func:`_gibbs_streams`, by :func:`_draw_action_angle`
    (the actions by inversion of uniform draws), so a given (seed, count)
    always yields the same arrays regardless of platform or call history,
    and the first k samples of a longer draw are the draw of count k.
    """
    require_positive(omega=omega)
    action, theta = np.empty(spec.count), np.empty(spec.count)
    _draw_action_angle(_gibbs_streams(spec.seed), 1.0 / (spec.beta * omega), action, theta)
    return action, theta


def _gibbs_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The (action, angle) pair of SFC64 generators of a seed.

    Each is seeded by one of the two children that
    ``np.random.SeedSequence(seed).spawn(2)`` makes, so the streams are
    independent of each other and of every other seed.
    """
    children = np.random.SeedSequence(seed).spawn(2)
    return tuple(np.random.Generator(np.random.SFC64(child)) for child in children)


def _draw_action_angle(streams, scale: float, action, theta) -> None:
    """Draw the next len(action) actions and len(theta) angles of ``streams`` into the arrays.

    ``streams`` is a :func:`_gibbs_streams` pair and ``scale`` the mean
    action 1/(beta omega).  Each stream is read in order, so drawing a
    count in blocks of any size gives the bits of drawing it at once.  Both
    streams give uniform draws U in [0, 1), by ``random(out=)``: the action
    is log1p(-U) times -scale, by inversion of the exponential law, and the
    angle U times 2 pi.
    """
    action_stream, angle_stream = streams
    action_stream.random(out=action)
    np.log1p(np.negative(action, out=action), out=action)
    action *= -scale
    angle_stream.random(out=theta)
    theta *= _TWO_PI


def sample_gibbs(spec: EnsembleSpec, omega: float) -> np.ndarray:
    """The :func:`gibbs_action_angle` draw at frequency omega as (count, 2) rows of (p, q)."""
    return from_action_angle(*gibbs_action_angle(spec, omega), omega)


def work_coefficients(
    protocol: FrequencyProtocol, with_control: bool = False
) -> tuple[float, float, float]:
    """(a, b, c) with endpoint work W = I (a + b cos 2 theta + c sin 2 theta).

    I and theta are the action-angle coordinates of the initial state at
    omega_i.  The controlled flow conserves I, so its work is
    (omega_f - omega_i) I at every angle: (omega_f - omega_i, 0, 0), with
    no Phi built.  For the bare flow the state is sqrt(2 I) U xi with
    xi = (cos theta, sin theta) and U = diag(sqrt(omega_i), 1/sqrt(omega_i)),
    so the final energy is I xi^T K xi with K = U Phi^T D_f Phi U,
    D_f = diag(1, omega_f**2) and Phi the ramp's :func:`fundamental_matrix`.
    Then a = (K11 + K22)/2 - omega_i, b = (K11 - K22)/2 and c = K12.
    """
    if with_control:
        return protocol.omega_f - protocol.omega_i, 0.0, 0.0
    phi = fundamental_matrix(protocol)
    root = math.sqrt(protocol.omega_i)
    phi_u = phi * np.array([root, 1.0 / root])
    k = phi_u.T @ np.diag([1.0, protocol.omega_f**2]) @ phi_u
    return (
        float(0.5 * (k[0, 0] + k[1, 1]) - protocol.omega_i),
        float(0.5 * (k[0, 0] - k[1, 1])),
        float(k[0, 1]),
    )


def propagate_ensemble(
    states: np.ndarray, protocol: FrequencyProtocol, with_control: bool = False
) -> np.ndarray:
    """Push an (n, 2) array of (p, q) points through the ramp.

    Equivalent to calling :func:`integrate` on every row, but exploits the
    linearity of the flow: one fundamental matrix serves the whole
    ensemble.
    """
    states = _rows(states)
    phi = fundamental_matrix(protocol, with_control)
    return states @ phi.T


def ensemble_work(
    initial: np.ndarray, final: np.ndarray, protocol: FrequencyProtocol
) -> np.ndarray:
    """Vectorized endpoint work for paired (n, 2) state arrays."""
    initial, final = _rows(initial), _rows(final)
    if initial.shape != final.shape:
        raise ValueError("initial and final ensembles must have matching shapes")
    e_in = oscillator_energy(initial[:, 0], initial[:, 1], protocol.omega_i)
    e_out = oscillator_energy(final[:, 0], final[:, 1], protocol.omega_f)
    return e_out - e_in
