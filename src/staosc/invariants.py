"""The invariant battery: one measurement per physical invariant.

Each function measures one invariant on the inputs its caller hands it
(protocols, an (n, 2) array of (p, q) rows, a Fock basis, cycle specs) and
returns a :class:`Check`: the measured value, the fixed threshold it is
compared against, and the verdict.  ``staosc verify`` runs
:func:`verify_battery`; the tests call the same functions on larger inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import classical_analytics as ca
from . import classical_dynamics as cd
from . import otto_engine as oe
from . import quantum_dynamics as qd
from . import work_statistics as ws
from .errors import IntegrationError, TruncationLeakageError
from .protocols import cosine_ramp, validate


@dataclass(frozen=True)
class Check:
    """One named verdict: ``value`` compared against ``threshold``."""

    name: str
    value: float
    threshold: float
    passed: bool
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "passed", bool(self.passed))

    @classmethod
    def below(cls, name: str, value: float, threshold: float, detail: str) -> "Check":
        """The check that passes when value < threshold."""
        return cls(name, value, threshold, value < threshold, detail)


def protocol_validation(protocol) -> Check:
    """Count of the hard errors :func:`staosc.protocols.validate` reports."""
    errors = validate(protocol).errors
    return Check("protocol_validation", len(errors), 0, not errors, "; ".join(errors) or "ok")


def wronskian(protocols) -> Check:
    """Largest |C S' - C' S - 1| of the basic solutions over the ramps, by DOP853.

    C and S come from one batched :func:`staosc.classical_dynamics.integrate`
    of the unit states at rtol 1e-12, not from the Magnus Phi, whose
    determinant is 1 by construction.
    """
    worst = 0.0
    for protocol in protocols:
        (s_dot, s), (c_dot, c) = cd.integrate(np.eye(2), protocol, tol=1e-12)
        worst = max(worst, abs(c * s_dot - c_dot * s - 1.0))
    return Check.below("wronskian", worst, 1e-9, f"DOP853 reference over {len(protocols)} ramps")


def action_drift(protocol, states) -> Check:
    """Largest relative action change of rows with I > 0, from one solve at rtol 1e-12."""
    finals = cd.integrate(states, protocol, with_control=True, tol=1e-12)
    i0 = cd.to_action_angle(states, protocol.omega_i)[0]
    i1 = cd.to_action_angle(finals, protocol.omega_f)[0]
    moved = i0 > 0
    worst = float(np.max(np.abs(i1[moved] - i0[moved]) / i0[moved], initial=0.0))
    return Check.below("action_invariance", worst, 1e-7, f"over {len(states)} trajectories")


def action_angle_roundtrip(states, omega: float) -> Check:
    """Largest error of (p, q) -> (I, theta) -> (p, q) at frequency omega."""
    back = cd.from_action_angle(*cd.to_action_angle(states, omega), omega)
    worst = float(np.max(np.abs(back - states), initial=0.0))
    return Check.below("action_angle_roundtrip", worst, 1e-12, f"over {len(states)} states")


def form_work_mismatch(protocol, form: ca.QuadraticWorkForm, states) -> Check:
    """Largest |W_form - W_traj| / max(|W_traj|, 1e-12), from one solve at rtol 1e-12.

    W_form = I (a + b cos 2 theta + c sin 2 theta) at the row's (I, theta).
    """
    finals = cd.integrate(states, protocol, with_control=False, tol=1e-12)
    w_traj = cd.ensemble_work(states, finals, protocol)
    action, theta = cd.to_action_angle(states, form.omega_i)
    w_form = action * (form.a + form.b * np.cos(2.0 * theta) + form.c * np.sin(2.0 * theta))
    worst = float(np.max(np.abs(w_traj - w_form) / np.maximum(np.abs(w_traj), 1e-12)))
    return Check.below("quadratic_form_route", worst, 1e-6, f"over {len(states)} trajectories")


def density_mass(name: str, density, w_max: float) -> Check:
    """|mass - 1| of a work density integrated over [0, w_max]."""
    mass = ws.integrate_density(density, w_max)
    return Check.below(name, abs(mass - 1.0), 1e-6, f"mass = {mass:.9f} on [0, {w_max:g}]")


def atom_mass(atoms: qd.QuantumWorkAtoms) -> Check:
    """|total probability + discarded Gibbs tail - 1| of an atom set."""
    mass = float(np.sum(atoms.probs)) + atoms.gibbs_tail
    return Check.below("norm_atoms", abs(mass - 1.0), 1e-6, f"mass = {mass:.12f}")


def decay_rate_ordering(beta: float, omega_i: float, omega_f: float) -> Check:
    """Sudden work-density decay rate against half the adiabatic one."""
    rate_sudden = beta * omega_i**2 / (omega_f**2 - omega_i**2)
    half_ad = 0.5 * beta * omega_i / (omega_f - omega_i)
    return Check.below("decay_rate_ordering", rate_sudden, half_ad, "half the adiabatic rate")


def jarzynski_classical(protocol, spec: cd.EnsembleSpec) -> Check:
    """Largest |<exp(-beta W)> - exp(-beta dF)| in standard errors over both ramps."""
    delta_f = ws.delta_f_classical(spec.beta, protocol.omega_i, protocol.omega_f)
    worst, estimates = 0.0, []
    for s in ws.classical_work_ensembles(protocol, spec).values():
        tr = ws.jarzynski(s, spec.beta, delta_f)
        ew = np.exp(-spec.beta * s.samples)
        se = float(np.std(ew, ddof=1) / math.sqrt(ew.size))
        worst = max(worst, abs(tr.final - tr.target) / se)
        estimates.append(f"{tr.final:.4f}±{se:.4f}")
    return Check.below("jarzynski_classical", worst, 5.0, f"{estimates} vs {tr.target:.4f}")


def transitionless_deviation(protocol, n_max: int, dimension: int) -> Check:
    """max |P - I| over the whole propagated transition matrix of the controlled ramp."""
    tm = qd.fock_transition_matrix(protocol, True, n_max, dimension)
    dev = float(np.max(np.abs(tm.probs - np.eye(tm.n_max, tm.m_max))))
    return Check.below("quantum_transitionless", dev, 1e-6, f"{tm.n_max} x {tm.m_max} levels")


def closed_form_vs_fock(protocol, n_max: int, dimension: int) -> Check:
    """max |P_closed - P_fock| of the bare ramp over the final levels both keep."""
    closed = qd.transition_matrix(protocol, False, n_max, dimension)
    fock = qd.fock_transition_matrix(protocol, False, n_max, dimension)
    m = min(closed.m_max, fock.m_max)
    dev = float(np.max(np.abs(closed.probs[:, :m] - fock.probs[:, :m])))
    return Check.below("quantum_closed_form_vs_fock", dev, 1e-9, f"{n_max} x {m} levels")


def jarzynski_quantum(protocol, beta: float, n_max: int, dimension: int) -> Check:
    """Largest |sum P exp(-beta W) - exp(-beta dF)| over both closed-form ramps, at hbar = 1."""
    dfq = qd.delta_f_quantum(beta, protocol.omega_i, protocol.omega_f)
    worst, estimates = 0.0, []
    for control in (True, False):
        tm = qd.transition_matrix(protocol, control, n_max, dimension)
        jz = ws.jarzynski(qd.quantum_work_atoms(tm, beta), beta, dfq)
        worst = max(worst, abs(jz.final - jz.target))
        estimates.append(f"{jz.final:.8f}")
    return Check.below("jarzynski_quantum", worst, 1e-6, f"{estimates} vs {jz.target:.8f}")


def engine_closed_forms(specs) -> Check:
    """Largest |eta - closed form| of optimised all-sta or all-sudden cycles, under Carnot."""
    worst, below_carnot, detail = 0.0, True, []
    for spec in specs:
        ratio = spec.beta_1 / spec.beta_2
        sta = spec.stroke_1.kind == oe.STA
        closed = oe.eta_adiabatic_max_power(ratio) if sta else oe.eta_sudden_max_power(ratio)
        eta = oe.optimize_frequency(spec).cycle.efficiency
        worst = max(worst, abs(eta - closed))
        below_carnot &= eta <= 1.0 - 1.0 / ratio + 1e-12
        detail.append(f"ratio {ratio}: eta {eta:.5f}")
    detail = "; ".join(detail) + ("" if below_carnot else "; above Carnot")
    return Check("engine_closed_forms", worst, 1e-3, worst < 1e-3 and below_carnot, detail)


def adiabaticity_limit(protocol) -> Check:
    """|Q* - 1| of a ramp slow enough to be adiabatic."""
    q_star = ca.adiabaticity_parameter(protocol)
    return Check.below("adiabaticity_limits", abs(q_star - 1.0), 1e-3, "slow ramp, Q* -> 1")


def carnot_margin(specs) -> Check:
    """Largest efficiency - (1 - beta_2/beta_1) over the feasible cycles."""
    worst, feasible = -math.inf, 0
    for spec in specs:
        cycle = oe.evaluate_cycle(spec)
        if cycle.feasible:
            feasible += 1
            worst = max(worst, cycle.efficiency - (1.0 - spec.beta_2 / spec.beta_1))
    return Check("carnot_bound", worst, 1e-12, worst <= 1e-12, f"{feasible}/{len(specs)} run")


def _guarded(name: str, measure) -> Check:
    """``measure()``, or a failed check of that name when an accuracy gate trips."""
    try:
        return measure()
    except (IntegrationError, TruncationLeakageError) as exc:
        return Check(name, math.nan, math.nan, False, f"{type(exc).__name__}: {exc}")


def verify_battery(seed: int) -> list[Check]:
    """Every check of ``staosc verify``, at the reduced sizes it runs.

    A check whose measurement trips an accuracy gate reads as failed, with
    the error as its detail; the other checks still run.
    """
    beta, wi, wf = 0.2, 10.0, 10.0 * math.sqrt(3.0)
    fast = cosine_ramp(wi, wf, 1e-4)
    states = cd.sample_gibbs(cd.EnsembleSpec(beta, 200, seed), wi)
    rng = cd._gibbs_streams(seed)[0]
    form = cache(lambda: ca.quadratic_form(fast, beta))
    w_max = 60.0 * (wf - wi) / (wi * beta)
    battery = {
        "protocol_validation": lambda: protocol_validation(fast),
        "wronskian": lambda: wronskian([fast]),
        "action_invariance": lambda: action_drift(fast, states),
        "action_angle_roundtrip": lambda: action_angle_roundtrip(rng.normal(size=(100, 2)), wi),
        "quadratic_form_route": lambda: form_work_mismatch(fast, form(), states[:20]),
        "norm_adiabatic": lambda: density_mass(
            "norm_adiabatic", lambda w: ca.pdf_adiabatic(w, beta, wi, wf), w_max
        ),
        "norm_nonadiabatic": lambda: density_mass(
            "norm_nonadiabatic", lambda w: ca.pdf_nonadiabatic(w, form()), w_max
        ),
        "norm_sudden": lambda: density_mass(
            "norm_sudden", lambda w: ca.pdf_sudden(w, beta, wi, wf), w_max
        ),
        "decay_rate_ordering": lambda: decay_rate_ordering(beta, wi, wf),
        "jarzynski_classical": lambda: jarzynski_classical(
            fast, cd.EnsembleSpec(beta, 20_000, seed + 7)
        ),
        "quantum_transitionless": lambda: transitionless_deviation(fast, 8, 128),
        "quantum_closed_form_vs_fock": lambda: closed_form_vs_fock(fast, 8, 128),
        "jarzynski_quantum": lambda: jarzynski_quantum(fast, beta, 16, 128),
        "engine_closed_forms": lambda: engine_closed_forms(
            [oe.OttoCycleSpec(1.0, 1.0 / r, wi, None) for r in (4.0, 16.0)]
        ),
        "adiabaticity_limits": lambda: adiabaticity_limit(cosine_ramp(wi, wf, 50.0)),
    }
    return [_guarded(name, measure) for name, measure in battery.items()]
