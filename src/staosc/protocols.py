"""Frequency schedules omega(t) that drive the parametric oscillator.

A schedule runs over t in [0, tau] with omega(0) = omega_i and
omega(tau) = omega_f.  The auxiliary control Hamiltonian used elsewhere in
the package is proportional to omega_dot/omega, so a schedule is only
usable when its slope vanishes at both endpoints: that guarantees the
control term switches itself off exactly where the work is measured.

The default "cosine-ramp" schedule interpolates omega**2 with a half
cosine,

    omega(t)**2 = omega_i**2 * ((a**2+1)/2 - (a**2-1)/2 * cos(pi t / tau)),

with a = omega_f/omega_i, which has omega_dot(0) = omega_dot(tau) = 0 by
construction.  Arbitrary tabulated schedules are supported through a
monotone C^1 interpolant and are checked, not trusted.

:func:`omega_at` and :func:`omega_dot_at` take a scalar time or an array.
ODE right-hand sides call them once per step with a float t; for the
analytic schedules that float is evaluated with ``math``, with the same
formula and operation order as the numpy array path, so both give
bit-identical results.  Every call, scalar or array, checks that t is
finite and within [0, tau] up to a 1e-9 tau slack, and clips it to
[0, tau].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import require_positive

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

COSINE_RAMP = "cosine-ramp"
CONSTANT = "constant"
TABLE = "table"

_KINDS = (COSINE_RAMP, CONSTANT, TABLE)

#: Endpoint-slope acceptance threshold, in units of omega_i / tau.
ENDPOINT_SLOPE_TOL = 1e-10
#: Relative tolerance for endpoint frequency values of tabulated schedules.
ENDPOINT_VALUE_TOL = 1e-9
#: Number of grid points used by validate() for positivity/monotonicity.
_VALIDATION_GRID = 1001


@dataclass(frozen=True)
class FrequencyProtocol:
    """One driving schedule omega(t) on [0, tau].

    Instances are immutable; build them with :func:`cosine_ramp`,
    :func:`constant_protocol` or :func:`protocol_from_table`.
    """

    omega_i: float
    omega_f: float
    tau: float
    kind: str = COSINE_RAMP
    samples: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        require_positive(omega_i=self.omega_i, omega_f=self.omega_f, tau=self.tau)
        if self.kind == CONSTANT and self.omega_f != self.omega_i:
            raise ValueError("constant protocol requires omega_f == omega_i")
        if self.kind == TABLE:
            if self.samples is None or len(self.samples) < 4:
                raise ValueError("table protocol needs at least 4 (t, omega) samples")
            t = np.array([s[0] for s in self.samples], dtype=float)
            w = np.array([s[1] for s in self.samples], dtype=float)
            if t[0] != 0.0:
                raise ValueError("table must start at t = 0")
            if not np.all(np.diff(t) > 0.0):
                raise ValueError("table times must be strictly increasing")
            if not np.all((w > 0.0) & (w < np.inf)):
                raise ValueError("table frequencies must be positive and finite")
        elif self.samples is not None:
            raise ValueError("samples are only meaningful for kind='table'")

    @cached_property
    def _table_interp(self) -> PchipInterpolator:
        from scipy.interpolate import PchipInterpolator

        t = np.array([s[0] for s in self.samples], dtype=float)
        w = np.array([s[1] for s in self.samples], dtype=float)
        return PchipInterpolator(t, w, extrapolate=False)

    @cached_property
    def _table_interp_deriv(self) -> PchipInterpolator:
        return self._table_interp.derivative()


def cosine_ramp(omega_i: float, omega_f: float, tau: float) -> FrequencyProtocol:
    """Smooth ramp of omega**2 with zero endpoint slope."""
    return FrequencyProtocol(omega_i=omega_i, omega_f=omega_f, tau=tau, kind=COSINE_RAMP)


def constant_protocol(omega: float, tau: float) -> FrequencyProtocol:
    """Static oscillator held at fixed omega for a time tau."""
    return FrequencyProtocol(omega_i=omega, omega_f=omega, tau=tau, kind=CONSTANT)


def protocol_from_table(samples) -> FrequencyProtocol:
    """Tabulated schedule through (t, omega) samples.

    The endpoints fix omega_i, omega_f and tau; values in between come from
    a monotone C^1 interpolant of the samples.  Run :func:`validate` on the
    result — tabulated data does not automatically satisfy the endpoint
    slope requirement.
    """
    samples = tuple((float(t), float(w)) for t, w in samples)
    return FrequencyProtocol(
        omega_i=samples[0][1],
        omega_f=samples[-1][1],
        tau=samples[-1][0],
        kind=TABLE,
        samples=samples,
    )


def _clip_time(protocol: FrequencyProtocol, t):
    """Validate t against [0, tau], absorbing solver-sized overshoot.

    Returns the clipped time(s) and the module that evaluates the schedule
    formulas on them: ``math`` for a float t (numpy float64 included) of an
    analytic schedule, ``np`` with t as a float array otherwise.
    """
    slack = 1e-9 * protocol.tau
    # NaN and +-inf fail this comparison and reach the array checks below,
    # which raise; the error messages therefore have one source.
    if (
        protocol.kind != TABLE
        and isinstance(t, float)
        and -slack <= t <= protocol.tau + slack
    ):
        return float(min(max(t, 0.0), protocol.tau)), math
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time values must be finite")
    if np.any(t < -slack) or np.any(t > protocol.tau + slack):
        raise ValueError(
            f"time {t!r} outside protocol domain [0, {protocol.tau}]"
        )
    return np.clip(t, 0.0, protocol.tau), np


def omega_at(protocol: FrequencyProtocol, t):
    """Instantaneous frequency omega(t); accepts scalars or arrays."""
    t, xp = _clip_time(protocol, t)
    if protocol.kind == CONSTANT:
        out = (
            float(protocol.omega_i) if xp is math else np.full_like(t, protocol.omega_i)
        )
    elif protocol.kind == COSINE_RAMP:
        a2 = (protocol.omega_f / protocol.omega_i) ** 2
        phase = xp.pi * t / protocol.tau
        omega_sq = protocol.omega_i**2 * (
            0.5 * (a2 + 1.0) - 0.5 * (a2 - 1.0) * xp.cos(phase)
        )
        out = xp.sqrt(omega_sq)
    else:
        out = protocol._table_interp(t)
    return out if xp is math or out.ndim else float(out)


def omega_dot_at(protocol: FrequencyProtocol, t):
    """Slope d omega/dt at time t; accepts scalars or arrays."""
    t, xp = _clip_time(protocol, t)
    if protocol.kind == CONSTANT:
        out = 0.0 if xp is math else np.zeros_like(t)
    elif protocol.kind == COSINE_RAMP:
        a2 = (protocol.omega_f / protocol.omega_i) ** 2
        phase = xp.pi * t / protocol.tau
        # d(omega^2)/dt = omega_i^2 (a^2-1)/2 * sin(phase) * pi/tau
        domega_sq = (
            protocol.omega_i**2
            * 0.5
            * (a2 - 1.0)
            * xp.sin(phase)
            * (xp.pi / protocol.tau)
        )
        out = domega_sq / (2.0 * omega_at(protocol, t))
    else:
        out = protocol._table_interp_deriv(t)
    return out if xp is math or out.ndim else float(out)


def total_phase(protocol: FrequencyProtocol) -> float:
    """The integral of omega(t) over [0, tau], in closed form.

    Cosine ramp: (2 tau omega_f / pi) E(k), E the complete elliptic integral
    of the second kind, k = 1 - omega_i**2/omega_f**2 (negative when omega
    decreases).  A table integrates its own interpolant exactly.
    """
    if protocol.kind == CONSTANT:
        return protocol.omega_i * protocol.tau
    if protocol.kind == COSINE_RAMP:
        from scipy import special

        k = 1.0 - (protocol.omega_i / protocol.omega_f) ** 2
        return 2.0 * protocol.tau * protocol.omega_f / math.pi * float(special.ellipe(k))
    return float(protocol._table_interp.antiderivative()(protocol.tau))


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: hard errors and advisory warnings."""

    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.errors


def validate(protocol: FrequencyProtocol) -> ValidationReport:
    """Check a schedule against the contract the rest of the package assumes.

    Hard failures: non-positive omega anywhere on a dense grid, endpoint
    frequency values off their declared targets, or endpoint slopes above
    ``ENDPOINT_SLOPE_TOL * omega_i / tau``.  A non-monotone schedule is
    only a warning — decreasing ramps are legitimate (engine compression
    runs one) but the closed-form work densities assume monotone increase.
    """
    report = ValidationReport()
    grid = np.linspace(0.0, protocol.tau, _VALIDATION_GRID)
    w = np.asarray(omega_at(protocol, grid))

    if not np.all(np.isfinite(w)):
        report.errors.append("omega(t) is not finite everywhere on [0, tau]")
        return report
    if np.any(w <= 0.0):
        t_bad = grid[int(np.argmin(w))]
        report.errors.append(
            f"omega(t) must stay positive; min {w.min():.6g} near t={t_bad:.6g}"
        )

    for label, value, target in (
        ("omega(0)", w[0], protocol.omega_i),
        ("omega(tau)", w[-1], protocol.omega_f),
    ):
        if abs(value - target) > ENDPOINT_VALUE_TOL * abs(target):
            report.errors.append(
                f"{label} = {value:.12g} does not match declared value {target:.12g}"
            )

    slope_tol = ENDPOINT_SLOPE_TOL * protocol.omega_i / protocol.tau
    for label, t_end, t_next in (
        ("omega_dot(0)", 0.0, None if protocol.kind != TABLE else protocol.samples[1][0]),
        (
            "omega_dot(tau)",
            protocol.tau,
            None if protocol.kind != TABLE else protocol.samples[-2][0],
        ),
    ):
        slope = omega_dot_at(protocol, t_end)
        tol_here = slope_tol
        if t_next is not None:
            # A tabulated schedule can only certify a zero slope down to its
            # own resolution: interpolation artifacts well below the end
            # secant slope are indistinguishable from zero, while a genuine
            # linear rise from the endpoint shows up at the secant scale.
            secant = abs(
                (omega_at(protocol, t_next) - omega_at(protocol, t_end))
                / (t_next - t_end)
            )
            tol_here = max(slope_tol, 0.25 * secant)
        if abs(slope) > tol_here:
            report.errors.append(
                f"{label} = {slope:.6g} exceeds endpoint tolerance {tol_here:.6g}; "
                "the control term would not vanish at the work measurements"
            )

    if np.any(np.diff(w) < -1e-12 * protocol.omega_i):
        report.warnings.append(
            "omega(t) is not monotonically non-decreasing; closed-form work "
            "densities do not apply to this schedule"
        )
    return report
