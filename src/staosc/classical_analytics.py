"""Closed-form work statistics for a classical thermal oscillator ramp.

Everything here reduces to the two basic solutions C(t), S(t) of the
classical equation of motion x'' + omega(t)**2 x = 0 with initial data
(C, C')(0) = (1, 0) and (S, S')(0) = (0, 1).  Writing the initial Gibbs
ensemble in scaled coordinates, the work of a bare (uncontrolled) ramp is
the quadratic form

    beta W = mu_plus x**2 + mu_minus y**2,   x, y ~ Normal(0, 1/2) iid,

whose coefficients follow from C and S evaluated at t = tau:

    K = (S'^2 + omega_f^2 S^2 - 1) / beta
    L = (C'^2 + omega_f^2 C^2 - omega_i^2) / (beta omega_i^2)
    M = (C' S' + omega_f^2 C S) / (beta omega_i)
    mu_pm = ((K + L) +- sqrt((K - L)^2 + 4 M^2)) / 2.

mu_plus >= mu_minus >= 0 whenever omega increases monotonically.  The work
density is then an exponential-times-Bessel law; its two degenerate limits
are the adiabatic exponential (mu_plus = mu_minus) and the sudden
inverse-square-root law (mu_minus = 0).  The mass never appears: C and S
are mass-independent and the Gibbs weights absorb m into the scaled
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .protocols import FrequencyProtocol, omega_at

#: Below mu_minus/mu_plus = this ratio the Bessel form is numerically
#: degenerate and the sudden-limit density is used instead.
DEGENERACY_SWITCH = 1e-9

_WRONSKIAN_TOL = 1e-9


# ---------------------------------------------------------------------------
# Modified Bessel function I0
# ---------------------------------------------------------------------------

def bessel_i0(x):
    """Modified Bessel function of the first kind, order zero.

    Thin wrapper over :func:`scipy.special.i0`; a scalar input gives a
    float.  Overflows to inf past x ~ 713 together with exp(x).
    """
    out = special.i0(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def bessel_i0_scaled(x):
    """exp(-|x|) * I0(x): bounded on the whole axis, safe for large x.

    Thin wrapper over :func:`scipy.special.i0e`; a scalar input gives a
    float.
    """
    out = special.i0e(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Basic solutions and the work quadratic form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasicSolutions:
    """Endpoint data of the two basic solutions of x'' + omega(t)^2 x = 0."""

    C_tau: float
    Cdot_tau: float
    S_tau: float
    Sdot_tau: float

    @property
    def wronskian(self) -> float:
        """C S' - C' S; exactly 1 for the true flow."""
        return self.C_tau * self.Sdot_tau - self.Cdot_tau * self.S_tau


def basic_solutions(protocol: FrequencyProtocol, tol: float = 1e-12) -> BasicSolutions:
    """Integrate C and S across the ramp and return their endpoint data.

    The Wronskian C S' - C' S = 1 is checked at t = tau and a failure
    beyond 1e-9 raises IntegrationError rather than returning silently
    inaccurate coefficients.
    """

    def rhs(t, y):
        w2 = omega_at(protocol, t) ** 2
        return (y[1], -w2 * y[0], y[3], -w2 * y[2])

    wi = protocol.omega_i
    atol = tol * np.array([1.0, wi, 1.0 / wi, 1.0])
    sol = solve_ivp(
        rhs,
        (0.0, protocol.tau),
        (1.0, 0.0, 0.0, 1.0),
        method="DOP853",
        rtol=tol,
        atol=atol,
    )
    if not sol.success:
        raise IntegrationError(f"basic-solution integration failed: {sol.message}")
    basic = BasicSolutions(
        C_tau=float(sol.y[0, -1]),
        Cdot_tau=float(sol.y[1, -1]),
        S_tau=float(sol.y[2, -1]),
        Sdot_tau=float(sol.y[3, -1]),
    )
    if abs(basic.wronskian - 1.0) > _WRONSKIAN_TOL:
        raise IntegrationError(
            f"Wronskian drifted to {basic.wronskian!r}; integration accuracy "
            "insufficient for this protocol"
        )
    return basic


@dataclass(frozen=True)
class QuadraticWorkForm:
    """Coefficients of the Gaussian quadratic form generating bare work."""

    K: float
    L: float
    M: float
    mu_plus: float
    mu_minus: float
    beta: float
    omega_i: float
    omega_f: float


def quadratic_form(
    basic: BasicSolutions, beta: float, omega_i: float, omega_f: float
) -> QuadraticWorkForm:
    """Assemble the work quadratic form from basic-solution endpoint data.

    The eigenvalues are computed with the determinant route
    mu_minus = (K L - M^2)/mu_plus, which is immune to the cancellation
    that the subtractive formula suffers when mu_minus is tiny (fast
    ramps).  Floating-point dust below -1e-12*mu_plus is clamped to zero;
    a genuinely negative mu_minus (decreasing ramp) is preserved so the
    caller can detect it.
    """
    if beta <= 0.0 or omega_i <= 0.0 or omega_f <= 0.0:
        raise ValueError("beta, omega_i, omega_f must all be positive")
    C, Cd, S, Sd = basic.C_tau, basic.Cdot_tau, basic.S_tau, basic.Sdot_tau
    wf2 = omega_f**2
    K = (Sd**2 + wf2 * S**2 - 1.0) / beta
    L = (Cd**2 + wf2 * C**2 - omega_i**2) / (beta * omega_i**2)
    M = (Cd * Sd + wf2 * C * S) / (beta * omega_i)

    disc = math.hypot(K - L, 2.0 * M)
    mu_plus = 0.5 * ((K + L) + disc)
    det = K * L - M * M
    if mu_plus > 0.0:
        mu_minus = det / mu_plus
    else:
        mu_minus = 0.5 * ((K + L) - disc)
    if -1e-12 * max(mu_plus, 1e-300) < mu_minus < 0.0:
        mu_minus = 0.0
    return QuadraticWorkForm(
        K=K, L=L, M=M, mu_plus=mu_plus, mu_minus=mu_minus,
        beta=beta, omega_i=omega_i, omega_f=omega_f,
    )


def moments_from_form(form: QuadraticWorkForm) -> tuple[float, float]:
    """Mean and standard deviation of the bare work distribution.

    For beta W = mu_+ x^2 + mu_- y^2 with x, y ~ N(0, 1/2):
    <W> = (mu_+ + mu_-)/2 and Var W = (mu_+^2 + mu_-^2)/2.
    """
    mean = 0.5 * (form.mu_plus + form.mu_minus)
    var = 0.5 * (form.mu_plus**2 + form.mu_minus**2)
    return (mean, math.sqrt(var))


# ---------------------------------------------------------------------------
# Work densities
# ---------------------------------------------------------------------------

def _require_increasing(beta: float, omega_i: float, omega_f: float):
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if omega_i <= 0.0 or omega_f <= omega_i:
        raise ValueError(
            "closed-form work densities require omega_f > omega_i > 0 "
            f"(got omega_i={omega_i!r}, omega_f={omega_f!r}); decreasing ramps "
            "have no non-negative work form"
        )


def pdf_adiabatic(W, beta: float, omega_i: float, omega_f: float):
    """Work density of an infinitely slow (or shortcut-controlled) ramp.

    Exponential with rate beta*omega_i/(omega_f - omega_i) on W >= 0; the
    controlled ramp reproduces it at any speed because the action of every
    trajectory is preserved.
    """
    _require_increasing(beta, omega_i, omega_f)
    rate = beta * omega_i / (omega_f - omega_i)
    W = np.asarray(W, dtype=float)
    scalar = W.ndim == 0
    W = np.atleast_1d(W)
    out = np.where(W >= 0.0, rate * np.exp(-rate * np.maximum(W, 0.0)), 0.0)
    return float(out[0]) if scalar else out


def pdf_sudden(W, beta: float, omega_i: float, omega_f: float):
    """Work density of an instantaneous frequency jump.

    Chi-square-like law with an integrable inverse-square-root divergence
    at W = 0 (the density evaluates to inf there) and decay rate
    beta*omega_i^2/(omega_f^2 - omega_i^2) — always slower than the
    adiabatic law's decay.
    """
    _require_increasing(beta, omega_i, omega_f)
    rate = beta * omega_i**2 / (omega_f**2 - omega_i**2)
    W = np.asarray(W, dtype=float)
    scalar = W.ndim == 0
    W = np.atleast_1d(W)
    out = np.zeros_like(W)
    pos = W > 0.0
    out[pos] = np.sqrt(rate / (np.pi * W[pos])) * np.exp(-rate * W[pos])
    out[W == 0.0] = np.inf
    return float(out[0]) if scalar else out


def pdf_nonadiabatic(W, form: QuadraticWorkForm):
    """Work density of a bare ramp at any speed, from its quadratic form.

    The textbook expression is

        p(W) = (mu_+ mu_-)^(-1/2) * exp(-(mu_+ + mu_-) W / (2 mu_+ mu_-))
               * I0((mu_+ - mu_-) W / (2 mu_+ mu_-))        for W >= 0,

    evaluated here in the overflow-free arrangement
    exp(-W/mu_+) * [exp(-x) I0(x)] / sqrt(mu_+ mu_-).  When
    mu_-/mu_+ < DEGENERACY_SWITCH the Bessel form loses all precision and
    the exact sudden-limit law exp(-W/mu_+)/sqrt(pi W mu_+) is used
    instead.
    """
    mu_p, mu_m = form.mu_plus, form.mu_minus
    if not (math.isfinite(mu_p) and math.isfinite(mu_m)):
        raise ValueError("quadratic form coefficients must be finite")
    if mu_p <= 0.0:
        raise ValueError(f"mu_plus must be positive, got {mu_p!r}")
    if mu_m < 0.0:
        raise ValueError(
            f"mu_minus = {mu_m!r} is negative: the ramp is not monotonically "
            "increasing and this density does not apply"
        )
    W = np.asarray(W, dtype=float)
    scalar = W.ndim == 0
    W = np.atleast_1d(W)
    out = np.zeros_like(W)
    pos = W > 0.0
    if mu_m < DEGENERACY_SWITCH * mu_p:
        out[pos] = np.exp(-W[pos] / mu_p) / np.sqrt(np.pi * W[pos] * mu_p)
        out[W == 0.0] = np.inf
    else:
        # exp(-(mu_+ + mu_-) W / (2 mu_+ mu_-)) * I0(arg) with
        # arg = (mu_+ - mu_-) W / (2 mu_+ mu_-)  ==  exp(-W/mu_+) * i0e(arg)
        arg = (mu_p - mu_m) * W[pos] / (2.0 * mu_p * mu_m)
        out[pos] = np.exp(-W[pos] / mu_p) * bessel_i0_scaled(arg) / math.sqrt(mu_p * mu_m)
        out[W == 0.0] = 1.0 / math.sqrt(mu_p * mu_m)
    return float(out[0]) if scalar else out
