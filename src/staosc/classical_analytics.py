"""Closed-form work statistics for a classical thermal oscillator ramp.

Both flows are linear, so the work of a bare ramp is a quadratic form in
the initial state.  :func:`staosc.classical_dynamics.work_coefficients`
reads it off the ramp's fundamental matrix Phi in action-angle variables,

    W = I (a + b cos 2 theta + c sin 2 theta),

and everything here is derived from (a, b, c).  In the Gibbs ensemble at
omega_i, I is exponential with mean 1/(beta omega_i) and theta uniform, so
with r = hypot(b, c) the work is the Gaussian two-mode form

    W = mu_plus x**2 + mu_minus y**2,   x, y ~ Normal(0, 1/2) iid,
    mu_pm = (a +- r) / (beta omega_i).

Its trace gives Husimi's adiabaticity factor Q* = (a + omega_i)/omega_f
(Prog. Theor. Phys. 9, 381 (1953)), which also fixes the quantum transition
probabilities and the bare Otto stroke.  The mass never appears.

mu_plus >= mu_minus >= 0 whenever omega increases monotonically.  The work
density is then an exponential-times-Bessel law; its two degenerate limits
are the adiabatic exponential (mu_plus = mu_minus) and the sudden
inverse-square-root law (mu_minus = 0).  The basic solutions C, S of
x'' + omega(t)**2 x = 0 are the entries of the bare Phi at unit mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical_dynamics import fundamental_matrix, work_coefficients
# Unused: perfbench/layers.py counts solver calls through module.solve_ivp
from .classical_dynamics import solve_ivp  # noqa: F401
from .errors import require_positive
from .protocols import FrequencyProtocol

#: Below mu_minus/mu_plus = this ratio the Bessel form is numerically
#: degenerate and the sudden-limit density is used instead.
DEGENERACY_SWITCH = 1e-9


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


def basic_solutions(protocol: FrequencyProtocol) -> BasicSolutions:
    """Endpoint data of C and S, read off the bare fundamental matrix.

    At unit mass (p, q) = (x', x): the column of Phi started from (0, 1) is
    (C', C), the one started from (1, 0) is (S', S).  The Wronskian is
    det Phi, which the Magnus product keeps at 1 to round-off;
    :func:`staosc.invariants.wronskian` measures it on the DOP853 reference.
    """
    phi = fundamental_matrix(protocol, with_control=False)
    return BasicSolutions(
        C_tau=float(phi[1, 1]),
        Cdot_tau=float(phi[0, 1]),
        S_tau=float(phi[1, 0]),
        Sdot_tau=float(phi[0, 0]),
    )


def adiabaticity_parameter(protocol: FrequencyProtocol) -> float:
    """Husimi's energy-magnification factor Q* = (a + omega_i)/omega_f of a bare ramp.

    Q* = 1 for an adiabatic ramp and (omega_i^2 + omega_f^2) /
    (2 omega_i omega_f) for a sudden jump; the mean bare work of a
    classical thermal ensemble is (Q* omega_f/omega_i - 1)/beta.  The same
    factor magnifies quantum level energies, which is how the quantum
    transition matrices and the engine layer use it.
    """
    a, _, _ = work_coefficients(protocol)
    return (a + protocol.omega_i) / protocol.omega_f


@dataclass(frozen=True)
class QuadraticWorkForm:
    """The bare work form W = I (a + b cos 2 theta + c sin 2 theta) and its eigenvalues."""

    a: float
    b: float
    c: float
    mu_plus: float
    mu_minus: float
    beta: float
    omega_i: float
    omega_f: float


def quadratic_form(protocol: FrequencyProtocol, beta: float) -> QuadraticWorkForm:
    """The bare ramp's work form at inverse temperature beta.

    mu_pm = (a +- hypot(b, c))/(beta omega_i), mu_minus by the determinant
    route (a^2 - b^2 - c^2)/((beta omega_i)^2 mu_plus) when mu_plus > 0.
    When mu_minus is tiny (fast ramps) it cancels in either route and is
    good to about ulp(a)/(beta omega_i) absolute.  Floating-point dust
    below -1e-12*mu_plus is clamped to zero; a genuinely negative mu_minus
    (decreasing ramp) is preserved so the caller can detect it.
    """
    require_positive(beta=beta)
    a, b, c = work_coefficients(protocol)
    scale = beta * protocol.omega_i
    r = math.hypot(b, c)
    mu_plus = (a + r) / scale
    if mu_plus > 0.0:
        mu_minus = (a * a - b * b - c * c) / (scale * scale * mu_plus)
    else:
        mu_minus = (a - r) / scale
    if -1e-12 * max(mu_plus, 1e-300) < mu_minus < 0.0:
        mu_minus = 0.0
    return QuadraticWorkForm(
        a=a, b=b, c=c, mu_plus=mu_plus, mu_minus=mu_minus,
        beta=beta, omega_i=protocol.omega_i, omega_f=protocol.omega_f,
    )


def moments_from_form(form: QuadraticWorkForm) -> tuple[float, float]:
    """Mean and standard deviation of the bare work distribution.

    For W = mu_+ x^2 + mu_- y^2 with x, y ~ N(0, 1/2):
    <W> = (mu_+ + mu_-)/2 and Var W = (mu_+^2 + mu_-^2)/2.
    """
    mean = 0.5 * (form.mu_plus + form.mu_minus)
    var = 0.5 * (form.mu_plus**2 + form.mu_minus**2)
    return (mean, math.sqrt(var))


# ---------------------------------------------------------------------------
# Work densities
# ---------------------------------------------------------------------------

def _require_increasing(beta: float, omega_i: float, omega_f: float):
    require_positive(beta=beta, omega_i=omega_i, omega_f=omega_f)
    if omega_f <= omega_i:
        raise ValueError(
            "closed-form work densities require omega_f > omega_i "
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
    require_positive(mu_plus=mu_p)
    if not 0.0 <= mu_m < math.inf:
        raise ValueError(
            f"mu_minus must be finite and >= 0, got {mu_m!r}: the density needs an increasing ramp"
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
        from scipy import special

        # exp(-(mu_+ + mu_-) W / (2 mu_+ mu_-)) * I0(arg) with
        # arg = (mu_+ - mu_-) W / (2 mu_+ mu_-)  ==  exp(-W/mu_+) * i0e(arg)
        arg = (mu_p - mu_m) * W[pos] / (2.0 * mu_p * mu_m)
        out[pos] = np.exp(-W[pos] / mu_p) * special.i0e(arg) / math.sqrt(mu_p * mu_m)
        out[W == 0.0] = 1.0 / math.sqrt(mu_p * mu_m)
    return float(out[0]) if scalar else out
