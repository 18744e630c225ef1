"""Closed-form work statistics for a classical thermal oscillator ramp.

Both flows are linear, so the work of a ramp is a quadratic form in the
initial state.  :func:`staosc.classical_dynamics.work_coefficients` reads
it off the ramp's fundamental matrix Phi in action-angle variables,

    W = I (a + b cos 2 theta + c sin 2 theta),

and everything here is derived from (a, b, c).  In the Gibbs ensemble at
omega_i, I is exponential with mean 1/(beta omega_i) and theta uniform, so
with r = hypot(b, c) the work is the Gaussian two-mode form

    W = mu_plus x**2 + mu_minus y**2,   x, y ~ Normal(0, 1/2) iid,
    mu_pm = (a +- r) / (beta omega_i).

Its trace gives Husimi's adiabaticity factor Q* = (a + omega_i)/omega_f
(Prog. Theor. Phys. 9, 381 (1953)), which also fixes the quantum transition
probabilities and the bare Otto stroke.

mu_plus >= mu_minus >= 0 whenever omega increases monotonically, and one
law, :func:`pdf_nonadiabatic`, an exponential times a Bessel function,
gives the work density of each such form: the bare ramp's, the shortcut's
(b = c = 0: mu_plus = mu_minus, the exponential of :func:`pdf_adiabatic`)
and the sudden jump's (mu_minus = 0, :func:`pdf_sudden`).  The oscillator
has unit mass, as in :mod:`staosc.classical_dynamics` (a mass only
rescales phase space and cancels from every result here), so the basic
solutions C, S of x'' + omega(t)**2 x = 0 are the entries of the bare Phi.
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

#: Above this argument exp(-x) I0(x) is summed from its asymptotic series;
#: np.i0 computes exp(x) first, which overflows past x = 709.78.
_I0E_SWITCH = 700.0
#: [(2k - 1)!!]^2 / (k! 8^k) for k = 0..7, each exact in binary; the first
#: term left out, k = 8, is below 1.1e-22 of the sum at the switch.
_I0E_SERIES = (
    1.0, 1 / 8, 9 / 128, 75 / 1024, 3675 / 32768, 59535 / 262144,
    2401245 / 4194304, 57972915 / 33554432,
)


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

    With (p, q) = (x', x), the column of Phi started from (0, 1) is
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
    """The work form W = I (a + b cos 2 theta + c sin 2 theta) and its eigenvalues."""

    a: float
    b: float
    c: float
    mu_plus: float
    mu_minus: float


def _work_form(
    beta: float, omega_i: float, omega_f: float, coefficients=None
) -> QuadraticWorkForm:
    """The QuadraticWorkForm of (a, b, c) at beta; None gives the sudden jump's.

    The jump keeps (p, q): a = -b = (omega_f^2 - omega_i^2)/(2 omega_i), c = 0
    and mu_minus == 0.0.  b = c = 0 gives mu_minus == mu_plus.  Otherwise
    mu_minus is (a^2 - b^2 - c^2)/((beta omega_i)^2 mu_plus) when mu_plus > 0;
    tiny (fast ramps), it is good to about ulp(a)/(beta omega_i) absolute.
    Dust below -1e-12*mu_plus is clamped to zero; a genuinely negative
    mu_minus (decreasing ramp) is kept.
    """
    require_positive(beta=beta, omega_i=omega_i, omega_f=omega_f)
    if coefficients is None:
        a = (omega_f**2 - omega_i**2) / (2.0 * omega_i)
        coefficients = (a, -a, 0.0)
    a, b, c = coefficients
    scale = beta * omega_i
    r = math.hypot(b, c)
    mu_plus = (a + r) / scale
    if mu_plus > 0.0 and r > 0.0:
        mu_minus = (a * a - b * b - c * c) / (scale * scale * mu_plus)
    else:
        mu_minus = (a - r) / scale
    if -1e-12 * max(mu_plus, 1e-300) < mu_minus < 0.0:
        mu_minus = 0.0
    return QuadraticWorkForm(a=a, b=b, c=c, mu_plus=mu_plus, mu_minus=mu_minus)


def quadratic_form(
    protocol: FrequencyProtocol, beta: float, with_control: bool = False
) -> QuadraticWorkForm:
    """The form of ``work_coefficients(protocol, with_control)`` at inverse temperature beta."""
    coefficients = work_coefficients(protocol, with_control)
    return _work_form(beta, protocol.omega_i, protocol.omega_f, coefficients)


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

def pdf_adiabatic(W, beta: float, omega_i: float, omega_f: float):
    """Work density of an infinitely slow (or shortcut-controlled) ramp.

    Exponential with rate beta*omega_i/(omega_f - omega_i) on W >= 0; the
    controlled ramp reproduces it at any speed because the action of every
    trajectory is preserved.
    """
    return pdf_nonadiabatic(W, _work_form(beta, omega_i, omega_f, (omega_f - omega_i, 0.0, 0.0)))


def pdf_sudden(W, beta: float, omega_i: float, omega_f: float):
    """Work density of an instantaneous frequency jump.

    Chi-square-like law with an integrable inverse-square-root divergence
    at W = 0 (the density evaluates to inf there) and decay rate
    beta*omega_i^2/(omega_f^2 - omega_i^2) — always slower than the
    adiabatic law's decay.
    """
    return pdf_nonadiabatic(W, _work_form(beta, omega_i, omega_f))


def pdf_nonadiabatic(W, form: QuadraticWorkForm):
    """Work density of a ramp at any speed, from its quadratic form.

    The textbook expression is

        p(W) = (mu_+ mu_-)^(-1/2) * exp(-(mu_+ + mu_-) W / (2 mu_+ mu_-))
               * I0((mu_+ - mu_-) W / (2 mu_+ mu_-))        for W >= 0,

    evaluated here in the overflow-free arrangement
    exp(-W/mu_+) * [exp(-x) I0(x)] / sqrt(mu_+ mu_-), with exp(-x) I0(x)
    from numpy's i0 and, above x = 700, its asymptotic series, so the law
    imports no scipy.  When
    mu_-/mu_+ < DEGENERACY_SWITCH the Bessel form loses all precision and
    the exact sudden-limit law exp(-W/mu_+)/sqrt(pi W mu_+) is used
    instead; when mu_- == mu_+ (the shortcut) it is exp(-W/mu_+)/mu_+,
    with no Bessel function.  mu_minus is checked first, so every
    falling-ramp form (shortcut mu_+ = mu_- < 0, jump mu_+ = 0 > mu_-)
    raises the increasing-ramp error.
    """
    mu_p, mu_m = form.mu_plus, form.mu_minus
    if not 0.0 <= mu_m < math.inf:
        raise ValueError(
            f"mu_minus must be finite and >= 0, got {mu_m!r}: the density needs an increasing ramp"
        )
    require_positive(mu_plus=mu_p)
    W = np.asarray(W, dtype=float)
    scalar = W.ndim == 0
    W = np.atleast_1d(W)
    out = np.zeros_like(W)
    pos = W > 0.0
    if mu_m < DEGENERACY_SWITCH * mu_p:
        out[pos] = np.exp(-W[pos] / mu_p) / np.sqrt(np.pi * W[pos] * mu_p)
        out[W == 0.0] = np.inf
    elif mu_m == mu_p:
        # the shortcut's exponential: the Bessel form's bits, as i0e(0) == 1
        # and sqrt(mu_+ mu_+) == mu_+
        out[pos] = np.exp(-W[pos] / mu_p) / mu_p
        out[W == 0.0] = 1.0 / mu_p
    else:
        # exp(-(mu_+ + mu_-) W / (2 mu_+ mu_-)) * I0(arg) with
        # arg = (mu_+ - mu_-) W / (2 mu_+ mu_-)  ==  exp(-W/mu_+) * i0e(arg)
        arg = (mu_p - mu_m) * W[pos] / (2.0 * mu_p * mu_m)
        out[pos] = np.exp(-W[pos] / mu_p) * _i0e(arg) / math.sqrt(mu_p * mu_m)
        out[W == 0.0] = 1.0 / math.sqrt(mu_p * mu_m)
    return float(out[0]) if scalar else out


def _i0e(x: np.ndarray) -> np.ndarray:
    """exp(-x) I0(x) for a float array x >= 0, with numpy alone.

    np.i0(x) * exp(-x) up to _I0E_SWITCH; above it the asymptotic series
    (2 pi x)^(-1/2) sum_k [(2k - 1)!!]^2 / (k! (8x)^k) of Abramowitz &
    Stegun 9.7.1, whose other exponential, exp(-2x), is below 1e-600 there.
    """
    out = np.empty_like(x)
    low = x <= _I0E_SWITCH
    out[low] = np.i0(x[low]) * np.exp(-x[low])
    high = x[~low]
    series = np.full_like(high, _I0E_SERIES[-1])
    for coefficient in _I0E_SERIES[-2::-1]:
        series = series / high + coefficient
    out[~low] = series / np.sqrt(2.0 * math.pi * high)
    return out
