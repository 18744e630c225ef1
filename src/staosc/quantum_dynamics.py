"""Transition probabilities and two-point work measurement for the ramp.

Production transition matrices come in closed form
(:func:`transition_matrix`).  The controlled ramp is transitionless,
P(n -> m) = delta_nm.  For the bare ramp of a harmonic oscillator P(n -> m)
depends only on the adiabaticity factor Q* of the classical ramp
(Husimi, Prog. Theor. Phys. 9, 381 (1953); Deffner & Lutz, PRE 77, 021128
(2008)): it is the squared number-basis element of a squeeze operator
with cosh 2r = Q*, built by a forward recurrence that is accurate only in
the range :func:`_squeeze_probabilities` states.

Transition probabilities depend on neither hbar nor a basis frequency, so
this module forms them in units where hbar = 1.  hbar enters only where
energies are formed: the two-point work atoms (:func:`quantum_work_atoms`),
the adiabatic atoms and the free-energy difference.

:func:`fock_transition_matrix` is the integrated reference that tests and
``staosc verify`` compare the closed form against.  It propagates the
Schrodinger equation in a truncated number basis.  All operators are
represented in the number basis of a fixed reference oscillator of
frequency omega_ref (omega_i for the propagation).  In that ladder basis
the instantaneous Hamiltonian of the unit-mass oscillator

    H0(t) = p^2/2 + omega(t)^2 q^2 / 2

is real, symmetric and pentadiagonal with only the (n, n) and (n, n+2)
entries populated:

    <n|H0|n>     = (1/4) (omega_ref + omega^2/omega_ref) (2n + 1)
    <n+2|H0|n>   = (1/4) (omega^2/omega_ref - omega_ref) sqrt((n+1)(n+2))

and the shortcut control

    Hc(t) = -(omega_dot / (4 omega)) (q p + p q)
          = -(omega_dot / (4 omega)) * i (adag^2 - a^2)

contributes the purely imaginary co-diagonal
<n+2|Hc|n> = -i (omega_dot / (4 omega)) sqrt((n+1)(n+2)).  With the
control on, the propagator maps every instantaneous eigenstate of
H0(omega_i) onto the corresponding eigenstate of H0(omega_f) up to phase,
for arbitrarily short ramps.

Work is defined by projective energy measurements before and after the
ramp: the outcome W = E_m(omega_f) - E_n(omega_i) happens with probability
P_n(thermal) * P(n -> m).  Because H0 and Hc only couple states two levels
apart, parity is conserved and P(n -> m) vanishes whenever n and m have
opposite parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .classical_analytics import adiabaticity_parameter
from .errors import IntegrationError, TruncationLeakageError, require_int, require_positive
from .protocols import FrequencyProtocol, omega_at, omega_dot_at

#: Fraction of the top of the basis watched for truncation leakage.
_LEAK_FRACTION = 0.1
#: Maximum tolerated population in that top slice.
_LEAK_TOL = 1e-8
#: Row-sum completeness target for transition matrices.
_ROW_SUM_TOL = 1e-6
#: Largest excess of a transition row sum over 1 accepted as round-off.
_ROW_EXCESS_TOL = 1e-9
#: Largest relative error of a resolved final eigenvalue of the Fock basis.
_EIGENVALUE_TOL = 1e-9


def _require_dimension(dimension: int) -> None:
    """Raise ValueError unless the basis dimension is an even int >= 4."""
    require_int(4, dimension=dimension)
    if dimension % 2:
        raise ValueError(f"dimension must be even, got {dimension!r}")


@cache
def _ladder(dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only 2n + 1 and sqrt((n+1)(n+2)) of the number basis."""
    n = np.arange(dimension, dtype=float)
    arrays = (2.0 * n + 1.0, np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _bands(omega: float, omega_dot: float, omega_ref: float, dimension: int):
    """Diagonal and upper second co-diagonal of H0(omega), and that co-diagonal of Hc.

    These are the formulas of the module docstring; Hc has no diagonal.
    """
    two_n_plus_1, roots = _ladder(dimension)
    w2 = omega * omega
    diag = 0.25 * (omega_ref + w2 / omega_ref) * two_n_plus_1
    off = 0.25 * (w2 / omega_ref - omega_ref) * roots
    control = (0.25j * omega_dot / omega) * roots
    return diag, off, control


def _apply_hamiltonian(psi, d, u):
    """y = H psi for the Hermitian H with diagonal d and upper second co-diagonal u."""
    y = d[:, None] * psi
    y[:-2] += u[:, None] * psi[2:]
    y[2:] += np.conj(u)[:, None] * psi[:-2]
    return y


def h0_matrix(omega: float, omega_ref: float, dimension: int) -> np.ndarray:
    """Dense bare Hamiltonian at frequency omega, in the number basis of omega_ref."""
    require_positive(omega=omega, omega_ref=omega_ref)
    _require_dimension(dimension)
    diag, off, _ = _bands(omega, 0.0, omega_ref, dimension)
    return _apply_hamiltonian(np.eye(dimension), diag, off)


def hc_matrix(protocol: FrequencyProtocol, t: float, dimension: int) -> np.ndarray:
    """Dense control Hamiltonian -(omega_dot/4 omega)(qp + pq) at time t.

    Its matrix is the same in the number basis of every reference frequency.
    """
    _require_dimension(dimension)
    omega, omega_dot = omega_at(protocol, t), omega_dot_at(protocol, t)
    _, _, control = _bands(omega, omega_dot, protocol.omega_i, dimension)
    return _apply_hamiltonian(np.eye(dimension, dtype=complex), np.zeros(dimension), control)


def eigenbasis(omega: float, omega_ref: float, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of H0(omega)."""
    energies, vectors = np.linalg.eigh(h0_matrix(omega, omega_ref, dimension))
    return energies, vectors


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, with scipy.integrate imported on the first call.

    The Schrodinger solve of this module calls this binding, which
    perfbench/layers.py replaces to count the solves of this layer.
    """
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def _propagate_columns(
    psi0: np.ndarray,
    protocol: FrequencyProtocol,
    with_control: bool,
    tol: float = 1e-10,
) -> np.ndarray:
    """Solve i dpsi/dt = H(t) psi for columns in the number basis of omega_i."""
    N, cols = psi0.shape

    def rhs(t, y):
        w = omega_at(protocol, t)
        wd = omega_dot_at(protocol, t) if with_control else 0.0
        d, u, uc = _bands(w, wd, protocol.omega_i, N)
        psi = y.reshape(N, cols)
        return -1j * _apply_hamiltonian(psi, d, u + uc).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, protocol.tau),
        psi0.astype(complex).ravel(),
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
    )
    if not sol.success:
        raise IntegrationError(f"Schrodinger propagation failed: {sol.message}")
    psi_tau = sol.y[:, -1].reshape(N, cols)

    drift = np.abs(np.linalg.norm(psi_tau, axis=0) - np.linalg.norm(psi0, axis=0))
    if np.any(drift > 1e-9):
        raise IntegrationError(
            "propagation norm drift max|norm(psi_tau) - norm(psi_0)| = "
            f"{np.max(drift):.3e} beyond 1e-9; tighten tol"
        )
    tail = int(math.ceil(N * (1.0 - _LEAK_FRACTION)))
    leak = float(np.max(np.sum(np.abs(psi_tau[tail:]) ** 2, axis=0)))
    if leak > _LEAK_TOL:
        raise TruncationLeakageError(
            f"population {leak:.3e} reached the top {_LEAK_FRACTION:.0%} of the "
            f"basis (dimension {N}); increase the dimension"
        )
    return psi_tau


@dataclass(frozen=True)
class TransitionMatrix:
    """Level-to-level transition probabilities across one ramp.

    ``probs[n, m]`` is P(n -> m) from eigenstate n of H0(omega_i) into
    eigenstate m of H0(omega_f).  Rows cover n < n_max initial levels; the
    column count is chosen automatically so that every row sums to 1
    within the completeness tolerance (bare ramps scatter population to
    levels well above n).  The probabilities depend on no hbar.
    """

    probs: np.ndarray
    omega_i: float
    omega_f: float

    @property
    def n_max(self) -> int:
        return self.probs.shape[0]

    @property
    def m_max(self) -> int:
        return self.probs.shape[1]

    def row_sums(self) -> np.ndarray:
        return self.probs.sum(axis=1)


def _require_rows(n_max: int, dimension: int) -> None:
    """Raise ValueError unless n_max is an int in [1, dimension/4] of a valid basis."""
    _require_dimension(dimension)
    require_int(1, n_max=n_max)
    if n_max > dimension // 4:
        raise ValueError(
            f"n_max = {n_max} exceeds dimension/4 = {dimension // 4}; enlarge the basis"
        )


def _trimmed(p_full: np.ndarray, protocol: FrequencyProtocol) -> TransitionMatrix:
    """Keep the fewest final levels (doubling from 16) that complete every row.

    ``p_full`` holds P(n -> m) for all final levels of the basis; a row
    summing above 1 + 1e-9, as no probabilities can, raises IntegrationError.
    """
    worst = p_full.sum(axis=1).max()
    if worst > 1.0 + _ROW_EXCESS_TOL:
        raise IntegrationError(f"a transition row sums to {worst:.12g} > 1")
    dimension = p_full.shape[1]
    m_max = max(16, p_full.shape[0])
    while True:
        deficits = 1.0 - p_full[:, :m_max].sum(axis=1)
        if np.all(deficits <= _ROW_SUM_TOL):
            break
        if m_max >= dimension:
            raise TruncationLeakageError(
                f"transition rows stay incomplete even with all {dimension} "
                f"final levels (worst deficit {deficits.max():.3e}); increase "
                "the basis dimension"
            )
        m_max = min(2 * m_max, dimension)
    return TransitionMatrix(p_full[:, :m_max].copy(), protocol.omega_i, protocol.omega_f)


def _squeeze_probabilities(q_star: float, n_max: int, m_count: int) -> np.ndarray:
    """|<m|S(r)|n>|^2 of the squeeze operator with cosh 2r = q_star, as (n, m).

    With t = tanh r and s = sech r the amplitudes c[m, n] obey
    c[0, 0] = sqrt(s), c[0, n] = t sqrt((n-1)/n) c[0, n-2] and
    sqrt(m) c[m, n] = -t sqrt(m-1) c[m-2, n] + s sqrt(n) c[m-1, n-1].
    The forward sweep is not stable: its rounding error grows with n_max
    and Q*.  Over 512 final levels (800 at n_max 160) the largest
    |row sum - 1| is below 1e-14 at the shipped n_max of 24-64 with
    Q* <= 1.16, but 2.5e-5 at Q* = 1.1547 with n_max 160, 5.6e-2 at Q* = 2
    with n_max 100 and 31 at Q* = 1.5 with n_max 128.  The two gates of
    :func:`_trimmed` (a row sum above 1 + 1e-9, a deficit above 1e-6) are
    what stop such results.  The stable route is Husimi's Legendre form
    with fully normalised Ferrers functions.
    """
    t = math.sqrt((q_star - 1.0) / (q_star + 1.0))
    s = math.sqrt(2.0 / (q_star + 1.0))
    c = np.zeros((m_count, n_max))
    c[0, 0] = math.sqrt(s)
    for n in range(2, n_max, 2):
        c[0, n] = t * math.sqrt((n - 1) / n) * c[0, n - 2]
    s_root_n = s * np.sqrt(np.arange(1, n_max, dtype=float))
    for m in range(1, m_count):
        row = c[m]
        row[1:] = s_root_n * c[m - 1, :-1]
        if m >= 2:
            row -= (t * math.sqrt(m - 1)) * c[m - 2]
        row /= math.sqrt(m)
    return (c * c).T


def transition_matrix(
    protocol: FrequencyProtocol,
    with_control: bool = False,
    n_max: int = 32,
    dimension: int = 512,
) -> TransitionMatrix:
    """Exact transition probabilities of the lowest n_max initial levels.

    P = I for the controlled ramp; for the bare ramp, the squeeze-operator
    probabilities with cosh 2r = Q*, Q* coming from the classical basic
    solutions (the bare Phi's doubling and det gates apply).  Q* below 1 - 1e-9 raises
    IntegrationError; smaller round-off is clamped to 1.  dimension caps
    the final levels and n_max <= dimension / 4, as for
    :func:`fock_transition_matrix`, the integrated reference.
    """
    _require_rows(n_max, dimension)
    if with_control:
        p_full = np.eye(n_max, dimension)
    else:
        q_star = adiabaticity_parameter(protocol)
        if q_star < 1.0 - 1e-9:
            raise IntegrationError(
                f"adiabaticity factor Q* = {q_star!r} is below 1 beyond 1e-9"
            )
        p_full = _squeeze_probabilities(max(q_star, 1.0), n_max, dimension)
    return _trimmed(p_full, protocol)


def fock_transition_matrix(
    protocol: FrequencyProtocol,
    with_control: bool = False,
    n_max: int = 32,
    dimension: int = 512,
    tol: float = 1e-10,
) -> TransitionMatrix:
    """Propagate the lowest n_max initial eigenstates and project at tau.

    The integrated reference for :func:`transition_matrix`, with all the
    propagation gates (norm drift, top-of-basis leakage, row sums), in the
    number basis of omega_i.  n_max is capped at a quarter of the basis
    dimension so the propagated states stay far from the truncation edge.
    The truncated basis must also resolve every final level it projects
    onto: the m-th eigenvalue of H0(omega_f) must equal omega_f (m + 1/2)
    within 1e-9 relative for every m < m_max, or TruncationLeakageError is
    raised.
    """
    require_positive(tol=tol)
    _require_rows(n_max, dimension)
    # the lowest n_max number states of omega_i are the first unit vectors
    psi_0 = np.eye(dimension, n_max, dtype=complex)
    e_f, v_f = eigenbasis(protocol.omega_f, protocol.omega_i, dimension)
    psi_tau = _propagate_columns(psi_0, protocol, with_control, tol)
    # full (final level m, initial level n) probability table
    amplitudes = v_f.conj().T @ psi_tau
    tm = _trimmed((np.abs(amplitudes) ** 2).T, protocol)
    exact = protocol.omega_f * (np.arange(tm.m_max) + 0.5)
    worst = float(np.max(np.abs(e_f[: tm.m_max] - exact) / exact))
    if worst > _EIGENVALUE_TOL:
        raise TruncationLeakageError(
            f"max relative eigenvalue error {worst:.3e} over m < m_max = {tm.m_max} exceeds "
            f"{_EIGENVALUE_TOL:g} in the {dimension}-level basis; increase the dimension"
        )
    return tm


@dataclass(frozen=True)
class QuantumWorkAtoms:
    """Discrete two-point-measurement work distribution.

    ``works`` is sorted ascending; ``probs`` sums to 1 within 1e-6 (the
    shortfall is basis truncation).  ``gibbs_tail`` reports the raw
    thermal weight discarded by cutting the initial-level sum.  The sets
    this module builds hold outcomes only, each atom with positive
    probability; a set built by hand may also hold atoms of probability 0.
    """

    works: np.ndarray
    probs: np.ndarray
    gibbs_tail: float = 0.0

    def __post_init__(self):
        works = np.asarray(self.works, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if works.shape != probs.shape or works.ndim != 1:
            raise ValueError("works and probs must be matching 1-d arrays")
        if not np.all(np.isfinite(works)):
            raise ValueError("works must be finite")
        if np.any(np.diff(works) < 0.0):
            raise ValueError("works must be sorted ascending")
        if not np.all((probs >= 0.0) & (probs < np.inf)):
            raise ValueError("probs must be finite and non-negative")
        total = probs.sum()
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1 within 1e-6")
        object.__setattr__(self, "works", works)
        object.__setattr__(self, "probs", probs)

    def mean(self) -> float:
        return float(np.dot(self.probs, self.works))

    def std(self) -> float:
        m = self.mean()
        return float(math.sqrt(np.dot(self.probs, (self.works - m) ** 2)))

    def negative_probability(self) -> float:
        """Total weight on strictly negative work outcomes."""
        return float(self.probs[self.works < 0.0].sum())


def _merge_atoms(works: np.ndarray, probs: np.ndarray, scale: float):
    """Sort atoms and coalesce values closer than 1e-9 relative.

    A group starts wherever the gap to the previous sorted atom exceeds
    1e-9 max(|w|, |w_prev|, 1e-6 scale).  A merged atom sits at the
    probability-weighted position of its group, which keeps it unbiased;
    a lone atom keeps its exact value.
    """
    order = np.argsort(works)
    works = works[order]
    probs = probs[order]
    ref = np.maximum(np.maximum(np.abs(works[1:]), np.abs(works[:-1])), scale * 1e-6)
    starts = np.flatnonzero(np.concatenate(([True], np.diff(works) > 1e-9 * ref)))
    merged_p = np.add.reduceat(probs, starts)
    merged_w = works[starts]
    sizes = np.diff(np.append(starts, works.size))
    pooled = (sizes > 1) & (merged_p > 0.0)
    moments = np.add.reduceat(works * probs, starts)
    merged_w[pooled] = moments[pooled] / merged_p[pooled]
    return merged_w, merged_p


def quantum_work_atoms(tm: TransitionMatrix, beta: float, hbar: float = 1.0) -> QuantumWorkAtoms:
    """Two-point-measurement work atoms for a thermal initial state.

    Initial level n carries the truncated-and-renormalized thermal weight
    proportional to exp(-n beta hbar omega_i); each (n, m) pair of positive
    weighted probability contributes an atom at
    W = hbar omega_f (m + 1/2) - hbar omega_i (n + 1/2).  A pair of
    probability 0 is no outcome and gives no atom: the controlled ramp has
    P = I and so one atom per level, and on the bare ramp the parity rule
    leaves no atom where n - m is odd (nor where a weight underflows).
    hbar enters here only: the probabilities of ``tm`` do not depend on it.
    """
    require_positive(beta=beta, hbar=hbar)
    omega_i, omega_f = tm.omega_i, tm.omega_f
    n_max, m_max = tm.probs.shape
    x = math.exp(-beta * hbar * omega_i)
    raw = x ** np.arange(n_max)
    weights = raw / raw.sum()
    gibbs_tail = x**n_max  # discarded mass relative to the full geometric sum

    n = np.arange(n_max, dtype=float)
    m = np.arange(m_max, dtype=float)
    w_grid = hbar * omega_f * (m[None, :] + 0.5) - hbar * omega_i * (n[:, None] + 0.5)
    p_grid = weights[:, None] * tm.probs
    outcome = p_grid > 0.0
    works, probs = _merge_atoms(w_grid[outcome], p_grid[outcome], scale=hbar * omega_f)
    return QuantumWorkAtoms(works=works, probs=probs, gibbs_tail=gibbs_tail)


def pdf_quantum_adiabatic(
    beta: float, omega_i: float, omega_f: float, hbar: float = 1.0, n_max: int = 64
) -> QuantumWorkAtoms:
    """Atoms of the transitionless (or infinitely slow) quantum ramp.

    Level populations never change (P = I), so the only outcomes are
    W = hbar (omega_f - omega_i)(n + 1/2) with geometric thermal weights
    (1 - x) x^n, x = exp(-beta hbar omega_i); a level whose weight
    underflows to 0 gives no atom.  n_max must leave a raw geometric tail
    below 1e-10.
    """
    require_positive(beta=beta, omega_i=omega_i, omega_f=omega_f, hbar=hbar)
    require_int(1, n_max=n_max)
    x = math.exp(-beta * hbar * omega_i)
    tail = x**n_max
    if tail >= 1e-10:
        fix = (
            f"use n_max >= {int(math.ceil(math.log(1e-10) / math.log(x))) + 1}"
            if x < 1.0 else "no n_max reaches it, as exp(-beta hbar omega_i) rounds to 1"
        )
        raise ValueError(f"geometric tail {tail:.3e} at n_max={n_max} exceeds 1e-10; {fix}")
    n = np.arange(n_max, dtype=float)
    probs = (1.0 - x) * x**n
    outcome = probs > 0.0  # a level whose weight x^n underflows is no outcome
    works = hbar * (omega_f - omega_i) * (n[outcome] + 0.5)
    probs = probs[outcome] / probs.sum()  # absorb the sub-1e-10 truncation remainder
    if omega_f < omega_i:
        works = works[::-1].copy()
        probs = probs[::-1].copy()
    return QuantumWorkAtoms(works=works, probs=probs, gibbs_tail=tail)


def _log_sinh(x: float) -> float:
    """log(sinh(x)) for x > 0, without overflow and to round-off at small x."""
    return x + math.log(-math.expm1(-2.0 * x)) - math.log(2.0)


def delta_f_quantum(beta: float, omega_i: float, omega_f: float, hbar: float = 1.0) -> float:
    """Free-energy difference of the quantum oscillator between frequencies.

    (1/beta) log[ sinh(beta hbar omega_f / 2) / sinh(beta hbar omega_i / 2) ],
    evaluated through log-sinh so that deep-quantum arguments cannot
    overflow.
    """
    require_positive(beta=beta, omega_i=omega_i, omega_f=omega_f, hbar=hbar)
    a = 0.5 * beta * hbar * omega_f
    b = 0.5 * beta * hbar * omega_i
    return (_log_sinh(a) - _log_sinh(b)) / beta
